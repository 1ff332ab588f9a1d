"""The .sys and .sub text formats (README): line oriented, '#' comments,
LF or CRLF read, LF written."""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetExceeded, CwlabError, ExprSyntaxError, FormatError
from .fields import FieldSpec, build_field, element_literal, parse_element_literal, read_int
from .polynomials import MultiPoly, PolySystem, check_names, parse_poly
from .subspaces import AffineSubspace


def _logical_lines(text: str) -> list[tuple[int, str]]:
    """(line number, body) of each line with a body left after its comment."""
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((i, body))
    return out


def read_sys(text: str) -> tuple[FieldSpec, list[str], PolySystem]:
    """(field, names, system) of a .sys text; FormatError naming the line,
    except BudgetExceeded for a field past the cap (DegreeTooLarge) or an
    expression past the parser's caps."""
    lines = _logical_lines(text)
    if not lines:
        raise FormatError("empty system file", 1)
    field: FieldSpec | None = None
    names: list[str] | None = None
    polys: list[MultiPoly] = []
    for lineno, body in lines:
        key, _, rest = body.partition(" ")
        rest = rest.strip()
        if key == "field":
            if field is not None:
                raise FormatError("duplicate field line", lineno)
            attrs: dict = {}
            for item in rest.split():
                name, _, val = item.partition("=")
                if name not in ("p", "k", "modulus"):
                    raise FormatError(f"unknown field attribute {name!r}", lineno)
                if name in attrs:
                    raise FormatError(f"duplicate field attribute {name}=", lineno)
                try:
                    attrs[name] = tuple(map(read_int, val.split(","))) if name == "modulus" else read_int(val)
                except ValueError:
                    raise FormatError(f"field attribute {name}= takes integers, got {val!r}", lineno) from None
            if "p" not in attrs or "k" not in attrs:
                raise FormatError("field line needs p= and k=", lineno)
            try:
                field = build_field(attrs["p"], attrs["k"], attrs.get("modulus"))
            except BudgetExceeded:
                raise
            except (CwlabError, ValueError) as exc:
                raise FormatError(str(exc), lineno) from exc
        elif key == "vars":
            if field is None:
                raise FormatError("vars before field line", lineno)
            if names is not None:
                raise FormatError("duplicate vars line", lineno)
            names = rest.split()
            if not names:
                raise FormatError("vars line declares no variables", lineno)
            try:
                check_names(names)
            except CwlabError as exc:
                raise FormatError(str(exc), lineno) from exc
        elif key == "poly":
            if field is None or names is None:
                raise FormatError("poly before field/vars lines", lineno)
            try:
                poly = parse_poly(rest, field, names)
            except ExprSyntaxError as exc:
                raise FormatError(str(exc), lineno, exc.position + 1) from exc
            except BudgetExceeded:
                raise
            except CwlabError as exc:
                raise FormatError(str(exc), lineno) from exc
            if poly.is_zero:
                raise FormatError("systems may not contain the zero polynomial", lineno)
            polys.append(poly)
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    if field is None or names is None or not polys:
        raise FormatError("a system file needs field, vars, and poly lines", 1)
    # every poly line parsed over one field and vars line, and none is zero
    return field, names, PolySystem(polys)


def write_sys(field: FieldSpec, names: Sequence[str], system: PolySystem) -> str:
    """The .sys text, the modulus written out; `read_sys` reads it back as is."""
    mod = ",".join(str(c) for c in field.modulus)
    lines = [f"field p={field.p} k={field.k} modulus={mod}", "vars " + " ".join(names)]
    for f in system.polys:
        lines.append("poly " + f.to_text(names))
    return "\n".join(lines) + "\n"


def read_sub(text: str, field: FieldSpec) -> AffineSubspace:
    """The subspace of a .sub text over field; FormatError naming the line."""
    lines = _logical_lines(text)
    ambient = None
    offset = None
    rows = []
    for lineno, body in lines:
        key, _, rest = body.partition(" ")
        parts = rest.split()
        if key == "ambient":
            if ambient is not None:
                raise FormatError("duplicate ambient line", lineno)
            try:
                ambient = read_int(parts[0]) if len(parts) == 1 else -1
            except ValueError:
                ambient = -1
            if ambient < 0:
                raise FormatError(f"ambient takes one integer >= 0, got {rest!r}", lineno)
        elif key == "offset":
            if ambient is None:
                raise FormatError("offset before ambient", lineno)
            if offset is not None:
                raise FormatError("duplicate offset line", lineno)
            if len(parts) != ambient:
                raise FormatError(f"offset needs {ambient} entries", lineno)
            try:
                offset = [parse_element_literal(field, t) for t in parts]
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from exc
        elif key == "basis":
            if ambient is None:
                raise FormatError("basis before ambient", lineno)
            if len(parts) != ambient:
                raise FormatError(f"basis rows need {ambient} entries", lineno)
            try:
                rows.append([parse_element_literal(field, t) for t in parts])
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from exc
        else:
            raise FormatError(f"unknown directive {key!r}", lineno)
    if ambient is None or offset is None:
        raise FormatError("a subspace file needs ambient and offset lines", 1)
    try:
        return AffineSubspace(field, offset, rows)
    except CwlabError as exc:
        raise FormatError(str(exc), 1) from exc


def write_sub(L: AffineSubspace) -> str:
    """The .sub text of L."""
    F = L.field
    lines = [f"ambient {L.ambient}"]
    lines.append("offset " + " ".join(element_literal(F, x) for x in L.offset))
    for row in L.basis:
        lines.append("basis " + " ".join(element_literal(F, x) for x in row))
    return "\n".join(lines) + "\n"
