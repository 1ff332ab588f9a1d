"""The .sys and .sub text formats.

.sys (a field plus a polynomial system), line oriented, '#' comments,
UTF-8, LF or CRLF accepted, LF emitted:

    field p=<int> k=<int> [modulus=c0,c1,...,ck]
    vars <ident> <ident> ...
    poly <expression>         # one or more

When modulus is omitted the canonical (lexicographically least) modulus is
implied.  Element literals are plain integers for k=1 and c0:c1:...:c(k-1)
otherwise.

.sub (an affine subspace; the field comes from the accompanying .sys):

    ambient <n>
    offset e1 e2 ... en
    basis e1 e2 ... en        # dim(L) lines
"""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetExceeded, CwlabError, ExprSyntaxError, FormatError
from .fields import FieldSpec, build_field, element_literal, parse_element_literal
from .polynomials import MultiPoly, PolySystem, check_names, parse_poly
from .subspaces import AffineSubspace


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((i, body))
    return out


def read_sys(text: str) -> tuple[FieldSpec, list[str], PolySystem]:
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
                try:
                    attrs[name] = tuple(map(int, val.split(","))) if name == "modulus" else int(val)
                except ValueError:
                    raise FormatError(f"field attribute {name}= takes integers, got {val!r}", lineno) from None
            if "p" not in attrs or "k" not in attrs:
                raise FormatError("field line needs p= and k=", lineno)
            try:
                field = build_field(attrs["p"], attrs["k"], attrs.get("modulus"))
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
    mod = ",".join(str(c) for c in field.modulus)
    lines = [f"field p={field.p} k={field.k} modulus={mod}", "vars " + " ".join(names)]
    for f in system.polys:
        lines.append("poly " + f.to_text(names))
    return "\n".join(lines) + "\n"


def read_sub(text: str, field: FieldSpec) -> AffineSubspace:
    lines = _logical_lines(text)
    ambient = None
    offset = None
    rows = []
    for lineno, body in lines:
        key, _, rest = body.partition(" ")
        parts = rest.split()
        if key == "ambient":
            if len(parts) != 1 or not parts[0].isdecimal():
                raise FormatError(f"ambient takes one integer >= 0, got {rest!r}", lineno)
            ambient = int(parts[0])
        elif key == "offset":
            if ambient is None:
                raise FormatError("offset before ambient", lineno)
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
    F = L.field
    lines = [f"ambient {L.ambient}"]
    lines.append("offset " + " ".join(element_literal(F, x) for x in L.offset))
    for row in L.basis:
        lines.append("basis " + " ".join(element_literal(F, x) for x in row))
    return "\n".join(lines) + "\n"
