"""Sparse multivariate polynomials over a FieldSpec, and their parser."""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Sequence, TYPE_CHECKING

from .errors import (
    ArityMismatch, BudgetExceeded, ExprSyntaxError, GeneratorInPrimeField, InvalidArgument, UnknownVariable,
    ZeroPolynomial,
)
from .fields import FieldSpec, element_literal

if TYPE_CHECKING:  # pragma: no cover
    from .subspaces import AffineSubspace

NEG_INF = float("-inf")


class MultiPoly:
    """A polynomial: terms maps exponent tuples to nonzero coefficients.
    Immutable; arithmetic returns new objects.  The zero polynomial has
    total degree -inf, a float that compares with integer degrees."""

    __slots__ = ("field", "nvars", "terms", "_degrees")

    def __init__(self, field: FieldSpec, nvars: int, terms: dict[tuple[int, ...], int]):
        self.field = field
        self.nvars = nvars
        self.terms = terms
        self._degrees: int | None = None  # see `_degree_scan`

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, nvars: int) -> "MultiPoly":
        """The zero polynomial."""
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: FieldSpec, nvars: int, c: int) -> "MultiPoly":
        """The constant c."""
        if c == 0:
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: FieldSpec, nvars: int, i: int) -> "MultiPoly":
        """The variable numbered i."""
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: field.one})

    @classmethod
    def from_terms(
        cls, field: FieldSpec, nvars: int, items: Iterable[tuple[tuple[int, ...], int]]
    ) -> "MultiPoly":
        """The sum of the (exponents, coefficient) terms; ArityMismatch for
        an exponent vector of the wrong length."""
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in items:
            if len(exps) != nvars:
                raise ArityMismatch(f"exponent vector {exps} has wrong length")
            acc = field.add(terms.get(exps, 0), c)
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return cls(field, nvars, terms)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Whether there is no term."""
        return not self.terms

    @property
    def total_degree(self) -> int | float:
        """The largest total degree of a term; -inf for zero."""
        code = self._degree_scan()
        return code >> 1 if code >= 0 else NEG_INF

    @property
    def is_homogeneous(self) -> bool:
        """Whether every term has one total degree (zero included)."""
        code = self._degree_scan()
        return code < 0 or bool(code & 1)

    def _degree_scan(self) -> int:
        """2d + 1 if homogeneous else 2d, d the total degree, -1 for zero:
        one scan of the terms, kept."""
        if self._degrees is None:
            degs = {sum(e) for e in self.terms}
            self._degrees = 2 * max(degs) + (len(degs) == 1) if degs else -1
        return self._degrees

    def homogeneous_component(self, e: int) -> "MultiPoly":
        """The sum of terms of total degree exactly e."""
        return MultiPoly(
            self.field, self.nvars, {x: c for x, c in self.terms.items() if sum(x) == e}
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        F = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = F.add(terms.get(e, 0), c)
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return MultiPoly(F, self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        F = self.field
        return MultiPoly(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        F = self.field
        terms: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc = F.add(terms.get(e, 0), F.mul(ca, cb))
                if acc:
                    terms[e] = acc
                else:
                    terms.pop(e, None)
        return MultiPoly(F, self.nvars, terms)

    def scale(self, c: int) -> "MultiPoly":
        """c times the polynomial."""
        F = self.field
        if c == 0:
            return MultiPoly.zero(F, self.nvars)
        return MultiPoly(F, self.nvars, {e: F.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        acc = MultiPoly.constant(self.field, self.nvars, self.field.one)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def map_coefficients(self, func: Callable[[int], int], field: FieldSpec) -> "MultiPoly":
        """Apply func to every coefficient (e.g. an embedding or Frobenius)."""
        terms = {}
        for e, c in self.terms.items():
            v = func(c)
            if v:
                terms[e] = v
        return MultiPoly(field, self.nvars, terms)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        """The value at point, by scalar arithmetic (the reference)."""
        if len(point) != self.nvars:
            raise ArityMismatch(f"expected {self.nvars} coordinates, got {len(point)}")
        F = self.field
        acc = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = F.mul(v, F.pow(x, e))
                    if v == 0:
                        break
            acc = F.add(acc, v)
        return acc

    def substituted(self, subs: Sequence["MultiPoly"]) -> "MultiPoly":
        """Compose: substitute subs[i] for variable i (all over one field)."""
        if len(subs) != self.nvars:
            raise ArityMismatch(f"expected {self.nvars} substitutions")
        F = self.field
        m = subs[0].nvars if subs else 0
        out = MultiPoly.zero(F, m)
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def powed(i: int, e: int) -> MultiPoly:
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = subs[i] ** e
            return pow_cache[key]

        for exps, c in self.terms.items():
            term = MultiPoly.constant(F, m, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * powed(i, e)
            out = out + term
        return out

    # -- text -----------------------------------------------------------------

    def to_text(self, names: Sequence[str]) -> str:
        """The canonical text: terms in lexicographic exponent order."""
        if not self.terms:
            return "0"
        F = self.field
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                parts.append(element_literal(F, c))
            elif c == F.one:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([element_literal(F, c)] + factors))
        return " + ".join(parts)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        names = [f"x{i+1}" for i in range(self.nvars)]
        return f"MultiPoly({self.to_text(names)} over F_{self.field.q})"


class PolySystem:
    """Nonzero polynomials over one field and variable count, with their
    total degrees and the sum d of them."""

    __slots__ = ("polys", "degrees", "total_degree", "field", "nvars", "_homogeneous")

    def __init__(self, polys: Sequence[MultiPoly]):
        if not polys:
            raise ValueError("a system needs at least one polynomial")
        field = polys[0].field
        nvars = polys[0].nvars
        for f in polys:
            if f.field != field or f.nvars != nvars:
                raise ArityMismatch("system polynomials must share field and arity")
            if f.is_zero:
                raise ZeroPolynomial("systems may not contain the zero polynomial")
        self.polys = tuple(polys)
        self.field = field
        self.nvars = nvars
        self.degrees = tuple(int(f.total_degree) for f in self.polys)
        self.total_degree = sum(self.degrees)
        self._homogeneous: bool | None = None

    @property
    def r(self) -> int:
        """The number of polynomials."""
        return len(self.polys)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every polynomial is homogeneous, computed on first read."""
        if self._homogeneous is None:
            self._homogeneous = all(f.is_homogeneous for f in self.polys)
        return self._homogeneous

    def leading_system(self) -> "PolySystem":
        """The leading forms."""
        return self._forms([f.homogeneous_component(d) for f, d in zip(self.polys, self.degrees)])

    def homogenized_system(self) -> "PolySystem":
        """The homogenizations."""
        homogenized = [{(d - sum(e),) + e: c for e, c in f.terms.items()} for f, d in zip(self.polys, self.degrees)]
        return self._forms([MultiPoly(self.field, self.nvars + 1, terms) for terms in homogenized])

    def _forms(self, polys: list[MultiPoly]) -> "PolySystem":
        """A system of forms of self's degrees, unscanned."""
        out = object.__new__(PolySystem)
        out.polys, out.field, out.nvars = tuple(polys), self.field, polys[0].nvars
        out.degrees, out.total_degree, out._homogeneous = self.degrees, self.total_degree, True
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySystem):
            return NotImplemented
        return self.polys == other.polys

    def __hash__(self) -> int:
        return hash(self.polys)

    def __repr__(self) -> str:
        return f"PolySystem(r={self.r}, n={self.nvars}, degrees={self.degrees})"


def restrict_to_subspace(system: PolySystem, L: "AffineSubspace") -> PolySystem:
    """The system on L, x = offset + sum t_j b_j, in dim(L) variables, with
    the polynomials that vanish on L dropped; ZeroPolynomial if all do."""
    from .subspaces import AffineSubspace  # deferred to avoid a cycle

    if not isinstance(L, AffineSubspace):
        raise TypeError("expected an AffineSubspace")
    if L.ambient != system.nvars:
        raise ArityMismatch(
            f"subspace ambient {L.ambient} != system arity {system.nvars}"
        )
    restricted = restrict_polys(system.polys, L.offset, L.basis, system.field)
    nonzero = [f for f in restricted if not f.is_zero]
    if not nonzero:
        raise ZeroPolynomial("every polynomial vanishes identically on the subspace")
    return PolySystem(nonzero)


def restrict_polys(
    polys: Sequence[MultiPoly],
    offset: Sequence[int],
    rows: Sequence[Sequence[int]],
    field: FieldSpec,
) -> list[MultiPoly]:
    """The restrictions, zero ones included."""
    m = len(rows)
    subs = []
    for i in range(len(offset)):
        items: list[tuple[tuple[int, ...], int]] = []
        if offset[i]:
            items.append(((0,) * m, offset[i]))
        for j in range(m):
            if rows[j][i]:
                e = tuple(1 if t == j else 0 for t in range(m))
                items.append((e, rows[j][i]))
        subs.append(MultiPoly.from_terms(field, m, items))
    return [f.substituted(subs) for f in polys]


# -- expression parser ----------------------------------------------------------

_OPS = set("+-*^()")
# parentheses and unary minus nest at most this deep, far below the
# interpreter's recursion limit
MAX_NESTING = 100
# a power or a product is expanded only to at most this degree (x^(q-1)
# stays writable) and this many terms, bounded before anything is multiplied
MAX_POWER_DEGREE = 1 << 20
MAX_POWER_TERMS = 500


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            if ch in _OPS:
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch == "−":  # unicode minus
                self.tokens.append(("-", "-", i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ":":
                    while j < n and (text[j].isdigit() or text[j] == ":"):
                        j += 1
                    self.tokens.append(("elem", text[i:j], i))
                else:
                    self.tokens.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)

    def peek(self) -> tuple[str, str, int]:
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return ("eof", "", len(self.text))

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.idx += 1
        return tok


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := atom ('^' int)*,
    atom := int | elem | ident | '(' expr ')' | '-' atom."""

    def __init__(self, text: str, field: FieldSpec, names: Sequence[str]):
        self.lex = _Lexer(text)
        self.field = field
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.depth = 0

    def parse(self) -> MultiPoly:
        poly = self._expr()
        kind, val, pos = self.lex.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return poly

    def _expr(self) -> MultiPoly:
        acc = self._term()
        while True:
            kind, _, _ = self.lex.peek()
            if kind == "+":
                self.lex.take()
                acc = acc + self._term()
            elif kind == "-":
                self.lex.take()
                acc = acc - self._term()
            else:
                return acc

    def _term(self) -> MultiPoly:
        acc = self._factor()
        while self.lex.peek()[0] == "*":
            _, _, pos = self.lex.take()
            rhs = self._factor()
            if acc.terms and rhs.terms:
                degree = int(acc.total_degree + rhs.total_degree)
                bound = min(len(acc.terms) * len(rhs.terms), comb(degree + acc.nvars, acc.nvars))
                _check_expansion("product", pos, degree, bound)
            acc = acc * rhs
        return acc

    def _factor(self) -> MultiPoly:
        kind, _, pos = self.lex.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_NESTING} levels", pos)
        try:
            if kind == "-":
                self.lex.take()
                return -self._factor()  # unary minus binds looser than ^
            base = self._atom()
            while self.lex.peek()[0] == "^":
                self.lex.take()
                kind, val, pos = self.lex.take()
                if kind != "int":
                    raise ExprSyntaxError("exponent must be a plain integer", pos)
                base = base ** _power_exponent(base, val, pos)
            return base
        finally:
            self.depth -= 1

    def _atom(self) -> MultiPoly:
        F = self.field
        kind, val, pos = self.lex.take()
        if kind == "int":
            return MultiPoly.constant(F, self.nvars, F.from_int(int(val)))
        if kind == "elem":
            parts = val.split(":")
            if F.k == 1:
                raise ExprSyntaxError("colon literals need an extension field", pos)
            if len(parts) != F.k or any(p == "" for p in parts):
                raise ExprSyntaxError(
                    f"element literal needs {F.k} coordinates", pos
                )
            return MultiPoly.constant(
                F, self.nvars, F.from_coords([int(p) for p in parts])
            )
        if kind == "ident":
            if val == "g":
                if F.k == 1:
                    raise GeneratorInPrimeField(
                        "the symbol g is only defined for extension fields"
                    )
                return MultiPoly.constant(F, self.nvars, F.generator)
            if val in self.names:
                return MultiPoly.variable(F, self.nvars, self.names[val])
            raise UnknownVariable(f"unknown variable {val!r} at position {pos}")
        if kind == "(":
            inner = self._expr()
            kind2, _, pos2 = self.lex.take()
            if kind2 != ")":
                raise ExprSyntaxError("expected ')'", pos2)
            return inner
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def _power_exponent(base: MultiPoly, digits: str, pos: int) -> int:
    """The exponent e of base^e; BudgetExceeded, before any expansion, when
    the degree or the bound on the terms would pass the caps."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_POWER_DEGREE)):  # also too long for int()
        raise BudgetExceeded(f"exponent at position {pos} is past the cap {MAX_POWER_DEGREE}")
    e = int(digits)
    t = len(base.terms)
    degree = e * int(base.total_degree) if t else 0  # the zero polynomial has degree -inf
    terms = min(comb(t + e - 1, e), comb(degree + base.nvars, base.nvars)) if t > 1 else 1
    _check_expansion("power", pos, degree, terms)
    return e


def _check_expansion(what: str, pos: int, degree: int, terms: int) -> None:
    """BudgetExceeded past MAX_POWER_DEGREE or MAX_POWER_TERMS."""
    if degree > MAX_POWER_DEGREE or terms > MAX_POWER_TERMS:
        raise BudgetExceeded(
            f"{what} at position {pos} would have degree {degree} and up to {terms} "
            f"terms (caps {MAX_POWER_DEGREE} and {MAX_POWER_TERMS})"
        )


def parse_poly(text: str, field: FieldSpec, names: Sequence[str]) -> MultiPoly:
    """Parse an expression over + - * ^ and parentheses: integer literals
    (mod p), colon element literals and g (extension fields only), and the
    variables named; '#' starts a comment."""
    check_names(names)
    return _Parser(text, field, names).parse()


def check_names(names: Sequence[str]) -> None:
    """InvalidArgument for a name given twice, or g."""
    seen = set()
    for name in names:
        if name in seen:
            raise InvalidArgument(f"duplicate variable name {name!r}")
        if name == "g":
            raise InvalidArgument("the name 'g' is reserved for the field generator")
        seen.add(name)
