"""Small references that only the tests use: the full space, a subspace's
membership test, a polynomial's leading form and homogenization (which
`PolySystem.leading_system` and `homogenized_system` build for the package),
and the Frobenius map."""

from cwlab.errors import ZeroPolynomial
from cwlab.polynomials import MultiPoly
from cwlab.subspaces import AffineSubspace


def full_space(F, n):
    """A^n(F) as an AffineSubspace: offset 0, the unit rows as its basis."""
    return AffineSubspace(F, [0] * n, [[F.one if j == i else 0 for j in range(n)] for i in range(n)])


def contains(L, point):
    """Whether point lies on L: its difference from L's offset reduces to 0
    by L's RREF rows."""
    F = L.field
    out = [F.sub(x, o) for x, o in zip(point, L.offset)]
    for row, piv in zip(L.basis, L.pivots):
        c = out[piv]
        if c:
            out = [F.sub(x, F.mul(c, y)) for x, y in zip(out, row)]
    return not any(out)


def leading_form(f):
    """f's homogeneous part of top total degree; ZeroPolynomial for 0."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no leading form")
    return f.homogeneous_component(int(f.total_degree))


def homogenize(f):
    """The form of f's degree in one more variable, inserted at position 0,
    that reads f at x0 = 1 and its leading form at x0 = 0; ZeroPolynomial for 0."""
    if f.is_zero:
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    d = int(f.total_degree)
    return MultiPoly(f.field, f.nvars + 1, {(d - sum(e),) + e: c for e, c in f.terms.items()})


def frobenius(F, a, i=1):
    """a^(p^i), the i-th Frobenius iterate."""
    return F.pow(a, F.p**i)
