"""Small references that only the tests use: the full space, a subspace's
membership test, a polynomial's leading form and homogenization (which
`PolySystem.leading_system` and `homogenized_system` build for the package),
the Frobenius map, a substitution summed term by term, the monomials by
recursion and a subfield embedding's roots by a scan of the whole field."""

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


def folded_substitution(f, subs):
    """f with subs[i] for variable i, summed by out = out + term (each sum
    copies the sum so far): the reference for `MultiPoly.substituted`."""
    F, m = f.field, subs[0].nvars
    out = MultiPoly.zero(F, m)
    for exps, c in f.terms.items():
        term = MultiPoly.constant(F, m, c)
        for i, e in enumerate(exps):
            if e:
                term = term * subs[i] ** e
        out = out + term
    return out


def monomials_by_recursion(n, d):
    """The exponent tuples in n variables of total degree <= d, sorted."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], d)
    return sorted(out)


def embedding_by_full_scan(small, big):
    """The table of the canonical embedding of small into big, its roots
    found by Horner's rule at every element of big, least root first, each
    checked against the embeddings of small's proper subfields."""
    from cwlab.fields import _embedding_for_root, build_field, embed_subfield

    roots = []
    for b in range(big.q):
        acc = big.zero
        for c in reversed(small.modulus):
            acc = big.add(big.mul(acc, b), big.from_int(c))
        if acc == big.zero:
            roots.append(b)
    for img in roots:
        table = _embedding_for_root(small, big, img)
        subfields = [build_field(small.p, j) for j in range(2, small.k) if small.k % j == 0]
        if all(table[embed_subfield(S, small)(S.generator)] == embed_subfield(S, big)(S.generator) for S in subfields):
            return table
    raise AssertionError("no compatible root")
