"""Small references that only the tests use: the full space, a subspace's
membership test, a polynomial's leading form and homogenization (which
`PolySystem.leading_system` and `homogenized_system` build for the package),
the Frobenius map, the relative norm, a substitution summed term by term,
the monomials by recursion, a subfield embedding's roots by a scan of the
whole field, the seeded draws one scalar output at a time (a random
system's coefficients and a corpus system), the affine-subspace test of a
point set, the linear-factor search as a seeded random-point screen of
every normalized form, and block-separable systems with their exact counts
from the blocks' value histograms."""

from itertools import product

from cwlab.constructions import _CORPUS_MAX_D, _CORPUS_MAX_DI, _CORPUS_MAX_N, _monomials_up_to
from cwlab.errors import CwlabError, ZeroPolynomial
from cwlab.fields import build_field
from cwlab.polynomials import MultiPoly, PolySystem
from cwlab.rng import MASK64, SplitMix64, derive_seed, mix64
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


class NotADivisor(CwlabError):
    """A subfield degree that does not divide the extension degree."""


def relative_norm(K, base_degree, a):
    """The norm of a from K down to its subfield of degree base_degree, the
    product of the conjugates a^(qb^j), as an element of K."""
    if base_degree < 1 or K.k % base_degree != 0:
        raise NotADivisor(f"{base_degree} does not divide extension degree {K.k}")
    qb = K.p**base_degree
    acc = K.one
    term = a
    for _ in range(K.k // base_degree):
        acc = K.mul(acc, term)
        term = K.pow(term, qb)
    return acc


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


def random_system_by_coefficient(F, n, degrees, seed):
    """`random_system` drawn one `below` per coefficient, each polynomial
    built by `from_terms` and drawn again until its total degree is d_i."""
    rng = SplitMix64(derive_seed(seed, F.p, F.k, n, *degrees))
    polys = []
    for d in degrees:
        monos = _monomials_up_to(n, d)
        while True:
            items = []
            for e in monos:
                c = rng.below(F.q)
                if c:
                    items.append((e, c))
            f = MultiPoly.from_terms(F, n, items)
            if f.total_degree == d:
                polys.append(f)
                break
    return PolySystem(polys)


def corpus_system_by_index(seed, index):
    """`corpus_system` drawn for one index alone, one `below` at a time."""
    rng = SplitMix64(derive_seed(seed, index))
    q = (2, 3, 4, 5)[rng.below(4)]
    while True:
        r = 1 + rng.below(2)
        degrees = tuple(1 + rng.below(_CORPUS_MAX_DI) for _ in range(r))
        if sum(degrees) <= _CORPUS_MAX_D:
            break
    d = sum(degrees)
    n = d + 1 + rng.below(_CORPUS_MAX_N - d)
    F = build_field(2, 2) if q == 4 else build_field(q, 1)
    return random_system_by_coefficient(F, n, degrees, derive_seed(seed, index, 1))


def system_key(system):
    """A system as its field, arity and each polynomial's terms in insertion order."""
    return (system.field.p, system.field.k, system.field.modulus, system.nvars, [list(f.terms.items()) for f in system.polys])


def subspace_dim_by_greedy_span(F, pts):
    """`subspaces.subspace_dim` by the greedy span: N = q^m and the span of
    pts has dimension m."""
    from cwlab.subspaces import _greedy_span

    N, m = len(pts), 0
    while F.q**m < N:
        m += 1
    if F.q**m != N:
        return None
    return m if len(_greedy_span(F, pts)[0]) == m else None


def is_linear_subspace(ps):
    """(whether the point set is an affine subspace, its dimension or None)."""
    from cwlab.subspaces import _sorted_array, subspace_dim

    dim = subspace_dim(ps.field, _sorted_array(ps))
    return (dim is not None, dim)


def normalized_forms(K, n):
    """The nonzero linear forms up to scalar, led by one: pivot ascending,
    then the tail in odometer order."""
    for j in range(n):
        for tail in product(range(K.q), repeat=n - 1 - j):
            yield (0,) * j + (K.one,) + tail


def _scalar_coord(seed, s, trial, var, rank, Q):
    gamma = 0x9E3779B97F4A7C15
    base = derive_seed(seed, s, trial, var)
    z = mix64((base + gamma * rank + gamma) & MASK64)
    return z % Q


def screened_forms(fK, trials, seed, s):
    """The normalized forms that vanish at trials seeded points of their
    hyperplane, in order."""
    K, n = fK.field, fK.nvars
    for rank, coeffs in enumerate(normalized_forms(K, n)):
        j = next(i for i, c in enumerate(coeffs) if c)
        for t in range(trials):
            pt, acc = [0] * n, 0
            for i in range(n):
                if i != j:
                    pt[i] = _scalar_coord(seed, s, t, i, rank, K.q)
                    acc = K.add(acc, K.mul(coeffs[i], pt[i]))
            pt[j] = K.neg(acc)
            if fK.evaluate(pt) != 0:
                break
        else:
            yield coeffs


def screened_factor(f, s, trials=6, seed=0):
    """The least linear factor of the form f over F_{q^s} by the screen:
    the first screened form that divides f exactly, or None."""
    from cwlab.geometry import _exact_linear_division, _lift_poly

    fK, K = _lift_poly(f, s)
    return next((c for c in screened_forms(fK, trials, seed, s) if _exact_linear_division(fK, K, c)), None)


def separable_system(F, sizes, degrees, seed, homogeneous=False):
    """A seeded block-separable system in sum(sizes) variables, g_i =
    sum_j h_ij(x_{B_j}) + c_i: the blocks B_j are consecutive runs of the
    given sizes (2 to 4 variables each), and each h_ij has three terms of
    degree at most d_i >= 2 in B_j's variables, the first x_a x_b times
    d_i - 2 more of them (a != b), so every block holds a term of degree at
    least 2 that no power rule lowers to a linear one.  If homogeneous,
    every term has degree d_i and every c_i is 0."""
    assert all(2 <= size <= 4 for size in sizes) and all(d >= 2 for d in degrees)
    rng = SplitMix64(derive_seed(seed, F.p, F.k, *sizes, *degrees, homogeneous))
    n, polys = sum(sizes), []
    for d in degrees:
        items = [((0,) * n, 0 if homogeneous else rng.below(F.q))]
        start = 0
        for size in sizes:
            block = list(range(start, start + size))
            start += size
            while True:
                terms = []
                for t in range(3):
                    exps = [0] * n
                    if t == 0:
                        a = rng.below(size)
                        b = (a + 1 + rng.below(size - 1)) % size
                        exps[block[a]] += 1
                        exps[block[b]] += 1
                    for _ in range(d - 2 if t == 0 else d if homogeneous else 1 + rng.below(d)):
                        exps[block[rng.below(size)]] += 1
                    terms.append((tuple(exps), 1 + rng.below(F.q - 1)))
                h = MultiPoly.from_terms(F, n, terms)
                if any(sum(1 for e in exps if e) >= 2 for exps in h.terms):
                    break
            items += list(h.terms.items())
        polys.append(MultiPoly.from_terms(F, n, items))
    return PolySystem(polys)


def separable_count(system, sizes):
    """The common zero count of a block-separable system (`separable_system`):
    the value at 0 of the convolution, over (F_q^r, +), of the point mass at
    the constants (c_1 .. c_r) and each block's joint value histogram, the
    number of points of F_q^|B_j| at which (h_1j, ..., h_rj) takes each value.
    Integers and scalar field arithmetic only, q^|B_j| evaluations a block."""
    F, n = system.field, system.nvars
    hist = {tuple(f.terms.get((0,) * n, 0) for f in system.polys): 1}
    start = 0
    for size in sizes:
        block = range(start, start + size)
        start += size
        parts = [MultiPoly(F, n, {e: c for e, c in f.terms.items() if any(e[v] for v in block)} or {(0,) * n: 0}) for f in system.polys]
        assert all(all(not e[v] or v in block for v in range(n)) for h in parts for e in h.terms)
        values = {}
        for x in product(range(F.q), repeat=size):
            pt = [0] * n
            pt[block.start : block.stop] = x
            key = tuple(h.evaluate(pt) for h in parts)
            values[key] = values.get(key, 0) + 1
        convolved = {}
        for u, a in hist.items():
            for v, b in values.items():
                w = tuple(F.add(x, y) for x, y in zip(u, v))
                convolved[w] = convolved.get(w, 0) + a * b
        hist = convolved
    return hist.get((0,) * system.r, 0)
