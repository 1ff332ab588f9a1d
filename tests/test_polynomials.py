"""Parsing, evaluation, homogenization, and restriction."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlab.errors import (
    ArityMismatch,
    BudgetExceeded,
    ExprSyntaxError,
    GeneratorInPrimeField,
    UnknownVariable,
    ZeroPolynomial,
)
from cwlab.fields import build_field
from cwlab.polynomials import (
    MAX_NESTING,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    MultiPoly,
    NEG_INF,
    PolySystem,
    parse_poly,
    restrict_to_subspace,
)
from cwlab.subspaces import AffineSubspace
from references import full_space, homogenize, leading_form

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)

X123 = ["x1", "x2", "x3"]


def test_parse_examples():
    f = parse_poly("x1*x2 + x3^2", F3, X123)
    assert len(f.terms) == 2 and f.total_degree == 2
    z = parse_poly("x1 + 2*x1", F3, ["x1"])
    assert z.is_zero and z.total_degree == NEG_INF
    g = parse_poly("g*x1^2 + 1", F4, ["x1"])
    assert g.terms[(2,)] == F4.generator and len(g.terms) == 2


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse_poly("x1 + ", F3, ["x1"])
    with pytest.raises(ExprSyntaxError):
        parse_poly("x1 @ x1", F3, ["x1"])
    with pytest.raises(UnknownVariable):
        parse_poly("x1 + y", F3, ["x1"])
    with pytest.raises(GeneratorInPrimeField):
        parse_poly("g*x1", F3, ["x1"])
    with pytest.raises(ExprSyntaxError):
        parse_poly("1:1*x1", F3, ["x1"])  # colon literal in a prime field


def test_parse_rejects_deep_nesting():
    for text in ("(" * 5000 + "x1" + ")" * 5000, "-" * 5000 + "x1"):
        with pytest.raises(ExprSyntaxError, match="nests deeper"):
            parse_poly(text, F3, ["x1"])
    depth = MAX_NESTING - 1  # the outermost factor is one level
    assert parse_poly("(" * depth + "x1" + ")" * depth, F3, ["x1"]) == parse_poly("x1", F3, ["x1"])


def test_parse_refuses_huge_powers_before_expanding():
    too_long = "9" * 5000  # past the interpreter's digit limit for int()
    big = build_field(65521, 1)
    products = ("(x1+x2)^300*(x1+x2)^300", f"x1^{MAX_POWER_DEGREE}*x2", "*".join(["(x1+x2+1)^9"] * 5))
    for field, texts in (
        (F3, ("(x1+x2)^100000", f"x1^{MAX_POWER_DEGREE + 1}", "((x1+x2)^30)^30", "(x1+1)^10^10^10", "x1^" + too_long)),
        (big, products),
    ):
        for text in texts:
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                parse_poly(text, field, ["x1", "x2"])
            assert time.perf_counter() - t0 < 1
    # at the caps: a one-term power of the cap degree, and a binomial power
    # with exactly the cap's number of terms in a field too big to cancel any
    assert parse_poly(f"x1^{MAX_POWER_DEGREE}", F3, ["x1"]).total_degree == MAX_POWER_DEGREE
    f = parse_poly(f"(x1+x2)^{MAX_POWER_TERMS - 1}", big, ["x1", "x2"])
    assert len(f.terms) == MAX_POWER_TERMS
    assert parse_poly("(x1+x2)^10*(x1+x2)^10", big, ["x1", "x2"]) == parse_poly("(x1+x2)^20", big, ["x1", "x2"])
    # powers of the zero polynomial and of constants stay legal
    assert parse_poly("(x1 - x1)^5", F3, ["x1"]).is_zero
    assert parse_poly("3^2 + x1", F3, ["x1"]) == parse_poly("x1", F3, ["x1"])
    assert parse_poly("(x1 - x1)^0 + 2^3", F3, ["x1"]) == parse_poly("0", F3, ["x1"])
    assert parse_poly("x1^" + "0" * 5000 + "2", F3, ["x1"]) == parse_poly("x1^2", F3, ["x1"])


def test_parse_subtraction_parentheses_unary():
    f = parse_poly("-(x1 - 2)^2 + x1^2", F3, ["x1"])
    # -(x1-2)^2 + x1^2 = -(x1^2 - 4x1 + 4) + x1^2 = 4x1 - 4 = x1 + 2 mod 3
    assert f == parse_poly("x1 + 2", F3, ["x1"])


def test_evaluate_examples():
    f = parse_poly("x1*x2 + x3^2", F3, X123)
    assert f.evaluate((1, 2, 2)) == 0
    h = parse_poly("x1^2*x2 + x2^3", F3, ["x1", "x2"])
    assert h.evaluate((0, 0)) == 0
    m = parse_poly("x1^2 + x1 + 1", F4, ["x1"])
    assert m.evaluate((F4.generator,)) == 0  # g is a root of the modulus
    with pytest.raises(ArityMismatch):
        f.evaluate((1, 2))


def test_leading_form():
    f = parse_poly("x1*x2 + x3 + 1", F3, X123)
    assert leading_form(f) == parse_poly("x1*x2", F3, X123)
    h = parse_poly("x1^2 + x2^2 + x1", F2, ["x1", "x2"])
    assert leading_form(h) == parse_poly("x1^2 + x2^2", F2, ["x1", "x2"])
    hom = parse_poly("x1^3 + x2^3", F3, ["x1", "x2"])
    assert leading_form(hom) == hom
    with pytest.raises(ZeroPolynomial):
        leading_form(MultiPoly.zero(F3, 2))


def test_homogenize_examples():
    f = parse_poly("x1*x2 + 1", F3, ["x1", "x2"])
    assert homogenize(f) == parse_poly("x1*x2 + x0^2", F3, ["x0", "x1", "x2"])
    h = parse_poly("x1^2 + x3", F3, X123)
    assert homogenize(h) == parse_poly("x1^2 + x0*x3", F3, ["x0"] + X123)
    hom = parse_poly("x1^2 + x1*x2", F3, ["x1", "x2"])
    plus = homogenize(hom)
    assert plus.nvars == 3 and all(e[0] == 0 for e in plus.terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_homogenization_evaluation_identities(data):
    F = data.draw(st.sampled_from([F2, F3, F4]))
    n = data.draw(st.integers(1, 3))
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2) for _ in range(n)]),
            st.integers(1, F.q - 1),
            min_size=1,
            max_size=5,
        )
    )
    f = MultiPoly.from_terms(F, n, list(terms.items()))
    if f.is_zero:
        return
    plus, minus = homogenize(f), leading_form(f)
    for pt in __import__("itertools").product(range(F.q), repeat=n):
        assert plus.evaluate((F.one,) + pt) == f.evaluate(pt)
        assert plus.evaluate((0,) + pt) == minus.evaluate(pt)


def test_homogeneous_scaling():
    f = parse_poly("x1^2*x2 + x2^3", F3, ["x1", "x2"])
    e = int(f.total_degree)
    for lam in range(1, F3.q):
        for pt in __import__("itertools").product(range(F3.q), repeat=2):
            scaled = tuple(F3.mul(lam, x) for x in pt)
            assert f.evaluate(scaled) == F3.mul(F3.pow(lam, e), f.evaluate(pt))


def test_restriction_examples():
    f = parse_poly("x1 + x2", F3, ["x1", "x2"])
    L = AffineSubspace(F3, (0, 1), [(1, 1)])
    (g,) = restrict_to_subspace(PolySystem([f]), L).polys
    assert g == parse_poly("2*t + 1", F3, ["t"])
    h = parse_poly("x1*x2", F2, ["x1", "x2"])
    L2 = AffineSubspace(F2, (0, 0), [(1, 1)])
    (g2,) = restrict_to_subspace(PolySystem([h]), L2).polys
    assert g2 == parse_poly("t^2", F2, ["t"])


def test_restriction_to_full_space_is_renaming():
    f = parse_poly("x1*x2 + x3", F3, X123)
    L = full_space(F3, 3)
    (g,) = restrict_to_subspace(PolySystem([f]), L).polys
    assert g.terms == f.terms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_commutes_with_evaluation(data):
    F = data.draw(st.sampled_from([F2, F3]))
    n = 3
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2) for _ in range(n)]),
            st.integers(1, F.q - 1),
            min_size=1,
            max_size=4,
        )
    )
    f = MultiPoly.from_terms(F, n, list(terms.items()))
    if f.is_zero:
        return
    offset = tuple(data.draw(st.integers(0, F.q - 1)) for _ in range(n))
    L = AffineSubspace(F, offset, [(F.one, 0, data.draw(st.integers(0, F.q - 1)))])
    from cwlab.polynomials import restrict_polys

    (g,) = restrict_polys([f], L.offset, L.basis, F)
    assert g.total_degree <= f.total_degree
    for t in range(F.q):
        pt = [F.add(o, F.mul(t, b)) for o, b in zip(L.offset, L.basis[0])]
        if g.is_zero:
            assert f.evaluate(pt) == 0
        else:
            assert g.evaluate((t,)) == f.evaluate(pt)


def test_parallel_restrictions_share_top_degree_component():
    f = parse_poly("x1*x2 + x1 + x3^2", F3, X123)
    sys = PolySystem([f])
    L1 = AffineSubspace(F3, (0, 0, 0), [(1, 1, 0), (0, 0, 1)])
    L2 = AffineSubspace(F3, (0, 1, 2), [(1, 1, 0), (0, 0, 1)])
    from cwlab.polynomials import restrict_polys

    (g1,) = restrict_polys(sys.polys, L1.offset, L1.basis, F3)
    (g2,) = restrict_polys(sys.polys, L2.offset, L2.basis, F3)
    d = int(f.total_degree)
    assert g1.homogeneous_component(d) == g2.homogeneous_component(d)


def test_print_parse_round_trip():
    cases = [
        ("x1*x2 + x3^2 + 2", F3, X123),
        ("g*x1^2 + x2 + 1", F4, ["x1", "x2"]),
        ("x1^3 + 2*x1*x2 + 1", F3, ["x1", "x2"]),
    ]
    for text, F, names in cases:
        f = parse_poly(text, F, names)
        assert parse_poly(f.to_text(names), F, names) == f


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_print_parse_fixed_point_random(data):
    F = data.draw(st.sampled_from([F2, F3, F4]))
    n = data.draw(st.integers(1, 3))
    names = [f"x{i+1}" for i in range(n)]
    terms = data.draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3) for _ in range(n)]),
            st.integers(1, F.q - 1),
            max_size=6,
        )
    )
    f = MultiPoly.from_terms(F, n, list(terms.items()))
    text = f.to_text(names)
    if f.is_zero:
        assert text == "0"
        return
    g = parse_poly(text, F, names)
    assert g == f and g.to_text(names) == text


def test_system_invariants():
    f = parse_poly("x1*x2", F3, ["x1", "x2"])
    g = parse_poly("x1 + 1", F3, ["x1", "x2"])
    sys = PolySystem([f, g])
    assert sys.degrees == (2, 1) and sys.total_degree == 3 and sys.r == 2
    with pytest.raises(ZeroPolynomial):
        PolySystem([MultiPoly.zero(F3, 2)])


def test_derived_systems_equal_the_rebuilt_ones():
    # leading_system and homogenized_system build each form in one pass and
    # take the parent's degrees: term for term, in term order, they equal
    # the systems rebuilt from leading_form and homogenize, with the same
    # degrees, and every derived system is homogeneous
    from cwlab.constructions import corpus_system

    systems = [corpus_system(4, i) for i in range(60)]
    systems.append(PolySystem([parse_poly("x1*x2 + x1 + 2", F3, ["x1", "x2"]), parse_poly("x2^2 + x2", F3, ["x1", "x2"])]))
    systems.append(PolySystem([MultiPoly.constant(F4, 2, F4.one)]))
    for system in systems:
        for got, want in (
            (system.leading_system(), PolySystem([leading_form(f) for f in system.polys])),
            (system.homogenized_system(), PolySystem([homogenize(f) for f in system.polys])),
        ):
            assert got == want
            assert [list(f.terms.items()) for f in got.polys] == [list(f.terms.items()) for f in want.polys]
            assert (got.field, got.nvars, got.r) == (want.field, want.nvars, want.r)
            assert got.degrees == want.degrees == system.degrees
            assert got.total_degree == want.total_degree
            assert got.is_homogeneous and want.is_homogeneous


def _rescanned(f):
    """(total degree, homogeneous) of f from a scan of its terms."""
    degs = {sum(e) for e in f.terms}
    return (max(degs) if degs else NEG_INF), len(degs) <= 1


def test_degree_and_homogeneity_are_kept_from_one_scan():
    # the pair is filled on first read and read again after, for seeded
    # polynomials, the zero polynomial, and what +, *, homogenize and
    # map_coefficients return
    from cwlab.constructions import random_system

    polys = [MultiPoly.zero(F3, 2), MultiPoly.constant(F4, 3, F4.one), parse_poly("x1^2 + x2*x3", F3, X123)]
    polys += [f for seed in range(12) for f in random_system(F4, 3, (1 + seed % 3, 2), seed).polys]
    derived = []
    for f, g in zip(polys, polys[1:]):
        if f.field == g.field and f.nvars == g.nvars:
            derived += [f + g, f * g, f + (-f)]
        if not f.is_zero:
            derived.append(homogenize(f))
        derived.append(f.map_coefficients(lambda c: f.field.mul(c, c), f.field))
    assert all(h._degrees is None for h in derived)  # none read yet
    for f in polys + derived:
        want = _rescanned(f)
        assert (f.total_degree, f.is_homogeneous) == want
        assert f._degrees is not None and (f.total_degree, f.is_homogeneous) == want
    assert any(h.is_zero for h in derived) and any(not h.is_homogeneous for h in derived)
