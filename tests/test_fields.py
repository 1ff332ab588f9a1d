"""Field construction, arithmetic, Frobenius, norms, and embeddings."""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlab import fields
from cwlab.errors import DegreeTooLarge, DivisionByZero, NotADivisor, NotASubfield, NotPrime
from cwlab.fields import (
    FieldSpec,
    build_field,
    element_literal,
    embed_subfield,
    parse_element_literal,
    relative_norm,
)
from references import frobenius

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F8 = build_field(2, 3)
F9 = build_field(3, 2)
F16 = build_field(2, 4)
F25 = build_field(5, 2)


def test_canonical_moduli():
    assert F3.modulus == (0, 1)
    assert F4.modulus == (1, 1, 1)
    assert F9.modulus == (1, 0, 1)


def test_build_field_rejections():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(DegreeTooLarge):
        build_field(2, 21)
    with pytest.raises(ValueError):
        build_field(2, 0)


def test_one_field_object_per_field():
    # a modulus spelled out, its coefficients reduced mod p or not, gives the
    # canonical field's own object, so a system read back from its file
    # shares the field's tables (and so its grid, power-log and monomial
    # memo entries); another irreducible modulus is another field
    from cwlab import fields
    from cwlab.formats import read_sys, write_sys
    from cwlab.polynomials import PolySystem, parse_poly

    assert build_field.cache_info().maxsize == fields.FIELD_MEMO
    for p, k in ((2, 1), (3, 1), (5, 1), (2, 2), (5, 2), (2, 4), (3, 3)):
        F = build_field(p, k)
        shifted = tuple(c + p for c in F.modulus[:-1]) + (1,)
        assert build_field(p, k, F.modulus) is F and build_field(p, k, shifted) is F
        names = ["x1", "x2"]
        system = PolySystem([parse_poly("x1*x2 + x1 + 1", F, names)])
        field, _, read = read_sys(write_sys(F, names, system))
        assert field is build_field(p, k) and read.field is F and field.tables is F.tables
    other = build_field(5, 2, (2, 0, 1))  # x^2 + 2, irreducible over F_5
    assert other.modulus == (2, 0, 1) != F25.modulus and other != F25
    assert build_field(5, 2, (7, 5, 1)) is other
    # an invalid modulus is rejected as before, reduced or not
    for bad in ((1, 0, 1), (6, 0, 1), (1, 1), (1, 1, 2)):
        with pytest.raises(ValueError):
            build_field(5, 2, bad)


def test_arith_examples():
    assert F2.add(1, 1) == 0
    g = F9.generator
    assert F9.mul(g, g) == F9.from_int(2)  # g^2 = -1 = 2
    assert F4.pow(F4.generator, 3) == F4.one


def test_inverse_and_division_by_zero():
    for F in (F2, F3, F4, F9, F25):
        for a in range(1, F.q):
            assert F.mul(a, F.inv(a)) == F.one
        with pytest.raises(DivisionByZero):
            F.inv(0)


def test_frobenius_examples():
    g = F4.generator
    assert frobenius(F4, g, 1) == F4.add(g, F4.one)  # g^2 = g + 1
    assert frobenius(F4, g, 0) == g
    g9 = F9.generator
    assert frobenius(F9, g9, 1) == F9.mul(F9.from_int(2), g9)  # g^3 = -g


def test_frobenius_is_a_ring_automorphism():
    for F in (F4, F8, F9, F16):
        for a, b in product(range(F.q), repeat=2):
            fa, fb = frobenius(F, a, 1), frobenius(F, b, 1)
            assert frobenius(F, F.add(a, b), 1) == F.add(fa, fb)
            assert frobenius(F, F.mul(a, b), 1) == F.mul(fa, fb)


def test_power_q_fixes_everything():
    for F in (F2, F3, F4, F8, F9, F16, F25, build_field(2, 6), build_field(3, 4)):
        for a in range(F.q):
            assert F.pow(a, F.q) == a


def test_table_path_agrees_with_polynomial_path():
    for F in (F4, F8, F9, F16, F25, build_field(2, 6), build_field(7, 2)):
        for a, b in product(range(F.q), repeat=2):
            assert F.mul(a, b) == F.mul_poly(a, b)


def test_log_tables_match_the_mul_poly_walk():
    # the bundle's exp[i] = gamma^i by repeated reference multiplication, and
    # log is its inverse with log[0] = Z; F_2^16 is checked on a sample of
    # the walk
    for F, stride in ((F9, 1), (build_field(5, 4), 1), (build_field(3, 10), 1), (build_field(2, 16), 211)):
        T, q = F.tables, F.q
        exp, log = T.exp[: q - 1].tolist(), T.log.tolist()
        gamma = exp[1]
        assert exp[0] == F.one and sorted(exp) == list(range(1, q))
        assert [log[a] for a in exp] == list(range(q - 1))
        assert log[0] == (T.depth + 1) * (q - 2) + 1
        for i in range(0, q - 1, stride):
            nxt = F.mul_poly(exp[i], gamma)
            assert exp[(i + 1) % (q - 1)] == nxt
        if stride > 1:
            assert all(exp[i] == F._pow_poly(gamma, i) for i in range(0, q - 1, 4099))


def test_table_bundle_matches_scalar_reference():
    # every field of this module, and F_4096
    fields = (F2, F3, F4, F8, F9, F16, F25, build_field(2, 6), build_field(3, 4), build_field(7, 2))
    for F in fields + (build_field(2, 12),):
        T = F.tables
        q = F.q
        if q <= 1 << 10:  # every pair
            a, b = np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
        else:  # a sample of pairs
            a = np.arange(0, q, 7)
            b = (5 * a + 3) % q
        pairs = zip(a.tolist(), b.tolist(), T.add(a, b).tolist(), T.mul(a, b).tolist())
        for x, y, s, m in pairs:
            assert s == F.from_coords([u + v for u, v in zip(F.coords(x), F.coords(y))])
            assert m == F.mul_poly(x, y)
            assert (F.add(x, y), F.sub(s, y)) == (s, x)
        # the multiply-by-b matrix sends a's F_p-coordinates to a*b's
        assert T.digits(a).tolist() == [list(F.coords(x)) for x in a.tolist()]
        prods = (T.digits(a)[:, None, :] @ T.mul_matrices[b])[:, 0] % F.p
        assert prods.tolist() == [list(F.coords(F.mul_poly(x, y))) for x, y in zip(a.tolist(), b.tolist())]
        neg = [F.from_coords([-u for u in F.coords(x)]) for x in range(q)]
        assert T.neg(np.arange(q)).tolist() == neg
        assert [F.neg(x) for x in range(q)] == neg


def _entries(obj, skip=()):
    """The entry count of every numpy array, memoryview or list that obj
    holds, outside the attributes named in skip."""
    out = []
    for name, v in vars(obj).items():
        if name in skip:
            continue
        for a in v if isinstance(v, tuple) else (v,):
            if isinstance(a, (np.ndarray, memoryview)):
                out.append(a.nbytes // a.itemsize)
            elif isinstance(a, list):
                out.append(len(a))
    return out


@pytest.mark.parametrize(
    "p, k", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 10), (5, 4), (3, 7), (2, 11), (1031, 1)]
)
def test_tables_are_linear_in_q(p, k):
    # after add, sub, neg, mul, inv, pow and total, scalar and vectorized,
    # and with the Zech table built for p = 2 too: the arrays of the
    # arithmetic (the log/exp bundle, the Zech table) hold at most
    # 2(D + 2)q + 2Z + 1 entries in all, the field's scalar lists (log, the
    # first 2q - 3 entries of exp, the Zech band of q - 1) at most 4q, and
    # nothing holds q^2 of them.  mul_matrices, q k x k matrices for the
    # coset map, is not part of the arithmetic.
    F = build_field(p, k)
    T, q = F.tables, F.q
    x = np.arange(q)
    T.add(x, x[::-1]), T.mul(x, x), T.neg(x), T.total(np.stack([T.log[x], T.log[x] + 1, T.log[x] * 0]))
    F.add(1, q - 1), F.sub(1, q - 1), F.neg(q - 1), F.mul(q - 1, q - 1), F.inv(q - 1), F.pow(q - 1, 5)
    T._zech()
    bound = 2 * (T.depth + 2) * q + 2 * int(T.log[0]) + 1
    assert sum(_entries(T, skip=("_mul_matrices",))) <= bound
    assert sum(_entries(F)) <= 4 * q + k


@pytest.mark.parametrize("p, k", [(2, 11), (3, 7), (7, 4)])
def test_large_field_ops_match_scalar_reference(p, k):
    # XOR (p = 2) or the Zech table (odd p) for add, the log/exp bundle for
    # mul, and -1 = gamma^((q-1)/2) for neg
    F = build_field(p, k)
    T, q = F.tables, F.q
    x = np.arange(q)
    for y in (0, F.one, F.neg(F.one), F.generator, q - 1, 1234 % q):
        y_ = np.full(q, y)
        add, mul = T.add(x, y_).tolist(), T.mul(x, y_).tolist()
        assert add == [F.from_coords([u + v for u, v in zip(F.coords(a), F.coords(y))]) for a in range(q)]
        assert mul == [F.mul_poly(a, y) for a in range(q)]
        assert T.add(y_, x).tolist() == add and T.mul(y, x).tolist() == mul
    a, b = np.random.default_rng(p).integers(0, q, (2, 4000))
    assert T.add(a, b).tolist() == [F.add(u, v) for u, v in zip(a.tolist(), b.tolist())]
    assert T.mul(a, b).tolist() == [F.mul_poly(u, v) for u, v in zip(a.tolist(), b.tolist())]
    neg = T.neg(x)
    assert neg.tolist() == [F.from_coords([-u for u in F.coords(a)]) for a in range(q)]
    assert not T.add(x, neg).any()
    assert T.add(x, x).tolist() == [F.add(a, a) for a in range(q)]
    # the scalar add, sub and neg against coordinate-wise arithmetic
    for u, v in zip(a.tolist(), b.tolist()):
        cu, cv = F.coords(u), F.coords(v)
        assert F.add(u, v) == F.from_coords([s + t for s, t in zip(cu, cv)])
        assert F.sub(u, v) == F.from_coords([s - t for s, t in zip(cu, cv)])
        assert F.neg(u) == F.from_coords([-s for s in cu])
    assert F.add(0, 0) == F.sub(0, 0) == F.neg(0) == 0
    # a sum of products (log sums, shifted by a coefficient's log), with a
    # constant (the log sum 0 shifted by its log), against the scalar sum
    terms = np.random.default_rng(q).integers(0, q, (9, 2, 300))
    c = F.generator
    ref = [0] * 300
    for row, col in terms.tolist():
        ref = [F.add(r, F.mul(c, F.mul(u, v))) for r, u, v in zip(ref, row, col)]
    stack = np.concatenate([T.log[terms].sum(axis=1) + T.log[c], np.zeros((1, 300), dtype=T.log.dtype)])
    got = T.total(stack)
    assert got.tolist() == [[F.add(r, F.one) for r in ref]]


@pytest.mark.parametrize("p, k", [(2, 17), (3, 11)])
def test_scalar_ops_past_the_list_cap_match_references(p, k):
    # past q = 2^16 the scalar arithmetic reads memoryviews of the bundle:
    # a sample of add, sub, neg, mul, inv and pow against coordinate
    # arithmetic, mul_poly and _pow_poly, zero operands and y = -x included
    F = build_field(p, k)
    q = F.q
    a, b = np.random.default_rng(q).integers(0, q, (2, 600)).tolist()
    minus_one = F.from_int(-1)
    pairs = list(zip(a, b)) + [(0, 0), (0, b[0]), (a[0], 0), (a[1], F.mul_poly(a[1], minus_one)), (1, q - 1)]
    for u, v in pairs:
        cu, cv = F.coords(u), F.coords(v)
        assert F.add(u, v) == F.from_coords([s + t for s, t in zip(cu, cv)])
        assert F.sub(u, v) == F.from_coords([s - t for s, t in zip(cu, cv)])
        assert F.neg(u) == F.from_coords([-s for s in cu])
        assert F.mul(u, v) == F.mul_poly(u, v)
        if u:
            assert F.inv(u) == F._pow_poly(u, q - 2)
            assert F.pow(u, v + q) == F._pow_poly(u, (v + q) % (q - 1))
            assert F.mul(F.pow(u, -v), F._pow_poly(u, v)) == F.one
    assert isinstance(F._scalar[0], memoryview)


def test_generator_powers_run_once_per_field(monkeypatch):
    # a field built afresh builds its log/exp tables on its first product
    # and never again: not for the other scalar ops, the array ops, the
    # Zech table or a second call of any of them
    calls = []
    powers = FieldSpec._generator_powers

    def counted(F):
        calls.append(F.q)
        return powers(F)

    monkeypatch.setattr(FieldSpec, "_generator_powers", counted)
    for p, k in ((2, 7), (3, 5), (2, 17)):
        F = build_field.__wrapped__(p, k)
        assert calls == [] and F._tables is None
        g = F.generator
        for _ in range(2):
            F.mul(g, g), F.add(g, F.one), F.sub(g, F.one), F.neg(g), F.inv(g), F.pow(g, 5), frobenius(F, g)
            T, x = F.tables, np.arange(F.q)
            T.add(x, x), T.mul(x, x), T.neg(x), T.total(T.log[x][None]), T._zech()
        assert calls == [F.q]
        calls.clear()


def test_log_bundle_tables():
    # exp reads gamma^(s mod (q-1)) below the sentinel Z = log[0] and 0 from Z
    # on; fold = log[exp]; the log sums fit the dtype ((D + 1)Z)
    for F in (F2, F3, F4, F9, build_field(5, 1), build_field(3, 7), build_field(2, 12), build_field(1031, 1),
              build_field(65537, 1)):
        T, q = F.tables, F.q
        log, exp, fold, D = T.log, T.exp, T.fold, T.depth
        Z = int(log[0])
        assert Z == (D + 1) * (q - 2) + 1 and len(exp) == len(fold) == Z + 1
        assert (D + 1) * Z <= np.iinfo(log.dtype).max
        assert sorted(log[1:].tolist()) == list(range(q - 1))
        assert exp[Z] == 0 and fold[Z] == Z
        s = np.arange(Z)
        assert (exp[s] == exp[s % (q - 1)]).all() and (fold[s] == s % (q - 1)).all()
        assert (exp[log[1:]] == np.arange(1, q)).all()
        gamma = int(exp[1]) if q > 2 else 1
        assert all(int(exp[i]) == F.pow(gamma, i) for i in range(0, q - 1, max(1, q // 50)))
        # clip reads every sum past Z as Z
        assert exp.take([Z, Z + 1, 10 * Z], mode="clip").tolist() == [0, 0, 0]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_field_axioms_f8(a, b, c):
    F = F8
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))


def test_norm_examples():
    assert relative_norm(F4, 1, F4.generator) == F4.one
    assert relative_norm(F4, 1, 0) == 0
    assert relative_norm(F9, 1, F9.generator) == F9.one


def test_norm_is_power_formula_and_multiplicative():
    for F, base in ((F4, 1), (F9, 1), (F16, 1), (F16, 2), (F25, 1), (build_field(2, 6), 2)):
        qb = F.p**base
        m = F.k // base
        e = (qb**m - 1) // (qb - 1)
        for a in range(F.q):
            n = relative_norm(F, base, a)
            assert F.pow(n, qb) == n  # the norm lies in the subfield F_qb
            if a == 0:
                assert n == 0
            else:
                assert n == F.pow(a, e)
        for a, b in product(range(1, F.q), repeat=2):
            assert relative_norm(F, base, F.mul(a, b)) == F.mul(
                relative_norm(F, base, a), relative_norm(F, base, b)
            )


def test_norm_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        relative_norm(F16, 3, 1)


def test_embedding_examples():
    e = embed_subfield(F2, F4)
    assert e(0) == 0 and e(1) == F4.one
    ident = embed_subfield(F2, F2)
    assert ident.table == (0, 1)
    e416 = embed_subfield(F4, F16)
    img = e416(F4.generator)
    # the image is a root of x^2 + x + 1
    assert F16.add(F16.add(F16.mul(img, img), img), F16.one) == 0


def test_embedding_is_injective_ring_hom():
    for small, big in ((F2, F8), (F4, F16), (F3, F9), (F9, build_field(3, 4)), (F4, build_field(2, 6))):
        e = embed_subfield(small, big)
        assert len(set(e.table)) == small.q
        for a, b in product(range(small.q), repeat=2):
            assert e(small.add(a, b)) == big.add(e(a), e(b))
            assert e(small.mul(a, b)) == big.mul(e(a), e(b))


TOWERS = [
    (2, 1, 2, 4),
    (2, 1, 3, 6),
    (2, 2, 4, 8),  # needs the subfield-compatibility side condition
    (2, 2, 4, 12),
    (2, 2, 6, 12),
    (3, 1, 2, 4),
    (3, 2, 4, 8),
    (5, 1, 2, 4),
]


def test_embedding_tower_composition_commutes():
    for p, a, b, c in TOWERS:
        A, B, C = build_field(p, a), build_field(p, b), build_field(p, c)
        e_ab, e_bc, e_ac = embed_subfield(A, B), embed_subfield(B, C), embed_subfield(A, C)
        assert all(e_bc(e_ab(x)) == e_ac(x) for x in range(A.q)), (p, a, b, c)


def test_embedding_memo_is_bounded(monkeypatch):
    # the embeddings are kept for at most FIELD_MEMO pairs of fields; under
    # a bound of 2, which drops the subfield embeddings that a compatible
    # root is checked against while it is searched for, every tower still
    # commutes, on the same tables
    assert embed_subfield.cache_info().maxsize == fields.FIELD_MEMO
    small = lru_cache(maxsize=2)(embed_subfield.__wrapped__)
    monkeypatch.setattr(fields, "embed_subfield", small)
    for p, a, b, c in TOWERS:
        A, B, C = build_field(p, a), build_field(p, b), build_field(p, c)
        e_ab, e_bc, e_ac = small(A, B), small(B, C), small(A, C)
        assert all(e_bc(e_ab(x)) == e_ac(x) for x in range(A.q)), (p, a, b, c)
        for e in (e_ab, e_bc, e_ac):
            assert e.table == embed_subfield(e.small, e.big).table
        assert small.cache_info().currsize <= 2
    pairs = {(p, x, y) for p, a, b, c in TOWERS for x, y in ((a, b), (b, c), (a, c))}
    assert small.cache_info().misses > len(pairs)  # some were dropped and built again


def test_embedding_rejections():
    with pytest.raises(NotASubfield):
        embed_subfield(F2, F9)
    with pytest.raises(NotASubfield):
        embed_subfield(F4, F8)


def test_element_literals_round_trip():
    for F in (F3, F9, F25):
        for a in range(F.q):
            assert parse_element_literal(F, element_literal(F, a)) == a


def test_canonical_element_order_is_coordinate_lex():
    seen = [F9.coords(a) for a in range(F9.q)]
    assert seen == sorted(seen)
