"""Field construction, arithmetic, Frobenius, norms, and embeddings."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlab.errors import DegreeTooLarge, DivisionByZero, NotADivisor, NotASubfield, NotPrime
from cwlab.fields import (
    build_field,
    element_literal,
    embed_subfield,
    parse_element_literal,
    relative_norm,
)

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
    assert F4.frobenius(g, 1) == F4.add(g, F4.one)  # g^2 = g + 1
    assert F4.frobenius(g, 0) == g
    g9 = F9.generator
    assert F9.frobenius(g9, 1) == F9.mul(F9.from_int(2), g9)  # g^3 = -g


def test_frobenius_is_a_ring_automorphism():
    for F in (F4, F8, F9, F16):
        for a, b in product(range(F.q), repeat=2):
            fa, fb = F.frobenius(a, 1), F.frobenius(b, 1)
            assert F.frobenius(F.add(a, b), 1) == F.add(fa, fb)
            assert F.frobenius(F.mul(a, b), 1) == F.mul(fa, fb)


def test_power_q_fixes_everything():
    for F in (F2, F3, F4, F8, F9, F16, F25, build_field(2, 6), build_field(3, 4)):
        for a in range(F.q):
            assert F.pow(a, F.q) == a


def test_table_path_agrees_with_polynomial_path():
    for F in (F4, F8, F9, F16, F25, build_field(2, 6), build_field(7, 2)):
        for a, b in product(range(F.q), repeat=2):
            assert F.mul(a, b) == F.mul_poly(a, b)


def test_log_tables_match_the_mul_poly_walk():
    # exp[i] = gamma^i by repeated reference multiplication, and log is its
    # inverse; F_2^16 is checked on a sample of the walk
    for F, stride in ((F9, 1), (build_field(5, 4), 1), (build_field(3, 10), 1), (build_field(2, 16), 211)):
        q, exp, log = F.q, F._exp, F._log
        gamma = exp[1]
        assert exp[0] == F.one and sorted(exp) == list(range(1, q))
        assert [log[a] for a in exp] == list(range(q - 1))
        for i in range(0, q - 1, stride):
            nxt = F.mul_poly(exp[i], gamma)
            assert exp[(i + 1) % (q - 1)] == nxt
        if stride > 1:
            assert all(exp[i] == F._pow_poly(gamma, i) for i in range(0, q - 1, 4099))


def test_table_bundle_matches_scalar_reference():
    # every field of this module, and one past the dense-table cap
    fields = (F2, F3, F4, F8, F9, F16, F25, build_field(2, 6), build_field(3, 4), build_field(7, 2))
    for F in fields + (build_field(2, 12),):
        T = F.tables
        q = F.q
        if q <= 1 << 10:
            assert T.add_table.dtype == T.mul_table.dtype == T.neg_table.dtype == np.uint8
            a, b = np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
        else:  # no tables: the scalar ops, elementwise, on a sample
            assert T.add_table is None
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
    assert build_field(5, 4).tables.add_table.dtype == np.uint16


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


def test_embedding_tower_composition_commutes():
    towers = [
        (2, 1, 2, 4),
        (2, 1, 3, 6),
        (2, 2, 4, 8),  # needs the subfield-compatibility side condition
        (2, 2, 4, 12),
        (2, 2, 6, 12),
        (3, 1, 2, 4),
        (3, 2, 4, 8),
        (5, 1, 2, 4),
    ]
    for p, a, b, c in towers:
        A, B, C = build_field(p, a), build_field(p, b), build_field(p, c)
        e_ab, e_bc, e_ac = embed_subfield(A, B), embed_subfield(B, C), embed_subfield(A, C)
        assert all(e_bc(e_ab(x)) == e_ac(x) for x in range(A.q)), (p, a, b, c)


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
