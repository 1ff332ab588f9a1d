"""Canonical forms, enumeration, superspaces, parallel classes, spans."""

from itertools import product
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwlab.errors import DependentBasis, EmptySet, FullSpace
from cwlab.fields import build_field
from cwlab.subspaces import (
    AffineSubspace,
    _greedy_span,
    _sorted_array,
    PointSet,
    affine_span,
    direction_spaces,
    gaussian_binomial,
    is_linear_subspace,
    rref,
    subspace_dim,
)
from references import contains, full_space

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)


def superspaces(L: AffineSubspace) -> list[AffineSubspace]:
    """Reference: all (dim+1)-dimensional subspaces containing L, one per
    vector v at L's free columns whose first nonzero entry is F.one, the
    v in odometer order.

    There are (q^(n-k) - 1)/(q - 1) of them; pairwise they intersect in
    exactly L, and together they cover the ambient space.
    """
    if L.dim == L.ambient:
        raise FullSpace("the full space has no proper superspaces")
    free = [j for j in range(L.ambient) if j not in L.pivots]
    F = L.field
    out = []
    for vals in product(range(F.q), repeat=len(free)):
        if next((v for v in vals if v), None) != F.one:
            continue
        v = [0] * L.ambient
        for j, c in zip(free, vals):
            v[j] = c
        out.append(AffineSubspace(F, L.offset, list(L.basis) + [tuple(v)]))
    return out


def max_general_position(ps: PointSet) -> list[tuple[int, ...]]:
    """Reference: a greedy maximal general-position subset, in canonical
    point order, read from the span's pass (`_greedy_span`); it has
    affine_span(ps).dim + 1 points."""
    pts = _sorted_array(ps)
    return [tuple(pts[j].tolist()) for j in _greedy_span(ps.field, pts)[1]]


def test_canonicalize_examples():
    L = AffineSubspace(F3, (0, 0), [(2, 2)])
    assert L.basis == ((1, 1),) and L.offset == (0, 0)
    full = AffineSubspace(F3, (1, 2), [(1, 2), (2, 2)])
    assert full.basis == ((1, 0), (0, 1)) and full.offset == (0, 0)
    assert AffineSubspace(F3, (1, 1), [(1, 1)]) == AffineSubspace(F3, (0, 0), [(1, 1)])


def test_canonicalize_idempotent_and_membership():
    L = AffineSubspace(F3, (2, 1, 0), [(1, 2, 0), (0, 2, 1)])
    assert L == AffineSubspace(L.field, L.offset, L.basis)
    pts = set(L.points())
    for pt in product(range(3), repeat=3):
        assert (pt in pts) == contains(L, pt)


def test_dependent_basis_rejected():
    with pytest.raises(DependentBasis):
        AffineSubspace(F3, (0, 0), [(1, 1), (2, 2)])


def test_point_enumeration():
    assert list(AffineSubspace(F3, (1, 2)).points()) == [(1, 2)]
    line = AffineSubspace(F3, (0, 0), [(1, 1)])
    assert len(list(line.points())) == 3
    assert len(set(full_space(F2, 3).points())) == 8


def test_superspace_counts_match_formula():
    # count = (q^(n-k) - 1)/(q - 1)
    assert len(superspaces(AffineSubspace(F2, (0, 0)))) == 3
    assert len(superspaces(AffineSubspace(F3, (1, 1)))) == 4
    line = AffineSubspace(F2, (0, 0, 0), [(1, 0, 0)])
    assert len(superspaces(line)) == 3


def test_superspaces_cover_and_intersect_in_base():
    for F in (F2, F3):
        L = AffineSubspace(F, (1, 0, 1), [(1, 1, 0)])
        supers = superspaces(L)
        q, n, k = F.q, 3, 1
        assert len(supers) == (q ** (n - k) - 1) // (q - 1)
        base_pts = set(L.points())
        union = set()
        seen_pairs = set()
        for a in supers:
            apts = set(a.points())
            assert base_pts <= apts
            union |= apts
            for b in supers:
                if a != b:
                    bpts = set(b.points())
                    assert apts & bpts == base_pts
                    seen_pairs.add((a.key(), b.key()))
        assert len(union) == q**n


def test_superspaces_of_full_space_rejected():
    with pytest.raises(FullSpace):
        superspaces(full_space(F2, 2))


def test_parallel_class_partitions():
    line = AffineSubspace(F3, (0, 0), [(1, 0)])
    cls = line.parallel_class()
    assert len(cls) == 3 and line in cls
    hyper = AffineSubspace(F2, (0, 0, 0), [(1, 0, 0), (0, 1, 0)])
    assert len(hyper.parallel_class()) == 2
    full = full_space(F3, 2)
    assert full.parallel_class() == [full]
    all_pts: list = []
    for member in cls:
        all_pts.extend(member.points())
    assert len(all_pts) == len(set(all_pts)) == 9
    # every member is already canonical: the constructor, which reduces its
    # rows and offset, gives the same subspace, pivots included
    rng = Random(7)
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        F = build_field(p, k)
        for n in (1, 2, 3):
            for m in range(n + 1):
                rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]
                L = AffineSubspace(F, [rng.randrange(F.q) for _ in range(n)], rows, strict=False)
                members = L.parallel_class()
                assert len(members) == F.q ** (n - L.dim) and L in members
                pts = [pt for member in members for pt in member.points()]
                assert len(pts) == len(set(pts)) == F.q**n
                for member in members:
                    ref = AffineSubspace(F, member.offset, member.basis)
                    assert member == ref and member.pivots == ref.pivots, (F.q, n, m)
                    assert (member.ambient, member.field) == (ref.ambient, ref.field)


def test_affine_span_examples():
    assert affine_span(PointSet(F3, 2, [(1, 2)])).dim == 0
    assert affine_span(PointSet(F2, 2, [(0, 0), (1, 0), (0, 1)])).dim == 2
    sp = affine_span(PointSet(F3, 3, [(0, 0, 0), (1, 1, 0)]))
    assert sp.dim == 1 and sp.basis == ((1, 1, 0),)
    with pytest.raises(EmptySet):
        affine_span(PointSet(F3, 2, []))


def _span_by_rref_of_all_differences(ps):
    pts = ps.sorted_points()
    F = ps.field
    rows, _ = rref(F, [[F.sub(x, b) for x, b in zip(p, pts[0])] for p in pts[1:]])
    return AffineSubspace(F, pts[0], rows)


def _greedy_span_by_membership(ps):
    """Reference greedy pass, one point at a time: in sorted order, a point
    outside the span so far is chosen and widens it; stops at the full space."""
    F = ps.field
    base, *rest = ps.sorted_points()
    chosen = [base]
    span = AffineSubspace(F, base)
    for p in rest:
        if span.dim == ps.ambient:
            break
        if not contains(span, p):
            chosen.append(p)
            diff = tuple(F.sub(x, o) for x, o in zip(p, base))
            span = AffineSubspace(F, base, list(span.basis) + [diff])
    return span, chosen


def test_greedy_span_matches_rref_of_all_differences():
    # the greedy pass stops once the span is the whole space; the span of
    # every difference from the least point is the reference, and the
    # point-by-point greedy pass picks the same points in the same order
    rng = Random(20)
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        F = build_field(p, k)
        for t in (1, 2, 3, 4):
            space = list(product(range(F.q), repeat=t)) if F.q**t <= 4096 else None
            sets = []
            for _ in range(12):
                size = rng.randint(1, min(F.q**t, 12))
                if space is not None:
                    sets.append(rng.sample(space, size))
                else:
                    sets.append([tuple(rng.randrange(F.q) for _ in range(t)) for _ in range(size)])
            sets.append([tuple(rng.randrange(F.q) for _ in range(t))])  # one point
            for _ in range(2):  # collinear points, and all of a line
                line = AffineSubspace(F, [rng.randrange(F.q) for _ in range(t)], [[rng.randrange(F.q) for _ in range(t)]], strict=False)
                pts = list(line.points())
                sets.append(rng.sample(pts, rng.randint(1, len(pts))))
                sets.append(pts)
            if F.q**t <= 4096:
                sets.append(space)  # the full space
            for pts in sets:
                ps = PointSet(F, t, pts)
                span = affine_span(ps)
                assert span == _span_by_rref_of_all_differences(ps), (F.q, t, ps.sorted_points())
                ref_span, ref_chosen = _greedy_span_by_membership(ps)
                chosen = max_general_position(ps)
                assert span == ref_span and chosen == ref_chosen, (F.q, t, ps.sorted_points())
                assert len(chosen) == span.dim + 1 and chosen[0] == ps.sorted_points()[0]
                assert affine_span(PointSet(F, t, chosen)) == span
            line = AffineSubspace(F, [rng.randrange(F.q) for _ in range(t)], [[rng.randrange(1, F.q)] * t])
            assert affine_span(PointSet(F, t, line.points())) == line
    full = PointSet(F4, 3, product(range(4), repeat=3))
    assert affine_span(full) == full_space(F4, 3)
    assert max_general_position(full) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_max_general_position():
    one = PointSet(F3, 2, [(2, 1)])
    assert max_general_position(one) == [(2, 1)]
    line_pts = PointSet(F3, 2, AffineSubspace(F3, (0, 0), [(1, 1)]).points())
    assert len(max_general_position(line_pts)) == 2
    full = PointSet(F2, 2, full_space(F2, 2).points())
    witness = max_general_position(full)
    assert len(witness) == 3 == affine_span(full).dim + 1


def test_is_linear_subspace():
    line_pts = PointSet(F3, 2, AffineSubspace(F3, (0, 0), [(1, 1)]).points())
    assert is_linear_subspace(line_pts) == (True, 1)
    partial = PointSet(F3, 2, list(line_pts.points)[:2])
    assert is_linear_subspace(partial) == (False, None)
    two_lines = PointSet(
        F3,
        2,
        list(AffineSubspace(F3, (0, 0), [(0, 1)]).points())
        + list(AffineSubspace(F3, (1, 0), [(0, 1)]).points()),
    )
    assert is_linear_subspace(two_lines) == (False, None)
    assert is_linear_subspace(PointSet(F3, 2, [])) == (False, None)


SMALL_FIELDS = [build_field(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subspace_dim_matches_span_only_rule(data):
    # the size screen (N must be a power of q) never changes the verdict of
    # the span-only rule N == q^dim(span): on random point sets, on the
    # points of a random affine subspace, and on such a set with one point
    # moved, which keeps N = q^m
    F = data.draw(st.sampled_from(SMALL_FIELDS))
    q = F.q
    n = data.draw(st.integers(1, 3 if q < 5 else 2))
    space = list(product(range(q), repeat=n))
    kind = data.draw(st.sampled_from(["random", "subspace", "moved"]))
    if kind == "random":
        pts = set(data.draw(st.lists(st.sampled_from(space), min_size=1, max_size=3 * q)))
    else:
        m = data.draw(st.integers(0, n))
        rows = [[data.draw(st.integers(0, q - 1)) for _ in range(n)] for _ in range(m)]
        offset = [data.draw(st.integers(0, q - 1)) for _ in range(n)]
        pts = set(AffineSubspace(F, offset, rows, strict=False).points())
        if kind == "moved" and len(pts) < len(space):
            pts.remove(data.draw(st.sampled_from(sorted(pts))))
            pts.add(data.draw(st.sampled_from(sorted(set(space) - pts))))
    Z = np.array(sorted(pts), dtype=np.intp).reshape(len(pts), n)
    dim = len(_greedy_span(F, Z)[0])
    assert subspace_dim(F, Z) == (dim if len(Z) == q**dim else None)


def test_linear_subspace_roundtrip_sweep():
    for F in (F2, F3, F4):
        for n in (1, 2, 3):
            for m in range(n + 1):
                for rows in direction_spaces(F, n, m):
                    L = AffineSubspace(F, (0,) * n, rows)
                    ps = PointSet(F, n, L.points())
                    assert is_linear_subspace(ps) == (True, m)


def test_superspace_count_formula_sweep():
    # (q^(n-k) - 1)/(q - 1) superspaces for every direction space
    for F, max_n in ((F2, 4), (F3, 4), (F4, 3)):
        q = F.q
        for n in range(1, max_n + 1):
            for m in range(n):
                for rows in direction_spaces(F, n, m):
                    L = AffineSubspace(F, (0,) * n, rows)
                    expected = (q ** (n - m) - 1) // (q - 1)
                    assert len(superspaces(L)) == expected


def test_direction_space_counts():
    for q, F in ((2, F2), (3, F3), (4, F4)):
        for n in (2, 3, 4):
            for m in range(n + 1):
                count = sum(1 for _ in direction_spaces(F, n, m))
                assert count == gaussian_binomial(q, n, m)


def test_direction_spaces_are_canonical_and_distinct():
    seen = set()
    for rows in direction_spaces(F3, 3, 2):
        canon, _ = rref(F3, rows)
        assert canon == rows
        assert rows not in seen
        seen.add(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_descriptions_same_points_same_canonical_form(data):
    F = data.draw(st.sampled_from([F2, F3]))
    n = 3
    rows = [
        tuple(data.draw(st.integers(0, F.q - 1)) for _ in range(n)) for _ in range(2)
    ]
    canon, _ = rref(F, rows)
    if not canon:
        return
    offset = tuple(data.draw(st.integers(0, F.q - 1)) for _ in range(n))
    L1 = AffineSubspace(F, offset, canon)
    # re-describe with scaled/mixed rows and a shifted offset on the subspace
    lam = data.draw(st.integers(1, F.q - 1))
    rows2 = [tuple(F.mul(lam, x) for x in canon[0])] + [
        tuple(F.add(x, y) for x, y in zip(r, canon[0])) for r in canon[1:]
    ]
    shift = list(offset)
    for row in canon:
        c = data.draw(st.integers(0, F.q - 1))
        shift = [F.add(x, F.mul(c, y)) for x, y in zip(shift, row)]
    L2 = AffineSubspace(F, shift, rows2, strict=False)
    assert L1 == L2
    assert L1.basis == L2.basis
