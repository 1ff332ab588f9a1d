"""Counting engines: reference oracle, fast path, regions, extensions."""

import json
import math
import tracemalloc
from itertools import combinations, product
from dataclasses import replace
from random import Random

import numpy as np
import pytest

from cwlab import counting
from cwlab.counting import (
    count_zeros,
    count_zeros_ext,
    counts_over_parallel_class,
    fast_count,
    lift_system,
    oracle_count,
    zero_points,
    zero_set,
)
from cwlab.constructions import corpus_system, norm_form, random_system
from cwlab.errors import AmbientMismatch, BudgetExceeded, InvalidArgument
from cwlab.fields import FLOAT32_EXACT, FLOAT64_EXACT, build_field
from cwlab.polynomials import MultiPoly, PolySystem, parse_poly
from cwlab.subspaces import AffineSubspace
from references import full_space, homogenize, leading_form

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)

HYP = PolySystem([parse_poly("x1*x2 + x3*x4", F2, ["x1", "x2", "x3", "x4"])])


def vanishes(system, pt):
    """Whether every polynomial of system is zero at pt, by scalar evaluation."""
    return all(f.evaluate(pt) == 0 for f in system.polys)


def walked(call, *args, **kwargs):
    """call(*args, **kwargs) from an empty walk memo, so that it makes its
    own kernel pass instead of reading an earlier call's walk."""
    counting.WALKS.clear()
    return call(*args, **kwargs)


def test_count_examples():
    assert count_zeros(PolySystem([parse_poly("x1", F3, ["x1", "x2"])])).count == 3
    assert count_zeros(HYP).count == 10


def test_report_fields_and_json_shape():
    rep = count_zeros(HYP)
    assert rep.scanned == 16 and rep.q == 2 and rep.n == 4 and rep.d == 2
    body = json.loads(rep.to_json())
    assert list(body) == ["q", "n", "region", "count", "scanned", "workers", "points_evaluated"]


def test_subspace_region_equals_direct_filter():
    for i in range(12):
        system = corpus_system(3, i)
        F = system.field
        n = system.nvars
        L = AffineSubspace(F, (0,) * n, [tuple(F.one if j == t else 0 for j in range(n)) for t in (0, 1)])
        via_restriction = count_zeros(system, L).count
        direct = sum(1 for pt in L.points() if vanishes(system, pt))
        assert via_restriction == direct


def test_vanishing_restriction_counts_whole_subspace():
    f = parse_poly("x1", F3, ["x1", "x2"])
    L = AffineSubspace(F3, (0, 0), [(0, 1)])  # x1 = 0 on all of L
    assert count_zeros(PolySystem([f]), L).count == 3


def test_extension_counts():
    lin = PolySystem([parse_poly("x1", F2, ["x1", "x2"])])
    assert [count_zeros_ext(lin, s).count for s in (1, 2, 3, 4)] == [2, 4, 8, 16]
    n2 = PolySystem([norm_form(F2, 2)])
    assert count_zeros_ext(n2, 1).count == 1
    assert count_zeros_ext(n2, 2).count == 7
    assert count_zeros_ext(n2, 1).count == count_zeros(n2).count


def test_lift_to_the_field_itself_is_the_system():
    # no coefficient copied through the identity embedding, and the same
    # count; a field on another modulus still lifts to the canonical one
    system = corpus_system(3, 4)
    assert lift_system(system, 1) is system
    assert count_zeros_ext(system, 1).to_json() == replace(count_zeros(system), region="ext s=1").to_json()
    H = build_field(3, 2, (2, 2, 1))
    other = PolySystem([parse_poly("x1^2 + x2", H, ["x1", "x2"])])
    lifted = lift_system(other, 1)
    assert lifted is not other and lifted.field is build_field(3, 2) and lifted.field != H
    assert count_zeros_ext(other, 1).count == count_zeros(other).count


def test_parallel_class_counts():
    L = AffineSubspace(F2, (0, 0, 0, 0), [(1, 0, 0, 0), (0, 1, 0, 0)])
    pairs = counts_over_parallel_class(HYP, L)
    counts = [c for _, c in pairs]
    assert counts == [3, 3, 3, 1]
    assert sum(counts) == count_zeros(HYP).count
    full = full_space(F2, 4)
    assert [c for _, c in counts_over_parallel_class(HYP, full)] == [10]
    line = AffineSubspace(F3, (0, 0), [(0, 1)])
    sysx1 = PolySystem([parse_poly("x1", F3, ["x1", "x2"])])
    assert [c for _, c in counts_over_parallel_class(sysx1, line)] == [3, 0, 0]


def test_fast_engine_equals_oracle_on_corpus_sample():
    for i in range(40):
        system = corpus_system(1, i)
        assert fast_count(system) == oracle_count(system)


def test_parallel_class_sums_to_total_on_corpus():
    from cwlab.subspaces import direction_spaces

    for i in range(8):
        system = corpus_system(6, i)
        F, n = system.field, system.nvars
        total = count_zeros(system).count
        for m in (1, n - 1):
            rows = next(iter(direction_spaces(F, n, m)))
            L = AffineSubspace(F, (0,) * n, rows)
            counts = [c for _, c in counts_over_parallel_class(system, L)]
            assert sum(counts) == total and len(counts) == F.q ** (n - m)


def test_homogeneous_scalar_orbit_divisibility():
    # for homogeneous systems, nonzero zeros come in scalar orbits of size q-1
    for i in range(60):
        system = corpus_system(4, i)
        if not system.is_homogeneous:
            continue
        cnt = count_zeros(system).count
        assert cnt >= 1 and (cnt - 1) % (system.field.q - 1) == 0


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_every_scalar_orbit_meets_the_cone_prefixes_once(p, k):
    # the cone's prefixes lead with the element of index 1, not F.one over
    # an extension field; each F^* orbit of nonzero prefixes still meets them once
    F = build_field(p, k)
    q, T = F.q, F.tables
    assert F.one != 1
    for n in (2, 3, 4):
        cone = np.zeros(q ** (n - 1), dtype=bool)
        cone[counting._prefixes(q, n - 1, cone=True)[1:]] = True
        prefixes = counting._coordinates(np.arange(1, q ** (n - 1)), q, n - 1)
        orbits = T.mul(np.arange(1, q)[:, None, None], prefixes[None])  # [scalar, coordinate, prefix]
        meets = cone[(orbits * q ** np.arange(n - 2, -1, -1)[:, None]).sum(axis=1)].sum(axis=0)
        assert (meets == 1).all(), (q, n)


def test_zero_set_matches_count_and_order():
    pts = zero_set(HYP)
    assert len(pts) == 10
    assert pts == sorted(pts)  # odometer order is lexicographic on tuples
    assert all(vanishes(HYP, pt) for pt in pts)


def test_budget_errors():
    big = PolySystem([parse_poly("x1", F3, [f"x{i+1}" for i in range(12)])])
    with pytest.raises(BudgetExceeded):
        count_zeros(big, budget=1000)
    with pytest.raises(BudgetExceeded):
        count_zeros_ext(big, 2, budget=1000)


def test_report_json_deterministic():
    a = count_zeros(HYP).to_json()
    b = count_zeros(HYP).to_json()
    assert a == b


def _kernel_systems():
    """Corpus systems lifted to F_8, F_9, F_16, F_25 and F_27 (at most about
    20 000 points each), and one system over F_7."""
    from cwlab.constructions import random_system

    out = []
    for base_q, s, max_n in ((2, 3, 4), (3, 2, 4), (2, 4, 3), (5, 2, 3), (3, 3, 3)):
        picked = [
            sy for sy in (corpus_system(5, i) for i in range(400))
            if sy.field.q == base_q and sy.nvars <= max_n
        ]
        # a one-polynomial and a two-polynomial system of each kind
        for r in (1, 2):
            out.append(lift_system(next(sy for sy in picked if sy.r == r), s))
    out.append(random_system(build_field(7, 1), 4, (2, 1), 11))
    return out


KERNEL_SYSTEMS = _kernel_systems()


@pytest.mark.parametrize("chunk", [None, 97])
def test_kernel_matches_oracle_and_point_filter(chunk, monkeypatch):
    # a small block bound makes every split pass one prefix a block, so
    # block edges fall inside runs of zeros
    if chunk:
        monkeypatch.setattr(counting, "BLOCK_BYTES", chunk)
    assert {sy.field.q for sy in KERNEL_SYSTEMS} == {7, 8, 9, 16, 25, 27}
    for system in KERNEL_SYSTEMS:
        q, n = system.field.q, system.nvars
        filtered = [pt for pt in product(range(q), repeat=n) if vanishes(system, pt)]
        assert walked(zero_set, system) == filtered
        assert walked(fast_count, system) == len(filtered) == oracle_count(system)


def test_parallel_class_matches_oracle_per_member():
    from cwlab.subspaces import direction_spaces

    for i in range(40):
        system = corpus_system(7, i)
        F, n = system.field, system.nvars
        spaces = list(direction_spaces(F, n, 1 + i % (n - 1)))
        L = AffineSubspace(F, (0,) * n, spaces[(7 * i) % len(spaces)])
        pairs = counts_over_parallel_class(system, L)
        assert [m for m, _ in pairs] == L.parallel_class()
        assert [c for _, c in pairs] == [
            count_zeros(system, m, engine="oracle").count for m in L.parallel_class()
        ]


_COSET_ID_CASES = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 3), (2, 3, 3), (3, 2, 3), (2, 4, 2), (5, 2, 2),
                   (3, 3, 2), (2, 2, 5), (127, 1, 3), (65537, 1, 2)]


@pytest.mark.parametrize(
    "p,k,n", _COSET_ID_CASES, ids=[f"{p}-{k}" + (f"-n{n}" if n == 5 else "") for p, k, n in _COSET_ID_CASES]
)
def test_coset_ids_match_per_point_offsets(p, k, n):
    # each point's coset number is the place, in parallel_class order, of
    # the offset of the subspace through it; for every dimension m from 0
    # (every point its own coset) to n (one coset, number 0), batches of
    # one space and of three with the same pivots, and one batch that mixes
    # every pivot pattern of dimension m; a batch of one space passes its
    # pivots as a tuple.  Over F_4 at n = 5, m = 1 packs its 8 digits in two
    # groups; F_127 and F_65537 are past the read-out table's cap for
    # m >= 1 (the reference lists every coset, so m stops short of 10^5).
    from cwlab.counting import basis_entries, coset_ids, point_digits
    from cwlab.rng import SplitMix64

    F = build_field(p, k)
    q = F.q
    rng = SplitMix64(q)
    Z = np.array([[rng.below(q) for _ in range(n)] for _ in range(30)])

    def space(pivots):
        rows = [[0] * n for _ in pivots]
        for row, piv in zip(rows, pivots):
            row[piv] = F.one
            for j in range(piv + 1, n):
                if j not in pivots:
                    row[j] = rng.below(q)
        return rows

    for m in range(n + 1):
        if q ** (n - m) > 10**5:
            continue
        patterns = list(combinations(range(n), m))
        mixed = [space(pivots) for pivots in patterns for _ in range(2)]
        batches = [[space(pivots) for _ in range(B)] for pivots in patterns for B in (1, 3)]
        batches.append([mixed[i] for i in Random(m).sample(range(len(mixed)), len(mixed))])
        for spaces in batches:
            pivots, entries = zip(*(basis_entries(rows, n) for rows in spaces))
            pivots = pivots[0] if len(spaces) == 1 else np.array(pivots, dtype=np.intp)
            ids = coset_ids(point_digits(Z, F), pivots, np.stack(entries), F)
            assert ids.shape == (len(spaces), len(Z))
            for rows, got in zip(spaces, ids.tolist()):
                members = AffineSubspace(F, (0,) * n, rows).parallel_class()
                place = {L.offset: i for i, L in enumerate(members)}
                assert got == [place[AffineSubspace(F, pt, rows).offset] for pt in Z.tolist()]
            if m == n:
                assert not ids.any()
    if (q, n) == (4, 5):
        assert F.tables.readout(4, 8)[1].shape[1] == 2
    if q > 100:
        assert F.tables.readout((p - 1) * (1 + (p - 1)) + 1, (n - 1) * k)[2] is None


def _int64_coset_ids(Z, pivots, entries, F):
    """Reference for `coset_matrix` and `coset_ids`: M' built in int64 and
    the int64 product of M' with the points' (|Z|, nk) digits, read out as
    `coset_ids` reads its float64 product.  Returns (M', ids)."""
    from cwlab.counting import _packing

    T, p, k = F.tables, F.p, F.k
    B, m, f = entries.shape
    n = m + f
    if f == 0:
        return np.zeros((0, n * k), dtype=np.int64), np.zeros((B, len(Z)), dtype=np.int64)
    g, W, table, _ = _packing(F, m, f)
    W = W.astype(np.int64)
    G = W.shape[1]
    rows = np.arange(B)[:, None]
    pivots = np.broadcast_to(np.asarray(pivots, dtype=np.intp), (B, m))
    is_pivot = np.zeros((B, n), dtype=bool)
    is_pivot[rows, pivots] = True
    M = np.empty((B, G, n, k), dtype=np.int64)
    M[rows, :, np.nonzero(~is_pivot)[1].reshape(B, f)] = W.reshape(f, k, G).transpose(0, 2, 1)
    if m:
        mm = T.mul_matrices[T.neg(entries)].astype(np.int64).transpose(0, 1, 3, 2, 4)
        M[rows, :, pivots] = (mm.reshape(B, m, k, f * k) @ W).transpose(0, 1, 3, 2)
    M = M.reshape(B * G, n * k)
    X = (Z if k == 1 else T.digits(Z)).reshape(len(Z), n * k).astype(np.int64)
    R = (M @ X.T).reshape(B, G, len(Z)).transpose(1, 0, 2)
    digits = R % p if table is None else table.take(R)
    ids = np.zeros((B, len(Z)), dtype=np.int64)
    for d in digits:
        ids = ids * p**g + d
    return M, ids


_GEMM_CASES = [(2, 1, 5), (3, 1, 4), (2, 2, 4), (2, 3, 3), (3, 2, 3), (5, 2, 3), (2, 10, 3), (127, 1, 3), (65537, 1, 2)]


@pytest.mark.parametrize("p,k,n", _GEMM_CASES, ids=[f"{p}-{k}" for p, k, _ in _GEMM_CASES])
def test_float64_product_matches_int64_reference(p, k, n):
    # coset_matrix and coset_ids against the int64 product, array-equal,
    # for every m from 0 to n: two spaces per pivot pattern (every entry 1,
    # and random entries), each alone and all in one batch, on random
    # points, the zero point and the point whose digits are all p - 1.  Spaces with every entry 1 multiply by -1, whose
    # digits are the largest over a prime field, so the product reaches its
    # bound (b - 1 per group past the read-out cap, as over F_127 at m >= 1
    # and F_65537).
    from cwlab.counting import basis_entries, coset_ids, coset_matrix, point_digits
    from cwlab.rng import SplitMix64

    F = build_field(p, k)
    q = F.q
    rng = SplitMix64(q + n)
    Z = np.array([[0] * n, [q - 1] * n] + [[rng.below(q) for _ in range(n)] for _ in range(40)])
    X = point_digits(Z, F)
    assert X.dtype == np.float64 and X.flags.c_contiguous and X.shape == (n * k, len(Z))
    for m in range(n + 1):
        spaces = []
        for pivots in combinations(range(n), m):
            for value in (lambda: F.one, lambda: rng.below(q)):
                rows = [[0] * n for _ in pivots]
                for row, piv in zip(rows, pivots):
                    row[piv] = F.one
                    for j in range(piv + 1, n):
                        if j not in pivots:
                            row[j] = value()
                spaces.append(rows)
        batches = [[rows] for rows in spaces] + [spaces]
        for batch in batches:
            pivots, entries = zip(*(basis_entries(rows, n) for rows in batch))
            pivots, entries = np.array(pivots, dtype=np.intp).reshape(len(batch), m), np.stack(entries)
            M, ids = _int64_coset_ids(Z, pivots, entries, F)
            matrix = coset_matrix(pivots, entries, F)
            assert matrix.dtype == np.float64 and np.array_equal(matrix, M), (m, batch)
            assert np.array_equal(coset_ids(X, pivots, entries, F), ids), (m, batch)
            assert np.array_equal(coset_ids(X, pivots, entries, F, matrix), ids), (m, batch)
        if p == 127 and m >= 1:
            assert counting._packing(F, m, n - m)[2] is None  # b past the read-out cap


def test_float64_product_bound_holds_at_the_caps():
    # the largest radix b = (p - 1)(1 + mk(p - 1)) + 1 that the caps admit:
    # p^k <= FIELD_SIZE_CAP, q^n <= FAST_CAP and m = n - 1 (a space with no
    # free digit reads no product).  It is below 2^46, and readout accepts
    # it; there coset_ids still equals the int64 product at its extreme,
    # and the product's bound is b - 1.
    from cwlab.counting import FAST_CAP, basis_entries, coset_ids, point_digits
    from cwlab.fields import FIELD_SIZE_CAP

    sieve = np.ones(FIELD_SIZE_CAP + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(FIELD_SIZE_CAP) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    best = (0,)
    for p in np.flatnonzero(sieve).tolist():
        k = 1
        while p**k <= FIELD_SIZE_CAP:
            n = 0
            while p ** (k * (n + 1)) <= FAST_CAP:
                n += 1
            if n >= 1:
                b = (p - 1) * (1 + (n - 1) * k * (p - 1)) + 1
                best = max(best, (b, p, k, n))
            k += 1
    b, p, k, n = best
    assert (b, p, k, n) == (998_970_843, 31607, 1, 2)
    assert b < 1 << 46 and b <= FLOAT64_EXACT == 1 << 53
    F = build_field(p, k)
    g, W, table, bound = counting._packing(F, n - 1, 1)
    assert (g, W.shape, table, bound) == (1, (k, k), None, b - 1)
    Z = np.array([[v, v] for v in (0, p - 1, 1, p - 2)])
    for rows in ([[1, 1]], [[1, p - 1]], [[0, 1]], [[1, 0]]):
        pivots, entries = basis_entries(rows, n)
        ids = coset_ids(point_digits(Z, F), pivots, entries[None], F)
        assert np.array_equal(ids, _int64_coset_ids(Z, pivots, entries[None], F)[1]), rows
    with pytest.raises(AssertionError):
        F.tables.readout(FLOAT64_EXACT + 1, 1)


def test_subspace_from_another_space_is_rejected():
    # a region must lie in the system's space: the same ambient dimension
    # and the same field, for the parallel class as for a single count
    system = corpus_system(0, 5)
    F, n = system.field, system.nvars
    assert (F.q, n) == (4, 5)
    wide = AffineSubspace(F, (0,) * 6, [(1, 0, 0, 0, 0, 0)])
    F5 = build_field(5, 1)
    other = AffineSubspace(F5, (0,) * n, [(1, 0, 0, 0, 0)])
    for L in (wide, other):
        with pytest.raises(AmbientMismatch):
            counts_over_parallel_class(system, L)
        with pytest.raises(AmbientMismatch):
            counts_over_parallel_class(system, L, engine="oracle")
        with pytest.raises(AmbientMismatch):
            count_zeros(system, L)
    # the same field built from its modulus is the same field
    same = AffineSubspace(build_field(2, 2, F.modulus), (0,) * n, [(1, 0, 0, 0, 0)])
    assert count_zeros(system, same).count == count_zeros(system, AffineSubspace(F, (0,) * n, [(1, 0, 0, 0, 0)])).count


def test_negative_point_budget_is_an_input_error(monkeypatch):
    with pytest.raises(InvalidArgument):
        count_zeros(HYP, budget=-1)
    with pytest.raises(InvalidArgument):
        zero_points(HYP, budget=-1)
    with pytest.raises(BudgetExceeded):
        count_zeros(HYP, budget=0)
    monkeypatch.setenv("CWLAB_BUDGET", "-3")
    with pytest.raises(InvalidArgument):
        count_zeros(HYP)
    monkeypatch.setenv("CWLAB_BUDGET", "0")
    with pytest.raises(BudgetExceeded):
        count_zeros(HYP)


def test_ax_katz_divisibility_on_corpus():
    # Katz (1971): q^ceil((n - sum d_i) / max d_i) divides N
    for i in range(300):
        system = corpus_system(0, i)
        q, n, degs = system.field.q, system.nvars, system.degrees
        e = -(-(n - sum(degs)) // max(degs))
        assert count_zeros(system).count % q**e == 0, i


def _edge_systems():
    """Systems over F_7 and lifted to F_8, F_9, F_16, F_25 and F_27 that
    reach the kernel's corners: n = 1; a fewest-terms polynomial without
    x_n; a first polynomial of x_n-degree at least q, vanishing everywhere
    or not; three polynomials."""
    out = []
    for p, s, n in ((7, 1, 3), (2, 3, 3), (3, 2, 3), (2, 4, 2), (5, 2, 2), (3, 3, 2)):
        F, q = build_field(p, 1), p**s
        names = [f"x{i + 1}" for i in range(n)]
        xn = names[-1]
        for texts, arity in (
            (["x1^2 + x1 + 1"], 1),
            ([f"x1^{q + 1} - x1^2", "x1^3 - 2*x1 + 1"], 1),
            (["x1^2 - 1", f"x1*{xn}^2 + x2*{xn} + 1"], n),
            ([f"{xn}^{q} - {xn}", f"x1*{xn} + x2^2 + 1"], n),
            ([f"{xn}^{q + 2} - x1*{xn}^3"], n),
            # three polynomials, each divisible by x1 - x_n
            ([f"x1*x2 - x2*{xn}", f"x1^2 - {xn}^2 + x1*x2 - x2*{xn}", f"x1^3 - {xn}^3"], n),
        ):
            system = PolySystem([parse_poly(t, F, names[:arity]) for t in texts])
            out.append(lift_system(system, s))
    return out


EDGE_SYSTEMS = _edge_systems()


@pytest.mark.parametrize("chunk", [None, 5, 110])
def test_kernel_edge_cases_match_oracle(chunk, monkeypatch):
    # a chunk bounds a step's blocks and held operands in bytes: at 5 a
    # split pass runs one prefix and one suffix a block, at 110 a few
    # suffixes that never divide q^s
    from cwlab.subspaces import direction_spaces

    if chunk:
        monkeypatch.setattr(counting, "BLOCK_BYTES", chunk)
        monkeypatch.setattr(counting, "HELD_BYTES", chunk)
    blocks, real_step = [], counting._step

    def recorded(*args, **kwargs):
        for xs, ys, V in real_step(*args, **kwargs):
            blocks.append(V.shape[1] * V.shape[2])
            yield xs, ys, V

    monkeypatch.setattr(counting, "_step", recorded)
    assert {sy.field.q for sy in EDGE_SYSTEMS} == {7, 8, 9, 16, 25, 27}
    # each system by the split the rule picks, then with the rule's points
    # bound at 0, so that every pass takes a split s >= 1
    splits = {"rule": [], "split": []}
    for forced in ("rule", "split"):
        if forced == "split":
            monkeypatch.setattr(counting, "GEMM_POINTS", 0)
        for system in EDGE_SYSTEMS:
            F, n = system.field, system.nvars
            q = F.q
            filtered = [pt for pt in product(range(q), repeat=n) if vanishes(system, pt)]
            blocks.clear()
            assert walked(zero_set, system) == filtered
            # an s = 0 pass is one product, one block; a split pass's blocks
            # cover its q^n points, one prefix and one suffix each at chunk 5
            s = counting._pass(system, False)[2]
            splits[forced].append(s)
            assert sum(blocks) == q**n
            if not s:
                assert len(blocks) == 1
            elif chunk == 5:
                assert len(blocks) == q**n
            assert walked(fast_count, system) == len(filtered) == oracle_count(system)
            spaces = list(direction_spaces(F, n, 1))
            for rows in (spaces[0], spaces[-1]):
                L = AffineSubspace(F, (0,) * n, rows)
                assert walked(counts_over_parallel_class, system, L) == counts_over_parallel_class(
                    system, L, engine="oracle"
                )
    # every edge pass has at most 729 points, within the GEMM bounds
    assert not any(splits["rule"]) and all(splits["split"])


def test_point_subspaces_match_oracle():
    # a point restricts a system to nonzero constants in no variables, or
    # to nothing when every polynomial vanishes there
    with_zeros = 0
    for system in (HYP, *EDGE_SYSTEMS[:12]):
        F, n = system.field, system.nvars
        zeros = zero_set(system)
        other = next(pt for pt in product(range(F.q), repeat=n) if not vanishes(system, pt))
        cases = [(other, 0)] + [(pt, 1) for pt in zeros[:1]]
        for pt, expect in cases:
            L = AffineSubspace(F, pt, [])
            assert count_zeros(system, L).count == expect
            assert count_zeros(system, L, engine="oracle").count == expect
        with_zeros += bool(zeros)
    assert with_zeros > 10
    const = PolySystem([parse_poly("1", F3, [])])
    assert const.nvars == 0
    assert zero_set(const) == [] and fast_count(const) == 0 == oracle_count(const)


def _cone_systems():
    """Homogeneous systems over F_2, F_3, F_4, F_5, F_8 and F_9 in n = 1..4
    variables: the leading and homogenized systems of seeded random systems
    (one and two polynomials, mixed degrees), x1*x2 (the x_n-axis lies in
    its zero set) and x1^2 + x_n^2 (only the origin of the axis does), and
    each system's restriction to a linear plane through the origin."""
    from cwlab.subspaces import direction_spaces

    out = []
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        F = build_field(p, k)
        for n in range(1, 5):
            names = [f"x{i + 1}" for i in range(n)]
            sparse = "x1^2" if n == 1 else f"x1^2 + {names[-1]}^2"
            forms = [PolySystem([parse_poly(sparse, F, names)])]
            if n > 1:
                forms.append(PolySystem([parse_poly("x1*x2", F, names)]))
            for degrees in ((2,), (3,), (2, 1), (3, 2)):
                forms.append(random_system(F, n, degrees, 7 * n + len(degrees)).leading_system())
                if n > 1:
                    forms.append(random_system(F, n - 1, degrees, n).homogenized_system())
            for system in forms:
                out.append((system, None))
                if n > 2:
                    spaces = list(direction_spaces(F, n, 2))
                    plane = AffineSubspace(F, (0,) * n, spaces[len(out) % len(spaces)])
                    out.append((system, plane))
    return out


CONE_SYSTEMS = _cone_systems()


@pytest.mark.parametrize("chunk", [None, 20])
def test_cone_count_matches_oracle(chunk, monkeypatch):
    # with a block bound of 20 bytes and the rule's points bound at 0, every
    # pass is a split pass of one prefix a block, so blocks straddle the
    # normalized prefix ranges [q^i, 2 q^i) and the gaps between them
    if chunk:
        monkeypatch.setattr(counting, "BLOCK_BYTES", chunk)
        monkeypatch.setattr(counting, "GEMM_POINTS", 0)
    assert {sy.field.q for sy, _ in CONE_SYSTEMS} == {2, 3, 4, 5, 8, 9}
    assert {sy.nvars for sy, _ in CONE_SYSTEMS} == {1, 2, 3, 4}
    for system, plane in CONE_SYSTEMS:
        assert system.is_homogeneous
        fast = walked(count_zeros, system, plane)
        assert fast.count == count_zeros(system, plane, engine="oracle").count
        if plane is None:
            assert fast.count == walked(fast_count, system) == oracle_count(system)
            assert fast.count == len(walked(zero_set, system))


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (3, 2)])
def test_cone_weights_hold_at_every_split(p, k, monkeypatch):
    # a homogeneous zero set is a union of lines through 0, so the cone's
    # weights, 1 at suffix 0 and q - 1 at a normalized suffix, hold whichever
    # last s variables form the grid: every split s = 1 .. n, by either sum
    # (forced past the rule), gives the oracle's count, and kernel_points
    # the split's q^(n-s) (1 + (q^s - 1) / (q - 1)) points
    F = build_field(p, k)
    q = F.q
    systems = [sy for sy, plane in CONE_SYSTEMS if plane is None and sy.field is F and sy.nvars > 1]
    assert len(systems) > 10
    for system in systems:
        n, want = system.nvars, oracle_count(system)
        for s in range(1, n + 1):
            for log in (False, True):
                monkeypatch.setattr(counting, "_rule", lambda p, k, shapes: (s, log))
                assert walked(fast_count, system) == want, (system, s, log)
                assert counting.kernel_points(system) == q ** (n - s) * (1 + (q**s - 1) // (q - 1))


def test_cone_count_closed_forms():
    # x1*x2 = 0 is two planes of A^3 meeting in the x_3-axis, which lies in
    # the zero set; x1^2 - x3^2 = 0 meets the axis only at the origin
    for F in (F3, F4, build_field(5, 1)):
        q = F.q
        names = ["x1", "x2", "x3"]
        planes = PolySystem([parse_poly("x1*x2", F, names)])
        assert fast_count(planes) == 2 * q**2 - q == oracle_count(planes)
        cross = PolySystem([parse_poly("x1^2 - x3^2", F, names)])
        assert fast_count(cross) == (2 * q - 1 if q % 2 else q) * q == oracle_count(cross)


def test_points_evaluated_counter():
    q = F3.q
    for n in (1, 2, 3, 4):
        names = [f"x{i + 1}" for i in range(n)]
        text = "x1^2" if n == 1 else f"x1^2 + 2*{names[-1]}^2"
        form = PolySystem([parse_poly(text, F3, names)])
        shifted = PolySystem([parse_poly(text + " + 1", F3, names)])
        cone = q * (1 + (q ** (n - 1) - 1) // (q - 1))
        assert counting.kernel_points(form) == count_zeros(form).points_evaluated == cone
        assert count_zeros(shifted).points_evaluated == q**n
        assert count_zeros(form, engine="oracle").points_evaluated == q**n
    # q = 2: the cone is the whole grid
    assert count_zeros(HYP).points_evaluated == 16
    # a restriction that vanishes identically evaluates nothing
    f = PolySystem([parse_poly("x1", F3, ["x1", "x2"])])
    L = AffineSubspace(F3, (0, 0), [(0, 1)])
    assert count_zeros(f, L).points_evaluated == 0 == count_zeros(f, L, engine="oracle").points_evaluated
    assert count_zeros_ext(f, 2).points_evaluated == 9 * (1 + 1)


# -- the walk memo ------------------------------------------------------------------


def _sweep_verdicts(system, L, order):
    """The corpus-sweep calls and the two coset sweeps, the subspace one cut
    by its budget, in the given order, as comparable values: each report's
    body, evidence and witness, and the parallel-class pairs."""
    from cwlab.laws import CheckScope, check_congruence, homogenization_identity, lower_bound_audit

    calls = {
        "chevalley": lambda: check_congruence(system, "chevalley"),
        "ax": lambda: check_congruence(system, "ax"),
        "identity": lambda: homogenization_identity(system),
        "audit": lambda: lower_bound_audit(system),
        "class": lambda: counts_over_parallel_class(system, L),
        "count": lambda: count_zeros(system),
        "subspaces": lambda: check_congruence(system, "parallel-subspaces", CheckScope(budget=600)),
        "hyperplanes": lambda: check_congruence(system, "warning-hyperplanes"),
    }
    out = {}
    for name in order:
        rep = calls[name]()
        if name == "class":
            out[name] = [(m.key(), c) for m, c in rep]
        elif name == "count":
            out[name] = rep.to_json()
        else:
            out[name] = (rep.to_json(), rep.evidence, rep.witness)
        assert len(counting.WALKS.kept) <= counting.WALKS.entries
    return out


def _memo_systems():
    """Seeded corpus systems over F_2 .. F_5, and some lifted to F_8 and F_9."""
    systems = [corpus_system(12, i) for i in range(24)]
    small = [s for s in systems if s.nvars <= 3]
    systems += [lift_system(s, 3) for s in small if s.field.q == 2][:3]
    systems += [lift_system(s, 2) for s in small if s.field.q == 3][:3]
    assert {s.field.q for s in systems} == {2, 3, 4, 5, 8, 9}
    return systems


@pytest.mark.parametrize("cap,zeros", [(1, counting.MEMO_ZEROS), (2, 5), (4, counting.MEMO_ZEROS), (4, 5)])
def test_walk_memo_keeps_every_report(monkeypatch, cap, zeros):
    # every report is the same whether the memo is empty before each call,
    # warmed by the same object in either order, or holding an equal copy;
    # with zeros = 5 most entries keep their count only
    from cwlab.rng import SplitMix64
    from cwlab.subspaces import rref

    monkeypatch.setattr(counting.WALKS, "entries", cap)
    monkeypatch.setattr(counting, "MEMO_ZEROS", zeros)
    names = ["chevalley", "ax", "identity", "audit", "class", "count", "subspaces", "hyperplanes"]
    rng = SplitMix64(cap)
    for system in _memo_systems():
        F, n = system.field, system.nvars
        rows, _ = rref(F, [[rng.below(F.q) for _ in range(n)] for _ in range(min(n, system.total_degree))])
        L = AffineSubspace(F, (0,) * n, rows)
        fresh = {}
        for name in names:
            counting.WALKS.clear()
            fresh.update(_sweep_verdicts(system, L, [name]))
        counting.WALKS.clear()
        assert _sweep_verdicts(system, L, names) == fresh
        assert _sweep_verdicts(system, L, names[::-1]) == fresh
        copy = PolySystem(list(system.polys))
        assert _sweep_verdicts(copy, L, names[::-1]) == fresh
        assert _sweep_verdicts(copy, L, names) == fresh
        assert len(counting.WALKS.kept) <= cap
        walks = counting.WALKS.kept.values()
        assert all(w.idx is None or len(w.idx) <= zeros for w in walks)
        assert all(w.rows is None or w.idx.size + w.rows.size <= zeros for w in walks)
        # the digits are kept with the rows, within the same bound
        assert zeros == 5 or counting.WALKS.kept[id(copy)].digits is not None
        for w in walks:
            if w.digits is not None:
                assert w.idx.size + w.rows.size + w.digits.size <= zeros
                assert not w.digits.flags.writeable
                assert np.array_equal(w.digits, counting.point_digits(w.rows, w.system.field))


def test_walk_memo_budget_and_cone_count():
    from cwlab.laws import check_congruence, lower_bound_audit

    for system in _memo_systems():
        q, n = system.field.q, system.nvars
        L = full_space(system.field, n)
        N = fast_count(system)
        assert len(zero_points(system)) == N == fast_count(system)
        assert id(system) in counting.WALKS.kept
        # a budget below q^n is refused on a memo hit as on a miss
        for call in (
            lambda b: count_zeros(system, budget=b),
            lambda b: zero_points(system, budget=b),
            lambda b: check_congruence(system, "ax", budget=b),
            lambda b: lower_bound_audit(system, budget=b),
            lambda b: counts_over_parallel_class(system, L, budget=b),
        ):
            with pytest.raises(BudgetExceeded):
                call(q**n - 1)
            call(q**n)
        assert len(counting.WALKS.kept) <= counting.WALK_MEMO
    # a homogeneous system's cone count, remembered, equals the listed zeros
    homogeneous = [PolySystem([norm_form(F, 2)]) for F in (F3, F4, build_field(5, 1))]
    homogeneous += [s.leading_system() for s in _memo_systems()]
    for system in homogeneous:
        counting.WALKS.clear()
        N = fast_count(system)
        assert (counting.WALKS.kept[id(system)].idx is None) == counting._on_cone(system)
        assert len(zero_points(system)) == N == fast_count(system) == oracle_count(system)
        assert counting.WALKS.kept[id(system)].count == N
        counting.WALKS.clear()
        assert len(zero_points(system)) == fast_count(system) == N


def test_walk_memo_never_reads_a_dropped_systems_walk():
    # systems made and dropped one after another often reuse an address, so
    # an id alone could name a new system; each entry holds its system, so
    # the id stays taken while the entry lives
    def fresh(i):
        counting.WALKS.clear()
        system = corpus_system(13, i)
        return fast_count(system), zero_points(system).tolist()

    want = [fresh(i) for i in range(80)]
    counting.WALKS.clear()
    got = [fast_count(corpus_system(13, i)) for i in range(80)]
    assert got == [N for N, _ in want]
    got = [zero_points(corpus_system(13, i)).tolist() for i in range(80)]
    assert got == [Z for _, Z in want]


def test_congruence_notes_live_and_go_with_their_walk(monkeypatch):
    # the notes a sweep leaves are the walk entry's: a later read of the
    # entry hands out the same dict, a trimmed copy of the entry shares it,
    # and a new kernel walk, after WALKS dropped the entry, starts with none
    from cwlab.laws import check_congruence

    system = corpus_system(13, 2)
    digits, notes = counting.zero_digits_with_notes(system)
    assert notes == {} and digits is counting.zero_digits(system)
    check_congruence(system, "parallel-subspaces")
    n = system.nvars
    assert notes and (n - 1, system.field.q) in notes
    assert counting.zero_digits_with_notes(system)[1] is notes is counting.WALKS.kept[id(system)].agreed
    counting.WALKS.clear()
    assert counting.zero_digits_with_notes(system)[1] == {}
    # past MEMO_ZEROS with its rows and digits, the entry keeps the indexes
    # only, in a copy that holds the notes of the walk it was trimmed from
    monkeypatch.setattr(counting, "MEMO_ZEROS", len(zero_points(system)) + 1)
    counting.WALKS.clear()
    _, notes = counting.zero_digits_with_notes(system)
    kept = counting.WALKS.kept[id(system)]
    assert kept.rows is None and kept.idx is not None and kept.agreed is notes
    notes[0, 2] = 1
    assert counting.zero_digits_with_notes(system)[1] is notes  # digits again, from the kept indexes


def test_zero_rows_are_kept_on_the_walk():
    # a listing walk stores its rows once, read-only, and later listings of
    # the same system hand out that array without recomputing it
    system = corpus_system(13, 2)
    Z = zero_points(system)
    assert not Z.flags.writeable
    assert zero_points(system) is Z is counting.WALKS.kept[id(system)].rows
    with pytest.raises(ValueError):
        Z[:1] = 0
    assert Z.tolist() == [list(pt) for pt in zero_set(system)]


def _dense(F, n, degree, rng):
    """Every monomial of degree <= degree in n variables, with random
    coefficients that are often zero or one."""
    terms = []
    for exps in product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            c = rng.choice([0, F.one, int(rng.integers(F.q))])
            terms.append((exps, int(c)))
    return MultiPoly.from_terms(F, n, terms)


def _values(V, F, log):
    """The values of one polynomial in a block of `counting._step` (rows,
    b, w): its k digit rows joined, or its one row of values."""
    if log or F.k == 1:
        return V[0]
    return np.tensordot(F.p ** np.arange(F.k - 1, -1, -1), V, axes=1)


def evaluate_columns(f, cols, T, log=False):
    """f's values at the points whose coordinate columns are the rows of
    cols, by the kernel's step with no grid variable: A holds f's monomials
    at the points, and K B = K."""
    logs = T.log.take(np.asarray(cols))
    blocks = counting._step(T, [f], (), np.zeros((0, 1), dtype=T.log.dtype), logs, log)
    return np.concatenate([_values(V, T.field, log)[:, 0] for _, _, V in blocks])


def split_values(f, T, s, log=False):
    """f's values at every point of F^n in odometer order, by the kernel's
    step with the last s variables as the grid."""
    q, n = T.q, f.nvars
    prefix = T.log.take(counting._coordinates(np.arange(q ** (n - s)), q, n - s))
    suffix = T.log.take(counting._coordinates(np.arange(q**s), q, s))
    out = np.empty((q ** (n - s), q**s), dtype=np.int64)
    for xs, ys, V in counting._step(T, [f], tuple(range(n - s, n)), suffix, prefix, log):
        out[xs, ys] = _values(V, T.field, log)
    return out.ravel()


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 11), (3, 7), (7, 4)])
def test_evaluate_columns_matches_pointwise_evaluate(p, k):
    # every point of F^n (n = 3 for the small fields, 1 for those past
    # 2^10), then a sample of F^4 with many zero coordinates; constant-only
    # polynomials, coefficient one, and exponents past q (x^(q+3)) exercise
    # the sentinel and the exponents' reduction mod q - 1
    F = build_field(p, k)
    q, T = F.q, F.tables
    rng = np.random.default_rng(q)
    c = F.generator or F.from_int(p - 1) or F.one
    n = 3 if q < 10 else 1
    deep = (q + 3,) + (0,) * (n - 1)
    everywhere = counting._coordinates(np.arange(q**n), q, n)
    sample = [np.where(rng.random(400) < 0.3, 0, rng.integers(0, q, 400)) for _ in range(4)]
    cases = [
        (everywhere, MultiPoly.zero(F, n)),
        (everywhere, MultiPoly.constant(F, n, c)),
        (everywhere, MultiPoly.variable(F, n, n - 1)),
        (everywhere, MultiPoly.from_terms(F, n, [(deep, F.one)])),
        (everywhere, MultiPoly.from_terms(F, n, [(deep, c), ((1,) * n, F.one), ((0,) * n, c)])),
        (everywhere, _dense(F, n, 7, rng)),
        (sample, MultiPoly.constant(F, 4, F.one)),
        (sample, MultiPoly.from_terms(F, 4, [((2, 0, 1, 3), F.one), ((q + 3, 1, 0, 0), c)])),
        (sample, _dense(F, 4, 6, rng)),
    ]
    for cols, f in cases:
        points = list(zip(*(col.tolist() for col in cols)))
        want = [f.evaluate(pt) for pt in points]
        for log in (False, True):  # the digit product and the log-domain sum
            assert evaluate_columns(f, cols, T, log).tolist() == want, (f, log)


@pytest.mark.parametrize("p, k", [(2, 11), (3, 7), (7, 4)])
def test_kernel_counts_past_the_dense_cap(p, k):
    # (named for the 2^10 cap of the deleted dense tables; these fields are
    # past it)
    # x1 = h(x2) and x2 = h(x1) have exactly q zeros whatever h is; h has a
    # word past q and every power of x_n up to 7 in the kernel's sum
    F = build_field(p, k)
    q = F.q
    rng = np.random.default_rng(q)
    h = _dense(F, 1, 7, rng) + MultiPoly.from_terms(F, 1, [((q + 3,), F.generator)])
    for i, j in ((0, 1), (1, 0)):
        hj = MultiPoly.from_terms(F, 2, [(tuple(e if v == j else 0 for v in range(2)), c)
                                          for (e,), c in h.terms.items()])
        f = MultiPoly.variable(F, 2, i) - hj
        assert walked(fast_count, PolySystem([f])) == q
    # one variable: the kernel against the scalar evaluation at every element
    g = h * h + MultiPoly.constant(F, 1, F.one)
    assert walked(fast_count, PolySystem([g])) == sum(g.evaluate((x,)) == 0 for x in range(q))


@pytest.mark.parametrize("p", [65537, 1048573])
def test_kernel_counts_over_a_prime_past_2_16(p):
    # k = 1 with k(p - 1)^2 >= 2^32, so the generator powers are read out of
    # uint64 digit rows: distinct linear factors times 3x^7 + 1, counted by
    # the kernel against numpy's own arithmetic mod p, and evaluated against
    # the scalar evaluation at a sample of points
    F = build_field(p, 1)
    x = MultiPoly.variable(F, 1, 0)
    roots = (0, 1, 5, p - 1, 12345)
    g = MultiPoly.from_terms(F, 1, [((7,), 3), ((0,), 1)])
    for r in roots:
        g = g * (x - MultiPoly.constant(F, 1, r))
    r = np.arange(p, dtype=np.int64)
    r7 = np.ones_like(r)
    for _ in range(7):
        r7 = r7 * r % p
    extra = np.count_nonzero((3 * r7 + 1) % p == 0)
    assert walked(fast_count, PolySystem([g])) == len(roots) + extra
    cols = [np.arange(0, p, 97, dtype=np.int64)]
    assert evaluate_columns(g, cols, F.tables).tolist() == [g.evaluate((int(v),)) for v in cols[0]]
    if p < 1 << 17:
        assert walked(fast_count, PolySystem([g])) == sum(g.evaluate((v,)) == 0 for v in range(p))


# -- every split of the step and one-block passes ----------------------------------------


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 11)])
def test_compile_from_exponents_matches_pointwise_evaluate(p, k):
    # the step reads K, A and B from the exponent vectors, split at the last
    # s variables: for every s from 0 (A alone) to n (B alone) and both
    # sums, f at every point of F^n is f point by point, for dense and
    # sparse polynomials, constants alone, polynomials in fewer than n
    # variables (dense and sparse), leading forms, homogenizations, and
    # exponents past q
    F = build_field(p, k)
    T, q = F.tables, F.q
    rng = np.random.default_rng(q + k)
    c = F.generator or F.from_int(p - 1) or F.one
    n = 3 if q <= 5 else 2 if q < 10 else 1
    full = _dense(F, n, 3, rng) + MultiPoly.from_terms(F, n, [((3,) + (0,) * (n - 1), F.one)])
    polys = [
        full,
        leading_form(full),
        MultiPoly.constant(F, n, c),
        MultiPoly.from_terms(F, n, [((2,) + (0,) * (n - 1), c), ((1,) * n, F.one)]),
        MultiPoly.from_terms(F, n, [((q + 3,) + (0,) * (n - 1), F.one), ((0,) * n, c)]),
    ]
    if n > 1:  # the homogenization; every monomial of degree <= 2 in x_1 .. x_{n-1}, and one of them
        polys.append(homogenize(full))
        polys.append(
            MultiPoly.from_terms(
                F, n, [(e + (0,), F.one) for e in product(range(3), repeat=n - 1) if sum(e) <= 2]
            )
        )
        polys.append(MultiPoly.from_terms(F, n, [((1,) + (0,) * (n - 1), c)]))
    for f in polys:
        m = f.nvars
        cols = counting._coordinates(np.arange(q**m), q, m)
        want = [f.evaluate(pt) for pt in zip(*cols.tolist())]
        for s in range(m + 1):
            for log in (False, True):
                assert split_values(f, T, s, log).tolist() == want, (f, s, log)


def _grid_systems():
    """For every q <= 5 and n <= 6: a system that is walked over the grid,
    its leading system, and for n <= 5 its homogenization in n + 1
    variables (both homogeneous, so counted on the cone, except over F_2)."""
    out = []
    for F in (F2, F3, F4, build_field(5, 1)):
        for n in range(1, 7):
            system = random_system(F, n, (2, 1) if n > 1 else (2,), 3 * n + F.q)
            out += [system, system.leading_system()]
            if n < 6:
                out.append(system.homogenized_system())
    return out


def test_one_block_trie_passes_match_oracle(monkeypatch):
    # every pass here fits one block.  Each system by the split the rule
    # picks, then with the rule's points bound at 0 (a split s >= 1): its
    # count and its zero set's length are the oracle's count
    systems = _grid_systems()
    assert {(sy.field.q, sy.nvars) for sy in systems} == {(q, n) for q in (2, 3, 4, 5) for n in range(1, 7)}
    assert any(counting._on_cone(sy) for sy in systems)
    blocks, real_step = [], counting._step

    def recorded(*args, **kwargs):
        out = list(real_step(*args, **kwargs))
        blocks.append(len(out))
        return iter(out)

    monkeypatch.setattr(counting, "_step", recorded)
    split = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(counting, "GEMM_POINTS", 0)
        for system in systems:
            cone = counting._on_cone(system)
            want = oracle_count(system)
            blocks.clear()
            assert walked(fast_count, system) == want
            assert len(walked(zero_points, system)) == want
            assert blocks == [1, 1]
            if counting._pass(system, cone)[2]:
                split.append((forced, cone))
    # by the rule only the grid of F_5^6 (15,625 points) takes a split
    assert split.count((False, False)) == 1 and split.count((True, True)) > 10 and len(split) == len(systems) + 1


# -- the log-domain sum ------------------------------------------------------------------


def _log_cases(F):
    """Polynomials of long monomials (x1^9, x1^4*x2^3, x1^2*x2^2*x3^3),
    terms that share their prefix or grid monomials (x1, x1*x2, x1*x2*x3
    with their extensions), 1, 2, 3 and 5 terms (the Zech tree's shapes),
    a constant alone, one variable, and half of the monomials of degree 1
    and 2 in x1, x2."""
    c, one = F.generator or F.from_int(F.p - 1) or F.one, F.one
    deep = [((4, 3, 0), c), ((9, 0, 0), one), ((2, 2, 3), one), ((0, 0, 7), c)]
    interior = [((1, 0, 0), c), ((1, 1, 0), one), ((1, 1, 1), c), ((2, 1, 1), one), ((1, 1, 2), one)]
    polys = [MultiPoly.from_terms(F, 3, terms) for terms in (deep, interior)]
    for count in (1, 2, 3, 5):
        polys.append(MultiPoly.from_terms(F, 3, (deep + interior)[:count]))
    polys.append(MultiPoly.from_terms(F, 3, deep + interior + [((0, 0, 0), c)]))
    polys.append(MultiPoly.constant(F, 3, c))
    polys.append(MultiPoly.from_terms(F, 1, [((9,), c), ((3,), one), ((0,), one)]))
    polys.append(MultiPoly.from_terms(F, 1, [((1,), one)]))
    polys.append(MultiPoly.from_terms(F, 3, [((1, 0, 0), c), ((0, 1, 0), one), ((1, 1, 0), c)]))
    return polys


@pytest.mark.parametrize(
    "p, k", [(2, 1), (5, 1), (2, 3), (3, 2), (3, 3), (2, 13), (3, 8), (8209, 1), (2, 17), (3, 11)]
)
def test_trie_evaluator_matches_pointwise_evaluate(p, k):
    # the log-domain sum over every kind of field: p = 2 (XOR), an odd prime
    # (a sum mod p), odd-p extensions (the Zech tree), the last fields whose
    # log sums are int16 (F_2^13, F_3^8: a zero coefficient's log plus a
    # zero value's is 2Z = 32,762 and 26,238) and the first past them
    # (F_8209, int32), and q past 2^16; at points with many zero
    # coordinates, with no grid variable and with the last variable as the
    # grid (K B summed over the grid monomials, then V over the prefix
    # ones) at the sampled values of the last coordinate
    F = build_field(p, k)
    T, q = F.tables, F.q
    rng = np.random.default_rng(q)
    for f in _log_cases(F):
        n = f.nvars
        cols = np.where(rng.random((n, 300)) < 0.3, 0, rng.integers(0, q, (n, 300)))
        want = [f.evaluate(pt) for pt in zip(*cols.tolist())]
        assert evaluate_columns(f, cols, T, log=True).tolist() == want, f
        last, at = np.unique(cols[-1], return_inverse=True)
        got = np.empty((300, len(last)), dtype=np.int64)
        for xs, ys, V in counting._step(T, [f], (n - 1,), T.log.take(last)[None], T.log.take(cols[:-1]), True):
            got[xs, ys] = V[0]
        assert got[np.arange(300), at].tolist() == want, f


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (3, 2), (5, 2), (3, 11)])
def test_total_reduces_groups_of_rows(p, k):
    # the reduction of stacks of log sums of 1, 2, 3 and 5 rows (the Zech
    # tree's shapes, odd ones included), each a coefficient's log plus a
    # monomial value's, as the counting step sums them, with zero
    # coefficients and zero values among them, against the scalar sums
    F = build_field(p, k)
    T, q = F.tables, F.q
    rng = np.random.default_rng(q)
    sizes = (1, 2, 3, 5)
    c = np.where(rng.random(11) < 0.2, 0, rng.integers(0, q, 11))
    m = np.where(rng.random((11, 200)) < 0.2, 0, rng.integers(0, q, (11, 200)))
    stack = T.log[c][:, None] + T.log[m]  # the log sums of 11 terms c*m
    want, row = [], 0
    for size in sizes:
        acc = [0] * 200
        for r in range(row, row + size):
            acc = [F.add(x, F.mul(int(c[r]), v)) for x, v in zip(acc, m[r].tolist())]
        want.append(acc)
        row += size
    for size, start in zip(sizes, (0, 1, 3, 6)):
        assert T.total(stack[start : start + size].copy()).tolist() == [want[sizes.index(size)]]


def test_kernel_memory_is_bounded():
    # one fast_count of two random quintics over F_9 in 5 variables (227
    # and 233 terms), with an empty walk memo: the evaluator's slices keep
    # the kernel's working memory within 4 MB
    system = random_system(build_field(3, 2), 5, (5, 5), 7)
    assert sorted(len(f.terms) for f in system.polys) == [227, 233]
    want = fast_count(system)  # the field's tables, the grid and the plans, built once
    counting.WALKS.clear()
    tracemalloc.start()
    try:
        assert fast_count(system) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 10**6


def test_exponents_past_q_are_lowered_before_the_kernel():
    # x^e equals x^((e - 1) % (q - 1) + 1) on F_q, so the kernel counts a
    # polynomial of total degree past n(q - 1) on its lowered form, of words
    # of at most n(q - 1) letters (a word of length 10^6 once took seconds
    # and hundreds of MB to plan, found by the input fuzzer); a sum that
    # cancels on F_q (x^5 - x over F_3) vanishes everywhere.  By both steps,
    # against the oracle
    F5, F9 = build_field(5, 1), build_field(3, 2)
    names = ["x1", "x2", "x3", "x4"]
    cases = [
        PolySystem([parse_poly("x1^2 + x2^2 - x3*x4", F5, names), parse_poly("x2^1048573 + 1", F5, names)]),
        PolySystem([parse_poly("x3^1000001 + x1*x2 + 1", F3, names[:3])]),
        PolySystem([parse_poly("x1^9 - x1 + x2^17*x3", F9, names[:3]), parse_poly("x3^10000 - x2", F9, names[:3])]),
        PolySystem([parse_poly("x1^5 - x1", F3, names[:1])]),
        PolySystem([parse_poly("x1^5 - x1", F3, names[:2]), parse_poly("x2^7 + x1 + 2", F3, names[:2])]),
    ]
    lowered = counting._as_function(cases[0].polys[1])
    assert lowered.terms == {(0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    assert counting._as_function(cases[0].polys[0]) is cases[0].polys[0]
    within = parse_poly("x1^3 - x1", F3, names[:2])  # total degree 3 <= n(q - 1) = 4: kept as it is
    assert counting._as_function(within) is within
    assert counting._as_function(cases[3].polys[0]).terms == {(0,): 0}
    assert counting._as_function(cases[4].polys[1]).terms == {(0, 1): 1, (1, 0): 1, (0, 0): 2}
    for system in cases:
        want = oracle_count(system)
        assert walked(fast_count, system) == want
        steps = _steps(system, False)
        assert len({tuple(idx.tolist()) for idx in steps.values()}) == 1 and len(steps[0, False]) == want
    assert oracle_count(cases[3]) == 3


# -- the splits of a pass: s = 0 against every s >= 1 --------------------------------

# q -> (n of a grid pass, n of a cone pass), each pass within GEMM_POINTS
STEP_SHAPES = {2: (5, 5), 3: (4, 5), 4: (3, 3), 5: (3, 4), 7: (2, 3), 8: (2, 3), 9: (2, 3)}


def _sparse(F, n, seed):
    """A polynomial of three to five terms with nonzero seeded coefficients,
    each term x_i^e with e in {1, 2, q, q + 1} or x_i * x_j."""
    rng = Random(seed)
    terms = {}
    size = rng.randrange(3, 6)
    while len(terms) < size:
        exps = [0] * n
        if rng.random() < 0.5 and n > 1:
            for i in rng.sample(range(n), 2):
                exps[i] = 1
        else:
            exps[rng.randrange(n)] = rng.choice((1, 2, F.q, F.q + 1))
        terms[tuple(exps)] = rng.randrange(1, F.q)
    return MultiPoly(F, n, terms)


def _step_systems(q: int, cone: bool) -> list:
    """For each r in 1..3: a dense seeded system, a sparse one with exponents
    at least q, and one with a nonzero constant polynomial; homogeneous ones
    (forms) for a cone pass."""
    F = {8: build_field(2, 3), 9: build_field(3, 2), 4: F4}.get(q) or build_field(q, 1)
    n = STEP_SHAPES[q][cone]
    out = []
    for r in (1, 2, 3):
        degrees = (2, 3, 1)[:r] if q ** n <= 64 else (2, 1, 1)[:r]
        dense = random_system(F, n, degrees, 7 * q + r)
        sparse = [_sparse(F, n, 100 * q + 10 * r + i) for i in range(r)]
        if cone:
            dense = dense.leading_system()
            sparse = [_form(f) for f in sparse]
        const = MultiPoly.constant(F, n, F.one)
        out += [dense, PolySystem(sparse), PolySystem(sparse[: r - 1] + [const])]
    return out


def _form(f):
    """f's terms of its largest total degree: a form."""
    d = max(map(sum, f.terms))
    return MultiPoly(f.field, f.nvars, {e: c for e, c in f.terms.items() if sum(e) == d})


def _steps(system, cone):
    """The zero indexes of one pass at every split, called directly past
    the rule: s = 0 (one product on M') and each s >= 1 by both sums."""
    T, n = system.field.tables, system.nvars
    polys = [counting._as_function(f) for f in system.polys]
    lengths = counting._lengths(polys)
    return {
        (s, log): np.concatenate(list(counting._zero_chunks(T, n, polys, lengths, cone, s, log)))
        for s in range(n + 1)
        for log in ((False,) if s == 0 else (False, True))
    }


def _weighted(idx, q, s, cone):
    """The count a pass of split s gives from its zeros: on the cone 1 at
    suffix 0 (indexes divisible by q^s; at s = 0 prefix 0, indexes below q)
    and q - 1 elsewhere."""
    if not cone:
        return len(idx)
    axis = int(np.count_nonzero(idx % q**s == 0 if s else idx < q))
    return axis + (q - 1) * (len(idx) - axis)


def _pass_shape(system, cone):
    """(points, |W|, p, k) of a pass, as the rule's s = 0 bounds read them."""
    F, n = system.field, system.nvars
    points = F.q * counting._prefix_count(F.q, n - 1, cone)
    words = sum(math.comb(n + l - 1, l) for l in counting._lengths(system.polys))
    return points, words, F.p, F.k


def _takes_gemm(points, words, p, k):
    """Whether the rule takes s = 0 for a pass of one polynomial of this shape."""
    return counting._rule(p, k, [(0, (1, words, 1, points, 1)), (1, (1, 1, 1, 1, 1))])[0] == 0


def _check_splits(system, cone):
    """Every split of the system's pass against s = 0 and the oracle: on the
    grid the same ascending zeros, on the cone (whose suffixes at s are over
    s variables) the same weighted count.  Returns the s = 0 zeros."""
    q, want = system.field.q, oracle_count(system)
    steps = _steps(system, cone)
    gemm = steps[0, False]
    assert (np.diff(gemm) > 0).all()
    for (s, log), idx in steps.items():
        assert _weighted(idx, q, s, cone) == want, (system, s, log)
        if not cone:
            assert idx.tolist() == gemm.tolist(), (system, s, log)
    return gemm


@pytest.mark.parametrize("q", sorted(STEP_SHAPES))
@pytest.mark.parametrize("cone", [False, True])
def test_gemm_step_matches_trie_step_and_oracle(q, cone):
    # each pass within the GEMM bounds at s = 0, the step the rule picks,
    # and at every split s >= 1 by both sums
    for system in _step_systems(q, cone):
        assert counting._pass(system, cone)[2:] == (0, False), system
        gemm = _check_splits(system, cone)
        if not cone:
            # a listed walk: the same ascending indexes as the points that vanish
            filtered = [pt for pt in product(range(q), repeat=system.nvars) if vanishes(system, pt)]
            listed = counting._coordinates(gemm, q, system.nvars).T.tolist()
            assert walked(zero_set, system) == filtered == list(map(tuple, listed))
        assert walked(fast_count, system) == oracle_count(system)


def _one_variable(F, exponents):
    """sum_e (1 + 7e) x^e over F in one variable, a word for each e."""
    return PolySystem([MultiPoly(F, 1, {(e,): (1 + 7 * e) % F.p or 1 for e in exponents})])


def _spied_steps(monkeypatch):
    """The split s of each pass the kernel walks, as a list."""
    calls, real = [], counting._zero_chunks

    def spy(T, n, polys, lengths, cone, s, log):
        calls.append(s)
        return real(T, n, polys, lengths, cone, s, log)

    monkeypatch.setattr(counting, "_zero_chunks", spy)
    return calls


def test_step_rule_at_its_bounds(monkeypatch):
    # passes on both sides of each GEMM bound of the rule, over a prime
    # field, an F_{2^k} and an odd-p extension field, counted by the split
    # the rule picks against the oracle, and within the bounds at every
    # split.  The exactness bound binds over prime fields alone: for k >= 2,
    # k|W|(p - 1)^2 < k|W| points <= GEMM_ENTRIES / k, and for p = 2,
    # k|W| <= GEMM_ENTRIES
    calls = _spied_steps(monkeypatch)
    most, entries = counting.GEMM_POINTS, counting.GEMM_ENTRIES
    assert _takes_gemm(most, 1, 2, 1) and not _takes_gemm(most + 1, 1, 2, 1)
    names, F1024, F61_2 = [f"x{i + 1}" for i in range(7)], build_field(2, 10), build_field(61, 2)
    cases = {
        # points: F_4093 in one variable (4093 points, one word) and F_4099
        # (4099); F_4^6 (4096 points) and the cone of F_4^7 (5464); F_{61^2}
        # in one variable (3721 points) and F_{17^3} (4913)
        "points, prime": (_one_variable(build_field(4093, 1), [2]), (4093, 1, 4093, 1), True),
        "points past, prime": (_one_variable(build_field(4099, 1), [2]), (4099, 1, 4099, 1), False),
        "points, F_4": (PolySystem([parse_poly("x1^2 + g*x6", F4, names[:6])]), (4096, 27, 2, 2), True),
        "points past, F_4": (PolySystem([parse_poly(" + ".join(names), F4, names)]), (5464, 7, 2, 2), False),
        "points, F_61^2": (_one_variable(F61_2, range(13)), (3721, 13, 61, 2), True),
        "points past, F_17^3": (_one_variable(build_field(17, 3), [2]), (4913, 1, 17, 3), False),
        # entries, k^2 |W| points: the grid of F_3^7 (2187 points) with
        # lengths 0, 2 and 4 (239 words) and with 1 too (246); F_1024 in one
        # variable with 5 words and with 6; F_{61^2} with 35 words and 36
        "entries, prime": (PolySystem([parse_poly("x1^2*x2^2 + x3^2 + 1", F3, names)]), (2187, 239, 3, 1), True),
        "entries past, prime": (PolySystem([parse_poly("x1^2*x2^2 + x3^2 + x4 + 1", F3, names)]), (2187, 246, 3, 1), False),
        "entries, F_1024": (_one_variable(F1024, range(5)), (1024, 5, 2, 10), True),
        "entries past, F_1024": (_one_variable(F1024, range(6)), (1024, 6, 2, 10), False),
        "entries, F_61^2": (_one_variable(F61_2, range(35)), (3721, 35, 61, 2), True),
        "entries past, F_61^2": (_one_variable(F61_2, range(36)), (3721, 36, 61, 2), False),
        # exactness, k|W|(p - 1)^2: F_257 in one variable with 255 words
        # (16,711,680) and with 256 (2^24)
        "exact, prime": (_one_variable(build_field(257, 1), range(255)), (257, 255, 257, 1), True),
        "exact past, prime": (_one_variable(build_field(257, 1), range(256)), (257, 256, 257, 1), False),
    }
    for name, (system, shape, gemm) in cases.items():
        points, words, p, k = shape
        cone = counting._on_cone(system)
        assert _pass_shape(system, cone) == shape, name
        assert _takes_gemm(*shape) == gemm == (points <= most and k * k * words * points <= entries and k * words * (p - 1) ** 2 < FLOAT32_EXACT), name
        calls.clear()
        assert walked(fast_count, system) == oracle_count(system), name
        assert len(calls) == 1 and (calls[0] == 0) == gemm, name
        if gemm:
            _check_splits(system, cone)
    assert 4 * 35 * 3721 <= entries < 4 * 36 * 3721 and 100 * 5 * 1024 <= entries < 100 * 6 * 1024
    assert 239 * 2187 <= entries < 246 * 2187 and 255 * 256**2 < FLOAT32_EXACT <= 256 * 256**2


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_corpus_pass_shapes_by_both_steps_match_oracle(q, monkeypatch):
    # every (q, n, grid or cone, term lengths) pass shape that `corpus-sweep`
    # reaches: the grids of the corpus systems, and the passes of fast_count
    # on them and on their leading and homogenized systems (n <= 6), found
    # among the first 3,000 corpus systems at seed 0, which draw every
    # corpus shape.  Each takes s = 0 by the rule, and one system of each is
    # counted at every split, called directly past the rule, to the same
    # zeros, and by the oracle to the same count
    calls = _spied_steps(monkeypatch)
    shapes = {}
    for i in range(3000):
        system = corpus_system(0, i)
        if system.field.q != q:
            continue
        passes = [(system, False)] + [(sy, counting._on_cone(sy)) for sy in (system, system.leading_system(), system.homogenized_system())]
        for sy, cone in passes:
            shapes.setdefault((sy.nvars, cone, counting._lengths(sy.polys)), (sy, cone))
    assert {n for n, _, _ in shapes} == set(range(2, 7)) and len(shapes) > 20
    for (n, cone, lengths), (system, _) in sorted(shapes.items()):
        assert counting._pass(system, cone)[2] == 0, (n, cone, lengths)
        _check_splits(system, cone)
        calls.clear()
        want = oracle_count(system)
        assert (walked(fast_count, system) if cone else len(walked(zero_points, system))) == want
        assert calls == [0]


def test_product_atkb_exact_at_the_largest_shape_the_rule_admits():
    # the product A^T (K B) has partial sums of at most |α|k(p - 1)^2.  At
    # s = 0 (|α| = |W|, K B = K) the rule keeps them below FLOAT32_EXACT =
    # 2^24 for every field it can meet (q <= points); the largest it admits
    # is 12,945 * 36^2 at F_37 in one variable with 12,945 words, and over an
    # extension field 2 * 35 * 60^2 at F_{61^2} in one variable with 35
    # words.  At s >= 1 it keeps them below FLOAT64_EXACT = 2^53: the largest
    # is 8,192 prefix monomials over F_1048573, the largest prime field, with
    # 8,192 * 1048572^2 = 2^53 - 2^36 + 2^17 (8,193 take the log-domain sum)
    from cwlab.fields import is_prime

    worst = {}
    for q in range(2, counting.GEMM_POINTS + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = round(math.log(q, p))
        if not is_prime(p) or p**k != q:
            continue
        for points in range(q, counting.GEMM_POINTS + 1, q):
            words = min(counting.GEMM_ENTRIES // (k * k * points), -(-FLOAT32_EXACT // (k * (p - 1) ** 2)) - 1)
            assert not _takes_gemm(points, words + 1, p, k)
            if words:
                assert _takes_gemm(points, words, p, k)
                assert k * words * (p - 1) ** 2 < FLOAT32_EXACT
                worst[k > 1] = max(worst.get(k > 1, (0, None)), (k * words * (p - 1) ** 2, (p, k, words)))
    assert worst == {False: (12945 * 36**2, (37, 1, 12945)), True: (2 * 35 * 60**2, (61, 2, 35))}
    for system in (_one_variable(build_field(257, 1), range(255)), _one_variable(build_field(61, 2), range(35))):
        F, (f,) = system.field, system.polys
        assert counting._pass(system, False)[2] == 0
        assert _check_splits(system, False).tolist() == [x for x in range(F.q) if f.evaluate((x,)) == 0]
    # at s = 0 the product takes float32 within the bound and float64 past
    # it, exact either way: at p = 251, 268 words keep k|W|(p - 1)^2 below
    # 2^24 and 269 do not; every coefficient but the constant is p - 1, so
    # the partial sums come near it, and the constant makes 1 a zero
    F = build_field(251, 1)
    logs = lambda: F.tables.log.take(np.arange(251)[None])
    for words, dtype in ((268, np.int32), (269, np.intp)):
        blocks, rows = counting._monomials(F.tables, 1, False, tuple(range(words)), logs)
        assert len(rows) == len(blocks) == words and {b.shape for b in blocks} == {(1, 251)}
        C = np.full((1, words), 250, dtype=np.uint8)
        assert F.tables.product(C, blocks, words * 250**2).dtype == dtype
        f = MultiPoly(F, 1, {(l,): 250 if l else (words - 1) % 251 for l in range(words)})
        ((_, _, V),) = counting._step(F.tables, [f], (), np.zeros((0, 1), dtype=np.int16), None, words=(blocks, rows))
        zeros = counting._zero_mask(V)[:, 0]
        assert np.flatnonzero(zeros).tolist() == [x for x in range(251) if f.evaluate((x,)) == 0], words
    # at s >= 1: f = sum_{e < 8192} (p - 1) x1^e x2 over F_1048573, x2 the
    # grid: K B = (p - 1) x2 is p - 1 at x2 = 1, and x1 = p - 1 makes half
    # of the products (p - 1)^2, so the partial sums pass 2^52
    p = 1048573
    assert 8192 * (p - 1) ** 2 < FLOAT64_EXACT <= 8193 * (p - 1) ** 2
    for a in (8192, 8193):
        assert counting._rule(p, 1, [(1, (1, a, 1, 4, 2))]) == (1, a > 8192)
    F = build_field(p, 1)
    T = F.tables
    f = MultiPoly(F, 2, {(e, 1): p - 1 for e in range(8192)})
    xs, ys = [0, 1, 2, p - 1], [1, p - 1]
    blocks = list(counting._step(T, [f], (1,), T.log.take(np.array([ys])), T.log.take(np.array([xs]))))
    got = np.concatenate([V[0] for _, _, V in blocks])
    assert got.tolist() == [[f.evaluate((x, y)) for y in ys] for x in xs]


def test_product_kb_exact_at_the_largest_shape_the_rule_admits():
    # the digit product K B has partial sums of at most |β|k(p - 1)^2; the
    # rule admits it while they stay below FLOAT64_EXACT = 2^53, so the
    # largest is |β| = 8,192 grid monomials over F_1048573 (8,193 take the
    # log-domain sum).  f = sum_{e < 8192} (p - 1) x2^e, x2 the grid, at
    # x1 = 0 and x2 in {0, 1, 2, p - 1}: at x2 = p - 1 half of the products
    # are (p - 1)^2, so the partial sums pass 2^52
    p = 1048573
    for b in (8192, 8193):
        assert counting._rule(p, 1, [(1, (1, 1, b, 1, 4))]) == (1, b > 8192)
    F = build_field(p, 1)
    T = F.tables
    f = MultiPoly(F, 2, {(0, e): p - 1 for e in range(8192)})
    ys = [0, 1, 2, p - 1]
    ((_, _, V),) = counting._step(T, [f], (1,), T.log.take(np.array([ys])), T.log.take(np.zeros((1, 1), dtype=np.intp)))
    assert V[0, 0].tolist() == [f.evaluate((0, y)) for y in ys]
