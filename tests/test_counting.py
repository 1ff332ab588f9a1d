"""Counting engines: reference oracle, fast path, regions, extensions."""

import json
from itertools import combinations, product

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
from cwlab.errors import BudgetExceeded
from cwlab.fields import build_field
from cwlab.polynomials import MultiPoly, PolySystem, parse_poly
from cwlab.subspaces import AffineSubspace

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)

HYP = PolySystem([parse_poly("x1*x2 + x3*x4", F2, ["x1", "x2", "x3", "x4"])])


def walked(call, *args, **kwargs):
    """call(*args, **kwargs) from an empty walk memo, so that it makes its
    own kernel pass instead of reading an earlier call's walk."""
    counting._walks.clear()
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
        direct = sum(1 for pt in L.points() if system.vanishes_at(pt))
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


def test_parallel_class_counts():
    L = AffineSubspace(F2, (0, 0, 0, 0), [(1, 0, 0, 0), (0, 1, 0, 0)])
    pairs = counts_over_parallel_class(HYP, L)
    counts = [c for _, c in pairs]
    assert counts == [3, 3, 3, 1]
    assert sum(counts) == count_zeros(HYP).count
    full = AffineSubspace.full_space(F2, 4)
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


def test_zero_set_matches_count_and_order():
    pts = zero_set(HYP)
    assert len(pts) == 10
    assert pts == sorted(pts)  # odometer order is lexicographic on tuples
    assert all(HYP.vanishes_at(pt) for pt in pts)


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
    # a small chunk makes every system span many chunks, and chunk edges
    # fall inside runs of zeros
    if chunk:
        monkeypatch.setattr(counting, "CHUNK", chunk)
    assert {sy.field.q for sy in KERNEL_SYSTEMS} == {7, 8, 9, 16, 25, 27}
    for system in KERNEL_SYSTEMS:
        q, n = system.field.q, system.nvars
        filtered = [pt for pt in product(range(q), repeat=n) if system.vanishes_at(pt)]
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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_coset_ids_match_per_point_offsets(p, k):
    # each point's coset number is the place, in parallel_class order, of
    # the offset of the subspace through it; for every dimension m from 0
    # (every point its own coset) to n (one coset, number 0), batches of
    # one space and of three
    from cwlab.counting import basis_entries, coset_ids, point_digits
    from cwlab.rng import SplitMix64

    F = build_field(p, k)
    q = F.q
    n = 3 if q <= 9 else 2
    rng = SplitMix64(q)
    Z = np.array([[rng.below(q) for _ in range(n)] for _ in range(30)])
    for m in range(n + 1):
        for pivots in combinations(range(n), m):
            for B in (1, 3):
                spaces = []
                for _ in range(B):
                    rows = [[0] * n for _ in pivots]
                    for row, piv in zip(rows, pivots):
                        row[piv] = F.one
                        for j in range(piv + 1, n):
                            if j not in pivots:
                                row[j] = rng.below(q)
                    spaces.append(rows)
                entries = np.stack([basis_entries(rows, n)[1] for rows in spaces])
                ids = coset_ids(point_digits(Z, F), pivots, entries, F)
                assert ids.shape == (B, len(Z))
                for rows, got in zip(spaces, ids.tolist()):
                    members = AffineSubspace(F, (0,) * n, rows).parallel_class()
                    place = {L.offset: i for i, L in enumerate(members)}
                    assert got == [place[AffineSubspace(F, pt, rows).offset] for pt in Z.tolist()]
                if m == n:
                    assert not ids.any()


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
    # 5 is below every q here, so a chunk is one prefix; with 110 the
    # prefixes per chunk never divide the q^(n-1) prefixes of an n > 1 system
    from cwlab.subspaces import direction_spaces

    if chunk:
        monkeypatch.setattr(counting, "CHUNK", chunk)
    assert {sy.field.q for sy in EDGE_SYSTEMS} == {7, 8, 9, 16, 25, 27}
    for system in EDGE_SYSTEMS:
        F, n = system.field, system.nvars
        q = F.q
        if chunk == 110 and n > 1:
            assert q ** (n - 1) % (chunk // q)
        filtered = [pt for pt in product(range(q), repeat=n) if system.vanishes_at(pt)]
        assert walked(zero_set, system) == filtered
        assert walked(fast_count, system) == len(filtered) == oracle_count(system)
        spaces = list(direction_spaces(F, n, 1))
        for rows in (spaces[0], spaces[-1]):
            L = AffineSubspace(F, (0,) * n, rows)
            assert walked(counts_over_parallel_class, system, L) == counts_over_parallel_class(
                system, L, engine="oracle"
            )


def test_point_subspaces_match_oracle():
    # a point restricts a system to nonzero constants in no variables, or
    # to nothing when every polynomial vanishes there
    with_zeros = 0
    for system in (HYP, *EDGE_SYSTEMS[:12]):
        F, n = system.field, system.nvars
        zeros = zero_set(system)
        other = next(pt for pt in product(range(F.q), repeat=n) if not system.vanishes_at(pt))
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
    # with CHUNK = 20 a block holds 2 to 10 prefixes, so blocks straddle the
    # normalized prefix ranges [q^m, 2 q^m) and the gaps between them
    if chunk:
        monkeypatch.setattr(counting, "CHUNK", chunk)
    assert {sy.field.q for sy, _ in CONE_SYSTEMS} == {2, 3, 4, 5, 8, 9}
    assert {sy.nvars for sy, _ in CONE_SYSTEMS} == {1, 2, 3, 4}
    for system, plane in CONE_SYSTEMS:
        assert system.is_homogeneous
        fast = walked(count_zeros, system, plane)
        assert fast.count == count_zeros(system, plane, engine="oracle").count
        if plane is None:
            assert fast.count == walked(fast_count, system) == oracle_count(system)
            assert fast.count == len(walked(zero_set, system))


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
    """The five corpus-sweep calls, in the given order, as comparable values:
    each report's body, evidence and witness, and the parallel-class pairs."""
    from cwlab.laws import check_congruence, homogenization_identity, lower_bound_audit

    calls = {
        "chevalley": lambda: check_congruence(system, "chevalley"),
        "ax": lambda: check_congruence(system, "ax"),
        "identity": lambda: homogenization_identity(system),
        "audit": lambda: lower_bound_audit(system),
        "class": lambda: counts_over_parallel_class(system, L),
        "count": lambda: count_zeros(system),
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
        assert len(counting._walks) <= counting.WALK_MEMO
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

    monkeypatch.setattr(counting, "WALK_MEMO", cap)
    monkeypatch.setattr(counting, "MEMO_ZEROS", zeros)
    names = ["chevalley", "ax", "identity", "audit", "class", "count"]
    rng = SplitMix64(cap)
    for system in _memo_systems():
        F, n = system.field, system.nvars
        rows, _ = rref(F, [[rng.below(F.q) for _ in range(n)] for _ in range(min(n, system.total_degree))])
        L = AffineSubspace(F, (0,) * n, rows)
        fresh = {}
        for name in names:
            counting._walks.clear()
            fresh.update(_sweep_verdicts(system, L, [name]))
        counting._walks.clear()
        assert _sweep_verdicts(system, L, names) == fresh
        assert _sweep_verdicts(system, L, names[::-1]) == fresh
        copy = PolySystem(list(system.polys))
        assert _sweep_verdicts(copy, L, names[::-1]) == fresh
        assert _sweep_verdicts(copy, L, names) == fresh
        assert len(counting._walks) <= cap
        assert all(w.idx is None or len(w.idx) <= zeros for w in counting._walks.values())


def test_walk_memo_budget_and_cone_count():
    from cwlab.laws import check_congruence, lower_bound_audit

    for system in _memo_systems():
        q, n = system.field.q, system.nvars
        L = AffineSubspace.full_space(system.field, n)
        N = fast_count(system)
        assert len(zero_points(system)) == N == fast_count(system)
        assert id(system) in counting._walks
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
        assert len(counting._walks) <= counting.WALK_MEMO
    # a homogeneous system's cone count, remembered, equals the listed zeros
    homogeneous = [PolySystem([norm_form(F, 2)]) for F in (F3, F4, build_field(5, 1))]
    homogeneous += [s.leading_system() for s in _memo_systems()]
    for system in homogeneous:
        counting._walks.clear()
        N = fast_count(system)
        assert (counting._walks[id(system)].idx is None) == counting._on_cone(system)
        assert len(zero_points(system)) == N == fast_count(system) == oracle_count(system)
        assert counting._walks[id(system)].count == N
        counting._walks.clear()
        assert len(zero_points(system)) == fast_count(system) == N


def test_walk_memo_never_reads_a_dropped_systems_walk():
    # systems made and dropped one after another often reuse an address, so
    # an id alone could name a new system; each entry holds its system, so
    # the id stays taken while the entry lives
    def fresh(i):
        counting._walks.clear()
        system = corpus_system(13, i)
        return fast_count(system), zero_points(system).tolist()

    want = [fresh(i) for i in range(80)]
    counting._walks.clear()
    got = [fast_count(corpus_system(13, i)) for i in range(80)]
    assert got == [N for N, _ in want]
    got = [zero_points(corpus_system(13, i)).tolist() for i in range(80)]
    assert got == [Z for _, Z in want]


def _dense(F, n, degree, rng):
    """Every monomial of degree <= degree in n variables, with random
    coefficients that are often zero or one."""
    terms = []
    for exps in product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            c = rng.choice([0, F.one, int(rng.integers(F.q))])
            terms.append((exps, int(c)))
    return MultiPoly.from_terms(F, n, terms)


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 11), (3, 7), (7, 4)])
def test_evaluate_columns_matches_pointwise_evaluate(p, k):
    # every point of F^n (n = 3 for the small fields, 1 past the dense
    # cap), then a sample of F^4 with many zero coordinates; constant-only
    # polynomials, coefficient one, and words past the fold depth and past
    # q (x^(q+3)) exercise the sentinel and the fold
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
        assert counting.evaluate_columns(f, cols, T).tolist() == [f.evaluate(pt) for pt in points], f


@pytest.mark.parametrize("p, k", [(2, 11), (3, 7), (7, 4)])
def test_kernel_counts_past_the_dense_cap(p, k):
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
    assert counting.evaluate_columns(g, cols, F.tables).tolist() == [g.evaluate((int(v),)) for v in cols[0]]
    if p < 1 << 17:
        assert walked(fast_count, PolySystem([g])) == sum(g.evaluate((v,)) == 0 for v in range(p))
