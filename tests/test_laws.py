"""Congruence checkers, bound audits, covering bound, saturation laws."""

import json
from collections import Counter
from itertools import combinations, permutations
from random import Random

import numpy as np
import pytest

from cwlab import counting, laws
from cwlab.constructions import corpus_system, embed_in_more_variables, norm_form
from cwlab.counting import basis_entries, coset_matrix, point_digits, zero_digits, zero_points, zero_set
from cwlab.errors import BudgetExceeded, CwlabError, FullSpace, InvalidArgument, WrongFieldSize
from cwlab.fields import build_field
from cwlab.laws import (
    BATCH,
    CheckScope,
    LawReport,
    check_congruence,
    covering_bound_report,
    covering_trial,
    homogenization_identity,
    lower_bound_audit,
    saturated_set_check,
    saturated_set_exhaustive,
)
from cwlab.polynomials import PolySystem, parse_poly
from cwlab.rng import SplitMix64, derive_seed
from cwlab.subspaces import AffineSubspace, PointSet, affine_span, direction_spaces, gaussian_binomial, rref
from test_subspaces import superspaces
from references import contains, full_space

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)

HYP = PolySystem([parse_poly("x1*x2 + x3*x4", F2, ["x1", "x2", "x3", "x4"])])


def test_ax_example():
    rep = check_congruence(HYP, "ax")
    assert rep.applicable and rep.passed
    assert rep.evidence == {"count": 10, "modulus": 2, "residue": 0}


def test_chevalley_gate():
    prod = PolySystem([parse_poly("x1*x2", F3, ["x1", "x2"])])
    rep = check_congruence(prod, "chevalley")
    assert not rep.applicable and rep.passed
    assert "n > d" in rep.evidence["reason"]


def test_parallel_subspace_law_and_alias():
    rep = check_congruence(HYP, "theorem1")
    assert rep.law == "parallel-subspaces"
    assert rep.applicable and rep.passed
    assert rep.evidence["per_dim"] == {2: 35, 3: 15, 4: 1}


def test_unknown_law_is_an_input_error():
    with pytest.raises(InvalidArgument) as err:
        check_congruence(HYP, "theorem2")
    assert "'theorem2'" in str(err.value)
    assert all(name in str(err.value) for name in laws.LAW_ALIASES)


@pytest.mark.parametrize(
    "scope, words",
    [
        (CheckScope(budget=-5), "class budget"),
        (CheckScope(all_pairs=False, sample=-3), "at least 1"),
        (CheckScope(all_pairs=False, sample=0), "at least 1"),
        (CheckScope(sample=5), "all_pairs=False"),  # was swept as all_pairs, the sample ignored
    ],
)
def test_malformed_scope_is_an_input_error_before_the_walk(scope, words):
    # a negative budget once passed with 0 classes checked, a negative sample
    # checked none and reported no truncation, and a sample of 0 fell back to
    # the class budget
    system = PolySystem([parse_poly("x1*x2 + x3^2 + x4 + 1", F5, ["x1", "x2", "x3", "x4"])])
    for law in laws.LAW_ALIASES:
        with pytest.raises(InvalidArgument, match=words):
            check_congruence(system, law, scope)
    assert not counting.WALKS.kept  # rejected before the zero walk
    assert check_congruence(system, "theorem1", CheckScope(budget=0)).evidence["truncated"] is True


def test_warning_hyperplanes():
    rep = check_congruence(HYP, "warning-hyperplanes")
    assert rep.passed and rep.evidence["modulus"] == 2
    assert rep.evidence["classes_checked"] == 15


def test_congruence_detects_violations():
    # At exactly n = d the hyperplane congruence can genuinely fail
    # (x1*x2 + 1 over F_2 has line counts 0 and 1): a hyperplane has
    # dimension n - 1 < d there, so the law does not apply, and the sweep of
    # its classes, run past the gate, finds the violation.  A failed report
    # exits 2.
    system = PolySystem([parse_poly("x1*x2 + 1", F2, ["x1", "x2"])])  # n = d = 2, N = 1
    rep = check_congruence(system, "parallel-subspaces")
    assert rep.passed  # dims [d, n] = {2}: the single full-space class
    rep2 = check_congruence(system, "warning-hyperplanes")
    assert not rep2.applicable and rep2.passed and rep2.exit_code == 0
    assert rep2.evidence == {"reason": "requires n > d", "n": 2, "d": 2}
    witness = laws._sweep_classes(zero_digits(system), F2, [1], 2, CheckScope(), {})[3]
    assert witness is not None and sorted(witness["counts"]) == [0, 1]
    assert LawReport("warning-hyperplanes", True, False, {}, witness).exit_code == 2


def test_sampled_scope_runs():
    rep = check_congruence(
        HYP, "parallel-subspaces", CheckScope(all_pairs=False, sample=5, seed=1)
    )
    assert rep.passed and "sampled" in rep.evidence["mode"]


def test_dim_restricted_scope():
    rep = check_congruence(HYP, "theorem1", CheckScope(dim=2))
    assert rep.passed and rep.evidence["per_dim"] == {2: 35}
    below = check_congruence(HYP, "theorem1", CheckScope(dim=1))
    assert not below.applicable and below.passed


def test_homogenization_identity_examples():
    r1 = homogenization_identity(PolySystem([parse_poly("x1*x2 + 1", F2, ["x1", "x2"])]))
    assert r1.passed
    assert (r1.evidence["count"], r1.evidence["count_leading"], r1.evidence["count_homogenized"]) == (1, 3, 4)
    hom = PolySystem([parse_poly("x1^2 + x1*x2", F3, ["x1", "x2"])])
    r2 = homogenization_identity(hom)
    assert r2.passed
    assert r2.evidence["count_homogenized"] == 3 * r2.evidence["count"]
    r3 = homogenization_identity(PolySystem([parse_poly("x1", F3, ["x1", "x2"])]))
    assert r3.passed and r3.evidence["count_homogenized"] == 9


def test_lower_bound_audit_example():
    rep = lower_bound_audit(PolySystem([parse_poly("x1*x2", F5, ["x1", "x2", "x3"])]))
    assert rep.applicable and rep.passed
    assert rep.evidence["count"] == 45
    parts = rep.evidence["parts"]
    assert parts["strict"]["pass"] and parts["double"]["pass"] and parts["homogeneous_ratio"]["pass"]


def test_lower_bound_audit_norm_equality_case():
    f = embed_in_more_variables(norm_form(F3, 2), 3)
    rep = lower_bound_audit(PolySystem([f]))
    assert rep.passed
    assert rep.evidence["count"] == 3 == rep.evidence["floor"]
    assert rep.evidence["linear_subspace"]["verdict"] is True


def test_lower_bound_audit_gates():
    nonvanishing = PolySystem([parse_poly("x1^2 + x1 + 1", F2, ["x1", "x2", "x3"])])
    rep = lower_bound_audit(nonvanishing)
    assert not rep.applicable and rep.passed and "empty" in rep.evidence["reason"]
    equal_nd = PolySystem([parse_poly("x1*x2", F3, ["x1", "x2"])])
    rep2 = lower_bound_audit(equal_nd)
    assert not rep2.applicable and rep2.passed


def test_covering_bound_examples():
    Z = PointSet(F3, 2, AffineSubspace(F3, (0, 0), [(0, 1)]).points())
    rep = covering_bound_report(Z, AffineSubspace(F3, (0, 0)))
    assert rep.passed and rep.evidence["bound"] == 3 and rep.evidence["total"] == 3

    rep2 = covering_bound_report(PointSet(F3, 2, []), AffineSubspace(F3, (1, 1)))
    assert rep2.passed  # all counts zero

    Zfull = PointSet(F2, 2, full_space(F2, 2).points())
    rep3 = covering_bound_report(Zfull, AffineSubspace(F2, (0, 0)))
    assert rep3.passed
    assert rep3.evidence["k"] == 0 and rep3.evidence["bound"] == 4


def test_covering_bound_rejects_full_base():
    with pytest.raises(FullSpace):
        covering_bound_report(PointSet(F2, 2, []), full_space(F2, 2))


def test_covering_bound_random_point_sets():
    rng = SplitMix64(7)
    for _ in range(50):
        n = 1 + rng.below(3)
        pts = [pt for pt in full_space(F3, n).points() if rng.next_u64() & 1]
        Z = PointSet(F3, n, pts)
        L0 = AffineSubspace(F3, tuple(rng.below(3) for _ in range(n)))
        assert covering_bound_report(Z, L0).passed


def _trial_by_coins(F, n, rng):
    """A covering trial drawn one output at a time: a coin (the output's low
    bit) per point of A^n in odometer order, then L0's dimension, rows and
    offset, as `covering_trial` draws them."""
    pts = [pt for pt in full_space(F, n).points() if rng.next_u64() & 1]
    dim = rng.below(n)
    while True:
        rows, _ = rref(F, [[rng.below(F.q) for _ in range(n)] for _ in range(dim)])
        if len(rows) == dim:
            break
    return covering_bound_report(PointSet(F, n, pts), AffineSubspace(F, [rng.below(F.q) for _ in range(n)], rows))


def test_covering_trials_match_the_scalar_coins():
    # trial after trial from one stream, Z's coins drawn in one pass or one
    # output at a time
    for (p, k), n, trials in (((2, 1), 5, 6), ((3, 1), 3, 6), ((2, 2), 3, 4), ((5, 1), 2, 8)):
        F = build_field(p, k)
        vec, scalar = SplitMix64(p + n), SplitMix64(p + n)
        for _ in range(trials):
            assert covering_trial(F, n, vec).to_json() == _trial_by_coins(F, n, scalar).to_json()
        assert vec.next_u64() == scalar.next_u64()


def _reference_covering_report(Z, L0):
    """covering_bound_report point by point: every superspace of L is built
    (`superspaces`) and Z counted on it with `contains`."""
    F, n = Z.field, Z.ambient

    def count(L):
        return sum(1 for pt in Z.points if contains(L, pt))

    if L0.dim == n:
        raise FullSpace("the base subspace must be proper")
    base = count(L0)
    L = L0
    growth = [L0.dim]
    while L.dim < n:
        nxt = next((cand for cand in superspaces(L) if count(cand) == base), None)
        if nxt is None:
            break
        L = nxt
        growth.append(L.dim)
    k, q, total = L.dim, F.q, len(Z)
    evidence = {"base_count": base, "k": k, "growth": growth, "total": total, "n": n, "q": q}
    if k == n:
        evidence["note"] = "witness grew to the full space; bound reads |Z| >= |Z|"
        return LawReport("covering-bound", True, total >= base, evidence)
    supers = superspaces(L)
    cmin = min(count(Lp) for Lp in supers)
    classes = (q ** (n - k) - 1) // (q - 1)
    bound = base + classes * (cmin - base)
    evidence.update({"superspaces": len(supers), "expected_superspaces": classes,
                     "min_superspace_count": cmin, "bound": bound})
    passed = total >= bound and len(supers) == classes and cmin >= base
    return LawReport("covering-bound", True, passed, evidence, None if passed else {"bound": bound, "total": total})


def test_covering_bound_matches_the_point_by_point_reference():
    # random, sparse and dense sets, Z = L0, Z = empty, Z = A^n, and Z a
    # subspace through L0 (so L grows, often to the full space), plus a stray
    # point; a few points of A^3(F_4) tell the superspaces' order apart
    rng = Random(29)
    grown = 0
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        F = build_field(p, k)
        q = F.q
        for n in range(1, 5):
            if q**n > 300:
                break
            grid = [tuple(pt) for pt in counting._coordinates(np.arange(q**n), q, n).T.tolist()]
            for dim in range(n):
                for kind in ("coin", "sparse", "dense", "L0", "empty", "full", "super"):
                    while True:
                        rows, _ = rref(F, [[rng.randrange(q) for _ in range(n)] for _ in range(dim)])
                        if len(rows) == dim:
                            break
                    L0 = AffineSubspace(F, [rng.randrange(q) for _ in range(n)], rows)
                    if kind in ("coin", "dense"):
                        pts = [pt for pt in grid if rng.random() < (0.5 if kind == "coin" else 0.9)]
                    elif kind == "sparse":
                        pts = rng.sample(grid, min(len(grid), rng.randrange(1, 3 * q)))
                    elif kind == "L0":
                        pts = list(L0.points())
                    elif kind == "empty":
                        pts = []
                    elif kind == "full":
                        pts = grid
                    else:
                        extra = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n - dim + 1))]
                        S = AffineSubspace(F, L0.offset, list(L0.basis) + extra, strict=False)
                        pts = list(S.points()) + ([rng.choice(grid)] if rng.random() < 0.5 else [])
                    Z = PointSet(F, n, pts)
                    got = covering_bound_report(Z, L0)
                    assert got.to_json() == _reference_covering_report(Z, L0).to_json(), (q, n, dim, kind)
                    grown += got.evidence["k"] == n
    assert grown > 50


def test_superspace_hits_follow_the_reference_order():
    # Z = the points of one superspace: its hits are one-hot at its place
    rng = Random(5)
    for p, k in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        F = build_field(p, k)
        q = F.q
        for n in (1, 2, 3):
            for dim in range(n):
                rows, _ = rref(F, [[rng.randrange(q) for _ in range(n)] for _ in range(dim)])
                L = AffineSubspace(F, [rng.randrange(q) for _ in range(n)], rows)
                free = [j for j in range(n) if j not in L.pivots]
                for i, S in enumerate(superspaces(L)):
                    pts = np.array(list(S.points()), dtype=np.intp)
                    on, numbers, hits = laws._superspace_hits(point_digits(pts, F), L)
                    v = [0] * n
                    for j, c in zip(free, counting._coordinates(numbers[[i]], q, len(free))[:, 0].tolist()):
                        v[j] = c
                    assert AffineSubspace(F, L.offset, list(L.basis) + [v]) == S
                    assert on == q**L.dim and len(hits) == len(numbers) == (q ** len(free) - 1) // (q - 1)
                    assert np.flatnonzero(hits).tolist() == [i] and hits[i] == q ** (L.dim + 1) - q**L.dim


def test_saturation_checks():
    full = PointSet(F3, 2, full_space(F3, 2).points())
    rep = saturated_set_check(full, "ii")
    assert rep.applicable and rep.passed

    a1 = PointSet(F3, 1, [(0,), (1,), (2,)])
    rep2 = saturated_set_check(a1, "iv", m=2)
    assert rep2.applicable and rep2.passed and rep2.evidence["required_size"] == 3

    line_plus = PointSet(
        F3, 2, list(AffineSubspace(F3, (0, 0), [(0, 1)]).points()) + [(1, 0)]
    )
    rep3 = saturated_set_check(line_plus, "ii")
    assert not rep3.applicable and rep3.passed
    assert "witness_line" in rep3.evidence


def test_saturation_part_gates():
    S = PointSet(F3, 2, full_space(F3, 2).points())
    with pytest.raises(WrongFieldSize):
        saturated_set_check(S, "i")
    with pytest.raises(WrongFieldSize):
        saturated_set_check(S, "iii")
    with pytest.raises(ValueError):
        saturated_set_check(S, "iv", m=1)
    # the sweep applies the same gates, as typed errors
    for F, t, part, m, error in (
        (F3, 2, "i", None, WrongFieldSize),
        (F2, 2, "ii", None, WrongFieldSize),
        (F2, 2, "iii", None, WrongFieldSize),
        (F5, 1, "iv", None, ValueError),
        (F5, 1, "iv", 1, ValueError),
        (F3, -1, "ii", None, ValueError),
        (F3, 2, "v", None, ValueError),
    ):
        with pytest.raises(error) as err:
            saturated_set_exhaustive(F, t, part, m)
        assert isinstance(err.value, CwlabError)
    with pytest.raises(BudgetExceeded):
        saturated_set_exhaustive(F2, 5, "i")
    with pytest.raises(BudgetExceeded):
        saturated_set_exhaustive(F3, 10**9, "ii")


def test_saturation_exhaustive_small():
    assert saturated_set_exhaustive(F2, 2, "i").passed
    assert saturated_set_exhaustive(F3, 2, "ii").passed
    assert saturated_set_exhaustive(F3, 1, "iv", m=2).passed


def _set_of_mask(F, t, mask):
    points = list(full_space(F, t).points())  # odometer order
    return PointSet(F, t, [pt for i, pt in enumerate(points) if mask >> i & 1])


def _flats(F, t):
    return {k: laws._subspace_masks(F, t, k) for k in (1, 2, t - 1)}


def _flat_walk(F, t, k):
    """Every k-flat of A^t, in direction_spaces x parallel_class order."""
    return [P for rows in direction_spaces(F, t, k) for P in AffineSubspace(F, (0,) * t, rows).parallel_class()]


def _reference_check(S, part, m=None):
    """saturated_set_check point by point: every line (plane for part i)
    of the flat walk counts its points in S, and part iii tests the
    complement's points against every hyperplane."""
    F = S.field
    q, t = F.q, S.ambient
    laws.saturation_check_budget(q, t, part, m)
    law = f"line-saturation-{part}"
    evidence = {"q": q, "t": t, "size": len(S)}
    if m is not None:
        evidence["m"] = m
    if not S.points:
        evidence["reason"] = "empty set has no general-position points"
        return LawReport(law, False, True, evidence)
    span_dim = affine_span(S).dim
    if span_dim < t:
        evidence["reason"] = f"general position fails: span has dim {span_dim} < {t}"
        return LawReport(law, False, True, evidence)
    evidence["general_position_points"] = span_dim + 1
    threshold = {"i": 4, "ii": q, "iii": q - 1, "iv": (m or 0) + 1}[part]
    for P in _flat_walk(F, t, 2 if part == "i" else 1):
        inter = sum(1 for pt in P.points() if pt in S)
        if part == "i" and inter == 3 or part != "i" and 2 <= inter < threshold:
            flat = {"offset": list(P.offset), "rows": [list(r) for r in P.basis]}
            if part == "i":
                evidence["reason"] = "a 2-plane meets S in exactly 3 points"
                evidence["witness_plane"] = flat
            else:
                evidence["reason"] = f"a line meets S in {inter} points, below the threshold {threshold}"
                evidence["witness_line"] = flat
            return LawReport(law, False, True, evidence)
    if part in ("i", "ii"):
        conclusion = len(S) == q**t
    elif part == "iii":
        complement = [pt for pt in full_space(F, t).points() if pt not in S]
        conclusion = not complement
        for H in _flat_walk(F, t, t - 1) if complement else ():
            if all(contains(H, pt) for pt in complement):
                conclusion = True
                evidence["complement_hyperplane"] = {"offset": list(H.offset), "rows": [list(r) for r in H.basis]}
                break
        evidence["complement_size"] = len(complement)
    else:
        evidence["required_size"] = need = (m ** (t + 1) - 1) // (m - 1)
        conclusion = len(S) >= need
    return LawReport(law, True, conclusion, evidence, None if conclusion else {"size": len(S)})


def _seeded_sets(F, t, rng):
    """The full space, random subsets of four densities, the full space
    less a hyperplane, less part of one, and less one point."""
    points = list(full_space(F, t).points())
    out = [points] + [[pt for pt in points if rng.below(100) < d] for d in (20, 50, 80, 95)]
    if t >= 1:
        hyperplanes = _flat_walk(F, t, t - 1)
        H = set(hyperplanes[rng.below(len(hyperplanes))].points())
        out.append([pt for pt in points if pt not in H])
        out.append([pt for pt in points if pt not in H or rng.next_u64() & 1])
        i = rng.below(len(points))
        out.append(points[:i] + points[i + 1 :])
    return [PointSet(F, t, pts) for pts in out]


def test_saturation_check_matches_the_flat_walk(monkeypatch):
    # equal bodies on seeded sets for every part over F_2, F_3, F_4, F_5,
    # F_8 and F_9, among them witness lines, witness planes and complement
    # hyperplanes; with the gates lifted, part i over F_3 and part ii over
    # F_2 have counterexamples too
    F8, F9 = build_field(2, 3), build_field(3, 2)
    rng = SplitMix64(27)
    found = Counter()

    def compare(F, t, part, m):
        for S in _seeded_sets(F, t, rng) + _seeded_sets(F, t, rng):
            rep = saturated_set_check(S, part, m)
            assert rep.to_json() == _reference_check(S, part, m).to_json(), (F.q, t, part, m)
            found.update(key for key in ("witness_line", "witness_plane", "complement_hyperplane") if key in rep.evidence)
            found["counterexample"] += rep.applicable and not rep.passed

    for F, dims in ((F2, range(5)), (F3, range(4)), (F4, range(4)), (F5, range(4)), (F8, range(3)), (F9, range(3))):
        for t in dims:
            for part, m in (("i", None), ("ii", None), ("iii", None), ("iv", 2), ("iv", 3)):
                try:
                    laws._saturation_gates(F.q, t, part, m)
                except CwlabError:
                    continue
                compare(F, t, part, m)
    assert found["witness_line"] > 200 and found["witness_plane"] > 10 and found["complement_hyperplane"] > 20, found
    assert found["counterexample"] == 0
    monkeypatch.setattr(laws, "_saturation_gates", lambda *args: None)
    for F, t, part in ((F3, 2, "i"), (F3, 3, "i"), (F2, 2, "ii"), (F2, 3, "ii"), (F2, 3, "iii")):
        compare(F, t, part, None)
    assert found["counterexample"] > 0, found


def test_saturation_check_on_a_point_and_a_line():
    # A^0 has no lines or planes: its one point passes every part; in A^1
    # the hyperplanes are the q points, so part iii names the one point
    # the set leaves out
    for F, part, m in ((F2, "i", None), (F3, "ii", None), (F4, "iii", None), (F5, "iv", 3)):
        assert laws._subspace_masks(F, 0, 2 if part == "i" else 1).tolist() == []
        rep = saturated_set_check(PointSet(F, 0, [()]), part, m)
        assert rep.applicable and rep.passed and rep.to_json() == _reference_check(PointSet(F, 0, [()]), part, m).to_json()
    rep = saturated_set_check(PointSet(F4, 1, [(0,), (1,), (3,)]), "iii")
    assert rep.passed and rep.evidence["complement_hyperplane"] == {"offset": [2], "rows": []}
    assert rep.evidence["complement_size"] == 1
    rep = saturated_set_check(PointSet(F5, 1, [(0,), (1,), (3,)]), "iii")
    assert not rep.applicable and rep.evidence["witness_line"] == {"offset": [0], "rows": [[1]]}
    for F, part, m in ((F2, "i", None), (F3, "ii", None), (F4, "iii", None), (F5, "iii", None), (F5, "iv", 2), (F5, "iv", 4)):
        for bits in range(1, 1 << F.q):
            S = PointSet(F, 1, [(x,) for x in range(F.q) if bits >> x & 1])
            assert saturated_set_check(S, part, m).to_json() == _reference_check(S, part, m).to_json(), (F.q, part, m, bits)


def test_subspace_masks_match_flat_walk():
    for F, t, ks in ((F2, 3, range(-1, 5)), (F3, 3, (1, 2)), (F4, 2, (0, 1, 2)), (F5, 2, (1,)), (F3, 0, (0, 1))):
        for k in ks:
            want = []
            if 0 <= k <= t:
                for P in _flat_walk(F, t, k):
                    want.append(sum(1 << sum(x * F.q ** (t - 1 - j) for j, x in enumerate(pt)) for pt in P.points()))
            got = laws._subspace_masks(F, t, k)
            assert got.dtype == np.uint32 and got.tolist() == want, (F.q, t, k)


# parent results (subsets_checked, hypothesis_met) of the exhaustive sweeps
SWEEP_EVIDENCE = {
    (2, 2, "i", None): (16, 1),
    (2, 3, "i", None): (256, 1),
    (3, 2, "ii", None): (512, 1),
    (4, 2, "iii", None): (65536, 117),
    (3, 1, "iv", 2): (8, 1),
    (4, 1, "iv", 2): (16, 5),
    (4, 1, "iv", 3): (16, 1),
    (5, 1, "iv", 2): (32, 16),
    (5, 1, "iv", 3): (32, 6),
    (5, 1, "iv", 4): (32, 1),
    (2, 4, "i", None): (65536, 1),
    (4, 2, "ii", None): (65536, 1),
    # edge cases: A^0 is one point, A^1 one line
    (2, 0, "i", None): (2, 1),
    (3, 0, "ii", None): (2, 1),
    (4, 0, "iii", None): (2, 1),
    (3, 0, "iv", 2): (2, 1),
    (2, 1, "i", None): (4, 1),
    (4, 1, "iii", None): (16, 5),
}


def test_sweep_evidence_matches_parent():
    fields = {F.q: F for F in (F2, F3, F4, F5)}
    for (q, t, part, m), want in SWEEP_EVIDENCE.items():
        rep = saturated_set_exhaustive(fields[q], t, part, m)
        assert rep.passed and rep.evidence["mode"] == "exhaustive"
        assert (rep.evidence["subsets_checked"], rep.evidence["hypothesis_met"]) == want, (q, t, part, m)


def test_sweeper_agrees_with_object_level_checker():
    def agree(F, t, part, m, masks, flats):
        met, bad = laws._sweep_masks(np.array(masks, dtype=np.uint32), F, t, part, m, flats)
        met, bad = set(met.tolist()), set(bad.tolist())
        for mask in masks:
            rep = saturated_set_check(_set_of_mask(F, t, mask), part, m)
            assert rep.applicable == (mask in met), (F.q, t, part, m, mask)
            assert rep.passed == (mask not in bad), (F.q, t, part, m, mask)
        return len(met)

    for F, t, part, m in (
        (F2, 2, "i", None), (F2, 3, "i", None), (F3, 2, "ii", None), (F4, 2, "iii", None),
        (F5, 1, "iv", 3), (F5, 2, "iii", None), (F5, 2, "iv", 2), (F3, 3, "ii", None),
    ):
        rng = SplitMix64(11)
        masks = [rng.next_u64() & ((1 << F.q**t) - 1) for _ in range(100)]
        agree(F, t, part, m, masks, _flats(F, t))
    # every subset the sweep finds meeting the hypothesis, and a seeded 200
    # of the 46 416 for part iv with m = 2
    flats = _flats(F5, 2)
    everything = np.arange(1 << 25, dtype=np.uint32)
    met, _ = laws._sweep_masks(everything, F5, 2, "iii", None, flats)
    assert agree(F5, 2, "iii", None, met.tolist(), flats) == 206
    met, _ = laws._sweep_masks(everything, F5, 2, "iv", 2, flats)
    assert len(met) == 46416
    rng = SplitMix64(12)
    picks = sorted({int(met[rng.below(len(met))]) for _ in range(200)})
    assert agree(F5, 2, "iv", 2, picks, flats) == len(picks) > 150


def test_sweep_finds_counterexamples_outside_the_gates(monkeypatch):
    # with the gates lifted, part i at q = 3 and part ii at q = 2 fail; the
    # sweep and the object-level check name the same subsets
    flats = _flats(F3, 2)
    met, bad = laws._sweep_masks(np.arange(512, dtype=np.uint32), F3, 2, "i", None, flats)
    assert bad[:5].tolist() == [15, 23, 27, 29, 30]
    monkeypatch.setattr(laws, "_saturation_gates", lambda *args: None)
    for F, t, part in ((F3, 2, "i"), (F2, 2, "ii")):
        masks = list(range(1 << min(F.q**t, 8)))
        met, bad = laws._sweep_masks(np.array(masks, dtype=np.uint32), F, t, part, None, _flats(F, t))
        for mask in masks:
            rep = saturated_set_check(_set_of_mask(F, t, mask), part)
            assert (rep.applicable, rep.passed) == (mask in met, mask not in bad), (F.q, part, mask)
    for chunk in (laws.SWEEP_CHUNK, 7, 16):  # the fifth counterexample in a later chunk
        monkeypatch.setattr(laws, "SWEEP_CHUNK", chunk)
        rep = saturated_set_exhaustive(F3, 2, "i")
        assert not rep.passed and rep.exit_code == 2
        assert (rep.evidence["subsets_checked"], rep.evidence["hypothesis_met"]) == (31, 5)
        assert rep.witness == {"masks": [15, 23, 27, 29, 30], "first_set": [(0, 0), (0, 1), (0, 2), (1, 0)]}
    rep = saturated_set_exhaustive(F2, 2, "ii")  # four counterexamples: the sweep runs to the end
    assert (rep.evidence["subsets_checked"], rep.evidence["hypothesis_met"]) == (16, 5)
    assert rep.witness["masks"] == [7, 11, 13, 14]


def test_origin_subspace_orbit_divisibility():
    # for homogeneous systems and subspaces through 0: q-1 divides N(L) - 1
    for i in range(60):
        system = corpus_system(5, i)
        if not system.is_homogeneous:
            continue
        F, n = system.field, system.nvars
        Z = set(zero_set(system))
        L = AffineSubspace(F, (0,) * n, [tuple(F.one if j == 0 else 0 for j in range(n))])
        cnt = sum(1 for pt in Z if contains(L, pt))
        assert (cnt - 1) % (F.q - 1) == 0


def test_law_report_json_shape():
    rep = check_congruence(HYP, "ax")
    body = json.loads(rep.to_json())
    assert list(body) == ["law", "applicable", "pass", "evidence", "witness"]


# -- differential test of the batched class sweep ------------------------------------


def _reference_sweep(points, F, n, dims, modulus, scope):
    """Per-space reference for the class sweep: bucket every point by the
    offset of its coset, AffineSubspace(F, pt, rows).offset, one direction
    space at a time.  Returns (classes_checked, per_dim, truncated, witness)."""
    checked = 0
    per_dim = {}
    for m in dims:
        spaces = list(direction_spaces(F, n, m))
        if not scope.all_pairs:  # the drawn numbers in draw order; the spaces past the budget are not drawn
            want = min(scope.sample or scope.budget, len(spaces))
            k = min(want, scope.budget - checked)
            drawn = laws._drawn(SplitMix64(derive_seed(scope.seed, n, m)), len(spaces), k, 1)
            spaces = [spaces[s] for batch in drawn for s in batch] + [None] * (want - k)
        for rows in spaces:
            if checked >= scope.budget:
                return checked, per_dim, True, None
            checked += 1
            per_dim[m] = per_dim.get(m, 0) + 1
            offsets = [L.offset for L in AffineSubspace(F, (0,) * n, rows).parallel_class()]
            hits = Counter(AffineSubspace(F, pt, rows).offset for pt in points)
            counts = [hits[off] for off in offsets]
            res = [c % modulus for c in counts]
            if all(counts):  # the first coset that disagrees with coset 0
                a, b = next((i for i, r in enumerate(res) if r != res[0]), None), 0
            else:  # the first met coset with a nonzero residue, and the first empty one
                a, b = next((i for i, r in enumerate(res) if r), None), counts.index(0)
            if a is not None:
                witness = {
                    "rows": [list(r) for r in rows],
                    "offsets": [list(offsets[a]), list(offsets[b])],
                    "counts": [counts[a], counts[b]],
                    "dim": m,
                }
                return checked, per_dim, False, witness
    return checked, per_dim, False, None


def _reference_report(system, law, scope):
    F, n, d = system.field, system.nvars, system.total_degree
    dims, modulus = ([n - 1], F.p) if law == "warning-hyperplanes" else (list(range(d, n + 1)), F.q)
    points = zero_set(system)
    checked, per_dim, truncated, witness = _reference_sweep(points, F, n, dims, modulus, scope)
    evidence = {"modulus": modulus, "classes_checked": checked, "per_dim": per_dim, "zero_count": len(points)}
    if witness is None:
        evidence["truncated"] = truncated
        evidence["mode"] = "all_pairs" if scope.all_pairs else f"sampled(seed={scope.seed})"
    return evidence, witness


# a sampled sweep cut by its budget.  A sample of every space draws them in
# enumeration order, so only a cut sample draws planes of A^3(F_3) out of order
SAMPLED_CUT = CheckScope(all_pairs=False, sample=40, seed=25, budget=7)


def _pivots(rows) -> tuple[int, ...]:
    return tuple(next(i for i, x in enumerate(row) if x) for row in rows)


def _differential_systems():
    """Small corpus systems over F_2 to F_5, corpus systems lifted to F_8
    and F_9, one system over F_7, the violating x1*x2 + 1 over F_2, and a
    violating cubic over F_3 whose first failing plane in SAMPLED_CUT's draw
    order is not the first one drawn, and has other pivots than it."""
    from cwlab.constructions import random_system
    from cwlab.counting import lift_system

    corpus = [corpus_system(0, i) for i in range(120)]
    out = []
    for q in (2, 3, 4, 5):
        out += [sy for sy in corpus if sy.field.q == q and sy.nvars <= 3][:3]
        out.append(next(sy for sy in corpus if sy.field.q == q and sy.nvars == 4 and sy.total_degree >= 2))
    for base_q, s in ((2, 3), (3, 2)):
        out += [lift_system(sy, s) for sy in corpus if sy.field.q == base_q and sy.nvars == 2][:2]
    out.append(random_system(build_field(7, 1), 3, (2,), 5))
    out.append(PolySystem([parse_poly("x1*x2 + 1", F2, ["x1", "x2"])]))
    cubic = random_system(F3, 3, (3,), 0)
    planes = list(direction_spaces(F3, 3, 2))
    first = next(laws._drawn(SplitMix64(derive_seed(SAMPLED_CUT.seed, 3, 2)), len(planes), SAMPLED_CUT.budget, 1))[0]
    checked, _, _, witness = _reference_sweep(zero_set(cubic), F3, 3, [2], 3, SAMPLED_CUT)
    assert checked > 1 and _pivots(witness["rows"]) != _pivots(planes[first])
    out.append(cubic)
    return out


DIFFERENTIAL_SYSTEMS = _differential_systems()


class _BatchLog:
    """Records the size and the first space's pivots of every batch the
    sweep checks."""

    def __init__(self, monkeypatch):
        self.sizes, self.first_pivots = [], []
        check = laws._coset_residue_check

        def logged(Z, pivots, entries, F, modulus, matrix=None):
            self.sizes.append(len(entries))
            self.first_pivots.append(tuple(pivots[0].tolist()))
            return check(Z, pivots, entries, F, modulus, matrix)

        monkeypatch.setattr(laws, "_coset_residue_check", logged)


def _swept(system, law, scope, past_gate):
    """(evidence, witness) of check_congruence, or, past the law's gate, of
    the sweep of the hyperplane classes mod p run directly, with the
    evidence that check_congruence builds around it."""
    if not past_gate:
        rep = check_congruence(system, law, scope)
        assert rep.applicable and rep.passed == (rep.witness is None)
        return rep.evidence, rep.witness
    assert not check_congruence(system, law, scope).applicable
    F, n = system.field, system.nvars
    Z = zero_points(system)
    checked, per_dim, truncated, witness = laws._sweep_classes(point_digits(Z, F), F, [n - 1], F.p, scope, {})
    evidence = {"modulus": F.p, "classes_checked": checked, "per_dim": per_dim, "zero_count": len(Z)}
    if witness is None:
        evidence["truncated"] = truncated
        evidence["mode"] = "all_pairs" if scope.all_pairs else f"sampled(seed={scope.seed})"
    return evidence, witness


@pytest.mark.parametrize("batch", [None, 97, 7])
def test_batched_sweep_matches_per_space_reference(batch, monkeypatch):
    # a small BATCH splits batches down to one space and sends spaces with
    # more than BATCH cosets through the sparse count
    if batch:
        monkeypatch.setattr(laws, "BATCH", batch)
    # the hyperplane classes of the systems with n = d, where the law does
    # not apply, are swept directly, as that is where the congruence fails
    assert {sy.field.q for sy in DIFFERENTIAL_SYSTEMS} == {2, 3, 4, 5, 7, 8, 9}
    # the walk memo is emptied before each sweep, so that no congruence note
    # left by an earlier sweep of the system spares a batch its check
    failures = cuts = crossed = 0
    for system in DIFFERENTIAL_SYSTEMS:
        for law in ("parallel-subspaces", "warning-hyperplanes"):
            past_gate = law == "warning-hyperplanes" and not system.nvars > system.total_degree
            log = _BatchLog(monkeypatch)
            counting.WALKS.clear()
            total = _swept(system, law, CheckScope(budget=10**9), past_gate)[0]["classes_checked"]
            sizes = list(log.sizes)
            scopes = [CheckScope(budget=b) for b in (10**9, 0, total - 1, total)]
            scopes += [CheckScope(all_pairs=False, sample=40, seed=s) for s in (3, 4)]
            scopes.append(SAMPLED_CUT)
            # a budget that ends one space into the first batch of two or more
            k = next((k for k, size in enumerate(sizes) if size >= 2), None)
            if k is not None:
                scopes.append(CheckScope(budget=sum(sizes[:k]) + 1))
            for scope in scopes:
                log.sizes.clear()
                counting.WALKS.clear()
                got = _swept(system, law, scope, past_gate)
                evidence, witness = _reference_report(system, law, scope)
                assert got == (evidence, witness), (system, law, scope)
                failures += witness is not None
                # the failing space lies in a batch that begins with another pivot pattern
                crossed += witness is not None and _pivots(witness["rows"]) != log.first_pivots[-1]
            if k is not None:
                assert log.sizes == sizes[:k] + [1]  # the last scope cut batch k
                cuts += 1
    assert failures > 0  # the violating systems fail on their hyperplanes
    assert cuts > 0
    assert crossed > 0 or batch == 7  # BATCH = 7 leaves one space per batch


def _noted_body(system, law, scope):
    """check_congruence's body, or, past the hyperplane law's gate, the result
    of its sweep mod p on the walk's own digits and congruence notes."""
    F, n = system.field, system.nvars
    if law == "warning-hyperplanes" and not n > system.total_degree:
        X, agreed = counting.zero_digits_with_notes(system)
        return laws._sweep_classes(X, F, [n - 1], F.p, scope, agreed)
    return check_congruence(system, law, scope).to_json()


def _note_scopes(system, law):
    """Whole sweeps, dim = n - 1, seeded samples, and budgets that cut each
    swept dimension halfway."""
    F, n, d = system.field, system.nvars, system.total_degree
    dims = [n - 1] if law == "warning-hyperplanes" else list(range(d, n + 1))
    sizes = [gaussian_binomial(F.q, n, m) for m in dims]
    scopes = [CheckScope(budget=10**9), CheckScope(dim=n - 1)]
    scopes += [CheckScope(all_pairs=False, sample=6, seed=s) for s in (3, 4)]
    scopes += [CheckScope(budget=sum(sizes[:i]) + size // 2) for i, size in enumerate(sizes) if size > 1]
    return scopes


@pytest.mark.parametrize("batch", [None, 7])
def test_congruence_notes_leave_every_body_as_a_fresh_walk_gives(batch, monkeypatch):
    # every (law, scope) pair, run in both orders on one system object, where
    # the second run reads the notes the first left on the walk: its body is
    # the one it gives on a fresh walk.  The systems over F_4, F_8 and F_9
    # note their hyperplanes mod q before the law mod p reads them, and the
    # violating systems note the spaces before their first failure
    if batch:
        monkeypatch.setattr(laws, "BATCH", batch)
    log = _BatchLog(monkeypatch)
    fresh_checks = noted_checks = 0
    for system in DIFFERENTIAL_SYSTEMS:
        runs = [(law, scope) for law in ("parallel-subspaces", "warning-hyperplanes") for scope in _note_scopes(system, law)]
        fresh, checks = [], []
        for run in runs:
            counting.WALKS.clear()
            log.sizes.clear()
            fresh.append(_noted_body(system, *run))
            checks.append(len(log.sizes))
        for (_, first), (j, second) in permutations(enumerate(runs), 2):
            counting.WALKS.clear()
            _noted_body(system, *first)
            log.sizes.clear()
            assert _noted_body(system, *second) == fresh[j], (system, first, second)
            fresh_checks += checks[j]
            noted_checks += len(log.sizes)
    assert noted_checks < fresh_checks  # the notes spared some batches their check


def test_mod_2_sweep_checks_from_the_space_where_mod_4_failed(monkeypatch):
    # the planes of this cubic over F_4 all agree mod 2, but the fifth
    # (b = 4) does not agree mod 4.  The mod-4 sweep notes the 4 before it;
    # the mod-2 sweep on those notes passes them unchecked and checks the
    # planes from b on, one a batch; the mod-4 sweep again checks from b on
    # and fails there as before, since a mod-2 note says nothing mod 4
    from cwlab.constructions import random_system

    monkeypatch.setattr(laws, "BATCH", 7)  # 4 cosets a plane: one plane a batch
    system = random_system(F4, 3, (3,), 72)
    X, agreed = counting.zero_digits_with_notes(system)
    assert agreed == {}
    whole = CheckScope(budget=10**9)
    fresh4, fresh2 = (laws._sweep_classes(X, F4, [2], M, whole, {}) for M in (4, 2))
    log = _BatchLog(monkeypatch)
    assert laws._sweep_classes(X, F4, [2], 4, whole, agreed) == fresh4
    b, planes = fresh4[0] - 1, gaussian_binomial(4, 3, 2)
    assert fresh4[3] is not None and b == 4 and agreed == {(2, 4): b}
    log.sizes.clear()
    assert laws._sweep_classes(X, F4, [2], 2, whole, agreed) == fresh2
    assert fresh2 == (planes, {2: planes}, False, None)
    assert log.sizes == [1] * (planes - b) and agreed == {(2, 4): b, (2, 2): planes}
    log.sizes.clear()
    assert laws._sweep_classes(X, F4, [2], 4, whole, agreed) == fresh4
    assert log.sizes == [1]
    # a sampled sweep neither reads nor writes notes
    assert laws._sweep_classes(X, F4, [2], 2, CheckScope(all_pairs=False, sample=5), agreed)[1] == {2: 5}
    assert log.sizes == [1] * 6 and agreed == {(2, 4): b, (2, 2): planes}


@pytest.mark.parametrize("N, k, cap", [(1, 1, 4), (13, 7, 3), (13, 13, 5), (1000, 999, 64), (2**123 + 5, 50, 16)])
def test_drawn_numbers_are_k_distinct_numbers_below_n(N, k, cap):
    # Floyd's algorithm: one `below` a number, k distinct numbers below N in
    # batches of cap, and each number once when k = N
    rng, ref = SplitMix64(derive_seed(N, k)), SplitMix64(derive_seed(N, k))
    batches = list(laws._drawn(rng, N, k, cap))
    drawn = [s for batch in batches for s in batch]
    assert [len(batch) for batch in batches] == [min(cap, k - lo) for lo in range(0, k, cap)]
    assert len(set(drawn)) == k and 0 <= min(drawn) and max(drawn) < N
    assert k < N or sorted(drawn) == list(range(N))
    for j in range(N - k, N):
        ref.below(j + 1)
    assert rng._state == ref._state


def test_drawn_spaces_past_two_to_the_63_decode_exactly():
    # [16 choose 8]_2 has 66 bits: each drawn number decodes to RREF rows,
    # and back to itself by a scan of the pivot patterns in lexicographic order
    n, m = 16, 8
    N = gaussian_binomial(2, n, m)
    starts, total = {}, 0
    for piv in combinations(range(n), m):
        starts[piv] = total
        total += 2 ** sum(n - m - p + i for i, p in enumerate(piv))
    assert total == N and N.bit_length() == 66
    drawn = next(laws._drawn(SplitMix64(3), N, 200, 200))
    assert max(drawn) > 2**63
    pivots, entries = laws._pattern_slice(F2, n, m, [(s, s + 1) for s in drawn])
    for s, piv, ent in zip(drawn, pivots.tolist(), entries.tolist()):
        free = [j for j in range(n) if j not in piv]
        rows = tuple(tuple(1 if j == p else ent[i][free.index(j)] if j in free else 0 for j in range(n)) for i, p in enumerate(piv))
        assert rref(F2, rows)[0] == rows
        digits = "".join(str(ent[i][k]) for i in range(m) for k, j in enumerate(free) if j > piv[i])
        assert starts[tuple(piv)] + int(digits or "0", 2) == s


@pytest.mark.parametrize("F, n", [(F2, 4), (F3, 4), (F4, 3), (F5, 3), (F2, 5), (F3, 2), (build_field(2, 3), 2), (build_field(3, 2), 2)])
def test_pattern_batches_follow_direction_spaces(F, n):
    # batches of cap spaces run on across pivot patterns, in the order of
    # direction_spaces, for caps that divide no pattern's size (the sizes
    # are powers of q: 7 and 11 are prime to q, and 10^9 exceeds them all);
    # and every number decoded alone, last first, is its space there
    for m in range(n + 1):
        want = [(tuple(piv), ent.tolist()) for piv, ent in (basis_entries(rows, n) for rows in direction_spaces(F, n, m))]
        alone = laws._pattern_slice(F, n, m, [(s, s + 1) for s in reversed(range(len(want)))])
        assert list(zip(map(tuple, alone[0].tolist()), alone[1].tolist())) == want[::-1], (F.q, n, m)
        for cap in (7, 11, 10**9):
            batches = [(pivots, entries) for pivots, entries, _ in laws.direction_batches(F, n, m, cap)]
            assert [len(e) for _, e in batches] == [min(cap, len(want) - i) for i in range(0, len(want), cap)]
            got = [(tuple(piv), ent) for pivots, entries in batches for piv, ent in zip(pivots.tolist(), entries.tolist())]
            assert got == want, (F.q, n, m, cap)


def _space_bytes(F, n, m):
    return sum(a.nbytes for a in laws._direction_part(F, n, m, [(0, 1)]))


@pytest.mark.parametrize("bound", [None, 600])
@pytest.mark.parametrize("F, n", [(F2, 4), (F3, 4), (F4, 3), (F5, 3)])
def test_direction_table_slices_match_pattern_batches(F, n, bound, monkeypatch):
    # every batch, built part by part on a miss or sliced from the kept
    # table on a hit, at any cap, is _pattern_slice's slice in the order of
    # direction_spaces, with the rows of a fresh coset_matrix.  A part holds
    # at most 40 bytes of spaces here, so a miss builds several.  A bound of
    # 600 bytes holds no shape's largest table, which is then built on every
    # sweep and never kept, while the tables that fit stay within the bound
    monkeypatch.setattr(laws, "PART_BYTES", 40)
    if bound:
        monkeypatch.setattr(laws.DIRECTIONS, "bound", bound)
    memo = laws.DIRECTIONS
    fits = {}
    for m in range(n + 1):
        want = [(tuple(piv), ent.tolist()) for piv, ent in (basis_entries(rows, n) for rows in direction_spaces(F, n, m))]
        fits[m] = len(want) * _space_bytes(F, n, m) <= memo.bound
        for cap in (7, 11, 10**9):  # the first cap builds the table, the others slice it
            slices = list(laws.direction_batches(F, n, m, cap))
            batches = [laws._pattern_slice(F, n, m, [(lo, min(lo + cap, len(want)))]) for lo in range(0, len(want), cap)]
            assert len(slices) == len(batches)
            for (pivots, entries, matrix), (piv, ent) in zip(slices, batches):
                assert (pivots.tolist(), entries.tolist()) == (piv.tolist(), ent.tolist())
                assert np.array_equal(matrix, coset_matrix(piv, ent, F)), (F.q, n, m, cap)
            got = [(tuple(piv), ent) for pivots, entries, _ in slices for piv, ent in zip(pivots.tolist(), entries.tolist())]
            assert got == want, (F.q, n, m, cap)
            assert ((F.tables, n, m) in memo.kept) == fits[m]
            assert all(sum(a.nbytes for a in table) == memo.sizes[key] for key, table in memo.kept.items())
            assert memo.held <= memo.bound
    if bound:
        assert not all(fits.values())
    else:
        assert all(fits.values()) and len(memo.kept) == n + 1


def test_direction_memo_keeps_its_byte_bound():
    # every dimension of A^5 over F_5 and over F_4, swept in full: more than
    # the bound together, so the least recently used tables are dropped
    for F in (F5, F4):
        Z = np.zeros((0, 5), dtype=np.intp)
        checked, _, truncated, _ = laws._sweep_classes(point_digits(Z, F), F, range(6), F.q, CheckScope(budget=10**9), {})
        assert checked == sum(gaussian_binomial(F.q, 5, m) for m in range(6)) and not truncated
        memo = laws.DIRECTIONS
        assert 0 < sum(a.nbytes for table in memo.kept.values() for a in table) <= memo.bound


def test_sweep_that_stops_early_builds_one_part_past_and_keeps_nothing(monkeypatch):
    # on a miss the spaces are built in parts, from space 0 on, as the sweep
    # reaches them (after the first space alone, which sizes the parts).  A
    # sweep cut by its budget, or stopped at a witness, has built no part
    # past the last space it checked (the last part may run past it), and
    # leaves DIRECTIONS as it was; a full sweep keeps the whole table, which
    # the next sweep reads
    parts = []
    build = laws._direction_part

    def logged(F, n, m, runs):
        parts.extend(runs)
        return build(F, n, m, runs)

    monkeypatch.setattr(laws, "_direction_part", logged)
    memo, key, size = laws.DIRECTIONS, (F5.tables, 5, 2), gaussian_binomial(5, 5, 2)

    def sweep(Z, budget):
        memo.clear()
        parts.clear()
        got = laws._sweep_classes(point_digits(Z, F5), F5, [2], 5, CheckScope(budget=budget), {})
        assert parts[0] == (0, 1) and [lo for lo, _ in parts[1:]] == [0] + [hi for _, hi in parts[1:-1]]
        return got, parts[1][1]

    empty = np.zeros((0, 5), dtype=np.intp)
    for budget in (1, 37, 500, 1310, 5000):  # 1310: the cut falls on the end of a part
        (checked, _, truncated, _), step = sweep(empty, budget)
        assert checked == budget and truncated and memo.held == 0 and not memo.kept
        assert parts[-1][0] < checked <= parts[-1][1] <= checked + step < size
    rng = Random(7)
    Z = np.array(sorted({tuple(rng.randrange(5) for _ in range(5)) for _ in range(40)}), dtype=np.intp)
    (checked, _, _, witness), step = sweep(Z, 10**9)
    assert witness is not None and not memo.kept
    assert parts[-1][0] < checked <= parts[-1][1] <= checked + step < size
    (checked, _, truncated, _), step = sweep(empty, 10**9)
    assert checked == size and not truncated and parts[-1][1] == size
    whole = build(F5, 5, 2, [(0, size)])
    assert all(np.array_equal(a, b) for a, b in zip(memo.kept[key], whole))
    assert memo.sizes[key] == sum(a.nbytes for a in whole) == size * _space_bytes(F5, 5, 2)
    parts.clear()
    assert laws._sweep_classes(point_digits(Z, F5), F5, [2], 5, CheckScope(budget=10**9), {})[3] == witness
    assert parts == []  # read from the kept table
    # a shape past the bound is built in full on every sweep and never kept
    monkeypatch.setattr(memo, "bound", size * _space_bytes(F5, 5, 2) - 1)
    (checked, _, _, _), _ = sweep(empty, 10**9)
    assert checked == size and parts[-1][1] == size and not memo.kept


def test_budget_cut_at_a_part_or_dimension_end_builds_nothing_past_it(monkeypatch):
    # the budget is checked before the next batch is drawn: a cold sweep cut
    # at the end of a part (space 1310 of A^5(F_5), m = 2) or of a dimension
    # builds no further part, and is truncated only while a space is left
    calls = []
    build = laws._direction_part

    def logged(F, n, m, runs):
        calls.extend((m, lo, hi) for lo, hi in runs)
        return build(F, n, m, runs)

    monkeypatch.setattr(laws, "_direction_part", logged)
    X, size = point_digits(np.zeros((0, 5), dtype=np.intp), F5), gaussian_binomial(5, 5, 2)
    cases = [
        ([2], 1310, (1310, {2: 1310}, True, None)),
        ([2, 3], size, (size, {2: size}, True, None)),
        ([2], size, (size, {2: size}, False, None)),
    ]
    for dims, budget, want in cases:
        laws.DIRECTIONS.clear()
        calls.clear()
        assert laws._sweep_classes(X, F5, dims, 5, CheckScope(budget=budget), {}) == want
        assert {m for m, _, _ in calls} == {2} and calls[-1][2] == budget  # the last part ends at the cut


def test_batched_sweep_on_random_point_sets(monkeypatch):
    # random point sets break the congruences; the sweep must name the same
    # first failing space and witness as the reference.  Half of the sets
    # are unions of lines with direction e_1: every space that contains e_1
    # passes, and those come first in the enumeration (row 0 = e_1 runs
    # slowest), so the first failure lies deeper.
    rng = Random(2024)
    depths = []
    for trial in range(80):
        F = (F2, F3, F4, F5)[trial % 4]
        n = 2 + trial % 3 if F.q < 5 else 2 + trial % 2
        monkeypatch.setattr(laws, "BATCH", 5 if trial % 3 == 0 else BATCH)
        if trial % 2:
            points = {tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(rng.randrange(1, F.q**n))}
        else:
            v = (F.one,) + (0,) * (n - 1)
            points = set()
            for _ in range(rng.randrange(1, F.q ** (n - 1))):
                points.update(AffineSubspace(F, [rng.randrange(F.q) for _ in range(n)], [v]).points())
        points = sorted(points)
        Z = np.array(points, dtype=np.int64).reshape(len(points), n)
        dims = list(range(rng.randrange(1, n + 1), n + 1))
        modulus = rng.choice([F.p, F.q])
        scope = CheckScope(budget=rng.choice([10**9, 10**9, rng.randrange(12)]))
        got = laws._sweep_classes(point_digits(Z, F), F, dims, modulus, scope, {})
        assert got == _reference_sweep(points, F, n, dims, modulus, scope), (F.q, n, points, dims, modulus)
        if got[3] is not None:
            depths.append(got[0])
    assert len(depths) > 20 and max(depths) > 2  # some first failures lie inside a batch


def test_top_dimension_is_counted_without_a_coset_product(monkeypatch):
    # the one space of dimension n, the whole space, has one coset: every
    # scope counts it as checked, as before, and no batch of it reaches
    # the coset check
    log = _BatchLog(monkeypatch)
    n, total = HYP.nvars, sum(gaussian_binomial(2, 4, m) for m in (2, 3))
    cases = [
        (CheckScope(), {2: gaussian_binomial(2, 4, 2), 3: gaussian_binomial(2, 4, 3), 4: 1}, total + 1, False),
        (CheckScope(dim=n), {4: 1}, 1, False),
        (CheckScope(all_pairs=False, sample=3, seed=5), {2: 3, 3: 3, 4: 1}, 7, False),
        (CheckScope(budget=total), {2: gaussian_binomial(2, 4, 2), 3: gaussian_binomial(2, 4, 3)}, total, True),
    ]
    for scope, per_dim, checked, truncated in cases:
        ev = check_congruence(HYP, "parallel-subspaces", scope).evidence
        assert (ev["per_dim"], ev["classes_checked"], ev["truncated"]) == (per_dim, checked, truncated)
    assert log.sizes and all(len(pivots) < n for pivots in log.first_pivots)
