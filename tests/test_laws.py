"""Congruence checkers, bound audits, covering bound, saturation laws."""

import json
from collections import Counter
from random import Random

import numpy as np
import pytest

from cwlab import laws
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
    homogenization_identity,
    lower_bound_audit,
    saturated_set_check,
    saturated_set_exhaustive,
)
from cwlab.polynomials import PolySystem, parse_poly
from cwlab.rng import SplitMix64
from cwlab.subspaces import AffineSubspace, PointSet, direction_spaces, gaussian_binomial

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
    ],
)
def test_malformed_scope_is_an_input_error_before_the_walk(scope, words):
    # a negative budget once passed with 0 classes checked, a negative sample
    # checked none and reported no truncation, and a sample of 0 fell back to
    # the class budget
    from cwlab import counting

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
    witness = laws._sweep_classes(zero_digits(system), F2, [1], 2, CheckScope())[3]
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

    Zfull = PointSet(F2, 2, AffineSubspace.full_space(F2, 2).points())
    rep3 = covering_bound_report(Zfull, AffineSubspace(F2, (0, 0)))
    assert rep3.passed
    assert rep3.evidence["k"] == 0 and rep3.evidence["bound"] == 4


def test_covering_bound_rejects_full_base():
    with pytest.raises(FullSpace):
        covering_bound_report(PointSet(F2, 2, []), AffineSubspace.full_space(F2, 2))


def test_covering_bound_random_point_sets():
    rng = SplitMix64(7)
    for _ in range(50):
        n = 1 + rng.below(3)
        pts = [pt for pt in AffineSubspace.full_space(F3, n).points() if rng.coin()]
        Z = PointSet(F3, n, pts)
        L0 = AffineSubspace(F3, tuple(rng.below(3) for _ in range(n)))
        assert covering_bound_report(Z, L0).passed


def test_saturation_checks():
    full = PointSet(F3, 2, AffineSubspace.full_space(F3, 2).points())
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
    S = PointSet(F3, 2, AffineSubspace.full_space(F3, 2).points())
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
    points = list(AffineSubspace.full_space(F, t).points())  # odometer order
    return PointSet(F, t, [pt for i, pt in enumerate(points) if mask >> i & 1])


def _flats(F, t):
    return {k: laws._subspace_masks(F, t, k) for k in (1, 2, t - 1)}


def test_subspace_masks_match_flat_walk():
    for F, t, ks in ((F2, 3, range(-1, 5)), (F3, 3, (1, 2)), (F4, 2, (0, 1, 2)), (F5, 2, (1,)), (F3, 0, (0, 1))):
        for k in ks:
            want = []
            if 0 <= k <= t:
                for P in laws._all_subspaces_of_dim(F, t, k):
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
        cnt = sum(1 for pt in Z if L.contains(pt))
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
        if scope.all_pairs:
            spaces = direction_spaces(F, n, m)
        else:
            want = min(scope.sample or scope.budget, gaussian_binomial(F.q, n, m))
            spaces = laws._sampled_direction_spaces(F, n, m, want, scope.seed)
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


def _differential_systems():
    """Small corpus systems over F_2 to F_5, corpus systems lifted to F_8
    and F_9, one system over F_7, the violating x1*x2 + 1 over F_2, and a
    violating cubic over F_3 whose first failing plane in the sampled order
    (seed 4) is the third one drawn, with other pivots than the first."""
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
    out.append(random_system(F3, 3, (3,), 13))
    return out


DIFFERENTIAL_SYSTEMS = _differential_systems()


def _pivots(rows) -> tuple[int, ...]:
    return tuple(next(i for i, x in enumerate(row) if x) for row in rows)


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
    checked, per_dim, truncated, witness = laws._sweep_classes(point_digits(Z, F), F, [n - 1], F.p, scope)
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
    failures = cuts = crossed = 0
    for system in DIFFERENTIAL_SYSTEMS:
        for law in ("parallel-subspaces", "warning-hyperplanes"):
            past_gate = law == "warning-hyperplanes" and not system.nvars > system.total_degree
            log = _BatchLog(monkeypatch)
            total = _swept(system, law, CheckScope(budget=10**9), past_gate)[0]["classes_checked"]
            sizes = list(log.sizes)
            scopes = [CheckScope(budget=b) for b in (10**9, 0, total - 1, total)]
            scopes += [CheckScope(all_pairs=False, sample=40, seed=s) for s in (3, 4)]
            scopes.append(CheckScope(all_pairs=False, sample=40, seed=3, budget=7))
            # a budget that ends one space into the first batch of two or more
            k = next((k for k, size in enumerate(sizes) if size >= 2), None)
            if k is not None:
                scopes.append(CheckScope(budget=sum(sizes[:k]) + 1))
            for scope in scopes:
                log.sizes.clear()
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


@pytest.mark.parametrize("F, n", [(F2, 4), (F3, 4), (F4, 3), (F5, 3)])
def test_pattern_batches_follow_direction_spaces(F, n):
    # batches of cap spaces run on across pivot patterns, in the order of
    # direction_spaces, for caps that divide no pattern's size (the sizes
    # are powers of q: 7 and 11 are prime to q, and 10^9 exceeds them all)
    for m in range(n + 1):
        want = [(tuple(piv), ent.tolist()) for piv, ent in (basis_entries(rows, n) for rows in direction_spaces(F, n, m))]
        for cap in (7, 11, 10**9):
            batches = list(laws._pattern_batches(F, n, m, cap))
            assert [len(e) for _, e in batches] == [min(cap, len(want) - i) for i in range(0, len(want), cap)]
            got = [(tuple(piv), ent) for pivots, entries in batches for piv, ent in zip(pivots.tolist(), entries.tolist())]
            assert got == want, (F.q, n, m, cap)


@pytest.mark.parametrize("bound", [None, 600])
@pytest.mark.parametrize("F, n", [(F2, 4), (F3, 4), (F4, 3), (F5, 3)])
def test_direction_table_slices_match_pattern_batches(F, n, bound, monkeypatch):
    # the memoized table, sliced by any cap, gives _pattern_batches' batches
    # and direction_spaces' order, with the rows of a fresh coset_matrix.  A
    # bound of 600 bytes holds no shape's largest table whole, so slices past
    # the kept prefix are built and not kept, and growing a table drops the
    # tables of the dimensions before it.  A growth writes at most 40 bytes
    # of spaces at a time here, so every growth fills its room in parts
    monkeypatch.setattr(laws.DirectionTable, "grow_bytes", 40)
    if bound:
        monkeypatch.setattr(laws.DIRECTIONS, "bound", bound)
    memo = laws.DIRECTIONS
    unkept = evicted = 0
    for m in range(n + 1):
        want = [(tuple(piv), ent.tolist()) for piv, ent in (basis_entries(rows, n) for rows in direction_spaces(F, n, m))]
        for cap in (7, 11, 10**9):  # the first cap builds the table, the others slice it
            table = laws.direction_table(F, n, m)
            slices = list(table.batches(cap))
            batches = list(laws._pattern_batches(F, n, m, cap))
            assert len(slices) == len(batches)
            for (pivots, entries, matrix), (piv, ent) in zip(slices, batches):
                assert (pivots.tolist(), entries.tolist()) == (piv.tolist(), ent.tolist())
                assert np.array_equal(matrix, coset_matrix(piv, ent, F)), (F.q, n, m, cap)
            got = [(tuple(piv), ent) for pivots, entries, _ in slices for piv, ent in zip(pivots.tolist(), entries.tolist())]
            assert got == want, (F.q, n, m, cap)
            assert sum(t.nbytes for t in memo.kept.values()) <= memo.bound
        unkept += table.built < table.size
        evicted += any(key not in memo.kept for key in ((F.tables, n, j) for j in range(m)))
    if bound:
        assert unkept > 0 and evicted > 0
    else:
        assert unkept == evicted == 0 and len(memo.kept) == n + 1


def test_direction_memo_keeps_its_byte_bound():
    # every dimension of A^5 over F_5 and over F_4, swept in full: more than
    # the bound together, so the least recently used tables are dropped
    for F in (F5, F4):
        Z = np.zeros((0, 5), dtype=np.intp)
        checked, _, truncated, _ = laws._sweep_classes(point_digits(Z, F), F, range(6), F.q, CheckScope(budget=10**9))
        assert checked == sum(gaussian_binomial(F.q, 5, m) for m in range(6)) and not truncated
        memo = laws.DIRECTIONS
        assert 0 < sum(t.nbytes for t in memo.kept.values()) <= memo.bound


def test_sweep_that_stops_early_builds_at_most_twice_what_it_checked(monkeypatch):
    # a cold table grows by doubling, so a sweep cut by its budget has built
    # at most twice the spaces it checked, and one stopped at a witness at
    # most twice the spaces of the batches it checked
    Z = np.zeros((0, 5), dtype=np.intp)
    for budget in (1, 37, 500, 5000):
        laws.DIRECTIONS.clear()
        checked, _, truncated, _ = laws._sweep_classes(point_digits(Z, F5), F5, [2], 5, CheckScope(budget=budget))
        assert checked == budget and truncated
        assert budget <= laws.direction_table(F5, 5, 2).built <= 2 * budget
    rng = Random(7)
    Z = np.array(sorted({tuple(rng.randrange(5) for _ in range(5)) for _ in range(40)}), dtype=np.intp)
    laws.DIRECTIONS.clear()
    log = _BatchLog(monkeypatch)
    witness = laws._sweep_classes(point_digits(Z, F5), F5, [2], 5, CheckScope(budget=10**9))[3]
    assert witness is not None and len(log.sizes) == 1  # it stops in its first batch
    assert laws.direction_table(F5, 5, 2).built <= 2 * log.sizes[0]


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
        got = laws._sweep_classes(point_digits(Z, F), F, dims, modulus, scope)
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
