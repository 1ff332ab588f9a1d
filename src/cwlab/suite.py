"""The acceptance battery, one function per criterion, for `cwlab suite`
and the acceptance tests: an exact verdict, and in `details` what was
checked."""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Sequence

from .constructions import corpus_system, example_one, example_two, norm_form, embed_in_more_variables
from .counting import count_zeros, fast_count, oracle_count
from .errors import FieldTooSmall
from .fields import build_field
from .geometry import conjecture_scan, estimate_dimension, linear_factor_test
from .laws import (
    CheckScope, check_congruence, covering_trial, homogenization_identity, lower_bound_audit,
    saturated_set_exhaustive,
)
from .polynomials import MultiPoly, PolySystem
from .rng import SplitMix64, derive_seed


@dataclass
class CriterionResult:
    """One criterion's id, title, verdict, details and wall time (set by
    `run_preset`)."""

    cid: str
    title: str
    passed: bool
    details: dict = dc_field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        """The progress line, with the wall time."""
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.cid}: {self.title} ({self.elapsed:.1f}s)"


CORPUS_SEED = 0
FULL_CORPUS = 1000
SMALL_CORPUS = 200


def criterion_1(seed: int = CORPUS_SEED) -> CriterionResult:
    """q | N(full) on every corpus system (they all have n > d)."""
    failures = []
    for i in range(FULL_CORPUS):
        system = corpus_system(seed, i)
        rep = check_congruence(system, "ax")
        if not (rep.applicable and rep.passed):
            failures.append(i)
    return CriterionResult(
        "C1",
        f"ax congruence on {FULL_CORPUS} seeded systems",
        not failures,
        {"checked": FULL_CORPUS, "failures": failures},
    )


# a class budget no corpus system reaches: C2 and C3 check every class
EVERY_CLASS = 1 << 62


def _congruence_criterion(cid: str, law: str, title: str, seed: int) -> CriterionResult:
    failures = []
    classes = truncated = 0
    for i in range(SMALL_CORPUS):
        system = corpus_system(seed, i)
        rep = check_congruence(system, law, CheckScope(all_pairs=True, budget=EVERY_CLASS))
        classes += rep.evidence.get("classes_checked", 0)
        truncated += bool(rep.evidence.get("truncated"))
        if not rep.passed:
            failures.append({"index": i, "witness": rep.witness})
    return CriterionResult(
        cid,
        f"{title}, {SMALL_CORPUS} systems, {classes} classes, {truncated} truncated",
        not failures,
        {"classes_checked": classes, "truncated_systems": truncated, "failures": failures},
    )


def criterion_2(seed: int = CORPUS_SEED) -> CriterionResult:
    """Parallel-subspace counts agree mod q at every dim in [d, n]."""
    return _congruence_criterion("C2", "parallel-subspaces", "parallel-subspace congruence", seed)


def criterion_3(seed: int = CORPUS_SEED) -> CriterionResult:
    """Hyperplane counts agree mod p on the same corpus."""
    return _congruence_criterion("C3", "warning-hyperplanes", "hyperplane congruence mod p", seed)


def criterion_4(seed: int = CORPUS_SEED) -> CriterionResult:
    """N(f+) = (q-1) N(f) + N(f-) exactly on the full corpus."""
    failures = []
    for i in range(FULL_CORPUS):
        system = corpus_system(seed, i)
        rep = homogenization_identity(system)
        if not rep.passed:
            failures.append({"index": i, "evidence": rep.evidence})
    return CriterionResult(
        "C4",
        f"homogenization count identity on {FULL_CORPUS} systems",
        not failures,
        {"checked": FULL_CORPUS, "failures": failures},
    )


def criterion_5(seed: int = CORPUS_SEED) -> CriterionResult:
    """Lower-bound audits on the corpus, plus exact norm-form equality."""
    failures = []
    audited = 0
    for i in range(SMALL_CORPUS):
        system = corpus_system(seed, i)
        rep = lower_bound_audit(system)
        if rep.applicable:
            audited += 1
        if not rep.passed:
            failures.append({"index": i, "evidence": rep.evidence})
    equality_cases = []
    for q, p, k0 in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)):
        F = build_field(p, k0)
        for deg in (1, 2, 3):
            n = deg + 1
            f = embed_in_more_variables(norm_form(F, deg), n)
            cnt = count_zeros(PolySystem([f])).count
            ok = cnt == q ** (n - deg)
            equality_cases.append({"q": q, "k": deg, "count": cnt, "ok": ok})
            if not ok:
                failures.append({"norm_equality": (q, deg), "count": cnt})
    return CriterionResult(
        "C5",
        f"lower bounds audited on {audited} applicable systems "
        f"+ {len(equality_cases)} norm equality cases",
        not failures,
        {"audited": audited, "equality_cases": equality_cases, "failures": failures},
    )


def criterion_6() -> CriterionResult:
    """Quadric-times-norm construction counts, and the n > 4 display flag."""
    failures = []
    counts = {}
    for q, p, k0 in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1)):
        ex = example_one(build_field(p, k0), 4)
        cnt = count_zeros(ex.system).count
        counts[q] = cnt
        if cnt != q**3 - q**2 + q or cnt != ex.expected_quadric_count:
            failures.append({"q": q, "count": cnt})
    ex6 = example_one(build_field(2, 1), 6)
    cnt6 = count_zeros(ex6.system).count
    if cnt6 != 34 or ex6.inclusion_exclusion_count != 34:
        failures.append({"n6_count": cnt6})
    if not ex6.display_mismatch:
        failures.append({"missing_flag": "n>4 display discrepancy must be flagged"})
    return CriterionResult(
        "C6",
        "quadric count q^3-q^2+q for q in {2,3,4,5,7}; n=6 count 34 with display flag",
        not failures,
        {"quadric_counts": counts, "n6_count": cnt6, "display_flagged": ex6.display_mismatch},
    )


_C7_FIELDS = {3: (3, 1), 4: (2, 2), 5: (5, 1)}


def criterion_7(seed: int = CORPUS_SEED, qs: Sequence[int] = (3, 4, 5)) -> CriterionResult:
    """Non-split quartic: single zero, no linear factors, q=2 refusal."""
    failures = []
    details = {}
    for q, (p, k0) in ((q, _C7_FIELDS[q]) for q in qs):
        ex = example_two(build_field(p, k0))
        cnt = count_zeros(ex.system).count
        verdict = linear_factor_test(ex.poly, 4, trials=6, seed=seed)
        expected_bound = Fraction(4, q**4) ** 6
        ok = (
            cnt == 1
            and not verdict.found
            and verdict.error_bound == expected_bound
        )
        details[q] = {
            "count": cnt,
            "factor_found": verdict.found,
            "forms": verdict.forms_checked,
            "bound": str(verdict.error_bound),
        }
        if not ok:
            failures.append({"q": q, **details[q]})
    try:
        example_two(build_field(2, 1))
        failures.append({"q2": "construction must refuse q=2"})
        refused = False
    except FieldTooSmall:
        refused = True
    details["q2_refused"] = refused
    return CriterionResult(
        "C7",
        "non-split quartic: one zero over A^4, no linear factor over F_{q^4}, q=2 refused",
        not failures,
        details,
    )


def criterion_8(seed: int = CORPUS_SEED) -> CriterionResult:
    """Saturation sweeps over every subset of A^t(F_q), up to q^t = 27."""
    failures = []
    runs = []

    def run(F, t, part, m=None):
        rep = saturated_set_exhaustive(F, t, part, m)
        runs.append(
            {
                "q": F.q,
                "t": t,
                "part": part,
                "m": m,
                "subsets": rep.evidence["subsets_checked"],
                "hypothesis_met": rep.evidence["hypothesis_met"],
                "mode": rep.evidence["mode"],
            }
        )
        if not rep.passed:
            failures.append({"q": F.q, "t": t, "part": part, "m": m, "witness": rep.witness})

    F2, F3, F4, F5 = (build_field(*pk) for pk in ((2, 1), (3, 1), (2, 2), (5, 1)))
    run(F2, 2, "i")
    run(F2, 3, "i")
    run(F3, 2, "ii")
    run(F4, 2, "iii")
    run(F5, 2, "ii")
    run(F5, 2, "iii")
    run(F3, 3, "ii")
    for F, t in ((F3, 1), (F4, 1), (F5, 1), (F5, 2)):
        for m in range(2, F.q):
            run(F, t, "iv", m=m)
    return CriterionResult(
        "C8",
        f"saturation sweeps, {len(runs)} configurations, zero counterexamples",
        not failures,
        {"runs": runs, "failures": failures},
    )


def criterion_9(seed: int = CORPUS_SEED) -> CriterionResult:
    """The covering growth bound holds for arbitrary seeded point sets."""
    failures = []
    rng = SplitMix64(derive_seed(seed, 9))
    for trial in range(500):
        q = (2, 3, 4)[rng.below(3)]
        n = 1 + rng.below(3)
        p, k0 = (q, 1) if q != 4 else (2, 2)
        rep = covering_trial(build_field(p, k0), n, rng)
        if not rep.passed:
            failures.append({"trial": trial, "evidence": rep.evidence})
    return CriterionResult(
        "C9",
        "covering bound exact on 500 seeded point sets",
        not failures,
        {"trials": 500, "failures": failures},
    )


def criterion_10(seed: int = CORPUS_SEED) -> CriterionResult:
    """Fast engine == naive oracle."""
    failures = []
    for i in range(SMALL_CORPUS):
        system = corpus_system(seed, i)
        fast = fast_count(system)
        slow = oracle_count(system)
        if fast != slow:
            failures.append({"index": i, "fast": fast, "oracle": slow})
    return CriterionResult(
        "C10",
        f"fast engine equals the oracle on {SMALL_CORPUS} systems",
        not failures,
        {"checked": SMALL_CORPUS, "failures": failures},
    )


def _distinct_linear_forms(F, n: int, t: int, rng: SplitMix64) -> list[MultiPoly]:
    """t distinct normalized affine-linear forms (distinct hyperplanes)."""
    forms: list[tuple[int, ...]] = []
    while len(forms) < t:
        coeffs = [rng.below(F.q) for _ in range(n)]
        const = rng.below(F.q)
        lead = next((i for i, c in enumerate(coeffs) if c), None)
        if lead is None:
            continue
        inv = F.inv(coeffs[lead])
        norm = tuple(F.mul(inv, c) for c in coeffs) + (F.mul(inv, const),)
        if norm in forms:
            continue
        forms.append(norm)
    out = []
    for norm in forms:
        items = [
            (tuple(1 if j == i else 0 for j in range(n)), norm[i])
            for i in range(n)
            if norm[i]
        ]
        if norm[n]:
            items.append(((0,) * n, norm[n]))
        out.append(MultiPoly.from_terms(F, n, items))
    return out


def criterion_11(seed: int = CORPUS_SEED) -> CriterionResult:
    """Estimator exactness on split products, and a clean conjecture scan."""
    failures = []
    cases = 0
    for q in (2, 3):
        F = build_field(q, 1)
        for n in (2, 3):
            for t in (1, 2, 3):
                for j in range(3):
                    rng = SplitMix64(derive_seed(seed, 11, q, n, t, j))
                    factors = _distinct_linear_forms(F, n, t, rng)
                    prod = factors[0]
                    for g in factors[1:]:
                        prod = prod * g
                    est = estimate_dimension(PolySystem([prod]), 3)
                    cases += 1
                    if est.d_hat != n - 1 or est.k_hat != t:
                        failures.append(
                            {
                                "q": q,
                                "n": n,
                                "t": t,
                                "j": j,
                                "d_hat": est.d_hat,
                                "k_hat": est.k_hat,
                                "counts": est.counts,
                            }
                        )
    rows, flagged = conjecture_scan(seed=seed)
    if flagged:
        failures.append({"scan_flags": [r.to_csv() for r in flagged]})
    return CriterionResult(
        "C11",
        f"dimension estimator exact on {cases} split products; scan of "
        f"{len(rows)} systems has zero flags",
        not failures,
        {"split_cases": cases, "scan_rows": len(rows), "failures": failures},
    )


# each preset's criteria, in order
PRESETS: dict[str, tuple[Callable[[int], CriterionResult], ...]] = {
    "acceptance": (
        criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, lambda seed: criterion_6(),
        criterion_7, criterion_8, criterion_9, criterion_10, criterion_11,
    ),
    "lemma2-exhaustive": (criterion_8,),
    # counts for every q; the heavy factor search only over F_81 here
    "examples": (lambda seed: criterion_6(), lambda seed: criterion_7(seed, qs=(3,))),
}


def run_preset(preset: str, seed: int = CORPUS_SEED, echo=print) -> list[CriterionResult]:
    """Run a preset's criteria in order, timing and echoing each; KeyError
    for an unknown preset."""
    results = []
    for criterion in PRESETS[preset]:
        t0 = time.perf_counter()
        res = criterion(seed)
        res.elapsed = time.perf_counter() - t0
        results.append(res)
        echo(res.line())
    return results
