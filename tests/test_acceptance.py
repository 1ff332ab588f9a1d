"""The acceptance battery: every criterion at its stated tolerance.

Runs the same functions as `cwlab suite --preset acceptance` and prints one
pass/fail line per criterion.  All verdicts are exact; the only tolerances
anywhere are the stated runtime ceilings.  Each criterion's `details` at
seed 0 must equal its entry in acceptance_details_golden.json, byte for
byte once written as JSON.
"""

import json
import time
from pathlib import Path

from cwlab.suite import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)

SEED = 0
GOLDEN = json.loads((Path(__file__).parent / "acceptance_details_golden.json").read_text())


def _timed(criterion, *args):
    """The criterion's result, its wall time set as `run_preset` sets it."""
    t0 = time.perf_counter()
    res = criterion(*args)
    res.elapsed = time.perf_counter() - t0
    return res


def _pinned(res):
    """Whether the criterion's details, written as JSON, are its golden text."""
    return json.dumps(res.details, default=str) == json.dumps(GOLDEN[res.cid])


def test_c1_ax_congruence_corpus():
    res = _timed(criterion_1, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.details["checked"] == 1000
    assert res.elapsed < 300  # stated ceiling: five minutes, single worker


def test_c2_parallel_subspace_congruence():
    res = _timed(criterion_2, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.details["truncated_systems"] == 0


def test_c3_hyperplane_congruence():
    res = _timed(criterion_3, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.details["truncated_systems"] == 0


def test_c4_homogenization_identity():
    res = _timed(criterion_4, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.details["checked"] == 1000


def test_c5_lower_bounds_and_norm_equality():
    res = _timed(criterion_5, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert len(res.details["equality_cases"]) == 12


def test_c6_quadric_times_norm():
    res = _timed(criterion_6)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.details["quadric_counts"] == {2: 6, 3: 21, 4: 52, 5: 105, 7: 301}
    assert res.details["n6_count"] == 34 and res.details["display_flagged"]


def test_c7_nonsplit_quartic():
    res = _timed(criterion_7, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    for q in (3, 4, 5):
        assert res.details[q]["count"] == 1
        assert res.details[q]["factor_found"] is False
    assert res.details["q2_refused"]


def test_c8_saturation_sweeps():
    res = _timed(criterion_8, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.elapsed < 600  # stated ceiling: ten minutes
    runs = {(r["q"], r["t"], r["part"], r["m"]): r for r in res.details["runs"]}
    assert len(runs) == 16 and {r["mode"] for r in runs.values()} == {"exhaustive"}
    for key, r in runs.items():
        assert r["subsets"] == 2 ** (key[0] ** key[1]), key
    # every subset of A^2(F_5) and of A^3(F_3): how many meet the hypothesis
    met = {(5, 2, "ii", None): 1, (5, 2, "iii", None): 206, (5, 2, "iv", 2): 46416,
           (5, 2, "iv", 3): 206, (5, 2, "iv", 4): 1, (3, 3, "ii", None): 1}
    assert {key: runs[key]["hypothesis_met"] for key in met} == met


def test_c9_covering_bound_random_sets():
    res = _timed(criterion_9, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
    assert res.details["trials"] == 500


def test_c10_oracle_equivalence_and_workers():
    res = _timed(criterion_10, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details


def test_c11_dimension_estimator_and_scan():
    res = _timed(criterion_11, SEED)
    print(res.line())
    assert res.passed, res.details
    assert _pinned(res), res.details
