"""Dimension estimation from extension counts; linear factor search."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cwlab import counting, geometry
from cwlab.constructions import example_two, norm_form, random_system
from cwlab.errors import BudgetExceeded, DegreeTooLarge, InsufficientExtensions, InvalidArgument, NotHomogeneous
from cwlab.fields import build_field
from cwlab.geometry import (
    _algebraic_candidates,
    _exact_linear_division,
    _lift_poly,
    _line_masks,
    _nearest_exponent,
    _probe_lines,
    conjecture_scan,
    estimate_dimension,
    linear_factor_test,
)
from cwlab.polynomials import MultiPoly, PolySystem, parse_poly
from references import leading_form, normalized_forms, screened_factor

F2 = build_field(2, 1)
F3 = build_field(3, 1)


def test_estimator_hyperplane():
    est = estimate_dimension(PolySystem([parse_poly("x1", F2, ["x1", "x2"])]), 4)
    assert [c for _, c in est.counts] == [2, 4, 8, 16]
    assert est.d_hat == 1 and est.k_hat == 1


def test_estimator_split_pair():
    est = estimate_dimension(PolySystem([parse_poly("x1*x2", F2, ["x1", "x2"])]), 4)
    assert [c for _, c in est.counts] == [3, 7, 15, 31]
    assert est.d_hat == 1 and est.k_hat == 2


def test_estimator_norm_form_even_split():
    # the binary norm form splits only over even-degree extensions; the
    # adjacent ratio is useless and the estimator widens the gap
    est = estimate_dimension(PolySystem([norm_form(F2, 2)]), 4)
    assert [c for _, c in est.counts] == [1, 7, 1, 31]
    assert est.d_hat == 1 and est.k_hat == 2
    assert est.anchor_pair == (2, 4)


def test_estimator_empty_zero_set():
    nonvanishing = PolySystem([parse_poly("x1^2 + x1 + 1", F2, ["x1", "x2"])])
    est = estimate_dimension(nonvanishing, 2)
    # x^2+x+1 gains roots over F_4, so only s=1 is empty here; check shape
    assert est.counts[0][1] == 0
    truly_empty = PolySystem(
        [parse_poly("x1", F2, ["x1"]), parse_poly("x1 + 1", F2, ["x1"])]
    )
    est2 = estimate_dimension(truly_empty, 3)
    assert est2.d_hat is None and est2.k_hat is None


def test_estimator_needs_two_extensions():
    with pytest.raises(InsufficientExtensions):
        estimate_dimension(PolySystem([parse_poly("x1", F2, ["x1"])]), 1)


def test_estimator_integer_rounding_matches_float():
    # the integer choice of d_hat agrees with the float rule it replaced,
    # round(log(N_hi / N_lo) / (gap log q)), on the counts of the estimator
    # tests, for every pair of nonzero counts and for each single count
    from cwlab.constructions import embed_in_more_variables

    forms = [
        (F2, parse_poly("x1", F2, ["x1", "x2"]), 4),
        (F2, parse_poly("x1*x2", F2, ["x1", "x2"]), 4),
        (F2, norm_form(F2, 2), 4),
        (F3, parse_poly("x1*(x1 + x2)*(x1 + 2*x2)", F3, ["x1", "x2"]), 3),
    ] + [(F, embed_in_more_variables(norm_form(F, k), n), smax) for F, k, n, smax in ((F2, 2, 3, 3), (F3, 2, 3, 3), (F2, 3, 4, 4))]
    compared = 0
    for F, f, smax in forms:
        counts = [c for _, c in estimate_dimension(PolySystem([f]), smax).counts]
        for hi in range(len(counts)):
            if counts[hi]:
                assert _nearest_exponent(counts[hi], 1, F.q ** (hi + 1)) == round(
                    math.log(counts[hi]) / ((hi + 1) * math.log(F.q))
                )
            for lo in range(hi):
                if counts[hi] and counts[lo]:
                    gap = hi - lo
                    float_choice = round(math.log(counts[hi] / counts[lo]) / (gap * math.log(F.q)))
                    assert _nearest_exponent(counts[hi], counts[lo], F.q**gap) == float_choice
                    compared += 1
    assert compared == 33
    # exact halves go to the even neighbour, as round() does
    assert [_nearest_exponent(n, 1, 4) for n in (2, 8, 32)] == [0, 2, 2]


def test_normalized_form_count():
    K = build_field(2, 2)
    forms = list(normalized_forms(K, 3))
    assert len(forms) == (K.q**3 - 1) // (K.q - 1) == 21
    assert len(set(forms)) == 21


def test_linear_factor_explicit_split():
    f = parse_poly("x1*(x1 + x2)", F2, ["x1", "x2"])
    verdict = linear_factor_test(f, 1)
    assert verdict.found and verdict.witness == (1, 0)


def test_linear_factor_none_for_norm_form():
    verdict = linear_factor_test(norm_form(F2, 2), 1)
    assert not verdict.found and verdict.forms_checked == 3
    # over F_4 the same form splits into two conjugate lines
    split = linear_factor_test(norm_form(F2, 2), 2)
    assert split.found


def test_linear_factor_confidence_is_exact_rational():
    verdict = linear_factor_test(norm_form(F3, 2), 2, trials=5)
    assert verdict.error_bound == Fraction(2, 9) ** 5


def test_linear_factor_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        linear_factor_test(parse_poly("x1 + 1", F2, ["x1", "x2"]), 1)


def test_linear_factor_rejects_negative_trials():
    # an error bound (d/Q)^T from T < 0 trials is no bound; T = 0 gives 1
    f = example_two(F3).poly
    for trials in (-1, -3):
        with pytest.raises(InvalidArgument):
            linear_factor_test(f, 1, trials=trials)
    assert linear_factor_test(f, 1, trials=0).error_bound == 1


def test_linear_factor_trials_are_capped():
    # the error bound of MAX_TRIALS trials over the largest field prints as
    # JSON; one trial past the cap (10,000 trials, found by the input
    # fuzzer, made a bound too long to print) is a budget error, raised
    # before the lift
    f = parse_poly("x1^2 + x2^2 - x3*x4", build_field(5, 1), ["x1", "x2", "x3", "x4"])
    verdict = linear_factor_test(parse_poly("x1*x2", build_field(2, 10), ["x1", "x2"]), 2, trials=geometry.MAX_TRIALS)
    assert verdict.found and len(verdict.to_dict()["error_bound"]) < 4300
    for trials in (geometry.MAX_TRIALS + 1, 10_000, 10**18):
        with pytest.raises(BudgetExceeded):
            linear_factor_test(f, 1, trials=trials)


def test_lift_to_the_field_itself_is_the_form():
    f = norm_form(F3, 2)
    lifted, K = _lift_poly(f, 1)
    assert lifted is f and K is F3
    H = build_field(3, 2, (2, 2, 1))  # F_9 on another modulus lifts to the canonical one
    g = parse_poly("x1^2 + x2^2", H, ["x1", "x2"])
    lifted, K = _lift_poly(g, 1)
    assert K is build_field(3, 2) and lifted.field is K and lifted is not g


def _agree(f, s, trials=6, seed=0):
    """The algebraic search and the reference screen give the same verdict."""
    a = linear_factor_test(f, s, trials=trials, seed=seed)
    assert a.witness == screened_factor(f, s, trials, seed) and a.found == (a.witness is not None)
    assert a.candidates <= a.forms_checked
    return a


def _planted_products():
    """Planted factors over F_3, F_4, F_9 and F_25, most not first in order."""
    rng = random.Random(7)
    for (p, k), n in (((3, 1), 4), ((2, 2), 4), ((3, 2), 3), ((5, 2), 3)):
        F = build_field(p, k)
        for trial in range(4):
            lin = MultiPoly.from_terms(
                F, n, [(tuple(int(t == i) for t in range(n)), rng.randrange(F.q)) for i in range(n)]
            )
            if lin.is_zero:
                continue
            quad = leading_form(random_system(F, n, (2,), rng.randrange(1 << 30)).polys[0])
            yield trial, lin * quad


def _division_by_substitution(f, K, coeffs):
    """Reference: substitute x_j := -sum_{i != j} c_i x_i into every
    variable slot of f and test the result for zero."""
    n = f.nvars
    j = next(i for i, c in enumerate(coeffs) if c)
    subs = [MultiPoly.variable(K, n, i) for i in range(n)]
    subs[j] = MultiPoly.from_terms(
        K, n, [(tuple(int(t == i) for t in range(n)), K.neg(c)) for i, c in enumerate(coeffs) if i != j]
    )
    return f.substituted(subs).is_zero


def test_exact_linear_division_matches_substitution():
    # a planted normalized factor l divides l*form, l^2*form and l^3*form
    # (x_j to higher powers); other normalized forms are tested against the
    # same products
    rng = random.Random(11)
    refuted = 0
    for (p, k), n in (((3, 1), 4), ((2, 2), 4), ((3, 2), 3), ((5, 2), 3), ((2, 3), 3), ((3, 3), 3)):
        K = build_field(p, k)
        for trial in range(4):
            j = rng.randrange(n)
            planted = (0,) * j + (K.one,) + tuple(rng.randrange(K.q) for _ in range(n - 1 - j))
            lin = MultiPoly.from_terms(
                K, n, [(tuple(int(t == i) for t in range(n)), c) for i, c in enumerate(planted)]
            )
            form = leading_form(random_system(K, n, (2,), rng.randrange(1 << 30)).polys[0])
            others = [
                (0,) * i + (K.one,) + tuple(rng.randrange(K.q) for _ in range(n - 1 - i))
                for i in (rng.randrange(n) for _ in range(4))
            ]
            for f in (lin * form, lin * lin * form, lin * lin * lin * form):
                for coeffs in [planted] + others:
                    verdict = _exact_linear_division(f, K, coeffs)
                    assert verdict == _division_by_substitution(f, K, coeffs)
                    refuted += not verdict
                assert _exact_linear_division(f, K, planted)
    assert refuted > 64


# (candidates, witness) of the algebraic search on each input of
# test_numpy_and_python_paths_agree, in order, from the interpolation on the
# probe lines.  Every witness is the one the earlier search along axis, pair
# and weighted lines gave.  The candidates moved on twelve inputs, 73 in all
# against its 70: up by one or two where a tail that its pair lines refuted
# lands on a root of every probe, down to one on the last form.
SEARCH_RESULTS = [
    (1, None), (1, (3, 0, 0)), (1, (1, 0, 1, 2)), (1, (0, 1, 0, 2)), (1, (1, 0, 0, 0)),
    (1, (1, 0, 0, 0)), (1, (0, 0, 2, 0)), (1, (0, 2, 0, 2)), (3, (2, 3, 0, 1)), (3, (0, 2, 3, 0)),
    (1, (0, 3, 7)), (1, (3, 6, 6)), (1, (3, 7, 4)), (1, (3, 5, 7)), (1, (5, 14, 7)),
    (1, (5, 7, 23)), (1, (5, 24, 10)), (1, (5, 21, 2)), (2, None), (3, None), (3, None), (3, None),
    (3, None), (3, None), (1, (1, 0, 0, 0)), (1, (3, 0, 0, 0)), (1, (2, 0, 0, 0)),
    (1, (8, 0, 0, 0)), (1, (1, 0, 0, 0)), (1, (5, 0, 0, 0)), (1, (0, 0, 1, 0)), (3, (0, 0, 3, 0)),
    (1, (2, 2, 2, 2)), (1, (8, 8, 8, 8)), (1, (0, 0, 1, 0)), (1, (0, 0, 5, 0)), (1, (0, 0, 0, 1)),
    (1, (0, 0, 0, 3)), (1, (0, 0, 0, 2)), (1, (0, 0, 0, 8)), (1, (0, 0, 0, 1)), (1, (0, 0, 0, 5)),
    (1, None), (1, None), (1, None), (1, None), (1, None), (1, None), (3, None), (1, None),
    (1, None), (1, None), (1, None), (1, None),
]


def test_numpy_and_python_paths_agree():
    f = parse_poly("x1^2*x2 + x2^2*x3 + x3^3", F3, ["x1", "x2", "x3"])
    verdicts = [_agree(f, 2, trials=3, seed=5)]
    g = parse_poly("x1*(x1 + x2 + x3)*(x2 + 2*x3)", F3, ["x1", "x2", "x3"])
    verdicts.append(_agree(g, 2, trials=3, seed=1))
    assert verdicts[-1].found
    for trial, planted in _planted_products():
        verdicts.append(_agree(planted, 1, seed=trial))
        assert verdicts[-1].found
    # forms that vanish on coordinate lines and planes
    names = ["x1", "x2", "x3", "x4"]
    for text in (
        "x1*x3+x2*x4",
        "x1*x2*x3*x4",
        "x3*(x1^2+x2^2+x3^2+x4^2)",
        "x4^3",
        "(x2+x3)^2*x1+x4^3",
        "x1*(x2*x3*(x2-x3)+x2*x4*(x2-x4)+x3*x4*(x3-x4)) + x2*x3*x4*(x2+x3+x4)",
    ):
        for F in (F3, build_field(2, 2), build_field(5, 1)):
            for s in (1, 2):
                verdicts.append(_agree(parse_poly(text, F, names), s))
    assert [(v.candidates, v.witness) for v in verdicts] == SEARCH_RESULTS


FOUND_FORM = "x1*(x2*x3*(x2-x3)+x2*x4*(x2-x4)+x3*x4*(x3-x4)) + x2*x3*x4*(x2+x3+x4)"


def _full_rank_bound(d, n):
    """The candidates `_algebraic_candidates` yields at most when every pivot
    j has n - 1 - j independent proper probes: d^(n-1-j) tails for each,
    and the last pivot's one form."""
    return sum(d ** (n - 1 - j) for j in range(n))


def test_algebraic_search_keeps_few_candidates():
    # over F_625, as F_5 with s = 4 and as F_25 with s = 2.  x1*x3 + x2*x4
    # vanishes on coordinate planes, and FOUND_FORM on every plane through x1
    # and two other axes (the earlier search along axis lines enumerated
    # 244 M tails on it).  x2*x4 - x3^2 vanishes on the whole moment curve of
    # pivot x1, its first probe family, so a second evaluation takes over,
    # alone and times a planted form.
    names = ["x1", "x2", "x3", "x4"]
    quadric = "(x2*x4 - x3^2)"
    K, Q = build_field(5, 4), 5**4
    for F, s in ((build_field(5, 1), 4), (build_field(5, 2), 2)):
        for text, planted in (
            ("x1*x3+x2*x4", None),
            (FOUND_FORM, None),
            (quadric, None),
            (quadric + "*(x1 + 2*x2 + 3*x3 + x4)", (1, 2, 3, 1)),
            (quadric + "*(x2 + 4*x4)", (0, 1, 0, 4)),
        ):
            f = parse_poly(text, F, names)
            verdict = linear_factor_test(f, s)
            witness = planted and tuple(K.from_int(c) for c in planted)
            assert (verdict.found, verdict.witness) == (planted is not None, witness), text
            assert verdict.forms_checked == (Q**4 - 1) // (Q - 1) and verdict.field_size == Q
            assert 1 <= verdict.candidates <= _full_rank_bound(int(f.total_degree), 4), text
            if planted:
                assert _division_by_substitution(_lift_poly(f, s)[0], K, witness)


def _line_forms():
    forms = [f for _, f in _planted_products() if f.field.q in (4, 9, 25)]
    forms += [example_two(build_field(2, 2)).poly]
    forms += [_lift_poly(example_two(build_field(p, 1)).poly, 2)[0] for p in (3, 5)]
    assert {f.field.q for f in forms} == {4, 9, 25}
    return forms


def _probe_reference(K, n, j, s, scaled):
    """The rows u(w) of `_probe_lines`, one scalar at a time: the columns
    j + 1 .. n - 1, 0 .. j - 1 are places e, and u is a_(e-s) * w^(e-s) from
    place s on, a_e = gamma^(e(e-1)/2) when scaled (else 1); a family with
    one place from s on is one line, so w = 0 alone."""
    gamma = int(K.tables.exp[1])
    places = list(range(j + 1, n)) + list(range(j))
    rows = []
    for w in range(min(K.q if n - 1 - s > 1 else 1, n - 1 - j - s + geometry.PROBE_SLACK)):
        u = [0] * n
        for e in range(s, n - 1):
            a = K.pow(gamma, (e - s) * (e - s - 1) // 2) if scaled else K.one
            u[places[e]] = K.mul(a, K.pow(w, e - s))
        rows.append(u)
    return rows


def _probe_lines_from_power_logs(K, n, j, s, scaled):
    """`_probe_lines`' rows as read from the whole power-log table of the
    field, log(x^e) at every x, (n - 1 - s) x q (Z at x = 0 for e > 0, 0
    for e = 0), cut to the probes' columns."""
    T, e = K.tables, np.arange(n - 1 - s)
    table = (e[:, None] * T.log % (K.q - 1)).astype(T.log.dtype)
    table[:, 0] = np.where(e > 0, T.log[0], 0)
    logs = table[:, : min(K.q if n - 1 - s > 1 else 1, n - 1 - j - s + geometry.PROBE_SLACK)]
    logs = logs + scaled * (e * (e - 1) // 2 % (K.q - 1))[:, None]
    U = np.zeros((logs.shape[1], n), dtype=np.intp)
    U[:, [*range(j + 1 + s, n), *range(j)]] = T.exp.take(logs, mode="clip").T
    return U.tolist()


def test_probe_lines_read_only_their_columns_of_powers():
    # the rows, from the logs of the first elements w alone, are those of the
    # whole power-log table; over F_2^16 there are 5 + PROBE_SLACK of them
    for K in (build_field(2, 2), build_field(3, 2), build_field(5, 2), build_field(2, 8)):
        for n in range(1, 8):
            for j, s, scaled in itertools.product(range(n - 1), range(n - 1), (False, True)):
                if j + s < n - 1:
                    got = _probe_lines.__wrapped__(K, n, j, s, scaled).tolist()
                    assert got == _probe_lines_from_power_logs(K, n, j, s, scaled), (K.q, n, j, s, scaled)
    assert _probe_lines.__wrapped__(build_field(2, 16), 6, 0).shape == (5 + geometry.PROBE_SLACK, 6)


def test_line_masks_match_pointwise_evaluation():
    # each row of the stacked masks is f, point by point, along its probe
    # line, for every family of every pivot with a free column; w = 0 is the
    # axis line of column j + 1 + s
    for fK in _line_forms():
        K, n = fK.field, fK.nvars
        families = tuple((K, n, j, s, scaled) for j in range(n - 1) for s in range(n - 1 - j) for scaled in (False, True))
        lines = [(family[2], _probe_lines(*family)) for family in families]
        assert not any(U.flags.writeable for _, U in lines)
        assert [U.tolist() for _, U in lines] == [_probe_reference(*family) for family in families]
        assert [U[0].tolist() for _, U in lines] == [[K.one * (i == j + 1 + s) for i in range(n)] for _, _, j, s, _ in families]
        masks = _line_masks(fK, families)
        assert [M.shape for M in masks] == [(len(U), K.q) for _, U in lines]
        for (j, U), M in zip(lines, masks):
            for u, row in zip(U.tolist(), M.tolist()):
                for t in range(K.q):
                    pt = list(u)
                    pt[j] = K.neg(t)
                    assert row[t] == (fK.evaluate(pt) == 0)


def _zech_forms(K, n):
    """Two seeded forms in n variables over K: a planted product, a quadric
    times a linear form, and a cubic."""
    lin = MultiPoly.from_terms(K, n, [(tuple(int(t == i) for t in range(n)), 1 + 5 * i % (K.q - 1)) for i in range(n)])
    quad = leading_form(random_system(K, n, (2,), 31 * K.q + n).polys[0])
    return [quad * lin, leading_form(random_system(K, n, (3,), 37 * K.q + n).polys[0])]


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (3, 4), (5, 4)], ids=["9", "25", "27", "81", "625"])
def test_gemm_step_matches_trie_step_and_pointwise_over_zech_fields(p, k, monkeypatch):
    # over the odd-p extension fields F_9, F_25, F_27, F_81 and F_625: the
    # probe-line masks of both families, (s = 0, unscaled) and the (s,
    # scaled) ones a short pivot adds, in three variables, by the step at
    # s = 0 on their M' and at s = 1 (x_j the grid) by both sums, forced
    # past the rule, and f point by point along each line; then the cone
    # pass of each form, and the grid pass of the two as a system, in two
    # and three variables, at every split and point by point
    from test_counting import _check_splits

    K = build_field(p, k)
    Q, n = K.q, 3
    families = tuple((K, n, j, s, scaled) for j in range(n - 1) for s in range(n - 1 - j) for scaled in (False, True))
    lines = [(family[2], _probe_lines(*family)) for family in families]
    for f in _zech_forms(K, n):
        by_split = []
        for split in ((0, False), (1, False), (1, True)):
            monkeypatch.setattr(geometry, "_rule", lambda p, k, shapes, split=split: split)
            by_split.append([M.tolist() for M in _line_masks(f, families)])
        assert by_split[0] == by_split[1] == by_split[2] and any(map(np.any, by_split[0]))
        for (j, U), M in zip(lines, by_split[0]):
            for u, row in zip(U.tolist(), M):
                pts = [u[:j] + [K.neg(t)] + u[j + 1 :] for t in range(Q)]
                assert row == [f.evaluate(pt) == 0 for pt in pts]
    passes = 0
    for n in (2, 3):
        forms = _zech_forms(K, n)
        for system, cone in [(PolySystem([f]), True) for f in forms] + [(PolySystem(forms), False)]:
            if Q * counting._prefix_count(Q, n - 1, cone) > counting.GEMM_POINTS:
                continue
            passes += 1
            zeros = _check_splits(system, cone)
            points = counting._pass_points(K.tables, n, cone)
            coords = counting._coordinates(points, Q, n).T.tolist()
            assert zeros.tolist() == [x for x, pt in zip(points.tolist(), coords) if all(g.evaluate(pt) == 0 for g in system.polys)]
    assert passes >= 2


def test_candidates_take_one_evaluation(monkeypatch):
    # one run evaluates the first probe family of every pivot in a single
    # step at s = 0 (these forms' lines are within the GEMM bounds), and
    # these forms need no second one; the last pivot's form comes with no
    # evaluation
    calls, pivots, lined = [], [], []
    step, line_masks = geometry._step, geometry._line_masks

    def counted(*args, **kwargs):
        blocks = list(step(*args, **kwargs))
        calls.append(sum(V.shape[1] * V.shape[2] for _, _, V in blocks))
        return iter(blocks)

    def recorded(fK, families):
        pivots.append({j for _, _, j, *_ in families})
        calls.clear()
        masks = line_masks(fK, families)
        lined.append(list(calls))
        return masks

    monkeypatch.setattr(geometry, "_step", counted)
    monkeypatch.setattr(geometry, "_line_masks", recorded)
    for fK in _line_forms():
        K, n = fK.field, fK.nvars
        pivots.clear()
        lined.clear()
        forms = list(_algebraic_candidates(fK))
        assert pivots == [set(range(n - 1))]
        assert lined == [[K.q * sum(len(_probe_lines(K, n, j)) for j in range(n - 1))]]
        assert forms[-1] == (0,) * (n - 1) + (K.one,)


def test_candidates_cover_every_dividing_form():
    # seeded forms over F_2, F_3, F_4, F_5, F_8 and F_9 in 2 to 4 variables:
    # products with a repeated factor, with factors free of the pivot x1,
    # x_n times a form (f then vanishes on the axis lines of the columns
    # before n), x1^q*x_n - x1*x_n^q (0 at every point, so on every probe
    # line) times a factor, and the moment-curve quadric x2*x4 - x3^2 alone
    # and times a factor.  The candidates are a superset of the normalized
    # forms that divide, found by exact division of every form, in
    # normalized_forms order with none twice.
    rng = random.Random(23)
    checked = 0
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)):
        F = build_field(p, k)
        for n in (2, 3, 4):
            x = [MultiPoly.variable(F, n, i) for i in range(n)]
            order = {c: i for i, c in enumerate(normalized_forms(F, n))}

            def linear(free_of):
                return MultiPoly.from_terms(
                    F, n, [(tuple(int(t == i) for t in range(n)), rng.randrange(F.q)) for i in range(free_of, n)]
                )

            for trial in range(6):
                a, b = linear(0), linear(trial % n)
                if a.is_zero or b.is_zero:
                    continue
                g = leading_form(random_system(F, n, (2,), rng.randrange(1 << 30)).polys[0])
                forms = [a * g, a * a * b, a * b * b * b, x[-1] * g, (x[0] ** F.q * x[-1] - x[0] * x[-1] ** F.q) * b]
                if n == 4:
                    forms += [x[1] * x[3] - x[2] * x[2], (x[1] * x[3] - x[2] * x[2]) * b]
                for f in forms:
                    if f.is_zero:
                        continue
                    got = list(_algebraic_candidates(f))
                    dividing = [c for c in order if _exact_linear_division(f, F, c)]
                    assert set(dividing) <= set(got), (F.q, n, f)
                    assert [order[c] for c in got] == sorted(set(order[c] for c in got)), (F.q, n, f)
                    checked += 1
    assert checked > 250


def test_candidates_past_chunk_run_in_order():
    # x1*x2*(x1 + x2) is 0 at every point of F_2^18, so no probe line is
    # proper and pivot x1's 2^17 tails, past CHUNK, run over K^17 in order,
    # CHUNK at a time: the first candidates are the first forms, and the
    # first of them divides
    n = 18
    x = [MultiPoly.variable(F2, n, i) for i in range(n)]
    f = x[0] * x[1] * (x[0] + x[1])
    assert 2 ** (n - 1) > geometry.CHUNK
    assert list(itertools.islice(_algebraic_candidates(f), 6)) == list(itertools.islice(normalized_forms(F2, n), 6))
    verdict = linear_factor_test(f, 1)
    assert verdict.witness == (1,) + (0,) * (n - 1) and verdict.candidates == 1


def test_factor_budget_is_checked_before_the_lift(monkeypatch):
    # a quartic over F_2 at s = 19 has (2^76 - 1)/(2^19 - 1) forms: the
    # budget error comes before F_2^19 is built, as it does for a small
    # budget; past the field cap (s = 21) and at s = 0 the lift's own errors
    # still come first
    built = []

    def recording(p, k, modulus=None):
        built.append((p, k))
        return build_field(p, k, modulus)

    monkeypatch.setattr(geometry, "build_field", recording)
    f = parse_poly("x1^4 + x1*x2*x3*x4", F2, ["x1", "x2", "x3", "x4"])
    for s, budget in ((19, geometry.FORM_BUDGET), (10, geometry.FORM_BUDGET), (2, 84)):
        with pytest.raises(BudgetExceeded, match="forms exceed the budget"):
            linear_factor_test(f, s, form_budget=budget)
    assert built == []
    with pytest.raises(DegreeTooLarge):
        linear_factor_test(f, 21)
    with pytest.raises(InvalidArgument):
        linear_factor_test(f, 0)
    assert built == [(2, 21), (2, 0)]
    assert linear_factor_test(f, 2, form_budget=85).forms_checked == 85 and built[-1] == (2, 2)


def test_factor_verdict_body_adds_candidates():
    body = linear_factor_test(norm_form(F2, 2), 2).to_dict()
    assert list(body) == ["found", "witness", "forms_checked", "trials", "error_bound", "field_size", "candidates"]
    assert body["candidates"] >= 1


def test_trials_and_seed_decide_no_verdict():
    # the search is exact: trials feeds only the reported error bound and
    # seed nothing, so every (trials, seed) pair gives one verdict
    g = parse_poly("x1*(x1 + x2 + x3)*(x2 + 2*x3)", F3, ["x1", "x2", "x3"])
    for f in (norm_form(F3, 2), g, example_two(F3).poly):
        d = int(f.total_degree)
        for s in (1, 2):
            bodies = []
            for trials, seed in ((0, 0), (1, 7), (6, 0), (6, 2**40 + 3), (geometry.MAX_TRIALS, 5)):
                body = linear_factor_test(f, s, trials, seed).to_dict()
                assert body.pop("trials") == trials
                assert body.pop("error_bound") == str(min(1, Fraction(d, F3.q**s) ** trials))
                bodies.append(body)
            assert all(body == bodies[0] for body in bodies), (f, s)
    assert bodies[0]["candidates"] >= 1


def test_example_two_has_no_linear_factor_over_quartic_extension():
    built = example_two(F3)
    verdict = linear_factor_test(built.poly, 4, trials=6, seed=0)
    assert not verdict.found
    assert verdict.error_bound == Fraction(4, 81) ** 6


def test_products_of_linear_forms_estimate():
    f = parse_poly("x1*(x1 + x2)*(x1 + 2*x2)", F3, ["x1", "x2"])
    est = estimate_dimension(PolySystem([f]), 3)
    assert est.d_hat == 1 and est.k_hat == 3


def test_norm_form_equality_case_estimates_exactly():
    # over F_q the zero set is an affine subspace of dimension n - d; the
    # estimate lands there with multiplicity one provided the anchor
    # extension keeps the form anisotropic (a degree-k norm form splits
    # exactly over the extensions whose degree is a multiple of k, and an
    # anchor on a split count honestly reports the closure geometry instead)
    from cwlab.constructions import embed_in_more_variables

    for F, k, n, smax in ((F2, 2, 3, 3), (F3, 2, 3, 3), (F2, 3, 4, 4)):
        f = embed_in_more_variables(norm_form(F, k), n)
        est = estimate_dimension(PolySystem([f]), smax)
        assert est.d_hat == n - k and est.k_hat == 1


def test_conjecture_scan_smoke():
    rows, flagged = conjecture_scan(
        qs=(2,), ns=(2, 3), profiles=((1,), (2,)), per_cell=1, seed=0
    )
    assert rows and not flagged
    for row in rows:
        assert row.d_hat >= row.floor
    # each q is scanned over the field of that order: a linear polynomial
    # in two variables over F_9 has 9 zeros
    rows, _ = conjecture_scan(qs=(9,), ns=(2,), profiles=((1,),), per_cell=1)
    assert rows[0].q == 9 and rows[0].counts[0] == 9


def test_tail_map_product_at_the_largest_shape_the_budgets_admit():
    # the tail map's product has partial sums of at most P k (p - 1)^2, P =
    # n - 1 at pivot 0, over K = F_{p^k} <= FIELD_SIZE_CAP with at most
    # FORM_BUDGET forms (Q^n - 1) / (Q - 1).  The largest is a binary form
    # over F_1048573: past float32's range, well inside float64's.  There
    # the probe row -1 makes the map's entry p - 1, so the largest digit's
    # tail reaches the bound; and the search finds the least factor of
    # (x1 - x2)(x1 - 3 x2), whose roots on the probe line are p - 1 and p - 3
    from cwlab.fields import FIELD_SIZE_CAP, FLOAT32_EXACT, FLOAT64_EXACT

    sieve = np.ones(FIELD_SIZE_CAP + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(FIELD_SIZE_CAP) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    best = (0,)
    for p in np.flatnonzero(sieve).tolist():
        k = 1
        while p**k <= FIELD_SIZE_CAP:
            Q, n = p**k, 2
            while (Q ** (n + 1) - 1) // (Q - 1) <= geometry.FORM_BUDGET:
                n += 1
            if (Q**n - 1) // (Q - 1) <= geometry.FORM_BUDGET:
                best = max(best, ((n - 1) * k * (p - 1) ** 2, p, k, n))
            k += 1
    bound, p, k, n = best
    assert (bound, p, k, n) == (1048572**2, 1048573, 1, 2)
    assert FLOAT32_EXACT <= bound < FLOAT64_EXACT
    K = build_field(p, k)
    basis, tests, A = geometry._tail_map(K, n - 1, ((p - 1,),), True)
    assert basis == (0,) and not len(tests) and A.tolist() == [[p - 1]]
    assert K.tables.product(np.array([[p - 1]]), [A], bound).tolist() == [[K.mul(p - 1, p - 1)]] == [[1]]
    f = parse_poly("(x1 - x2)*(x1 - 3*x2)", K, ["x1", "x2"])
    verdict = linear_factor_test(f, 1)
    assert verdict.found and verdict.witness == (K.one, p - 3)
