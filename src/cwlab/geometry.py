"""Growth-rate dimension estimation and linear-factor testing.

The dimension of the zero set (as a variety) is estimated from exact counts
over extension fields: a D-dimensional set with k top-dimensional pieces has
about k * q^(sD) points over the degree-s extension.  The estimator is a
heuristic by design and reports residuals instead of a verdict.

The linear-factor test enumerates every normalized linear form over the
requested extension, eliminates non-divisors by evaluating the polynomial at
seeded random points of the form's hyperplane, and confirms any survivor by
exact division.  A confirmed verdict is never wrong; the reported error
bound concerns only the sampling stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .counting import count_zeros_ext, default_budget, evaluate_columns
from .errors import BudgetExceeded, InsufficientExtensions, NotHomogeneous
from .fields import FieldSpec, build_field, embed_subfield
from .polynomials import MultiPoly, PolySystem
from .rng import MASK64, derive_seed, mix64

FORM_BUDGET = 1 << 28
_BLOCK = 1 << 18


@dataclass
class DimensionEstimate:
    counts: list[tuple[int, int]]  # (s, N_s)
    d_hat: int | None  # None encodes the empty (-inf) sentinel
    k_hat: int | None
    residuals: list[float]
    anchor_pair: tuple[int, int] | None  # the (s_low, s_high) pair used

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "d_hat": self.d_hat,
            "k_hat": self.k_hat,
            "residuals": self.residuals,
            "anchor_pair": self.anchor_pair,
        }


def estimate_dimension(
    system: PolySystem, s_max: int, *, budget: int | None = None
) -> DimensionEstimate:
    """Estimate (dimension, multiplicity) from counts over F_{q^s}, s <= s_max.

    The dimension comes from the growth ratio of the two largest usable
    counts; when the adjacent ratio lands outside [0, n] (counts can
    oscillate with s, e.g. for forms that only split over even-degree
    extensions) the estimator widens the gap until the ratio is sane.
    """
    if s_max < 2:
        raise InsufficientExtensions("need counts over at least two extensions")
    F = system.field
    q, n = F.q, system.nvars
    counts = [
        (s, count_zeros_ext(system, s, budget=budget).count)
        for s in range(1, s_max + 1)
    ]
    by_s = dict(counts)
    anchor = max((s for s, c in counts if c > 0), default=None)
    if anchor is None:
        return DimensionEstimate(counts, None, None, [], None)
    d_hat = None
    pair = None
    for gap in range(1, anchor):
        low = anchor - gap
        if by_s[low] == 0:
            continue
        ratio = by_s[anchor] / by_s[low]
        cand = round(math.log(ratio) / (gap * math.log(q)))
        if 0 <= cand <= n:
            d_hat = cand
            pair = (low, anchor)
            break
    if d_hat is None:
        # single usable count: fit k*q^(s*D) ~ N_s with k ~ 1
        cand = round(math.log(by_s[anchor]) / (anchor * math.log(q))) if by_s[anchor] > 1 else 0
        d_hat = min(max(cand, 0), n)
        pair = None
    scale = q ** (anchor * d_hat)
    k_hat = max(1, (2 * by_s[anchor] + scale) // (2 * scale))
    residuals = [
        abs(c - k_hat * q ** (s * d_hat)) / q ** (s * (d_hat - 0.5)) for s, c in counts
    ]
    return DimensionEstimate(counts, d_hat, k_hat, residuals, pair)


# -- conjecture scan ----------------------------------------------------------------


@dataclass
class ScanRow:
    q: int
    n: int
    degrees: tuple[int, ...]
    index: int
    counts: list[int]
    d_hat: int | None
    k_hat: int | None
    floor: int  # n - d
    flagged: bool

    def to_csv(self) -> str:
        degs = "+".join(str(d) for d in self.degrees)
        cs = ";".join(str(c) for c in self.counts)
        dh = "" if self.d_hat is None else str(self.d_hat)
        kh = "" if self.k_hat is None else str(self.k_hat)
        return f"{self.q},{self.n},{degs},{self.index},{cs},{dh},{kh},{self.floor},{int(self.flagged)}"


SCAN_CSV_HEADER = "q,n,degrees,index,counts,d_hat,k_hat,n_minus_d,flagged"


def conjecture_scan(
    qs: Sequence[int] = (2, 3),
    ns: Sequence[int] = (2, 3, 4),
    profiles: Sequence[tuple[int, ...]] = ((1,), (2,), (3,), (1, 1), (2, 1)),
    per_cell: int = 2,
    seed: int = 0,
    s_cap: int = 3,
    *,
    budget: int | None = None,
) -> tuple[list[ScanRow], list[ScanRow]]:
    """Survey seeded random systems for estimates with d_hat < n - d.

    Returns (rows, flagged_rows).  A flag marks a candidate for human
    inspection; the estimator is heuristic, so a flag is never an automated
    refutation of the dimension conjecture.
    """
    from .constructions import random_system

    budget = budget if budget is not None else default_budget()
    rows: list[ScanRow] = []
    flagged: list[ScanRow] = []
    index = 0
    for q in qs:
        p, k = (q, 1) if q in (2, 3, 5, 7) else (2, 2)
        F = build_field(p, k)
        for n in ns:
            for prof in profiles:
                if sum(prof) > 3:
                    continue
                for j in range(per_cell):
                    index += 1
                    system = random_system(F, n, prof, derive_seed(seed, index))
                    s_max = max(
                        (s for s in range(2, s_cap + 1) if (q**s) ** n <= budget),
                        default=2,
                    )
                    est = estimate_dimension(system, s_max, budget=budget)
                    if est.d_hat is None:
                        continue  # empty over every probed extension
                    floor = n - system.total_degree
                    row = ScanRow(
                        q,
                        n,
                        tuple(prof),
                        index,
                        [c for _, c in est.counts],
                        est.d_hat,
                        est.k_hat,
                        floor,
                        est.d_hat < floor,
                    )
                    rows.append(row)
                    if row.flagged:
                        flagged.append(row)
    return rows, flagged


# -- linear factor test -------------------------------------------------------------


@dataclass
class LinearFactorVerdict:
    found: bool
    witness: tuple[int, ...] | None  # normalized form coefficients over F_{q^s}
    forms_checked: int
    trials: int
    error_bound: Fraction  # per-form sampling error, (d/Q)^T capped at 1
    field_size: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "witness": list(self.witness) if self.witness else None,
            "forms_checked": self.forms_checked,
            "trials": self.trials,
            "error_bound": str(self.error_bound),
            "field_size": self.field_size,
        }


def _np_mix(base: int, ranks: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 output mix of (base + gamma*rank)."""
    gamma = np.uint64(0x9E3779B97F4A7C15)
    z = (np.uint64(base & MASK64) + gamma * ranks.astype(np.uint64)) + gamma
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _point_coord(seed: int, s: int, trial: int, var: int, ranks: np.ndarray, Q: int) -> np.ndarray:
    u = _np_mix(derive_seed(seed, s, trial, var), ranks)
    return (u % np.uint64(Q)).astype(np.int32)


def _scalar_coord(seed: int, s: int, trial: int, var: int, rank: int, Q: int) -> int:
    gamma = 0x9E3779B97F4A7C15
    base = derive_seed(seed, s, trial, var)
    z = mix64((base + gamma * rank + gamma) & MASK64)
    return z % Q


def _lift_poly(f: MultiPoly, s: int) -> tuple[MultiPoly, FieldSpec]:
    F = f.field
    K = build_field(F.p, F.k * s)
    emb = embed_subfield(F, K)
    return f.map_coefficients(emb, K), K


def _exact_linear_division(fK: MultiPoly, K: FieldSpec, coeffs: Sequence[int]) -> bool:
    """Exact test of (x_j + sum_{i>j} c_i x_i) | f via substitution remainder."""
    n = fK.nvars
    j = next(i for i, c in enumerate(coeffs) if c)
    subs = []
    for i in range(n):
        if i != j:
            subs.append(MultiPoly.variable(K, n, i))
        else:
            items = []
            for i2 in range(n):
                if i2 != j and coeffs[i2]:
                    e = tuple(1 if t == i2 else 0 for t in range(n))
                    items.append((e, K.neg(coeffs[i2])))
            subs.append(MultiPoly.from_terms(K, n, items))
    return fK.substituted(subs).is_zero


def normalized_forms(K: FieldSpec, n: int) -> Iterator[tuple[int, ...]]:
    """All nonzero linear forms up to scalar: leading coefficient one at the
    first nonzero position.  Python-level reference enumeration."""
    from itertools import product as iproduct

    for j in range(n):
        for tail in iproduct(range(K.q), repeat=n - 1 - j):
            yield (0,) * j + (K.one,) + tail


def linear_factor_test(
    f: MultiPoly,
    s: int,
    trials: int = 6,
    seed: int = 0,
    *,
    form_budget: int = FORM_BUDGET,
    force_python: bool = False,
) -> LinearFactorVerdict:
    """Search for linear factors of a homogeneous form over F_{q^s}.

    Every normalized form is screened at up to `trials` seeded random points
    of its hyperplane; survivors are confirmed or refuted by exact division.
    A has_factor verdict is therefore exact.  none_found carries the
    per-form sampling bound (deg f / q^s)^trials.
    """
    if not f.is_homogeneous or f.is_zero:
        raise NotHomogeneous("the linear factor test needs a nonzero homogeneous form")
    t0 = time.perf_counter()
    fK, K = _lift_poly(f, s)
    n = f.nvars
    Q = K.q
    d = int(f.total_degree)
    total_forms = (Q**n - 1) // (Q - 1)
    if total_forms > form_budget:
        raise BudgetExceeded(f"{total_forms} forms exceed the budget {form_budget}")
    per_form = min(Fraction(1), Fraction(d, Q) ** trials)

    survivors: list[tuple[int, ...]] = []
    if force_python or total_forms * trials <= 20_000:
        rank = 0
        for coeffs in normalized_forms(K, n):
            j = next(i for i, c in enumerate(coeffs) if c)
            alive = True
            for t in range(trials):
                pt = [0] * n
                for i in range(n):
                    if i != j:
                        pt[i] = _scalar_coord(seed, s, t, i, rank, Q)
                acc = 0
                for i in range(n):
                    if i != j and coeffs[i]:
                        acc = K.add(acc, K.mul(coeffs[i], pt[i]))
                pt[j] = K.neg(acc)
                if fK.evaluate(pt) != 0:
                    alive = False
                    break
            if alive:
                survivors.append(coeffs)
            rank += 1
    else:
        survivors = _screen_forms_numpy(fK, K, n, d, trials, seed, s)

    for coeffs in survivors:
        if _exact_linear_division(fK, K, coeffs):
            return LinearFactorVerdict(
                True, tuple(coeffs), total_forms, trials, per_form, Q,
                time.perf_counter() - t0,
            )
    return LinearFactorVerdict(
        False, None, total_forms, trials, per_form, Q, time.perf_counter() - t0
    )


def _screen_forms_numpy(
    fK: MultiPoly, K: FieldSpec, n: int, d: int, trials: int, seed: int, s: int
) -> list[tuple[int, ...]]:
    Q = K.q
    T = K.tables
    survivors: list[tuple[int, ...]] = []
    rank_offset = 0
    for j in range(n):
        nfree = n - 1 - j
        count_j = Q**nfree
        lo = 0
        while lo < count_j:
            hi = min(lo + _BLOCK, count_j)
            idx = np.arange(lo, hi, dtype=np.int64)
            ranks = idx + rank_offset
            # form coefficients beyond the pivot: base-Q digits, big-endian
            cvals = []
            rem = idx.copy()
            for pos in range(nfree - 1, -1, -1):
                cvals.append((rem % Q).astype(np.int32))
                rem //= Q
            cvals.reverse()  # cvals[t] = coefficient at variable j+1+t
            alive = np.ones(len(idx), dtype=bool)
            live_ranks = ranks
            live_c = cvals
            for t in range(trials):
                if not live_ranks.size:
                    break
                X: list[np.ndarray | None] = [None] * n
                for i in range(n):
                    if i != j:
                        X[i] = _point_coord(seed, s, t, i, live_ranks.astype(np.uint64), Q)
                acc = np.zeros(len(live_ranks), dtype=np.int32)
                for pos in range(nfree):
                    acc = T.add(acc, T.mul(live_c[pos], X[j + 1 + pos]))
                X[j] = T.neg(acc)
                vals = evaluate_columns(fK, X, T)  # type: ignore[arg-type]
                keep = vals == 0
                live_ranks = live_ranks[keep]
                live_c = [c[keep] for c in live_c]
            for row in range(len(live_ranks)):
                coeffs = [0] * n
                coeffs[j] = K.one
                for pos in range(nfree):
                    coeffs[j + 1 + pos] = int(live_c[pos][row])
                survivors.append(tuple(coeffs))
            lo = hi
        rank_offset += count_j
    return survivors
