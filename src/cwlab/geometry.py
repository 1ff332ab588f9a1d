"""Growth-rate dimension estimation and linear-factor testing.

The dimension of the zero set (as a variety) is estimated from exact counts
over extension fields: a D-dimensional set with k top-dimensional pieces has
about k * q^(sD) points over the degree-s extension.  The estimator is a
heuristic by design and reports residuals instead of a verdict; its choice
of D is made by integer comparisons of the counts.

The linear-factor test is deterministic and exact: a factor's coefficients
are roots of the polynomial's restrictions to a few lines on its hyperplane
(the classical reduction of multivariate factoring to fewer variables), one
evaluation over the lines of every pivot, and the few candidates they leave
are confirmed or refuted by exact division on integer-keyed monomials.  A
random-point screen of every form is kept as the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .counting import CHUNK, _compiled, _evaluate, count_zeros_ext, default_budget
from .errors import BudgetExceeded, InsufficientExtensions, InvalidArgument, NotHomogeneous
from .fields import FieldSpec, build_field, embed_subfield, field_of_order
from .polynomials import MultiPoly, PolySystem
from .rng import MASK64, derive_seed, mix64

FORM_BUDGET = 1 << 28


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


def _nearest_exponent(num: int, den: int, base: int) -> int:
    """The integer D nearest to log_base(num / den), halves to the even
    neighbour as round() does: base^(2D-1) <= (num / den)^2 < base^(2D+1),
    compared exactly."""
    r, b = Fraction(num, den) ** 2, Fraction(base)
    D = 0
    while r >= b ** (2 * D + 1):
        D += 1
    while r < b ** (2 * D - 1):
        D -= 1
    if D % 2 and r == b ** (2 * D - 1):
        D -= 1
    return D


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
        cand = _nearest_exponent(by_s[anchor], by_s[low], q**gap)
        if 0 <= cand <= n:
            d_hat = cand
            pair = (low, anchor)
            break
    if d_hat is None:
        # single usable count: fit k*q^(s*D) ~ N_s with k ~ 1
        d_hat = min(max(_nearest_exponent(by_s[anchor], 1, q**anchor), 0), n)
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
        F = field_of_order(q)
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
    error_bound: Fraction  # upper bound on the per-form error, (d/Q)^T capped at 1
    field_size: int
    elapsed: float
    method: str  # "algebraic" (the default) or "screen" (the reference)
    candidates: int  # forms that reached exact division

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "witness": list(self.witness) if self.witness else None,
            "forms_checked": self.forms_checked,
            "trials": self.trials,
            "error_bound": str(self.error_bound),
            "field_size": self.field_size,
            "method": self.method,
            "candidates": self.candidates,
        }


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
    """Exact test of (x_j + sum_{i>j} c_i x_i) | f via substitution remainder.

    With L = -sum_{i != j} c_i x_i and f = sum_e g_e x_j^e (no g_e involving
    x_j), the remainder is r = sum_e g_e L^e, by Horner's rule r := r*L + g_e
    from the top e down.  A monomial of degree at most d = deg f is keyed by
    its exponents as the digits of a base-(d+1) integer, so a product of
    monomials is a sum of keys and r is one key -> coefficient dict."""
    base = int(fK.total_degree) + 1
    j = next(i for i, c in enumerate(coeffs) if c)
    add, mul = K.add, K.mul
    L = [(base**i, K.neg(c)) for i, c in enumerate(coeffs) if c and i != j]
    g: dict[int, list] = {}
    for exps, c in fK.terms.items():
        key = 0
        for e in reversed(exps):
            key = key * base + e
        g.setdefault(exps[j], []).append((key - exps[j] * base**j, c))
    rem: dict[int, int] = {}
    for e in range(max(g), -1, -1):
        times_L: dict[int, int] = {}
        for key, c in rem.items():
            for step, w in L:
                times_L[key + step] = add(times_L.get(key + step, 0), mul(c, w))
        rem = times_L
        for key, c in g.get(e, ()):
            rem[key] = add(rem.get(key, 0), c)
    return not any(rem.values())


def normalized_forms(K: FieldSpec, n: int) -> Iterator[tuple[int, ...]]:
    """All nonzero linear forms up to scalar: leading coefficient one at the
    first nonzero position.  Python-level reference enumeration."""
    for j in range(n):
        for tail in product(range(K.q), repeat=n - 1 - j):
            yield (0,) * j + (K.one,) + tail


def _pivot_lines(K: FieldSpec, n: int, j: int) -> list[dict[int, int]]:
    """The weights of the lines -t e_j + sum_i w_i e_i searched for pivot j:
    the axis weights e_a of each free column a first, then, column by
    column, the pair weights e_a + e_b (b < a) and, with the last column,
    the weights (w^i)_{i != j} for w the elements 1, 2, ..., one per free
    column."""
    cols = range(j + 1, n)
    lines = [{a: K.one} for a in cols]
    for a in cols:
        lines += [{a: K.one, b: K.one} for b in range(j + 1, a)]
    for w in range(1, min(len(cols), K.q - 1) + 1):
        lines.append({i: K.pow(w, i) for i in range(n) if i != j})
    return lines


def _line_masks(fK: MultiPoly, lines: list[tuple[int, dict]]) -> np.ndarray:
    """masks[l, t] tells whether fK(-t e_j + sum_i y[i] e_i) = 0 for
    lines[l] = (j, y) and every element t, from one evaluation of fK (an
    n-variable form over K) on all len(lines) * q points, given to
    `_evaluate` as their coordinates' logs.  That point lies on the
    hyperplane of x_j + sum c_i x_i exactly when t = sum_i c_i y[i], so a
    factor's coefficients land on a root."""
    K, n = fK.field, fK.nvars
    T, Q, L = K.tables, K.q, len(lines)
    points = np.empty((L, Q, n), dtype=np.intp)
    points[:] = np.array([[y.get(i, 0) for i in range(n)] for _, y in lines], dtype=np.intp)[:, None]
    points[np.arange(L), :, [j for j, _ in lines]] = T.neg(np.arange(Q))
    logs = T.log.take(points.reshape(L * Q, n).T)
    return (_evaluate(*_compiled(fK, T), logs, T)[0] == 0).reshape(L, Q)


def _algebraic_candidates(fK: MultiPoly) -> Iterator[tuple[int, ...]]:
    """A superset of the linear factors of f, in `normalized_forms` order.

    The lines of every pivot j < n - 1 (`_pivot_lines`, at most K(K+3)/2 for
    K = n-1-j free columns) go through one `_line_masks` call of at most
    (n-1)n(n+4)/6 * Q points; the last pivot yields its one form unevaluated.
    For the pivot j, the tail (c_{j+1}, ..., c_{n-1}) grows one column a at
    a time as the rows of an int array, c_a drawn from the roots for the
    axis weights e_a (at most deg f unless f vanishes on that line).  A row
    stays if it is on a root for the pair weights e_a + e_b of each earlier
    column b, which keeps the rows few where f vanishes on coordinate
    planes, and, once complete, for the weights (w^i)_{i != j}, w the
    elements 1, 2, ..., one per column: independent tests, which leave at most
    (deg f)^(n-1-j) tails unless one vanishes identically.  CHUNK rows at
    a time are extended, depth first, to keep the order and bound memory.
    A weighted test's dot product sum_i c_i w_i is one `_evaluate` of the
    linear form sum_i w_i x_i, compiled once per test, on the logs of the
    columns.
    """
    K, n, T = fK.field, fK.nvars, fK.field.tables
    log = T.log
    per_pivot = [_pivot_lines(K, n, j) for j in range(n - 1)]
    stacked = [(j, y) for j, lines in enumerate(per_pivot) for y in lines]
    found = _line_masks(fK, stacked) if stacked else None
    for j, lines in enumerate(per_pivot):
        cols = range(j + 1, n)
        mine, found = found[: len(lines)], found[len(lines) :]
        roots = {a: np.flatnonzero(mine[a - j - 1]) for a in cols}
        masks: dict[int, list] = {a: [] for a in cols}
        for y, mask in zip(lines[len(cols) :], mine[len(cols) :]):
            top = max(y)  # the form in the columns j + 1 .. top
            form = {tuple(int(i == b) for b in range(j + 1, top + 1)): w for i, w in y.items() if i > j}
            masks[top].append((_compiled(MultiPoly(K, top - j, form), T), mask))

        def grow(rows: np.ndarray, a: int) -> Iterator[np.ndarray]:
            if a == n:
                yield rows
                return
            S = roots[a]
            step = max(1, CHUNK // max(len(S), 1))
            for lo in range(0, len(rows), step):
                block = rows[lo : lo + step]
                ext = np.empty((len(block), len(S), a - j), dtype=np.intp)  # each row of block, then each root
                ext[:, :, :-1], ext[:, :, -1] = block[:, None], S
                ext = ext.reshape(-1, a - j)
                for form, mask in masks[a]:
                    ext = ext[mask[_evaluate(*form, log.take(ext.T), T)[0]]]
                yield from grow(ext, a + 1)

        head = (0,) * j + (K.one,)
        for rows in grow(np.zeros((1, 0), dtype=np.intp), j + 1):
            for tail in rows.tolist():
                yield head + tuple(tail)
    yield (0,) * (n - 1) + (K.one,)


def _screened_forms(fK: MultiPoly, trials: int, seed: int, s: int) -> Iterator[tuple[int, ...]]:
    """Reference search: the normalized forms that vanish at `trials` seeded
    random points of their hyperplane, in `normalized_forms` order."""
    K, n = fK.field, fK.nvars
    for rank, coeffs in enumerate(normalized_forms(K, n)):
        j = next(i for i, c in enumerate(coeffs) if c)
        for t in range(trials):
            pt, acc = [0] * n, 0
            for i in range(n):
                if i != j:
                    pt[i] = _scalar_coord(seed, s, t, i, rank, K.q)
                    acc = K.add(acc, K.mul(coeffs[i], pt[i]))
            pt[j] = K.neg(acc)
            if fK.evaluate(pt) != 0:
                break
        else:
            yield coeffs


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

    Deterministic and exact: every linear factor is among the few forms of
    `_algebraic_candidates`, whose lines over every pivot are one stacked
    evaluation, and each is confirmed or refuted by exact division on
    integer-keyed monomials (`_exact_linear_division`) in
    `normalized_forms` order; the first that divides is the witness.
    `forms_checked` is the size of the form space covered.  `error_bound`
    is the per-form bound (deg f / q^s)^trials of a screen at `trials`
    random points of each form's hyperplane, a valid upper bound on this
    search's error of 0; force_python=True uses that screen (the reference).
    """
    if not f.is_homogeneous or f.is_zero:
        raise NotHomogeneous("the linear factor test needs a nonzero homogeneous form")
    if trials < 0:
        raise InvalidArgument(f"trials must be at least 0, not {trials}")
    t0 = time.perf_counter()
    fK, K = _lift_poly(f, s)
    n, Q, d = f.nvars, K.q, int(f.total_degree)
    total_forms = (Q**n - 1) // (Q - 1)
    if total_forms > form_budget:
        raise BudgetExceeded(f"{total_forms} forms exceed the budget {form_budget}")
    if force_python:
        method, forms = "screen", _screened_forms(fK, trials, seed, s)
    else:
        method, forms = "algebraic", _algebraic_candidates(fK)
    witness, candidates = None, 0
    for coeffs in forms:
        candidates += 1
        if _exact_linear_division(fK, K, coeffs):
            witness = coeffs
            break
    return LinearFactorVerdict(
        found=witness is not None,
        witness=witness,
        forms_checked=total_forms,
        trials=trials,
        error_bound=min(Fraction(1), Fraction(d, Q) ** trials),
        field_size=Q,
        elapsed=time.perf_counter() - t0,
        method=method,
        candidates=candidates,
    )
