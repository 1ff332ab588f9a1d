"""Dimension estimates from extension counts, and the exact linear-factor test.

A D-dimensional zero set with k top-dimensional pieces has about k q^(sD)
points over F_{q^s}; the estimator picks D by integer comparisons of counts
and reports residuals, not a verdict.  The factor search is README's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import prod
from typing import Iterator, Sequence

import numpy as np

from .counting import CHUNK, _compiled, _evaluate, count_zeros_ext, default_budget
from .errors import BudgetExceeded, InsufficientExtensions, InvalidArgument, NotHomogeneous
from .fields import FIELD_SIZE_CAP, FieldSpec, build_field, embed_subfield, field_of_order
from .polynomials import MultiPoly, PolySystem
from .rng import MASK64, derive_seed, mix64
from .subspaces import rref

FORM_BUDGET = 1 << 28
PROBE_SLACK = 4  # probes past the P a pivot's interpolation needs (4 measured fastest)
TAIL_MEMO = 1 << 6  # entries of the probe and tail-map memos; a map < 64 KiB at FORM_BUDGET


@dataclass
class DimensionEstimate:
    """The counts N_s, the estimated dimension and multiplicity (None for
    an empty zero set), the residuals and the anchor pair of s."""

    counts: list[tuple[int, int]]  # (s, N_s)
    d_hat: int | None  # None encodes the empty (-inf) sentinel
    k_hat: int | None
    residuals: list[float]
    anchor_pair: tuple[int, int] | None  # the (s_low, s_high) pair used

    def to_dict(self) -> dict:
        """The report body."""
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
    """(dimension, multiplicity) from the counts over F_{q^s}, s = 1 ..
    s_max >= 2: the growth of the two largest usable counts, the gap widened
    while the estimate falls outside [0, n]."""
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
    """One system of the conjecture scan; flagged when d_hat < n - d."""

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
        """The row under SCAN_CSV_HEADER."""
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
    """(rows, flagged rows) of dimension estimates on seeded random systems;
    a flag (d_hat < n - d) is a candidate to inspect, never a refutation."""
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
    """The factor search's report: found, the least dividing form, the
    forms covered, the screen's error bound and the candidates divided."""

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
        """The report body, without the elapsed time."""
        body = {key: value for key, value in vars(self).items() if key != "elapsed"}
        return body | {"witness": list(self.witness) if self.witness else None, "error_bound": str(self.error_bound)}


def _scalar_coord(seed: int, s: int, trial: int, var: int, rank: int, Q: int) -> int:
    gamma = 0x9E3779B97F4A7C15
    base = derive_seed(seed, s, trial, var)
    z = mix64((base + gamma * rank + gamma) & MASK64)
    return z % Q


def _lift_poly(f: MultiPoly, s: int) -> tuple[MultiPoly, FieldSpec]:
    K = build_field(f.field.p, f.field.k * s)
    return f.map_coefficients(embed_subfield(f.field, K), K), K


def _exact_linear_division(fK: MultiPoly, K: FieldSpec, coeffs: Sequence[int]) -> bool:
    """Whether x_j + sum_{i>j} c_i x_i divides f: the remainder of
    x_j := -sum c_i x_i by Horner's rule in x_j, monomials keyed as
    base-(deg f + 1) integers."""
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
    """The nonzero linear forms up to scalar, led by one (the reference order)."""
    for j in range(n):
        for tail in product(range(K.q), repeat=n - 1 - j):
            yield (0,) * j + (K.one,) + tail


@lru_cache(maxsize=TAIL_MEMO)
def _probe_lines(K: FieldSpec, n: int, j: int, s: int = 0, scaled: bool = False) -> np.ndarray:
    """Family (s, scaled) of pivot j's probe lines -t e_j + u(w), read-only rows
    u(w): at place e of columns j + 1 .. n - 1, 0 .. j - 1, u is 0 below s and
    a_(e-s) w^(e-s) from s on (a_e = 1, or gamma^(e(e-1)/2) if scaled), for the
    first min(Q, n - 1 - j - s + PROBE_SLACK) elements w."""
    T, e = K.tables, np.arange(n - 1 - s)[:, None]
    log = T.log[: min(K.q if n - 1 - s > 1 else 1, n - 1 - j - s + PROBE_SLACK)].astype(np.intp)
    logs = e * log % (K.q - 1)  # the logs of w^e, for those w alone
    logs[:, :1] = np.where(e > 0, log[0], 0)  # at w = 0: Z, and w^0 = 1
    logs += scaled * (e * (e - 1) // 2 % (K.q - 1))  # the logs of a_e
    U = np.zeros((logs.shape[1], n), dtype=np.intp)
    U[:, [*range(j + 1 + s, n), *range(j)]] = T.exp.take(logs, mode="clip").T
    U.flags.writeable = False
    return U


def _line_masks(fK: MultiPoly, lines: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
    """masks[l, t] = (fK(-t e_j + U[l]) == 0) for each (j, U) of lines, one evaluation."""
    T, Q, n = fK.field.tables, fK.field.q, fK.nvars
    sizes = [len(U) for _, U in lines]
    logs = np.repeat(T.log.take(np.concatenate([U for _, U in lines]).T), Q, axis=1).reshape(n, -1, Q)
    logs[np.repeat([j for j, _ in lines], sizes), np.arange(sum(sizes))] = T.log.take(T.neg(np.arange(Q)))
    masks = _evaluate(*_compiled(fK, T), logs.reshape(n, -1), T)[0] == 0
    return np.split(masks.reshape(-1, Q), np.cumsum(sizes)[:-1])


@lru_cache(maxsize=TAIL_MEMO)
def _tail_map(K: FieldSpec, P: int, rows: tuple, interpolate: bool) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(basis, tests, M), read-only: B the first independent probe rows
    (completed by axis rows; I without interpolate), S the rest, and M the
    F_p-matrix from r's digits to those of [B^-1; S B^-1] r, exact in float64
    (each partial sum <= Pk(p - 1)^2)."""
    eye = [[K.one if a == b else 0 for b in range(P)] for a in range(P)]
    basis = rref(K, zip(*rows))[1] if interpolate else ()
    B = [rows[i] for i in basis]
    B += [eye[c] for c in range(P) if c not in rref(K, B)[1]]
    inv = [row[P:] for row in rref(K, [list(u) + eye[a] for a, u in enumerate(B)])[0]]
    tests = np.array([i for i in range(len(rows)) if i not in basis], dtype=np.intp)
    A = inv + [[reduce(K.add, (K.mul(s, row[b]) for s, row in zip(rows[i], inv)), 0) for b in range(P)] for i in tests]
    blocks = K.tables.digits(K.tables.mul(np.array(A)[:, :, None], K.p ** np.arange(K.k - 1, -1, -1)))
    M = blocks.transpose(1, 2, 0, 3).reshape(P * K.k, len(A) * K.k).astype(np.float64)
    M.flags.writeable = tests.flags.writeable = False
    return basis, tests, M


def _algebraic_candidates(fK: MultiPoly) -> Iterator[tuple[int, ...]]:
    """A superset of f's linear factors, in `normalized_forms` order, once
    each: Reed-Solomon list recovery on the probe lines (README; von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5; Guruswami and Sudan
    1999), at most d^r Q^(P - r) tails at rank r, or past CHUNK every tail
    in order, CHUNK at a time."""
    K, n, Q, p = fK.field, fK.nvars, fK.field.q, fK.field.p
    lines = [(j, _probe_lines(K, n, j)) for j in range(n - 1)]
    found = [[(U, M)] for (_, U), M in zip(lines, _line_masks(fK, lines) if lines else [])]
    short = [j for j, [(_, M)] in enumerate(found) if (~M.all(axis=1)).sum() < n - 1 - j]
    again = [(j, _probe_lines(K, n, j, s, not s)) for j in short for s in range(n - 1 - j)]
    for (j, U), M in zip(again, _line_masks(fK, again) if again else []):
        found[j].append((U, M))
    for j, families in enumerate(found):
        U, M = (np.concatenate(parts) for parts in zip(*families))
        P, counts = n - 1 - j, M.sum(axis=1)
        if counts.all():  # a proper probe with no root rules the pivot out
            key, M = tuple(map(tuple, U[counts < Q, j + 1 :].tolist())), M[counts < Q]
            basis, tests, A = _tail_map(K, P, key, True)
            roots = [np.flatnonzero(M[i]) for i in basis] + [np.arange(Q)] * (P - len(basis))
            if prod(map(len, roots)) > CHUNK:
                (basis, tests, A), roots = _tail_map(K, P, key, False), [np.arange(Q)] * P
            M, total = M[tests], prod(map(len, roots))
            for lo in range(0, total, CHUNK):
                at = np.unravel_index(np.arange(lo, min(total, lo + CHUNK)), [len(r) for r in roots])
                R = np.stack([r[i] for r, i in zip(roots, at)], axis=1)
                V = (K.tables.digits(R).reshape(len(R), -1) @ A).astype(np.intp)
                V = (V - V // p * p).reshape(len(R), -1, K.k) @ p ** np.arange(K.k - 1, -1, -1)
                tails = V[M[np.arange(len(M)), V[:, P:]].all(axis=1), :P]
                for tail in (tails[np.lexsort(tails.T[::-1])] if basis else tails).tolist():
                    yield (0,) * j + (K.one,) + tuple(tail)
    yield (0,) * (n - 1) + (K.one,)


def _screened_forms(fK: MultiPoly, trials: int, seed: int, s: int) -> Iterator[tuple[int, ...]]:
    """The reference: the normalized forms that vanish at trials seeded
    points of their hyperplane, in order."""
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
    """The least linear factor over F_{q^s} of a nonzero form, exactly: the
    candidates (the screen if force_python) divided in order.  BudgetExceeded
    past form_budget forms, checked before F_{q^s} is built; error_bound is
    the screen's (deg f / q^s)^trials, the search's error being 0."""
    if not f.is_homogeneous or f.is_zero:
        raise NotHomogeneous("the linear factor test needs a nonzero homogeneous form")
    if trials < 0:
        raise InvalidArgument(f"trials must be at least 0, not {trials}")
    t0 = time.perf_counter()
    # Q = 0 where the lift refuses: s < 1, or past the field cap (F_{q^s} needs ks <= 20)
    n, d, Q = f.nvars, int(f.total_degree), f.field.q**s if 1 <= s and f.field.k * s <= 20 else 0
    total_forms = (Q**n - 1) // (Q - 1) if 0 < Q <= FIELD_SIZE_CAP else None
    if total_forms is not None and total_forms > form_budget:
        raise BudgetExceeded(f"{total_forms} forms exceed the budget {form_budget}")
    fK, K = _lift_poly(f, s)
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
