"""Checkers for the congruence, lower-bound, covering and saturation laws:
each returns a LawReport, vacuous (passing, with a reason) where the law's
hypotheses fail, every verdict exact."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator, Sequence

import numpy as np

from .counting import (
    _coordinates, basis_entries, coset_ids, coset_matrix, count_zeros, default_budget, point_digits,
    zero_digits_with_notes, zero_points,
)
from .errors import BudgetExceeded, FullSpace, InvalidArgument, WrongFieldSize
from .fields import FieldSpec
from .memo import Memo
from .polynomials import PolySystem
from .rng import SplitMix64, derive_seed
from .subspaces import AffineSubspace, PointSet, affine_span, gaussian_binomial, rref, subspace_dim

LAW_ALIASES = {
    "chevalley": "chevalley",
    "chevalley_p": "chevalley",
    "ax": "ax",
    "ax_q": "ax",
    "warning-hyperplanes": "warning-hyperplanes",
    "warning_hyperplanes": "warning-hyperplanes",
    "parallel-subspaces": "parallel-subspaces",
    "theorem1": "parallel-subspaces",
}

DEFAULT_CLASS_BUDGET = 10_000
# a batch of B direction spaces of dimension m holds at most BATCH point
# coordinates, B*|Z|*(n - m), and BATCH coset counters, B*q^(n - m); 2^16 ran
# `coset-classes` no faster, with a longer tail and more peak memory
BATCH = 1 << 14


@dataclass
class LawReport:
    """One law's verdict: applicable, passed, its evidence and, on a
    failure, a witness; exit code 0 on a pass, 2 on a violation."""

    law: str
    applicable: bool
    passed: bool
    evidence: dict = dc_field(default_factory=dict)
    witness: object = None

    def to_json(self) -> str:
        """The report body, keys in a fixed order."""
        return json.dumps(
            {
                "law": self.law,
                "applicable": self.applicable,
                "pass": self.passed,
                "evidence": self.evidence,
                "witness": self.witness,
            },
            default=str,
        )

    @property
    def exit_code(self) -> int:
        """0 on a pass, 2 on a violation."""
        return 0 if self.passed else 2


@dataclass
class CheckScope:
    """all_pairs checks every direction space, in enumeration order, up to
    budget of them; otherwise sample (budget if None) seeded random ones.
    dim restricts the check to one qualifying dimension."""

    all_pairs: bool = True
    budget: int = DEFAULT_CLASS_BUDGET
    sample: int | None = None
    seed: int = 0
    dim: int | None = None


def _requires_n_above_d(law: str, n: int, d: int) -> LawReport | None:
    """The vacuous report of a law whose hypothesis is n > d, when n <= d;
    None when the law applies."""
    if n > d:
        return None
    return LawReport(law, False, True, {"reason": "requires n > d", "n": n, "d": d})


# -- congruences ---------------------------------------------------------------


def _disagreeing_cosets(ids: np.ndarray, classes: int, modulus: int):
    """None when every coset count of one space agrees mod modulus, else
    ((coset, count), (coset, count)): the first coset that disagrees with
    coset 0, and coset 0, when every coset is met; else the first met coset
    with a nonzero residue, and the first empty coset."""
    uniq, counts = np.unique(ids, return_counts=True)
    residues = counts % modulus
    full = len(uniq) == classes
    bad = np.flatnonzero(residues != (residues[0] if full else 0))
    if len(bad) == 0:
        return None
    a = (int(uniq[bad[0]]), int(counts[bad[0]]))
    if full:
        return a, (int(uniq[0]), int(counts[0]))
    seen = set(uniq.tolist())
    return a, (next(i for i in range(classes) if i not in seen), 0)


def _coset_residue_check(
    X: np.ndarray,
    pivots: np.ndarray,
    entries: np.ndarray,
    F: FieldSpec,
    modulus: int,
    matrix: np.ndarray,
):
    """None when, for every direction space of the batch (as `coset_ids`
    takes it, matrix included), the counts of the points X over its cosets
    agree mod modulus; else (b, pair) for the first space b that fails, pair
    as `_disagreeing_cosets` gives it.  One bincount counts every coset; past
    BATCH cosets a space (a batch of one) counts its met cosets alone."""
    if X.shape[1] == 0:
        return None
    classes = F.q ** entries.shape[2]
    ids = coset_ids(X, pivots, entries, F, matrix)
    if classes > BATCH:
        pairs = ((b, _disagreeing_cosets(row, classes, modulus)) for b, row in enumerate(ids))
        return next(((b, pair) for b, pair in pairs if pair is not None), None)
    B = len(ids)
    flat = (ids + classes * np.arange(B)[:, None]).ravel()
    residues = np.bincount(flat, minlength=B * classes).reshape(B, classes) % modulus
    bad = np.flatnonzero((residues != residues[:, :1]).any(axis=1))
    if len(bad) == 0:
        return None
    b = int(bad[0])
    return b, _disagreeing_cosets(ids[b], classes, modulus)


def _pattern_slice(F: FieldSpec, n: int, m: int, runs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The direction spaces lo .. hi - 1 of `direction_spaces(F, n, m)`, for
    each (lo, hi) of runs, as (pivots, entries), pivots (B, m).  Column j,
    with r pivots left, is the next pivot of the first scale * q^(n-j-r) *
    [n-j-1 choose r-1]_q spaces left; scale, from 1, gains q^(n-j-r) at each
    pivot and ends as the pattern's size.  What is left of s, s', numbers the
    space in its pattern: entry (i, k) is s' // q^e % q at the free cell e
    places from the end, 0 off the cells (place scale), exact past 2^63."""
    q = F.q
    power, binomial = [q**e for e in range(max(n, m * (n - m)) + 1)], [[1] + [0] * (m - 1)]
    for _ in range(n - 1):  # binomial[N][t] = [N choose t]_q = [N - 1, t - 1] + q^t [N - 1, t], once a call
        binomial.append([1] + [binomial[-1][t - 1] + power[t] * binomial[-1][t] for t in range(1, m)])
    patterns, blocks = [], []
    for lo, hi in runs:
        while lo < hi:
            pivots, s, scale = [], lo, 1
            for j in range(n):
                r = m - len(pivots)
                first = r and scale * power[n - j - r] * binomial[n - j - 1][r - 1]
                if s < first:
                    pivots.append(j)
                    scale *= power[n - j - r]
                else:
                    s -= first
            take = min(hi - lo, scale - s)
            dtype = object if scale > np.iinfo(np.intp).max else np.intp
            free = [j for j in range(n) if j not in pivots]
            cells = [i * (n - m) + k for i in range(m) for k, j in enumerate(free) if j > pivots[i]]
            place = [scale] * (m * (n - m))
            for e, cell in enumerate(reversed(cells)):
                place[cell] = power[e]
            blocks.append(np.arange(s, s + take, dtype=dtype)[:, None] // np.array(place, dtype=dtype) % q)
            patterns.append(np.full((take, m), pivots, dtype=np.intp))
            lo += take
    pivots = np.concatenate(patterns)
    return pivots, np.concatenate(blocks).astype(np.intp).reshape(len(pivots), m, n - m)


# bytes of the direction spaces built at a time on a miss (`direction_batches`)
PART_BYTES = 1 << 16

# bytes that the direction tables of every field hold together: the largest
# shapes the suite sweeps, A^5 over F_5 and F_4, take 2.9 MB and 1.6 MB
DIRECTIONS = Memo(1 << 22)


def _direction_part(F: FieldSpec, n: int, m: int, runs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The direction spaces of runs, as `_pattern_slice` numbers them, built
    afresh: pivots, entries and their rows of `coset_matrix`."""
    pivots, entries = _pattern_slice(F, n, m, runs)
    pivots = pivots.astype(np.min_scalar_type(n))
    entries = entries.astype(np.min_scalar_type(F.q - 1))
    return pivots, entries, coset_matrix(pivots, entries, F)


def _slices(table: Sequence[np.ndarray], cap: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A (pivots, entries, matrix rows) table, cap spaces at a time."""
    pivots, entries, matrix = table
    size = len(pivots)
    G = len(matrix) // size
    for lo in range(0, size, cap):
        hi = min(lo + cap, size)
        yield pivots[lo:hi], entries[lo:hi], matrix[lo * G : hi * G]


def direction_batches(F: FieldSpec, n: int, m: int, cap: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The direction spaces of dimension m in A^n(F), in `direction_spaces`
    order, cap at a time, as `_direction_part` gives them: slices of the
    DIRECTIONS table on a hit; on a miss built in parts of whole batches of
    about PART_BYTES as the caller reaches them, the table kept once the
    last part is built, if it fits the memo's bound."""
    key = (F.tables, n, m)
    table = DIRECTIONS.get(key)
    if table is not None:
        yield from _slices(table, cap)
        return
    size = gaussian_binomial(F.q, n, m)
    first = _direction_part(F, n, m, [(0, 1)])  # per space: 1, 1 and G rows
    space_bytes = max(1, sum(a.nbytes for a in first))
    keep = size * space_bytes <= DIRECTIONS.bound
    table = [np.empty((len(a) * size,) + a.shape[1:], a.dtype) for a in first] if keep else []
    step = cap * max(1, PART_BYTES // (cap * space_bytes))
    for lo in range(0, size, step):
        part = _direction_part(F, n, m, [(lo, min(lo + step, size))])
        for array, a, rows in zip(table, part, first):
            array[len(rows) * lo : len(rows) * lo + len(a)] = a
        yield from _slices(part, cap)
    if keep:
        DIRECTIONS.put(key, tuple(table), size * space_bytes)


def _flat(F: FieldSpec, n: int, pivots: Sequence[int], entries: np.ndarray, coset: int) -> dict:
    """The coset numbered coset of a direction space, as its
    `parallel_class` member: offset and RREF rows."""
    free = [j for j in range(n) if j not in pivots]
    offset = [0] * n
    for j in reversed(free):
        coset, offset[j] = divmod(coset, F.q)
    rows = []
    for piv, vals in zip(pivots, entries.tolist()):
        row = [0] * n
        row[piv] = F.one
        for j, v in zip(free, vals):
            row[j] = v
        rows.append(row)
    return {"offset": offset, "rows": rows}


def _witness(F: FieldSpec, n: int, pivots: Sequence[int], entries: np.ndarray, pair) -> dict:
    """A failing space's rows, and its two disagreeing cosets' offsets and counts."""
    flats = [_flat(F, n, pivots, entries, coset) for coset, _ in pair]
    return {"rows": flats[0]["rows"], "offsets": [f["offset"] for f in flats], "counts": [count for _, count in pair]}


def _drawn(rng: SplitMix64, N: int, k: int, cap: int) -> Iterator[list[int]]:
    """k distinct numbers below N in draw order, cap at a time, by Floyd's
    algorithm (Bentley and Floyd, "A sample of brilliance", CACM 30(9),
    1987): for j = N - k .. N - 1, t = rng.below(j + 1), or j once t is drawn."""
    drawn: set[int] = set()
    for lo in range(N - k, N, cap):
        batch = []
        for j in range(lo, min(lo + cap, N)):
            t = rng.below(j + 1)
            batch.append(j if t in drawn else t)
            drawn.add(batch[-1])
        yield batch


def _planned(q: int, n: int, m: int, scope: CheckScope) -> int:
    """The direction spaces of dimension m a sweep under scope checks if
    its budget allows: all, or the sample (budget if None) if fewer."""
    size = gaussian_binomial(q, n, m)
    return size if scope.all_pairs else min(size, scope.budget if scope.sample is None else scope.sample)


def _sweep_classes(
    X: np.ndarray, F: FieldSpec, dims: Sequence[int], modulus: int, scope: CheckScope, agreed: dict
):
    """Check the direction spaces of each dimension in dims on the zero
    points' `point_digits` X until scope.budget of them are checked.
    Returns (classes_checked, per_dim, truncated, witness): truncated when
    the budget leaves a space unchecked, which is counted, not drawn, so a
    cut sweep builds no batch past it; witness None unless a space fails,
    where the sweep stops.

    agreed is the walk's congruence notes (`counting._Walk.agreed`).  An
    all-pairs sweep mod M' passes unchecked a batch inside the longest
    prefix noted under a multiple of M', and notes its own passed prefix;
    a sampled sweep neither reads nor writes notes."""
    q, n, N = F.q, X.shape[0] // F.k, X.shape[1]
    if not scope.budget:
        return 0, {}, sum(_planned(q, n, m, scope) for m in dims) > 0, None
    checked = 0
    per_dim: dict[int, int] = {}
    for i, m in enumerate(dims):
        room = scope.budget - checked
        cap = max(1, min(BATCH // max(1, N * (n - m)), BATCH // q ** (n - m), room))
        known = 0
        if scope.all_pairs:
            batches = direction_batches(F, n, m, cap)
            known = max((k for (dim, M), k in agreed.items() if dim == m and M % modulus == 0), default=0)
        else:
            rng = SplitMix64(derive_seed(scope.seed, n, m))
            drawn = _drawn(rng, gaussian_binomial(q, n, m), min(_planned(q, n, m, scope), room), cap)
            batches = (_direction_part(F, n, m, [(s, s + 1) for s in batch]) for batch in drawn)
        for pivots, entries, matrix in batches:
            room = scope.budget - checked
            if len(entries) > room:
                pivots, entries, matrix = pivots[:room], entries[:room], matrix[: room * (len(matrix) // len(entries))]
            lo = per_dim.get(m, 0)
            hit = None
            if m < n and lo + len(entries) > known:
                hit = _coset_residue_check(X, pivots, entries, F, modulus, matrix)
                if scope.all_pairs:  # never below the old note: known covers it, and no space there fails
                    agreed[m, modulus] = lo + (len(entries) if hit is None else hit[0])
            done = len(entries) if hit is None else hit[0] + 1
            checked += done
            per_dim[m] = lo + done
            if hit is not None:
                b, pair = hit
                witness = _witness(F, n, pivots[b].tolist(), entries[b], pair)
                return checked, per_dim, False, {**witness, "dim": m}
            if checked == scope.budget:
                left = sum(_planned(q, n, m2, scope) for m2 in dims[i:]) - per_dim[m]
                return checked, per_dim, left > 0, None
    return checked, per_dim, False, None


def check_congruence(
    system: PolySystem,
    law: str,
    scope: CheckScope | None = None,
    *,
    budget: int | None = None,
) -> LawReport:
    """Check one congruence law (README's table): chevalley p | N and ax
    q | N when n > d; warning-hyperplanes, counts over parallel hyperplanes
    agree mod p when n > d; parallel-subspaces (theorem1), counts over
    parallel subspaces of each dimension >= d agree mod q.  InvalidArgument
    for an unknown law, a budget below 0, a sample below 1, or a sample
    with all_pairs."""
    if law not in LAW_ALIASES:
        raise InvalidArgument(f"unknown law {law!r}; choose from {sorted(LAW_ALIASES)}")
    law = LAW_ALIASES[law]
    scope = scope or CheckScope()
    if scope.budget < 0:
        raise InvalidArgument(f"the class budget must be >= 0, got {scope.budget}")
    if scope.sample is not None and scope.sample < 1:
        raise InvalidArgument(f"a sampled check draws at least 1 direction space, got {scope.sample}")
    if scope.sample is not None and scope.all_pairs:
        raise InvalidArgument(f"a sample of {scope.sample} direction spaces needs all_pairs=False")
    F = system.field
    n, d, q, p = system.nvars, system.total_degree, F.q, F.p
    if law != "parallel-subspaces" and (vacuous := _requires_n_above_d(law, n, d)):
        return vacuous

    if law in ("chevalley", "ax"):
        N = count_zeros(system, budget=budget).count
        mod = p if law == "chevalley" else q
        res = N % mod
        witness = None if res == 0 else {"count": N, "modulus": mod}
        return LawReport(law, True, res == 0, {"count": N, "modulus": mod, "residue": res}, witness)

    if law == "warning-hyperplanes":
        dims = [n - 1]
        modulus = p
    else:  # parallel-subspaces
        if d > n:
            return LawReport(law, False, True, {"reason": "no subspace dimension reaches d", "n": n, "d": d})
        dims = list(range(max(d, 0), n + 1))
        modulus = q
    if scope.dim is not None:
        if scope.dim not in dims:
            reason = f"dimension {scope.dim} is outside the qualifying range"
            return LawReport(law, False, True, {"reason": reason, "qualifying_dims": dims})
        dims = [scope.dim]

    X, agreed = zero_digits_with_notes(system, budget)
    checked, per_dim, truncated, witness = _sweep_classes(X, F, dims, modulus, scope, agreed)
    evidence = {"modulus": modulus, "classes_checked": checked, "per_dim": per_dim, "zero_count": int(X.shape[1])}
    if witness is not None:
        return LawReport(law, True, False, evidence, witness)
    evidence["truncated"] = truncated
    evidence["mode"] = "all_pairs" if scope.all_pairs else f"sampled(seed={scope.seed})"
    return LawReport(law, True, True, evidence)


def homogenization_identity(system: PolySystem, *, budget: int | None = None) -> LawReport:
    """The exact identity N(f+) = (q-1) N(f) + N(f-), and N(f) = N(f-) mod q
    when n >= d."""
    F = system.field
    q, n, d = F.q, system.nvars, system.total_degree
    budget = default_budget() if budget is None else budget
    N = count_zeros(system, budget=budget).count
    N_minus = count_zeros(system.leading_system(), budget=budget).count
    N_plus = count_zeros(system.homogenized_system(), budget=budget).count
    identity_ok = N_plus == (q - 1) * N + N_minus
    evidence = {
        "count": N,
        "count_leading": N_minus,
        "count_homogenized": N_plus,
        "identity": f"{N_plus} == ({q}-1)*{N} + {N_minus}",
    }
    passed = identity_ok
    if n >= d:
        cong_ok = (N - N_minus) % q == 0
        evidence["congruence_mod_q"] = cong_ok
        passed = passed and cong_ok
    return LawReport("homogenization-identity", True, passed, evidence)


# -- lower bounds ---------------------------------------------------------------


def lower_bound_audit(system: PolySystem, *, budget: int | None = None) -> LawReport:
    """When n > d and Z is nonempty: N >= q^(n-d); and when Z is not an
    affine subspace, N > q^(n-d), N >= 2 q^(n-d) for q >= 4 and, for a
    homogeneous system, N (n+2-d) >= q^(n+1-d)."""
    F = system.field
    q, n, d = F.q, system.nvars, system.total_degree
    parts: dict[str, dict] = {}
    if vacuous := _requires_n_above_d("lower-bounds", n, d):
        return vacuous
    Z = zero_points(system, budget)
    N = len(Z)
    floor = q ** (n - d)
    evidence: dict = {"count": N, "floor": floor, "n": n, "d": d, "q": q}
    if N == 0:
        evidence["reason"] = "zero set is empty"
        return LawReport("lower-bounds", False, True, evidence)
    lin_dim = subspace_dim(F, Z)  # odometer order is canonical point order
    linear = lin_dim is not None
    evidence["linear_subspace"] = {"verdict": linear, "dim": lin_dim}
    parts["floor"] = {"applicable": True, "pass": N >= floor, "lhs": N, "rhs": floor}
    if linear:
        evidence["reason"] = "zero set is an affine subspace; sharper parts vacuous"
        for name in ("strict", "double", "homogeneous_ratio"):
            parts[name] = {"applicable": False, "pass": True}
    else:
        parts["strict"] = {"applicable": True, "pass": N > floor, "lhs": N, "rhs": floor}
        if q >= 4:
            parts["double"] = {"applicable": True, "pass": N >= 2 * floor, "lhs": N, "rhs": 2 * floor}
        else:
            parts["double"] = {"applicable": False, "pass": True}
        if system.is_homogeneous:
            lhs = N * (n + 2 - d)
            rhs = q ** (n + 1 - d)
            parts["homogeneous_ratio"] = {"applicable": True, "pass": lhs >= rhs, "lhs": f"{N}*{n + 2 - d}", "rhs": rhs}
        else:
            parts["homogeneous_ratio"] = {"applicable": False, "pass": True}
    evidence["parts"] = parts
    passed = all(p["pass"] for p in parts.values())
    witness = None if passed else {"failing": [k for k, v in parts.items() if not v["pass"]]}
    return LawReport("lower-bounds", True, passed, evidence, witness)


# -- covering bound (growth witness) ----------------------------------------------


def _superspace_hits(X: np.ndarray, L: AffineSubspace) -> tuple[int, np.ndarray, np.ndarray]:
    """|Z cap L| for X = point_digits(Z, F), and the numbers of the proper
    subspace L's superspaces L + span(v), ascending (the odometer order of
    v, scaled to lead with F.one), with the points of Z on each off L."""
    F = L.field
    q, T = F.q, F.tables
    pivots, entries = basis_entries(L.basis, L.ambient)
    f = entries.shape[1]
    ids = coset_ids(X, pivots, entries[None], F)[0]
    d = T.add(_coordinates(ids, q, f), T.neg(np.delete(L.offset, pivots))[:, None])
    d = d[:, d.any(axis=0)]
    lead = d[(d != 0).argmax(axis=0), np.arange(d.shape[1])]
    d = T.mul(d, T.exp.take(-T.log.take(lead) % (q - 1)))
    numbers = np.concatenate([np.arange(F.one * q**e, (F.one + 1) * q**e) for e in range(f)])
    hits = np.bincount(q ** np.arange(f - 1, -1, -1) @ d, minlength=q**f)
    return X.shape[1] - d.shape[1], numbers, hits[numbers]


def covering_bound_report(Z: PointSet, L0: AffineSubspace) -> LawReport:
    """Grow L0 to a maximal subspace L of dimension k with the same Z-count
    (into the first superspace, in number order, with no point of Z off L),
    take the superspace L' with the least count, and verify

        |Z| >= |Z cap L| + (q^(n-k) - 1)/(q - 1) * (|Z cap L'| - |Z cap L|),

    which holds for every point set Z.  FullSpace for L0 = A^n."""
    F = Z.field
    q, n = F.q, Z.ambient
    if L0.dim == n:
        raise FullSpace("the base subspace must be proper")
    X = point_digits(np.array(list(Z.points), dtype=np.intp).reshape(len(Z), n), F)
    base, numbers, hits = _superspace_hits(X, L0)
    L = L0
    growth = [L0.dim]
    while not hits.all():
        v = np.zeros(n, dtype=np.intp)
        v[np.delete(np.arange(n), L.pivots)] = _coordinates(numbers[[hits.argmin()]], q, n - L.dim)[:, 0]
        L = AffineSubspace(F, L.offset, L.basis + (tuple(v.tolist()),))
        growth.append(L.dim)
        if L.dim == n:
            break
        numbers, hits = _superspace_hits(X, L)[1:]
    k = L.dim
    total = len(Z)
    evidence = {"base_count": base, "k": k, "growth": growth, "total": total, "n": n, "q": q}
    if k == n:
        evidence["note"] = "witness grew to the full space; bound reads |Z| >= |Z|"
        return LawReport("covering-bound", True, total >= base, evidence)
    cmin = base + int(hits.min())
    classes = (q ** (n - k) - 1) // (q - 1)
    bound = base + classes * (cmin - base)
    evidence.update(
        {"superspaces": len(hits), "expected_superspaces": classes, "min_superspace_count": cmin, "bound": bound}
    )
    passed = total >= bound and len(hits) == classes and cmin >= base
    witness = None
    if not passed:
        witness = {"bound": bound, "total": total}
    return LawReport("covering-bound", True, passed, evidence, witness)


# membership tests (a point of Z against a flat) one covering trial may run:
# its at most q^n points against L0, every superspace of each dimension on the
# way up, and the last superspaces once more; A^9(F_2), A^6(F_3), A^5(F_4)
# and A^4(F_5) are the largest spaces within it
COVER_TESTS = 1_000_000
# membership tests of a run of trials, all counted alike
COVER_RUN_TESTS = 10 * COVER_TESTS


def covering_trial_budget(q: int, n: int, trials: int = 1) -> None:
    """FullSpace for n < 1; BudgetExceeded when one trial could run more
    than COVER_TESTS membership tests, or the trials more than
    COVER_RUN_TESTS."""
    if n < 1:
        raise FullSpace(f"A^{n} has no proper base subspace for the covering bound")
    # q >= 2, so past n = 40 there are more than 2^40 points
    supers = [(q**j - 1) // (q - 1) for j in range(1, min(n, 40) + 1)]
    tests = q ** min(n, 40) * (1 + sum(supers) + supers[-1])
    if n > 40 or tests > COVER_TESTS:
        raise BudgetExceeded(
            f"a covering trial in A^{n}(F_{q}) could run more than {COVER_TESTS} membership tests"
        )
    if trials * tests > COVER_RUN_TESTS:
        raise BudgetExceeded(
            f"{trials} covering trials in A^{n}(F_{q}) could run more than "
            f"{COVER_RUN_TESTS} membership tests"
        )


def covering_trial(F: FieldSpec, n: int, rng: SplitMix64) -> LawReport:
    """One seeded trial, after `covering_trial_budget`: draws Z (a coin per
    point of A^n, in odometer order), the dimension of L0 (below n), its
    rows (redrawn until independent) and its offset, in this order, and
    reports `covering_bound_report(Z, L0)`."""
    q = F.q
    covering_trial_budget(q, n)
    pts = _coordinates(np.arange(q**n), q, n).T[rng.draw(q**n) & 1 == 1]  # a coin per point: its output's low bit
    dim = rng.below(n)
    while True:
        rows, _ = rref(F, [[rng.below(q) for _ in range(n)] for _ in range(dim)])
        if len(rows) == dim:
            break
    L0 = AffineSubspace(F, [rng.below(q) for _ in range(n)], rows)
    return covering_bound_report(PointSet(F, n, pts.tolist()), L0)


# -- saturated-set laws (Lemma 2) ----------------------------------------------------


SATURATION_PARTS = ("i", "ii", "iii", "iv")


def _saturation_gates(q: int, t: int, part: str, m: int | None) -> None:
    """Each part's domain, for both checkers: part i needs q = 2, ii q >= 3,
    iii q >= 4, iv an integer m >= 2; a typed error before any work."""
    if part not in SATURATION_PARTS:
        raise InvalidArgument(f"unknown part {part!r}")
    if t < 0:
        raise InvalidArgument(f"dimension must be >= 0, got {t}")
    if part == "i" and q != 2:
        raise WrongFieldSize("part i needs q = 2")
    if part == "ii" and q < 3:
        raise WrongFieldSize("part ii needs q >= 3")
    if part == "iii" and q < 4:
        raise WrongFieldSize("part iii needs q >= 4")
    if part == "iv" and (m is None or m < 2):
        raise InvalidArgument("part iv needs an integer m >= 2")


def _saturation_rule(q: int, part: str, m: int | None) -> tuple[int, int, int, Callable[[int], int] | None]:
    """Lemma 2's part as (k, low, high, size).  Hypothesis: S holds t + 1
    points in general position and meets no k-flat in low <= c < high
    points.  Conclusion: |S| >= size(t), or, where size is None (part iii),
    the complement of S lies in a hyperplane."""
    if part == "i":
        return 2, 3, 4, lambda t: q**t
    if part == "ii":
        return 1, 2, q, lambda t: q**t
    if part == "iii":
        return 1, 2, q - 1, None
    return 1, 2, m + 1, lambda t: (m ** (t + 1) - 1) // (m - 1)  # type: ignore[operator]


# flats of A^t the object-level check counts S on, q^(t - k) times the
# Gaussian binomial [t choose k]_q, k as `_saturation_rule` gives it:
# A^6(F_3), part i on A^7(F_2) and A^2(F_251) are within it
SATURATION_FLATS = 100_000


def saturation_check_budget(q: int, t: int, part: str, m: int | None = None) -> None:
    """The part's gates, then BudgetExceeded, before any work, when the
    object-level check would count S on more than SATURATION_FLATS flats."""
    _saturation_gates(q, t, part, m)
    k = _saturation_rule(q, part, m)[0]
    # q >= 2, so past t = 40 there are more than 2^38 flats
    if t > 40 or q ** max(t - k, 0) * gaussian_binomial(q, t, k) > SATURATION_FLATS:
        what = "planes" if k == 2 else "lines"
        raise BudgetExceeded(
            f"the check would walk more than {SATURATION_FLATS} {what} of A^{t}(F_{q})"
        )


def _flat_ids(F: FieldSpec, t: int, k: int, X: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The k-flats of A^t through the points X (`point_digits`), batch by
    batch of `direction_batches`: (pivots, entries, ids), ids[b, z] =
    b * q^(t - k) + the coset of space b through point z, so in
    `direction_spaces` x `parallel_class` order.  Nothing for no points or
    k outside 0 .. t."""
    if not (0 <= k <= t and X.shape[1]):
        return
    classes = F.q ** (t - k)
    # batch working set: B*|X| flat numbers and B*q^(t-k) flats
    for pivots, entries, matrix in direction_batches(F, t, k, max(1, BATCH // max(X.shape[1], classes))):
        yield pivots, entries, coset_ids(X, pivots, entries, F, matrix) + classes * np.arange(len(entries))[:, None]


def saturated_set_check(
    S: PointSet, part: str, m: int | None = None
) -> LawReport:
    """Check Lemma 2's part (`_saturation_rule`) on S in A^t(F_q), after
    `saturation_check_budget`: vacuous, with the first flat in
    `direction_spaces` x `parallel_class` order that breaks the
    hypothesis, or the conclusion's verdict (part iii names the first
    hyperplane holding the complement)."""
    F = S.field
    q, t = F.q, S.ambient
    saturation_check_budget(q, t, part, m)
    k, low, high, size = _saturation_rule(q, part, m)
    law = f"line-saturation-{part}"
    evidence: dict = {"q": q, "t": t, "size": len(S)}
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

    pts = np.array(list(S.points), dtype=np.intp).reshape(len(S), t)
    for pivots, entries, ids in _flat_ids(F, t, k, point_digits(pts, F)):
        counts = np.bincount(ids.ravel(), minlength=len(entries) * q ** (t - k))
        hit = np.flatnonzero((counts >= low) & (counts < high))
        if len(hit):
            b, coset = divmod(int(hit[0]), q ** (t - k))
            flat = _flat(F, t, pivots[b].tolist(), entries[b], coset)
            if part == "i":
                evidence["reason"] = "a 2-plane meets S in exactly 3 points"
                evidence["witness_plane"] = flat
            else:
                evidence["reason"] = f"a line meets S in {counts[hit[0]]} points, below the threshold {high}"
                evidence["witness_line"] = flat
            return LawReport(law, False, True, evidence)

    if size is None:  # part iii
        rest = np.ones(q**t, dtype=bool)
        rest[pts @ q ** np.arange(t - 1, -1, -1)] = False
        complement = _coordinates(np.flatnonzero(rest), q, t).T
        conclusion = not len(complement)
        for pivots, entries, ids in _flat_ids(F, t, t - 1, point_digits(complement, F)):
            same = np.flatnonzero((ids == ids[:, :1]).all(axis=1))
            if len(same):
                b, coset = divmod(int(ids[same[0], 0]), q)
                evidence["complement_hyperplane"] = _flat(F, t, pivots[b].tolist(), entries[b], coset)
                conclusion = True
                break
        evidence["complement_size"] = len(complement)
    else:
        if part == "iv":
            evidence["required_size"] = size(t)
        conclusion = len(S) >= size(t)
    return LawReport(law, True, conclusion, evidence, None if conclusion else {"size": len(S)})


# -- exhaustive saturation sweeps (numpy bitsets) ---------------------------------

# a subset of A^t(F_q) is a uint32 mask over the odometer points, so q^t <= 27
# keeps all 2^(q^t) masks in range (2^27 of them take a few seconds)
SWEEP_POINTS = 27
# subset masks per kernel step: a few MB of working memory
SWEEP_CHUNK = 1 << 20


def _subspace_masks(F: FieldSpec, t: int, k: int) -> np.ndarray:
    """One uint32 point mask per k-flat of A^t, in `_flat_ids` order."""
    q = F.q
    bits = np.left_shift(np.uint32(1), np.arange(q**t, dtype=np.uint32))
    masks = [np.zeros(0, dtype=np.uint32)]
    for _, entries, ids in _flat_ids(F, t, k, point_digits(_coordinates(np.arange(q**t), q, t).T, F)):
        masks.append(np.zeros(len(entries) * q ** (t - k), dtype=np.uint32))
        np.bitwise_or.at(masks[-1], ids.ravel(), np.broadcast_to(bits, ids.shape).ravel())
    return np.concatenate(masks)


def _sweep_masks(
    M: np.ndarray, F: FieldSpec, t: int, part: str, m: int | None, flats: dict[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The subset masks of M (uint32) that meet the part's hypothesis
    (`_saturation_rule`), and the counterexamples among them, both in the
    order of M; flats[k] holds the k-flat masks for k = 1, 2 and t - 1.
    Applies no part gate."""
    q = F.q
    k, low, high, size = _saturation_rule(q, part, m)
    for P in flats[k]:
        c = np.bitwise_count(M & P)
        M = M[(c < low) | (c >= high)]
    M = M[np.bitwise_count(M) > t]
    for H in flats[t - 1]:  # general position: inside no hyperplane
        M = M[(M & ~H) != 0]
    if size is None:  # part iii: the complement lies in a hyperplane (or is empty)
        comp = ~M & np.uint32((1 << q**t) - 1)
        holds = comp == 0
        for H in flats[t - 1]:
            holds |= (comp & ~H) == 0
    else:
        holds = np.bitwise_count(M) >= size(t)
    return M, M[~holds]


def saturated_set_exhaustive(F: FieldSpec, t: int, part: str, m: int | None = None) -> LawReport:
    """Sweep the 2^(q^t) subsets of A^t(F_q), q^t <= SWEEP_POINTS, in mask
    order for counterexamples to Lemma 2's part, stopping at the fifth."""
    q = F.q
    _saturation_gates(q, t, part, m)
    if q ** min(t, SWEEP_POINTS) > SWEEP_POINTS:  # q >= 2, so t is capped too
        raise BudgetExceeded(f"the sweep needs q^t <= {SWEEP_POINTS}, got q={q}, t={t}")
    total = 1 << q**t
    flats = {k: _subspace_masks(F, t, k) for k in (1, 2, t - 1)}
    counterexamples: list[int] = []
    checked = hypothesis_met = 0
    for lo in range(0, total, SWEEP_CHUNK):
        checked = min(lo + SWEEP_CHUNK, total)
        met, bad = _sweep_masks(np.arange(lo, checked, dtype=np.uint32), F, t, part, m, flats)
        counterexamples += bad[: 5 - len(counterexamples)].tolist()
        if len(counterexamples) == 5:  # stop at the fifth
            checked = counterexamples[-1] + 1
            hypothesis_met += int(np.count_nonzero(met < checked))
            break
        hypothesis_met += len(met)
    evidence = {
        "q": q,
        "t": t,
        "part": part,
        "subsets_checked": checked,
        "hypothesis_met": hypothesis_met,
        "mode": "exhaustive",
    }
    if m is not None:
        evidence["m"] = m
    witness = None
    if counterexamples:
        bits = np.flatnonzero(counterexamples[0] >> np.arange(q**t) & 1)
        first = list(map(tuple, _coordinates(bits, q, t).T.tolist()))
        witness = {"masks": counterexamples, "first_set": first}
    return LawReport(f"line-saturation-{part}-sweep", True, not counterexamples, evidence, witness)
