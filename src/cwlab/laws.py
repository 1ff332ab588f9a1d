"""Checkers for the divisibility, congruence, and lower-bound laws.

Every checker returns a LawReport.  A report is "vacuous" when the law's
hypotheses do not apply to the input; vacuous reports pass but carry a
reason string so callers can distinguish "held" from "did not apply".
All comparisons are exact integer or rational arithmetic; no floats (the
coset numbers' float64 product is an exact integer product, see
`counting.coset_ids`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import combinations, islice, product
from typing import Iterator, Sequence

import numpy as np

from .counting import (
    basis_entries,
    coset_ids,
    coset_matrix,
    count_zeros,
    default_budget,
    point_digits,
    zero_digits,
    zero_points,
)
from .errors import BudgetExceeded, FullSpace, InvalidArgument, WrongFieldSize
from .fields import FieldSpec
from .memo import Memo
from .polynomials import PolySystem
from .rng import SplitMix64, derive_seed
from .subspaces import (
    AffineSubspace,
    PointSet,
    affine_span,
    direction_spaces,
    gaussian_binomial,
    rref,
    subspace_dim,
)

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
# a batch of B direction spaces of dimension m, over the |Z| zero points,
# holds at most this many point coordinates, B*|Z|*(n - m), and this many
# coset counters, B*q^(n - m) (a quarter of the counting kernel's chunk).
# Larger batches gain no speed: BATCH = 2^16 ran `coset-classes` no faster,
# with a longer tail and more peak memory.
# `coset_ids` packs a space's (n - m)k base-p digits into
# G = ceil((n - m)k / g) integers, so its product holds B*G*|Z| of them: at
# most BATCH when g >= k, which holds wherever the read-out table fits k
# digits, and at most k*BATCH otherwise.
# A batch of an all-pairs sweep is a slice of its shape's `DirectionTable`,
# so its B*G*nk rows of M' are read, not built (see DIRECTIONS).
BATCH = 1 << 14


@dataclass
class LawReport:
    law: str
    applicable: bool
    passed: bool
    evidence: dict = dc_field(default_factory=dict)
    witness: object = None

    def to_json(self) -> str:
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
        return 0 if self.passed else 2


@dataclass
class CheckScope:
    """all_pairs iterates every canonical direction space (budgeted);
    sampled draws seeded random direction spaces instead.  dim restricts
    attention to a single qualifying dimension.  `check_congruence` rejects
    a budget below 0 and a sample below 1 with InvalidArgument."""

    all_pairs: bool = True
    budget: int = DEFAULT_CLASS_BUDGET
    sample: int | None = None
    seed: int = 0
    dim: int | None = None


# -- congruences ---------------------------------------------------------------


def _disagreeing_cosets(ids: np.ndarray, classes: int, modulus: int):
    """For the coset numbers of one direction space: None when every coset
    count has the same residue, else two disagreeing cosets as
    ((coset, count), (coset, count)).  When every coset is met, the first
    one that disagrees with coset 0 is paired with coset 0; otherwise the
    first met coset with a nonzero residue is paired with the first empty
    coset (count 0, residue 0)."""
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
    matrix: np.ndarray | None = None,
):
    """Check a batch of direction spaces of one dimension m at once (pivots
    as a (B, m) array, entries as `basis_entries` gives them, one (m, n - m)
    block per space, and matrix their `coset_matrix` if the caller has it)
    on the zero points as `point_digits` gives them, one column a point.
    Returns None when, for every space, the zero points' counts over its
    cosets agree mod modulus; else (b, pair) for the first space b that
    fails, with pair as `_disagreeing_cosets` gives it.

    Every coset of the batch is counted by one bincount over
    space * q^(n-m) + coset.  A coset that no point meets counts 0, whose
    residue is 0, so a space passes exactly when its row of residues is
    constant.  Past BATCH classes per space (then a batch holds one space)
    only the met cosets are counted, space by space.
    """
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


_INTP_MAX = int(np.iinfo(np.intp).max)


def _pattern_batches(F: FieldSpec, n: int, m: int, cap: int, lo: int = 0):
    """The direction spaces of `direction_spaces(F, n, m)` from number lo
    on, in its order, as (pivots, entries) batches of cap spaces (the last
    may hold fewer), with pivots a (B, m) array: a batch runs on across
    pivot patterns.

    The spaces of one pivot pattern are numbered in odometer order over its
    free cells, the last cell fastest, so entry (i, k) of space t is one
    base-q digit of t: t // q^e % q at the cell e places from the end, and
    t // _INTP_MAX % q = 0 off the cells (a place past every number gives
    digit 0, which also keeps the places in intp)."""
    q, size = F.q, m * (n - m)
    parts: list[tuple[tuple[int, ...], np.ndarray]] = []
    room = cap
    for pivots in combinations(range(n), m):
        free = [j for j in range(n) if j not in pivots]
        cells = [i * (n - m) + k for i in range(m) for k, j in enumerate(free) if j > pivots[i]]
        total = q ** len(cells)
        if lo >= total:
            lo -= total
            continue
        place = [_INTP_MAX] * size
        for e, cell in enumerate(reversed(cells)):
            place[cell] = min(q**e, _INTP_MAX)
        place = np.array(place, dtype=np.intp)
        while lo < total:
            hi = min(lo + room, total)
            parts.append((pivots, (np.arange(lo, hi)[:, None] // place % q).reshape(hi - lo, m, n - m)))
            room -= hi - lo
            lo = hi
            if room == 0:
                yield _joined(parts)
                parts, room = [], cap
        lo = 0
    if parts:
        yield _joined(parts)


def _joined(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """One (pivots, entries) batch from runs of (pivot tuple, entries)."""
    pivots = np.array([piv for piv, _ in parts], dtype=np.intp)
    return pivots.repeat([len(e) for _, e in parts], axis=0), np.concatenate([e for _, e in parts])


class DirectionTable:
    """The direction spaces of dimension m in A^n(F), in `direction_spaces`
    order: each space's pivots and free entries, as `_pattern_batches` gives
    them, and its rows of `coset_matrix`.  They depend on (F, n, m) alone,
    so every sweep of that shape slices one table, whatever its batch size.

    The table holds a prefix of the enumeration and grows it on demand.  A
    slice past the prefix grows it to the larger of the slice's end and
    twice the prefix, so a sweep that stops early, at a witness or at its
    budget, has built at most about twice the spaces it checked.  A growth
    puts the table in DIRECTIONS again at its grown size; a slice past the
    room the bound gives it, or of a table DIRECTIONS has dropped, is built
    by the same builder and not kept.

    The arrays are allocated once, with room for as many spaces as the
    bound lets the table keep, and never touched past the prefix, so only
    the prefix's pages are resident.  A growth writes the new spaces into
    that room, built `grow_bytes` at a time: it copies nothing and holds one
    such part besides the table."""

    grow_bytes = 1 << 16

    def __init__(self, F: FieldSpec, n: int, m: int):
        self.key = (F.tables, n, m)
        self.field, self.n, self.m = F, n, m
        self.size = gaussian_binomial(F.q, n, m)
        first = self.build(0, 1)
        self.space_bytes = max(1, sum(a.nbytes for a in first))
        capacity = max(1, min(self.size, DIRECTIONS.bound // self.space_bytes))
        self.rows = [len(a) for a in first]  # per space: 1, 1 and G
        self.arrays = [np.empty((r * capacity,) + a.shape[1:], a.dtype) for r, a in zip(self.rows, first)]
        self.built = 0
        self.write(first, 1)

    def build(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spaces lo .. hi - 1, afresh: (pivots, entries, coset_matrix rows)."""
        pivots, entries = next(_pattern_batches(self.field, self.n, self.m, hi - lo, lo))
        pivots = pivots.astype(np.min_scalar_type(self.n))
        entries = entries.astype(np.min_scalar_type(self.field.q - 1))
        return pivots, entries, coset_matrix(pivots, entries, self.field)

    def write(self, parts: tuple, end: int) -> None:
        """Extend the prefix to end spaces with parts, spaces built .. end - 1."""
        for r, array, part in zip(self.rows, self.arrays, parts):
            array[r * self.built : r * end] = part
        self.built = end

    @property
    def nbytes(self) -> int:
        return self.built * self.space_bytes

    def batches(self, cap: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every space, as slices of cap spaces (the last may hold fewer)."""
        for lo in range(0, self.size, cap):
            yield self.slice(lo, min(lo + cap, self.size))

    def slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spaces lo .. hi - 1 (hi <= size): their pivots, entries and
        coset_matrix rows, from the prefix when the memo lets it grow."""
        if hi > self.built:
            grow = min(self.size, max(hi, 2 * self.built), len(self.arrays[0]))
            kept = DIRECTIONS.get(self.key) is self
            if grow < hi or not kept or not DIRECTIONS.put(self.key, self, grow * self.space_bytes):
                return self.build(lo, hi)
            step = max(1, self.grow_bytes // self.space_bytes)
            for start in range(self.built, grow, step):
                end = min(start + step, grow)
                self.write(self.build(start, end), end)
        G = self.rows[2]
        return self.arrays[0][lo:hi], self.arrays[1][lo:hi], self.arrays[2][lo * G : hi * G]


# bytes that the direction tables of every field hold together: the largest
# shapes the suite sweeps, A^5 over F_5 and F_4, take 2.9 MB and 1.6 MB
DIRECTIONS = Memo(1 << 22)


def direction_table(F: FieldSpec, n: int, m: int) -> DirectionTable:
    """The table of (F, n, m) in DIRECTIONS, now the most recently used;
    else a new one (one space built), kept if it fits."""
    key = (F.tables, n, m)
    table = DIRECTIONS.get(key)
    if table is None:
        table = DirectionTable(F, n, m)
        DIRECTIONS.put(key, table, table.nbytes)
    return table


def _sampled_batches(spaces: Iterator, n: int, cap: int):
    """Group RREF bases into (pivots, entries) batches of cap consecutive
    spaces (the last may hold fewer)."""
    spaces = iter(spaces)
    while chunk := [basis_entries(rows, n) for rows in islice(spaces, cap)]:
        pivots, entries = zip(*chunk)
        yield np.array(pivots, dtype=np.intp), np.stack(entries)


def _witness(F: FieldSpec, n: int, pivots: Sequence[int], entries: np.ndarray, pair) -> dict:
    """A failing space's RREF rows, rebuilt from its pivots and free
    entries, with the offsets and counts of its two disagreeing cosets."""
    free = [j for j in range(n) if j not in pivots]
    rows = []
    for piv, vals in zip(pivots, entries.tolist()):
        row = [0] * n
        row[piv] = F.one
        for j, v in zip(free, vals):
            row[j] = v
        rows.append(row)
    offsets = []
    for coset, _ in pair:
        off = [0] * n
        for j in reversed(free):
            coset, off[j] = divmod(coset, F.q)
        offsets.append(off)
    return {"rows": rows, "offsets": offsets, "counts": [count for _, count in pair]}


def _sampled_direction_spaces(
    F: FieldSpec, n: int, m: int, count: int, seed: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    rng = SplitMix64(derive_seed(seed, n, m))
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < 50 * count:
        attempts += 1
        rows = [[rng.below(F.q) for _ in range(n)] for _ in range(m)]
        canon, _ = rref(F, rows)
        if len(canon) != m or canon in seen:
            continue
        seen.add(canon)
        yield canon


def _sweep_classes(X: np.ndarray, F: FieldSpec, dims: Sequence[int], modulus: int, scope: CheckScope):
    """Check the direction spaces of each dimension in dims on the zero
    points' `point_digits` X, in enumeration order, until scope.budget
    spaces are checked (the one space of dimension n has one coset, so it
    holds with no coset product).  Returns (classes_checked, per_dim,
    truncated, witness); witness is None unless a space fails, and then the
    sweep stops at that space."""
    q, n, N = F.q, X.shape[0] // F.k, X.shape[1]
    checked = 0
    per_dim: dict[int, int] = {}
    for m in dims:
        # batch working set: B*|Z|*(n-m) coordinates and B*q^(n-m) counts
        room = scope.budget - checked
        cap = max(1, min(BATCH // max(1, N * (n - m)), BATCH // q ** (n - m), room))
        if scope.all_pairs:
            batches = direction_table(F, n, m).batches(cap)
        else:
            want = scope.budget if scope.sample is None else scope.sample
            spaces = _sampled_direction_spaces(F, n, m, min(want, gaussian_binomial(q, n, m)), scope.seed)
            batches = ((pivots, entries, None) for pivots, entries in _sampled_batches(spaces, n, cap))
        for pivots, entries, matrix in batches:
            room = scope.budget - checked
            if room <= 0:
                return checked, per_dim, True, None
            cut = len(entries) > room
            if cut:  # coset_ids builds the matrix of the spaces kept
                pivots, entries, matrix = pivots[:room], entries[:room], None
            hit = None if m == n else _coset_residue_check(X, pivots, entries, F, modulus, matrix)
            done = len(entries) if hit is None else hit[0] + 1
            checked += done
            per_dim[m] = per_dim.get(m, 0) + done
            if hit is not None:
                b, pair = hit
                witness = _witness(F, n, pivots[b].tolist(), entries[b], pair)
                return checked, per_dim, False, {**witness, "dim": m}
            if cut:
                return checked, per_dim, True, None
    return checked, per_dim, False, None


def check_congruence(
    system: PolySystem,
    law: str,
    scope: CheckScope | None = None,
    *,
    budget: int | None = None,
) -> LawReport:
    """Check one of the congruence laws.

    chevalley: p | N(full) when n > d.     ax: q | N(full) when n > d.
    warning-hyperplanes: counts over parallel hyperplanes agree mod p
    (n > d: a hyperplane has dimension n - 1, which must reach d).
    parallel-subspaces (alias theorem1): counts over any two
    parallel subspaces of dimension >= d agree mod q.
    """
    if law not in LAW_ALIASES:
        raise InvalidArgument(f"unknown law {law!r}; choose from {sorted(LAW_ALIASES)}")
    law = LAW_ALIASES[law]
    scope = scope or CheckScope()
    if scope.budget < 0:
        raise InvalidArgument(f"the class budget must be >= 0, got {scope.budget}")
    if scope.sample is not None and scope.sample < 1:
        raise InvalidArgument(f"a sampled check draws at least 1 direction space, got {scope.sample}")
    F = system.field
    n, d, q, p = system.nvars, system.total_degree, F.q, F.p

    if law in ("chevalley", "ax"):
        if not n > d:
            return LawReport(
                law, False, True, {"reason": "requires n > d", "n": n, "d": d}
            )
        N = count_zeros(system, budget=budget).count
        mod = p if law == "chevalley" else q
        res = N % mod
        return LawReport(
            law,
            True,
            res == 0,
            {"count": N, "modulus": mod, "residue": res},
            None if res == 0 else {"count": N, "modulus": mod},
        )

    if law == "warning-hyperplanes":
        if not n > d:
            return LawReport(
                law, False, True, {"reason": "requires n > d", "n": n, "d": d}
            )
        dims = [n - 1]
        modulus = p
    else:  # parallel-subspaces
        if d > n:
            return LawReport(
                law,
                False,
                True,
                {"reason": "no subspace dimension reaches d", "n": n, "d": d},
            )
        dims = list(range(max(d, 0), n + 1))
        modulus = q
    if scope.dim is not None:
        if scope.dim not in dims:
            return LawReport(
                law,
                False,
                True,
                {
                    "reason": f"dimension {scope.dim} is outside the qualifying range",
                    "qualifying_dims": dims,
                },
            )
        dims = [scope.dim]

    X = zero_digits(system, budget)
    checked, per_dim, truncated, witness = _sweep_classes(X, F, dims, modulus, scope)
    evidence = {
        "modulus": modulus,
        "classes_checked": checked,
        "per_dim": per_dim,
        "zero_count": int(X.shape[1]),
    }
    if witness is not None:
        return LawReport(law, True, False, evidence, witness)
    evidence["truncated"] = truncated
    evidence["mode"] = "all_pairs" if scope.all_pairs else f"sampled(seed={scope.seed})"
    return LawReport(law, True, True, evidence)


def homogenization_identity(system: PolySystem, *, budget: int | None = None) -> LawReport:
    """Exact identity N(f+) = (q-1) N(f) + N(f-), plus N(f) = N(f-) mod q
    whenever n >= d."""
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
    """Audit the floor bound N >= q^(n-d) for nonempty zero sets, and the
    three sharper bounds that hold when the zero set is not an affine
    subspace: N > q^(n-d); N >= 2 q^(n-d) for q >= 4; and, for homogeneous
    systems, N >= q^(n+1-d)/(n+2-d) (compared as cross-multiplied integers).
    """
    F = system.field
    q, n, d = F.q, system.nvars, system.total_degree
    parts: dict[str, dict] = {}
    if d >= n:
        return LawReport(
            "lower-bounds", False, True, {"reason": "requires n > d", "n": n, "d": d}
        )
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
            parts["double"] = {
                "applicable": True,
                "pass": N >= 2 * floor,
                "lhs": N,
                "rhs": 2 * floor,
            }
        else:
            parts["double"] = {"applicable": False, "pass": True}
        if system.is_homogeneous:
            # N >= q^(n+1-d) / (n+2-d), exactly: N * (n+2-d) >= q^(n+1-d)
            lhs = N * (n + 2 - d)
            rhs = q ** (n + 1 - d)
            parts["homogeneous_ratio"] = {
                "applicable": True,
                "pass": lhs >= rhs,
                "lhs": f"{N}*{n + 2 - d}",
                "rhs": rhs,
            }
        else:
            parts["homogeneous_ratio"] = {"applicable": False, "pass": True}
    evidence["parts"] = parts
    passed = all(p["pass"] for p in parts.values())
    witness = None if passed else {"failing": [k for k, v in parts.items() if not v["pass"]]}
    return LawReport("lower-bounds", True, passed, evidence, witness)


# -- covering bound (growth witness) ----------------------------------------------


def _intersection_count(Z: PointSet, L: AffineSubspace) -> int:
    return sum(1 for pt in Z.points if L.contains(pt))


def covering_bound_report(Z: PointSet, L0: AffineSubspace) -> LawReport:
    """Grow L0 to a maximal subspace L with the same Z-count, pick the
    (dim+1)-superspace L' with minimal count, and verify

        |Z| >= |Z cap L| + (q^(n-k) - 1)/(q - 1) * (|Z cap L'| - |Z cap L|).

    The inequality is pure counting over the disjoint superspace cover, so
    it holds for arbitrary point sets Z, not only zero sets.
    """
    F = Z.field
    n = Z.ambient
    if L0.dim == n:
        raise FullSpace("the base subspace must be proper")
    base = _intersection_count(Z, L0)
    L = L0
    growth = [L0.dim]
    while L.dim < n:
        nxt = None
        for cand in L.superspaces():
            if _intersection_count(Z, cand) == base:
                nxt = cand
                break
        if nxt is None:
            break
        L = nxt
        growth.append(L.dim)
    k = L.dim
    q = F.q
    total = len(Z)
    evidence = {
        "base_count": base,
        "k": k,
        "growth": growth,
        "total": total,
        "n": n,
        "q": q,
    }
    if k == n:
        # Z met every superspace equally all the way up; bound degenerates
        evidence["note"] = "witness grew to the full space; bound reads |Z| >= |Z|"
        return LawReport("covering-bound", True, total >= base, evidence)
    supers = L.superspaces()
    counts = [_intersection_count(Z, Lp) for Lp in supers]
    cmin = min(counts)
    classes = (q ** (n - k) - 1) // (q - 1)
    bound = base + classes * (cmin - base)
    evidence.update(
        {
            "superspaces": len(supers),
            "expected_superspaces": classes,
            "min_superspace_count": cmin,
            "bound": bound,
        }
    )
    passed = total >= bound and len(supers) == classes and cmin >= base
    witness = None
    if not passed:
        witness = {"bound": bound, "total": total}
    return LawReport("covering-bound", True, passed, evidence, witness)


# membership tests (a point of Z against a flat) one covering trial may run:
# at the largest accepted spaces, A^9(F_2), A^6(F_3), A^5(F_4) and A^4(F_5),
# a trial takes about a second at most
COVER_TESTS = 1_000_000
# a run of trials: a few seconds at most
COVER_RUN_TESTS = 10 * COVER_TESTS


def covering_trial_budget(q: int, n: int, trials: int = 1) -> None:
    """The covering trials' domain gate and budget: FullSpace for n < 1, and
    BudgetExceeded when one trial could run more than COVER_TESTS membership
    tests, or the trials together more than COVER_RUN_TESTS.  A trial tests
    at most q^n points against L0, against every superspace of each
    dimension on the way up, and against the last superspaces once more."""
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
    """One seeded trial of the covering bound in A^n(F_q), after
    `covering_trial_budget`.  Draws, in this order: Z (each point of A^n, in
    odometer order, kept on a coin flip), the dimension of L0 (below n),
    L0's rows (redrawn until independent) and its offset; then reports
    `covering_bound_report(Z, L0)`."""
    q = F.q
    covering_trial_budget(q, n)
    pts = [pt for pt in AffineSubspace.full_space(F, n).points() if rng.coin()]
    dim = rng.below(n)
    while True:
        rows, _ = rref(F, [[rng.below(q) for _ in range(n)] for _ in range(dim)])
        if len(rows) == dim:
            break
    L0 = AffineSubspace(F, [rng.below(q) for _ in range(n)], rows)
    return covering_bound_report(PointSet(F, n, pts), L0)


# -- saturated-set laws (the line/plane combinatorics) ------------------------------


def _all_subspaces_of_dim(F: FieldSpec, t: int, m: int) -> list[AffineSubspace]:
    out = []
    for rows in direction_spaces(F, t, m):
        probe = AffineSubspace(F, (0,) * t, rows)
        out.extend(probe.parallel_class())
    return out


SATURATION_PARTS = ("i", "ii", "iii", "iv")


def _saturation_gates(q: int, t: int, part: str, m: int | None) -> None:
    """The domain of each part, shared by both checkers: a typed error
    before any work for an input outside it."""
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


# lines (planes for part i) the object-level check may walk: at the largest
# accepted spaces, A^6(F_3) and part i on A^7(F_2), it takes a few seconds
SATURATION_FLATS = 100_000


def saturation_check_budget(q: int, t: int, part: str, m: int | None = None) -> None:
    """The part's domain gates, then the object-level check's budget: it
    walks every line of A^t (every plane for part i), and past
    SATURATION_FLATS of them it raises BudgetExceeded before any work."""
    _saturation_gates(q, t, part, m)
    k = 2 if part == "i" else 1
    # q >= 2, so past t = 40 there are more than 2^38 flats
    if t > 40 or q ** max(t - k, 0) * gaussian_binomial(q, t, k) > SATURATION_FLATS:
        what = "planes" if k == 2 else "lines"
        raise BudgetExceeded(
            f"the check would walk more than {SATURATION_FLATS} {what} of A^{t}(F_{q})"
        )


def saturated_set_check(
    S: PointSet, part: str, m: int | None = None
) -> LawReport:
    """Check one of the four line-saturation laws for S in A^t(F_q).

    Common hypothesis: S contains t+1 points in general position.  Then:
      i   (q = 2): no 2-plane meets S in exactly 3 points  =>  S = A^t.
      ii  (q >= 3): every line meeting S twice lies in S   =>  S = A^t.
      iii (q >= 4): every line meeting S twice has >= q-1
                    points of S                            =>  complement
                    of S lies in a hyperplane.
      iv  (m >= 2): every line meeting S twice has >= m+1
                    points of S                            =>  |S| >= (m^(t+1)-1)/(m-1).
    """
    F = S.field
    q, t = F.q, S.ambient
    saturation_check_budget(q, t, part, m)
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

    if part == "i":
        for P in _all_subspaces_of_dim(F, t, 2):
            inter = sum(1 for pt in P.points() if pt in S)
            if inter == 3:
                evidence["reason"] = "a 2-plane meets S in exactly 3 points"
                evidence["witness_plane"] = {
                    "offset": list(P.offset),
                    "rows": [list(r) for r in P.basis],
                }
                return LawReport(law, False, True, evidence)
        conclusion = len(S) == q**t
        return LawReport(law, True, conclusion, evidence, None if conclusion else {"size": len(S)})

    lines = _all_subspaces_of_dim(F, t, 1)
    threshold = {"ii": q, "iii": q - 1, "iv": (m or 0) + 1}[part]
    for ln in lines:
        inter = sum(1 for pt in ln.points() if pt in S)
        if 2 <= inter < threshold:
            evidence["reason"] = (
                f"a line meets S in {inter} points, below the threshold {threshold}"
            )
            evidence["witness_line"] = {
                "offset": list(ln.offset),
                "rows": [list(r) for r in ln.basis],
            }
            return LawReport(law, False, True, evidence)

    if part == "ii":
        conclusion = len(S) == q**t
    elif part == "iii":
        complement = [
            pt for pt in AffineSubspace.full_space(F, t).points() if pt not in S
        ]
        if not complement:
            conclusion = True
        else:
            conclusion = False
            for H in _all_subspaces_of_dim(F, t, t - 1):
                if all(H.contains(pt) for pt in complement):
                    conclusion = True
                    evidence["complement_hyperplane"] = {
                        "offset": list(H.offset),
                        "rows": [list(r) for r in H.basis],
                    }
                    break
        evidence["complement_size"] = len(complement)
    else:  # iv
        need = (m**(t + 1) - 1) // (m - 1)  # type: ignore[operator]
        evidence["required_size"] = need
        conclusion = len(S) >= need
    return LawReport(law, True, conclusion, evidence, None if conclusion else {"size": len(S)})


# -- exhaustive saturation sweeps (numpy bitsets) ---------------------------------

# a subset of A^t(F_q) is a uint32 mask over the odometer points, so q^t <= 27
# keeps all 2^(q^t) masks in range (2^27 of them take a few seconds)
SWEEP_POINTS = 27
# subset masks per kernel step: a few MB of working memory
SWEEP_CHUNK = 1 << 20


def _subspace_masks(F: FieldSpec, t: int, k: int) -> np.ndarray:
    """One uint32 point mask per k-flat of A^t, in `_all_subspaces_of_dim`
    order: the q^t odometer points are bucketed by coset once per batch of
    direction spaces, and each point's bit is or-ed into its coset's mask."""
    if not 0 <= k <= t:
        return np.zeros(0, dtype=np.uint32)
    q = F.q
    Z = np.arange(q**t)[:, None] // q ** np.arange(t - 1, -1, -1) % q
    bits = np.left_shift(np.uint32(1), np.arange(q**t, dtype=np.uint32))
    X = point_digits(Z, F)
    classes = q ** (t - k)
    out = []
    for pivots, entries, matrix in direction_table(F, t, k).batches(max(1, BATCH // q**t)):
        ids = coset_ids(X, pivots, entries, F, matrix) + classes * np.arange(len(entries))[:, None]
        masks = np.zeros(len(entries) * classes, dtype=np.uint32)
        np.bitwise_or.at(masks, ids.ravel(), np.broadcast_to(bits, ids.shape).ravel())
        out.append(masks)
    return np.concatenate(out)


def _sweep_masks(
    M: np.ndarray, F: FieldSpec, t: int, part: str, m: int | None, flats: dict[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The subset masks of M (uint32) that meet the part's hypothesis, and
    the counterexamples among them, both in the order of M.  flats[k] holds
    the k-flat masks for k = 1, 2 and t - 1.  Applies no part gate.

    M is pruned line by line (for part i, plane by plane); the survivors
    with t + 1 points in general position (inside no hyperplane) meet the
    hypothesis, and those that miss the part's conclusion are the
    counterexamples."""
    q = F.q
    if part == "i":
        for P in flats[2]:
            M = M[np.bitwise_count(M & P) != 3]
    else:
        threshold = q if part == "ii" else q - 1 if part == "iii" else m + 1  # type: ignore[operator]
        for L in flats[1]:
            c = np.bitwise_count(M & L)
            M = M[(c < 2) | (c >= threshold)]
    M = M[np.bitwise_count(M) > t]
    for H in flats[t - 1]:
        M = M[(M & ~H) != 0]
    size = np.bitwise_count(M)
    if part in ("i", "ii"):
        holds = size == q**t
    elif part == "iii":  # the complement lies in a hyperplane (or is empty)
        comp = ~M & np.uint32((1 << q**t) - 1)
        holds = comp == 0
        for H in flats[t - 1]:
            holds |= (comp & ~H) == 0
    else:
        holds = size >= (m**(t + 1) - 1) // (m - 1)  # type: ignore[operator]
    return M, M[~holds]


def saturated_set_exhaustive(F: FieldSpec, t: int, part: str, m: int | None = None) -> LawReport:
    """Sweep all 2^(q^t) subsets of A^t(F_q) (q^t <= SWEEP_POINTS) for
    counterexamples to a saturation law, in mask order; the sweep stops at
    the fifth counterexample."""
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
        first = [pt for i, pt in enumerate(product(range(q), repeat=t)) if counterexamples[0] >> i & 1]
        witness = {"masks": counterexamples, "first_set": first}
    return LawReport(f"line-saturation-{part}-sweep", True, not counterexamples, evidence, witness)
