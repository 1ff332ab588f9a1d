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
from itertools import combinations, islice
from typing import Iterator, Sequence

import numpy as np

from .counting import (
    _coordinates,
    basis_entries,
    coset_ids,
    coset_matrix,
    count_zeros,
    default_budget,
    point_digits,
    zero_digits_with_notes,
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
# A batch of an all-pairs sweep comes with its B*G*nk rows of M', read from
# its shape's table in DIRECTIONS or built once per sweep (`direction_batches`).
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


def _pattern_slice(F: FieldSpec, n: int, m: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The direction spaces lo .. hi - 1 (lo < hi <= the Gaussian binomial)
    of `direction_spaces(F, n, m)`, in its order, as (pivots, entries), with
    pivots a (hi - lo, m) array: the slice runs on across pivot patterns.

    The spaces of one pivot pattern are numbered in odometer order over its
    free cells, the last cell fastest, so entry (i, k) of space s is one
    base-q digit of s: s // q^e % q at the cell e places from the end, and
    s // _INTP_MAX % q = 0 off the cells (a place past every number gives
    digit 0, which also keeps the places in intp)."""
    q = F.q
    runs: list[tuple[tuple[int, ...], np.ndarray]] = []
    for pivots in combinations(range(n), m):
        free = [j for j in range(n) if j not in pivots]
        cells = [i * (n - m) + k for i in range(m) for k, j in enumerate(free) if j > pivots[i]]
        total = q ** len(cells)
        if lo < total:
            place = [_INTP_MAX] * (m * (n - m))
            for e, cell in enumerate(reversed(cells)):
                place[cell] = min(q**e, _INTP_MAX)
            s = np.arange(lo, min(hi, total))
            runs.append((pivots, (s[:, None] // np.array(place, dtype=np.intp) % q).reshape(len(s), m, n - m)))
        lo, hi = max(lo - total, 0), hi - total
        if hi <= 0:
            break
    pivots = np.array([piv for piv, _ in runs], dtype=np.intp).reshape(len(runs), m)
    return pivots.repeat([len(e) for _, e in runs], axis=0), np.concatenate([e for _, e in runs])


# bytes of the direction spaces built at a time on a miss (`direction_batches`)
PART_BYTES = 1 << 16

# bytes that the direction tables of every field hold together: the largest
# shapes the suite sweeps, A^5 over F_5 and F_4, take 2.9 MB and 1.6 MB
DIRECTIONS = Memo(1 << 22)


def _direction_part(F: FieldSpec, n: int, m: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The direction spaces lo .. hi - 1 of `direction_spaces(F, n, m)`,
    afresh: their pivots and entries, as `_pattern_slice` gives them, and
    their rows of `coset_matrix`."""
    pivots, entries = _pattern_slice(F, n, m, lo, hi)
    pivots = pivots.astype(np.min_scalar_type(n))
    entries = entries.astype(np.min_scalar_type(F.q - 1))
    return pivots, entries, coset_matrix(pivots, entries, F)


def _slices(table: Sequence[np.ndarray], cap: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The spaces of a (pivots, entries, matrix rows) table, cap at a time
    (the last slice may hold fewer)."""
    pivots, entries, matrix = table
    size = len(pivots)
    G = len(matrix) // size
    for lo in range(0, size, cap):
        hi = min(lo + cap, size)
        yield pivots[lo:hi], entries[lo:hi], matrix[lo * G : hi * G]


def direction_batches(F: FieldSpec, n: int, m: int, cap: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The direction spaces of dimension m in A^n(F), in `direction_spaces`
    order, cap at a time (the last batch may hold fewer), as
    `_direction_part` gives them.  They depend on (F, n, m) alone, so every
    sweep of that shape reads one table, whatever its cap.

    On a DIRECTIONS hit the batches are slices of the kept table.  On a
    miss the spaces are built as the caller reaches them, in parts of whole
    batches of about PART_BYTES; when the whole table fits the memo's bound,
    each part is also written into arrays allocated once, put in DIRECTIONS
    after the last part.  So a caller that stops early has built at most
    one part past its last batch, and keeps nothing."""
    key = (F.tables, n, m)
    table = DIRECTIONS.get(key)
    if table is not None:
        yield from _slices(table, cap)
        return
    size = gaussian_binomial(F.q, n, m)
    first = _direction_part(F, n, m, 0, 1)  # per space: 1, 1 and G rows
    space_bytes = max(1, sum(a.nbytes for a in first))
    keep = size * space_bytes <= DIRECTIONS.bound
    table = [np.empty((len(a) * size,) + a.shape[1:], a.dtype) for a in first] if keep else []
    step = cap * max(1, PART_BYTES // (cap * space_bytes))
    for lo in range(0, size, step):
        part = _direction_part(F, n, m, lo, min(lo + step, size))
        for array, a, rows in zip(table, part, first):
            array[len(rows) * lo : len(rows) * lo + len(a)] = a
        yield from _slices(part, cap)
    if keep:
        DIRECTIONS.put(key, tuple(table), size * space_bytes)


def _sampled_batches(spaces: Iterator, n: int, cap: int):
    """Group RREF bases into (pivots, entries) batches of cap consecutive
    spaces (the last may hold fewer)."""
    spaces = iter(spaces)
    while chunk := [basis_entries(rows, n) for rows in islice(spaces, cap)]:
        pivots, entries = zip(*chunk)
        yield np.array(pivots, dtype=np.intp), np.stack(entries)


def _flat(F: FieldSpec, n: int, pivots: Sequence[int], entries: np.ndarray, coset: int) -> dict:
    """The flat numbered coset in its space's `parallel_class`: its offset
    (zero at the pivots, the coset number's base-q digits big-endian at the
    free columns) and its RREF rows, rebuilt from the space's pivots and
    free entries."""
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
    """A failing space's RREF rows, with the offsets and counts of its two
    disagreeing cosets."""
    flats = [_flat(F, n, pivots, entries, coset) for coset, _ in pair]
    return {"rows": flats[0]["rows"], "offsets": [f["offset"] for f in flats], "counts": [count for _, count in pair]}


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


def _sweep_classes(
    X: np.ndarray, F: FieldSpec, dims: Sequence[int], modulus: int, scope: CheckScope, agreed: dict
):
    """Check the direction spaces of each dimension in dims on the zero
    points' `point_digits` X, in enumeration order, until scope.budget
    spaces are checked (the one space of dimension n has one coset, so it
    holds with no coset product).  Returns (classes_checked, per_dim,
    truncated, witness); witness is None unless a space fails, and then the
    sweep stops at that space.

    agreed holds the zero set's congruence notes (`counting._Walk.agreed`):
    under (m, M), how many leading spaces of dimension m, in `direction_batches`
    order, have coset counts that agree mod M.  Agreement mod p^j implies
    agreement mod p^i for i <= j, so an all-pairs sweep mod M' takes as
    known the longest prefix noted under any M that M' divides, and passes
    a batch that lies wholly inside it unchecked.  After each batch that it
    checks, it notes its passed prefix under (m, M'): up to the failing
    space, or through the batch.  A batch with a failing space is never passed
    unchecked, so the counts, the cut and the witness are those of a fresh
    sweep.  A sampled sweep draws its spaces in another order and neither
    reads nor writes notes."""
    q, n, N = F.q, X.shape[0] // F.k, X.shape[1]
    checked = 0
    per_dim: dict[int, int] = {}
    for m in dims:
        # batch working set: B*|Z|*(n-m) coordinates and B*q^(n-m) counts
        room = scope.budget - checked
        cap = max(1, min(BATCH // max(1, N * (n - m)), BATCH // q ** (n - m), room))
        known = 0
        if scope.all_pairs:
            batches = direction_batches(F, n, m, cap)
            known = max((k for (dim, M), k in agreed.items() if dim == m and M % modulus == 0), default=0)
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

    X, agreed = zero_digits_with_notes(system, budget)
    checked, per_dim, truncated, witness = _sweep_classes(X, F, dims, modulus, scope, agreed)
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


def _superspace_hits(X: np.ndarray, L: AffineSubspace) -> tuple[int, np.ndarray, np.ndarray]:
    """|Z cap L|, and the numbers of the proper subspace L's superspaces in
    ascending order with the points of Z on each off L.  X = point_digits(Z, F).

    A point z off L lies on one superspace, L + span(v): v is z's coset of
    L's direction space (`coset_ids`) minus L's own at the free columns,
    scaled to lead with F.one.  Read big-endian, v numbers the superspace;
    those whose v leads at place e from the end are [one*q^e, (one+1)*q^e),
    so the ascending numbers, e = 0 .. f - 1, are the odometer order of v."""
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
    """Grow L0 to a maximal subspace L with the same Z-count, pick the
    (dim+1)-superspace L' with minimal count, and verify

        |Z| >= |Z cap L| + (q^(n-k) - 1)/(q - 1) * (|Z cap L'| - |Z cap L|).

    The inequality is pure counting over the disjoint superspace cover, so
    it holds for arbitrary point sets Z, not only zero sets.  Each step
    counts Z on every superspace at once (`_superspace_hits`) and grows L
    into the first, in number order, with no point of Z off L.
    """
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
    cmin = base + int(hits.min())
    classes = (q ** (n - k) - 1) // (q - 1)
    bound = base + classes * (cmin - base)
    evidence.update(
        {
            "superspaces": len(hits),
            "expected_superspaces": classes,
            "min_superspace_count": cmin,
            "bound": bound,
        }
    )
    passed = total >= bound and len(hits) == classes and cmin >= base
    witness = None
    if not passed:
        witness = {"bound": bound, "total": total}
    return LawReport("covering-bound", True, passed, evidence, witness)


# membership tests (a point of Z against a flat) one covering trial may run,
# counted as `covering_trial_budget` counts them: A^9(F_2), A^6(F_3),
# A^5(F_4) and A^4(F_5) are the largest spaces within it
COVER_TESTS = 1_000_000
# membership tests of a run of trials, all counted alike
COVER_RUN_TESTS = 10 * COVER_TESTS


def covering_trial_budget(q: int, n: int, trials: int = 1) -> None:
    """The covering trials' domain gate and budget: FullSpace for n < 1, and
    BudgetExceeded when one trial could run more than COVER_TESTS membership
    tests, or the trials together more than COVER_RUN_TESTS.  The tests are
    flats times points: a trial's at most q^n points against L0, against
    every superspace of each dimension on the way up, and against the last
    superspaces once more."""
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
    pts = _coordinates(np.arange(q**n), q, n).T[[rng.coin() for _ in range(q**n)]]
    dim = rng.below(n)
    while True:
        rows, _ = rref(F, [[rng.below(q) for _ in range(n)] for _ in range(dim)])
        if len(rows) == dim:
            break
    L0 = AffineSubspace(F, [rng.below(q) for _ in range(n)], rows)
    return covering_bound_report(PointSet(F, n, pts.tolist()), L0)


# -- saturated-set laws (the line/plane combinatorics) ------------------------------


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


# flats of A^t the object-level check counts S on (lines; planes for part
# i), counted before any work: A^6(F_3), part i on A^7(F_2) and A^2(F_251)
# are within it
SATURATION_FLATS = 100_000


def saturation_check_budget(q: int, t: int, part: str, m: int | None = None) -> None:
    """The part's domain gates, then the object-level check's budget: it
    counts S on every line of A^t (every plane for part i), q^(t - k) times
    the Gaussian binomial [t choose k]_q of them, and past SATURATION_FLATS
    it raises BudgetExceeded before any work."""
    _saturation_gates(q, t, part, m)
    k = 2 if part == "i" else 1
    # q >= 2, so past t = 40 there are more than 2^38 flats
    if t > 40 or q ** max(t - k, 0) * gaussian_binomial(q, t, k) > SATURATION_FLATS:
        what = "planes" if k == 2 else "lines"
        raise BudgetExceeded(
            f"the check would walk more than {SATURATION_FLATS} {what} of A^{t}(F_{q})"
        )


def _flat_ids(F: FieldSpec, t: int, k: int, X: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The k-flats of A^t through the points X (`point_digits`, one column
    a point), batch by batch of `direction_batches(F, t, k, cap)`: (pivots,
    entries, ids), with ids[b, z] = b * q^(t - k) + the coset of the
    batch's space b through point z.  So a batch numbers its flats in
    `direction_spaces` x `parallel_class` order.  Nothing for no points,
    or for k outside 0 .. t, which has no flats."""
    if not (0 <= k <= t and X.shape[1]):
        return
    classes = F.q ** (t - k)
    # batch working set: B*|X| flat numbers and B*q^(t-k) flats
    for pivots, entries, matrix in direction_batches(F, t, k, max(1, BATCH // max(X.shape[1], classes))):
        yield pivots, entries, coset_ids(X, pivots, entries, F, matrix) + classes * np.arange(len(entries))[:, None]


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

    Per batch of direction spaces, `_flat_ids` numbers the line (plane for
    part i) through each point of S, and one bincount counts S on each; the
    witness is the first flat, in `direction_spaces` x `parallel_class`
    order, that S meets in 2 <= c < threshold points (part i: c = 3).  Part
    iii's complement lies in a hyperplane when its coset numbers over one
    direction space of dimension t - 1 are all equal: the first such names
    the hyperplane.
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

    k, low = (2, 3) if part == "i" else (1, 2)
    threshold = {"i": 4, "ii": q, "iii": q - 1, "iv": (m or 0) + 1}[part]
    pts = np.array(list(S.points), dtype=np.intp).reshape(len(S), t)
    for pivots, entries, ids in _flat_ids(F, t, k, point_digits(pts, F)):
        counts = np.bincount(ids.ravel(), minlength=len(entries) * q ** (t - k))
        hit = np.flatnonzero((counts >= low) & (counts < threshold))
        if len(hit):
            b, coset = divmod(int(hit[0]), q ** (t - k))
            flat = _flat(F, t, pivots[b].tolist(), entries[b], coset)
            if part == "i":
                evidence["reason"] = "a 2-plane meets S in exactly 3 points"
                evidence["witness_plane"] = flat
            else:
                evidence["reason"] = f"a line meets S in {counts[hit[0]]} points, below the threshold {threshold}"
                evidence["witness_line"] = flat
            return LawReport(law, False, True, evidence)

    if part in ("i", "ii"):
        conclusion = len(S) == q**t
    elif part == "iii":
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
    """One uint32 point mask per k-flat of A^t, in `direction_spaces` x
    `parallel_class` order: each of the q^t odometer points has its bit or-ed
    into the mask of the flat that `_flat_ids` numbers for it."""
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
        bits = np.flatnonzero(counterexamples[0] >> np.arange(q**t) & 1)
        first = list(map(tuple, _coordinates(bits, q, t).T.tolist()))
        witness = {"masks": counterexamples, "first_set": first}
    return LawReport(f"line-saturation-{part}-sweep", True, not counterexamples, evidence, witness)
