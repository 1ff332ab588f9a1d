"""Exact zero counting over full spaces, subspaces and extension fields.

Two engines must agree exactly: the fast kernel, which walks the point grid
in odometer order and keeps the zeros' odometer indexes (its GEMM and trie
steps, the cone walk and the walk memo are README's design notes), and the
oracle, which evaluates every polynomial at every point.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import AmbientMismatch, BudgetExceeded, CwlabError, InvalidArgument, ZeroPolynomial
from .fields import FieldSpec, FieldTables, build_field, embed_subfield
from .memo import Memo
from .polynomials import MultiPoly, PolySystem, restrict_to_subspace
from .subspaces import AffineSubspace

# points a count may scan: the oracle's cap, the fast engine's cap, and the
# default point budget (`CWLAB_BUDGET` overrides it); every one is below 2^30
ORACLE_CAP = 10**6
FAST_CAP = 10**9
DEFAULT_BUDGET = 1 << 22
# points per kernel step: bounds the kernel's working memory at a few MB
CHUNK = 1 << 16


def default_budget() -> int:
    """The point budget: `CWLAB_BUDGET` if set, else DEFAULT_BUDGET; an
    input error for a value that is not an integer >= 0."""
    env = os.environ.get("CWLAB_BUDGET")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise CwlabError(f"CWLAB_BUDGET must be an integer, got {env!r}") from None
        if budget < 0:
            raise InvalidArgument(f"CWLAB_BUDGET must be >= 0, got {budget}")
        return budget
    return DEFAULT_BUDGET


@dataclass
class CountReport:
    """One count: the field size, the system's shape, the region, the count,
    the points scanned and the points evaluated (see README)."""

    q: int
    n: int
    r: int
    degrees: tuple[int, ...]
    d: int
    region: str
    count: int
    scanned: int
    workers: int = 1  # kept in the body for its stable shape; counting is serial
    points_evaluated: int = 0  # where the first polynomial was evaluated
    elapsed: float = dc_field(default=0.0, repr=False)

    def to_json(self) -> str:
        """The report body, keys in a fixed order."""
        return json.dumps(
            {
                "q": self.q,
                "n": self.n,
                "region": self.region,
                "count": self.count,
                "scanned": self.scanned,
                "workers": self.workers,
                "points_evaluated": self.points_evaluated,
            }
        )


# -- the zero-mask kernel ---------------------------------------------------------


def _coordinates(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    """Coordinate columns of odometer indexes (first coordinate slowest), as
    the rows of an (n, len(idx)) array."""
    cols = np.empty((n, len(idx)), dtype=idx.dtype)
    rem = idx
    for i in range(n - 1, -1, -1):
        rem, cols[i] = np.divmod(rem, q)
    return cols


@lru_cache(maxsize=1 << 12)
def _word(exps: tuple[int, ...]) -> tuple[int, ...]:
    """The word of exponent vector exps: each variable's number once per
    unit of its exponent (x1^2*x3 is 0, 0, 2)."""
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


Spelled = list[tuple[tuple[int, ...], int]]


def _spelled(f: MultiPoly) -> Spelled:
    """f's terms as sorted (word, coefficient) pairs; the zero polynomial as
    the constant 0."""
    return sorted((_word(exps), c) for exps, c in f.terms.items()) or [((), 0)]


class Plan(NamedTuple):
    """Words compiled into a trie.  Node row 0 is the empty word (log sum
    0); levels[l - 1] = (start, stop, parents, variables, fold) makes rows
    [start, stop) of length l, each its parent's row (none at length 1)
    plus one variable's logs, after folding the rows in fold (`FieldTables.
    depth` logs, else None).  rows holds each term's node, grouped by the
    split variable's powers (sizes[g] terms in group g, None for one group);
    order maps plan terms to spelled terms (None when equal); empty tells
    whether a term's node is row 0."""

    levels: tuple[tuple[int, int, np.ndarray | None, np.ndarray, slice | None], ...]
    nodes: int
    rows: np.ndarray
    sizes: tuple[int, ...] | None
    powers: tuple[int, ...]
    order: list[int] | None
    empty: bool


# plans `_plan` keeps, each a few index arrays
PLAN_MEMO = 1 << 8


@lru_cache(maxsize=PLAN_MEMO)
def _plan(words: tuple[tuple[int, ...], ...], last: int | None) -> Plan:
    """The `Plan` of these sorted words.  With last given, a word's trailing
    run of last (the largest number) is its power e and the groups are the
    g_e of f = sum_e g_e * x_last^e.  The nodes are the words' distinct
    prefixes, from one walk in sorted order."""
    rests, powers = words, [0] * len(words)
    if last is not None:
        rests = []
        for i, w in enumerate(words):
            cut = len(w)
            while cut and w[cut - 1] == last:
                cut -= 1
            rests.append(w[:cut])
            powers[i] = len(w) - cut
    parents: list[list[int]] = []  # [l - 1]: each node of length l's parent, numbered within length l - 1
    variables: list[list[int]] = []
    node = [0] * len(words)  # each term's node, numbered within its length
    path: list[int] = []  # the nodes of the current word's prefixes
    prev: tuple[int, ...] = ()
    for i in range(len(words)) if last is None else sorted(range(len(words)), key=rests.__getitem__):
        w = rests[i]
        keep = 0
        for a, b in zip(w, prev):
            if a != b:
                break
            keep += 1
        del path[keep:]
        for l in range(keep, len(w)):
            if l == len(variables):
                parents.append([])
                variables.append([])
            parents[l].append(path[-1] if l else 0)
            path.append(len(variables[l]))
            variables[l].append(w[l])
        node[i] = path[-1] if w else 0
        prev = w
    starts = [1]
    for v in variables:
        starts.append(starts[-1] + len(v))
    levels, held = [], 0
    for l, v in enumerate(variables):
        fold = None
        if held == FieldTables.depth:
            fold, held = slice(starts[l - 1], starts[l]), 1
        up = np.array(parents[l]) + starts[l - 1] if l else None
        levels.append((starts[l], starts[l + 1], up, np.array(v), fold))
        held += 1
    rows = [starts[len(w) - 1] + k if w else 0 for w, k in zip(rests, node)]
    if last is None or len(set(powers)) == 1:
        return Plan(tuple(levels), starts[-1], np.array(rows), None, (powers[0],), None, 0 in rows)
    order = sorted(range(len(words)), key=powers.__getitem__)
    split = sorted(set(powers))
    return Plan(
        levels=tuple(levels),
        nodes=starts[-1],
        rows=np.array([rows[i] for i in order]),
        sizes=tuple(map(powers.count, split)),
        powers=tuple(split),
        order=order,
        empty=0 in rows,
    )


@lru_cache(maxsize=1 << 6)
def _shape(n: int, lengths: tuple[int, ...], last: int | None) -> tuple[Plan, dict[tuple[int, ...], int]]:
    """The plan of every word of these lengths in n variables, and each
    exponent vector's row in its term order."""
    words = sorted(w for l in lengths for w in combinations_with_replacement(range(n), l))
    plan = _plan.__wrapped__(tuple(words), last)
    order = plan.order or range(len(words))
    return plan._replace(order=None), {tuple(map(words[j].count, range(n))): i for i, j in enumerate(order)}


def _compiled(f: MultiPoly, T: FieldTables, last: int | None = None) -> tuple[Plan, np.ndarray]:
    """f's plan and its coefficients' logs in plan order (the shifts of
    `_evaluate`): its shape's plan (`_shape`, absent words at log Z) when
    its terms are at least half of the words of their lengths, else the
    plan of its spelled words."""
    terms = f.terms
    lengths = tuple(sorted(set(map(sum, terms))))
    if terms and sum(comb(f.nvars + l - 1, l) for l in lengths) <= 2 * len(terms):
        plan, rows = _shape(f.nvars, lengths, last)
        coeffs = [0] * len(plan.rows)
        for exps, c in terms.items():
            coeffs[rows[exps]] = c
        return plan, T.log.take(coeffs)
    words, coeffs = zip(*_spelled(f))
    plan = _plan(words, last)
    if plan.order is not None:
        coeffs = [coeffs[i] for i in plan.order]
    return plan, T.log.take(coeffs)


# bytes that one slice of `_evaluate` takes for its node and stack rows,
# counted at 8 bytes an entry, as numpy's gathers hold their indexes (256 KiB)
EVAL_BYTES = 1 << 18


def _evaluate(plan: Plan, shifts: np.ndarray, logs: np.ndarray, T: FieldTables) -> np.ndarray:
    """Each group of a compiled polynomial at the points whose coordinate
    logs are the columns of logs (n, points): a (groups, points) array,
    in slices of at most EVAL_BYTES // (8 * (nodes + terms)) points."""
    step = max(1, EVAL_BYTES // (8 * (plan.nodes + len(plan.rows))))
    return _sliced(lambda s: _evaluate_slice(plan, shifts, logs[:, s], T), logs.shape[1], step)


def _sliced(part, width: int, step: int) -> np.ndarray:
    """part(s) for the slices s of [0, width), step wide, joined on the
    last axis."""
    if width <= step:
        return part(slice(None))
    return np.concatenate([part(slice(lo, lo + step)) for lo in range(0, width, step)], axis=-1)


def _evaluate_slice(plan: Plan, shifts: np.ndarray, logs: np.ndarray, T: FieldTables) -> np.ndarray:
    """`_evaluate` on one slice of points."""
    return T.total(_log_sums(plan, shifts, logs, T), plan.sizes)


def _log_sums(plan: Plan, shifts: np.ndarray, logs: np.ndarray, T: FieldTables) -> np.ndarray:
    """The (terms x points) stack of each term's log sum plus its shift,
    which exp reads as the terms' values."""
    buf = np.empty((plan.nodes, logs.shape[1]), dtype=logs.dtype)
    if plan.empty:
        buf[0] = 0
    for start, stop, parents, variables, fold in plan.levels:
        if fold is not None:
            buf[fold] = T.fold.take(buf[fold], mode="clip")
        if parents is None:
            logs.take(variables, axis=0, out=buf[start:stop])
        else:
            np.add(buf.take(parents, axis=0), logs.take(variables, axis=0), out=buf[start:stop])
    stack = buf.take(plan.rows, axis=0)
    stack += shifts[:, None]
    return stack


def _prefix_ranges(q: int, n: int, cone: bool) -> list[range]:
    """The prefixes (x_1 .. x_{n-1}) a pass visits, in order: all, or on the
    cone prefix 0 and the normalized prefixes, led by the element of index
    1: [q^m, 2*q^m) for m = 0 .. n - 2."""
    if not n:
        return []
    if not cone:
        return [range(q ** (n - 1))]
    return [range(1)] + [range(q**m, 2 * q**m) for m in range(n - 1)]


def _prefix_blocks(ranges: list[range], step: int) -> Iterator[np.ndarray]:
    """The prefixes of ranges in order, step at a time."""
    parts: list[np.ndarray] = []
    size = 0
    for r in ranges:
        lo = r.start
        while lo < r.stop:
            hi = min(r.stop, lo + step - size)
            parts.append(np.arange(lo, hi))
            size += hi - lo
            lo = hi
            if size == step:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def _blocks(T: FieldTables, n: int, cone: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A pass's prefixes, CHUNK // q at a time, each block with its
    coordinates' logs (n - 1, len); a one-block pass reads `_grid`."""
    q = T.q
    ranges = _prefix_ranges(q, n, cone)
    step = max(1, CHUNK // q)
    if sum(map(len, ranges)) <= step:
        yield _grid(T, n, cone, ranges)
        return
    for pre in _prefix_blocks(ranges, step):
        yield pre, T.log.take(_coordinates(pre, q, n - 1))


GRIDS = Memo(1 << 20)  # bytes of every field's trie-step grid blocks; the corpus's trie-step shapes take 17 KB


def _grid(T: FieldTables, n: int, cone: bool, ranges: list[range]) -> tuple[np.ndarray, np.ndarray]:
    """The one block of the pass (T's field, n, cone), read-only, in GRIDS."""
    grid = GRIDS.get((T, n, cone))
    if grid is None:
        pre = np.concatenate([np.arange(r.start, r.stop) for r in ranges])
        grid = pre, T.log.take(_coordinates(pre, T.q, n - 1))
        for a in grid:
            a.flags.writeable = False
        GRIDS.put((T, n, cone), grid, pre.nbytes + grid[1].nbytes)
    return grid


# the step rule (`_gemm_rule`): a pass of at most GEMM_POINTS points whose
# product does at most GEMM_ENTRIES multiply-adds a polynomial, k^2 |W| points,
# takes the GEMM step (its M' at most 256 KiB in float32); every corpus pass
# of at most GEMM_POINTS points qualifies
GEMM_POINTS = 1 << 8
GEMM_ENTRIES = 1 << 16
# a GEMM-step partial sum is below k|W| p^2 <= GEMM_ENTRIES * GEMM_POINTS =
# 2^24 (p <= q <= points), which float32 holds exactly; `_monomials` asserts
# k|W|(p - 1)^2 < GEMM_EXACT
GEMM_EXACT = 1 << 24

# bytes of the GEMM step's M' matrices and their points (see `_monomials`),
# at most 258 KiB an entry
MONOMIALS = Memo(1 << 20)


def _gemm_rule(points: int, words: int, k: int) -> bool:
    """Whether a pass of this many points over F_{p^k}, of this many words,
    takes the GEMM step (see GEMM_POINTS)."""
    return points <= GEMM_POINTS and k * k * words * points <= GEMM_ENTRIES


def _lengths(system: PolySystem) -> tuple[int, ...]:
    """The total degrees of the system's terms, ascending, once each."""
    return tuple(sorted({sum(exps) for f in system.polys for exps in f.terms}))


def _zero_chunks(system: PolySystem, cone: bool) -> Iterator[np.ndarray]:
    """The common zeros' odometer indexes at the prefixes a pass visits,
    ascending, one array per block, by the step `_gemm_rule` picks; both
    steps give the same zeros in the same order."""
    F = system.field
    q, n = F.q, system.nvars
    if not n:
        # the one point; a system's polynomials are nonzero constants here
        yield np.zeros(0, dtype=np.intp)
        return
    points = q * sum(map(len, _prefix_ranges(q, n, cone)))
    if points <= GEMM_POINTS:  # the rule's first bound, before |W| is counted
        lengths = _lengths(system)
        if _gemm_rule(points, sum(comb(n + l - 1, l) for l in lengths), F.k):
            yield from _gemm_chunks(system, cone, lengths)
            return
    yield from _trie_chunks(system, cone)


def _monomials(T: FieldTables, n: int, cone: bool, lengths: tuple[int, ...]) -> tuple[np.ndarray, dict, np.ndarray]:
    """(M', rows, points) of the GEMM step for (T's field, n, cone,
    lengths), read-only, in MONOMIALS: M'[(w, a), x] is the F_p-digit a of
    word w at the pass's point x (float32), rows each exponent vector's
    word, points the pass's odometer indexes.  Asserts GEMM_EXACT."""
    key = (T, n, cone, lengths)
    hit = MONOMIALS.get(key)
    if hit is None:
        F = T.field
        q, k = F.q, F.k
        plan, rows = _shape(n, lengths, None)
        W = len(rows)
        assert k * W * (F.p - 1) ** 2 < GEMM_EXACT, f"{k} * {W} * ({F.p} - 1)^2 is past the exact float32 range"
        pre = np.concatenate([np.arange(r.start, r.stop) for r in _prefix_ranges(q, n, cone)])
        points = (pre[:, None] * q + np.arange(q)).ravel()
        logs = T.log.take(_coordinates(points, q, n))
        values = T.exp.take(_log_sums(plan, np.zeros(W, logs.dtype), logs, T), mode="clip")
        M = T.digits(values).transpose(0, 2, 1).reshape(W * k, -1).astype(np.float32)
        M.flags.writeable = points.flags.writeable = False
        hit = M, rows, points
        MONOMIALS.put(key, hit, M.nbytes + points.nbytes)  # rows is `_shape`'s own dict
    return hit


def _gemm_chunks(system: PolySystem, cone: bool, lengths: tuple[int, ...]) -> Iterator[np.ndarray]:
    """`_zero_chunks` by the GEMM step: one product C M' read mod p, with
    C[(i, b), (w, a)] the digit b of c * g^a, c the coefficient of w in
    f_i; a zero reads 0 in all rk rows."""
    F = system.field
    T, p, k = F.tables, F.p, F.k
    M, rows, points = _monomials(T, system.nvars, cone, lengths)
    r, W = system.r, len(rows)
    coeffs = [0] * (r * W)
    for i, f in enumerate(system.polys):
        for exps, c in f.terms.items():
            coeffs[i * W + rows[exps]] = c
    if k == 1:
        C = np.array(coeffs, dtype=np.float32).reshape(r, W)
    else:  # [i, w, a, b] -> [(i, b), (w, a)]
        C = T.mul_matrices[coeffs].reshape(r, W, k, k).transpose(0, 3, 1, 2)
        C = C.reshape(r * k, W * k).astype(np.float32)
    R = (C @ M).astype(np.int32)
    R %= p
    yield points[R.sum(axis=0) == 0]


def _trie_chunks(system: PolySystem, cone: bool) -> Iterator[np.ndarray]:
    """`_zero_chunks` by the trie step, n >= 1: the sparsest polynomial as
    sum_e g_e x_n^e over each block, in slices of at most EVAL_BYTES //
    (8 * groups * q) prefixes, each later one at the survivors only."""
    F = system.field
    q, n = F.q, system.nvars
    T = F.tables
    first, *rest = sorted(system.polys, key=lambda f: len(f.terms))
    log = T.log
    plan, shifts = _compiled(first, T, n - 1)
    powers = T.power_logs(plan.powers)[:, None]
    G = len(powers)
    step = max(1, EVAL_BYTES // (8 * G * q))
    rest = [_compiled(f, T) for f in rest]
    for pre, plogs in _blocks(T, n, cone):
        coeffs = log.take(_evaluate(plan, shifts, plogs, T))[:, :, None]
        acc = _sliced(lambda s: T.total((coeffs[:, s] + powers).reshape(G, -1))[0], len(pre), step)
        row, col = np.divmod(np.flatnonzero(acc == 0), q)
        for compiled in rest:
            if not len(row):
                break
            logs = np.concatenate((plogs[:, row], log.take(col)[None]))
            keep = np.flatnonzero(_evaluate(*compiled, logs, T)[0] == 0)
            if len(keep) < len(row):
                row, col = row[keep], col[keep]
        yield pre[row] * q + col


# full-space walks WALKS keeps (see `_walk`), which bind before its bytes
WALK_MEMO = 4
# integers (8 MB) of indexes, rows and digits one entry keeps: past it the
# entry drops the rows and digits, then the indexes, keeping the count
MEMO_ZEROS = 1 << 20


@dataclass
class _Walk:
    system: PolySystem  # held, so that no other object takes its id while the entry lives
    count: int
    idx: np.ndarray | None  # the zeros' odometer indexes, ascending, once a walk listed them
    rows: np.ndarray | None = None  # the zeros as read-only (N, n) rows, once listed (`zero_points`)
    digits: np.ndarray | None = None  # `point_digits` of the rows, read-only, once asked for (`zero_digits`)
    # congruence notes: (m, M) -> the leading direction spaces of dimension m
    # whose coset counts agree mod M (`laws._sweep_classes`)
    agreed: dict[tuple[int, int], int] = dc_field(default_factory=dict)


WALKS = Memo(8 * MEMO_ZEROS * WALK_MEMO, WALK_MEMO)  # id(system) -> its walk


def _walk(system: PolySystem, listed: bool, digits: bool = False) -> _Walk:
    """The system's full-space walk, with the zeros' rows if listed and
    their digits if digits: from WALKS, or one kernel pass, put on a miss
    or a growth as `_bounded` trims it."""
    w = WALKS.get(id(system))
    if w is not None and (not listed or w.rows is not None) and (not digits or w.digits is not None):
        return w
    if w is None or (listed and w.idx is None):
        w = _kernel_walk(system, listed)
    if listed and w.rows is None:
        w.rows = _coordinates(w.idx, system.field.q, system.nvars).T.copy()
        w.rows.flags.writeable = False
    if digits and w.digits is None:
        w.digits = point_digits(w.rows, system.field)
        w.digits.flags.writeable = False
    kept = _bounded(w)
    WALKS.put(id(system), kept, sum(a.nbytes for a in (kept.idx, kept.rows, kept.digits) if a is not None))
    return w


def _bounded(w: _Walk) -> _Walk:
    """w within MEMO_ZEROS integers, sharing w's congruence notes."""
    if w.rows is not None and w.idx.size + w.rows.size + (0 if w.digits is None else w.digits.size) > MEMO_ZEROS:
        w = replace(w, rows=None, digits=None)
    if w.idx is not None and w.idx.size > MEMO_ZEROS:
        w = replace(w, idx=None)
    return w


def _kernel_walk(system: PolySystem, listed: bool) -> _Walk:
    """One kernel pass: the cone's count when `_on_cone` and not listed,
    else the grid's, with the indexes (an unlisted walk drops them past
    MEMO_ZEROS)."""
    q = system.field.q
    cone = _on_cone(system) and not listed
    count = 0
    chunks: list[np.ndarray] | None = None if cone else []
    for idx in _zero_chunks(system, cone):
        if cone:
            axis = int(np.count_nonzero(idx < q))  # prefix 0
            count += axis + (q - 1) * (len(idx) - axis)
            continue
        count += len(idx)
        if chunks is not None:
            chunks.append(idx)
            if count > MEMO_ZEROS and not listed:
                chunks = None
    return _Walk(system, count, None if chunks is None else np.concatenate(chunks))


def _on_cone(system: PolySystem) -> bool:
    """Whether `fast_count` walks the cone: a homogeneous system, q > 2, n > 1."""
    return system.field.q > 2 and system.nvars > 1 and system.is_homogeneous


def fast_count(system: PolySystem) -> int:
    """N(system) from one kernel pass or the walk memo; on the cone,
    N = (zeros on the x_n-axis) + (q - 1) * (zeros at normalized prefixes)."""
    return _walk(system, listed=False).count


def kernel_points(system: PolySystem) -> int:
    """The points `fast_count`'s pass evaluates the first polynomial at:
    q times its prefixes, whichever step and whether or not memoized."""
    q = system.field.q
    ranges = _prefix_ranges(q, system.nvars, _on_cone(system))
    return q * sum(map(len, ranges))


def zero_points(system: PolySystem, budget: int | None = None) -> np.ndarray:
    """The common zeros as read-only rows, in odometer (sorted) order;
    BudgetExceeded past budget points, memoized or not."""
    _region_size_check(system.field.q, system.nvars, budget, "fast")
    return _walk(system, listed=True).rows


def zero_digits(system: PolySystem, budget: int | None = None) -> np.ndarray:
    """`point_digits` of `zero_points`, read-only, kept by the walk memo."""
    return zero_digits_with_notes(system, budget)[0]


def zero_digits_with_notes(system: PolySystem, budget: int | None = None) -> tuple[np.ndarray, dict]:
    """`zero_digits` and the walk's congruence notes (`_Walk.agreed`)."""
    _region_size_check(system.field.q, system.nvars, budget, "fast")
    w = _walk(system, listed=True, digits=True)
    return w.digits, w.agreed


def oracle_count(system: PolySystem) -> int:
    """Reference engine: every polynomial at every point; BudgetExceeded past ORACLE_CAP points."""
    F = system.field
    n = system.nvars
    if F.q**n > ORACLE_CAP:
        raise BudgetExceeded(f"oracle path is capped at {ORACLE_CAP} points")
    polys = sorted(system.polys, key=lambda f: len(f.terms))
    count = 0
    for pt in product(range(F.q), repeat=n):
        if all(f.evaluate(pt) == 0 for f in polys):
            count += 1
    return count


def zero_set(system: PolySystem, budget: int | None = None) -> list[tuple[int, ...]]:
    """The common zeros as tuples, in odometer order."""
    return list(map(tuple, zero_points(system, budget).tolist()))


def basis_entries(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """RREF rows' pivot columns, and their free-column entries (m, n - m)."""
    pivots = tuple(next(i for i, x in enumerate(row) if x) for row in rows)
    free = [j for j in range(n) if j not in pivots]
    entries = np.array([[row[j] for j in free] for row in rows], dtype=np.intp)
    return pivots, entries.reshape(len(rows), len(free))


def point_digits(Z: np.ndarray, F: FieldSpec) -> np.ndarray:
    """The points' (rows of Z) nk F_p-coordinates, k base-p digits each,
    as the columns of a C-contiguous float64 array, for `coset_ids`."""
    X = Z if F.k == 1 else F.tables.digits(Z)
    return np.ascontiguousarray(X.reshape(len(Z), Z.shape[1] * F.k).T, dtype=np.float64)


def _packing(F: FieldSpec, m: int, f: int) -> tuple[int, np.ndarray, np.ndarray | None]:
    """`FieldTables.readout` for the fk offset digits of a space of
    dimension m, each below b = (p - 1)(1 + mk(p - 1)) + 1 before mod p."""
    p, k = F.p, F.k
    return F.tables.readout((p - 1) * (1 + m * k * (p - 1)) + 1, f * k)


def coset_matrix(pivots: Sequence[int] | np.ndarray, entries: np.ndarray, F: FieldSpec) -> np.ndarray:
    """The matrix M' of `coset_ids` for B direction spaces of dimension m:
    (B*G, nk) non-negative integers in float64, G = ceil((n - m)k / g) rows
    a space (none when m = n): the identity at free columns and the matrix
    of x -> -e_{b,r,j} x at pivot r, times `FieldTables.readout`'s W."""
    T = F.tables
    k = F.k
    B, m, f = entries.shape
    n = m + f
    if f == 0:
        return np.zeros((0, n * k))
    _, W, _ = _packing(F, m, f)
    G = W.shape[1]
    rows = np.arange(B)[:, None]
    pivots = np.asarray(pivots, dtype=np.intp)
    is_pivot = np.zeros((B, n), dtype=bool)
    is_pivot[rows, pivots] = True
    M = np.empty((B, G, n, k))  # [b, group, i, a]: rows in their final order
    M[rows, :, np.nonzero(~is_pivot)[1].reshape(B, f)] = W.reshape(f, k, G).transpose(0, 2, 1)
    if m:
        # [b, r, j, a, c] -> [b, r, a, (j, c)]
        mm = T.mul_matrices[T.neg(entries)].transpose(0, 1, 3, 2, 4)
        M[rows, :, pivots] = (mm.reshape(B, m, k, f * k) @ W).transpose(0, 1, 3, 2)
    return M.reshape(B * G, n * k)


def coset_ids(
    X: np.ndarray,
    pivots: Sequence[int] | np.ndarray,
    entries: np.ndarray,
    F: FieldSpec,
    matrix: np.ndarray | None = None,
) -> np.ndarray:
    """The coset numbers of the points Z, X = point_digits(Z, F), under B
    direction spaces of dimension m: a (B, |Z|) array, each row in
    `parallel_class` order.  pivots is (B, m) or one shared tuple, entries
    as `basis_entries` gives them, matrix their `coset_matrix` (built if
    None).  One exact float64 product M' X (its packed values below
    `FieldTables.exact_cap`) and one read-out `take` (README)."""
    p = F.p
    B, m, f = entries.shape
    if f == 0:
        return np.zeros((B, X.shape[1]), dtype=np.intp)
    if matrix is None:
        matrix = coset_matrix(pivots, entries, F)
    g, W, table = _packing(F, m, f)
    G = W.shape[1]
    R = (matrix @ X).astype(np.intp).reshape(B, G, X.shape[1])
    R = R.transpose(1, 0, 2)  # [group, b, point]
    if table is None:
        R -= R // p * p  # R %= p, by a scalar division, which numpy does faster
    digits = R if table is None else table.take(R)
    ids = digits[0]
    for d in digits[1:]:
        ids = ids * np.int64(p**g) + d
    return ids


# -- public counting API --------------------------------------------------------


def _region_size_check(q: int, e: int, budget: int | None, engine: str) -> None:
    """BudgetExceeded when a region of q^e points passes the engine's cap or
    the point budget (a budget of 0 admits none); InvalidArgument for a
    negative budget.  Every limit is below 2^30 and q >= 2, so q^e is not
    formed past e = 64."""
    if budget is not None and budget < 0:
        raise InvalidArgument(f"the point budget must be >= 0, got {budget}")
    cap = ORACLE_CAP if engine == "oracle" else FAST_CAP
    limit = min(cap, budget if budget is not None else default_budget())
    if e > 64 or q**e > limit:
        raise BudgetExceeded(f"region size {q**e if e <= 64 else f'{q}^{e}'} exceeds budget {limit}")


def _region_check(system: PolySystem, L: AffineSubspace) -> None:
    """AmbientMismatch unless L has the system's ambient dimension and field."""
    if L.ambient != system.nvars:
        raise AmbientMismatch(f"subspace ambient {L.ambient} != system arity {system.nvars}")
    if L.field != system.field:
        raise AmbientMismatch(f"subspace field {L.field!r} != system field {system.field!r}")


def subspace_region_label(L: AffineSubspace) -> str:
    """The `region` of a subspace count's report."""
    off = ",".join(str(x) for x in L.offset)
    rows = "|".join(",".join(str(x) for x in r) for r in L.basis)
    return f"subspace dim={L.dim} offset={off} basis={rows}"


def count_zeros(
    system: PolySystem,
    region: AffineSubspace | None = None,
    *,
    engine: str = "fast",
    budget: int | None = None,
) -> CountReport:
    """Exact N(f; region), region the full space (None) or a subspace,
    which is counted on the system restricted to it."""
    F = system.field
    t0 = time.perf_counter()
    if region is None:
        _region_size_check(F.q, system.nvars, budget, engine)
        size = F.q**system.nvars
        counted: PolySystem | None = system
        label = "full"
    else:
        _region_check(system, region)
        _region_size_check(F.q, region.dim, budget, engine)
        size = region.size
        try:
            counted = restrict_to_subspace(system, region)
        except ZeroPolynomial:  # every polynomial vanishes on the region
            counted = None
        label = subspace_region_label(region)
    if counted is None:
        cnt, evaluated = size, 0
    elif engine == "oracle":
        cnt, evaluated = oracle_count(counted), F.q**counted.nvars
    else:
        cnt, evaluated = fast_count(counted), kernel_points(counted)
    elapsed = time.perf_counter() - t0
    return CountReport(
        q=F.q,
        n=system.nvars,
        r=system.r,
        degrees=system.degrees,
        d=system.total_degree,
        region=label,
        count=cnt,
        scanned=size,
        points_evaluated=evaluated,
        elapsed=elapsed,
    )


def lift_system(system: PolySystem, s: int) -> PolySystem:
    """The same equations over the degree-s extension of the field."""
    F = system.field
    big = build_field(F.p, F.k * s)
    emb = embed_subfield(F, big)
    return PolySystem([f.map_coefficients(emb, big) for f in system.polys])


def count_zeros_ext(
    system: PolySystem,
    s: int,
    *,
    engine: str = "fast",
    budget: int | None = None,
) -> CountReport:
    """The exact count of zeros with coordinates in F_{q^s}, s >= 1."""
    if s < 1:
        raise InvalidArgument(f"extension degree must be >= 1, got {s}")
    F = system.field
    _region_size_check(F.q, s * system.nvars, budget, engine)
    rep = count_zeros(lift_system(system, s), engine=engine, budget=budget)
    # the lift keeps n, r and the degrees, and the count scans the same points
    return replace(rep, q=F.q, region=f"ext s={s}")


def counts_over_parallel_class(
    system: PolySystem,
    L: AffineSubspace,
    *,
    engine: str = "fast",
    budget: int | None = None,
) -> list[tuple[AffineSubspace, int]]:
    """One exact count per member of L's parallel class, in its order: the
    zero set bucketed by coset, or the oracle on each member."""
    F, n = system.field, system.nvars
    _region_check(system, L)
    budget = default_budget() if budget is None else budget
    _region_size_check(F.q, n, budget, engine)
    members = L.parallel_class()
    if engine == "oracle":
        counts = [count_zeros(system, m, engine="oracle", budget=budget).count for m in members]
    else:
        free = [j for j in range(n) if j not in L.pivots]
        entries = np.array(L.basis, dtype=np.intp).reshape(1, L.dim, n)[:, :, free]
        ids = coset_ids(zero_digits(system, budget), L.pivots, entries, F)[0]
        counts = np.bincount(ids, minlength=len(members)).tolist()
    return list(zip(members, counts))
