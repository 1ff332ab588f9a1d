"""Exact zero counting over full spaces, subspaces, and extension fields.

Two independent engines are provided and must agree exactly:

* the fast engine evaluates the system on the point grid in odometer order,
  a block of prefixes (x_1 .. x_{n-1}) at a time with every value of x_n, by
  one of two steps, which a rule picks per pass from its points, k and the
  number |W| of the words of its system's term lengths (`_gemm_rule`).  A
  pass of at most GEMM_POINTS points whose product does at most GEMM_ENTRIES
  multiply-adds a polynomial takes the GEMM step (`_gemm_chunks`): every
  polynomial at every point is one exact float32 product of the
  coefficients' F_p-matrices of multiplication and a memo-kept matrix of the
  digits of the monomials' values (`_monomials`), read mod p.  Every other
  pass takes the trie step (`_trie_chunks`), in the log domain of the
  field's log/exp bundle (`FieldSpec.tables`), on the logs of the
  coordinates.  A monomial is its word, the numbers of its variables with
  repeats, and a polynomial's words are compiled into a trie (`_plan`): a
  dense polynomial's plan is its shape's, of every word of its lengths,
  where its exponent vectors name their rows (`_compiled`); a sparse one's
  words are spelled by `_word`, its plan kept by a memo of the last
  PLAN_MEMO.  Each level of the trie, the distinct prefixes of one length,
  is one gather-add over the (variables x points) array of logs, and every
  term's log sum plus its coefficient's log is one (terms x points) stack,
  which `FieldTables.total` reduces once (`_evaluate`, `evaluate_columns`).
  A polynomial so costs O(deg f) array operations.  The polynomial with the
  fewest terms goes first, as the sum over the powers of x_n of its
  coefficients' values at the prefixes times x_n^e, split on its words in
  its plan; each later one is evaluated only at the points where all earlier
  ones vanish, on their logs gathered from the block's.  Both steps give the
  surviving odometer indexes, the zero set.  A trie-step pass whose
  prefixes fit in one block (q times their number at most CHUNK) reads them
  and their logs from GRIDS, one table per (field, n, cone).  A homogeneous
  system is counted on its cone instead: prefix 0 and the normalized
  prefixes only, the zeros off the x_n-axis weighted by q - 1 (see
  `fast_count`);
* the naive oracle evaluates every polynomial at every point from scratch.

The laws on one system (Chevalley, Ax, the homogenization identity, the
lower bounds, the parallel class) all read one zero set.  So the fast
engine remembers the full-space walks of the last WALK_MEMO systems in
WALKS (see `_walk`): a count, and once a walk has listed them the zeros'
odometer indexes, their rows of coordinates and, once asked for, their
`point_digits`, within MEMO_ZEROS integers an entry.  An entry also holds
its congruence notes: how far the coset sweeps found the counts over each
dimension's direction spaces to agree, under each modulus, so that a later
sweep under a divisor of that modulus (Warning's hyperplanes mod p after
the parallel subspaces mod q) does not check those spaces again.  Budgets
are checked before the memo is read, and no report depends on whether a
walk was remembered.
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

ORACLE_CAP = 10**6
FAST_CAP = 10**9
DEFAULT_BUDGET = 1 << 22
# points per kernel step: bounds the kernel's working memory at a few MB
CHUNK = 1 << 16


def default_budget() -> int:
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
        """Stable body shape; field order is fixed for golden tests."""
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


def evaluate_columns(f: MultiPoly, cols: Sequence[np.ndarray] | np.ndarray, T: FieldTables) -> np.ndarray:
    """Values of f at the points whose coordinate columns are the rows of
    cols, an (n, N) array or n arrays of N entries, n >= 1.

    Products are taken in the log domain of T's log/exp bundle (see
    `FieldTables`), on the columns' logs.  A monomial is spelled as the
    numbers of its variables in order, with repeats (x1^2*x3 is 0, 0, 2;
    see `_word`), and f's words are compiled once into a trie (`_plan`):
    a node of word length l is its parent's log sum plus one variable's
    logs, and every node of one length is one gather-add over the 2-D
    (variables x points) array of logs, so f costs O(deg f) array steps
    whatever its number of terms.  A length that holds `T.depth` logs is
    folded back to logs by one lookup before the next length is added.
    Every term's log sum plus its coefficient's log is gathered into one
    (terms x points) stack, which `T.total` reduces once (`_evaluate`).
    """
    return _evaluate(*_compiled(f, T), T.log.take(np.asarray(cols)), T)[0]


@lru_cache(maxsize=1 << 12)
def _word(exps: tuple[int, ...]) -> tuple[int, ...]:
    """The word of a monomial with exponent vector exps: each variable's
    number once per unit of its exponent (x1^2*x3 is 0, 0, 2).  Words are
    remembered, so each exponent vector is spelled once."""
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


Spelled = list[tuple[tuple[int, ...], int]]


def _spelled(f: MultiPoly) -> Spelled:
    """f's terms as (word, coefficient) pairs in sorted word order (see
    `_word`), the constant's empty word first; the zero polynomial as the
    constant 0."""
    return sorted((_word(exps), c) for exps, c in f.terms.items()) or [((), 0)]


class Plan(NamedTuple):
    """The words of a polynomial's terms, or all of a shape's (`_shape`), compiled into a trie (see `_plan`).

    The node buffer's row 0 is the empty word, whose log sum is 0 (the log
    of 1), and the nodes of word length l follow in rows [start, stop).
    levels[l - 1] = (start, stop, parents, variables, fold): node r is the
    log sum of its parent, row parents[r - start] (none at length 1), plus
    the logs of the variable numbered variables[r - start], and fold is the
    rows of length l - 1 that are folded first, when they hold
    `FieldTables.depth` logs (else None).  rows holds each term's node, the
    terms grouped by the power of the split variable in powers (one group,
    power 0, when no variable is split off), sizes[g] terms in group g
    (None for one group), order[i] is the position in the spelled terms of
    the plan's term i (None when the two orders agree, and in a shape's
    plan, whose rows the exponent vectors name directly), and empty tells
    whether a term's node is row 0, which is then filled.
    """

    levels: tuple[tuple[int, int, np.ndarray | None, np.ndarray, slice | None], ...]
    nodes: int
    rows: np.ndarray
    sizes: tuple[int, ...] | None
    powers: tuple[int, ...]
    order: list[int] | None
    empty: bool


# plans the memo keeps (see `_plan`), each a few index arrays
PLAN_MEMO = 1 << 8


@lru_cache(maxsize=PLAN_MEMO)
def _plan(words: tuple[tuple[int, ...], ...], last: int | None) -> Plan:
    """The trie plan of a polynomial with these sorted words (see `Plan`).

    With last given, the variable numbered last is split off: a word's
    trailing run of last (last is the largest number, so the run is all of
    its factors) is its power e, the rest of the word is its node, and the
    groups are the coefficients g_e of f = sum_e g_e * x^e, x the split
    variable.  The nodes are the distinct prefixes of the words, found by
    one walk over them in sorted order: a word keeps the nodes of the
    prefix it shares with the one before.  Plans depend on the words only,
    not on the field or the coefficients, so the memo keeps the last
    PLAN_MEMO of them, keyed by (words, last).
    """
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
    """The plan of every word of these lengths in n variables (built past
    `_plan`'s memo), and each exponent vector's row in its term order."""
    words = sorted(w for l in lengths for w in combinations_with_replacement(range(n), l))
    plan = _plan.__wrapped__(tuple(words), last)
    order = plan.order or range(len(words))
    return plan._replace(order=None), {tuple(map(words[j].count, range(n))): i for i, j in enumerate(order)}


def _compiled(f: MultiPoly, T: FieldTables, last: int | None = None) -> tuple[Plan, np.ndarray]:
    """The plan of f (see `_plan`), and its terms' coefficients' logs in the
    plan's order: the shifts of `_evaluate`.

    A polynomial whose terms are at least half of the words of their
    lengths in its n variables is compiled from its exponents: its shape
    (n, lengths, last) names the plan of all of those words (`_shape`), the
    others with coefficient 0, whose log Z makes exp read their products as
    0, and each exponent vector its row there, so no word is spelled.  The
    many small, dense polynomials of one shape (and their leading forms and
    homogenizations) so share one plan.  A sparse one is spelled
    (`_spelled`), its plan read from the plan memo.
    """
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
    """The values of each group of a compiled polynomial (see `_compiled`)
    at the points whose coordinates' logs are the columns of logs, an
    (n, points) array in `T.log`'s dtype: a (groups, points) array.

    The nodes of each word length are one gather-add, and the terms' log
    sums plus their shifts one (terms x points) stack, which `T.total`
    reduces once.  The points are taken in slices of at most EVAL_BYTES
    // (8 * (nodes + terms)), so the node buffer and the stack of a slice,
    and numpy's intp copies of them, stay within EVAL_BYTES each.
    """
    step = max(1, EVAL_BYTES // (8 * (plan.nodes + len(plan.rows))))
    return _sliced(lambda s: _evaluate_slice(plan, shifts, logs[:, s], T), logs.shape[1], step)


def _sliced(part, width: int, step: int) -> np.ndarray:
    """part(s) for the slices s of [0, width), step wide, joined along the
    last axis: part(slice(None)) when one slice holds them all."""
    if width <= step:
        return part(slice(None))
    return np.concatenate([part(slice(lo, lo + step)) for lo in range(0, width, step)], axis=-1)


def _evaluate_slice(plan: Plan, shifts: np.ndarray, logs: np.ndarray, T: FieldTables) -> np.ndarray:
    """`_evaluate` on one slice of points."""
    return T.total(_log_sums(plan, shifts, logs, T), plan.sizes)


def _log_sums(plan: Plan, shifts: np.ndarray, logs: np.ndarray, T: FieldTables) -> np.ndarray:
    """Each term's log sum plus its shift at the points whose coordinates'
    logs are the columns of logs: the (terms x points) stack of `_evaluate`,
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
    """The odometer prefixes (x_1 .. x_{n-1}) a pass visits, in order:
    every prefix, or on the cone (see `fast_count`) prefix 0 and then the
    normalized prefixes, whose first nonzero coordinate is the element of
    index 1 (F.one over a prime field, g^(k-1) over F_{p^k}, g = F.generator):
    with m coordinates after it, they are the range [q^m, 2*q^m)."""
    if not n:
        return []
    if not cone:
        return [range(q ** (n - 1))]
    return [range(1)] + [range(q**m, 2 * q**m) for m in range(n - 1)]


def _prefix_blocks(ranges: list[range], step: int) -> Iterator[np.ndarray]:
    """The prefixes of ranges in order, step at a time: small ranges share
    a block."""
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
    """A pass's blocks of prefixes (see `_prefix_ranges`), CHUNK // q at a
    time, each with the logs of its prefixes' n - 1 coordinates as the rows
    of an (n - 1, len) array.  A pass whose prefixes all fit in one block
    reads that block from the grid memo (see `_grid`)."""
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
    """The one block of the pass of shape (T's field, n, cone): its prefixes
    and their coordinates' logs, read-only, kept in GRIDS."""
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
# takes the GEMM step; its M' then holds k|W| points entries, at most 256 KiB
# in float32.  The rule admits every corpus pass (q <= 5, n <= 6, degree <= 3,
# so |W| <= 84) of at most GEMM_POINTS points
GEMM_POINTS = 1 << 8
GEMM_ENTRIES = 1 << 16
# an entry of the GEMM step's product sums k|W| products of F_p-digits, each
# at most (p - 1)^2, non-negative integers, so every partial sum, in any
# blocking or thread split, is below k|W| p^2 <= k^2 |W| points * p, which
# the rule keeps within GEMM_ENTRIES * GEMM_POINTS = 2^24 (p <= q <= points):
# float32 holds each one exactly.  `_monomials` asserts the bound
GEMM_EXACT = 1 << 24

# bytes of the GEMM step's M' matrices and their points (see `_monomials`),
# at most 258 KiB an entry
MONOMIALS = Memo(1 << 20)


def _gemm_rule(points: int, words: int, k: int) -> bool:
    """Whether a pass of this many points over F_{p^k}, of a system whose
    term lengths have this many words in its variables, takes the GEMM
    step (see GEMM_POINTS)."""
    return points <= GEMM_POINTS and k * k * words * points <= GEMM_ENTRIES


def _lengths(system: PolySystem) -> tuple[int, ...]:
    """The lengths of the words of the system's terms (their total
    degrees), ascending, once each."""
    return tuple(sorted({sum(exps) for f in system.polys for exps in f.terms}))


def _zero_chunks(system: PolySystem, cone: bool) -> Iterator[np.ndarray]:
    """Odometer indexes of the common zeros at the prefixes a pass visits
    (see `_prefix_ranges`), ascending, one array per block: the GEMM step's
    whole pass, or each of the trie step's `_blocks`.

    A block is a set of prefixes (x_1 .. x_{n-1}) with every value of x_n.
    A pass takes one of two steps, by the rule of `_gemm_rule`, which reads
    only its points (q times its prefixes), the number |W| of the words of
    its system's term lengths (`_lengths`) and k: the GEMM step
    (`_gemm_chunks`) for a pass of at most GEMM_POINTS points whose product
    does at most GEMM_ENTRIES multiply-adds a polynomial, k^2 |W| points,
    and the trie step (`_trie_chunks`) for every other.  Both visit the
    same points in the same order and give the same zeros.
    """
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
    """(M', rows, points) for the GEMM step on the passes of shape (T's
    field, n, cone) of the systems whose term lengths are lengths, kept in
    MONOMIALS.

    W is every word of those lengths in n variables, in the order of their
    shape's plan (`_shape`), rows names each exponent vector's word, and
    points holds the pass's points as odometer indexes, in order.  M' is a
    read-only float32 (k|W|, points) array: entry ((w, a), x) is the
    F_p-digit a of w(x), w's value at the pass's point x.  The values of
    every word at every point are one trie evaluation of the shape's plan,
    with every coefficient 1, on the logs of the pass's points.  GEMM_EXACT
    is asserted here.
    """
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
    """`_zero_chunks` by the GEMM step, lengths being `_lengths(system)`.

    Every polynomial is evaluated at every point of the pass by one product
    C M' read mod p, M' the digits of the words' values (see `_monomials`).
    C is an (rk, k|W|) float32 array, zero for each word a polynomial
    lacks: c * w(x) is the sum over a of digit a of w(x) times c * g^a, so
    entry ((i, b), (w, a)) is digit b of c * g^a, c the coefficient of w in
    f_i, read from `FieldTables.mul_matrices` as in `geometry._tail_map`
    (over a prime field, c itself).  Row (i, b) of the product is then
    digit b of f_i at every point, and a point is a zero when all rk of
    them are 0 mod p.  The product is exact (see GEMM_EXACT).  The rule
    caps the pass at GEMM_POINTS points, so it is one product, one block.
    """
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
    """`_zero_chunks` by the trie step, for a system in n >= 1 variables.

    The polynomial with the fewest terms goes first, as the sum of
    g_e * x_n^e over the powers e of x_n, split off in its plan (see
    `_plan`): one `_evaluate` gives every g_e at every prefix, on the
    block's logs, and the sum is one stack of the logs of g_e plus the logs
    of x_n^e at every value of x_n, reduced once, in slices of at most
    EVAL_BYTES // (8 * groups * q) prefixes.  Each later polynomial is
    evaluated at the (prefix, x_n) pairs where all earlier ones vanish, on
    their logs gathered from the block's.
    """
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
# integers one entry's zeros take (8 MB of them): the indexes, and the rows
# once a listing walk asked for them.  Past the bound an entry drops the rows,
# and then the indexes, keeping the count only, so a count keeps the
# kernel's bounded memory
MEMO_ZEROS = 1 << 20


@dataclass
class _Walk:
    system: PolySystem  # held, so that no other object takes its id while the entry lives
    count: int
    idx: np.ndarray | None  # the zeros' odometer indexes, ascending, once a walk listed them
    rows: np.ndarray | None = None  # the zeros as read-only (N, n) rows, once listed (`zero_points`)
    digits: np.ndarray | None = None  # `point_digits` of the rows, read-only, once asked for (`zero_digits`)
    # congruence notes: (m, M) -> how many leading direction spaces of
    # dimension m, in `laws.direction_batches` order, were found to have coset
    # counts that agree mod M (see `laws._sweep_classes`)
    agreed: dict[tuple[int, int], int] = dc_field(default_factory=dict)


WALKS = Memo(8 * MEMO_ZEROS * WALK_MEMO, WALK_MEMO)  # id(system) -> its walk


def _walk(system: PolySystem, listed: bool, digits: bool = False) -> _Walk:
    """The system's full-space walk, from WALKS when it holds one (with
    the zeros listed as rows, if listed, and their digits, if digits);
    otherwise one kernel pass, remembered.  WALKS puts it only on a miss or
    when it grows.

    Each entry holds the system itself, so its key id(system) cannot be
    reused while the entry lives.  An entry keeps the zeros' indexes when a
    pass over the whole grid listed them, and their rows and digits once a
    listing asked for them, while they take at most MEMO_ZEROS integers
    (see `_bounded`); otherwise (a cone pass or a larger zero set) only the
    count, until a listing walk is asked for."""
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
    """w as WALKS keeps it: without the rows and digits when they and the
    indexes take more than MEMO_ZEROS integers, and without the indexes too
    when they alone do.  A trimmed copy shares w's congruence notes."""
    if w.rows is not None and w.idx.size + w.rows.size + (0 if w.digits is None else w.digits.size) > MEMO_ZEROS:
        w = replace(w, rows=None, digits=None)
    if w.idx is not None and w.idx.size > MEMO_ZEROS:
        w = replace(w, idx=None)
    return w


def _kernel_walk(system: PolySystem, listed: bool) -> _Walk:
    """One kernel pass: over the cone when the system is `_on_cone` and the
    zeros need not be listed, with the count only; else over the grid, with
    the zeros' indexes, which an unlisted walk drops past MEMO_ZEROS."""
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
    """Whether `fast_count` walks the cone: a homogeneous system whose cone
    is smaller than the grid (q > 2 and n > 1)."""
    return system.field.q > 2 and system.nvars > 1 and system.is_homogeneous


def fast_count(system: PolySystem) -> int:
    """N(system) from one kernel pass, or from the memo (see `_walk`).

    A homogeneous system is counted on the cone: prefix 0 and the
    normalized prefixes only, about 1/(q-1) of the grid.  Each f_i is a
    form, so f_i(c*x) = c^(d_i) * f_i(x) and the zero set is invariant
    under the scaling action of F^* on points.  The points with a nonzero
    prefix fall into orbits of exactly q - 1 points, and each orbit meets
    the normalized prefixes once: they lead with one fixed u != 0 (see
    `_prefix_ranges`; any fixed nonzero lead would do), and the one c that
    sends the first nonzero prefix coordinate a to u is u/a.  So N = (zeros
    with prefix 0, the x_n-axis) + (q - 1) * (zeros at normalized
    prefixes).  For q = 2 and for n = 1 the cone is the whole grid, which
    is walked as such.
    """
    return _walk(system, listed=False).count


def kernel_points(system: PolySystem) -> int:
    """The points at which `fast_count`'s pass evaluates the system's first
    polynomial: every visited prefix with every value of x_n.  The GEMM
    step evaluates every polynomial at all of them and the trie step the
    later polynomials at the survivors only, but both visit these points,
    so the number is the same whichever step the rule picks.  It does not
    depend on the memo."""
    q = system.field.q
    ranges = _prefix_ranges(q, system.nvars, _on_cone(system))
    return q * sum(map(len, ranges))


def zero_points(system: PolySystem, budget: int | None = None) -> np.ndarray:
    """The common zeros over the full space as rows of coordinates, in
    odometer order (which is sorted order); BudgetExceeded past budget
    points (default_budget()), whether or not the memo holds the walk.  The
    array is read-only: the walk memo may hand it to later callers."""
    _region_size_check(system.field.q**system.nvars, budget, "fast")
    return _walk(system, listed=True).rows


def zero_digits(system: PolySystem, budget: int | None = None) -> np.ndarray:
    """`point_digits` of `zero_points`, under the same budget, read-only: the
    walk memo keeps them beside the rows, for the coset sweeps."""
    return zero_digits_with_notes(system, budget)[0]


def zero_digits_with_notes(system: PolySystem, budget: int | None = None) -> tuple[np.ndarray, dict]:
    """`zero_digits` and the congruence notes of the same walk (`_Walk.agreed`),
    which the coset sweeps read and extend: they go when WALKS drops the walk."""
    _region_size_check(system.field.q**system.nvars, budget, "fast")
    w = _walk(system, listed=True, digits=True)
    return w.digits, w.agreed


def oracle_count(system: PolySystem) -> int:
    """Reference engine: evaluate every polynomial at every point."""
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
    """All common zeros over the full space, in odometer point order."""
    return list(map(tuple, zero_points(system, budget).tolist()))


def basis_entries(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Pivot columns of RREF rows, and the rows' entries at the other
    (free) columns as an (m, n - m) array."""
    pivots = tuple(next(i for i, x in enumerate(row) if x) for row in rows)
    free = [j for j in range(n) if j not in pivots]
    entries = np.array([[row[j] for j in free] for row in rows], dtype=np.intp)
    return pivots, entries.reshape(len(rows), len(free))


def point_digits(Z: np.ndarray, F: FieldSpec) -> np.ndarray:
    """The F_p-coordinates of the points (rows of Z) that `coset_ids` reads,
    as a C-contiguous (nk, |Z|) float64 array: column z holds point z's n
    coordinates over a prime field, else their k base-p digits each.  A
    sweep splits its points once and passes the digits to every batch."""
    X = Z if F.k == 1 else F.tables.digits(Z)
    return np.ascontiguousarray(X.reshape(len(Z), Z.shape[1] * F.k).T, dtype=np.float64)


def _packing(F: FieldSpec, m: int, f: int) -> tuple[int, np.ndarray, np.ndarray | None]:
    """`FieldTables.readout` for the (n - m)k = fk offset digits of a space
    of dimension m: each is an integer below the radix
    b = (p - 1)(1 + mk(p - 1)) + 1 before the reduction mod p."""
    p, k = F.p, F.k
    return F.tables.readout((p - 1) * (1 + m * k * (p - 1)) + 1, f * k)


def coset_matrix(pivots: Sequence[int] | np.ndarray, entries: np.ndarray, F: FieldSpec) -> np.ndarray:
    """The stacked matrix M' of `coset_ids` for a batch of B direction
    spaces of dimension m in A^n: a (B*G, nk) float64 array of
    non-negative integers, G rows per space, with G = ceil((n - m)k / g)
    the packed groups of its offset digits (no rows when m = n).  pivots
    and entries are as in `coset_ids`.

    Row (b, group) holds, for each of x's nk F_p-coordinates, the weight it
    adds to that group: by the k x k identity where x's column i is free
    column j, by the matrix of multiplication by -e_{b,r,j} where i is pivot
    r (`FieldTables.mul_matrices`), and by zero elsewhere, each times the
    packing matrix W of `FieldTables.readout`.  It depends on the spaces
    alone, so the congruence sweeps read it with the spaces from
    `laws.direction_batches`, which keeps a shape's table in `laws.DIRECTIONS`.
    """
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
    """Coset numbers of the points Z, given as X = point_digits(Z, F), for a
    batch of B direction spaces of dimension m: a (B, |Z|) integer array,
    each row in `AffineSubspace.parallel_class` order.  pivots holds each
    space's RREF pivot columns, as a (B, m) array, or as one tuple that
    every space shares; entries[b] is space b's rows at the free columns, as
    `basis_entries` gives them.  matrix is their `coset_matrix`, built here
    when the caller has none (an all-pairs sweep takes it with its spaces
    from `laws.direction_batches`).

    The coset's offset is the point x minus each row r times x's entry at
    r's pivot (RREF rows vanish at the other rows' pivots, so the pivot
    entries never change); its free coordinates, read big-endian, number the
    coset.  F_q is a k-dimensional F_p-space, and the offset's (n - m)k free
    F_p-coordinates, x_j - sum_r x_{piv_r} * e_{b,r,j}, are F_p-linear in
    x's nk coordinates.  Before the reduction mod p each of these digits is
    an integer below the radix b = (p - 1)(1 + mk(p - 1)) + 1, so g
    consecutive digits pack into one integer without carries,
    b^g <= `FieldTables.readout_cap`, and a space's digits pack into
    G = ceil((n - m)k / g) integers.  So the whole batch is one matrix
    product of M' (see `coset_matrix`), B*G x nk, with the digits, nk x |Z|.
    It runs as a float64 BLAS product and is exact: every entry of both
    factors is a non-negative integer, so every product and partial sum, in
    any blocking, thread split or FMA order, is an integer no larger than
    the packed value, which is below b^g (below b past the cap), and so
    below `FieldTables.exact_cap` = 2^53.  The product is cast back to intp
    at once.  One `take` from the read-out table reduces every packed
    integer's digits mod p and reads them big-endian, and the groups read as
    base-p^g digits.  Where b itself is past the cap, each group is one
    digit, reduced mod p instead.  The product holds B*G*|Z| integers, and
    M' holds B*G*nk.  A prime field (k = 1) needs no digit split.
    """
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


def _region_size_check(size: int, budget: int | None, engine: str) -> None:
    """BudgetExceeded past the engine's cap or the point budget (a budget of
    0 admits no region); a negative budget is an input error."""
    if budget is not None and budget < 0:
        raise InvalidArgument(f"the point budget must be >= 0, got {budget}")
    cap = ORACLE_CAP if engine == "oracle" else FAST_CAP
    limit = min(cap, budget if budget is not None else default_budget())
    if size > limit:
        raise BudgetExceeded(f"region size {size} exceeds budget {limit}")


def _region_check(system: PolySystem, L: AffineSubspace) -> None:
    """AmbientMismatch unless L lies in the system's space: the same
    ambient dimension and the same field."""
    if L.ambient != system.nvars:
        raise AmbientMismatch(f"subspace ambient {L.ambient} != system arity {system.nvars}")
    if L.field != system.field:
        raise AmbientMismatch(f"subspace field {L.field!r} != system field {system.field!r}")


def subspace_region_label(L: AffineSubspace) -> str:
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
    """Exact N(f; region) with region = full space (None) or a subspace.

    Subspaces are counted by restricting the system to the subspace and
    counting its zeros over A^dim; this agrees with direct point filtering.
    """
    F = system.field
    t0 = time.perf_counter()
    if region is None:
        size = F.q**system.nvars
        _region_size_check(size, budget, engine)
        counted: PolySystem | None = system
        label = "full"
    else:
        _region_check(system, region)
        size = region.size
        _region_size_check(size, budget, engine)
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
    """The same equations over the degree-s extension of the coefficient field."""
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
    """Exact count of zeros with coordinates in F_{q^s}; s=1 is count_zeros."""
    if s < 1:
        raise InvalidArgument(f"extension degree must be >= 1, got {s}")
    F = system.field
    size = (F.q**s) ** system.nvars
    _region_size_check(size, budget, engine)
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
    """One exact count per member of L's parallel class (counts sum to the
    full-space total).  The fast engine buckets the zero set by coset, on
    the digits the walk memo keeps (`zero_digits`); the oracle counts each
    member on its own."""
    F, n = system.field, system.nvars
    _region_check(system, L)
    budget = default_budget() if budget is None else budget
    _region_size_check(F.q**n, budget, engine)
    members = L.parallel_class()
    if engine == "oracle":
        counts = [count_zeros(system, m, engine="oracle", budget=budget).count for m in members]
    else:
        free = [j for j in range(n) if j not in L.pivots]
        entries = np.array(L.basis, dtype=np.intp).reshape(1, L.dim, n)[:, :, free]
        ids = coset_ids(zero_digits(system, budget), L.pivots, entries, F)[0]
        counts = np.bincount(ids, minlength=len(members)).tolist()
    return list(zip(members, counts))
