"""Exact zero counting over full spaces, subspaces and extension fields.

Two engines must agree exactly: the fast kernel, which walks the point grid
in odometer order and keeps the zeros' odometer indexes (its one product
step, the step rule, the cone walk and the walk memo are README's design
notes), and the oracle, which evaluates every polynomial at every point.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import AmbientMismatch, BudgetExceeded, CwlabError, InvalidArgument, ZeroPolynomial
from .fields import FLOAT32_EXACT, FLOAT64_EXACT, FieldSpec, FieldTables, build_field, embed_subfield
from .memo import Memo
from .polynomials import MultiPoly, PolySystem, restrict_to_subspace
from .subspaces import AffineSubspace

# points a count may scan: the oracle's cap, the fast engine's cap, and the
# default point budget (`CWLAB_BUDGET` overrides it); every one is below 2^30
ORACLE_CAP = 10**6
FAST_CAP = 10**9
DEFAULT_BUDGET = 1 << 22


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
                "workers": 1,  # kept for the body's stable shape; counting is serial
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


def _prefixes(q: int, m: int, cone: bool) -> np.ndarray:
    """The odometer indexes of the points over m variables that a pass
    visits, an s = 0 pass's prefixes or a split pass's suffixes, ascending:
    all q^m, or on the cone 0 and the normalized points, led by the
    element of index 1: [q^i, 2*q^i) for i < m."""
    if not cone:
        return np.arange(q**m)
    return np.concatenate([np.zeros(1, dtype=np.intp)] + [np.arange(q**i, 2 * q**i) for i in range(m)])


def _prefix_count(q: int, m: int, cone: bool) -> int:
    """len(_prefixes(q, m, cone))."""
    return 1 + (q**m - 1) // (q - 1) if cone else q**m


def _sizes(q: int, n: int, s: int, cone: bool) -> tuple[int, int]:
    """(P, Y) of a grid or cone pass of split s in n variables: the s = 0
    pass's points (`_pass_points`) and 1, else q^(n - s) prefixes and the
    suffixes `_prefixes(q, s, cone)`."""
    return (q * _prefix_count(q, n - 1, cone), 1) if not s else (q ** (n - s), _prefix_count(q, s, cone))


def _monomial_logs(T: FieldTables, E: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """log x^e for each row e of E (m, v) at the points whose coordinate
    logs are the columns of logs (v, points), Z where x^e is 0: two
    `FieldTables.product`s, E mod (q - 1) times the nonzero coordinates'
    logs, and E > 0 times the zero coordinates, which marks a zero factor."""
    q, Z = T.q, int(T.log[0])
    zero = logs == Z
    R = T.product((E % (q - 1)).astype(np.min_scalar_type(q - 2)), [np.where(zero, 0, logs)], E.shape[1] * (q - 2) ** 2, reduce=False)
    R -= R // (q - 1) * (q - 1)  # R %= q - 1, by the scalar division numpy does faster
    R[T.product(E > 0, [zero], E.shape[1], reduce=False) > 0] = Z
    return R.astype(T.log.dtype)


def _digits(T: FieldTables, X: np.ndarray) -> np.ndarray:
    """The F_p digits of the elements X (m, points) as (m k, points) rows
    (row (i, a) the digit a of row i), in the narrowest unsigned type: row 0
    of x's multiplication matrix, the digits of x * 1, read in one gather."""
    if T.field.k == 1:
        return X.astype(np.min_scalar_type(T.field.p - 1))
    return T.mul_matrices[:, 0].take(X, axis=0).transpose(0, 2, 1).reshape(-1, X.shape[1])


def _expanded(T: FieldTables, X: np.ndarray) -> np.ndarray:
    """X's multiplication matrices as two trailing axes: [..., a, b] the
    digit b of x * g^a (`FieldTables.mul_matrices`), x itself for k = 1."""
    if T.field.k == 1:
        return X.astype(np.min_scalar_type(T.field.p - 1))[..., None, None]
    return T.mul_matrices[X]


def _zero_mask(V: np.ndarray) -> np.ndarray:
    """Where every polynomial vanishes, (b, w), in a `_step` block (rows, b, w)."""
    return V[0] == 0 if len(V) == 1 else ~V.any(axis=0)


# the step rule (`_rule`): s = 0, one product on the cached M', for a pass
# of at most GEMM_POINTS points (every `corpus-sweep` pass has at most
# 3,910, the cone of F_5^6) and GEMM_ENTRIES multiply-adds a polynomial,
# k^2 |W| points (M' holds k|W| points digits, a byte each for p <= 256)
GEMM_POINTS = 1 << 12
GEMM_ENTRIES = 1 << 19
# bytes of a block's product (a block holds BLOCK_BYTES // (4 r k Y)
# prefixes, at least one) and of the operands held for a pass (`_held`)
BLOCK_BYTES = 1 << 19
HELD_BYTES = 1 << 23
# a log-domain term's cost in digit multiply-adds: the digit product costs
# k^2 a term, so fields with k^2 > LOG_COST (k >= 5) sum in the log domain;
# over an odd-p extension field a term costs twice, its Zech addition being
# two gathers
LOG_COST = 20
# a digit pass's fixed cost in multiply-adds: its two float products and
# their casts, and the slower clock the work after them runs at (README)
DIGIT_SETUP = 1 << 19

# bytes of the s = 0 step's M' blocks and pass points (see `_monomials`) and
# of a split pass's one-block operands and point logs (`_kept`); an M' block
# holds at most 2^20 bytes (2-byte digits, p > 256); `corpus-sweep` keeps
# 1.14 MB, `coset-classes` 0.40 MB and `extension-fields` 0.58 MB
MONOMIALS = Memo(1 << 21)


def _rule(p: int, k: int, shapes: Iterable[tuple[int, tuple[int, int, int, int, int]]]) -> tuple[int, bool]:
    """(s, log) of a pass over F_{p^k} from its splits' operand shapes, each
    (s, (r, |α|, |β|, P, Y)): r polynomials, |α| prefix and |β| grid
    monomials, P prefixes and Y suffixes.  s = 0 (|α| = |W|, Y = 1)
    when within the GEMM bounds, read first and alone; else the split s >= 1
    and sum of least cost unit * r|α|Y(P + |β|), unit k^2 for the digit
    product (when its partial sums max(|α|, |β|)k(p - 1)^2 stay below
    FLOAT64_EXACT), plus DIGIT_SETUP, and LOG_COST (twice that for odd p and
    k > 1) for the log-domain sum, among those whose held operand fits
    HELD_BYTES, or of least held operand if none does."""
    best, log_unit = None, LOG_COST * (2 if p > 2 and k > 1 else 1)
    for s, (r, a, b, P, Y) in shapes:
        if not s:
            if P <= GEMM_POINTS and k * k * a * P <= GEMM_ENTRIES and k * a * (p - 1) ** 2 < FLOAT32_EXACT:
                return 0, False
            continue
        for log in (False, True):
            if not log and max(a, b) * k * (p - 1) ** 2 >= FLOAT64_EXACT:
                continue
            held = Y * _held(k, r, a, b, log)
            cost = (log_unit if log else k * k) * r * a * Y * (P + b) + (0 if log else DIGIT_SETUP)
            key = (held > HELD_BYTES, held if held > HELD_BYTES else cost)
            if best is None or key < best[0]:
                best = key, s, log
    return best[1:]


def _held(k: int, r: int, a: int, b: int, log: bool) -> int:
    """Bytes a suffix takes in a step's held operands (B, K B), at 8 bytes an entry."""
    return 8 * (b * (r * a + 1) if log else k * (r * a + b))


def _lengths(polys: Sequence[MultiPoly]) -> tuple[int, ...]:
    """The total degrees of the polynomials' terms, ascending, once each."""
    return tuple(sorted({sum(exps) for f in polys for exps in f.terms}))


def _operands(q: int, n: int, cone: bool, polys: Sequence[MultiPoly], lengths: tuple) -> Iterator[tuple[int, tuple]]:
    """The operand shapes `_rule` reads for a grid or cone pass in n >= 1
    variables, the last s the grid: s = 0 only within the points bound (so
    a pass past it pays nothing for |W|), then s = 1 .. n (`_split_sizes`)."""
    points = _sizes(q, n, 0, cone)[0]
    if points <= GEMM_POINTS:
        yield 0, (len(polys), sum(comb(n + l - 1, l) for l in lengths), 1, points, 1)
    yield from _split_sizes(q, n, cone, tuple(map(_support, polys)))


def _support(f: MultiPoly) -> tuple[tuple[int, ...], ...]:
    """f's exponent vectors, in term order; every word of its term lengths
    (`_monomial_rows`) when f has at least half of them, so that the dense
    polynomials of one shape share one support, and its kept operands."""
    lengths = {sum(e) for e in f.terms}
    if f.terms and sum(comb(f.nvars + l - 1, l) for l in lengths) <= 2 * len(f.terms):
        return tuple(_monomial_rows(f.nvars, tuple(sorted(lengths))))
    return tuple(f.terms) or ((0,) * f.nvars,)


@lru_cache(maxsize=1 << 8)
def _split_sizes(q: int, n: int, cone: bool, supports: tuple) -> tuple[tuple[int, tuple], ...]:
    """The operand shapes of the splits s = 1 .. n of a pass of polynomials
    with these supports (`_split_terms`)."""
    return tuple((s, (len(supports), *map(len, _split_terms(supports, n - s, s)[:2]), *_sizes(q, n, s, cone))) for s in range(1, n + 1))


def _as_function(f: MultiPoly) -> MultiPoly:
    """f if of total degree <= n(q - 1), else each exponent e >= q lowered to
    (e - 1) % (q - 1) + 1, which x^e equals on F_q, like terms summed (a sum
    that cancels is the constant term 0): no monomial past degree n(q - 1)."""
    q = f.field.q
    if f.total_degree <= f.nvars * (q - 1):
        return f
    terms: dict[tuple[int, ...], int] = {}
    for exps, c in f.terms.items():
        key = tuple(e if e < q else (e - 1) % (q - 1) + 1 for e in exps)
        terms[key] = f.field.add(terms.get(key, 0), c)
    return MultiPoly(f.field, f.nvars, {e: c for e, c in terms.items() if c} or {(0,) * f.nvars: 0})


@lru_cache(maxsize=1 << 8)
def _split_terms(supports: tuple, j: int, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of polynomials with these supports (each one's exponent
    vectors, in term order) split at the grid variables j .. j + s - 1: the
    distinct prefix exponents Ea (|α|, n - s) and grid exponents Eb (|β|,
    s), in order of first use, and each term's flat place in K (r, |α|, |β|),
    read-only."""
    rows, betas, places = {}, {}, []
    for i, support in enumerate(supports):
        for e in support:
            places.append((i, rows.setdefault(e[:j] + e[j + s :], len(rows)), betas.setdefault(e[j : j + s], len(betas))))
    n = len(supports[0][0])
    split = [np.array(list(d), dtype=np.intp).reshape(len(d), m) for d, m in ((rows, n - s), (betas, s))]
    split.append(np.array([(i * len(rows) + a) * len(betas) + b for i, a, b in places], dtype=np.intp))
    for a in split:  # shared by every caller of the cache
        a.flags.writeable = False
    return tuple(split)


def _step(
    T: FieldTables,
    polys: Sequence[MultiPoly],
    grid: tuple[int, ...],
    suffix_logs: np.ndarray | None,
    prefix_logs: np.ndarray | None,
    log: bool = False,
    words: tuple[list[np.ndarray], dict] | None = None,
    where: Hashable = None,
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """The one product step: the values of polys (`_as_function`) at the
    points x + y, x a prefix (the columns of prefix_logs, the coordinate
    logs of the variables outside grid) and y a suffix (the columns of
    suffix_logs, the logs of the grid variables), as V = A^T (K B) of
    f = sum K[α, β] a^α b^β: A and B hold the prefix and grid monomials of
    the polynomials' supports (`_support`), or at s = 0 (no grid) A is
    words = (M', rows) of `_monomials` and K B = K.  Digit products by `FieldTables.product`
    (partial sums at most max(|α|, |β|)k(p - 1)^2), or log-domain sums by
    `FieldTables.total` (log).  Yields (xs, ys, V) for each block of
    prefixes xs and range of suffixes ys, prefix-major, V (rows, b, w) the
    r k digit rows or r value rows (README's design notes); where names the
    prefix set, to keep a one-block A or B in MONOMIALS (`_kept`)."""
    F = T.field
    p, k = F.p, F.k
    r, n = len(polys), polys[0].nvars
    if words is not None:  # s = 0: one product C M', C the coefficients' multiplication matrices
        (M, rows), W = words, len(words[1])
        coeffs = [0] * (r * W)
        for i, f in enumerate(polys):
            for exps, c in f.terms.items():
                coeffs[i * W + rows[exps]] = c
        if k == 1:
            C = np.array(coeffs, dtype=np.min_scalar_type(p - 1)).reshape(r, W)
        else:  # [i, w, a, b] -> [(i, b), (w, a)]
            C = T.mul_matrices[coeffs].reshape(r, W, k, k).transpose(0, 3, 1, 2).reshape(r * k, W * k)
        V = T.product(C, M, W * k * (p - 1) ** 2)
        yield slice(0, V.shape[1]), slice(0, 1), V[:, :, None]
        return
    j, s = (grid[0], len(grid)) if grid else (n, 0)  # the grid variables are j .. j + s - 1
    supports = tuple(map(_support, polys))
    Ea, Eb, places = _split_terms(supports, j, s)
    na, nb, P = len(Ea), len(Eb), prefix_logs.shape[1]
    K = np.zeros(r * na * nb, dtype=np.intp)
    K[places] = [f.terms.get(e, 0) for f, support in zip(polys, supports) for e in support]
    K = K.reshape(r, na, nb)
    Y = suffix_logs.shape[1]
    w = max(1, min(Y, HELD_BYTES // _held(k, r, na, nb, log)))
    ranges = [slice(lo, lo + w) for lo in range(0, Y, w)]
    width = 1 if len(ranges) > 1 else max(1, BLOCK_BYTES // (w * (8 * na if log else 4 * r * k)))
    chunk = width * max(1, BLOCK_BYTES // (8 * na * k * width))  # prefixes whose A is built at once
    left = P < r * Y  # digits: expand the smaller side into multiplication matrices, A's, else K B's

    if log:
        Kl = T.log.take(K)[:, :, :, None]  # [i, α, β, y]

        def right(ys: slice) -> list:
            Bl = operand("B", lambda: _monomial_logs(T, Eb, suffix_logs[:, ys]))
            return [T.log.take(T.total((Ki + Bl[None]).transpose(1, 0, 2).reshape(nb, -1)).reshape(na, -1)) for Ki in Kl]

        def block(held: list, Al: np.ndarray) -> np.ndarray:
            V = [T.total((Al[:, :, None] + KB[:, None, :]).reshape(na, -1)).reshape(1, Al.shape[1], -1) for KB in held]
            return V[0] if r == 1 else np.concatenate(V)

    else:
        C = _expanded(T, K).transpose(0, 1, 4, 2, 3).reshape(r * na * k, nb * k)

        def right(ys: slice) -> np.ndarray:  # cast once, not at every block
            B = operand("B", lambda: _digits(T, T.exp.take(_monomial_logs(T, Eb, suffix_logs[:, ys]), mode="clip")))
            KB = T.product(C, [B], nb * k * (p - 1) ** 2).reshape(r, na, k, -1)  # digits [i, α, c, y]
            if left:
                return KB.transpose(1, 2, 0, 3).reshape(na * k, -1).astype(np.float32)  # [(α, c), (i, y)]
            values = (KB * (p ** np.arange(k - 1, -1, -1))[:, None]).sum(axis=2)
            return _expanded(T, values).transpose(0, 4, 2, 1, 3).reshape(-1, na * k).astype(np.float32)  # [(i, b, y), (α, a)]

        def block(held: np.ndarray, A: np.ndarray) -> np.ndarray:
            if left:
                V = T.product(A.reshape(-1, na * k), [held], na * k * (p - 1) ** 2)
                return V.reshape(k, A.shape[1], r, -1).transpose(0, 2, 1, 3).reshape(k * r, A.shape[1], -1)
            V = T.product(held, [A], na * k * (p - 1) ** 2)
            return V.reshape(r * k, -1, V.shape[1]).transpose(0, 2, 1)

    def prefix(xs: slice) -> np.ndarray:  # logs [α, x]; or [b, x, α, c] if left, else digits [(α, a), x]
        A = _monomial_logs(T, Ea, prefix_logs[:, xs])
        return A if log else _expanded(T, T.exp.take(A, mode="clip")).transpose(3, 1, 0, 2) if left else _digits(T, T.exp.take(A, mode="clip"))

    def operand(side: str, make: Callable[[], np.ndarray]) -> np.ndarray:  # A or B, kept when one block holds it
        if where is None or (len(ranges) if side == "B" else -(-P // chunk)) > 1:
            return make()
        return _kept((T, n, where, grid, side, log, left, supports), make)

    held = right(ranges[0]) if len(ranges) == 1 else None
    for lo in range(0, P, chunk):
        A = operand("A", lambda: prefix(slice(lo, lo + chunk)))
        for at in range(lo, min(P, lo + chunk), width):
            for ys in ranges:
                yield slice(at, at + width), ys, block(held if held is not None else right(ys), A[:, at - lo : at - lo + width])


def _pass(system: PolySystem, cone: bool) -> tuple[list[MultiPoly], tuple[int, ...], int, bool]:
    """The polynomials as functions (`_as_function`), their term lengths,
    and the (s, log) that `_rule` picks for the system's grid or cone pass,
    n >= 1."""
    polys = [_as_function(f) for f in system.polys]
    F, lengths = system.field, _lengths(polys)
    return (polys, lengths, *_rule(F.p, F.k, _operands(F.q, system.nvars, cone, polys, lengths)))


def _zero_chunks(T: FieldTables, n: int, polys: Sequence[MultiPoly], lengths: tuple, cone: bool, s: int, log: bool) -> Iterator[np.ndarray]:
    """The common zeros' odometer indexes on a pass of split s (`_pass`),
    one array per block, ascending on the grid: at s = 0 among
    `_pass_points`, else among every prefix over the first n - s variables
    times the suffixes `_prefixes(q, s, cone)` over the last s."""
    q = T.q
    if not s:
        points = _pass_points(T, n, cone)
        words = _monomials(T, n, cone, lengths, lambda: T.log.take(_coordinates(points, q, n)))
        ((_, _, V),) = _step(T, polys, (), None, None, words=words)
        yield points[_zero_mask(V)[:, 0]]
    else:
        suffixes, grid = _prefixes(q, s, cone), tuple(range(n - s, n))
        for xs, ys, V in _step(T, polys, grid, _prefix_logs(T, s, cone), _prefix_logs(T, n - s, False), log, where=cone):
            row, col = np.divmod(np.flatnonzero(_zero_mask(V)), V.shape[2])
            yield (xs.start + row) * q**s + suffixes[ys][col]


def _kept(key: Hashable, make: Callable[[], np.ndarray]) -> np.ndarray:
    """make(), read-only, from MONOMIALS under key, put there on a miss."""
    value = MONOMIALS.get(key)
    if value is None:
        value = make()
        value.flags.writeable = False
        MONOMIALS.put(key, value, value.nbytes)
    return value


def _prefix_logs(T: FieldTables, m: int, cone: bool) -> np.ndarray:
    """The coordinate logs of `_prefixes` (`_kept`)."""
    return _kept((T, m, cone, "logs"), lambda: T.log.take(_coordinates(_prefixes(T.q, m, cone), T.q, m)))


def _pass_points(T: FieldTables, n: int, cone: bool) -> np.ndarray:
    """The odometer indexes of an s = 0 pass over the grid or the cone (`_kept`)."""
    return _kept((T, n, cone), lambda: (_prefixes(T.q, n - 1, cone)[:, None] * T.q + np.arange(T.q)).ravel())


@lru_cache(maxsize=1 << 6)
def _monomial_rows(n: int, lengths: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Each exponent vector's row in M' for these lengths: the words of each
    length in n variables in sorted order (x1^2*x3 is the word 0, 0, 2),
    the lengths in order."""
    words = (w for l in lengths for w in combinations_with_replacement(range(n), l))
    return {tuple(map(w.count, range(n))): i for i, w in enumerate(words)}


def _monomials(
    T: FieldTables, n: int, where: bool | tuple, lengths: tuple[int, ...], point_logs: Callable[[], np.ndarray]
) -> tuple[list[np.ndarray], dict]:
    """(M', rows), the A of an s = 0 step for (T's field, n, where, lengths):
    one read-only block per length in MONOMIALS under (T, n, where, length),
    M'[(w, a), x] the digit a of word w at point x of the set where names,
    whose coordinate logs point_logs gives on a miss; rows is `_monomial_rows`."""
    blocks, logs = [], None
    for l in lengths:
        block = MONOMIALS.get((T, n, where, l))
        if block is None:
            logs = point_logs() if logs is None else logs
            E = np.array(list(_monomial_rows(n, (l,))), dtype=np.intp).reshape(-1, n)
            width = max(1, BLOCK_BYTES // (8 * len(E)))
            cuts = [slice(lo, lo + width) for lo in range(0, logs.shape[1], width)]
            block = np.concatenate([_digits(T, T.exp.take(_monomial_logs(T, E, logs[:, c]), mode="clip")) for c in cuts], axis=1)
            block.flags.writeable = False
            MONOMIALS.put((T, n, where, l), block, block.nbytes)
        blocks.append(block)
    return blocks, _monomial_rows(n, lengths)


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
    points: int = 0  # a cone walk's points (`kernel_points`), 0 on the grid
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
    q, n = system.field.q, system.nvars
    cone = _on_cone(system) and not listed
    if not n:
        # the one point; a system's polynomials are nonzero constants here
        return _Walk(system, 0, np.zeros(0, dtype=np.intp))
    polys, lengths, s, log = _pass(system, cone)
    count = 0
    chunks: list[np.ndarray] | None = None if cone else []
    for idx in _zero_chunks(system.field.tables, n, polys, lengths, cone, s, log):
        if cone:
            at_zero = int(np.count_nonzero(idx % q**s == 0 if s else idx < q))  # weight 1: suffix 0, or prefix 0 at s = 0
            count += at_zero + (q - 1) * (len(idx) - at_zero)
            continue
        count += len(idx)
        if chunks is not None:
            chunks.append(idx)
            if count > MEMO_ZEROS and not listed:
                chunks = None
    return _Walk(system, count, None if chunks is None else np.concatenate(chunks), points=prod(_sizes(q, n, s, True)) if cone else 0)


def _on_cone(system: PolySystem) -> bool:
    """Whether `fast_count` walks the cone: a homogeneous system, q > 2, n > 1."""
    return system.field.q > 2 and system.nvars > 1 and system.is_homogeneous


def fast_count(system: PolySystem) -> int:
    """N(system) from one kernel pass or the walk memo; on the cone,
    N = (zeros with weight 1) + (q - 1) * (the other zeros it saw), README."""
    return _walk(system, listed=False).count


def kernel_points(system: PolySystem) -> int:
    """The points `fast_count`'s pass evaluates the first polynomial at,
    whether or not memoized: q^n on the grid, and on the cone P * Y
    (`_sizes`) for the split s of `_pass`."""
    q, n = system.field.q, system.nvars
    if not _on_cone(system):
        return q**n if n else 0
    w = WALKS.kept.get(id(system))  # read without touching the memo's order or counts
    if w is not None and w.points:
        return w.points
    return prod(_sizes(q, n, _pass(system, True)[2], True))


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


def _packing(F: FieldSpec, m: int, f: int) -> tuple[int, np.ndarray, np.ndarray | None, int]:
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
    _, W, _, _ = _packing(F, m, f)
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
        M[rows, :, pivots] = (mm.reshape(B, m, k, f * k) @ W).transpose(0, 1, 3, 2)  # int64: BLAS does not speed tiny batches
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
    None).  One exact float64 `FieldTables.product` M' X, reduced mod p
    past the read-out cap, and one read-out `take` (README)."""
    B, m, f = entries.shape
    if f == 0:
        return np.zeros((B, X.shape[1]), dtype=np.intp)
    if matrix is None:
        matrix = coset_matrix(pivots, entries, F)
    g, W, table, bound = _packing(F, m, f)
    G = W.shape[1]
    R = F.tables.product(matrix, [X], bound, reduce=table is None).reshape(B, G, X.shape[1])
    R = R.transpose(1, 0, 2)  # [group, b, point]
    digits = R if table is None else table.take(R)
    ids = digits[0]
    for d in digits[1:]:
        ids = ids * np.int64(F.p**g) + d
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
    """The same equations over the degree-s extension of the field (the
    system itself where that is its own field)."""
    F = system.field
    big = build_field(F.p, F.k * s)
    if big is F:
        return system
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
        pivots, entries = basis_entries(L.basis, n)
        ids = coset_ids(zero_digits(system, budget), pivots, entries[None], F)[0]
        counts = np.bincount(ids, minlength=len(members)).tolist()
    return list(zip(members, counts))
