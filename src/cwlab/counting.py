"""Exact zero counting over full spaces, subspaces, and extension fields.

Two independent engines are provided and must agree exactly:

* the fast engine evaluates the system on the point grid in odometer order,
  a block of prefixes (x_1 .. x_{n-1}) at a time with every value of x_n,
  in the log domain of the field's log/exp bundle (`FieldSpec.tables`):
  a product is an integer sum of logs, a term one gather, and the terms
  are summed by XOR (p = 2), as int64 reduced mod p once (prime fields),
  or through the add table or the Zech table (`evaluate_columns`,
  `FieldTables.total`).
  The polynomial with the fewest terms goes first, as the sum over the
  powers of x_n of its coefficients' values at the prefixes times x_n^e;
  each later one is evaluated only at the points where all earlier ones
  vanish.  The surviving odometer indexes are the zero set.  A homogeneous
  system is counted on its cone instead: prefix 0 and the normalized
  prefixes only, the zeros off the x_n-axis weighted by q - 1 (see
  `fast_count`);
* the naive oracle evaluates every polynomial at every point from scratch.

The laws on one system (Chevalley, Ax, the homogenization identity, the
lower bounds, the parallel class) all read one zero set.  So the fast
engine remembers the full-space walks of the last WALK_MEMO systems (see
`_walk`): a count, and the zeros' odometer indexes (up to MEMO_ZEROS of
them) once a walk has listed them.  Budgets are checked before the memo is read, and no report depends
on whether a walk was remembered.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field as dc_field, replace
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .errors import AmbientMismatch, BudgetExceeded, CwlabError, InvalidArgument, ZeroPolynomial
from .fields import FieldSpec, FieldTables, build_field, embed_subfield
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
            return int(env)
        except ValueError:
            raise CwlabError(f"CWLAB_BUDGET must be an integer, got {env!r}") from None
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


def _coordinates(idx: np.ndarray, q: int, n: int) -> list[np.ndarray]:
    """Coordinate columns of odometer indexes (first coordinate slowest)."""
    cols: list[np.ndarray] = [idx] * n
    rem = idx
    for i in range(n - 1, -1, -1):
        rem, cols[i] = np.divmod(rem, q)
    return cols


def evaluate_columns(f: MultiPoly, cols: list[np.ndarray], T: FieldTables) -> np.ndarray:
    """Values of f at the points whose coordinate columns are cols.

    Products are taken in the log domain of T's log/exp bundle (see
    `FieldTables`).  A monomial is spelled as the numbers of its variables
    in order, with repeats (x1^2*x3 is 0, 0, 2; see `_spelled`).  In sorted
    order, each monomial keeps the log sums of the prefix it shares with the
    one before, so every further prefix is one integer add of a column's
    logs to the prefix before it, and at most deg f of them are held at a
    time.  A prefix that already holds `T.depth` logs is folded back to a
    log by one lookup before the next add.  A term is its prefix's log sum
    with its coefficient's log as the shift, and `T.total` reads each term
    with one gather and sums them.
    """
    return _evaluate(_spelled(f), cols, T)


def _spelled(f: MultiPoly) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """f's constant term, and its other terms as (word, coefficient) pairs
    in sorted word order; a word lists each variable's number once per unit
    of its exponent."""
    words = sorted(
        (tuple(i for i, e in enumerate(exps) for _ in range(e)), c) for exps, c in f.terms.items()
    )
    const = words.pop(0)[1] if words and not words[0][0] else 0  # the empty word sorts first
    return const, words


def _evaluate(spelled: tuple[int, list], cols: list[np.ndarray], T: FieldTables) -> np.ndarray:
    """`evaluate_columns` on a polynomial given by `_spelled`."""
    const, words = spelled
    if not words:
        return np.full(len(cols[0]) if cols else 1, const)
    log, fold, depth = T.log, T.fold, T.depth
    logs: dict[int, np.ndarray] = {}  # variable -> the logs of its column

    def terms() -> Iterator[tuple[np.ndarray, int]]:
        word: tuple[int, ...] = ()
        prefix: list[tuple[np.ndarray, int]] = []  # [j]: log sum of word[:j + 1], logs it holds
        for nxt, c in words:
            keep = 0
            while keep < len(word) and word[keep] == nxt[keep]:
                keep += 1
            del prefix[keep:]
            for i in nxt[keep:]:
                if i not in logs:
                    logs[i] = log.take(cols[i])
                if not prefix:
                    prefix.append((logs[i], 1))
                    continue
                s, held = prefix[-1]
                if held == depth:
                    s, held = fold.take(s, mode="clip"), 1
                prefix.append((s + logs[i], held + 1))
            word = nxt
            yield prefix[-1][0], log[c]

    return T.total(terms(), const)


def _last_variable_coefficients(f: MultiPoly) -> list[MultiPoly | None]:
    """g_0, ..., g_D with f = sum_e g_e * x_n^e and no g_e involving x_n;
    None where a power of x_n has no terms."""
    split: dict[int, list] = {}
    for exps, c in f.terms.items():
        split.setdefault(exps[-1], []).append((exps[:-1] + (0,), c))
    return [
        MultiPoly.from_terms(f.field, f.nvars, split[e]) if e in split else None
        for e in range(max(split) + 1)
    ]


def _prefix_ranges(q: int, n: int, cone: bool) -> list[range]:
    """The odometer prefixes (x_1 .. x_{n-1}) a pass visits, in order:
    every prefix, or on the cone (see `fast_count`) prefix 0 and then the
    normalized prefixes, whose first nonzero coordinate is the element 1:
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


def _zero_chunks(system: PolySystem, ranges: list[range]) -> Iterator[np.ndarray]:
    """Odometer indexes of the common zeros whose prefixes lie in ranges,
    ascending, one array per chunk.

    A chunk is a block of prefixes (x_1 .. x_{n-1}) with every value of
    x_n.  The polynomial with the fewest terms goes first, as the sum of
    g_e * x_n^e over the powers e of x_n: each coefficient g_e is evaluated
    once per prefix, and each power is one add of its logs to the logs of
    x_n^e at every value of x_n and one gather over the whole block.
    """
    F = system.field
    q, n = F.q, system.nvars
    T = F.tables
    if not n:
        # the one point; a system's polynomials are nonzero constants here
        yield np.zeros(0, dtype=np.intp)
        return
    first, *rest = sorted(system.polys, key=lambda f: len(f.terms))
    log, fold = T.log, T.fold
    coeffs = []  # (g_e, the logs of x_n^e at every value of x_n) for each g_e with terms
    power = np.zeros_like(log)  # x_n^0 = 1, at x_n = 0 too
    for g in _last_variable_coefficients(first):
        if g is not None:
            coeffs.append((_spelled(g), power))
        power = fold.take(power + log, mode="clip")
    rest = [_spelled(f) for f in rest]
    for pre in _prefix_blocks(ranges, max(1, CHUNK // q)):
        pcols = _coordinates(pre, q, n - 1)
        acc = T.total((log.take(_evaluate(g, pcols, T))[:, None] + power, 0) for g, power in coeffs)
        row, col = np.divmod(np.flatnonzero(acc == 0), q)
        idx = pre[row] * q + col
        cols = _coordinates(idx, q, n) if rest else []
        for f in rest:
            if not len(idx):
                break
            keep = np.flatnonzero(_evaluate(f, cols, T) == 0)
            if len(keep) < len(idx):
                idx = idx[keep]
                cols = [c[keep] for c in cols]
        yield idx


# full-space walks the memo keeps (see `_walk`)
WALK_MEMO = 4
# zero indexes one entry keeps (8 MB of them): a larger zero set is
# remembered by its count only, so a count keeps the kernel's bounded memory
MEMO_ZEROS = 1 << 20


@dataclass
class _Walk:
    system: PolySystem  # held, so that no other object takes its id while the entry lives
    count: int
    idx: np.ndarray | None  # the zeros' odometer indexes, ascending, once a walk listed them


# id(system) -> its walk, least recently used first
_walks: dict[int, _Walk] = {}


def _walk(system: PolySystem, listed: bool) -> _Walk:
    """The system's full-space walk, from the memo when it holds one (with
    the zeros listed, if listed); otherwise one kernel pass, remembered.

    The memo keeps the last WALK_MEMO systems' walks, keyed by id(system).
    Each entry holds the system itself, so an id cannot be reused while its
    entry lives, and the key always names the same object.  An entry keeps
    the zeros' indexes when a pass over the whole grid listed at most
    MEMO_ZEROS of them; otherwise (a cone pass, see `fast_count`, or a
    larger zero set) only the count, until a listing walk is asked for.
    """
    w = _walks.pop(id(system), None)
    if w is None or (listed and w.idx is None):
        w = _kernel_walk(system, listed)
    _walks[id(system)] = w if w.idx is None or len(w.idx) <= MEMO_ZEROS else replace(w, idx=None)
    while len(_walks) > WALK_MEMO:
        del _walks[next(iter(_walks))]
    return w


def _kernel_walk(system: PolySystem, listed: bool) -> _Walk:
    """One kernel pass: over the cone when the system is `_on_cone` and the
    zeros need not be listed, with the count only; else over the grid, with
    the zeros' indexes, which an unlisted walk drops past MEMO_ZEROS."""
    q, n = system.field.q, system.nvars
    cone = _on_cone(system) and not listed
    count = 0
    chunks: list[np.ndarray] | None = None if cone else []
    for idx in _zero_chunks(system, _prefix_ranges(q, n, cone)):
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
    the normalized prefixes once: the one c that sends the first nonzero
    prefix coordinate a to 1 is 1/a.  So N = (zeros with prefix 0, the
    x_n-axis) + (q - 1) * (zeros at normalized prefixes).  For q = 2 and
    for n = 1 the cone is the whole grid, which is walked as such.
    """
    return _walk(system, listed=False).count


def kernel_points(system: PolySystem) -> int:
    """The points at which `fast_count`'s pass evaluates the system's first
    polynomial: every visited prefix with every value of x_n.  It does not
    depend on the memo."""
    q = system.field.q
    ranges = _prefix_ranges(q, system.nvars, _on_cone(system))
    return q * sum(map(len, ranges))


def zero_points(system: PolySystem, budget: int | None = None) -> np.ndarray:
    """The common zeros over the full space as rows of coordinates, in
    odometer order (which is sorted order); BudgetExceeded past budget
    points (default_budget()), whether or not the memo holds the walk."""
    _region_size_check(system.field.q**system.nvars, budget, "fast")
    q, n = system.field.q, system.nvars
    idx = _walk(system, listed=True).idx
    cols = _coordinates(idx, q, n)
    return np.stack(cols, axis=1) if cols else np.zeros((len(idx), 0), dtype=np.intp)


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
    """The F_p-coordinates of the points (rows of Z) that `coset_ids` reads:
    Z itself over a prime field, else its (|Z|, n, k) base-p digits.  A sweep
    splits its points once and passes the digits to every batch."""
    return Z if F.k == 1 else F.tables.digits(Z)


def coset_ids(
    X: np.ndarray, pivots: Sequence[int], entries: np.ndarray, F: FieldSpec
) -> np.ndarray:
    """Coset numbers of the points Z, given as X = point_digits(Z, F), for a
    batch of B direction spaces that share their RREF pivot columns: a
    (B, |Z|) array, each row in `AffineSubspace.parallel_class` order.
    entries[b] is space b's rows at the free columns, as `basis_entries`
    gives them.

    The coset's offset is the point x minus each row r times x's entry at
    r's pivot (RREF rows vanish at the other rows' pivots, so the pivot
    entries never change); its free coordinates, read big-endian, number the
    coset.  F_q is a k-dimensional F_p-space and the offset's free
    coordinates, x_j - sum_r x_{piv_r} * e_{b,r,j}, are F_p-linear in x's
    coordinates.  So the whole batch is one integer matrix product of x's
    base-p digits, an (|Z|, n*k) array, with an (n*k, B*(n-m)*k) matrix
    whose block (i, (b, j)) is the k x k identity where i is free column j,
    the matrix of multiplication by -e_{b,r,j} where i is pivot r
    (`FieldTables.mul_matrices`), and zero elsewhere.  Reduced mod p, the
    product holds each offset's free coordinates as base-p digits, and the
    coset number reads them big-endian.  A prime field (k = 1) needs no
    digit split.
    """
    T = F.tables
    p, k, n = F.p, F.k, X.shape[1]
    free = [j for j in range(n) if j not in pivots]
    B, f = len(entries), len(free)
    M = np.zeros((n, k, B, f, k), dtype=np.int64)  # [i, a, b, j, c]
    M[free, :, :, range(f), :] = np.eye(k, dtype=np.int64)[:, None, :]
    if entries.size:
        M[list(pivots)] = T.mul_matrices[T.neg(entries)].transpose(1, 3, 0, 2, 4)
    # transposed, so the digits come out as (B, (n-m)*k, |Z|)
    R = M.reshape(n * k, B * f * k).T @ X.reshape(len(X), n * k).T
    # R %= p, by a scalar division, which numpy does faster than a remainder
    t = R // p
    t *= p
    R -= t
    return p ** np.arange(f * k - 1, -1, -1) @ R.reshape(B, f * k, len(X))


# -- public counting API --------------------------------------------------------


def _region_size_check(size: int, budget: int | None, engine: str) -> None:
    cap = ORACLE_CAP if engine == "oracle" else FAST_CAP
    limit = min(cap, budget if budget is not None else default_budget())
    if size > limit:
        raise BudgetExceeded(f"region size {size} exceeds budget {limit}")


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
        if region.ambient != system.nvars:
            raise AmbientMismatch(
                f"subspace ambient {region.ambient} != system arity {system.nvars}"
            )
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
    full-space total).  The fast engine buckets the zero set by coset; the
    oracle counts each member on its own."""
    F = system.field
    size = F.q**system.nvars
    _region_size_check(size, budget, engine)
    members = L.parallel_class()
    if engine == "oracle":
        counts = [count_zeros(system, m, engine="oracle", budget=budget).count for m in members]
    else:
        pivots, entries = basis_entries(L.basis, system.nvars)
        X = point_digits(zero_points(system, budget), F)
        ids = coset_ids(X, pivots, entries[None], F)[0]
        counts = np.bincount(ids, minlength=len(members)).tolist()
    return list(zip(members, counts))
