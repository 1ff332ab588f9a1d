"""Affine subspaces of A^n(F_q) in canonical form, and explicit point sets.

Canonical form: the basis is the RREF of the direction space, and the
offset is zero at every pivot column, so two descriptions of one point set
have one form, and parallel subspaces share their basis.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DependentBasis, EmptySet
from .fields import FieldSpec


def rref(field: FieldSpec, rows: Iterable[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The reduced row echelon form, zero rows dropped, and its pivot columns."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    n = len(work[0])
    out: list[list[int]] = []
    pivots: list[int] = []
    r = 0
    for col in range(n):
        src = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                src = i
                break
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        inv = field.inv(work[r][col])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    out = work[:r]
    return tuple(tuple(row) for row in out), tuple(pivots)


class AffineSubspace:
    """offset + the row space of rows, in canonical form; DependentBasis for
    dependent rows when strict."""

    __slots__ = ("field", "ambient", "offset", "basis", "pivots")

    def __init__(
        self,
        field: FieldSpec,
        offset: Sequence[int],
        rows: Iterable[Sequence[int]] = (),
        *,
        strict: bool = True,
    ):
        raw = [tuple(r) for r in rows]
        canon, pivots = rref(field, raw)
        if strict and len(canon) != len(raw):
            raise DependentBasis(f"{len(raw)} rows have rank {len(canon)}")
        off = list(offset)
        if len(off) != (len(raw[0]) if raw else len(off)):
            raise ValueError("offset and basis lengths disagree")
        for row, piv in zip(canon, pivots):
            c = off[piv]
            if c:
                off = [field.sub(x, field.mul(c, y)) for x, y in zip(off, row)]
        self.field = field
        self.ambient = len(off)
        self.offset = tuple(off)
        self.basis = canon
        self.pivots = pivots

    @property
    def dim(self) -> int:
        """The dimension."""
        return len(self.basis)

    @property
    def size(self) -> int:
        """The number of points, q^dim."""
        return self.field.q**self.dim

    # -- geometry -----------------------------------------------------------

    def points(self) -> Iterator[tuple[int, ...]]:
        """The q^dim points, in odometer order over the basis coefficients."""
        F = self.field
        for coeffs in product(range(F.q), repeat=self.dim):
            pt = list(self.offset)
            for c, row in zip(coeffs, self.basis):
                if c:
                    pt = [F.add(x, F.mul(c, y)) for x, y in zip(pt, row)]
            yield tuple(pt)

    def parallel_class(self) -> list["AffineSubspace"]:
        """The q^(n-dim) translates, in canonical form, their offsets in
        odometer order over the free columns."""
        pivots, elements = set(self.pivots), range(self.field.q)
        out = []
        for off in product(*[(0,) if j in pivots else elements for j in range(self.ambient)]):
            member = object.__new__(AffineSubspace)
            member.field, member.ambient, member.offset = self.field, self.ambient, off
            member.basis, member.pivots = self.basis, self.pivots
            out.append(member)
        return out

    # -- identity ---------------------------------------------------------------

    def key(self) -> tuple:
        """(ambient, offset, basis), which identifies the subspace over its field."""
        return (self.ambient, self.offset, self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return self.field == other.field and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.field, self.key()))

    def __repr__(self) -> str:
        return (
            f"AffineSubspace(dim={self.dim}, ambient={self.ambient}, "
            f"offset={self.offset}, basis={self.basis})"
        )


class PointSet:
    """An explicit subset of A^t(F_q); ValueError for a point outside it."""

    __slots__ = ("field", "ambient", "points")

    def __init__(self, field: FieldSpec, ambient: int, points: Iterable[Sequence[int]]):
        pts = frozenset(tuple(p) for p in points)
        for p in pts:
            if len(p) != ambient or any(not 0 <= x < field.q for x in p):
                raise ValueError(f"invalid point {p}")
        self.field = field
        self.ambient = ambient
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def sorted_points(self) -> list[tuple[int, ...]]:
        """The points in sorted (odometer) order."""
        return sorted(self.points)

    def __repr__(self) -> str:
        return f"PointSet(|S|={len(self.points)}, ambient={self.ambient}, q={self.field.q})"


def _greedy_span(F: FieldSpec, pts: np.ndarray, cap: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Up to cap (n by default) independent rows of the direction space of
    the span of pts, an (N, n) array in sorted order, and the indexes of
    the points that give them, the first included: in general position.
    One greedy pass, at most n + 1 array steps (README); EmptySet for no
    points."""
    if not len(pts):
        raise EmptySet("the empty set has no affine span")
    T = F.tables
    D = T.add(pts[1:], T.neg(pts[0]))
    chosen = [0]
    rows: list[list[int]] = []
    while len(rows) < (pts.shape[1] if cap is None else cap):
        hit = np.flatnonzero(D.any(axis=1))
        if not len(hit):
            break
        i = int(hit[0])
        row = D[i]
        piv = int(np.flatnonzero(row)[0])
        row = T.mul(F.inv(int(row[piv])), row)
        rows.append(row.tolist())
        chosen.append(chosen[-1] + i + 1)
        D = D[i + 1 :]
        D = T.add(D, T.mul(T.neg(D[:, piv])[:, None], row))
    return rows, chosen


def _sorted_array(ps: PointSet) -> np.ndarray:
    return np.array(ps.sorted_points(), dtype=np.intp).reshape(len(ps), ps.ambient)


def affine_span(ps: PointSet) -> AffineSubspace:
    """The least affine subspace containing the points."""
    pts = _sorted_array(ps)
    rows = _greedy_span(ps.field, pts)[0]
    return AffineSubspace(ps.field, pts[0].tolist(), rows)


def subspace_dim(F: FieldSpec, pts: np.ndarray) -> int | None:
    """The dimension of the affine subspace whose point set is pts (as for
    `_greedy_span`, distinct), or None when there is none: N = q^m and the
    span has dimension m."""
    N, m = len(pts), 0
    while F.q**m < N:
        m += 1
    if F.q**m != N:
        return None
    return m if len(_greedy_span(F, pts, m + 1)[0]) == m else None


def is_linear_subspace(ps: PointSet) -> tuple[bool, int | None]:
    """(whether the set is an affine subspace, its dimension or None)."""
    dim = subspace_dim(ps.field, _sorted_array(ps))
    return (dim is not None, dim)


def direction_spaces(field: FieldSpec, n: int, m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The RREF bases of the [n choose m]_q direction spaces of dimension m,
    pivot columns in lexicographic order, then free entries in odometer order."""
    if m == 0:
        yield ()
        return
    F = field
    for pivots in combinations(range(n), m):
        pivset = set(pivots)
        cells = [
            (i, j)
            for i in range(m)
            for j in range(pivots[i] + 1, n)
            if j not in pivset
        ]
        for vals in product(range(F.q), repeat=len(cells)):
            rows = [[0] * n for _ in range(m)]
            for i, p in enumerate(pivots):
                rows[i][p] = F.one
            for (i, j), v in zip(cells, vals):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def gaussian_binomial(q: int, n: int, m: int) -> int:
    """The number of m-dimensional subspaces of F_q^n."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
