"""Affine subspaces of A^n(F_q) and explicit point sets.

Canonical form: the basis is the reduced row echelon form of the direction
space (leading ones, pivot columns cleared, rows ordered by pivot), and the
offset is the coset representative with zero entries in all pivot
coordinates.  Two descriptions of the same point set always have the same
canonical form, and parallelism is equality of canonical bases.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DependentBasis, EmptySet, FullSpace, InvalidArgument
from .fields import FieldSpec


def rref(field: FieldSpec, rows: Iterable[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over the field; returns (rows, pivot columns).

    Zero rows are dropped, so the output rank equals the number of rows.
    """
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
    """offset + row space, stored in canonical form."""

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
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.field.q**self.dim

    @classmethod
    def full_space(cls, field: FieldSpec, n: int) -> "AffineSubspace":
        if n < 0:
            raise InvalidArgument(f"dimension must be >= 0, got {n}")
        rows = [[field.one if j == i else 0 for j in range(n)] for i in range(n)]
        return cls(field, [0] * n, rows)

    # -- geometry -----------------------------------------------------------

    def reduce_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v modulo the direction space."""
        F = self.field
        out = list(v)
        for row, piv in zip(self.basis, self.pivots):
            c = out[piv]
            if c:
                out = [F.sub(x, F.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    def contains(self, point: Sequence[int]) -> bool:
        F = self.field
        diff = [F.sub(x, o) for x, o in zip(point, self.offset)]
        return not any(self.reduce_vector(diff))

    def points(self) -> Iterator[tuple[int, ...]]:
        """All q^dim points, streamed in odometer order over basis
        coefficients (last coefficient fastest, coefficients in canonical
        element order)."""
        F = self.field
        for coeffs in product(range(F.q), repeat=self.dim):
            pt = list(self.offset)
            for c, row in zip(coeffs, self.basis):
                if c:
                    pt = [F.add(x, F.mul(c, y)) for x, y in zip(pt, row)]
            yield tuple(pt)

    def _free_columns(self) -> list[int]:
        piv = set(self.pivots)
        return [j for j in range(self.ambient) if j not in piv]

    def parallel_class(self) -> list["AffineSubspace"]:
        """All q^(n-dim) translates of the direction space, canonical order.

        Pairwise disjoint, they cover the ambient space, and include self.
        Each member is built in canonical form: self's basis and pivots,
        and an offset that is zero at the pivots, its free coordinates
        running odometer style: the offsets are one product over the
        columns, of 0 at a pivot and of every element at a free column.
        """
        pivots, elements = set(self.pivots), range(self.field.q)
        out = []
        for off in product(*[(0,) if j in pivots else elements for j in range(self.ambient)]):
            member = object.__new__(AffineSubspace)
            member.field, member.ambient, member.offset = self.field, self.ambient, off
            member.basis, member.pivots = self.basis, self.pivots
            out.append(member)
        return out

    def superspaces(self) -> list["AffineSubspace"]:
        """All (dim+1)-dimensional subspaces containing self.

        There are (q^(n-k) - 1)/(q - 1) of them; pairwise they intersect in
        exactly self, and together they cover the ambient space.
        """
        if self.dim == self.ambient:
            raise FullSpace("the full space has no proper superspaces")
        free = self._free_columns()
        F = self.field
        out = []
        for vals in product(range(F.q), repeat=len(free)):
            first = next((v for v in vals if v), None)
            if first != F.one:  # projective normalization: first nonzero is 1
                continue
            v = [0] * self.ambient
            for j, c in zip(free, vals):
                v[j] = c
            out.append(
                AffineSubspace(F, self.offset, list(self.basis) + [tuple(v)])
            )
        return out

    # -- identity ---------------------------------------------------------------

    def key(self) -> tuple:
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
    """An explicit subset of A^t(F_q)."""

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
        return sorted(self.points)

    def __repr__(self) -> str:
        return f"PointSet(|S|={len(self.points)}, ambient={self.ambient}, q={self.field.q})"


def _greedy_span(F: FieldSpec, pts: np.ndarray, cap: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Independent rows of the direction space of the points' affine span,
    at most cap of them (n by default), and the indexes of the points that
    give them, the first point's included: so the rows' number is the
    span's dimension, and the chosen points are in general position.

    pts is an (N, n) array of element indexes, its rows in canonical point
    order (the odometer order of `zero_points` is that order).  Each point
    outside the span of the points chosen so far is chosen and widens the
    span by one dimension; the pass ends once cap rows are found or no
    point is left outside.

    Whole arrays, not points, are reduced.  D holds the differences from
    the first point, reduced by the rows found so far; the first nonzero
    row of D is the next chosen point, since the points before it lie in
    the span.  It is scaled to a leading one at its pivot and cleared from
    the later rows of D.  Each row found is zero at the earlier pivots, so
    the earlier reductions stay in place: n + 1 array steps at most.
    """
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
    """Least affine subspace containing the points."""
    pts = _sorted_array(ps)
    rows = _greedy_span(ps.field, pts)[0]
    return AffineSubspace(ps.field, pts[0].tolist(), rows)


def subspace_dim(F: FieldSpec, pts: np.ndarray) -> int | None:
    """The dimension of the affine subspace whose point set is pts, or None
    when pts is empty or is not such a set.

    pts is as for `_greedy_span`, without repeated rows.  The points fill an
    affine subspace exactly when they fill their span: N == q^dim(span).
    So an N that is no power of q is no subspace, and the span is taken
    only for N = q^m, where the verdict is dim(span) == m: the number of
    rows `_greedy_span` finds, read up to m + 1.
    """
    N, m = len(pts), 0
    while F.q**m < N:
        m += 1
    if F.q**m != N:
        return None
    return m if len(_greedy_span(F, pts, m + 1)[0]) == m else None


def is_linear_subspace(ps: PointSet) -> tuple[bool, int | None]:
    """Whether the set equals the point set of some affine subspace;
    returns (verdict, dim or None), as decided by `subspace_dim`."""
    dim = subspace_dim(ps.field, _sorted_array(ps))
    return (dim is not None, dim)


def direction_spaces(field: FieldSpec, n: int, m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All canonical RREF bases of m-dimensional direction spaces in F_q^n.

    Deterministic order: pivot columns lexicographic, then free entries
    odometer style.  The count is the Gaussian binomial [n choose m]_q.
    """
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
    """Number of m-dimensional subspaces of F_q^n."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
