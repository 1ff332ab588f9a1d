"""Finite-field arithmetic and brute-force zero counting, written apart from cwlab.

The benchmark checks cwlab's counts against this module.  It shares nothing
with cwlab's code: it reads only a field's documented modulus (ascending
coefficients, monic) and the documented element encoding (an element of
F_{p^k} is the integer whose base-p digits, most significant first, are its
coordinates c0..c_{k-1} in the power basis 1, g, ..., g^{k-1}).

Tables are dense numpy arrays, so a count is a sweep of gathers over the
whole point grid.
"""

from __future__ import annotations

from itertools import product

import numpy as np


class GF:
    """F_{p^k} on a given monic modulus, with dense add/mul tables."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = tuple(modulus)
        q = self.q
        idx = np.arange(q, dtype=np.int64)
        # coords[a, i] multiplies g^i; digit i has weight p^(k-1-i)
        coords = np.stack([(idx // p ** (k - 1 - i)) % p for i in range(k)], axis=1)
        weights = np.array([p ** (k - 1 - i) for i in range(k)], dtype=np.int64)
        self.add = (((coords[:, None, :] + coords[None, :, :]) % p) @ weights).astype(np.int32)
        conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                conv[:, :, i + j] += coords[:, None, i] * coords[None, :, j]
        for top in range(2 * k - 2, k - 1, -1):  # g^top = -sum_i m_i g^(top-k+i)
            c = conv[:, :, top] % p
            for i in range(k):
                conv[:, :, top - k + i] -= c * self.modulus[i]
        self.mul = ((conv[:, :, :k] % p) @ weights).astype(np.int32)
        self.add_flat = self.add.ravel()
        self.mul_flat = self.mul.ravel()
        self.one = p ** (k - 1)
        self.neg = np.array([int(np.nonzero(self.add[a] == 0)[0][0]) for a in range(q)])

    def is_field(self) -> bool:
        """No zero divisors: the modulus is irreducible."""
        return bool((self.mul[1:, 1:] != 0).all())

    def m(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def a(self, a: int, b: int) -> int:
        return int(self.add[a, b])

    def power(self, a: int, e: int) -> int:
        acc = self.one
        for _ in range(e):
            acc = self.m(acc, a)
        return acc

    def from_int(self, n: int) -> int:
        return (n % self.p) * self.one

    def inv(self, a: int) -> int:
        return int(np.nonzero(self.mul[a] == self.one)[0][0])


def extension(p: int, m: int) -> GF:
    """A model of F_{p^m} on the greatest monic irreducible modulus.

    Any model serves for counting, since counts do not depend on the model;
    the greatest modulus is chosen so that this model is rarely cwlab's.
    """
    for tail in product(range(p - 1, -1, -1), repeat=m):
        K = GF(p, m, tuple(tail) + (1,))
        if K.is_field():
            return K
    raise ValueError(f"no irreducible modulus of degree {m} over F_{p}")


def embedding(small: GF, big: GF) -> np.ndarray:
    """One embedding small -> big: the small generator goes to some root of
    the small modulus in big.  All embeddings give the same zero counts."""
    if small.k == 1:
        return np.array([big.from_int(a) for a in range(small.q)])
    for r in range(big.q):
        acc = 0
        for c in reversed(small.modulus):
            acc = big.a(big.m(acc, r), big.from_int(c))
        if acc == 0:
            break
    else:
        raise ValueError("no root of the small modulus in the big field")
    pows = [big.one]
    for _ in range(small.k - 1):
        pows.append(big.m(pows[-1], r))
    table = []
    for a in range(small.q):
        val = 0
        digits = [(a // small.p ** (small.k - 1 - i)) % small.p for i in range(small.k)]
        for c, gp in zip(digits, pows):
            val = big.a(val, big.m(big.from_int(c), gp))
        table.append(val)
    return np.array(table)


def frobenius(F: GF, a: int) -> int:
    """a^p, the generator of Gal(F/F_p)."""
    return F.power(a, F.p)


def grid(q: int, n: int) -> list[np.ndarray]:
    """Coordinate arrays of all q^n points, odometer order."""
    if n == 0:
        return []
    axes = np.indices((q,) * n, dtype=np.int32).reshape(n, -1)
    return list(axes)


def evaluate(F: GF, terms, X: list[np.ndarray], size: int) -> np.ndarray:
    """Values of sum c * prod x_i^e_i at the points X (coefficients in F)."""
    q = F.q
    acc = np.zeros(size, dtype=np.int32)
    powers: dict[int, np.ndarray] = {}
    for exps, c in terms:
        v = np.full(size, c, dtype=np.int32)
        for x, e in zip(X, exps):
            if e:
                if e not in powers:
                    col = [F.one] * q
                    for a in range(q):
                        col[a] = F.power(a, e)
                    powers[e] = np.array(col, dtype=np.int32)
                v = F.mul_flat[v * q + powers[e][x]]
        acc = F.add_flat[acc * q + v]
    return acc


def zero_mask(F: GF, polys, n: int, X: list[np.ndarray] | None = None) -> np.ndarray:
    """Boolean mask over the q^n grid (odometer order) of common zeros.

    polys: lists of (exponent tuple, coefficient in F)."""
    X = grid(F.q, n) if X is None else X
    size = F.q**n
    mask = np.ones(size, dtype=bool)
    for terms in polys:
        mask &= evaluate(F, terms, X, size) == 0
    return mask


def count(F: GF, polys, n: int) -> int:
    return int(zero_mask(F, polys, n).sum())


def lift(terms, table: np.ndarray):
    return [(e, int(table[c])) for e, c in terms]


def leading(terms):
    top = max(sum(e) for e, _ in terms)
    return [(e, c) for e, c in terms if sum(e) == top]


def homogenized(terms):
    """Homogenizing variable inserted at position 0, as in the paper."""
    top = max(sum(e) for e, _ in terms)
    return [((top - sum(e),) + tuple(e), c) for e, c in terms]


def gaussian_binomial(q: int, n: int, m: int) -> int:
    """The number of m-dimensional subspaces of F_q^n, by counting ordered
    bases: prod (q^n - q^i) / prod (q^m - q^i)."""
    num = den = 1
    for i in range(m):
        num *= q**n - q**i
        den *= q**m - q**i
    return num // den


def points_of(F: GF, offset, rows) -> np.ndarray:
    """Ranks (odometer order) of the q^m points offset + sum t_j rows_j."""
    n, m, q = len(offset), len(rows), F.q
    T = grid(q, m) if m else []
    size = q**m
    rank = np.zeros(size, dtype=np.int64)
    for i in range(n):
        x = np.full(size, offset[i], dtype=np.int32)
        for t, row in zip(T, rows):
            if row[i]:
                x = F.add_flat[x * q + F.mul_flat[t * q + row[i]]]
        rank = rank * q + x
    return rank


def coset_counts(F: GF, mask: np.ndarray, n: int, rows) -> list[int]:
    """Zero counts on every coset of span(rows), by walking the cosets from
    a complement of the span: the free coordinates of a row echelon form."""
    basis, pivots = echelon(F, rows)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for vals in product(range(F.q), repeat=len(free)):
        off = [0] * n
        for j, v in zip(free, vals):
            off[j] = v
        out.append(int(mask[points_of(F, off, basis)].sum()))
    return out


def echelon(F: GF, rows):
    """Row echelon form (leading ones) and pivot columns, by Gauss elimination."""
    work = [list(r) for r in rows]
    n = len(work[0]) if work else 0
    out, pivots = [], []
    for col in range(n):
        src = next((r for r in work if r[col]), None)
        if src is None:
            continue
        work.remove(src)
        inv = F.inv(src[col])
        src = [F.m(inv, x) for x in src]
        for i, r in enumerate(work):
            if r[col]:
                f = r[col]
                work[i] = [F.a(x, int(F.neg[F.m(f, y)])) for x, y in zip(r, src)]
        out.append(src)
        pivots.append(col)
    return out, pivots
