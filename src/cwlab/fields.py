"""Finite fields F_{p^k} with exact, table-backed arithmetic.

An element is an index in [0, q) that spells its coordinates over the power
basis 1, g, ..., g^(k-1) big-endian, so index order is lexicographic order,
and "canonically least" means least index.  Scalar arithmetic over a prime
field is mod p; array arithmetic, and an extension field's scalar arithmetic,
read one log/exp bundle (`FieldTables`, README), checked against `mul_poly`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DegreeTooLarge, DivisionByZero, InvalidArgument, NotASubfield, NotPrime

# the largest field; p >= 2, so a degree k > 20 is past it
FIELD_SIZE_CAP = 1 << 20
_LOG_TABLE_CAP = 1 << 16  # largest q whose scalar tables are Python lists
FLOAT32_EXACT = 1 << 24  # `FieldTables.product`'s exact ranges: float32 holds every
FLOAT64_EXACT = 1 << 53  # integer up to 2^24, and float64 every one up to 2^53


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_eval_fp(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_mod_fp(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """The remainder of num by monic den over F_p, coefficients ascending."""
    rem = list(num)
    dd = len(den) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for i, c in enumerate(den):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _is_irreducible_fp(coeffs: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial over F_p is irreducible, by exhaustive search."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for a in range(p):
        if _poly_eval_fp(coeffs, a, p) == 0:
            return False
    if deg <= 3:
        return True
    # No linear factors; trial-divide by monic polynomials of degree 2..deg/2.
    for d in range(2, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            if not _poly_mod_fp(list(coeffs), den, p):
                return False
    return True


def _factor_int(n: int) -> list[int]:
    """The distinct prime factors of n <= 2^20, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """F_{p^k} on one monic irreducible modulus, immutable; `build_field`
    gives the canonical one."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.zero = 0
        self.one = p ** (k - 1)
        # Residue class of the indeterminate: coords (0, 1, 0, ...).
        self.generator = p ** (k - 2) if k > 1 else 0

        # coords of x^(k+j) reduced mod the modulus, j = 0..k-2
        self._xpow: list[tuple[int, ...]] = []
        if k > 1:
            cur = [(-c) % p for c in modulus[:k]]  # x^k
            self._xpow.append(tuple(cur))
            for _ in range(k - 2):
                nxt = [0] + cur[:-1]
                top = cur[-1]
                if top:
                    for i in range(k):
                        nxt[i] = (nxt[i] - top * modulus[i]) % p
                cur = nxt
                self._xpow.append(tuple(cur))

        # Every attribute is set here: one added later would slow every
        # attribute read of the instance.  Tables are built on first use.
        self._tables: FieldTables | None = None
        self._scalar: tuple | None = None

    # -- encoding ---------------------------------------------------------

    def _encode(self, coords: Sequence[int]) -> int:
        a = 0
        for c in coords:
            a = a * self.p + c
        return a

    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinates (c0..c_{k-1}) of element a in the power basis."""
        p = self.p
        out = [0] * self.k
        for i in range(self.k - 1, -1, -1):
            out[i] = a % p
            a //= p
        return tuple(out)

    def from_coords(self, coords: Sequence[int]) -> int:
        """The element with these k coordinates, each read mod p."""
        if len(coords) != self.k:
            raise ValueError(f"need {self.k} coordinates, got {len(coords)}")
        return self._encode([c % self.p for c in coords])

    def from_int(self, n: int) -> int:
        """The image of the rational integer n (n times the identity)."""
        return (n % self.p) * self.one

    # -- arithmetic -------------------------------------------------------

    @property
    def tables(self) -> "FieldTables":
        """The field's vectorized arithmetic, built on first use."""
        if self._tables is None:
            self._tables = FieldTables(self)
        return self._tables

    def add(self, a: int, b: int) -> int:
        """a + b."""
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log, exp, zech, Z = self._scalar or self._scalars()
        s = log[a]
        s += zech[log[b] - s]
        return exp[s] if s < Z else 0

    def sub(self, a: int, b: int) -> int:
        """a - b."""
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        """-a."""
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        log, exp, _, Z = self._scalar or self._scalars()
        s = log[a] + (self.q - 1) // 2  # -1 = gamma^((q-1)/2)
        return exp[s] if s < Z else 0

    def mul(self, a: int, b: int) -> int:
        """a * b."""
        if self.k == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        log, exp, _, _ = self._scalar or self._scalars()
        return exp[log[a] + log[b]]

    def mul_poly(self, a: int, b: int) -> int:
        """a * b by reduced polynomial arithmetic: the reference."""
        if self.k == 1:
            return (a * b) % self.p
        p, k = self.p, self.k
        # coords are ascending in powers of g: coords[i] multiplies g^i
        ca, cb = self.coords(a), self.coords(b)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:k]]
        for j in range(k - 1):
            c = conv[k + j] % p
            if c:
                red = self._xpow[j]
                for i in range(k):
                    out[i] = (out[i] + c * red[i]) % p
        return self._encode(out)

    def inv(self, a: int) -> int:
        """1 / a; DivisionByZero for 0."""
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        log, exp, _, _ = self._scalar or self._scalars()
        return exp[self.q - 1 - log[a]]

    def pow(self, a: int, e: int) -> int:
        """a^e, e any integer; DivisionByZero for 0 to a negative power."""
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return self.one
            raise DivisionByZero("negative power of zero")
        if self.k == 1:
            return pow(a, e % (self.q - 1), self.p)
        log, exp, _, _ = self._scalar or self._scalars()
        return exp[log[a] * e % (self.q - 1)]

    # -- internals --------------------------------------------------------

    def _scalars(self) -> tuple:
        """(log, exp, zech, Z) for scalar arithmetic in the bundle's encoding:
        exp's first 2q - 3 entries and zech[d] = log(1 + gamma^d), d in
        [2 - q, q - 2] (empty for p = 2), as lists up to q = 2^16 and as
        memoryviews past it."""
        T = self.tables
        log, exp, _ = T._log_bundle()
        q, Z = self.q, int(log[0])
        zech = T._zech()[Z : Z + q - 1] if self.p > 2 else exp[:0]
        read = np.ndarray.tolist if q <= _LOG_TABLE_CAP else memoryview
        self._scalar = read(log), read(exp[: 2 * q - 3]), read(zech), Z
        return self._scalar

    def _generator_powers(self) -> np.ndarray:
        """gamma^0 .. gamma^(q-2) as int64, gamma the least primitive element."""
        q = self.q
        factors = _factor_int(q - 1)
        gamma = None
        for cand in range(1, q):
            if all(self._pow_poly(cand, (q - 1) // f) != self.one for f in factors):
                gamma = cand
                break
        assert gamma is not None, "multiplicative group always has a generator"
        # each doubling is one matmul (README), into the rows it fills; an
        # entry is at most k*(p-1)^2
        p, k = self.p, self.k
        dtype = np.min_scalar_type(k * (p - 1) ** 2)
        place = p ** np.arange(k - 1, -1, -1)  # index of the basis element g^c
        mat = np.array([self.coords(self.mul_poly(int(b), gamma)) for b in place], dtype=dtype)
        rows = np.empty((q - 1, k), dtype=dtype)
        rows[0], m = self.coords(self.one), 1
        while m < q - 1:  # rows m .. 2m - 1 are rows 0 .. m - 1 times gamma^m
            t = min(m, q - 1 - m)
            np.matmul(rows[:t], mat, out=rows[m : m + t])
            rows[m : m + t] %= p
            m, mat = m + t, mat @ mat % p
        exp = np.zeros(q - 1, dtype=np.int64)
        for digit in rows.T:  # big-endian read-out, one column at a time, in place
            exp *= p
            np.add(exp, digit, out=exp, casting="unsafe")  # digit < p; int64 + uint64 would be float64
        return exp

    def _pow_poly(self, a: int, e: int) -> int:
        acc = self.one
        base = a
        while e:
            if e & 1:
                acc = self.mul_poly(acc, base)
            base = self.mul_poly(base, base)
            e >>= 1
        return acc

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"FieldSpec(q={self.q}, p={self.p}, k={self.k}, modulus=[{mod}])"


class FieldTables:
    """One field's arithmetic on numpy arrays of element indexes, through
    one log/exp bundle built on first use (README's design notes).  With
    the sentinel Z = 2(q - 2) + 1: log[a] = i for a = gamma^i, log[0] = Z;
    exp[s] = gamma^s below Z, exp[Z] = 0; fold = log[exp]; exp and fold
    read with mode="clip", every s > Z as Z.  A sum of two logs, a
    coefficient's and a monomial's, is below Z exactly when neither factor
    is zero, and every sum of two numbers up to Z fits log's dtype."""

    def __init__(self, F: FieldSpec):
        self.field = F
        self.q = F.q
        self._place = F.p ** np.arange(F.k - 1, -1, -1)  # index of the basis element g^a
        self._mul_matrices: np.ndarray | None = None
        self._readouts: dict[int, np.ndarray] = {}
        self._packings: dict[tuple[int, int], tuple[int, np.ndarray, np.ndarray | None, int]] = {}
        self._bundle: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._zech_table: np.ndarray | None = None

    def _log_bundle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._bundle is None:
            q = self.q
            Z = 2 * (q - 2) + 1
            powers = self.field._generator_powers()
            log = np.full(q, Z, dtype=np.int16 if 2 * Z < 1 << 15 else np.int32)
            log[powers] = np.arange(q - 1)
            exp = np.zeros(Z + 1, dtype=np.min_scalar_type(q - 1))
            exp[: q - 1], exp[q - 1 : Z] = powers, powers[: Z - q + 1]  # gamma^s = gamma^(s - (q - 1))
            self._bundle = log, exp, log[exp]
        return self._bundle

    @property
    def log(self) -> np.ndarray:
        """log[a], Z at 0 (q entries)."""
        return self._log_bundle()[0]

    @property
    def exp(self) -> np.ndarray:
        """exp[s], 0 at Z (Z + 1 entries)."""
        return self._log_bundle()[1]

    @property
    def fold(self) -> np.ndarray:
        """log[exp[s]] (Z + 1 entries)."""
        return self._log_bundle()[2]

    def add(self, x, y) -> np.ndarray:
        """Elementwise x + y for index arrays (or scalars) that broadcast."""
        if self.field.p == 2:
            return np.bitwise_xor(x, y)
        log, exp, _ = self._log_bundle()
        return exp.take(self._zech_add(log.take(x), log.take(y)), mode="clip")

    def mul(self, x, y) -> np.ndarray:
        """Elementwise x * y for index arrays (or scalars) that broadcast."""
        log, exp, _ = self._log_bundle()
        return exp.take(log.take(x) + log.take(y), mode="clip")

    def neg(self, x) -> np.ndarray:
        """Elementwise -x."""
        if self.field.p == 2:
            return np.array(x)
        log, exp, _ = self._log_bundle()
        return exp.take(log.take(x) + (self.q - 1) // 2, mode="clip")  # -1 = gamma^((q-1)/2)

    def total(self, stack: np.ndarray) -> np.ndarray:
        """The sum of gamma^s over the rows of the log-sum stack, as a
        (1, points) array: XOR for p = 2, int64 mod p over a prime field, a
        Zech tree (`_zech_tree`) over an odd-p extension field."""
        log, exp, fold = self._log_bundle()
        p, k = self.field.p, self.field.k
        if p > 2 and k > 1:
            return exp.take(self._zech_tree(fold.take(stack, mode="clip")))
        acc = (np.bitwise_xor if p == 2 else np.add).reduce(exp.take(stack, mode="clip"), axis=0, dtype=None if p == 2 else np.int64, keepdims=True)
        if p > 2:
            acc -= acc // p * p  # acc %= p, by the scalar division numpy does faster
        return acc

    def _zech_tree(self, a: np.ndarray) -> np.ndarray:
        """The log of the sum of the rows of a (logs <= Z), by pairwise Zech
        additions in place: ceil(log2 m) rounds for m rows."""
        fold, m = self.fold, len(a)
        while m > 1:
            h = m // 2
            a[:h] = fold.take(self._zech_add(a[:h], a[m - h : m]), mode="clip")
            m -= h
        return a[:1]

    def digits(self, x) -> np.ndarray:
        """x's k base-p digits, big-endian, as a trailing axis."""
        return np.asarray(x)[..., None] // self._place % self.field.p

    def _zech_add(self, a, b) -> np.ndarray:
        """A log sum that exp reads as x + y, a = log x, b = log y."""
        return a + self._zech().take(b - a + self._log_bundle()[0][0])

    def _zech(self) -> np.ndarray:
        """The Zech table, 2Z + 1 entries: log(x + y) = a + zech[b - a + Z]
        for a = log x, b = log y, x or y zero included (README)."""
        if self._zech_table is None:
            log, exp, _ = self._log_bundle()
            q, Z = self.q, int(log[0])
            d = np.arange(2 - q, q - 1)
            # 1 is the index p^(k-1), the top digit's place, so x + 1 adds
            # to x's top digit, mod q
            zech = log[(exp[d % (q - 1)].astype(np.int64) + self.field.one) % q]
            table = np.zeros(2 * Z + 1, dtype=log.dtype)
            table[: q - 1] = np.arange(-Z, q - 1 - Z)
            table[Z + d] = zech
            self._zech_table = table
        return self._zech_table

    @property
    def mul_matrices(self) -> np.ndarray:
        """(q, k, k): digits(x) @ mul_matrices[c] % p == digits(c*x)."""
        if self._mul_matrices is None:
            F, place = self.field, self._place
            basis = self.digits(self.mul(place[:, None], place[None, :]))  # [j, a]: g^j * g^a
            table = self.digits(np.arange(self.q)) @ basis.reshape(F.k, -1) % F.p
            self._mul_matrices = table.reshape(self.q, F.k, F.k).astype(np.min_scalar_type(F.p - 1))
        return self._mul_matrices

    def product(self, A: np.ndarray, B: list[np.ndarray], bound: int, reduce: bool = True) -> np.ndarray:
        """A @ B of non-negative integers, B as its row blocks, exactly for partial sums
        at most bound < FLOAT64_EXACT (README's exact products); reduced mod p if reduce."""
        narrow = bound < FLOAT32_EXACT and np.result_type(A, *B, np.float32) == np.float32
        assert narrow or bound < FLOAT64_EXACT, f"partial sums up to {bound} are past the exact float64 range"
        real = np.float32 if narrow else np.float64
        joined = np.concatenate(B, dtype=real) if len(B) > 1 else B[0].astype(real, copy=False)
        R = (A.astype(real, copy=False) @ joined).astype(np.int32 if narrow else np.intp)
        if reduce and self.field.p == 2:
            R &= 1  # R %= 2, by a mask, several times faster than a division
        elif reduce:
            R -= R // self.field.p * self.field.p  # R %= p, by the scalar division numpy does faster
        return R

    readout_cap = 1 << 12  # entries of one read-out table

    def readout(self, radix: int, digits: int) -> tuple[int, np.ndarray, np.ndarray | None, int]:
        """(g, W, table, bound) packing a row of digits integers below radix
        b, g to an integer (b^g <= readout_cap): W (digits, G) weights digit
        s by b^(g - 1 - (s + pad) % g) in group (s + pad) // g, the first
        group short; table[v] reads v's base-b digits mod p as one base-p
        number (None, g = 1, past the cap); a packed value is at most bound =
        b^g - 1.  Asserts b <= FLOAT64_EXACT."""
        if (radix, digits) not in self._packings:
            assert radix <= FLOAT64_EXACT, f"radix {radix} is past the exact float64 range"
            p, g = self.field.p, 0
            while g < digits and radix ** (g + 1) <= self.readout_cap:
                g += 1
            table = self._readouts.get(radix)
            if g and (table is None or len(table) < radix**g):
                dtype = np.min_scalar_type(p**g - 1)
                digit = (np.arange(radix) % p).astype(dtype)
                table = np.zeros(1, dtype=dtype)
                for _ in range(g):
                    table = (table[:, None] * dtype.type(p) + digit).ravel()
                self._readouts[radix] = table
            g = max(g, 1)
            G = -(-digits // g)
            s = np.arange(digits) + G * g - digits
            W = np.zeros((digits, G), dtype=np.int64)
            W[np.arange(digits), s // g] = radix ** (g - 1 - s % g)
            self._packings[radix, digits] = (g, W, table, radix**g - 1)
        return self._packings[radix, digits]


# keys build_field keeps (each spelling of a modulus its own) and pairs
# embed_subfield keeps; a dropped key is rebuilt as an equal object
FIELD_MEMO = 1 << 7


@lru_cache(maxsize=FIELD_MEMO)
def build_field(p: int, k: int, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """F_{p^k} on the least monic irreducible modulus (coefficients ascending,
    compared lexicographically), or on the given one, reduced mod p: one
    object per field.  InvalidArgument for k < 1, then DegreeTooLarge past
    FIELD_SIZE_CAP, then NotPrime, so no cap waits on the primality test."""
    if k < 1:
        raise InvalidArgument(f"extension degree must be >= 1, got {k}")
    if p >= 2 and (k > 20 or p**k > FIELD_SIZE_CAP):
        raise DegreeTooLarge(f"p^k = {p}^{k} exceeds the cap {FIELD_SIZE_CAP}")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if modulus is not None:
        given, modulus = modulus, tuple(c % p for c in modulus[:-1]) + (modulus[-1],)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k (ascending coefficients)")
        if modulus == build_field(p, k).modulus:
            return build_field(p, k)
        if modulus != given:
            return build_field(p, k, modulus)
        if not _is_irreducible_fp(modulus, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
        return FieldSpec(p, k, modulus)
    # past degree 1 a zero constant term makes x a factor, so the search
    # starts at constant term 1
    for tail in product(range(1 if k > 1 else 0, p), *[range(p)] * (k - 1)):
        cand = tuple(tail) + (1,)
        if _is_irreducible_fp(cand, p):
            return FieldSpec(p, k, cand)
    raise AssertionError("unreachable: irreducible polynomials of every degree exist")


def field_of_order(q: int) -> FieldSpec:
    """The canonical field of q elements: DegreeTooLarge past the cap, then
    InvalidArgument unless q is a prime power."""
    if q > FIELD_SIZE_CAP:
        raise DegreeTooLarge(f"q = {q} exceeds the cap {FIELD_SIZE_CAP}")
    primes = _factor_int(q) if q > 1 else []
    if len(primes) != 1:
        raise InvalidArgument(f"q = {q} is not a prime power")
    p, k = primes[0], 1
    while p**k < q:
        k += 1
    return build_field(p, k)


class Embedding:
    """A field embedding F_small -> F_big, as a table."""

    __slots__ = ("small", "big", "table", "_pullback")

    def __init__(self, small: FieldSpec, big: FieldSpec, table: tuple[int, ...]):
        self.small = small
        self.big = big
        self.table = table
        self._pullback = {v: i for i, v in enumerate(table)}

    def __call__(self, a: int) -> int:
        return self.table[a]

    def in_image(self, b: int) -> bool:
        """Whether b is the image of an element of F_small."""
        return b in self._pullback

    def pull(self, b: int) -> int:
        """Preimage of b; raises KeyError when b is outside the image."""
        return self._pullback[b]

    def __repr__(self) -> str:
        return f"Embedding(F_{self.small.q} -> F_{self.big.q})"


def _embedding_for_root(small: FieldSpec, big: FieldSpec, img: int) -> tuple[int, ...]:
    img_pows = [big.one]
    for _ in range(small.k - 1):
        img_pows.append(big.mul(img_pows[-1], img))
    table = []
    for a in range(small.q):
        val = big.zero
        for c, gp in zip(small.coords(a), img_pows):
            if c:
                val = big.add(val, big.mul(big.from_int(c), gp))
        table.append(val)
    return tuple(table)


@lru_cache(maxsize=FIELD_MEMO)
def embed_subfield(small: FieldSpec, big: FieldSpec) -> Embedding:
    """The canonical embedding: the small generator goes to the least root
    of the small modulus whose map extends every proper subfield's
    canonical embedding, so towers commute; NotASubfield if there is none."""
    if small.p != big.p:
        raise NotASubfield(f"characteristics differ: {small.p} vs {big.p}")
    if big.k % small.k != 0:
        raise NotASubfield(f"degree {small.k} does not divide {big.k}")
    if small == big:
        return Embedding(small, big, tuple(range(small.q)))
    # every root is in the subfield: 0 and the powers of gamma^((Q - 1) / (q - 1))
    subfield = np.append(big.tables.exp[: big.q - 1 : (big.q - 1) // (small.q - 1)], 0)
    roots = []
    for b in sorted(subfield.tolist()):
        acc = big.zero
        for c in reversed(small.modulus):
            acc = big.add(big.mul(acc, b), big.from_int(c))
        if acc == big.zero:
            roots.append(b)
    assert roots, "the big field always contains the subfield"
    divisors = [j for j in range(2, small.k) if small.k % j == 0]
    for img in roots:
        table = _embedding_for_root(small, big, img)
        ok = True
        for j in divisors:
            Fj = build_field(small.p, j)
            into_small = embed_subfield(Fj, small)
            into_big = embed_subfield(Fj, big)
            if table[into_small(Fj.generator)] != into_big(Fj.generator):
                ok = False
                break
        if ok:
            return Embedding(small, big, table)
    raise AssertionError("a subfield-compatible root always exists")


def element_literal(F: FieldSpec, a: int) -> str:
    """The text form: an integer over a prime field, else c0:c1:...:c(k-1)."""
    if F.k == 1:
        return str(a)
    return ":".join(str(c) for c in F.coords(a))


def read_int(text: str) -> int:
    """The integer an ASCII numeral -?[0-9]+ spells; ValueError for any other
    text, which int() would also read: other scripts' digits, 1_1, +1."""
    if not text.isascii() or not text.removeprefix("-").isdigit():
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_element_literal(F: FieldSpec, text: str) -> int:
    """The element an `element_literal` spells; ValueError if malformed."""
    parts = text.split(":")
    if len(parts) == 1:
        return F.from_int(read_int(parts[0]))
    if F.k == 1:
        raise ValueError("colon literals are not allowed in a prime field")
    if len(parts) != F.k:
        raise ValueError(f"element literal needs {F.k} coordinates, got {len(parts)}")
    return F.from_coords([read_int(c) for c in parts])
