"""SplitMix64, the one source of randomness: bit-identical on every platform."""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z):
    """The SplitMix64 output mix of a 64-bit state value, or of each entry of a uint64 array."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def draw_many(states: np.ndarray, count: int, n=None) -> tuple[np.ndarray, np.ndarray]:
    """The next count outputs of each stream in states (a 1-d uint64 array),
    one row per stream, and the states after them.  Output t of a stream at
    state s is mix64(s + t gamma), so every row is one array pass.  With n
    (an int, or one per stream) they are values below n, where an output at
    or past 2^64 - (2^64 mod n) is skipped, as `SplitMix64.below` skips it."""
    out = mix64(states[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA)
    if n is None:
        return out, states + ((count * _GAMMA) & MASK64)
    m = np.asarray(n, dtype=np.uint64).reshape(-1, 1)
    if not m.all():
        raise ValueError("below() needs n >= 1")
    cut = -m % m  # 2^64 mod n, in uint64
    if not cut.any() or (out <= ~cut).all():
        return out % m, states + ((count * _GAMMA) & MASK64)
    while (keep := out <= ~cut).sum(1).min() < count:
        out = mix64(states[:, None] + np.arange(1, out.shape[1] + count + 1, dtype=np.uint64) * _GAMMA)
    cols = np.argsort(~keep, axis=1, kind="stable")[:, :count]  # each row's first count kept
    return np.take_along_axis(out % m, cols, 1), states + (cols[:, -1].astype(np.uint64) + 1) * _GAMMA


class SplitMix64:
    """SplitMix64 stream: state += gamma, output = mix(state)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        """The next 64-bit output."""
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled (no modulo bias) from
        the fewest outputs w with 2^(64w) >= n, the first most significant."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        words = max(1, ((n - 1).bit_length() + 63) // 64)
        limit = (1 << 64 * words) - ((1 << 64 * words) % n)
        while True:
            r = sum(self.next_u64() << 64 * i for i in range(words - 1, -1, -1))
            if r < limit:
                return r % n

    def draw(self, count: int, n: int | None = None) -> np.ndarray:
        """The next count outputs (values below n, if given) as a uint64
        array: `draw_many` on this one stream, which it advances past them."""
        out, after = draw_many(np.array([self._state], dtype=np.uint64), count, n)
        self._state = int(after[0])
        return out[0]


def derive_seed(*parts):
    """Fold integer labels (or uint64 arrays of them, entrywise) into a 64-bit sub-seed, order-sensitive."""
    state = 0
    for p in parts:
        state = mix64(((state + _GAMMA) & MASK64) + (p & MASK64))
    return state
