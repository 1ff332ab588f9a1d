"""SplitMix64, the one source of randomness: bit-identical on every platform."""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The SplitMix64 output mix of a 64-bit state value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


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
        """Uniform integer in [0, n), rejection-sampled (no modulo bias)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def coin(self) -> bool:
        """A fair coin (the output's low bit)."""
        return bool(self.next_u64() & 1)


def derive_seed(*parts: int) -> int:
    """Fold integer labels into a single 64-bit sub-seed, order-sensitive."""
    state = 0
    for p in parts:
        state = mix64((state + _GAMMA + (p & MASK64)) & MASK64)
    return state
