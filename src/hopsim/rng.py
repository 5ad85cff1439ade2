"""Portable deterministic PRNG (splitmix64).

Both ends of a session regenerate the same address and dwell sequences
from a shared 64-bit seed, so the generator must be reproducible from
its published constants alone, independent of language or runtime.
splitmix64 fits: three multiply-xorshift steps over a 64-bit counter.
Any faithful reimplementation produces bit-identical streams.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# splitmix64 constants (public domain reference implementation).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Salt applied to a session seed to derive the dwell stream, keeping it
# decoupled from the address stream drawn from the same seed.
DWELL_SEED_SALT = 0xD1B54A32D192ED03


class SplitMix64:
    """Stateful splitmix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling.

        Each try concatenates as many 64-bit words as n - 1 needs, the
        first word highest, so v6 pools beyond 2**64 addresses draw too.
        For n <= 2**64 a try is one word, as in the reference algorithm.
        """
        if n <= 0:
            raise ValueError("bound must be positive")
        words = max(1, -(-(n - 1).bit_length() // 64))
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            x = self.next_u64()
            for _ in range(words - 1):
                x = (x << 64) | self.next_u64()
            if x < limit:
                return x % n

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        """Float in [low, high)."""
        return low + (high - low) * self.random()
