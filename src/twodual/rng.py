"""Deterministic pseudo-randomness with a fixed cross-platform bit stream.

The generators and sampled sweeps must reproduce byte-identical corpora for
a given seed regardless of interpreter or platform, so we carry a small
splitmix64 implementation instead of relying on ``random``'s unspecified
stream evolution across versions.
"""

from __future__ import annotations

GENERATOR_ID = "splitmix64-v1"

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; seed is any Python int (taken mod 2^64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        # Largest multiple of n that fits in 64 bits; reject beyond it.
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < threshold:
                return x % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in the inclusive range ``[a, b]``."""
        if b < a:
            raise ValueError("empty range")
        return a + self.below(b - a + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        if k > len(seq):
            raise ValueError("sample larger than population")
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]

    def mask(self, width: int) -> int:
        """Random ``width``-bit mask (each bit independent, p = 1/2)."""
        if 0 < width <= 64:
            return self.next_u64() & ((1 << width) - 1)
        out = 0
        remaining = width
        while remaining > 0:
            take = min(remaining, 64)
            out = (out << take) | (self.next_u64() & ((1 << take) - 1))
            remaining -= take
        return out

    def fork(self) -> "SplitMix64":
        """Independent child stream (seeded from this one)."""
        return SplitMix64(self.next_u64())
