"""Deterministic pseudo-randomness with a fixed cross-platform bit stream.

The generators and sampled sweeps must reproduce byte-identical corpora for
a given seed regardless of interpreter or platform, so we carry a small
splitmix64 implementation instead of relying on ``random``'s unspecified
stream evolution across versions.

splitmix64 is counter-based: output ``i`` is ``mix(seed + i * γ)``.  So
``SplitMix64`` computes its outputs ahead, a block at a time, with the
block's states packed one per 128-bit lane of a single int (SWAR) and
mixed together.  The stream is the one the scalar recurrence gives, output
for output; only the work is batched.  An instance holds its look-ahead
buffer unlocked, so it belongs to one thread: give each thread its own.
"""

from __future__ import annotations

import sys

GENERATOR_ID = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Outputs computed per refill.  Half the instances of a pasch check draw
# 8 values or fewer, while most values go to the few that draw hundreds;
# a block of 64 keeps both cheap (BENCH_11.json compares block sizes).
_BLOCK = 64

# The 64-bit words that hold the lane values, last lane first, when a
# platform of byte order ``key`` reads back a block's ``to_bytes`` in that
# order; the other word of each lane is padding.
_VALUE_WORDS = {"little": slice(-2, None, -2), "big": slice(1, None, 2)}
_WORDS = _VALUE_WORDS[sys.byteorder]

# Per 128-bit lane of a block: 1 in each, ``(i + 1) * γ mod 2^64`` in lane
# ``i``, and 2^64 - 1 in each.
_ONES = sum(1 << 128 * i for i in range(_BLOCK))
_STEPS = sum(((i + 1) * _GAMMA & _MASK64) << 128 * i for i in range(_BLOCK))
_LANE_MASK = _ONES * _MASK64
_STRIDE = _BLOCK * _GAMMA & _MASK64


class SplitMix64:
    """splitmix64 stream; seed is any Python int (taken mod 2^64)."""

    __slots__ = ("_state", "_ahead")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._ahead: list[int] = []  # outputs computed ahead, next one last

    def _draw_ahead(self) -> list[int]:
        """Compute the next block of outputs into the buffer.  A lane's
        xor-shift pulls its neighbour's low bits only into the 64 padding
        bits, which the lane mask clears; a multiply by a constant below
        2^64 stays inside the 128-bit lane."""
        lm = _LANE_MASK
        z = (self._state * _ONES + _STEPS) & lm
        z = ((z ^ (z >> 30)) & lm) * _MIX1 & lm
        z = ((z ^ (z >> 27)) & lm) * _MIX2 & lm
        z = (z ^ (z >> 31)) & lm
        self._state = (self._state + _STRIDE) & _MASK64
        words = memoryview(z.to_bytes(16 * _BLOCK, sys.byteorder)).cast("Q")
        self._ahead = ahead = words[_WORDS].tolist()
        return ahead

    def next_u64(self) -> int:
        return (self._ahead or self._draw_ahead()).pop()

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

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def mask(self, width: int) -> int:
        """Random ``width``-bit mask (each bit independent, p = 1/2)."""
        if 0 < width <= 64:
            # The buffer directly, not next_u64: this is the pasch
            # sampler's per-draw call.
            return (self._ahead or self._draw_ahead()).pop() & ((1 << width) - 1)
        out = 0
        remaining = width
        while remaining > 0:
            take = min(remaining, 64)
            out = (out << take) | (self.next_u64() & ((1 << take) - 1))
            remaining -= take
        return out
