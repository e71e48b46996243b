"""Seedable counter-based pseudo-random generator used by every simulation.

The generator is SplitMix64.  Its entire algorithm fits in a few lines, so a
run can be reproduced bit-for-bit from the seed alone, in any language:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64       # golden-ratio step
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output  <- z XOR (z >> 31)

``uniform()`` maps the top 53 bits of one output to [0, 1).  Draw k of a
stream seeded with s is therefore a function of ``s + k * golden`` alone, so
``SplitMix64.uniform`` serves draws from a block of ``_BLOCK`` of them that
numpy computes at once in wrapping 64-bit unsigned arithmetic: the same formula
and the same bits as one draw at a time, in the same order.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)

_BLOCK = 1024  # draws per block
# k * golden mod 2^64 for k = 1.._BLOCK; numpy arrays wrap on overflow
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """64-bit counter PRNG: a golden-ratio counter pushed through a mixer."""

    # _end is the state after the block's last draw, and _next the index of
    # the next draw to serve; the stream's state is derived from them
    __slots__ = ("_end", "_block", "_next")

    def __init__(self, seed: int):
        self._end = seed & _MASK
        self._block: list[float] = []
        self._next = 0

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        i = self._next
        self._next = i + 1
        try:
            return self._block[i]
        except IndexError:
            return self._refill()

    def _refill(self) -> float:
        """Compute the next `_BLOCK` draws and serve the first of them."""
        z = _STEPS + np.uint64(self._end)
        self._end = int(z[-1])
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        # below 2^53, so the conversion and the power-of-two scale are exact
        self._block = ((z >> np.uint64(11)).astype(np.float64) * _INV_2_53).tolist()
        self._next = 1
        return self._block[0]

    def __repr__(self) -> str:  # pragma: no cover
        unserved = len(self._block) - self._next
        state = (self._end - unserved * _GOLDEN) & _MASK
        return f"SplitMix64(state=0x{state:016x})"
