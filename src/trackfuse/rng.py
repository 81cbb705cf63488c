"""Deterministic pseudo-random numbers for scenario generation.

The generator is SplitMix64: a 64-bit state advanced by the golden-ratio
increment 0x9E3779B97F4A7C15, with each output finalized by two
xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) and a final 31-bit xor-shift. It is trivial to
re-implement in any language, so the same seed reproduces the same raw
stream everywhere; golden-file tests pin the stream. ``normal`` goes
through the C library's ``log`` and ``cos``, which may differ in the last
bit from one platform to another.

The generator is counter-based: the k-th output after state ``s`` is the
finalizer applied to ``s + k * 0x9E3779B97F4A7C15 (mod 2**64)``. So
``block(n)``, the next ``n`` outputs of ``next_u64`` as one ``uint64[n]``
array, is the same finalizer on the array of those states, which numpy
wraps mod 2**64; it moves the state on by ``n`` steps as ``n`` calls would.

Derived values are defined on top of the raw 64-bit stream as follows:

* ``uniform(lo, hi)``: the top 53 bits scaled by 2^-53, mapped to [lo, hi).
* ``randint(lo, hi)``: ``lo + next_u64() % (hi - lo + 1)`` (the modulo bias
  is far below anything observable at the ranges used here).
* ``bernoulli(p)``: ``uniform() < p``.
* ``normal(mu, sigma)``: Box-Muller from two uniforms, with the first
  shifted into (0, 1] so the logarithm is always defined.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_TO_UNIT = 2.0**-53  # scales the top 53 bits of a draw to [0, 1)


def _mix(z: int | np.ndarray) -> int | np.ndarray:
    """The finalizer of a Python int, or of each element of a ``uint64`` array.

    On an array the int operands take its ``uint64`` type and the arithmetic
    wraps mod 2**64, so the masks change nothing.
    """
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator; cheap, portable and reproducible."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def block(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64``, as one ``uint64[n]`` array."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix(z)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * _TO_UNIT)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        u1 = ((self.next_u64() >> 11) + 1) * _TO_UNIT
        u2 = (self.next_u64() >> 11) * _TO_UNIT
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def stream(seed: int, salt: int) -> SplitMix64:
    """Independent substream for (seed, salt); decouples e.g. per-tracker noise."""
    return SplitMix64(_mix(seed & _MASK64) ^ _mix(((salt + 1) * _GOLDEN) & _MASK64))
