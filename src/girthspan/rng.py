"""Deterministic SplitMix64 randomness.

Every random decision in the package flows through the helpers here so that
runs are bit-identical across platforms and execution schedules.  The scheme:

* ``mix64(x)`` is the first output of a SplitMix64 stream seeded at ``x``.
* A per-item draw is ``mix64(seed ^ mix64(item_index))``, so draws are
  random-access (no sequential state) and independent of iteration order.
* Named substreams (pipeline stages, Monte Carlo trials) derive child seeds
  by folding string/int tokens into the master seed via ``child_seed``.

``draws_array`` is a numpy twin of the scalar path used on hot loops; the
test suite asserts the two produce identical bits.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _C1) & MASK64
    z = ((z ^ (z >> 27)) * _C2) & MASK64
    return z ^ (z >> 31)


def mix64(x: int) -> int:
    """First output of a SplitMix64 stream seeded at ``x``."""
    return _finalize((x + GOLDEN) & MASK64)


def fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def child_seed(seed: int, *tokens: int | str) -> int:
    """Derive an independent substream seed from string/int tokens."""
    h = seed & MASK64
    for tok in tokens:
        if isinstance(tok, str):
            h = mix64(h ^ fnv1a64(tok))
        else:
            h = mix64(h ^ (tok & MASK64))
    return h


def draw(seed: int, index: int) -> int:
    """Position-addressable uniform u64 draw."""
    return mix64((seed & MASK64) ^ mix64(index & MASK64))


def draws_array(seed: int, count: int) -> np.ndarray:
    """Vectorized ``draw(seed, i)`` for i in [0, count), bit-identical."""
    idx = np.arange(count, dtype=np.uint64)
    return _mix64_np(np.uint64(seed & MASK64) ^ _mix64_np(idx))


def _mix64_np(x: np.ndarray) -> np.ndarray:
    z = (x + np.uint64(GOLDEN)).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(_C1)).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(_C2)).astype(np.uint64)
    return z ^ (z >> np.uint64(31))


class Stream:
    """Sequential SplitMix64 stream for shuffles and bounded draws."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _finalize(self._state)

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def keep_threshold(p: float) -> int | None:
    """u64 threshold for keep-with-probability-p; None means keep all."""
    if p >= 1.0:
        return None
    if p <= 0.0:
        return 0
    return int(p * float(1 << 64))
