"""Deterministic random streams.

A :class:`RandomStream` is a counter-based (Philox) generator keyed by a
``(seed, stream_id)`` pair, so independent substreams can be derived
without any sequential draining: stream ``(seed, k)`` produces the same
numbers no matter how many other streams were used before it.  This is
what makes repetition loops order-independent and, in principle,
parallelizable.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class RandomStream:
    """Philox-backed generator for the substream ``(seed, stream_id)``."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        # Philox takes a 2x64-bit key; (seed, stream_id) maps one-to-one.
        bitgen = np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        self._gen = np.random.Generator(bitgen)

    def uniforms(self, n: int) -> np.ndarray:
        """n iid uniforms on [0, 1)."""
        return self._gen.random(n)

    def normals(self, n: int) -> np.ndarray:
        """n iid standard normals."""
        return self._gen.standard_normal(n)

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        """Counts of n iid draws over the categories with probabilities pvals."""
        return self._gen.multinomial(n, pvals)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
