"""Deterministic random streams.

A :class:`RandomStream` is a counter-based (Philox) generator keyed by a
``(seed, stream_id)`` pair, so independent substreams can be derived
without any sequential draining: stream ``(seed, k)`` produces the same
numbers no matter how many other streams were used before it.  Each kind
of draw (states, a reconstruction, an experiment's repetitions) has its
own stream id, so draws of one kind never move the numbers of another.
A stream's `twin` is a second, independent stream on the same key, numpy's
``Philox.jumped()``: an experiment draws its R rows from the stream and its I
rows from the twin, so either quadrature's draws stand alone.
A `PreparedLaw` is rows of pvals that `multinomial` draws from on any stream, as often as
it is given, the bits the plain pvals draw; a per-shot draw tabulates it once.  Each law of
an outcome table is built as one, so a law a sweep keeps across steps is tabulated once.
"""

from __future__ import annotations

import copy
import functools

import numpy as np


class RandomStream:
    """Philox-backed generator for the substream ``(seed, stream_id)``, each in [0, 2**64)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed, self.stream_id = int(seed), int(stream_id)
        for name, word in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= word < 2**64:  # two seeds must never share a key
                raise ValueError(f"{name} must be in [0, 2**64), got {word}")
        self._start = 0  # the Philox counter this stream starts at
        self._gen = np.random.Generator(self._philox())

    def _philox(self) -> np.random.Philox:
        # Philox takes a 2x64-bit key; (seed, stream_id) maps one-to-one.
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Philox(counter=self._start, key=key)

    @functools.cached_property
    def twin(self) -> RandomStream:
        """The stream 2**128 draws along the same key from where this one starts, numpy's
        ``Philox.jumped()``, and independent of this one: a twin's twin is ``jumped(2)``.
        Built on first use and kept, so each draw from it continues the last."""
        twin = copy.copy(self)
        # jumped()'s state, set directly: jumped() builds an entropy-seeded Philox and
        # copies a state into it, about three times the cost of this one.
        twin._start = self._start + 2**128
        twin._gen = np.random.Generator(twin._philox())
        return twin

    def uniforms(self, n: int) -> np.ndarray:
        """n iid uniforms on [0, 1)."""
        return self._gen.random(n)

    def normals(self, n: int) -> np.ndarray:
        """n iid standard normals."""
        return self._gen.standard_normal(n)

    def multinomial(self, n: int, pvals, size=None) -> np.ndarray:
        """Counts of n iid draws over the categories with probabilities pvals, one row of
        counts per row of pvals (its last axis), as numpy's ``Generator.multinomial``:
        ``size``, if given, is the shape of the rows drawn, which pvals' rows broadcast to.
        pvals may be an array or a `PreparedLaw` of it; the draw is the same bits.

        Two exact draws, picked by the input.  With n at least the number of categories K,
        numpy's multinomial of the raw pvals: one conditional binomial per category (work
        grows with K).  With fewer shots than categories, n uniforms per row, each mapped to
        its category through the law's `cdf`, its rows' cumulative distributions, built once
        however many rows repeat them and kept for later draws (work grows with n).  Both
        refuse what numpy refuses, before any uniform is drawn, and neither holds an array
        more than twice the size of the counts besides the law's table.  The per-shot draw
        takes its uniforms row by row, so rows drawn in one call get the same counts as the
        same rows drawn one call after another.
        """
        law = pvals if isinstance(pvals, PreparedLaw) else PreparedLaw(pvals)
        if not (law.pvals.ndim and 0 < n < law.pvals.shape[-1]):
            return self._gen.multinomial(n, law.pvals, size)
        return self._per_shot_counts(n, law, law.pvals.shape[:-1] if size is None else size)

    def _per_shot_counts(self, n: int, law: PreparedLaw, size) -> np.ndarray:
        """multinomial(n, law, size) as n inverse-CDF draws per row and one bincount."""
        edges, width, starts = law.cdf
        k = law.pvals.shape[-1]
        # Per drawn row, the offset of the edges of the pvals row it repeats.
        offsets = np.broadcast_to(starts, size)
        u = self._gen.random((offsets.size, n))
        # Every shot's binary search in its own row at once, by halving steps.  Each step
        # compares u with an edge of its own row exactly, so no row's draw depends on
        # which other rows share the call.  Reading the edges through a view shifted by
        # step - 1 gives edges[pos + step - 1] without a (rows, n) index temporary.
        pos = np.repeat(offsets.reshape(-1, 1), n, axis=1)
        step = width // 2
        while step:
            pos += (edges[step - 1:].take(pos) <= u) * step
            step //= 2
        # From the edges searched to the drawn row's own bins.
        pos += (np.arange(0, offsets.size * width, width) - offsets.ravel())[:, None]
        counts = np.bincount(pos.ravel(), minlength=offsets.size * width).reshape(-1, width)
        return counts[:, :k].reshape(offsets.shape + (k,))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


class PreparedLaw:
    """Rows of multinomial pvals (the last axis), as floats, for `RandomStream.multinomial`
    to draw from many times, from any stream, with the table of their cumulative
    distributions built on its first per-shot draw and kept.  pvals is held uncopied, so it
    must not change once the law is built: a read-only array cannot."""

    def __init__(self, pvals):
        self.pvals = np.asarray(pvals, dtype=float)

    @functools.cached_property
    def cdf(self) -> tuple[np.ndarray, int, np.ndarray]:
        """(edges, width, starts): each pvals row's cumulative distribution F, padded to a
        power-of-two width with edges above every uniform, in one flat array, and the
        offset at which each row's edges start.  A shot with uniform u lands in category
        #{j : F_j <= u}, so a zero-probability category (F_{c-1} == F_c) is never drawn.
        Judged first by a zero-shot multinomial: what numpy refuses raises numpy's error."""
        _judge().multinomial(0, self.pvals)
        k = self.pvals.shape[-1]
        width = 1 << (k - 1).bit_length()
        cdf = np.full(self.pvals.shape[:-1] + (width,), 2.0)
        np.cumsum(self.pvals, axis=-1, out=cdf[..., :k])
        cdf[..., k - 1] = 1.0  # the last category takes the remainder, as in numpy
        edges = cdf.ravel()
        return edges, width, np.arange(0, edges.size, width).reshape(cdf.shape[:-1])


@functools.cache  # built on first use: numpy's first generator costs about 8 ms and 6 MB
def _judge() -> np.random.Generator:
    """A generator whose zero-shot multinomial judges pvals with numpy's errors; it never draws."""
    return np.random.Generator(np.random.Philox(0))
