"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host, other tenants slow every process by up to 1.7x for
stretches of seconds to minutes, so raw wall times of the same code spread
by 20-40% between runs.  The benchmark runs one of these kernels next to
every timed pass and rescales the pass to the host speed of the reference
machine:

    normalised seconds = measured seconds x REFERENCE_S[kind] / kernel seconds

A kernel never calls wvtomo, so a change to the program cannot move it.
Each kind imitates the instruction mix of the workloads it calibrates, so
that contention slows kernel and pass alike:

- ``small``: per-repetition Python overhead with small numpy calls (a
  generator per repetition, 100-draw inverse-CDF sampling, 5x5 algebra).
  It calibrates the sweeps.  It also tracked the d=32 sweep better than a
  kernel of 64x64 complex products did, whose own time varied by 7-19%
  (interquartile range over median) from one call to the next.
- ``stream``: inverse-CDF sampling over arrays of 10^6 draws, bound by
  memory bandwidth.  It calibrates the one huge draw of ``oneshot``.

    python3 bench/calibrate.py        # prints each kernel's median time
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np

# Median kernel seconds on the reference machine (2 vCPUs of an Intel Xeon
# KVM guest, Python 3.11, numpy 2.4, one BLAS thread), in quiet stretches.
REFERENCE_S = {"small": 0.104, "stream": 0.29}

_KEY = 0x5EED


def _small() -> float:
    d = 5
    gen0 = np.random.default_rng(_KEY)
    probs = gen0.random(2 * d)
    probs /= probs.sum()
    values = np.tile([-1.0, 1.0], d)
    overlaps = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    target = np.eye(d, dtype=complex) / d
    acc = 0.0
    for rep in range(400):
        gen = np.random.Generator(np.random.Philox(key=np.array([_KEY, rep], dtype=np.uint64)))
        sums = np.zeros((2 * d, d))
        for c in range(2 * d):
            cdf = np.cumsum(probs)
            cdf[-1] = 1.0
            idx = np.searchsorted(cdf, gen.random(100), side="right")
            sums[c] = np.bincount(idx >> 1, weights=values[idx], minlength=d)
        pw = -sums[0::2] / 200.0 + 1j * sums[1::2] / 200.0
        raw = np.zeros((d, d), dtype=complex)
        for n in range(d):
            raw[n] = (pw[n] / overlaps[:, n]) @ overlaps
        herm = (raw + raw.conj().T) / 2.0
        acc += float(np.sum(np.abs(herm - target) ** 2))
    return acc


def _stream() -> float:
    gen = np.random.Generator(np.random.Philox(key=np.array([_KEY, 0], dtype=np.uint64)))
    probs = gen.random(10)
    cdf = np.cumsum(probs / probs.sum())
    cdf[-1] = 1.0
    values = np.tile([-1.0, 1.0], 5)
    acc = 0.0
    for _ in range(6):
        idx = np.searchsorted(cdf, gen.random(1_000_000), side="right")
        acc += float(np.bincount(idx >> 1, weights=values[idx], minlength=5).sum())
    return acc


KERNELS = {"small": _small, "stream": _stream}


def kernel_seconds(kind: str) -> float:
    """Wall seconds of one run of the ``kind`` kernel."""
    t0 = perf_counter()
    KERNELS[kind]()
    return perf_counter() - t0


def main() -> int:
    for kind in KERNELS:
        kernel_seconds(kind)
        times = [kernel_seconds(kind) for _ in range(21)]
        print(f"{kind:8s} median {statistics.median(times):.4f} s  min {min(times):.4f} s  "
              f"reference {REFERENCE_S[kind]:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
