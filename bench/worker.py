"""Runs one workload in a process of its own and prints its raw results as
one JSON line.  ``run.py`` starts it; a process per workload keeps each
workload's peak RSS its own, since ``ru_maxrss`` never decreases.

Load is a closed loop with one client: each operation (one in-process call
of ``wvtomo.cli.main`` and its output check) starts when the previous one
has ended.  One untimed warm-up pass comes first.  Checks run outside the
timed region.  A calibration kernel (``calibrate.py``) runs after set-up and
between passes, so that run.py can rescale times to the reference host
speed.

    python3 bench/worker.py --workload desk --seed 1 --seconds 25 --trace 0
    python3 bench/worker.py --workload desk --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Set-up is normalised by the median of these kernel runs after it.  It is
# import and Python work, so the "small" kernel calibrates it in every
# workload (with "stream", oneshot's set-up spread by 0.16 over five seeds).
SETUP_CALIBRATION = "small"
SETUP_KERNEL_RUNS = 3

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402  (standard library only)


def set_up(workload, seed: int, workdir: Path):
    """Import wvtomo from this checkout's src/ and build the workload's
    inputs.  Returns (cli module, inputs, seconds taken)."""
    t0 = perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from wvtomo import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported wvtomo from {cli.__file__}, not from {src}")
    inputs = workload.build_inputs(seed, workdir)
    return cli, inputs, perf_counter() - t0


def run_op(cli, op, tracer=None):
    """One timed CLI call, then its untimed check.  Returns (seconds, failure
    reason or None)."""
    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
    captured, errors = io.StringIO(), io.StringIO()
    reason = None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any crash is a failed operation, not a crashed benchmark
                code, reason = None, f"raised {exc!r}"
            wall = perf_counter() - t0
    if reason is None and code != 0:
        reason = f"exit code {code}: {errors.getvalue().strip()[-300:]}"
    if reason is None:
        reason = op.check(captured.getvalue())
    return wall, reason


class Loop:
    """Runs passes over the operations and keeps the tallies."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None) -> float:
        wall = 0.0
        for op in self.ops:
            seconds, reason = run_op(self.cli, op, tracer)
            wall += seconds
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{op.name}: {reason}")
        return wall


def measure(cli, ops, seconds: float, calibration: str, tracer=None) -> dict:
    """Warm up, then run passes until ``seconds`` would be exceeded (at least
    MIN_PASSES).  Without a tracer, the ``calibration`` kernel runs before
    the first pass and after each one, and each pass is also given in
    normalised seconds against the mean of the two kernel runs beside it.
    With a tracer, untraced and traced passes alternate."""
    from calibrate import REFERENCE_S, kernel_seconds

    loop = Loop(cli, ops)
    loop.run_pass()
    start = perf_counter()
    walls, traced, layers, kernels = [], [], [], []
    if tracer is None:
        kernel_seconds(calibration)  # warm-up
        kernels.append(kernel_seconds(calibration))
        while len(walls) < MIN_PASSES or (
            perf_counter() - start + statistics.median(walls) + kernels[-1] <= seconds
        ):
            walls.append(loop.run_pass())
            kernels.append(kernel_seconds(calibration))
    else:
        while len(traced) < MIN_TRACED_PASSES or (
            perf_counter() - start + statistics.median(walls) + statistics.median(traced)
            <= seconds
        ):
            walls.append(loop.run_pass())
            traced.append(loop.run_pass(tracer))
            layers.append(tracer.take(traced[-1]))
    reference = REFERENCE_S[calibration]
    return {
        "walls": walls,
        "kernel_s": kernels,
        "norm_walls": [
            wall * reference / ((kernels[i] + kernels[i + 1]) / 2)
            for i, wall in enumerate(walls)
        ] if kernels else [],
        "traced_walls": traced,
        "layer_passes": layers,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
    }


def summarize_layers(result: dict, tracer) -> dict:
    """Per-layer figures of one run: medians of self time and share over the
    traced passes; counts, which must repeat exactly from pass to pass."""
    passes = result.pop("layer_passes")
    first = passes[0]
    exact = {k: v for k, v in first.items() if not k.endswith((".self_s", ".share"))}
    repeat = all({k: p[k] for k in exact} == exact for p in passes[1:])
    layers = dict(exact)
    for key in first:
        if key.endswith((".self_s", ".share")):
            layers[key] = statistics.median(p[key] for p in passes)
    # Fastest traced pass minus fastest untraced pass, as wall_s is a fastest pass.
    layers["trace.overhead_s"] = min(result["traced_walls"]) - min(result["walls"])
    result["layers"] = layers
    result["counts_repeat"] = repeat
    if not repeat:
        result["failures"].append("exact counts differ between traced passes at one seed")
    result["notices"] = list(tracer.notices)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up in this fresh process and stop")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    workdir = OUT_DIR / f"work-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    cli, inputs, setup_s = set_up(workload, args.seed, workdir)
    if args.setup_only:
        from calibrate import REFERENCE_S, kernel_seconds

        kernels = [kernel_seconds(SETUP_CALIBRATION) for _ in range(SETUP_KERNEL_RUNS)]
        norm = setup_s * REFERENCE_S[SETUP_CALIBRATION] / statistics.median(kernels)
        print(json.dumps({"setup_s": setup_s, "norm_setup_s": norm, "kernel_s": kernels}))
        return 0

    import numpy as np

    ops = workload.operations(args.seed, workdir, inputs)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    result = measure(cli, ops, args.seconds, workload.calibration, tracer)
    if tracer is not None:
        result = summarize_layers(result, tracer)
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}.npz")
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["setup_s"] = setup_s
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
