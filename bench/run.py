"""wvtomo benchmark: runs the CLI workloads, checks their outputs and prints
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each with its unit.

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, samples, failures, notices) goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.

Each workload runs in a fresh child process (``worker.py``), so its peak RSS
is its own.  Set-up time is the median over SETUP_SAMPLES further fresh
children that only import wvtomo and build the inputs.  Nothing is built:
the children import wvtomo from ``src/`` of the checkout this file sits in.

Times are normalised to the speed of the reference host.  Other tenants
of a shared host slow every process by up to 1.7x for stretches of seconds
to minutes.  Over two sets of ten seeded runs of the same code, the
interquartile spread of the median pass time reached 0.27 and 0.37 of the
median (highdim), and that of the fastest pass 0.37 (desk) and 0.34
(highdim).  So a fixed kernel of ``calibrate.py``, which never calls
wvtomo, runs next to every pass, and

    wall_s  = median over passes of  pass seconds x REFERENCE_S / kernel seconds

with the kernel seconds the mean of the runs before and after the pass.
``setup_s`` is normalised the same way, by runs of the ``small`` kernel in
the same fresh process after its set-up.  The tail percentile of the
normalised passes and the measured median and fastest pass are printed
beside them and kept in the record.  Over five seeds at 25 s per run, the
spread of wall_s was 0.03 (desk), 0.05 (highdim) and 0.05 (oneshot) of its
median, against 0.22, 0.43 and 0.12-0.17 for the measured median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# Every run must end within 180 s; leave room for the parent's own work.
RUN_DEADLINE_S = 170.0
# The load model is one client with no threads.  With 2 cores, a second
# BLAS thread busy-waits against any other load on the other core: one
# extra process made highdim passes take ~10 s instead of ~1 s.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH_DIR))
from layertrace import COUNTS, LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "copies_per_s": "copies/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name in COUNTS:
        return COUNTS[name]
    if name == "trace.overhead_s":
        return "s"
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def run_child(args: list, deadline: float) -> dict:
    """Run worker.py with ``args`` and return the JSON of its last line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, **SINGLE_THREADED},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def tail_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (needs 11 samples, has {n})"
    pct = math.floor(100 * (n - 10) / n)
    return f"p{pct} = {sorted(samples)[n - 11]:.6g} s"


def environment(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 deadline: float) -> dict:
    workload = WORKLOADS[name].tiny() if tiny else WORKLOADS[name]
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    # Set-up samples are taken half before and half after the workload, so
    # that their median spans the run rather than one moment of it.
    n_setup = 0 if trace else SETUP_SAMPLES
    setups = [run_child(common + ["--setup-only"], deadline) for _ in range(n_setup // 2)]
    raw = run_child(common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups += [run_child(common + ["--setup-only"], deadline)
               for _ in range(n_setup - n_setup // 2)]

    correct = raw["failed"] == 0 and raw.get("counts_repeat", True)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in raw["layers"].items()}
    else:
        wall = statistics.median(raw["norm_walls"])
        values = {
            "wall_s": wall,
            "copies_per_s": workload.copies() / wall,
            "setup_s": statistics.median(s["norm_setup_s"] for s in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "workload": name,
        "why": workload.why,
        "resolved": workload.resolved(),
        "environment": environment(seed, raw["numpy"]),
        "trace": trace,
        "seconds": seconds,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "fail_frac": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
        "notices": raw.get("notices", []),
        "calibration": workload.calibration,
        "wall_samples_s": raw["walls"],
        "norm_wall_samples_s": raw["norm_walls"],
        "kernel_samples_s": raw["kernel_s"],
        "traced_wall_samples_s": raw["traced_walls"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "norm_setup_samples_s": [s["norm_setup_s"] for s in setups],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return record


def report(record: dict) -> None:
    r = record["resolved"]
    print(f"workload {record['workload']}: d={r['d']} N={r['N']} reps={r['reps']} "
          f"steps={r['steps']} -- {record['why']}")
    for note in record["notices"]:
        print(f"  notice: {note}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, m in record["metrics"].items():
        extra = ""
        if name == "wall_s":
            norm, samples = record["norm_wall_samples_s"], record["wall_samples_s"]
            extra = (f"  (median of {len(norm)} normalised passes, {tail_percentile(norm)}; "
                     f"measured: median {statistics.median(samples):.6g} s, "
                     f"fastest {min(samples):.6g} s)")
        elif name == "setup_s":
            samples = record["setup_samples_s"]
            extra = (f"  (median of {len(samples)} fresh processes, normalised; "
                     f"measured median {statistics.median(samples):.6g} s)")
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':40s} {record['fail_frac']:.6g} ratio"
          f"  ({record['failed']} failed of {record['attempted']} attempted)")
    env = record["environment"]
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to smoke-test size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wvtomo" / "__init__.py").is_file():
        print(f"error: no wvtomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny, deadline)
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
