"""The benchmark's workloads: the CLI calls each one makes, the inputs it
writes, the state copies it simulates and the checks its outputs must pass.

The dimension d and shot count N of each workload pick the layer that
dominates it (see each ``why``); they are fixed so that figures from different
commits compare.  ``tiny()`` shrinks a workload to a smoke-test size while
keeping every CLI call and check on the same code path.

This module imports only the standard library at load time, so that the
set-up time measured by ``worker.py`` starts before numpy is imported.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

# A sweep's empirical MSE must lie within this many standard errors of the
# exact oracle.  At seeds 1-3 the largest deviation seen was 2.8 sigma.
Z_LIMIT = 5.0
# The raw oracle and the raw closed form agree to machine precision.
ORACLE_THEORY_RTOL = 1e-9
# One reconstruct draw may miss by at most this multiple of the oracle MSE
# (measured ratios 0.69-1.33).
HS_LIMIT = 5.0
# Stream id of the benchmark's own state draw; far from the CLI's ids.
BENCH_STATE_STREAM = 2**34

SWEEP_COLUMNS = (
    "mse_raw_mean",
    "mse_raw_stderr",
    "mse_herm_mean",
    "mse_herm_stderr",
    "theory_raw",
    "theory_herm",
    "oracle_raw",
    "oracle_herm",
)

Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``check`` gets the captured standard output and
    returns a failure reason, or None; ``outputs`` are deleted before each
    call so that a stale file cannot pass for a fresh one."""

    name: str
    argv: list
    check: Check
    outputs: tuple = ()


def _read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def check_sweep(path: Path, axis: str, steps: int) -> Optional[str]:
    """Row and column counts, oracle vs closed form, and each empirical MSE
    within Z_LIMIT standard errors of its oracle."""
    try:
        header, rows = _read_csv(path)
    except (OSError, ValueError) as exc:
        return f"sweep CSV unreadable: {exc}"
    expected = (axis,) + SWEEP_COLUMNS
    missing = [c for c in expected if c not in header]
    if missing:
        return f"sweep CSV lacks columns {missing}"
    if len(rows) != steps:
        return f"sweep CSV has {len(rows)} rows, expected {steps}"
    col = {name: header.index(name) for name in expected}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return f"sweep row {i} has {len(row)} fields, header has {len(header)}"
        try:
            v = {name: float(row[k]) for name, k in col.items()}
        except ValueError:
            return f"sweep row {i} is not numeric: {row}"
        if not all(math.isfinite(x) for x in v.values()):
            return f"sweep row {i} is not finite: {row}"
        if abs(v["oracle_raw"] - v["theory_raw"]) > ORACLE_THEORY_RTOL * abs(v["theory_raw"]):
            return f"sweep row {i}: oracle_raw {v['oracle_raw']} != theory_raw {v['theory_raw']}"
        for kind in ("raw", "herm"):
            dev = abs(v[f"mse_{kind}_mean"] - v[f"oracle_{kind}"])
            if not dev <= Z_LIMIT * v[f"mse_{kind}_stderr"]:
                return (
                    f"sweep row {i}: mse_{kind}_mean is {dev:.3g} from the oracle, "
                    f"more than {Z_LIMIT:g} x stderr {v[f'mse_{kind}_stderr']:.3g}"
                )
    return None


@dataclass(frozen=True)
class Sweep:
    """``wvtomo sweep`` over g_R with a Haar-random pure state."""

    name: str
    why: str
    dim: int
    shots: int
    reps: int
    steps: int
    sweep_min: float = 0.6
    sweep_max: float = 2.4
    # Kernel of calibrate.py that measures the host speed next to each pass.
    calibration: str = "small"

    def resolved(self) -> dict:
        return {"d": self.dim, "N": self.shots, "reps": self.reps, "steps": self.steps}

    def copies(self) -> int:
        """State copies simulated in one pass: 2d configurations x N shots
        x reps repetitions x steps."""
        return 2 * self.dim * self.shots * self.reps * self.steps

    def tiny(self) -> "Sweep":
        return replace(self, shots=min(self.shots, 50), reps=min(self.reps, 10), steps=2)

    def build_inputs(self, seed: int, workdir: Path) -> dict:
        # The CLI draws the state itself from --seed; nothing to write.
        return {}

    def operations(self, seed: int, workdir: Path, inputs: dict) -> list:
        out = workdir / f"{self.name}.csv"
        argv = [
            "sweep",
            "--dim", str(self.dim),
            "--shots", str(self.shots),
            "--reps", str(self.reps),
            "--sweep-axis", "g_r",
            "--sweep-min", repr(self.sweep_min),
            "--sweep-max", repr(self.sweep_max),
            "--sweep-steps", str(self.steps),
            "--pure",
            "--seed", str(seed),
            "--out", str(out),
        ]
        return [Op("sweep", argv, lambda stdout: check_sweep(out, "g_r", self.steps), (out,))]


def _check_estimates(paths: tuple, dim: int, stdout: str, oracle: dict) -> Optional[str]:
    from wvtomo.errors import StateFileError
    from wvtomo.statefile import read_state_file

    for path in paths:
        try:
            shape = read_state_file(path).shape
        except StateFileError as exc:
            return f"estimate file unreadable: {exc}"
        if shape != (dim, dim):
            return f"{Path(path).name} holds a {shape} matrix, expected {(dim, dim)}"
    for kind in ("raw", "herm"):
        found = re.search(rf"^hs_sq_{kind} = (\S+)$", stdout, re.MULTILINE)
        if found is None:
            return f"reconstruct printed no hs_sq_{kind}"
        try:
            hs = float(found.group(1))
        except ValueError:
            return f"hs_sq_{kind} is not numeric: {found.group(1)!r}"
        if not 0.0 <= hs <= HS_LIMIT * oracle[kind]:
            return f"hs_sq_{kind} = {hs:.4g} exceeds {HS_LIMIT:g} x oracle MSE {oracle[kind]:.4g}"
    return None


def _check_compare(path: Path, rows_expected: int) -> Optional[str]:
    try:
        header, rows = _read_csv(path)
    except (OSError, ValueError) as exc:
        return f"compare CSV unreadable: {exc}"
    if len(rows) != rows_expected:
        return f"compare CSV has {len(rows)} rows, expected {rows_expected}"
    if any(len(row) != len(header) for row in rows):
        return "compare CSV has a row whose length differs from the header"
    return None


@dataclass(frozen=True)
class Oneshot:
    """One ``reconstruct`` of a benchmark-written mixed state at large N,
    then ``compare`` and ``selfcheck``."""

    name: str
    why: str
    dim: int
    rank: int
    shots: int
    dim_min: int = 2
    dim_max: int = 32
    # reconstruct, one draw of 2dN uniforms, takes 98% of a pass.
    calibration: str = "stream"

    def resolved(self) -> dict:
        return {"d": self.dim, "N": self.shots, "reps": 1, "steps": None}

    def copies(self) -> int:
        """Only reconstruct simulates copies: 2d configurations x N shots."""
        return 2 * self.dim * self.shots

    def tiny(self) -> "Oneshot":
        return replace(self, shots=10_000, dim_max=6)

    def build_inputs(self, seed: int, workdir: Path) -> dict:
        from wvtomo.qmath import random_mixed
        from wvtomo.rng import RandomStream
        from wvtomo.statefile import write_state_file

        rho = random_mixed(self.dim, self.rank, RandomStream(seed, BENCH_STATE_STREAM))
        state_path = workdir / f"{self.name}_true.state"
        write_state_file(state_path, rho.matrix)
        return {"rho": rho, "state_path": state_path}

    def operations(self, seed: int, workdir: Path, inputs: dict) -> list:
        from wvtomo.montecarlo import exact_mse_oracle
        from wvtomo.theory import optimal_strengths

        rho = inputs["rho"]
        strengths = optimal_strengths(self.dim)
        oracle = {
            "raw": exact_mse_oracle(rho, strengths, self.shots),
            "herm": exact_mse_oracle(rho, strengths, self.shots, hermitized=True),
        }
        prefix = workdir / f"{self.name}_est"
        estimates = (Path(f"{prefix}_raw.state"), Path(f"{prefix}_herm.state"))
        table = workdir / f"{self.name}_compare.csv"
        return [
            Op(
                "reconstruct",
                ["reconstruct", "--state-file", str(inputs["state_path"]), "--optimal",
                 "--shots", str(self.shots), "--seed", str(seed), "--out", str(prefix)],
                lambda stdout: _check_estimates(estimates, self.dim, stdout, oracle),
                estimates,
            ),
            Op(
                "compare",
                ["compare", "--dim-min", str(self.dim_min), "--dim-max", str(self.dim_max),
                 "--seed", str(seed), "--out", str(table)],
                lambda stdout: _check_compare(table, self.dim_max - self.dim_min + 1),
                (table,),
            ),
            Op("selfcheck", ["selfcheck", "--seed", str(seed)], lambda stdout: None),
        ]


# Repetitions and sweep steps are cut from the sizes first proposed for
# these workloads (desk: reps 1000, the CLI default; highdim: 5 steps) so
# that one sweep pass takes about a second and a 25 s run holds about 20.
# Per-repetition and per-step costs are unchanged, so each workload keeps
# its dominant layer.  A fourth sweep at d=5, N=1e4 was left out so that
# three workloads can each run long enough to be steady on a shared host;
# the O(N) sampler it isolated dominates oneshot (and is half of desk).
WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "desk",
            "CLI-default sweep sizes (d=5, N=100, 19 steps): per-repetition overhead of "
            "sampling, streams and reconstruction dominates",
            dim=5, shots=100, reps=200, steps=19,
        ),
        Sweep(
            "highdim",
            "d=32, N=10 sweep: the 2d x 2d Kronecker forward model, outcome table and "
            "oracle dominate; sampling is negligible",
            dim=32, shots=10, reps=20, steps=2,
        ),
        Oneshot(
            "oneshot",
            "reconstruct at N=1e7 then compare and selfcheck: one huge draw dominates, memory "
            "grows with N; state files, theory and the exact weak values",
            dim=5, rank=5, shots=10_000_000,
        ),
    )
}
