"""Smoke test of the benchmark itself, at tiny sizes on the same code path.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    return "\n".join(text), json.loads(last)


def test_spec_names_the_benchmark_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_prints_every_metric_with_its_unit(name, trace):
    text, result = run_bench(name, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b", text, re.M)
    assert re.search(r"^\s+fail_frac\s+0 ratio", text, re.M)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace and name != "oneshot":
        # Every sampled shot is one uniform draw, and a pass simulates
        # exactly the workload's copies.
        shots = result["metrics"]["montecarlo.sample.shots"]["value"]
        assert shots == result["metrics"]["rng.draws"]["value"] == WORKLOADS[name].tiny().copies()


def test_exact_counts_repeat_across_runs():
    def exact(result):
        return {k: m["value"] for k, m in result["metrics"].items()
                if not k.endswith(("_s", ".share"))}

    first, second = (run_bench("oneshot", 1)[1] for _ in range(2))
    assert exact(first) == exact(second)
    assert exact(first)["statefile.bytes"] > 0


@pytest.fixture
def desk(tmp_path):
    wl = WORKLOADS["desk"].tiny()
    cli, inputs, _ = worker.set_up(wl, 3, tmp_path)
    return cli, wl.operations(3, tmp_path, inputs)


def _drop_last_row(path: Path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _inflate_mse(path: Path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    col = header.index("mse_raw_mean")
    for row in rows:
        row[col] = repr(10 * float(row[col]))
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


@pytest.mark.parametrize("corrupt, reason", [
    (_drop_last_row, "rows, expected"),
    (_inflate_mse, "x stderr"),
])
def test_corrupted_output_is_counted_as_failed(desk, corrupt, reason):
    cli, ops = desk

    class CorruptingCli:
        @staticmethod
        def main(argv):
            code = cli.main(argv)
            corrupt(Path(argv[argv.index("--out") + 1]))
            return code

    result = worker.measure(CorruptingCli, ops, seconds=0.0, calibration="small")
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert all(reason in f for f in result["failures"])


def test_nonzero_exit_is_counted_as_failed(desk):
    cli, ops = desk

    class FailingCli:
        @staticmethod
        def main(argv):
            cli.main(argv)
            return 4

    result = worker.measure(FailingCli, ops, seconds=0.0, calibration="small")
    assert result["failed"] == result["attempted"] >= 1
    assert all("exit code 4" in f for f in result["failures"])


def test_passes_are_normalised_by_the_kernel_runs_beside_them(desk):
    cli, ops = desk
    result = worker.measure(cli, ops, seconds=0.0, calibration="small")
    walls, kernels, norm = result["walls"], result["kernel_s"], result["norm_walls"]
    assert len(kernels) == len(walls) + 1 == len(norm) + 1
    for i, wall in enumerate(walls):
        speed = REFERENCE_S["small"] / ((kernels[i] + kernels[i + 1]) / 2)
        assert norm[i] == pytest.approx(wall * speed)


def test_missing_traced_name_reports_zero_calls(desk, tmp_path):
    cli, _ = desk
    from wvtomo import montecarlo

    original = montecarlo.sample_shots
    tracer = Tracer(
        layers={"cli": ["cli:main"], "sample": ["montecarlo:sample_shots"],
                "gone": ["montecarlo:no_such_function"]},
        counters={},
    )
    assert any("no_such_function" in note for note in tracer.notices)
    with tracer:
        assert montecarlo.sample_shots is not original
        cli.main(["sweep", "--reps", "2", "--sweep-steps", "2", "--out", str(tmp_path / "s.csv")])
    assert montecarlo.sample_shots is original
    stats = tracer.take(1.0)
    assert stats["gone.calls"] == 0
    assert stats["cli.calls"] == 1
    assert stats["sample.calls"] == 2 * 2 * 5 * 2
    assert stats["cli.self_s"] > 0
