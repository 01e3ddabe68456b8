"""Command-line harness: CSV outputs, config resolution, exit codes,
determinism, and the statistical agreement of simulated sweeps."""

import errno
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wvtomo
from wvtomo import RandomStream, random_mixed, read_state_file, validate_density, write_state_file
from wvtomo import cli, montecarlo, selfcheck, theory
from wvtomo.cli import main

SEED = 20240814  # statistical bounds below rehearsed once at this seed


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(out):
    lines = out.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_pinned(produced: bytes, pin: str) -> None:
    """sha256 of the produced output against its pin.  A mismatch shows the output itself,
    so that a re-taken pin can be reviewed line by line."""
    digest = hashlib.sha256(produced).hexdigest()
    assert digest == pin, f"sha256 {digest} is not the pin {pin}; produced:\n{produced.decode()}"


# ---------------------------------------------------------------- sweep


def test_sweep_shape_and_header(capsys):
    rc, out, _ = _run(capsys, [
        "sweep", "--dim", "2", "--shots", "10", "--reps", "2",
        "--seed", "7", "--sweep-steps", "2",
    ])
    assert rc == 0
    header, rows = _rows(out)
    assert header == [
        "g_r", "mse_raw_mean", "mse_raw_stderr", "mse_herm_mean", "mse_herm_stderr",
        "theory_raw", "theory_herm", "oracle_raw", "oracle_herm",
    ]
    assert len(rows) == 2
    assert float(rows[0][0]) == 0.6 and float(rows[1][0]) == 2.4


def test_sweep_axis_gi(capsys):
    rc, out, _ = _run(capsys, [
        "sweep", "--dim", "2", "--shots", "10", "--reps", "2", "--seed", "7",
        "--sweep-axis", "g_i", "--sweep-min", "1.0", "--sweep-max", "2.0",
        "--sweep-steps", "3",
    ])
    assert rc == 0
    header, rows = _rows(out)
    assert header[0] == "g_i"
    assert [float(r[0]) for r in rows] == [1.0, 1.5, 2.0]


def test_sweep_deterministic_bytes(tmp_path):
    args = [
        "sweep", "--dim", "3", "--shots", "25", "--reps", "5",
        "--seed", "11", "--sweep-steps", "3", "--mixed-rank", "2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"g_r,")


def test_sweep_bytes_are_pinned(tmp_path):
    # The sampled numbers of a small sweep, fixed on numpy 2.4.6 (the R rows of every
    # repetition of a step drawn in order from the Philox stream (seed, 0), the I rows
    # from its twin):
    # a change that moves any drawn count or any digit of the estimator, theory
    # or oracle columns fails here, not only in review.
    out = tmp_path / "pin.csv"
    assert main([
        "sweep", "--dim", "3", "--shots", "20", "--reps", "5", "--sweep-steps", "3",
        "--seed", "1", "--out", str(out),
    ]) == 0
    _assert_pinned(out.read_bytes(), "ec13d1037997678a2ba4072d9cf1d3d9df2915330bbcfeba3c27e8dbd76129e1")


def test_sweep_bytes_across_batches_are_pinned(tmp_path):
    # At d=32 a batch holds six repetitions, so these five fit in one and the second step
    # reads the I sums of the first; the digest is that of the same sweep with every
    # repetition drawn and estimated on its own, and
    # test_sweep_bytes_do_not_depend_on_the_batch_size checks the split across batches.
    # N=10 is below the 64 categories of a row, so the rows are drawn shot by shot.
    out = tmp_path / "pin.csv"
    assert main([
        "sweep", "--dim", "32", "--shots", "10", "--reps", "5", "--sweep-steps", "2",
        "--seed", "1", "--out", str(out),
    ]) == 0
    _assert_pinned(out.read_bytes(), "cd485d4042d2aa6802d96a1e7147a31d1339b208c2474b0efbdaf612b0e2ad56")


@pytest.mark.parametrize("d, n_shots, one_batch", [
    (32, 10, False), (5, 100, False), (32, 10, True), (5, 100, True),
], ids=["per-shot", "multinomial", "per-shot-one-batch", "multinomial-one-batch"])
def test_sweep_bytes_do_not_depend_on_the_batch_size(tmp_path, monkeypatch, d, n_shots,
                                                     one_batch):
    # Two full batches and a partial one, or one full batch, against one repetition per
    # batch: the same streams are drawn in the same order, so every byte of the CSV must
    # agree.  A one-batch run reads the unswept quadrature's sums from its first step, the
    # run of one repetition per batch draws them again at every step.
    batch = montecarlo.BATCH_ELEMENTS // d**2
    reps = batch if one_batch else 2 * batch + 3
    args = ["sweep", "--dim", str(d), "--shots", str(n_shots), "--reps", str(reps),
            "--sweep-steps", "2", "--seed", "1", "--out"]
    batched, single = tmp_path / "batched.csv", tmp_path / "single.csv"
    assert main(args + [str(batched)]) == 0
    monkeypatch.setattr(montecarlo, "BATCH_ELEMENTS", d**2)
    assert main(args + [str(single)]) == 0
    assert batched.read_bytes() == single.read_bytes()


def test_sweep_rows_match_oracle(capsys):
    # rehearsed with the I rows on the stream's twin: worst |mean - oracle| is 0.78 stderr
    # over these 4 rows
    rc, out, _ = _run(capsys, [
        "sweep", "--dim", "3", "--shots", "50", "--reps", "200",
        "--seed", str(SEED), "--mixed-rank", "3",
        "--sweep-min", "0.8", "--sweep-max", "2.0", "--sweep-steps", "4",
    ])
    assert rc == 0
    _, rows = _rows(out)
    assert len(rows) == 4
    for row in rows:
        _, raw_m, raw_se, herm_m, herm_se, _, _, o_raw, o_herm = map(float, row)
        assert abs(raw_m - o_raw) < 3.0 * raw_se
        assert abs(herm_m - o_herm) < 3.0 * herm_se


def test_each_sweep_step_builds_one_outcome_table(monkeypatch, capsys):
    # One features pass per sweep, the law of the unswept quadrature once, the swept one
    # and one table at every step, and every step's table holds the unswept law itself, not
    # a copy; the table a step samples also feeds that step's oracle columns, so they equal
    # exact_mse_oracle at the step's strengths to the last bit.
    calls = {name: [] for name in ("_features", "_quadrature_law", "OutcomeTable", "run_sweep")}
    for module, name in [(montecarlo, "_features"), (montecarlo, "_quadrature_law"),
                         (montecarlo, "OutcomeTable"), (cli, "run_sweep")]:
        def counted(*args, real=getattr(module, name), log=calls[name]):
            log.append((args, real(*args)))
            return log[-1][1]

        monkeypatch.setattr(module, name, counted)
    rc, _, _ = _run(capsys, ["sweep", "--dim", "3", "--reps", "2", "--sweep-steps", "3"])
    monkeypatch.undo()
    assert rc == 0
    assert len(calls["_features"]) == 1 and len(calls["OutcomeTable"]) == 3
    tables = [table for _, table in calls["OutcomeTable"]]
    assert all(table.laws[1] is tables[0].laws[1] for table in tables)
    (rho, steps, shots, *_), reports = calls["run_sweep"][0]
    assert [args[1:] for args, _ in calls["_quadrature_law"]] == (
        [("R", steps[0].g_r), ("I", steps[0].g_i)] + [("R", s.g_r) for s in steps[1:]])
    assert len({s.g_r for s in steps}) == 3 and len({s.g_i for s in steps}) == 1
    for strengths, report in zip(steps, reports, strict=True):
        assert report.oracle_raw == montecarlo.exact_mse_oracle(rho, strengths, shots)
        assert report.oracle_herm == montecarlo.exact_mse_oracle(rho, strengths, shots, True)


def test_sweep_theory_minimum_near_optimum(capsys):
    from wvtomo import optimal_strengths

    rc, out, _ = _run(capsys, [
        "sweep", "--dim", "5", "--shots", "100", "--reps", "2", "--seed", "3",
    ])
    assert rc == 0
    _, rows = _rows(out)
    assert len(rows) == 19  # default grid 0.6..2.4
    grid = np.array([float(r[0]) for r in rows])
    theory = np.array([float(r[5]) for r in rows])
    best = grid[int(np.argmin(theory))]
    assert abs(best - optimal_strengths(5).g_r) < 0.1 + 1e-9  # within one grid spacing


def test_sweep_manifest_and_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 3, "shots": 7, "reps": 2, "sweep_steps": 2}))
    manifest = tmp_path / "run.manifest"
    rc, _, _ = _run(capsys, [
        "sweep", "--config", str(cfg), "--shots", "9",
        "--seed", "5", "--manifest", str(manifest),
    ])
    assert rc == 0
    text = manifest.read_text()
    assert "shots = 9\n" in text        # flag beats config file
    assert "dim = 3\n" in text          # config beats built-in default
    assert "state_source = pure-random\n" in text
    assert "purity = " in text


ONE_STATE = ["fixed_g_r", "fixed_g_i", "state_source", "purity", "purity_re", "purity_im"]
# (subcommand, its flags, the config file, the derived keys that close its manifest)
MANIFEST_RUNS = [
    ("sweep", {"shots": 9, "g_r": 1.0, "sweep_axis": "g_i", "out": "o.csv"},
     {"dim": 3, "reps": 2, "sweep_steps": 2, "seed": 5, "mixed_rank": 2, "shots": 4}, ONE_STATE),
    ("compare", {"mixed_rank": 2, "dim_max": 3}, {"seed": 3}, ["purity_d2", "purity_d3"]),
    ("compare", {"pure": True, "out": "o.csv"}, {"dim_max": 3}, ["purity_d2", "purity_d3"]),
    ("compare", {"state_file": "in.state"}, {"dim_max": 2}, ["purity_d2"]),
    ("reconstruct", {"state_file": "in.state", "shots": 20, "optimal": True, "out": "est"},
     {"seed": 4, "dim": 7}, ["dim", *ONE_STATE]),
]


@pytest.mark.parametrize("command, flags, config, derived", MANIFEST_RUNS,
                         ids=["sweep", "compare-mixed", "compare-pure", "compare-file",
                              "reconstruct"])
def test_a_manifest_lists_every_option_of_its_subcommand(tmp_path, monkeypatch, capsys, command,
                                                         flags, config, derived):
    # command and config, then each option the subcommand takes as resolved, in build_parser's
    # order, then what the run derived; no key twice
    monkeypatch.chdir(tmp_path)
    write_state_file("in.state", random_mixed(2, 2, RandomStream(SEED, 61)).matrix)
    Path("cfg.json").write_text(json.dumps(config))
    flags = {**flags, "manifest": "run.manifest"}
    argv = [command, "--config", "cfg.json"]
    for key, val in flags.items():
        argv += ["--" + key.replace("_", "-")] + ([] if val is True else [str(val)])
    rc, _, err = _run(capsys, argv)
    assert rc == 0, err
    entries = [line.split(" = ", 1) for line in Path("run.manifest").read_text().splitlines()]
    keys = [key for key, _ in entries]
    options = list(cli.build_parser().parse_args([command]).keys)
    assert keys == ["command", "config", *options, *derived]
    resolved = {**cli.DEFAULTS, **config, **flags, "command": command, "config": "cfg.json"}
    head = keys[:-len(derived)]
    assert entries[:len(head)] == [[key, cli._fmt(resolved[key])] for key in head]
    # each source shows: a flag, a config value no flag overrides, and a default
    assert set(config) & set(options) - set(flags)
    assert set(options) - set(flags) - set(config)


def test_a_manifest_value_holding_a_newline_stays_on_its_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name = "a\nb.state"
    write_state_file(name, random_mixed(2, 2, RandomStream(SEED, 61)).matrix)
    rc, _, err = _run(capsys, ["reconstruct", "--state-file", name, "--out", "est",
                               "--manifest", "run.manifest"])
    assert rc == 0, err
    entries = [line.split(" = ", 1) for line in Path("run.manifest").read_text().splitlines()]
    assert all(len(entry) == 2 for entry in entries), entries
    entries = dict(entries)
    assert entries["state_file"] == repr(name)
    assert entries["state_source"] == repr("file:" + name)


@pytest.mark.parametrize("lo, hi", [("1.5", "3.5"), ("2", "1"), ("-1", "1"), ("0.6", "inf")])
def test_sweep_rejects_bad_range(capsys, lo, hi):
    rc, _, err = _run(capsys, ["sweep", "--sweep-min", lo, "--sweep-max", hi])
    assert rc == 2
    assert "config error" in err


def test_sweep_fixed_strength_on_the_swept_axis_yields(tmp_path):
    # the swept value replaces a fixed --g-r on the g_r axis, step by step
    args = ["sweep", "--reps", "20", "--sweep-steps", "3", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--g-r", "1.0", "--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "values",
    [{"seed": "x"}, {"sweep_min": "abc"}, {"g_r": [1]}, {"shots": 1.5}, {"optimal": "no"}],
)
def test_config_values_of_the_wrong_type(tmp_path, capsys, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    rc, out, err = _run(capsys, ["sweep", "--config", str(cfg), "--reps", "2", "--sweep-steps", "2"])
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert out == ""


SEED_COMMANDS = [
    ["sweep", "--reps", "2", "--sweep-steps", "2", "--out", "o.csv", "--manifest", "m"],
    ["compare", "--out", "o.csv", "--manifest", "m"],
    ["reconstruct", "--state-file", "in.state", "--out", "rec", "--manifest", "m"],
    ["selfcheck"],
]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1], ids=["minus-one", "two-to-64", "past-64"])
@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("argv", SEED_COMMANDS, ids=[argv[0] for argv in SEED_COMMANDS])
def test_a_seed_outside_64_bits_is_a_config_error(tmp_path, monkeypatch, capsys, argv, where, seed):
    # a seed is one 64-bit word of a Philox key: wrapped, 1 and 2**64 + 1 would draw alike
    monkeypatch.chdir(tmp_path)
    write_state_file("in.state", random_mixed(2, 1, RandomStream(SEED, 60)).matrix)
    if where == "flag":
        argv = argv + ["--seed", str(seed)]
    else:
        Path("cfg.json").write_text(json.dumps({"seed": seed}))
        argv = argv + ["--config", "cfg.json"]
    before = sorted(tmp_path.iterdir())
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == ""
    assert "config error: --seed must be in [0, 2**64)" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["compare", "--dim-max", "3"],
    ["sweep", "--dim", "2", "--shots", "5", "--reps", "2", "--sweep-steps", "2"],
], ids=["compare", "sweep"])
def test_the_largest_seed_is_accepted(capsys, argv):
    rc, out, _ = _run(capsys, argv + ["--seed", str(2**64 - 1)])
    assert rc == 0
    assert len(_rows(out)[1]) == 2


@pytest.mark.parametrize("text, argv, code, message", [
    (None, ["--config", "{cfg}"], 3, "input error: cannot read config file {cfg}"),
    ("{", ["--config", "{cfg}"], 3, "input error: config file {cfg} is not valid JSON"),
    ("[" * 10**4 + "]" * 10**4, ["--config", "{cfg}"], 3,
     "input error: config file {cfg} is not valid JSON: maximum recursion depth exceeded"),
    ("[]", ["--config", "{cfg}"], 2, "config error: config file {cfg} must hold a JSON object"),
    ('{"dim": null}', ["--config", "{cfg}"], 2,
     "config error: config file {cfg}: 'dim' has the wrong type: None"),
    (None, ["--sweep-axis", "g_x"], 2, "config error: --sweep-axis must be g_r or g_i, got 'g_x'"),
    # json.loads raises a plain ValueError for an integer past Python's 4,300-digit limit
    ('{"dim": ' + "1" * 5000 + "}", ["--config", "{cfg}"], 3,
     "input error: config file {cfg} is not valid JSON: Exceeds the limit (4300 digits)"),
], ids=["config-missing", "config-not-json", "config-too-deep", "config-array",
        "config-null-dim", "axis", "config-too-many-digits"])
def test_config_and_axis_errors_exit_without_a_traceback(tmp_path, capsys, text, argv, code,
                                                         message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    argv = ["sweep", "--reps", "2", "--sweep-steps", "2", *(a.format(cfg=cfg) for a in argv)]
    rc, out, err = _run(capsys, argv)
    assert rc == code and out == ""
    assert message.format(cfg=cfg) in err and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["reconstruct"], ["sweep", "--reps", "2", "--sweep-steps", "2"]],
                         ids=["reconstruct", "sweep"])
def test_a_state_file_declaring_a_huge_dimension_exits_3(tmp_path, monkeypatch, capsys, argv):
    # 10**5 rows of one entry each pass the row count; a 10**5 x 10**5 complex array would
    # take 149 GiB, so the first short row must be reported before anything is allocated
    monkeypatch.chdir(tmp_path)
    Path("big.state").write_text("100000\n" + "1,0\n" * 100000)
    rc, out, err = _run(capsys, [*argv, "--state-file", "big.state"])
    assert rc == 3 and out == ""
    assert err == "input error: big.state: line 2: expected 100000 entries, got 1\n"


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shotz": 5}))
    rc, _, err = _run(capsys, ["sweep", "--config", str(cfg)])
    assert rc == 2
    assert "shotz" in err


def test_conflicting_state_flags(capsys):
    rc, _, err = _run(capsys, ["sweep", "--pure", "--mixed-rank", "2", "--reps", "2"])
    assert rc == 2
    assert "mutually exclusive" in err


def test_optimal_conflicts_with_explicit_strengths(capsys):
    rc, _, err = _run(capsys, ["sweep", "--optimal", "--g-i", "1.0", "--reps", "2"])
    assert rc == 2


def test_mixed_rank_above_dim(capsys):
    rc, _, err = _run(capsys, ["sweep", "--dim", "3", "--mixed-rank", "4", "--reps", "2"])
    assert rc == 2


# ---------------------------------------------------------------- compare


def test_compare_reference_values_and_orderings(capsys):
    rc, out, _ = _run(capsys, ["compare", "--seed", "9"])
    assert rc == 0
    header, rows = _rows(out)
    assert header == [
        "dim", "raw_per_shot", "hermitized_per_shot_approx", "hermitized_per_shot_exact",
        "per_copy_approx", "mub", "sic",
    ]
    assert [int(r[0]) for r in rows] == list(range(2, 11))
    for row in rows:
        _, raw, herm_a, herm_e, copy, mub, sic = map(float, row)
        assert herm_a < mub and herm_a < sic
        assert copy > mub and copy > sic
        assert herm_e < raw
    d5 = dict(zip(header, map(float, rows[3])))
    assert abs(d5["mub"] - 24.0) < 1e-9    # pure state baselines
    assert abs(d5["sic"] - 28.0) < 1e-9


def test_compare_single_dimension_from_file(tmp_path, capsys):
    rho = random_mixed(3, 2, RandomStream(SEED, 40))
    state = tmp_path / "in.state"
    write_state_file(state, rho.matrix)
    rc, out, _ = _run(capsys, [
        "compare", "--state-file", str(state), "--dim-min", "3", "--dim-max", "3",
    ])
    assert rc == 0
    _, rows = _rows(out)
    assert len(rows) == 1 and rows[0][0] == "3"


def test_compare_state_file_needs_fixed_dimension(tmp_path, capsys):
    rho = random_mixed(3, 2, RandomStream(SEED, 41))
    state = tmp_path / "in.state"
    write_state_file(state, rho.matrix)
    rc, _, err = _run(capsys, ["compare", "--state-file", str(state)])
    assert rc == 2


def test_compare_rejects_inverted_range(capsys):
    rc, _, _ = _run(capsys, ["compare", "--dim-min", "6", "--dim-max", "3"])
    assert rc == 2


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_round_trip_and_quality(tmp_path, capsys):
    # rehearsed with the I rows on the stream's twin: hs_sq_herm = 1.4e-6 at one million
    # shots, bound 1e-3
    rho = random_mixed(2, 2, RandomStream(SEED, 13))
    state = tmp_path / "in.state"
    write_state_file(state, rho.matrix)
    out = tmp_path / "rec"
    rc, text, _ = _run(capsys, [
        "reconstruct", "--state-file", str(state), "--shots", "1000000",
        "--seed", str(SEED), "--out", str(out),
    ])
    assert rc == 0
    printed = dict(
        line.split(" = ") for line in text.strip().splitlines() if " = " in line
    )
    herm = read_state_file(f"{out}_herm.state")
    raw = read_state_file(f"{out}_raw.state")
    hs_herm = float(np.sum(np.abs(herm - rho.matrix) ** 2))
    assert hs_herm < 1e-3
    assert abs(hs_herm - float(printed["hs_sq_herm"])) < 1e-12
    assert np.max(np.abs(herm - (raw + raw.conj().T) / 2)) < 1e-15


def test_reconstruct_deterministic(tmp_path, capsys):
    rho = random_mixed(3, 1, RandomStream(SEED, 42))
    state = tmp_path / "in.state"
    write_state_file(state, rho.matrix)
    outs = []
    for name in ("r1", "r2"):
        rc, _, _ = _run(capsys, [
            "reconstruct", "--state-file", str(state), "--shots", "200",
            "--seed", "77", "--out", str(tmp_path / name),
        ])
        assert rc == 0
        outs.append((tmp_path / f"{name}_raw.state").read_bytes())
    assert outs[0] == outs[1]


def test_reconstruct_bytes_are_pinned(tmp_path, capsys):
    # One experiment drawn from the stream (seed, 2**33) and its twin, fixed on numpy 2.4.6:
    # a change to how a stream draws its repetitions must leave these bytes.
    state = tmp_path / "in.state"
    write_state_file(state, random_mixed(3, 2, RandomStream(SEED, 47)).matrix)
    out = tmp_path / "rec"
    rc, _, _ = _run(capsys, [
        "reconstruct", "--state-file", str(state), "--shots", "20", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 0
    files = b"".join(Path(f"{out}_{kind}.state").read_bytes() for kind in ("raw", "herm", "phys"))
    _assert_pinned(files, "f4d689a922dceb380c79f23aa11211c3ce47d2935dbeca7eedd5256aa78c9a74")


def test_reconstruct_physical_estimate_reads_back(tmp_path, capsys):
    # at d=3, N=20 the raw and hermitized estimates are not states (trace off,
    # negative eigenvalues); <out>_phys.state is, so the tool can read it back
    rho = random_mixed(3, 2, RandomStream(SEED, 46))
    state = tmp_path / "in.state"
    write_state_file(state, rho.matrix)
    out = tmp_path / "rec"
    rc, text, _ = _run(capsys, [
        "reconstruct", "--state-file", str(state), "--shots", "20",
        "--seed", str(SEED), "--out", str(out),
    ])
    assert rc == 0
    printed = dict(line.split(" = ") for line in text.strip().splitlines() if " = " in line)
    phys = read_state_file(f"{out}_phys.state")
    validate_density(phys)
    assert abs(float(np.sum(np.abs(phys - rho.matrix) ** 2)) - float(printed["hs_sq_phys"])) < 1e-12
    rc, _, err = _run(capsys, [
        "reconstruct", "--state-file", f"{out}_phys.state", "--shots", "20",
        "--out", str(tmp_path / "again"),
    ])
    assert rc == 0, err


@pytest.mark.parametrize("argv", [
    ["sweep", "--reps", "2", "--out", "{missing}/x.csv"],
    ["sweep", "--reps", "2", "--manifest", "{missing}/run.manifest"],
    ["compare", "--out", "{missing}/x.csv"],
    ["reconstruct", "--state-file", "{state}", "--out", "{missing}/rec"],
    ["reconstruct", "--state-file", "{state}", "--manifest", "{missing}/run.manifest"],
    ["sweep", "--reps", "2", "--out", "{file}/x.csv"],
    ["compare", "--manifest", "{file}/x.csv"],
    ["reconstruct", "--state-file", "{state}", "--out", "{file}/x.csv"],
])
def test_unwritable_output_rejected_before_computing(tmp_path, capsys, argv):
    # the directory "missing" does not exist and "in.state" is a regular file, not a
    # directory; nothing may be computed or written
    state = tmp_path / "in.state"
    write_state_file(state, random_mixed(2, 2, RandomStream(SEED, 44)).matrix)
    argv = [a.format(missing=tmp_path / "missing", file=state, state=state) for a in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert "config error" in err and ("missing" in err or "in.state" in err)
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.state"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--reps", "2", "--sweep-steps", "2", "--out", "{long}.csv"],
    ["compare", "--manifest", "{long}.manifest"],
    ["reconstruct", "--state-file", "{state}", "--out", "{long}"],
], ids=["sweep-out", "compare-manifest", "reconstruct-out"])
def test_an_over_long_output_name_is_a_config_error(tmp_path, capsys, argv):
    # a name past the filesystem's limit fails the CLI's path probes with OSError;
    # the CLI reports it before any work and writes nothing
    state = tmp_path / "in.state"
    write_state_file(state, random_mixed(2, 2, RandomStream(SEED, 44)).matrix)
    long = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
    rc, out, err = _run(capsys, [a.format(long=long, state=state) for a in argv])
    assert rc == 2 and out == ""
    assert "config error: cannot write" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.state"]


@pytest.mark.parametrize("how", ["symlink-loop", "nul-in-config"])
@pytest.mark.parametrize("key, code, message", [
    ("out", 2, "config error: cannot write "),
    ("manifest", 2, "config error: cannot write "),
    ("state_file", 3, "input error: cannot read "),
], ids=["out", "manifest", "state-file"])
def test_a_path_the_os_cannot_resolve_exits_with_its_code(tmp_path, monkeypatch, capsys, how,
                                                          key, code, message):
    # a symlink loop makes Path.resolve raise RuntimeError, a NUL byte makes os calls raise
    # ValueError; either is an unusable output or input file, reported before any work
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--reps", "2", "--sweep-steps", "2"]
    if how == "symlink-loop":
        os.symlink("loop", "loop")
        argv += ["--" + key.replace("_", "-"), "loop"]
    else:
        Path("cfg.json").write_text(json.dumps({key: "a\x00b"}))
        argv += ["--config", "cfg.json"]
    before = sorted(os.listdir())
    monkeypatch.setattr(cli, "run_sweep", lambda *args: pytest.fail("the sweep ran"))
    rc, out, err = _run(capsys, argv)
    assert rc == code and out == ""
    assert err.startswith(message) and "Traceback" not in err
    if how == "nul-in-config":
        assert "\x00" not in err  # the name is shown as its repr
    assert sorted(os.listdir()) == before


def test_a_read_only_output_file_is_rejected_before_computing(tmp_path, monkeypatch, capsys):
    # root ignores file modes, so the access probe is stubbed to call the file read-only
    target = tmp_path / "o.csv"
    target.write_text("kept\n")
    access = os.access
    monkeypatch.setattr(cli.os, "access", lambda p, mode: Path(p) != target and access(p, mode))
    monkeypatch.setattr(cli, "run_sweep", lambda *args: pytest.fail("the sweep ran"))
    rc, out, err = _run(capsys, ["sweep", "--reps", "2", "--sweep-steps", "2", "--out", str(target)])
    assert rc == 2 and out == ""
    assert f"config error: cannot write {target}: the file is not writable" in err
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--reps", "2", "--out", "{d}/x.csv", "--manifest", "{d}/x.csv"],
    ["compare", "--out", "{d}/x.csv", "--manifest", "{d}/../{name}/x.csv"],
    ["reconstruct", "--state-file", "{state}", "--out", "{d}/est", "--manifest", "{d}/est_phys.state"],
    ["sweep", "--reps", "2", "--manifest", "-"],
])
def test_outputs_naming_the_same_file_rejected(tmp_path, capsys, argv):
    # the later output would overwrite the earlier; nothing may be computed or written
    state = tmp_path / "in.state"
    write_state_file(state, random_mixed(2, 2, RandomStream(SEED, 44)).matrix)
    argv = [a.format(d=tmp_path, name=tmp_path.name, state=state) for a in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert "config error" in err and "same file" in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.state"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--state-file", "{state}", "--dim", "2", "--reps", "2", "--out", "{state}"],
    ["sweep", "--state-file", "{state}", "--dim", "2", "--reps", "2", "--manifest", "{state}"],
    ["sweep", "--config", "{config}", "--reps", "2", "--out", "{d}/../{name}/run.json"],
    ["sweep", "--config", "{config}", "--reps", "2", "--manifest", "{config}"],
    ["compare", "--state-file", "{state}", "--dim-max", "2", "--out", "{state}"],
    ["compare", "--config", "{config}", "--manifest", "{config}"],
    ["reconstruct", "--state-file", "{d}/e_raw.state", "--out", "{d}/e"],
    ["reconstruct", "--state-file", "{state}", "--manifest", "{state}"],
    ["reconstruct", "--state-file", "{state}", "--config", "{d}/e_phys.state", "--out", "{d}/e"],
], ids=["sweep-out-state", "sweep-manifest-state", "sweep-out-config",
        "sweep-manifest-config", "compare-out-state", "compare-manifest-config",
        "reconstruct-out-state", "reconstruct-manifest-state", "reconstruct-out-config"])
def test_an_output_naming_an_input_is_rejected_before_computing(tmp_path, capsys, argv):
    # writing it would destroy the input; nothing may be computed or written
    matrix = random_mixed(2, 2, RandomStream(SEED, 44)).matrix
    for name in ("in.state", "e_raw.state"):
        write_state_file(tmp_path / name, matrix)
    for name in ("run.json", "e_phys.state"):
        (tmp_path / name).write_text(json.dumps({"seed": 5}))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = [a.format(d=tmp_path, name=tmp_path.name, state=tmp_path / "in.state",
                     config=tmp_path / "run.json") for a in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert "config error" in err and "would overwrite the --" in err
    assert out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("target, link, argv, message", [
    ("in.state", "e_raw.state", ["reconstruct", "--state-file", "in.state", "--out", "e"],
     "output e_raw.state would overwrite the --state-file input"),
    ("a.csv", "b.txt", ["sweep", "--reps", "2", "--out", "a.csv", "--manifest", "b.txt"],
     "two outputs name the same file b.txt"),
], ids=["reconstruct-output-links-its-input", "sweep-manifest-links-its-csv"])
def test_a_hard_link_is_the_file_it_links(tmp_path, monkeypatch, capsys, target, link, argv,
                                          message):
    # two hard links have different real paths but one inode: writing either writes both
    monkeypatch.chdir(tmp_path)
    write_state_file("in.state", random_mixed(2, 2, RandomStream(SEED, 44)).matrix)
    Path("a.csv").write_text("kept\n")
    os.link(target, link)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc, out, err = _run(capsys, argv)
    assert (rc, out, err) == (2, "", f"config error: {message}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_manifest_dash_is_stdout(tmp_path, monkeypatch, capsys):
    # '-' means stdout for the manifest as for --out; no file named '-' appears
    monkeypatch.chdir(tmp_path)
    rc, out, _ = _run(capsys, ["compare", "--dim-max", "3", "--out", "x.csv", "--manifest", "-"])
    assert rc == 0
    assert "command = compare\n" in out
    assert not (tmp_path / "-").exists()
    assert (tmp_path / "x.csv").read_text().startswith("dim,")


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("command, key", [
    ("sweep", "shots"), ("sweep", "reps"), ("reconstruct", "shots"),
])
def test_counts_beyond_int64_are_config_errors(tmp_path, capsys, route, command, key):
    # numpy cannot draw or size arrays with 2**63 or more; the CLI says so
    state = tmp_path / "in.state"
    write_state_file(state, random_mixed(2, 2, RandomStream(SEED, 47)).matrix)
    argv = [command, "--out", str(tmp_path / "o")]
    if command == "reconstruct":
        argv += ["--state-file", str(state)]
    if route == "flag":
        argv += ["--" + key, str(2**63)]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: 99999999999999999999}))
        argv += ["--config", str(config)]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("key, value", [
    ("reps", 2**63 - 1), ("reps", 10**14),
    ("sweep_steps", 2**63 - 1), ("sweep_steps", 10**14),
    ("dim", 2**63 - 1), ("dim", 10**7),
    ("dim_max", 2**63 - 1), ("dim_max", 10**7),
])
def test_counts_too_large_to_allocate_are_config_errors(tmp_path, capsys, key, value):
    # each value sizes an array of 1e14 or more elements, which no allocation
    # can hold, so the command must stop at once instead of failing in numpy
    # or running until memory runs out
    command = "compare" if key == "dim_max" else "sweep"
    start = time.monotonic()
    rc, out, err = _run(capsys, [
        command, "--" + key.replace("_", "-"), str(value),
        "--out", str(tmp_path / "o.csv"), "--manifest", str(tmp_path / "o.manifest"),
    ])
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    assert time.monotonic() - start < 1.0


def test_reconstruct_requires_state_file(capsys):
    rc, _, err = _run(capsys, ["reconstruct", "--shots", "10"])
    assert rc == 2
    assert "state-file" in err


def test_reconstruct_missing_file(capsys):
    rc, _, err = _run(capsys, ["reconstruct", "--state-file", "/nonexistent.state"])
    assert rc == 3


def test_reconstruct_malformed_file_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.state"
    bad.write_text("2\n1,0 0;0\n0,0 0,0\n")
    rc, _, err = _run(capsys, ["reconstruct", "--state-file", str(bad)])
    assert rc == 3
    assert "line 2" in err


@pytest.mark.parametrize("flag, command", [
    ("--state-file", ["reconstruct", "--shots", "10"]),
    ("--config", ["compare", "--dim-max", "3"]),
], ids=["reconstruct-state-file", "compare-config"])
def test_non_utf8_input_file_is_an_input_error(tmp_path, capsys, flag, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff2\n1,0 0,0\n0,0 0,0\n")
    rc, out, err = _run(capsys, [*command, flag, str(bad), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "not UTF-8" in err and "Traceback" not in err
    assert out == ""


def test_reconstruct_rejects_invalid_state(tmp_path, capsys):
    bad = tmp_path / "bad.state"
    bad.write_text("2\n1,0 0,0\n0,0 1,0\n")  # trace 2
    rc, _, err = _run(capsys, ["reconstruct", "--state-file", str(bad)])
    assert rc == 3


def test_state_file_dimension_must_match(tmp_path, capsys):
    rho = random_mixed(3, 2, RandomStream(SEED, 43))
    state = tmp_path / "in.state"
    write_state_file(state, rho.matrix)
    rc, _, err = _run(capsys, ["sweep", "--state-file", str(state), "--dim", "4", "--reps", "2"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--g-r", "3.5"],
    ["reconstruct", "--g-r", "1e-10"],
    ["sweep", "--g-i", "1e-10"],
    ["sweep", "--sweep-min", "1e-12", "--sweep-max", "1"],
])
def test_explicit_strength_out_of_range(tmp_path, capsys, argv):
    # a strength outside (0, pi) or at a singular end is a config value: exit 2, not 3
    if argv[0] == "reconstruct":
        state = tmp_path / "in.state"
        write_state_file(state, random_mixed(2, 2, RandomStream(SEED, 48)).matrix)
        argv = argv + ["--state-file", str(state), "--out", str(tmp_path / "rec")]
    rc, _, err = _run(capsys, argv)
    assert rc == 2
    assert "config error" in err


def test_a_bad_sweep_strength_exits_before_the_state_file_is_read(tmp_path, capsys):
    # the file holds one row of two: read first, it would exit 3 with its own error
    state = tmp_path / "short.state"
    state.write_text("2\n0.5,0 0.5,0\n")
    rc, out, err = _run(capsys, ["sweep", "--dim", "2", "--state-file", str(state), "--g-i", "0"])
    assert rc == 2 and out == ""
    assert err.startswith("config error: g_i ") and err.count("\n") == 1


def test_a_bad_fixed_strength_exits_before_a_state_is_drawn(monkeypatch, capsys):
    def no_draw(*_args):
        raise AssertionError("the sweep drew a state before it checked its strengths")

    monkeypatch.setattr(cli, "random_pure", no_draw)
    argv = ["sweep", "--sweep-axis", "g_i", "--g-r", "0", "--reps", "2", "--sweep-steps", "2"]
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("config error: g_r ") and err.count("\n") == 1


# ---------------------------------------------------------------- selfcheck / parser


def test_selfcheck_passes(capsys):
    rc, out, _ = _run(capsys, ["selfcheck", "--seed", "6"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 7
    assert not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("INFO") for line in lines)


SELFCHECK_PINS = [
    (1, "ce3f7beb493e85bf2a2b9f7bd45b146d45005b10ce6b93c737bb232e5217500a"),
    (2, "3933fa1a5187b8ab67b0a2de13c6d30711ca5cf0a6b355fc2c7bfa5b6f71f7d4"),
    (3, "21948c55fe94585154ec0bc38bb5dfc9e358dc4d2f67e8fceb2bba6aa5e68c8b"),
]


@pytest.mark.parametrize("seed, expected", SELFCHECK_PINS, ids=["seed1", "seed2", "seed3"])
def test_selfcheck_bytes_are_pinned(capsys, seed, expected):
    # Every deviation selfcheck prints, to its last printed digit, on numpy 2.4.6:
    # a rewrite of the readout, the numeric optimum or the oracle probes that
    # moves any of them fails here.  The readout deviation is 7.0e-16 at seed 1
    # and 5.9e-15 at seed 2.
    rc, out, _ = _run(capsys, ["selfcheck", "--seed", str(seed)])
    assert rc == 0
    _assert_pinned(out.encode(), expected)


def test_python_dash_m_runs_the_cli():
    # `python -m wvtomo` with the package on PYTHONPATH only, as from a source checkout
    src = str(Path(wvtomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "wvtomo", "selfcheck", "--seed", "1"],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    _assert_pinned(done.stdout, SELFCHECK_PINS[0][1])


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the reader takes one line and goes away, as `wvtomo sweep | head -1` does; the CSV is
    # several times a pipe's buffer, so the writer is still writing when the pipe closes
    src = str(Path(wvtomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["sweep", "--dim", "2", "--shots", "1", "--reps", "1", "--sweep-steps", "2000"]
    proc = subprocess.Popen([sys.executable, "-m", "wvtomo", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"g_r,mse_raw_mean,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


FULL_DISK = f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def _full_disk(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["compare", "--dim-max", "3"], ["selfcheck", "--seed", "1"]],
                         ids=["compare", "selfcheck"])
def test_a_full_stdout_exits_1_with_one_line(argv):
    src = str(Path(wvtomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "wvtomo", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.decode() == FULL_DISK


class _FullFile(io.StringIO):
    write = staticmethod(_full_disk)


@pytest.mark.parametrize("argv, stdout", [
    (["sweep", "--reps", "2", "--sweep-steps", "2", "--out", "o.csv"], ""),
    (["compare", "--dim-max", "3", "--out", "o.csv", "--manifest", "m"], ""),
    # the CSV went to stdout before the manifest write failed, and still arrives
    (["sweep", "--reps", "2", "--sweep-steps", "2", "--manifest", "m"], "g_r,mse_raw_mean,"),
], ids=["sweep-out", "compare-out", "sweep-manifest"])
def test_a_failed_file_write_exits_1_with_one_line(tmp_path, monkeypatch, capsys, argv, stdout):
    # a disk that fills after the up-front checks pass; root may write /dev/full, but the
    # checks refuse it to anyone else, so the write itself is stubbed
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullFile(), raising=False)
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (1, FULL_DISK)
    assert out.startswith(stdout) and bool(out) == bool(stdout)


def test_reconstruct_manifest_records_the_prefix_of_the_files_it_wrote(tmp_path, monkeypatch,
                                                                       capsys):
    # with no --out the files are reconstruction_*.state, and the manifest's out says so
    monkeypatch.chdir(tmp_path)
    write_state_file("s.state", random_mixed(2, 2, RandomStream(SEED, 62)).matrix)
    rc, out, err = _run(capsys, ["reconstruct", "--state-file", "s.state", "--manifest", "m"])
    assert rc == 0, err
    assert out.startswith("wrote reconstruction_raw.state and reconstruction_herm.state\n")
    assert all(Path(f"reconstruction_{kind}.state").is_file() for kind in ("raw", "herm", "phys"))
    assert "\nout = reconstruction\n" in Path("m").read_text()


def test_a_failed_state_file_write_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_state_file("in.state", random_mixed(2, 1, RandomStream(SEED, 60)).matrix)
    real = cli.write_state_file
    monkeypatch.setattr(cli, "write_state_file", lambda path, matrix: (
        _full_disk() if path.endswith("_herm.state") else real(path, matrix)))
    rc, out, err = _run(capsys, ["reconstruct", "--state-file", "in.state", "--out", "est"])
    assert (rc, out, err) == (1, "", FULL_DISK)
    # est_raw.state was written whole before the failure; the run leaves none, and its input
    assert sorted(p.name for p in Path().iterdir()) == ["in.state"]


def test_a_failed_write_keeps_the_outputs_it_never_opened(tmp_path, monkeypatch, capsys):
    # the raw file fails first, so the herm and phys files already there stay as they were
    monkeypatch.chdir(tmp_path)
    write_state_file("in.state", random_mixed(2, 1, RandomStream(SEED, 60)).matrix)
    for kind in ("herm", "phys"):
        Path(f"est_{kind}.state").write_text("kept\n")
    monkeypatch.setattr(cli, "write_state_file", lambda path, matrix: _full_disk())
    rc, out, err = _run(capsys, ["reconstruct", "--state-file", "in.state", "--out", "est"])
    assert (rc, out, err) == (1, "", FULL_DISK)
    assert sorted(p.name for p in Path().iterdir()) == ["est_herm.state", "est_phys.state",
                                                        "in.state"]
    assert all(Path(f"est_{kind}.state").read_text() == "kept\n" for kind in ("herm", "phys"))


@pytest.mark.parametrize("kind", ["new", "symlink", "fifo"])
def test_a_failed_manifest_write_removes_only_the_csv_the_run_made(tmp_path, monkeypatch,
                                                                   capsys, kind):
    # the CSV is written whole, then the manifest write alone fails; the run removes a CSV it
    # created, but not a symlink or FIFO named as its --out, which it did not make
    monkeypatch.chdir(tmp_path)
    if kind == "symlink":
        Path("target.csv").write_text("")
        os.symlink("target.csv", "o.csv")
    elif kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs os.mkfifo")
        os.mkfifo("o.csv")
    # the FIFO is never really opened: with no reader, the open would block
    monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: (
        _FullFile() if path == "m" else io.StringIO() if kind == "fifo"
        else open(path, *args, **kwargs)), raising=False)
    argv = ["sweep", "--reps", "2", "--sweep-steps", "2", "--out", "o.csv", "--manifest", "m"]
    rc, out, err = _run(capsys, argv)
    assert (rc, out, err) == (1, "", FULL_DISK)
    assert not Path("m").exists()
    if kind == "new":
        assert not os.path.lexists("o.csv")
    else:
        mode = os.lstat("o.csv").st_mode
        assert stat.S_ISLNK(mode) if kind == "symlink" else stat.S_ISFIFO(mode)


# (module, name the probe looks up there, the gate its value feeds)
NAN_PROBES = [
    (selfcheck, "_read_weak_values", "readout-identity"),
    (selfcheck, "hs_distance_sq", "exact-reconstruction"),
    (theory, "mse_raw_optimal", "substitution-identities"),
    (theory, "mse_hermitized_exact", "hermitized-variance-oracle-exact-form"),
]


@pytest.mark.parametrize("module, name, gate", NAN_PROBES,
                         ids=[f"{name}-{gate}" for _, name, gate in NAN_PROBES])
def test_selfcheck_fails_on_a_nan_deviation(monkeypatch, capsys, module, name, gate):
    # max(dev, nan) keeps dev, so a probe that computes NaN must still fail its gate.
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: real(*args) * np.nan)
    rc, out, _ = _run(capsys, ["selfcheck", "--seed", "1"])
    assert rc == 4
    assert any(line.startswith(f"FAIL {gate} ") for line in out.splitlines())


def test_selfcheck_draws_only_the_states_its_gates_read(monkeypatch):
    # 4 reconstruction, 3 readout and 9 oracle states; the substitution identities read none
    dims = []
    real = selfcheck.random_mixed
    monkeypatch.setattr(selfcheck, "random_mixed",
                        lambda d, rank, stream: dims.append(d) or real(d, rank, stream))
    selfcheck.probes(1)
    assert dims == [2, 3, 4, 5, 2, 3, 5, 2, 2, 2, 3, 3, 3, 4, 4, 4]


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["selfcheck", "--manifest", "m", "--out", "o.csv", "--dim", "1"],
    ["compare", "--g-r", "9", "--optimal", "--shots", "5", "--dim", "40"],
    ["reconstruct", "--state-file", "f", "--dim", "7", "--pure", "--reps", "9"],
])
def test_flags_the_subcommand_does_not_read_are_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_selfcheck_help_lists_only_the_seed(capsys):
    with pytest.raises(SystemExit):
        main(["selfcheck", "--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--config", "--seed"}

