"""Command-line harness: CSV outputs, config resolution, exit codes,
determinism, and the statistical agreement of simulated sweeps."""

import json
import re

import numpy as np
import pytest

from wvtomo import RandomStream, random_mixed, read_state_file, write_state_file
from wvtomo.cli import main

SEED = 20240814  # statistical bounds below rehearsed once at this seed


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(out):
    lines = out.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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


def test_sweep_rows_match_oracle(capsys):
    # rehearsed: worst |mean - oracle| is 1.3 stderr over these 4 rows
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


def test_sweep_rejects_bad_range(capsys):
    rc, _, err = _run(capsys, ["sweep", "--sweep-min", "1.5", "--sweep-max", "3.5"])
    assert rc == 2
    assert "config error" in err


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
    # rehearsed: hs_sq_herm = 6.6e-7 at one million shots, bound 1e-3
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


@pytest.mark.parametrize("argv", [
    ["sweep", "--reps", "2", "--out", "{missing}/x.csv"],
    ["sweep", "--reps", "2", "--manifest", "{missing}/run.manifest"],
    ["compare", "--out", "{missing}/x.csv"],
    ["reconstruct", "--state-file", "{state}", "--out", "{missing}/rec"],
    ["reconstruct", "--state-file", "{state}", "--manifest", "{missing}/run.manifest"],
])
def test_unwritable_output_rejected_before_computing(tmp_path, capsys, argv):
    # the directory "missing" does not exist; nothing may be computed or written
    state = tmp_path / "in.state"
    write_state_file(state, random_mixed(2, 2, RandomStream(SEED, 44)).matrix)
    argv = [a.format(missing=tmp_path / "missing", state=state) for a in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert "config error" in err and "missing" in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.state"]


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


def test_explicit_strength_out_of_range(capsys):
    rc, _, err = _run(capsys, ["reconstruct", "--g-r", "3.5"])
    assert rc == 2


# ---------------------------------------------------------------- selfcheck / parser


def test_selfcheck_passes(capsys):
    rc, out, _ = _run(capsys, ["selfcheck", "--seed", "6"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 7
    assert not any(line.startswith("FAIL") for line in lines)
    assert any(line.startswith("INFO") for line in lines)


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
