"""Command-line harness: strength sweeps, scheme comparison tables, single-shot reconstruction,
and an internal consistency selfcheck.

Output is CSV (12 significant digits, deterministic for a fixed seed), plus an optional manifest
recording every resolved setting and the drawn state.  Exit codes: 0 ok, 1 an output could not be
written, 2 bad config (before any work; a refused option reads `--<flag>: <reason>`, and a
conflict names each flag it involves), 3 bad input file, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from contextlib import nullcontext, suppress
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import theory
from .errors import StateFileError, TomographyError
from .montecarlo import MseReport, outcome_table, run_sweep, simulate_once
from .protocol import CouplingStrengths, fourier_mub
from .qmath import (
    DensityMatrix, check_count, check_dimension, check_rank, hs_distance_sq, project_to_density,
    purity_stats, random_mixed, random_pure, validate_density,
)
from .rng import RandomStream
from .selfcheck import probes
from .statefile import read_state_file, read_text, shown_path, write_state_file

# Stream ids: run_experiment draws from stream 0 (the stream contract is in wvtomo.montecarlo's
# docstring); state draws and one-off simulations live far away so they never collide.
STATE_STREAM = 2**32
RECONSTRUCT_STREAM = 2**33

# Every option: (type, default, help).  A config file may set any of them;
# each subcommand takes as flags only the ones it reads (see build_parser).
OPTIONS = {
    "dim": (int, 5, "system dimension d"),
    "shots": (int, 100, "shots N per configuration"),
    "reps": (int, 1000, "experiment repetitions"),
    "seed": (int, 1, "master seed"),
    "g_r": (float, None, "real-part strength"),
    "g_i": (float, None, "imaginary-part strength"),
    "optimal": (bool, False, "closed-form optimal strengths (default; refuses --g-r/--g-i)"),
    "sweep_axis": (str, "g_r", "strength to sweep: g_r or g_i"),
    "sweep_min": (float, 0.6, "lowest swept strength"),
    "sweep_max": (float, 2.4, "highest swept strength"),
    "sweep_steps": (int, 19, "number of swept strengths"),
    "state_file": (str, None, "read the true state from a file"),
    "pure": (bool, False, "draw a Haar-random pure state (default)"),
    "mixed_rank": (int, None, "draw a random mixed state of this rank"),
    "dim_min": (int, 2, "smallest dimension"),
    "dim_max": (int, 10, "largest dimension"),
    "out": (str, "-", "output path ('-' = stdout)"),
    "manifest": (str, None, "also write a run manifest here"),
}
DEFAULTS = {key: default for key, (_, default, _) in OPTIONS.items()}
# The MseReport fields a sweep row carries after its swept strength, in CSV order.
SWEEP_COLUMNS = tuple(f.name for f in fields(MseReport) if f.name != "reps")


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    """A float to 12 significant digits, anything else as shown_path shows it: on one line."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return shown_path(x)


def _begin_output(cfg: dict, path: str) -> None:
    """Record an output file just before the run writes it; main removes what is recorded if a
    write fails.  Only a new path or a regular file is recorded: a device, FIFO or symlink stays."""
    if not os.path.lexists(path) or stat.S_ISREG(os.lstat(path).st_mode):
        cfg["opened"].append(path)


def _open_output(cfg: dict, path: str):
    """The file at path, or stdout for '-'."""
    if path == "-":
        return nullcontext(sys.stdout)
    _begin_output(cfg, path)
    return open(path, "w", newline="")


def _write_csv(cfg: dict, header: list, rows: list) -> None:
    with _open_output(cfg, cfg["out"]) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([[_fmt(x) for x in row] for row in rows])


def _write_manifest(cfg: dict, derived: list) -> None:
    """The command, the --config file, every option the subcommand takes as resolved (in
    build_parser's order), then the values the run derived, one `key = value` a line."""
    if cfg["manifest"] is not None:
        entries = [("command", cfg["command"]), ("config", cfg["config"]),
                   *((key, cfg[key]) for key in cfg["keys"]), *derived]
        with _open_output(cfg, cfg["manifest"]) as fh:
            fh.write("".join(f"{k} = {_fmt(v)}\n" for k, v in entries))


def _file_id(path):
    """The file at path as its (st_dev, st_ino), so that a hard link is the file it links to;
    a path that names no file yet, as its real path."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_writable(cfg: dict, *outputs) -> None:
    """Fail before any work if an output or the --manifest cannot be written, would overwrite
    an input of the run (--config or --state-file), or shares its file with another output."""
    paths = (*outputs, cfg["manifest"])
    if paths.count("-") > 1:
        raise ConfigError("two outputs name the same file, stdout ('-')")
    inputs = {}
    for key in ("config", "state_file"):
        # An input the OS cannot resolve (a NUL byte, a symlink loop) is no file an output
        # could overwrite: its read fails, and so does the probe of an output naming it.
        if cfg[key] is not None:
            with suppress(OSError, ValueError):
                inputs[_file_id(cfg[key])] = "--" + key.replace("_", "-")
    files = [Path(p) for p in paths if p not in (None, "-")]
    seen = []
    for path in files:
        shown = shown_path(path)
        try:  # the OS refuses a name too long or a symlink loop (OSError), or a NUL (ValueError)
            if path.is_dir() or not path.parent.is_dir() or not os.access(path.parent, os.W_OK):
                raise ConfigError(f"cannot write {shown}: its directory is missing or not writable")
            with suppress(FileNotFoundError):  # a new file, or a symlink to one
                os.stat(path)  # unlike Path.exists, refuses a symlink loop
                if not os.access(path, os.W_OK):
                    raise ConfigError(f"cannot write {shown}: the file is not writable")
            file_id = _file_id(path)
        except OSError as exc:
            raise ConfigError(f"cannot write {shown}: {exc.strerror}")
        except ValueError as exc:
            raise ConfigError(f"cannot write {shown}: {exc}")
        if file_id in inputs:
            raise ConfigError(f"output {shown} would overwrite the {inputs[file_id]} input")
        if file_id in seen:
            raise ConfigError(f"two outputs name the same file {shown}")
        seen.append(file_id)


def _type_ok(key: str, val) -> bool:
    want, default, _ = OPTIONS[key]
    if val is None:
        return default is None
    # bool is an int subclass, so it passes only where a bool is wanted.
    accepted = (int, float) if want is float else want
    return isinstance(val, bool) == (want is bool) and isinstance(val, accepted)


def _resolve(args: argparse.Namespace) -> dict:
    """Merge built-in defaults, --config file values, and explicit flags
    (flags win), and refuse a seed that RandomStream refuses."""
    cfg = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        shown = shown_path(config_path)
        try:
            loaded = json.loads(read_text(config_path, "config file "))
        except (ValueError, RecursionError) as exc:  # bad JSON or too many digits; too deep
            raise StateFileError(f"config file {shown} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {shown} must hold a JSON object")
        for key, val in loaded.items():
            if key not in cfg:
                raise ConfigError(f"config file {shown}: unknown key {key!r}")
            if not _type_ok(key, val):
                raise ConfigError(f"config file {shown}: {key!r} has the wrong type: {val!r}")
            cfg[key] = val
    for key in cfg:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    cfg["config"] = config_path  # not an option: kept so that no output overwrites it
    cfg["command"], cfg["keys"] = args.command, args.keys  # what the manifest lists
    cfg["opened"] = []  # the output files the run has begun to write
    _guarded(cfg, "seed", RandomStream)
    return cfg


def _guarded(cfg: dict, key: str, guard, *args):
    """cfg[key], once guard(cfg[key], *args) accepts it; else ConfigError("--<flag>: <reason>")."""
    try:
        guard(cfg[key], *args)
    except (ValueError, TomographyError) as exc:
        raise ConfigError(f"--{key.replace('_', '-')}: {exc}")
    return cfg[key]


def _allocatable(count: int, shape: tuple, dtype=float) -> None:
    """The guard of a count that sizes an array: numpy must be able to allocate the array."""
    try:
        np.empty(shape, dtype)
    except (MemoryError, ValueError):  # beyond the address space, or beyond memory
        raise ValueError(f"{count} is more than numpy can allocate")


def _load_state(cfg: dict, dim: int, stream: RandomStream) -> tuple[DensityMatrix, str]:
    sources = [cfg["state_file"] is not None, bool(cfg["pure"]), cfg["mixed_rank"] is not None]
    if sum(sources) > 1:
        raise ConfigError("--state-file, --pure and --mixed-rank are mutually exclusive")
    if cfg["state_file"] is not None:
        rho = validate_density(read_state_file(cfg["state_file"]))
        if rho.dim != dim:
            raise ConfigError(
                f"--state-file holds a d={rho.dim} state but the configured dimension is {dim}"
            )
        return rho, f"file:{cfg['state_file']}"
    if cfg["mixed_rank"] is not None:
        rank = _guarded(cfg, "mixed_rank", check_rank, dim)
        return random_mixed(dim, rank, stream), f"mixed-random:rank={rank}"
    return random_pure(dim, stream), "pure-random"


def _fixed_strengths(cfg: dict, dim: int) -> CouplingStrengths:
    """The optimal pair, with any strength set by flag or config in its place."""
    given = [key for key in ("g_r", "g_i") if cfg[key] is not None]
    if cfg["optimal"] and given:
        raise ConfigError("--optimal conflicts with explicit --g-r/--g-i")
    fixed = theory.optimal_strengths(dim)
    for key in given:  # each strength is judged by the pair it sets
        _guarded(cfg, key, lambda g: replace(fixed, **{key: float(g)}))
    return replace(fixed, **{key: float(cfg[key]) for key in given})


def _derived(strengths: CouplingStrengths, rho: DensityMatrix, source: str) -> list:
    """The manifest's derived values of a one-state run: the strengths it held and its state."""
    pur = purity_stats(rho)
    return [("fixed_g_r", strengths.g_r), ("fixed_g_i", strengths.g_i), ("state_source", source),
            ("purity", pur.purity), ("purity_re", pur.purity_re), ("purity_im", pur.purity_im)]


def cmd_sweep(cfg: dict) -> int:
    dim = _guarded(cfg, "dim", check_dimension)
    shots = _guarded(cfg, "shots", check_count, "shot count")
    reps = _guarded(cfg, "reps", check_count, "repetition count")
    axis = cfg["sweep_axis"]
    if axis not in ("g_r", "g_i"):
        raise ConfigError(f"--sweep-axis: must be g_r or g_i, got {axis!r}")
    if (steps := cfg["sweep_steps"]) < 2:
        raise ConfigError(f"--sweep-steps: must be >= 2, got {steps}")
    lo, hi = float(cfg["sweep_min"]), float(cfg["sweep_max"])
    if not lo < hi:
        raise ConfigError(f"--sweep-min {lo} is not below --sweep-max {hi}")
    fixed = _fixed_strengths(cfg, dim)
    for key in ("sweep_min", "sweep_max"):  # |sin g|, cos(g/2) have no interior minimum on (0, pi)
        _guarded(cfg, key, lambda g: replace(fixed, **{axis: float(g)}))
    _guarded(cfg, "dim", _allocatable, (dim, dim), complex)
    _guarded(cfg, "sweep_steps", _allocatable, (steps,))
    _guarded(cfg, "reps", _allocatable, (2, reps))
    _check_writable(cfg, cfg["out"])

    rho, source = _load_state(cfg, dim, RandomStream(cfg["seed"], STATE_STREAM))

    values = np.linspace(lo, hi, steps)
    grid = [replace(fixed, **{axis: float(v)}) for v in values]
    reports = run_sweep(rho, grid, shots, reps, cfg["seed"])
    rows = [[v] + [getattr(r, name) for name in SWEEP_COLUMNS] for v, r in zip(values, reports)]
    _write_csv(cfg, [axis, *SWEEP_COLUMNS], rows)
    _write_manifest(cfg, _derived(fixed, rho, source))
    return 0


def cmd_compare(cfg: dict) -> int:
    d_lo, d_hi = (_guarded(cfg, key, check_dimension) for key in ("dim_min", "dim_max"))
    if d_lo > d_hi:
        raise ConfigError(f"--dim-min {d_lo} exceeds --dim-max {d_hi}")
    if cfg["state_file"] is not None and d_lo != d_hi:
        raise ConfigError("--state-file fixes one dimension; use --dim-min == --dim-max with it")
    _guarded(cfg, "dim_max", _allocatable, (d_hi, d_hi), complex)
    _check_writable(cfg, cfg["out"])

    rows = []
    purities = []
    for d in range(d_lo, d_hi + 1):
        rho, source = _load_state(cfg, d, RandomStream(cfg["seed"], STATE_STREAM + d))
        pur = purity_stats(rho)
        menu = theory.scaled_mse_menu(d, pur.purity, pur.purity_re, pur.purity_im)
        rows.append([d, *menu.values()])
        purities.append((f"purity_d{d}", pur.purity))
    _write_csv(cfg, ["dim", *menu], rows)
    _write_manifest(cfg, purities)
    return 0


def cmd_reconstruct(cfg: dict) -> int:
    if cfg["state_file"] is None:
        raise ConfigError("reconstruct requires --state-file")
    shots = _guarded(cfg, "shots", check_count, "shot count")
    # Files only: '-' stands for their default prefix, which the manifest then records.
    out = cfg["out"] = "reconstruction" if cfg["out"] == "-" else cfg["out"]
    raw_path, herm_path, phys_path = (f"{out}_{kind}.state" for kind in ("raw", "herm", "phys"))
    _check_writable(cfg, raw_path, herm_path, phys_path)
    rho = validate_density(read_state_file(cfg["state_file"]))
    dim = rho.dim
    strengths = _fixed_strengths(cfg, dim)

    # One full experiment repetition on its own stream and its twin.
    est = simulate_once(outcome_table(rho, strengths, fourier_mub(dim), shots),
                        RandomStream(cfg["seed"], RECONSTRUCT_STREAM))
    # The estimates need not have unit trace nor be positive; this one is a state.
    phys = project_to_density(est.hermitized).matrix
    for path, matrix in ((raw_path, est.raw), (herm_path, est.hermitized), (phys_path, phys)):
        _begin_output(cfg, path)
        write_state_file(path, matrix)

    pur = purity_stats(rho)
    inp = theory.TheoryInput(dim=dim, strengths=strengths, shots=shots, purity=pur)
    print(f"wrote {shown_path(raw_path)} and {shown_path(herm_path)}")
    print(f"wrote {shown_path(phys_path)}")
    print(f"hs_sq_raw = {_fmt(hs_distance_sq(est.raw, rho.matrix))}")
    print(f"hs_sq_herm = {_fmt(hs_distance_sq(est.hermitized, rho.matrix))}")
    print(f"hs_sq_phys = {_fmt(hs_distance_sq(phys, rho.matrix))}")
    print(f"theory_mse_raw = {_fmt(theory.mse_raw(inp))}")
    print(f"theory_mse_herm = {_fmt(theory.mse_hermitized(inp))}")
    _write_manifest(cfg, [("dim", dim), *_derived(strengths, rho, f"file:{cfg['state_file']}")])
    return 0


def cmd_selfcheck(cfg: dict) -> int:
    checks, probe_gap = probes(cfg["seed"])
    failed = False
    for name, dev, tol in checks:
        ok = dev <= tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'} {name:40s} max dev {dev:.3e} (tol {tol:.0e})")
    print(
        "INFO uniform-variance hermitized closed form sits "
        f"{probe_gap:+.3e} away from the exact MSE on the last probe; the gap "
        "is state-dependent and matches its closed form (gated above)."
    )
    return 4 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wvtomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    state = ("state_file", "pure", "mixed_rank")
    strengths = ("g_r", "g_i", "optimal")
    commands = (
        ("sweep", cmd_sweep, "MSE vs coupling strength (CSV)",
         ("dim", "shots", "reps", "seed", *strengths,
          "sweep_axis", "sweep_min", "sweep_max", "sweep_steps", *state, "out", "manifest")),
        ("compare", cmd_compare, "scaled-MSE table vs MUB/SIC (CSV)",
         ("dim_min", "dim_max", "seed", *state, "out", "manifest")),
        ("reconstruct", cmd_reconstruct, "single-run estimate of a state file",
         ("state_file", "shots", "seed", *strengths, "out", "manifest")),
        ("selfcheck", cmd_selfcheck, "oracle-vs-theory consistency suite", ("seed",)),
    )
    for name, func, help_text, keys in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with defaults; flags override", default=None)
        for key in keys:
            kind, _, key_help = OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, default=None,
                               help=key_help)
            else:
                p.add_argument(flag, dest=key, type=kind, default=None, help=key_help)
        p.set_defaults(func=func, keys=keys)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        code = args.func(cfg)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's exit flush
        return code
    except OSError as exc:  # input reads turn theirs into config or input errors
        # A write failed.  A reader that went away (`wvtomo sweep | head -1`) needs no message.
        if not isinstance(exc, BrokenPipeError):
            print(f"output error: {exc}", file=sys.stderr)
            for path in cfg["opened"]:  # the run failed: no file it recorded stays
                with suppress(OSError):
                    os.remove(path)
        try:
            sys.stdout.flush()
        except OSError:  # stdout is the output that failed: what it still holds goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TomographyError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
