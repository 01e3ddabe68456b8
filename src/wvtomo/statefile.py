"""Plain-text matrix files.

Format: first line holds the dimension d; each of the next d lines holds
d whitespace-separated entries written as ``re,im``.  Values are written
with 17 significant digits so a write/read cycle is bit-exact for float64.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import StateFileError


def write_state_file(path: str | Path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise StateFileError(f"state file needs a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StateFileError("state file needs finite entries; the matrix has NaN or inf")
    d = m.shape[0]
    lines = [str(d)]
    for row in m:
        lines.append(" ".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def shown_path(path: str | Path) -> str:
    """path as a message prints it: as it is, or as its repr if it holds a character that a
    terminal does not show, such as a NUL byte or a newline."""
    text = str(path)
    return text if text.isprintable() else repr(text)


def read_text(path: str | Path, kind: str = "") -> str:
    """The UTF-8 text of a run's input file; StateFileError, naming it `kind` (such as "config
    file ") then path, if it cannot be opened or decoded or its name holds a NUL byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # first: it is a ValueError too
        raise StateFileError(f"{kind}{shown_path(path)} is not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise StateFileError(f"cannot read {kind}{shown_path(path)}: {exc}") from exc


def read_state_file(path: str | Path) -> np.ndarray:
    path = Path(path)
    lines = read_text(path).splitlines()
    name = shown_path(path)
    if not lines or not lines[0].strip():
        raise StateFileError(f"{name}: line 1: expected the dimension, found nothing")
    try:
        d = int(lines[0].strip())
    except ValueError:
        raise StateFileError(f"{name}: line 1: expected an integer dimension, got {lines[0].strip()!r}")
    if d < 1:
        raise StateFileError(f"{name}: line 1: dimension must be positive, got {d}")
    # Two walks over the lines: the row count first, then each row, so no list besides lines.
    if sum(1 for line in islice(lines, 1, None) if line.strip()) < d:
        raise StateFileError(f"{name}: expected {d} matrix rows after line 1")

    rows = ((idx, line) for idx, line in enumerate(islice(lines, 1, None), start=2) if line.strip())
    entries = []  # the array is built only once every row has passed: d may be huge
    for row, (idx, line) in enumerate(rows):
        if row >= d:
            raise StateFileError(f"{name}: line {idx}: more than {d} matrix rows")
        tokens = line.split()
        if len(tokens) != d:
            raise StateFileError(f"{name}: line {idx}: expected {d} entries, got {len(tokens)}")
        for col, tok in enumerate(tokens):
            parts = tok.split(",")
            if len(parts) != 2:
                raise StateFileError(f"{name}: line {idx}: entry {col + 1} is not 're,im': {tok!r}")
            try:
                re, im = float(parts[0]), float(parts[1])
            except ValueError:
                raise StateFileError(f"{name}: line {idx}: entry {col + 1} is not numeric: {tok!r}")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise StateFileError(f"{name}: line {idx}: entry {col + 1} is not finite: {tok!r}")
            entries.append(complex(re, im))
    return np.array(entries, dtype=complex).reshape(d, d)
