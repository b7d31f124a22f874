"""CSV interchange for series and sample batches.

Series files carry a header row ``t,ch1,...,chd`` and one row per step of an
(n, d) array; sample batches of a (B, n, d) array prepend a ``seq`` column.
Both are written by one table writer, one ``%``-format string per row, with
17 significant digits so doubles round-trip exactly. Lines starting with '#'
are comments (used for the resolved-config echo); they and blank lines are
skipped on read.
"""

from __future__ import annotations

import numpy as np

from .signature import as_paths, as_sequence


def _write_table(path, index_names, table, comment) -> None:
    """Write (rows, index columns + d channels) ``table``; its index columns hold integers."""
    d = table.shape[1] - len(index_names)
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join([*index_names, *(f"ch{c + 1}" for c in range(d))]) + "\n")
        row = ",".join(["%d"] * len(index_names) + ["%.17g"] * d) + "\n"
        fh.write("".join([row % tuple(values) for values in table.tolist()]))


def write_series_csv(path, values, comment: str | None = None) -> None:
    """Write an (n, d) series, one row per step t."""
    arr = as_sequence(values)
    _write_table(path, ["t"], np.column_stack([np.arange(len(arr)), arr]), comment)


def write_batch_csv(path, sequences, comment: str | None = None) -> None:
    """Write a (B, n, d) batch, one row per (seq, t)."""
    arr = as_paths(sequences)
    if arr.ndim != 3:
        raise ValueError(f"a sample batch must be a (B, n, d) array, got shape {arr.shape}")
    seq, t = np.indices(arr.shape[:2]).reshape(2, -1)
    _write_table(path, ["seq", "t"], np.column_stack([seq, t, arr.reshape(-1, arr.shape[2])]),
                 comment)


def _is_number(field: str) -> bool:
    """Whether ``np.loadtxt``, the reader's parser, takes ``field`` as a number."""
    if not field.strip():  # loadtxt would warn of no data rather than refuse it
        return False
    try:
        np.loadtxt([field], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def read_series_csv(path) -> np.ndarray:
    """The (n, d) values of a series file; the ``t`` column is dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    header = lines[0].split(",") if lines else ["t"]  # an empty file has no header to check
    if header[0] != "t":
        raise ValueError(f"{path}: expected header starting with 't', got {header[0]!r}")
    if len(lines) < 2:
        raise ValueError(f"{path}: no data rows")
    if len(header) < 2:
        raise ValueError(f"{path}: header names no channel after 't'")
    try:
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:  # name the first data line whose field count differs from the first's,
        with open(path, "r", encoding="utf-8") as fh:  # else the first field that is no number
            rows = [(at, line.split(",")) for at, line in enumerate(map(str.strip, fh), 1)
                    if line and not line.startswith("#")][1:]  # (file line number, fields)
        ragged = [(at, len(row)) for at, row in rows if len(row) != len(rows[0][1])]
        if ragged:
            raise ValueError(f"{path}: line {ragged[0][0]} has {ragged[0][1]} fields, line "
                             f"{rows[0][0]} has {len(rows[0][1])}") from None
        for at, row in rows:
            for column, text in enumerate(row, 1):
                if not _is_number(text):
                    raise ValueError(f"{path}: line {at} field {column} is not a number: "
                                     f"{text.strip()!r}") from None
        raise
    if table.shape[1] != len(header):
        raise ValueError(f"{path}: header has {len(header)} fields, rows have {table.shape[1]}")
    return table[:, 1:]
