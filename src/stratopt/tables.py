"""CSV schemas shared by the experiment runner, the plotter, and tests, the
one writer that turns cell values into CSV text, and its readers.

All files are UTF-8 with LF line endings.  ``write_csv`` formats a float
cell (``np.float64`` included) as ``%.17g``, so reals survive a write/read
round trip bit-exactly, an ``int`` cell as ``%d``, and any other cell as
``str(v)``, quoted per RFC 4180 when it holds a comma, a double quote, CR
or LF.  A row whose cells are all ``float`` or ``int`` is formatted with a
single ``%`` operation, from a format string built once per tuple of cell
types; any other row goes cell by cell.  Callers pass raw values.

``read_columns`` is the writer's counterpart for numeric tables
(trajectories, aggregates): it checks the header and returns the requested
columns as float64 arrays parsed in one ``np.loadtxt`` pass, bit-exact with
``float(cell)``.  ``read_csv`` returns the cells of any table as text.
"""

from __future__ import annotations

import csv
import functools
from pathlib import Path

import numpy as np

TRAJ_FIELDS = ["step", "xi", "theta", "mu1", "mu2", "mu3", "loss", "grad_norm"]
AGG_FIELDS = ["step", "mean_loss", "median_loss"]
STALL_FIELDS = [
    "surface", "init_index", "stalled", "window_start", "mean_rel_decrease",
    "nearest_singularity_distance", "final_loss", "terminated_by", "failure",
]
TARGET_FIELDS = ["surface", "mu1", "mu2", "mu3"]
QUIVER_FIELDS = ["level", "x1", "x2", "gx", "gy", "status"]

FLOAT_FORMAT = "%.17g"
_CELL_FORMATS = {float: FLOAT_FORMAT, int: "%d"}


class SchemaError(ValueError):
    """A CSV input does not carry the expected header, or a row does not fit it."""


def fmt(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def _text(value) -> str:
    s = str(value)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


@functools.lru_cache(maxsize=256)
def _row_format(types: tuple) -> str | None:
    """The ``%`` format of a row of these exact cell types, or None when a
    cell needs the per-cell path (bool, str, np.float64, ...)."""
    try:
        return ",".join([_CELL_FORMATS[t] for t in types])
    except KeyError:
        return None


def _line(row) -> str:
    row_format = _row_format(tuple(map(type, row)))
    if row_format is not None:
        return row_format % (row if isinstance(row, tuple) else tuple(row))
    return ",".join([FLOAT_FORMAT % v if isinstance(v, float) else _text(v) for v in row])


def write_csv(path, fields, rows):
    """Write the header and the rows of raw cell values in one call; return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join([_line(fields), *map(_line, rows), ""])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def read_csv(path):
    """Return (field names, rows as string lists); blank lines are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            return header, [row for row in reader if row]
        except StopIteration:
            return [], []
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from None


def _header(fh, path) -> list[str]:
    """The field names on the next line of a binary handle ([] at its end)."""
    try:
        return next(csv.reader([fh.readline().decode("utf-8")]), [])
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}, line 1: {exc}") from None


def read_header(path) -> list[str]:
    """The field names on the first line of a CSV ([] for an empty file)."""
    with open(path, "rb") as fh:
        return _header(fh, path)


def line_of(path, row: int) -> int:
    """The file line on which data row ``row`` starts, counted as ``read_csv``
    counts rows (header excluded, blank lines skipped)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        start, index = reader.line_num + 1, 0
        for cells in reader:
            if cells:
                if index == row:
                    return start
                index += 1
            start = reader.line_num + 1
    raise IndexError(f"{path} has no data row {row}")


def read_columns(path, fields, columns):
    """Return the named ``columns`` of a numeric CSV as float64 arrays.

    The header must be ``fields`` and every non-blank line must hold one
    cell per field; the requested cells must parse as floats (the others are
    not read).  A violation raises ``SchemaError`` naming the file and line.
    A header-only file gives empty arrays.
    """
    picked = [fields.index(name) for name in columns]
    # Reading the last column as well makes loadtxt reject any short row; the
    # comma count then rejects any long one.
    usecols = picked + [len(fields) - 1]
    with open(path, "rb") as fh:
        header = _header(fh, path)
        if header != list(fields):
            raise SchemaError(f"{path}: expected header {list(fields)}, got {header}")
        start = fh.tell()
        body = fh.read()
        if not body or body.isspace():
            return [np.empty(0) for _ in picked]
        fh.seek(start)
        try:
            # From a binary handle loadtxt reads line by line; a StringIO of
            # the body would hold four bytes per character.
            table = np.loadtxt(fh, delimiter=",", comments=None, usecols=usecols,
                               ndmin=2, encoding="utf-8")
            if body.count(b",") != len(table) * (len(fields) - 1):
                raise ValueError("a row has more cells than the header")
        except ValueError as exc:
            raise SchemaError(_first_bad_line(path, body, fields, usecols)
                              or f"{path}: {exc}") from None
    return [table[:, k] for k in range(len(picked))]


def _first_bad_line(path, body: bytes, fields, usecols) -> str | None:
    """Describe the first line that ``read_columns`` rejects, or None."""
    text = body.decode("utf-8", errors="replace")
    for line, row in enumerate(text.split("\n"), start=2):
        row = row.rstrip("\r")
        if not row:
            continue
        cells = row.split(",")
        if len(cells) != len(fields):
            return f"{path}, line {line}: {len(cells)} cells where the header has {len(fields)}"
        for j in usecols:
            try:
                float(cells[j])
            except ValueError:
                return f"{path}, line {line}: {fields[j]} = {cells[j]!r} is not a number"
    return None
