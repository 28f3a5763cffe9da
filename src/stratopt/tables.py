"""CSV schemas shared by the experiment runner, the plotter, and tests (a
trajectory row is a ``TrajectoryRecord``, whose fields are ``TRAJ_FIELDS``),
the packed tables that hold trajectories and aggregates in memory, the one
writer that turns cell values into CSV text, and its readers.

A ``Table`` is a numeric table packed row after row into one ``bytearray``:
a step (``int64``) and then float64 cells, little-endian with no padding,
which is both its ``struct`` row and its numpy structured ``dtype``.  A
trajectory row (``TrajectoryTable``) is 64 bytes, an aggregate row
(``AggregateTable``) 24.  ``len`` counts rows, an index unpacks one row (a
``TrajectoryRecord`` for a trajectory), iteration unpacks plain tuples with
``iter_unpack``, and ``column`` copies one numpy column, or a range of its
rows, so no array keeps the buffer alive.

All files are UTF-8 with LF line endings.  ``write_csv`` formats a float
cell (``np.float64`` included) as ``%.17g``, so reals survive a write/read
round trip bit-exactly, an ``int`` cell as ``%d``, and any other cell as
``str(v)``, quoted per RFC 4180 when it holds a comma, a double quote, CR
or LF.  A row whose cells are all ``float`` or ``int`` is formatted with a
single ``%`` operation, from a format string built once per tuple of cell
types; a ``Table``'s rows all take the one format of its layout; any other
row goes cell by cell.  Callers pass raw values.  The rows
are joined and written ``WRITE_ROWS`` at a time, so the text of a long table
is never held whole.

Every reader takes its records from ``_records``, the one csv pass, which
names the line of a byte that is not UTF-8 or of a cell over the csv field
size limit, and drops a leading UTF-8 BOM.  ``read_csv`` returns any table
as text; ``rows`` yields a small table's cells (targets, quiver) with each
row's file line.  ``read_columns`` parses the numeric columns of a
trajectory or aggregate in one ``np.loadtxt`` pass, bit-exact with
``float(cell)``, in the RFC 4180 grammar ``rows`` reads (``"6"`` is a
number, a quoted comma no delimiter); its checks read the body
``READ_BYTES`` at a time and name the line of a lone CR line end, and only
another failed check walks ``rows``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import re
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np


class TrajectoryRecord(NamedTuple):
    """One trajectory row; its fields are the columns of a trajectory CSV."""

    step: int
    xi: float
    theta: float
    mu1: float
    mu2: float
    mu3: float
    loss: float
    grad_norm: float


TRAJ_FIELDS = list(TrajectoryRecord._fields)
AGG_FIELDS = ["step", "mean_loss", "median_loss"]
STALL_FIELDS = [
    "surface", "init_index", "stalled", "window_start", "mean_rel_decrease",
    "nearest_singularity_distance", "final_loss", "terminated_by", "failure",
]
TARGET_FIELDS = ["surface", "mu1", "mu2", "mu3"]
QUIVER_FIELDS = ["level", "x1", "x2", "gx", "gy", "status"]


def _layout(fields) -> tuple[struct.Struct, np.dtype]:
    """The packed row of an int64 step and float64 cells named ``fields``:
    its ``struct`` and its numpy structured dtype."""
    return (struct.Struct(f"<q{len(fields) - 1}d"),
            np.dtype([(fields[0], "<i8")] + [(name, "<f8") for name in fields[1:]]))


TRAJ_ROW, TRAJ_DTYPE = _layout(TRAJ_FIELDS)  # "<q7d", 64 bytes
AGG_ROW, AGG_DTYPE = _layout(AGG_FIELDS)  # "<q2d", 24 bytes

FLOAT_FORMAT = "%.17g"
WRITE_ROWS = 1024  # rows joined into one string per write
READ_BYTES = 1 << 16  # bytes per read while read_columns checks a body
_CELL_FORMATS = {float: FLOAT_FORMAT, int: "%d"}
_LONE_CR = re.compile(rb"\r[^\n]")  # a CR line end that is not CRLF


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


class Table:
    """A table of a step and float cells per row, packed into ``buf``.

    A subclass names the layout: ``row``, the ``struct`` of one row, its
    ``dtype`` and ``make``, which turns an unpacked row into what an index
    gives.  Rows are appended as ``table.buf += table.row.pack(...)``.
    """

    __slots__ = ("buf",)
    row: struct.Struct
    dtype: np.dtype
    make = tuple

    def __init__(self, rows=()):
        self.buf = bytearray()
        for cells in rows:
            self.buf += self.row.pack(*cells)

    def __len__(self) -> int:
        return len(self.buf) // self.row.size

    def __getitem__(self, i: int):
        n = len(self)
        if not -n <= i < n:
            raise IndexError("table index out of range")
        return self.make(self.row.unpack_from(self.buf, (i % n) * self.row.size))

    def __iter__(self):
        return self.row.iter_unpack(self.buf)

    def column(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """A contiguous copy of the column ``name``, of rows ``start`` to
        ``stop`` (all by default)."""
        return np.frombuffer(self.buf, self.dtype)[start:stop][name].copy()


class TrajectoryTable(Table):
    __slots__ = ()
    row, dtype = TRAJ_ROW, TRAJ_DTYPE
    make = TrajectoryRecord._make


class AggregateTable(Table):
    __slots__ = ()
    row, dtype = AGG_ROW, AGG_DTYPE


def write_csv(path, fields, rows):
    """Write the header and the rows of raw cell values; return the path.

    The rows are formatted and written ``WRITE_ROWS`` at a time; the bytes
    are those of the whole table joined at once.  A ``Table``'s rows are
    unpacked into the one format of its step and floats.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(rows, Table):
        lines = map(_row_format((int,) + (float,) * (len(rows.dtype) - 1)).__mod__, rows)
    else:
        lines = map(_line, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_line(fields) + "\n")
        while chunk := list(itertools.islice(lines, WRITE_ROWS)):
            fh.write("\n".join([*chunk, ""]))
    return path


def _utf8_lines(path):
    """The lines of a UTF-8 text file, a leading BOM dropped; a line that
    holds a byte which is not UTF-8 raises ``SchemaError`` naming it."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}, line {line_no}: {exc}") from None
            yield line


def _records(path):
    """Yield ``(line, cells)`` for each record of a CSV, a blank line as
    ``[]``; ``line`` is the file line the record starts on (quoted line breaks
    count).  A byte that is not UTF-8, or a record the csv module rejects (a
    cell over its field size limit), raises ``SchemaError`` naming its line."""
    reader = csv.reader(_utf8_lines(path))
    line = 1
    try:
        for cells in reader:
            yield line, cells
            line = reader.line_num + 1
    except csv.Error as exc:
        raise SchemaError(f"{path}, line {line}: {exc}") from None


def read_csv(path):
    """Return (field names, rows as string lists); blank lines are skipped."""
    records = _records(path)
    header = next(records, (1, []))[1]
    return header, [cells for _, cells in records if cells]


def read_header(path) -> list[str]:
    """The field names on the first line of a CSV ([] for an empty file)."""
    return next(_records(path), (1, []))[1]


def rows(path, fields):
    """Yield ``(line, cells)`` for each non-blank row of a text table, ``line``
    being the file line the row starts on (quoted line breaks count).  A
    header other than ``fields``, a row without one cell per field or a
    fault ``_records`` names raises ``SchemaError``; the file is read once,
    so the first fault in file order is the one reported."""
    records = _records(path)
    header = next(records, (1, []))[1]
    if header != list(fields):
        raise SchemaError(f"{path}: expected header {list(fields)}, got {header}")
    for line, cells in records:
        if cells:
            if len(cells) != len(fields):
                raise SchemaError(f"{path}, line {line}: {len(cells)} cells where the "
                                  f"header has {len(fields)}")
            yield line, cells


def _check_line_ends(path, data: bytes, line: int):
    """Raise ``SchemaError`` at the first CR in ``data`` that a byte other
    than LF follows, naming its line: ``line`` (the line ``data`` starts on)
    plus the LFs before it.  A CR at the end of ``data`` is not judged."""
    lone = _LONE_CR.search(data) if b"\r" in data else None  # write_csv writes no CR
    if lone:
        line += data.count(b"\n", 0, lone.start())
        raise SchemaError(f"{path}, line {line}: ends in a lone CR, not LF or CRLF")


def read_columns(path, fields, columns):
    """Return the named ``columns`` of a numeric CSV as float64 arrays.

    The header must be ``fields`` and every non-blank row must hold one
    cell per field; the requested cells must parse as floats (the others are
    not read).  A violation raises ``SchemaError`` naming the file and line.
    A header-only file gives empty arrays.  The body is read ``READ_BYTES``
    at a time to count its commas and to find a CR line end that is not
    CRLF, which ``np.loadtxt`` cannot read (the first one raises
    ``SchemaError`` naming its line), then once more by ``np.loadtxt``; it
    is never held whole.  Only when either finds another fault is the file
    walked with ``rows`` to name the first bad line.
    """
    header = read_header(path)
    if header != list(fields):
        raise SchemaError(f"{path}: expected header {list(fields)}, got {header}")
    picked = [fields.index(name) for name in columns]
    # Reading the last column as well makes loadtxt reject any short row; the
    # comma count then flags a long one, or a quoted comma.
    usecols = picked + [len(fields) - 1]
    with open(path, "rb") as fh:
        _check_line_ends(path, fh.readline(), 1)
        start = fh.tell()
        commas, blank, line, ends_in_cr = 0, True, 2, False
        for block in iter(functools.partial(fh.read, READ_BYTES), b""):
            commas += block.count(b",")
            blank = blank and block.isspace()
            # a CR that ends the last read is checked against this read's first byte
            _check_line_ends(path, b"\r" + block if ends_in_cr else block, line)
            line += block.count(b"\n")
            ends_in_cr = block.endswith(b"\r")
        if blank:
            return [np.empty(0) for _ in picked]
        fh.seek(start)
        try:
            # From a binary handle loadtxt reads line by line; a StringIO of
            # the body would hold four bytes per character.
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                               usecols=usecols, ndmin=2, encoding="utf-8")
        except ValueError as exc:
            table, error = None, exc
    if table is None or commas != len(table) * (len(fields) - 1):
        for line, cells in rows(path, fields):
            for j in usecols:
                try:
                    float(cells[j])
                except ValueError:
                    raise SchemaError(f"{path}, line {line}: {fields[j]} = {cells[j]!r} "
                                      f"is not a number") from None
        if table is None:
            raise SchemaError(f"{path}: {error}")
    return [table[:, k] for k in range(len(picked))]
