"""CSV schemas shared by the experiment runner, the plotter, and tests, and
the one writer that turns cell values into CSV text.

All files are UTF-8 with LF line endings.  ``write_csv`` formats a float
cell (``np.float64`` included) as ``%.17g``, so reals survive a write/read
round trip bit-exactly, and any other cell as ``str(v)``, quoted per
RFC 4180 when it holds a comma, a double quote, CR or LF.  Callers pass raw
values.
"""

from __future__ import annotations

import csv
from pathlib import Path

TRAJ_FIELDS = ["step", "xi", "theta", "mu1", "mu2", "mu3", "loss", "grad_norm"]
AGG_FIELDS = ["step", "mean_loss", "median_loss"]
STALL_FIELDS = [
    "surface", "init_index", "stalled", "window_start", "mean_rel_decrease",
    "nearest_singularity_distance", "final_loss", "terminated_by", "failure",
]
TARGET_FIELDS = ["surface", "mu1", "mu2", "mu3"]
QUIVER_FIELDS = ["level", "x1", "x2", "gx", "gy", "status"]

FLOAT_FORMAT = "%.17g"


def fmt(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def _text(value) -> str:
    s = str(value)
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _line(row) -> str:
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
    """Return (field names, rows as string lists)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return [], []
        return header, [row for row in reader if row]
