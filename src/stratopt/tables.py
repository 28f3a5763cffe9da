"""CSV schemas shared by the experiment runner, the plotter, and tests.

All files are UTF-8 with LF line endings; reals carry 17 significant digits
so values survive a write/read round trip bit-exactly.
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


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, fields, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
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
