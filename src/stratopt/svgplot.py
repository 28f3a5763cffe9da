"""Static SVG rendering of experiment CSVs.

Presentation only: every plot is a pure function of the CSV rows, written
as a standalone SVG with hand-placed axes.  Three kinds are supported:
``loss_curves`` (log-scale loss vs step), ``topview_trajectories``
(trajectories projected on the (mu2, mu3) plane with start/end and target
markers), and ``quiver`` (2-D tangential gradient field).

Trajectory and aggregate CSVs are read column-wise with
``tables.read_columns``; the small targets and quiver tables with
``tables.rows``, which gives each row's file line.  Every plotted value must
be a finite number: a short row, a non-numeric cell or an unknown quiver
status raises ``SchemaError``, a non-finite value ``PlotDataError``, each
naming the file and line, and no SVG is written.  ``_Canvas.sx``/``sy`` map
scalars and whole arrays with the same float operations, and every
coordinate is written as ``%.2f``.
"""

from __future__ import annotations

import html
import itertools
import math
from pathlib import Path

import numpy as np

from . import tables
from .tables import SchemaError

WIDTH, HEIGHT = 720, 540
MARGIN = 64.0
PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
TEXT_COLOR = "#333"


class PlotDataError(ValueError):
    """No plottable rows, or a non-finite value, in the inputs; no output file is written."""


class _Canvas:
    def __init__(self, xlim, ylim):
        self.xlim, self.ylim = xlim, ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def sx(self, x):
        """Pixel x of a float or of a float array (element-wise, same rounding)."""
        x0, x1 = self.xlim
        span = (x1 - x0) or 1.0
        return MARGIN + (x - x0) / span * (WIDTH - 2 * MARGIN)

    def sy(self, y):
        y0, y1 = self.ylim
        span = (y1 - y0) or 1.0
        return HEIGHT - MARGIN - (y - y0) / span * (HEIGHT - 2 * MARGIN)

    def polyline(self, xs, ys, color):
        # a window far narrower than the data maps points to +-inf pixels; do
        # that silently, as the same division of Python floats does
        with np.errstate(over="ignore"):
            px = self.sx(np.asarray(xs, dtype=float)).tolist()
            py = self.sy(np.asarray(ys, dtype=float)).tolist()
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px, py)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def line(self, x1, y1, x2, y2, color):
        self.parts.append(
            f'<line x1="{self.sx(x1):.2f}" y1="{self.sy(y1):.2f}" '
            f'x2="{self.sx(x2):.2f}" y2="{self.sy(y2):.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )

    def circle(self, x, y, r, color, fill=True):
        style = f'fill="{color}"' if fill else f'fill="none" stroke="{color}" stroke-width="1.5"'
        self.parts.append(f'<circle cx="{self.sx(x):.2f}" cy="{self.sy(y):.2f}" r="{r}" {style}/>')

    def cross(self, x, y, size, color):
        cx, cy = self.sx(x), self.sy(y)
        self.parts.append(
            f'<path d="M {cx - size} {cy - size} L {cx + size} {cy + size} '
            f'M {cx - size} {cy + size} L {cx + size} {cy - size}" '
            f'stroke="{color}" stroke-width="2" fill="none"/>'
        )

    def text(self, px, py, s, size=12, anchor="start"):
        self.parts.append(
            f'<text x="{px:.2f}" y="{py:.2f}" font-size="{size}" fill="{TEXT_COLOR}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{html.escape(s, quote=False)}</text>'
        )

    def axes(self, xlabel, ylabel):
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#999"/>'
        )
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):  # five ticks per axis, ends included
            xv, yv = x0 + f * (x1 - x0), y0 + f * (y1 - y0)
            self.text(self.sx(xv), HEIGHT - MARGIN + 18, f"{xv:.3g}", size=10, anchor="middle")
            self.text(MARGIN - 8, self.sy(yv) + 4, f"{yv:.3g}", size=10, anchor="end")
        self.text(WIDTH / 2, HEIGHT - MARGIN + 38, xlabel, anchor="middle")
        self.parts.append(
            f'<text x="18" y="{HEIGHT / 2:.2f}" font-size="12" fill="{TEXT_COLOR}" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 18 {HEIGHT / 2:.2f})">{html.escape(ylabel, quote=False)}</text>'
        )

    def legend(self, labels_colors):
        y = MARGIN + 16
        for label, color in labels_colors:
            self.parts.append(
                f'<line x1="{WIDTH - MARGIN - 150}" y1="{y - 4}" x2="{WIDTH - MARGIN - 122}" '
                f'y2="{y - 4}" stroke="{color}" stroke-width="2"/>'
            )
            self.text(WIDTH - MARGIN - 114, y, label, size=11)
            y += 16

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _columns(path, fields, columns):
    """The named columns of a numeric CSV as float arrays; every value must be finite."""
    arrays = tables.read_columns(path, fields, columns)
    if not arrays[0].size:
        raise PlotDataError(f"{path}: no data rows")
    bad = ~np.isfinite(np.stack(arrays))
    if bad.any():
        row = int(bad.any(axis=0).argmax())
        col = int(bad[:, row].argmax())
        line = next(itertools.islice(tables.rows(path, fields), row, None))[0]
        raise PlotDataError(
            f"{path}, line {line}: {columns[col]} = {float(arrays[col][row])} is not finite"
        )
    return arrays


def _number(path, line: int, field: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(f"{path}, line {line}: {field} = {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise PlotDataError(f"{path}, line {line}: {field} = {cell} is not finite")
    return value


def _loss_series(paths):
    series = []
    for path in paths:
        header = tables.read_header(path)
        stem = Path(path).stem
        if header == tables.TRAJ_FIELDS:
            steps, loss = _columns(path, tables.TRAJ_FIELDS, ("step", "loss"))
            series.append((stem, steps, loss))
        elif header == tables.AGG_FIELDS:
            steps, mean, median = _columns(
                path, tables.AGG_FIELDS, ("step", "mean_loss", "median_loss"))
            series.append((stem + ":mean", steps, mean))
            series.append((stem + ":median", steps, median))
        else:
            raise SchemaError(f"{path}: expected trajectory or aggregate CSV, got header {header}")
    return series


def _plot_loss_curves(paths):
    series = _loss_series(paths)
    losses = np.concatenate([ys for _, _, ys in series])
    positive = losses[losses > 0]
    floor = float(positive.min()) if positive.size else 1e-16
    # math.log10 per value: numpy's SIMD log10 may round differently.
    logged = [
        (label, xs, np.array([math.log10(y) for y in np.maximum(ys, floor).tolist()]))
        for label, xs, ys in series
    ]
    xlo = float(min(xs.min() for _, xs, _ in logged))
    xhi = float(max(xs.max() for _, xs, _ in logged))
    ylo = float(min(ys.min() for _, _, ys in logged))
    yhi = float(max(ys.max() for _, _, ys in logged))
    pad = 0.05 * max(yhi - ylo, 1e-9)
    canvas = _Canvas((xlo, xhi or 1.0), (ylo - pad, yhi + pad))
    canvas.axes("step", "log10 loss")
    labels = []
    for k, (label, xs, ys) in enumerate(logged):
        color = PALETTE[k % len(PALETTE)]
        canvas.polyline(xs, ys, color)
        labels.append((label, color))
    canvas.legend(labels)
    return canvas.render()


def _plot_topview(paths):
    trajectories = []
    targets = []
    for path in paths:
        header = tables.read_header(path)
        if header == tables.TRAJ_FIELDS:
            mu2, mu3 = _columns(path, tables.TRAJ_FIELDS, ("mu2", "mu3"))
            trajectories.append((Path(path).stem, mu2, mu3))
        elif header == tables.TARGET_FIELDS:
            for line, r in tables.rows(path, tables.TARGET_FIELDS):
                targets.append((_number(path, line, "mu2", r[2]),
                                _number(path, line, "mu3", r[3])))
        else:
            raise SchemaError(f"{path}: expected trajectory or targets CSV, got header {header}")
    if not trajectories:
        raise PlotDataError("no trajectory CSVs among the inputs")
    xs = np.concatenate([mu2 for _, mu2, _ in trajectories] + [[t[0] for t in targets]])
    ys = np.concatenate([mu3 for _, _, mu3 in trajectories] + [[t[1] for t in targets]])
    xlo, xhi, ylo, yhi = float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())
    pad_x = 0.08 * max(xhi - xlo, 1e-9)
    pad_y = 0.08 * max(yhi - ylo, 1e-9)
    canvas = _Canvas((xlo - pad_x, xhi + pad_x), (ylo - pad_y, yhi + pad_y))
    canvas.axes("mu2", "mu3")
    labels = []
    for k, (label, mu2, mu3) in enumerate(trajectories):
        color = PALETTE[k % len(PALETTE)]
        canvas.polyline(mu2, mu3, color)
        canvas.circle(float(mu2[0]), float(mu3[0]), 5, color)          # start
        canvas.circle(float(mu2[-1]), float(mu3[-1]), 5, color, fill=False)  # end
        labels.append((label, color))
    for tx, ty in targets:
        canvas.cross(tx, ty, 7, "#2ca02c")
    canvas.legend(labels)
    return canvas.render()


def _plot_quiver(paths):
    arrows = []  # (level, x1, x2, (gx, gy) or None where undefined)
    for path in paths:
        for line, r in tables.rows(path, tables.QUIVER_FIELDS):
            x, y = _number(path, line, "x1", r[1]), _number(path, line, "x2", r[2])
            level = _number(path, line, "level", r[0])
            if r[5] == "ok":
                g = (_number(path, line, "gx", r[3]), _number(path, line, "gy", r[4]))
            elif r[5] == "undefined":
                g = None
            else:
                raise SchemaError(f"{path}, line {line}: status {r[5]!r} is neither "
                                  f"'ok' nor 'undefined'")
            arrows.append((level, x, y, g))
    if not arrows:
        raise PlotDataError("no quiver rows in the inputs")
    xs, ys = [a[1] for a in arrows], [a[2] for a in arrows]
    pad = 0.2 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    canvas = _Canvas((min(xs) - pad, max(xs) + pad), (min(ys) - pad, max(ys) + pad))
    canvas.axes("x1", "x2")
    levels = sorted({a[0] for a in arrows})  # by value: 2.5 before 10
    level_color = {lvl: PALETTE[i % len(PALETTE)] for i, lvl in enumerate(levels)}
    norms = [math.hypot(*g) for _, _, _, g in arrows if g is not None]
    scale = 0.35 * pad / max(max(norms, default=1.0), 1e-12)
    for level, x, y, g in arrows:
        if g is None:
            canvas.circle(x, y, 6, "#d62728")
            continue
        color = level_color[level]
        canvas.line(x, y, x + g[0] * scale, y + g[1] * scale, color)
        canvas.circle(x, y, 2, color)
    canvas.legend([(f"level {lvl:g}", c) for lvl, c in level_color.items()])
    return canvas.render()


_PLOTTERS = {
    "loss_curves": _plot_loss_curves,
    "topview_trajectories": _plot_topview,
    "quiver": _plot_quiver,
}
KINDS = tuple(_PLOTTERS)


def plot(csv_paths, kind: str, out_path) -> Path:
    """Render CSVs to a standalone SVG; nothing is written when inputs are bad."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not csv_paths:
        raise PlotDataError("no input CSVs")
    svg = _PLOTTERS[kind](csv_paths)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg, encoding="utf-8")
    return out_path
