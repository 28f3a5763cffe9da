"""Static SVG rendering of experiment CSVs.

Presentation only: every plot is a pure function of the CSV rows, written
as a standalone SVG with hand-placed axes.  Three kinds are supported:
``loss_curves`` (log-scale loss vs step), ``topview_trajectories``
(trajectories projected on the (mu2, mu3) plane with start/end and target
markers), and ``quiver`` (2-D tangential gradient field).
"""

from __future__ import annotations

import html
import math
from pathlib import Path

from . import tables

KINDS = ("loss_curves", "topview_trajectories", "quiver")

WIDTH, HEIGHT = 720, 540
MARGIN = 64.0
PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


class SchemaError(ValueError):
    """A CSV input does not carry one of the expected headers."""


class PlotDataError(ValueError):
    """No plottable rows in the inputs; no output file is written."""


class _Canvas:
    def __init__(self, xlim, ylim):
        self.xlim, self.ylim = xlim, ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def sx(self, x):
        x0, x1 = self.xlim
        span = (x1 - x0) or 1.0
        return MARGIN + (x - x0) / span * (WIDTH - 2 * MARGIN)

    def sy(self, y):
        y0, y1 = self.ylim
        span = (y1 - y0) or 1.0
        return HEIGHT - MARGIN - (y - y0) / span * (HEIGHT - 2 * MARGIN)

    def polyline(self, xs, ys, color, width=1.5, dashed=False):
        pts = " ".join(f"{self.sx(x):.2f},{self.sy(y):.2f}" for x, y in zip(xs, ys))
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{dash}/>'
        )

    def line(self, x1, y1, x2, y2, color, width=1.0):
        self.parts.append(
            f'<line x1="{self.sx(x1):.2f}" y1="{self.sy(y1):.2f}" '
            f'x2="{self.sx(x2):.2f}" y2="{self.sy(y2):.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
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

    def text(self, px, py, s, size=12, color="#333", anchor="start"):
        self.parts.append(
            f'<text x="{px:.2f}" y="{py:.2f}" font-size="{size}" fill="{color}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{html.escape(s, quote=False)}</text>'
        )

    def axes(self, xlabel, ylabel, n_ticks=5):
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#999"/>'
        )
        for k in range(n_ticks):
            f = k / (n_ticks - 1)
            xv, yv = x0 + f * (x1 - x0), y0 + f * (y1 - y0)
            self.text(self.sx(xv), HEIGHT - MARGIN + 18, f"{xv:.3g}", size=10, anchor="middle")
            self.text(MARGIN - 8, self.sy(yv) + 4, f"{yv:.3g}", size=10, anchor="end")
        self.text(WIDTH / 2, HEIGHT - MARGIN + 38, xlabel, anchor="middle")
        self.parts.append(
            f'<text x="18" y="{HEIGHT / 2:.2f}" font-size="12" fill="#333" '
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


def _loss_series(paths):
    series = []
    for path in paths:
        header, rows = tables.read_csv(path)
        stem = Path(path).stem
        if header == tables.TRAJ_FIELDS:
            if not rows:
                raise PlotDataError(f"{path}: no data rows")
            xs = [float(r[0]) for r in rows]
            ys = [float(r[6]) for r in rows]
            series.append((stem, xs, ys))
        elif header == tables.AGG_FIELDS:
            if not rows:
                raise PlotDataError(f"{path}: no data rows")
            xs = [float(r[0]) for r in rows]
            series.append((stem + ":mean", xs, [float(r[1]) for r in rows]))
            series.append((stem + ":median", xs, [float(r[2]) for r in rows]))
        else:
            raise SchemaError(f"{path}: expected trajectory or aggregate CSV, got header {header}")
    return series


def _plot_loss_curves(paths):
    series = _loss_series(paths)
    positive = [y for _, _, ys in series for y in ys if y > 0]
    floor = min(positive) if positive else 1e-16
    logged = [
        (label, xs, [math.log10(max(y, floor)) for y in ys])
        for label, xs, ys in series
    ]
    xlo = min(x for _, xs, _ in logged for x in xs)
    xhi = max(x for _, xs, _ in logged for x in xs)
    ylo = min(y for _, _, ys in logged for y in ys)
    yhi = max(y for _, _, ys in logged for y in ys)
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
        header, rows = tables.read_csv(path)
        if header == tables.TRAJ_FIELDS:
            if not rows:
                raise PlotDataError(f"{path}: no data rows")
            mu2 = [float(r[4]) for r in rows]
            mu3 = [float(r[5]) for r in rows]
            trajectories.append((Path(path).stem, mu2, mu3))
        elif header == tables.TARGET_FIELDS:
            for r in rows:
                targets.append((r[0], float(r[2]), float(r[3])))
        else:
            raise SchemaError(f"{path}: expected trajectory or targets CSV, got header {header}")
    if not trajectories:
        raise PlotDataError("no trajectory CSVs among the inputs")
    xs = [v for _, mu2, _ in trajectories for v in mu2] + [t[1] for t in targets]
    ys = [v for _, _, mu3 in trajectories for v in mu3] + [t[2] for t in targets]
    pad_x = 0.08 * max(max(xs) - min(xs), 1e-9)
    pad_y = 0.08 * max(max(ys) - min(ys), 1e-9)
    canvas = _Canvas((min(xs) - pad_x, max(xs) + pad_x), (min(ys) - pad_y, max(ys) + pad_y))
    canvas.axes("mu2", "mu3")
    labels = []
    for k, (label, mu2, mu3) in enumerate(trajectories):
        color = PALETTE[k % len(PALETTE)]
        canvas.polyline(mu2, mu3, color)
        canvas.circle(mu2[0], mu3[0], 5, color)          # start
        canvas.circle(mu2[-1], mu3[-1], 5, color, fill=False)  # end
        labels.append((label, color))
    for _, tx, ty in targets:
        canvas.cross(tx, ty, 7, "#2ca02c")
    canvas.legend(labels)
    return canvas.render()


def _plot_quiver(paths):
    rows_all = []
    for path in paths:
        header, rows = tables.read_csv(path)
        if header != tables.QUIVER_FIELDS:
            raise SchemaError(f"{path}: expected quiver CSV, got header {header}")
        rows_all.extend(rows)
    if not rows_all:
        raise PlotDataError("no quiver rows in the inputs")
    pts = [(float(r[1]), float(r[2])) for r in rows_all]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    pad = 0.2 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    canvas = _Canvas((min(xs) - pad, max(xs) + pad), (min(ys) - pad, max(ys) + pad))
    canvas.axes("x1", "x2")
    levels = sorted({r[0] for r in rows_all})
    level_color = {lvl: PALETTE[i % len(PALETTE)] for i, lvl in enumerate(levels)}
    norms = [
        math.hypot(float(r[3]), float(r[4]))
        for r in rows_all if r[5] == "ok"
    ]
    scale = 0.35 * pad / max(max(norms, default=1.0), 1e-12)
    for r in rows_all:
        x, y = float(r[1]), float(r[2])
        color = level_color[r[0]]
        if r[5] == "undefined":
            canvas.circle(x, y, 6, "#d62728")
            continue
        gx, gy = float(r[3]) * scale, float(r[4]) * scale
        canvas.line(x, y, x + gx, y + gy, color, width=1.5)
        canvas.circle(x, y, 2, color)
    canvas.legend([(f"level {float(lvl):g}", c) for lvl, c in level_color.items()])
    return canvas.render()


def plot(csv_paths, kind: str, out_path) -> Path:
    """Render CSVs to a standalone SVG; nothing is written when inputs are bad."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not csv_paths:
        raise PlotDataError("no input CSVs")
    if kind == "loss_curves":
        svg = _plot_loss_curves(csv_paths)
    elif kind == "topview_trajectories":
        svg = _plot_topview(csv_paths)
    else:
        svg = _plot_quiver(csv_paths)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg, encoding="utf-8")
    return out_path
