"""Execute experiment specs and write their artifact files.

A run writes per-initialization trajectory CSVs, per-surface aggregate loss
curves, a stall report, and the target means; the cusp model instead emits a
quiver CSV of tangentially projected gradients along the curve and its
deformations.  Last comes ``metadata.cfg``, echoing the fully resolved spec
(defaults and seeds included) so the run can be reproduced bit-identically;
a directory without it holds no finished run.

The hyperboloid surface is a smooth deformation of the double cone, and the
run takes its level from ``resolve.decide`` at ``spec.eps``, as ``stratopt
resolve`` would choose it; the runner assumes no sign.  A level the chart
cannot carry (not > 0) raises ``ValueError`` before any file is written.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tables
from .config import SURFACES, ExperimentSpec, InitDistribution, format_config
from .model import Chart, ChartPoint, GaussianLocationModel
from .optim import StallReport, Termination, Trajectory, detect_stall, run
from .poly import cusp_curve, double_cone
from .resolve import decide, default_region, projected_gradient_field
from .stratify import find_singular_points

CUSP_POINTS_PER_BRANCH = 12
AGGREGATE_STEPS = 1024  # steps of the aggregate computed per block
# every file name a run writes besides metadata.cfg
_SURFACE = "|".join(map(re.escape, sorted({s for ss in SURFACES.values() for s in ss})))
_RUN_FILE = re.compile(rf"(traj_({_SURFACE})_\d{{3,}}|aggregate_({_SURFACE})"
                       r"|stalls|targets|quiver)\.csv")


@dataclass
class ExperimentResult:
    out_dir: Path
    metadata_path: Path
    trajectory_paths: dict[tuple[str, int], Path] = field(default_factory=dict)
    aggregate_paths: dict[str, Path] = field(default_factory=dict)
    stall_path: Path | None = None
    targets_path: Path | None = None
    quiver_path: Path | None = None
    n_failures: int = 0


def _surfaces(spec: ExperimentSpec) -> list[tuple[str, Chart]]:
    """Each surface of the spec's model with its chart; the hyperboloid is the
    level of the double cone that ``decide`` resolves it at, eps = ``spec.eps``."""
    charts = {"cone": Chart.cone, "hyperboloid": lambda: Chart.hyperboloid(
        decide(double_cone(), spec.eps, default_region(3))[0].level)}
    return [(surface, charts[surface]()) for surface in SURFACES[spec.model]]


def _initial_points(spec: ExperimentSpec) -> list[ChartPoint]:
    if isinstance(spec.init, InitDistribution):
        rng = np.random.default_rng(spec.init.seed)
        xis = rng.uniform(*spec.init.xi_range, size=spec.init.count)
        thetas = rng.uniform(*spec.init.theta_range, size=spec.init.count)
        return [ChartPoint(float(a), float(b)) for a, b in zip(xis, thetas)]
    return list(spec.init)


def _target_mean(spec: ExperimentSpec, surface_chart: Chart) -> np.ndarray:
    chart = surface_chart if spec.target_surface == "model" else Chart.cone()
    return chart.embed(spec.target)


def _loss_curve(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """The recorded steps (int) and losses (float) of a trajectory, copied
    from its table, so they do not keep it alive."""
    return traj.records.column("step"), traj.losses()


def _aggregate_rows(curves: list[tuple[np.ndarray, np.ndarray]]) -> tables.AggregateTable:
    """Per-step mean and median loss over ``(steps, losses)`` curves (one per
    trajectory, as ``_loss_curve`` gives them), as a packed table; finished
    runs carry their last loss forward.

    The step union and the median are taken by sorting, with the same values
    as ``np.unique`` and ``np.median`` on finite losses; those two functions
    import ``numpy.ma`` on first use, which costs more than the sort.  The
    carried losses are laid out ``AGGREGATE_STEPS`` steps at a time, so the
    table of every curve at every step is never held whole; each step's
    mean and median are those of the whole table.  Each block is packed
    into the aggregate's buffer as it is done.
    """
    every = np.sort(np.concatenate([steps for steps, _ in curves]))
    union = every[np.concatenate(([True], every[1:] != every[:-1]))]
    half = len(curves) // 2
    rows = tables.AggregateTable()
    for start in range(0, union.size, AGGREGATE_STEPS):
        block = union[start:start + AGGREGATE_STEPS]
        carried = np.empty((len(curves), block.size))
        for i, (steps, losses) in enumerate(curves):
            idx = np.searchsorted(steps, block, side="right") - 1
            carried[i] = losses[np.clip(idx, 0, len(losses) - 1)]
        ordered = np.sort(carried, axis=0)
        medians = ordered[half] if len(curves) % 2 else (ordered[half - 1] + ordered[half]) / 2
        packed = np.empty(block.size, rows.dtype)
        packed["step"], packed["mean_loss"], packed["median_loss"] = (
            block, carried.mean(axis=0), medians)
        rows.buf += packed.tobytes()
    return rows


def _stall_row(surface: str, index: int, traj: Trajectory, report: StallReport) -> list:
    return [
        surface,
        index,
        "true" if report.stalled else "false",
        report.window_start,
        report.mean_rel_decrease,
        report.nearest_singularity_distance,
        traj.final.loss,
        traj.terminated_by.value,
        traj.failure or "",
    ]


def _cusp_level_points(level: float) -> list[np.ndarray]:
    """Deterministic sample of {x0^2 + x1^3 = level} (``cusp_curve``) inside the
    default region; the quiver CSV names these coordinates x1, x2."""
    ts = np.linspace(-1.55, float(np.cbrt(level)), CUSP_POINTS_PER_BRANCH)
    points = []
    for t in ts:
        x1 = math.sqrt(max(level - t ** 3, 0.0))
        points.append(np.array([x1, t]))
        if x1 > 1e-12:
            points.append(np.array([-x1, t]))
    return points


def _run_cusp_field(spec: ExperimentSpec, out: Path, result: ExperimentResult):
    p = cusp_curve()
    xbar = np.array([spec.target.xi, spec.target.theta])  # ambient 2-D target
    rows = []
    for level in (0.0, 0.25 * spec.eps, spec.eps):
        points = np.array(_cusp_level_points(level))
        tangent, singular = projected_gradient_field(p, level, points, points - xbar)
        rows += [[level, *x, "", "", "undefined"] if s else [level, *x, *g, "ok"]
                 for x, g, s in zip(points.tolist(), tangent.tolist(), singular.tolist())]
    result.quiver_path = tables.write_csv(out / "quiver.csv", tables.QUIVER_FIELDS, rows)


def _clear_run_files(out: Path) -> None:
    """Delete the files an earlier run wrote into ``out``, ``metadata.cfg``
    first; files of any other name stay."""
    (out / "metadata.cfg").unlink(missing_ok=True)
    if out.is_dir():
        for path in out.iterdir():
            if _RUN_FILE.fullmatch(path.name):
                path.unlink()


def _run_charts(spec: ExperimentSpec, out: Path, result: ExperimentResult):
    inits = _initial_points(spec)
    apexes = find_singular_points(double_cone(), 0.0, default_region(3))
    stall_rows = []
    target_rows = []
    for surface, chart in _surfaces(spec):
        xbar = _target_mean(spec, chart)
        target_rows.append([surface, *xbar.tolist()])
        model = GaussianLocationModel(chart, xbar)
        curves = []  # a finished trajectory keeps only its steps and losses
        for i, q0 in enumerate(inits):
            traj = run(model, q0, spec)
            curves.append(_loss_curve(traj))
            path = tables.write_csv(out / f"traj_{surface}_{i:03d}.csv", tables.TRAJ_FIELDS,
                                    traj.records)
            result.trajectory_paths[(surface, i)] = path
            if traj.terminated_by is Termination.FAILED:
                result.n_failures += 1
            report = detect_stall(traj, singularities=apexes, loss_tol=spec.loss_tol)
            stall_rows.append(_stall_row(surface, i, traj, report))
            del traj  # so the next run's records are the only ones alive
        result.aggregate_paths[surface] = tables.write_csv(
            out / f"aggregate_{surface}.csv", tables.AGG_FIELDS, _aggregate_rows(curves)
        )
    result.stall_path = tables.write_csv(out / "stalls.csv", tables.STALL_FIELDS, stall_rows)
    result.targets_path = tables.write_csv(out / "targets.csv", tables.TARGET_FIELDS, target_rows)


def run_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Run a spec and write its artifact files; never raises on a failed trajectory.

    The runner's own files from an earlier run in the directory are deleted
    first, and ``metadata.cfg`` is written last, so a directory without it
    holds no finished run, even when the run raised.
    """
    out = Path(out_dir or spec.output_dir or Path("out") / spec.name)
    _clear_run_files(out)
    result = ExperimentResult(out_dir=out, metadata_path=out / "metadata.cfg")
    if spec.model == "cusp":
        _run_cusp_field(spec, out, result)
    else:
        _run_charts(spec, out, result)
    result.metadata_path.write_text(format_config(spec), encoding="utf-8")
    return result
