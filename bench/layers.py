"""Layer tracing and the fixed-input layer measurements of a traced pass.

The tracer patches stratopt's public functions in the benchmark process only.
Each layer function gets a span wrapper (name, start, end, parent); the
per-step model methods get a counter instead, because a span per step would
cost more than the step.  A function is patched in its own module and under
every name another stratopt module bound to it with ``from ... import``
(``runner.run``, ``resolve.find_singular_points``, ``cli.count_components``,
...), so those calls do not escape the trace.  Spans stay in memory until the
pass ends; self times are derived from them: a span's duration minus the
durations of its child spans.

A traced pass runs the workload, then ``probe_layers``, both under the
tracer; counts and self times sum over the two.  The probe's share is the
same on every workload and seed, and it gives every layer at least one call,
so no per-layer time is an empty sum on a workload that skips the layer.
``fixed_timings`` then times single layers on fixed inputs, untraced.

``verify`` (the oracle of the correctness check) and ``cli`` (argparse over
the same calls) are deliberately not timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import stratopt
from stratopt import optim, poly, resolve, runner, svgplot, tables
from stratopt.config import ExperimentSpec
from stratopt.model import Chart, ChartPoint, GaussianLocationModel

stratify = importlib.import_module("stratopt.stratify")

# (module, attribute path, span name); one span per call
SPANNED = (
    ("stratopt.poly", "Polynomial.eval_many", "poly.eval_many"),
    ("stratopt.poly", "Polynomial.grad_many", "poly.grad_many"),
    ("stratopt.poly", "Polynomial.hessian_many", "poly.hessian_many"),
    ("stratopt.poly", "Polynomial.eval", "poly.eval"),
    ("stratopt.poly", "Polynomial.grad", "poly.grad"),
    ("stratopt.poly", "Polynomial.hessian", "poly.hessian"),
    ("stratopt.stratify", "find_singular_points", "stratify.find_singular_points"),
    ("stratopt.stratify", "stratify", "stratify.stratify"),
    ("stratopt.resolve", "count_components", "resolve.count_components"),
    ("stratopt.resolve", "choose_resolution", "resolve.choose_resolution"),
    ("stratopt.resolve", "smoothness_check", "resolve.smoothness_check"),
    ("stratopt.resolve", "proximity_check", "resolve.proximity_check"),
    ("stratopt.resolve", "project_to_level", "resolve.project_to_level"),
    ("stratopt.resolve", "projected_gradient_field", "resolve.projected_gradient_field"),
    ("stratopt.optim", "run", "optim.run"),
    ("stratopt.optim", "detect_stall", "optim.detect_stall"),
    ("stratopt.runner", "run_experiment", "runner.run_experiment"),
    ("stratopt.tables", "write_csv", "tables.write_csv"),
    ("stratopt.svgplot", "plot", "svgplot.plot"),
)
# (module, attribute path, counter name): per-step model methods, counted only
COUNTED = (
    ("stratopt.model", "GaussianLocationModel.loss_grad", "model.loss_grad"),
    ("stratopt.model", "GaussianLocationModel.fim", "model.fim"),
)


def _on_result(label, result, args, kwargs, counts):
    """Work counts read off a layer call's arguments and result."""
    if label == "optim.run":
        counts["optim.steps"] += result.final.step
        counts["optim.records"] += len(result.records)
        counts[f"optim.terminations.{result.terminated_by.value}"] += 1
    elif label == "resolve.project_to_level":
        ok = result[1]
        counts["resolve.project_to_level.rows"] += int(ok.size)
        counts["resolve.project_to_level.converged"] += int(ok.sum())
    elif label == "resolve.count_components":
        counts["resolve.count_components.occupied_cells"] += result.occupied_cells
    elif label == "tables.write_csv":
        counts["tables.rows"] += len(args[2] if len(args) > 2 else kwargs["rows"])
        counts["tables.bytes"] += os.path.getsize(result)
    elif label == "svgplot.plot":
        counts["svgplot.bytes"] += os.path.getsize(result)


class Tracer:
    """Spans and counters at stratopt's layer boundaries, for one process."""

    def __init__(self):
        self.spans: list = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _span(self, fn, label):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            _on_result(label, result, args, kwargs, counts)
            return result
        return wrapper

    def _counter(self, fn, label):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Patch every target, including names other modules bound to it."""
        for info in pkgutil.iter_modules(stratopt.__path__):
            importlib.import_module(f"stratopt.{info.name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "stratopt" or name.startswith("stratopt.")]
        for targets, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for module_name, path, label in targets:
                owner = sys.modules[module_name]
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                wrapped = make(original, label)
                self._patch(owner, attr, wrapped)
                if outer:
                    continue  # methods are reached through their class
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans, one JSON list per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer counts and self times from the spans and counters."""
        spans, counts = self.spans, self.counts
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, inclusive, calls = Counter(), Counter(), Counter()
        poly_calls = 0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child[i]
            inclusive[name] += end - start
            calls[name] += 1
            if name.startswith("poly.") and (parent < 0 or not spans[parent][0].startswith("poly.")):
                poly_calls += 1
        steps = counts["optim.steps"]
        out = {
            "poly.calls": poly_calls,
            "poly.self_s": sum(v for k, v in self_s.items() if k.startswith("poly.")),
            "stratify.find_singular_points.calls": calls["stratify.find_singular_points"],
            "resolve.project_to_level.calls": calls["resolve.project_to_level"],
            "resolve.project_to_level.converged_frac":
                counts["resolve.project_to_level.converged"]
                / counts["resolve.project_to_level.rows"],
            "resolve.count_components.occupied_cells":
                counts["resolve.count_components.occupied_cells"],
            "model.loss_grad.calls_per_step": counts["model.loss_grad"] / steps,
            "model.fim.calls_per_step": counts["model.fim"] / steps,
            "optim.steps": steps,
            "optim.steps_per_s": steps / inclusive["optim.run"],
            "optim.records": counts["optim.records"],
        }
        for reason in optim.Termination:
            out[f"optim.terminations.{reason.value}"] = counts[f"optim.terminations.{reason.value}"]
        for name in ("stratify.find_singular_points", "stratify.stratify",
                     "resolve.choose_resolution", "resolve.smoothness_check",
                     "resolve.proximity_check", "optim.detect_stall",
                     "runner.run_experiment", "tables.write_csv", "svgplot.plot"):
            out[f"{name}.self_s"] = self_s[name]
        for name in ("tables.rows", "tables.bytes", "svgplot.bytes"):
            out[name] = counts[name]
        return out


# -- fixed-input layer measurements -----------------------------------------------

PROBE_POINTS = 100_000
PROBE_STEPS = 1000
PROBE_CSV_ROWS = 20_000
PROBE_REPEATS = 3
# (label, chart, method, mode) for optimizer microseconds per step
PROBE_OPTIMIZERS = (
    ("gd_cone", Chart.cone(), "gd", "population"),
    ("gd_hyp", Chart.hyperboloid(0.05), "gd", "population"),
    ("ngd_cone", Chart.cone(), "ngd", "population"),
    ("ngd_hyp", Chart.hyperboloid(0.05), "ngd", "population"),
    ("sgd_cone", Chart.cone(), "gd", "stochastic"),
)
PROBE_SPEC = ExperimentSpec(
    name="probe", model="both", eps=0.05, method="gd", step_size=0.02,
    max_steps=2000, record_every=10,
    init=(ChartPoint(1.0, 3.04), ChartPoint(1.8, 0.8)), target=ChartPoint(1.0, 0.0),
)


def _median_seconds(fn, repeats=PROBE_REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_layers(out: Path):
    """Call every traced layer once on fixed inputs; run under the tracer."""
    cone = poly.double_cone()
    region = resolve.default_region(3)
    stratify.stratify(cone, 0.0, region)
    chosen = resolve.choose_resolution(cone, 0.1, region)
    resolve.proximity_check(chosen, 0.3)
    result = runner.run_experiment(PROBE_SPEC, out_dir=out / "probe")
    svgplot.plot([str(p) for p in result.trajectory_paths.values()], "loss_curves",
                 out / "probe" / "loss.svg")


def fixed_timings(out: Path) -> dict:
    """Time layers on inputs that depend on neither workload nor seed; run
    untraced: poly throughput at 1e5 points on the double cone,
    count_components at grids 64 and 128 and choose_resolution on it,
    optimizer microseconds per step for each method and chart, and writing
    and plotting a 20,000-row trajectory table."""
    m = {}
    cone = poly.double_cone()
    X = np.random.default_rng(0).uniform(-2.0, 2.0, size=(PROBE_POINTS, 3))
    for fn in ("eval_many", "grad_many", "hessian_many"):
        method = getattr(cone, fn)
        m[f"poly.{fn}.pts_per_s"] = PROBE_POINTS / _median_seconds(lambda: method(X), 5)
    level_set = resolve.deform(cone, 0.1)
    for grid in (64, 128):
        m[f"resolve.count_components.g{grid}_s"] = _median_seconds(
            lambda: resolve.count_components(level_set, grid))
    m["resolve.choose_resolution.fixed_s"] = _median_seconds(
        lambda: resolve.choose_resolution(cone, 0.1))

    target = Chart.cone().embed(ChartPoint(-1.0, 0.0))
    for label, chart, method, mode in PROBE_OPTIMIZERS:
        model = GaussianLocationModel(chart, target)
        cfg = optim.OptimizerConfig(
            method=method, mode=mode, step_size=0.01, max_steps=PROBE_STEPS,
            grad_tol=0.0, loss_tol=0.0, damping=1e-3 if method == "ngd" else 1e-8,
            record_every=10,
        )
        final_steps = []

        def one_run():
            final_steps.append(optim.run(model, ChartPoint(1.0, 3.13), cfg).final.step)
        seconds = _median_seconds(one_run)
        if set(final_steps) != {PROBE_STEPS}:
            raise RuntimeError(f"probe run {label} stopped at steps {final_steps}")
        m[f"optim.us_per_step.{label}"] = 1e6 * seconds / PROBE_STEPS

    table = np.random.default_rng(1).uniform(0.0, 1.0, size=(PROBE_CSV_ROWS, 7))
    rows = [[step] + [tables.fmt(v) for v in row] for step, row in enumerate(table)]
    csv_path = out / "fixed" / "traj.csv"
    m["tables.write_csv.fixed_s"] = _median_seconds(
        lambda: tables.write_csv(csv_path, tables.TRAJ_FIELDS, rows))
    m["svgplot.plot.fixed_s"] = _median_seconds(
        lambda: svgplot.plot([str(csv_path)], "loss_curves", out / "fixed" / "loss.svg"))
    return m
