"""Workload inputs, the items each workload runs, and the checks on their outputs.

Three workloads:

* ``figures``: the paper reproduction.  All six presets through
  ``runner.run_experiment`` and the seven SVGs that
  ``scripts/reproduce_figures.py`` renders.  Frozen: the seed is ignored.
* ``sweep``: seeded random-init experiments on both surfaces in three modes
  (GD, damped NGD, stochastic GD), ``record_every >= 100``.  Almost all of
  the time is per-step optimizer work.  Each run takes a fixed step budget
  (zero tolerances), so the work in a pass does not depend on the seed.
* ``varieties``: ``double_cone``, ``cusp_curve``, ``axis_pair`` and seeded
  quadric cones with a shifted apex; each goes through ``stratify``,
  ``choose_resolution`` at grid 64, ``count_components`` at grid 128 and
  ``proximity_check``.  No optimizer code runs.

The seeded workloads draw their items from pools stored in ``golden.json``
(written by ``golden.py``), so every item a seed can select has a golden
reference.

Layer functions are always called through their module (``runner.run_experiment``,
not a name imported from it) so that the tracer's patches see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
from pathlib import Path

import numpy as np

from stratopt import poly, resolve, runner, svgplot, tables, verify
from stratopt.config import ExperimentSpec, InitDistribution
from stratopt.model import Chart, ChartPoint, GaussianLocationModel
from stratopt.presets import PRESET_NAMES, preset

# the package re-exports the function ``stratify`` under the module's name
stratify = importlib.import_module("stratopt.stratify")

WORKLOADS = ("figures", "sweep", "varieties")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

RTOL = 1e-9             # relative tolerance on losses, coordinates, distances
GRAD_ORACLE_TOL = 1e-6  # finite-difference vs recorded gradient norm

# a sweep pass runs one experiment of each kind, drawn from SWEEP_POOL_PER_KIND
SWEEP_KINDS = {
    "gd": {"method": "gd", "mode": "population"},
    "ngd": {"method": "ngd", "mode": "population"},
    "sgd": {"method": "gd", "mode": "stochastic"},
}
SWEEP_POOL_PER_KIND = 8
SWEEP_INITS = 16  # many inits per experiment keep its one apex search a small share
SWEEP_STEPS = 1000
# a varieties pass runs the three named varieties and VARIETY_PICKS quadric cones
VARIETY_POOL = 16
VARIETY_PICKS = 4
POOL_SEED = 20261017
VARIETY_EPS = 0.1
EXCLUSION_RADIUS = 0.3
RENDER_ITEM = "figures-svg"  # the figures pass's SVG rendering, checked as one item

# the seven figures of scripts/reproduce_figures.py: (file, kind, inputs)
# where an input is (preset, "traj"|"aggregate"|"targets"|"quiver", key)
FIGURES = (
    ("fig1-cusp.svg", "quiver", (("fig1-cusp", "quiver", None),)),
    ("fig5a-topview.svg", "topview_trajectories",
     (("fig5a", "traj", None), ("fig5a", "targets", None))),
    ("fig5a-loss.svg", "loss_curves", (("fig5a", "traj", None),)),
    ("fig5b-gd-loss.svg", "loss_curves", (("fig5b-gd", "aggregate", None),)),
    ("fig5b-ngd-loss.svg", "loss_curves", (("fig5b-ngd", "aggregate", None),)),
    ("fig6-loss.svg", "loss_curves",
     (("fig6-cone", "traj", ("cone", 0)), ("fig6-hyp", "traj", ("hyperboloid", 0)))),
    ("fig6-topview.svg", "topview_trajectories",
     (("fig6-cone", "traj", ("cone", 0)), ("fig6-hyp", "traj", ("hyperboloid", 0)),
      ("fig6-cone", "targets", None))),
)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- pools (written once into golden.json) ------------------------------------


def sweep_pool() -> list[dict]:
    """Experiment parameters of every item the sweep workload can select."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for kind, fixed in SWEEP_KINDS.items():
        for j in range(SWEEP_POOL_PER_KIND):
            item = {
                "name": f"sweep-{kind}-{j:02d}",
                "kind": kind,
                "model": "both",
                "eps": float(rng.uniform(0.02, 0.2)),
                "step_size": float(rng.uniform(0.005, 0.02) if kind == "sgd"
                                   else rng.uniform(0.01, 0.04)),
                "record_every": int(rng.integers(100, 251)),
                "init_seed": int(rng.integers(2**31)),
                "target": [float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])),
                           float(rng.uniform(-math.pi, math.pi))],
                "target_surface": str(rng.choice(["cone", "model"])),
                **fixed,
            }
            if kind == "ngd":
                item["damping"] = float(10.0 ** rng.uniform(-4, -2))
            if kind == "sgd":
                item["batch"] = int(rng.integers(8, 65))
                item["sample_seed"] = int(rng.integers(2**31))
            pool.append(item)
    return pool


def quadric_coeffs(a, b, c, shift) -> dict:
    """a*(x1-s1)^2 + b*(x2-s2)^2 - c*(x0-s0)^2 expanded into monomials."""
    s0, s1, s2 = shift
    return {
        (2, 0, 0): -c, (1, 0, 0): 2 * c * s0,
        (0, 2, 0): a, (0, 1, 0): -2 * a * s1,
        (0, 0, 2): b, (0, 0, 1): -2 * b * s2,
        (0, 0, 0): a * s1 * s1 + b * s2 * s2 - c * s0 * s0,
    }


def variety_pool() -> list[dict]:
    """Seeded quadric cones with a shifted apex, as coefficient lists."""
    rng = np.random.default_rng(POOL_SEED + 1)
    pool = []
    for j in range(VARIETY_POOL):
        a, b, c = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
        shift = [float(v) for v in rng.uniform(-0.4, 0.4, size=3)]
        coeffs = quadric_coeffs(a, b, c, shift)
        pool.append({
            "name": f"quadric-{j:02d}",
            "coeffs": [[list(e), v] for e, v in sorted(coeffs.items())],
            "apex": shift,
        })
    return pool


# -- seeded selection ---------------------------------------------------------


def select_items(workload: str, seed: int, golden: dict) -> list[dict]:
    """The items a pass of ``workload`` runs for ``seed``, in run order."""
    if workload == "figures":
        return [{"name": name} for name in PRESET_NAMES]
    rng = random.Random(seed)
    if workload == "sweep":
        picked = [rng.choice([it for it in golden["sweep"] if it["kind"] == kind])
                  for kind in SWEEP_KINDS]
        rng.shuffle(picked)
        return picked
    if workload == "varieties":
        fixed = [it for it in golden["varieties"] if "coeffs" not in it]
        quadrics = [it for it in golden["varieties"] if "coeffs" in it]
        return fixed + rng.sample(quadrics, VARIETY_PICKS)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# -- building inputs ----------------------------------------------------------


def sweep_spec(item: dict) -> ExperimentSpec:
    extra = {k: item[k] for k in ("damping", "batch", "sample_seed") if k in item}
    return ExperimentSpec(
        name=item["name"], model=item["model"], eps=item["eps"],
        method=item["method"], mode=item["mode"], step_size=item["step_size"],
        max_steps=SWEEP_STEPS, grad_tol=0.0, loss_tol=0.0,
        record_every=item["record_every"],
        init=InitDistribution(xi_range=(0.25, 2.0), theta_range=(-math.pi, math.pi),
                              count=SWEEP_INITS, seed=item["init_seed"]),
        target=ChartPoint(*item["target"]), target_surface=item["target_surface"],
        **extra,
    )


FIXED_VARIETIES = {
    "double_cone": (poly.double_cone, [0.0, 0.0, 0.0]),
    "cusp_curve": (poly.cusp_curve, [0.0, 0.0]),
    "axis_pair": (poly.axis_pair, [0.0, 0.0]),
}


def fixed_variety_items() -> list[dict]:
    return [{"name": name, "apex": apex} for name, (_, apex) in FIXED_VARIETIES.items()]


def variety_polynomial(item: dict) -> poly.Polynomial:
    if "coeffs" in item:
        return poly.Polynomial(3, {tuple(e): c for e, c in item["coeffs"]})
    return FIXED_VARIETIES[item["name"]][0]()


def build_inputs(workload: str, items: list[dict]) -> list:
    """Program inputs for the selected items: specs or polynomials."""
    if workload == "varieties":
        return [variety_polynomial(it) for it in items]
    if workload == "figures":
        return [preset(it["name"]) for it in items]
    return [sweep_spec(it) for it in items]


# -- running items (inside the timed window) ------------------------------------


def run_variety(p: poly.Polynomial) -> dict:
    region = resolve.default_region(p.nvars)
    strat = stratify.stratify(p, 0.0, region)
    chosen = resolve.choose_resolution(p, VARIETY_EPS, region, grid_n=64)
    rep = resolve.count_components(chosen, 128)
    prox = resolve.proximity_check(chosen, EXCLUSION_RADIUS)
    return {
        "singular_points": [[float(v) for v in s] for s in strat.singular_points],
        "ball_radii": [float(r) for r in strat.ball_radii],
        "chosen_level": chosen.level,
        "components": rep.count,
        "occupied_cells": rep.occupied_cells,
        "proximity": prox,
    }


def render_figures(results: dict, out: Path):
    """The seven SVGs of scripts/reproduce_figures.py, from the preset results."""
    for filename, kind, inputs in FIGURES:
        csvs = []
        for name, what, key in inputs:
            r = results[name]
            if what == "quiver":
                csvs.append(r.quiver_path)
            elif what == "targets":
                csvs.append(r.targets_path)
            elif what == "aggregate":
                csvs += list(r.aggregate_paths.values())
            elif key is None:
                csvs += list(r.trajectory_paths.values())
            else:
                csvs.append(r.trajectory_paths[key])
        svgplot.plot([str(p) for p in csvs], kind, out / filename)


# -- outcomes and checks (outside the timed window) ------------------------------


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(out_dir: Path, pattern: str) -> dict:
    return {p.name: sha256(p) for p in sorted(out_dir.glob(pattern))}


def experiment_outcome(result) -> dict:
    """What a run directory says: per trajectory (termination, final step,
    final loss), quiver row counts, and the sha256 of every CSV."""
    outcome = {"trajectories": {}, "digests": digests(result.out_dir, "*.csv")}
    if result.stall_path is not None:
        _, stall_rows = tables.read_csv(result.stall_path)
        terminated = {(r[0], int(r[1])): r[7] for r in stall_rows}
        for (surface, i), path in sorted(result.trajectory_paths.items()):
            _, rows = tables.read_csv(path)
            outcome["trajectories"][f"{surface}/{i:03d}"] = [
                terminated[(surface, i)], int(rows[-1][0]), float(rows[-1][6])]
    if result.quiver_path is not None:
        _, rows = tables.read_csv(result.quiver_path)
        outcome["quiver"] = [len(rows), sum(r[5] == "undefined" for r in rows)]
    return outcome


def experiment_oracle(spec: ExperimentSpec, result) -> list[str]:
    """Independent checks of each trajectory's last row: the recorded gradient
    norm against a central-difference gradient (``verify``), and the recorded
    loss against half the squared distance from the recorded ambient point."""
    if result.targets_path is None:
        return []
    _, target_rows = tables.read_csv(result.targets_path)
    targets = {r[0]: np.array([float(v) for v in r[1:]]) for r in target_rows}
    problems = []
    for (surface, i), path in sorted(result.trajectory_paths.items()):
        _, rows = tables.read_csv(path)
        step, xi, theta, mu1, mu2, mu3, loss, grad_norm = (float(v) for v in rows[-1])
        chart = Chart.cone() if surface == "cone" else Chart.hyperboloid(spec.eps)
        model = GaussianLocationModel(chart, targets[surface])
        fd = float(np.linalg.norm(verify.finite_diff_grad(model.loss, ChartPoint(xi, theta))))
        if abs(fd - grad_norm) > GRAD_ORACLE_TOL * max(1.0, grad_norm):
            problems.append(f"{surface}/{i:03d}: grad_norm {grad_norm!r} vs finite "
                            f"difference {fd!r}")
        r = targets[surface] - np.array([mu1, mu2, mu3])
        if not _close(0.5 * float(r @ r), loss, floor=1e-12):
            problems.append(f"{surface}/{i:03d}: loss {loss!r} is not half the squared "
                            f"distance to the target")
    return problems


def variety_oracle(item: dict, outcome: dict) -> list[str]:
    """The only singular point of each variety is its known apex."""
    apex = np.array(item["apex"])
    pts = outcome["singular_points"]
    if len(pts) != 1 or np.linalg.norm(np.array(pts[0]) - apex) > 1e-6:
        return [f"singular points {pts}, expected the apex {item['apex']}"]
    return []


def _close(a: float, b: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), floor)


def compare(got, want, where: str = "", floor: float = 0.0) -> list[str]:
    """Mismatches between an outcome and its golden value: strings and ints
    exactly, floats to RTOL relative (``floor`` sets an absolute scale)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{where}/{k}", floor)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{where}[{k}]", floor)
        return out
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want, floor) else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def check_experiment(outcome: dict, want: dict) -> tuple[list[str], int]:
    """(numeric mismatches, digest mismatches) against the golden outcome."""
    problems = compare(outcome["trajectories"], want["trajectories"], "trajectories")
    if "quiver" in want:
        problems += compare(outcome.get("quiver"), want["quiver"], "quiver")
    return problems, digest_mismatches(outcome["digests"], want["digests"])


def check_variety(outcome: dict, want: dict) -> list[str]:
    problems = compare(outcome["singular_points"], want["singular_points"],
                       "singular_points", floor=1.0)
    for key in ("ball_radii", "chosen_level", "components", "occupied_cells", "proximity"):
        problems += compare(outcome[key], want[key], key)
    return problems


def digest_mismatches(got: dict, want: dict) -> int:
    return sum(got.get(name) != sha for name, sha in want.items()) + len(set(got) - set(want))


# -- one pass -----------------------------------------------------------------


def run_items(workload: str, items: list[dict], inputs: list, out: Path):
    """The timed work of a pass.  Returns (results by item name, errors by
    item name); an item that raises is recorded and the pass goes on."""
    results, errors = {}, {}
    for item, inp in zip(items, inputs):
        try:
            if workload == "varieties":
                results[item["name"]] = run_variety(inp)
            else:
                results[item["name"]] = runner.run_experiment(inp, out_dir=out / item["name"])
        except Exception as exc:  # counted as a failed item, reported by name
            errors[item["name"]] = f"{type(exc).__name__}: {exc}"
    if workload == "figures":
        try:
            render_figures(results, out)
        except Exception as exc:
            errors[RENDER_ITEM] = f"{type(exc).__name__}: {exc}"
    return results, errors


def check_pass(workload, items, inputs, results, errors, golden, out: Path):
    """Check a pass's outputs against the golden reference and the oracles.

    Returns (items attempted, problems by failed item name, digest
    mismatches).  Digest drift is reported, not counted as a failure."""
    names = [it["name"] for it in items] + ([RENDER_ITEM] if workload == "figures" else [])
    failures = {name: [errors[name]] for name in names if name in errors}
    drift = 0
    for item, inp in zip(items, inputs):
        name = item["name"]
        if name in failures:
            continue
        if workload == "varieties":
            problems = (check_variety(results[name], item["outcome"])
                        + variety_oracle(item, results[name]))
        else:
            want = (golden["figures"]["experiments"][name] if workload == "figures"
                    else item["outcome"])
            problems, dm = check_experiment(experiment_outcome(results[name]), want)
            problems += experiment_oracle(inp, results[name])
            drift += dm
        if problems:
            failures[name] = problems
    if workload == "figures" and RENDER_ITEM not in failures:
        drift += digest_mismatches(digests(out, "*.svg"), golden["figures"]["svg"])
    return len(names), failures, drift
