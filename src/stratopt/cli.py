"""Command-line entry points.

Subcommands: ``stratify`` (singular-point report), ``resolve`` (deformation
level choice and checks), ``run`` (experiment from a config file or preset),
``plot`` (CSV to SVG), and ``check`` (independent oracle suite; exits
nonzero on any violation).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from . import tables
from .config import load_config
from .model import Chart, ChartPoint, GaussianLocationModel
from .optim import OptimizerConfig, ngd_step
from .poly import Polynomial, parse_polynomial
from .presets import PRESET_NAMES, preset
from .resolve import (MAX_SAMPLES, count_levels, decide, default_region, level_samples,
                      local_pieces)
from .runner import run_experiment
from .stratify import Region, stratify
from .svgplot import KINDS, plot
from .verify import central_differences, finite_diff_grad, monte_carlo_fim, natural_gradient


def _sample_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    if n > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_SAMPLES}, got {n}")
    return n


def _parse_region(text: str | None, dim: int) -> Region:
    if text is None:
        return default_region(dim)
    try:
        lo, hi = map(float, text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"--region needs two numbers 'lo,hi', got {text!r}") from None
    try:
        return Region.cube(lo, hi, dim)
    except ValueError as exc:
        raise ValueError(f"--region {text!r}: {exc}") from None


def _cmd_stratify(args) -> int:
    p = parse_polynomial(args.polynomial, nvars=args.nvars)
    region = _parse_region(args.region, p.nvars)
    result = stratify(p, args.level, region)
    print(f"variety: {p.to_string()}")
    print(f"level: {args.level:g}")
    print(f"region: [{region.lower[0]:g}, {region.upper[0]:g}]^{region.dim}")
    print(f"singular points: {len(result.singular_points)}")
    for i, (s, r) in enumerate(zip(result.singular_points, result.ball_radii)):
        coords = ", ".join(f"{v:.9g}" for v in s)
        print(f"  s{i} = ({coords})  ball_radius = {r:.6g}")
    print(f"regular stratum dimension: {result.regular_dim}")
    if args.csv:
        fields = [f"x{j}" for j in range(p.nvars)]
        tables.write_csv(args.csv, fields, [s.tolist() for s in result.singular_points])
        print(f"singular points written to {args.csv}")
    return 0


def _cmd_resolve(args) -> int:
    p = parse_polynomial(args.polynomial, nvars=args.nvars)
    region = _parse_region(args.region, p.nvars)
    levels = count_levels(p, args.eps, region, args.grid_n)
    for d, rep in levels:
        print(f"level {d.level:+g}: {rep.count} component(s), "
              f"{rep.occupied_cells} occupied cells")
    chosen, reason, inertia = decide(p, args.eps, region, levels=levels)
    print(f"chosen level: {chosen.level:+g}")
    if inertia is not None:  # the Morse rule ordered the levels
        print("morse: " + "; ".join(
            f"{n} singular point(s) of Hessian inertia {k}: {local_pieces(k[0])} local "
            f"piece(s) at {args.eps:+g}, {local_pieces(k[1])} at {-args.eps:+g}"
            for k, n in Counter(inertia).items()))
    if reason == "tie":
        print(f"tie: both levels have {levels[0][1].count} component(s); "
              f"{chosen.level:+g} wins only by tie-break")
    elif reason == "smoothness":  # of two levels, the other one was skipped
        print(f"fallback: {-chosen.level:+g} fails the smoothness check: "
              "a singular point lies on the level")
    print("smoothness check: pass")  # choose returns only a level that passed it
    if args.csv:
        keep = level_samples(chosen, args.samples)
        fields = [f"x{j}" for j in range(p.nvars)]
        tables.write_csv(args.csv, fields, keep.tolist())
        print(f"{len(keep)} deformation samples written to {args.csv}")
    return 0


def _cmd_run(args) -> int:
    spec = preset(args.preset) if args.preset else load_config(args.config)
    result = run_experiment(spec, out_dir=args.out)
    n_traj = len(result.trajectory_paths)
    print(f"experiment {spec.name!r} -> {result.out_dir}")
    if result.quiver_path:
        print(f"quiver field: {result.quiver_path}")
    else:
        print(f"{n_traj} trajectories, {result.n_failures} failure(s)")
    return 0 if result.n_failures == 0 else 1


def _cmd_plot(args) -> int:
    out = plot(args.csvs, args.kind, args.out)
    print(f"wrote {out}")
    return 0


def _check_poly_gradients(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        nvars = int(rng.integers(1, 5))
        n_terms = int(rng.integers(1, 7))
        coeffs = {}
        for _ in range(n_terms):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=nvars))
            coeffs[exps] = coeffs.get(exps, 0.0) + float(rng.uniform(-3, 3))
        p = Polynomial(nvars, coeffs)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=nvars)
            fd = central_differences(p.eval, x)
            g = p.grad(x)
            worst = max(worst, float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))))
    return worst < 1e-6, f"max rel err {worst:.3e}"


def _check_chart_gradients(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        chart = Chart.cone() if rng.random() < 0.5 else Chart.hyperboloid(float(rng.uniform(0.01, 1.0)))
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)))
        xbar = Chart.cone().embed(ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4))))
        xbar = xbar + rng.normal(0, 0.5, size=3)
        m = GaussianLocationModel(chart, xbar)
        fd = finite_diff_grad(m.loss, q)
        g = m.loss_grad(q)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))))
    return worst < 1e-6, f"max rel err {worst:.3e}"


def _check_information_closed_forms(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        xi = float(rng.uniform(-2, 2))
        theta = float(rng.uniform(-4, 4))
        q = ChartPoint(xi, theta)
        m = GaussianLocationModel(Chart.cone(), np.zeros(3))
        worst = max(worst, float(np.abs(m.fim(q) - np.diag([2.0, xi * xi])).max()))
        for eps in (0.01, 0.1, 1.0):
            mh = GaussianLocationModel(Chart.hyperboloid(eps), np.zeros(3))
            expected = np.diag([(eps + 2 * xi * xi) / (eps + xi * xi), eps + xi * xi])
            worst = max(worst, float(np.abs(mh.fim(q) - expected).max()))
    return worst < 1e-12, f"max abs dev {worst:.3e}"


def _check_monte_carlo_information(rng) -> tuple[bool, str]:
    worst = 0.0
    for k in range(10):
        chart = Chart.cone() if k % 2 == 0 else Chart.hyperboloid(float(rng.uniform(0.05, 1.0)))
        q = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-4, 4)))
        m = GaussianLocationModel(chart, np.zeros(3))
        estimate = monte_carlo_fim(m, q, n=200_000, seed=1000 + k)
        exact = m.fim(q)
        rel = float(np.linalg.norm(estimate - exact) / np.linalg.norm(exact))
        worst = max(worst, rel)
    return worst < 0.05, f"max Frobenius rel err {worst:.3%}"


def _check_natural_gradient_steps(rng) -> tuple[bool, str]:
    # an uncapped step of 1e-3 of the point's size: lr * d, lr = size / max|d|
    worst = 0.0
    for k in range(300):
        chart = Chart.cone() if k % 2 == 0 else Chart.hyperboloid(float(10.0 ** rng.uniform(-4, 2)))
        xi = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 8))
        q = ChartPoint(xi, float(rng.uniform(-4, 4)))
        m = GaussianLocationModel(chart, rng.normal(0, 1, size=3))
        damping = (0.0, 1e-8, 1e-3)[k % 3]
        d = natural_gradient(m, q, damping)
        size = 1e-3 * max(1.0, abs(q.xi), abs(q.theta))
        step_size = size / float(np.abs(d).max())
        cfg = OptimizerConfig(method="ngd", damping=damping, step_size=step_size, step_cap=1e300)
        try:
            q1 = ngd_step(m, q, cfg)
        except (RuntimeError, ValueError) as exc:
            return False, f"point {k} raised {type(exc).__name__}: {exc}"
        got = np.array([q.xi - q1.xi, q.theta - q1.theta])
        worst = max(worst, float(np.abs(got - step_size * d).max()) / size)
    return worst < 1e-10, f"max rel err {worst:.3e}"


def _cmd_check(args) -> int:
    rng = np.random.default_rng(17)
    suite = [
        ("polynomial gradients vs central differences", _check_poly_gradients),
        ("chart loss gradients vs central differences", _check_chart_gradients),
        ("information matrix closed forms", _check_information_closed_forms),
        ("Monte-Carlo information estimate", _check_monte_carlo_information),
        ("natural gradient steps vs numpy's solve", _check_natural_gradient_steps),
    ]
    all_ok = True
    for name, fn in suite:
        ok, detail = fn(rng)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    print("oracle suite:", "all good" if all_ok else "VIOLATIONS FOUND")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratopt",
        description="singular parameter spaces: stratification, smooth deformations, "
                    "and learning dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("stratify", help="report singular points and strata of a variety")
    s.add_argument("polynomial", help="sum-of-monomials text, e.g. 'x1^2 + x2^2 - x0^2'")
    s.add_argument("--level", type=float, default=0.0)
    s.add_argument("--region", help="axis bounds 'lo,hi' (all axes; default -2,2)")
    s.add_argument("--nvars", type=int, default=None)
    s.add_argument("--csv", default=None, help="write singular points to this CSV")
    s.set_defaults(func=_cmd_stratify)

    r = sub.add_parser("resolve", help="choose and check a smooth deformation level")
    r.add_argument("polynomial")
    r.add_argument("--eps", type=float, required=True)
    r.add_argument("--region", help="axis bounds 'lo,hi' (all axes; default -2,2)")
    r.add_argument("--nvars", type=int, default=None)
    r.add_argument("--grid-n", type=int,
                   help="lattice cells per axis (default 64; 43 in 4-D, 19 in 5-D)")
    r.add_argument("--samples", type=_sample_count, default=2000,
                   help="points sampled for --csv")
    r.add_argument("--csv", default=None, help="write sampled deformation points to this CSV")
    r.set_defaults(func=_cmd_resolve)

    run_p = sub.add_parser("run", help="run an experiment from a config file or preset")
    group = run_p.add_mutually_exclusive_group(required=True)
    group.add_argument("config", nargs="?", default=None, help="path to a config file")
    group.add_argument("--preset", choices=PRESET_NAMES, default=None)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    plot_p = sub.add_parser("plot", help="render experiment CSVs to SVG")
    plot_p.add_argument("csvs", nargs="+")
    plot_p.add_argument("--kind", choices=KINDS, required=True)
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(func=_cmd_plot)

    check_p = sub.add_parser("check", help="run the independent oracle suite")
    check_p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, RuntimeWarning, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
