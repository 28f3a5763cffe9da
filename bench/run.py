"""stratopt benchmark: end-to-end and per-layer figures over three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload figures|sweep|varieties --seed N \
        --seconds S --trace 0|1

Every pass runs in a fresh, single-threaded Python process (passrun.py), so
each pass pays imports and any in-process cache fill, as ``stratopt run`` and
``scripts/reproduce_figures.py`` do.  Passes repeat until ``--seconds`` have
elapsed.  A timing is the median over passes.

``setup_s`` and ``wall_s`` are scaled to a reference machine speed: each pass
samples its core's speed while it runs (speed.py) and multiplies the time it
measured by that speed, so a pass that ran on a core slowed by other tenants
reports about the time it would have taken at the reference speed.  The pass
lines print the raw times (``raw_setup_s``, ``raw_wall_s``) and the speed
beside them.  ``items_per_s`` is items over the scaled ``wall_s``.

* ``--trace 0``: untraced passes only; the result holds the end-to-end metrics.
* ``--trace 1``: untraced and traced passes alternate; the result holds the
  per-layer metrics (medians over traced passes; see layers.py) and
  ``trace.overhead_frac``, the median over traced passes of the traced pass
  time over the time of the untraced pass before it, minus 1.

Every pass checks its outputs against golden.json and the oracles; a failed
item counts in ``failed``.  Artifact bytes that differ from the golden sha256
only count in ``digest_mismatches``.  Earlier output lines give the
environment, each pass, and every metric's quartiles and sample count; the
last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
WORKLOADS = ("figures", "sweep", "varieties")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "poly.eval_many.pts_per_s": "pts/s",
    "poly.grad_many.pts_per_s": "pts/s",
    "poly.hessian_many.pts_per_s": "pts/s",
    "poly.calls": "count",
    "poly.self_s": "s",
    "stratify.find_singular_points.calls": "count",
    "stratify.find_singular_points.self_s": "s",
    "stratify.stratify.self_s": "s",
    "resolve.count_components.g64_s": "s",
    "resolve.count_components.g128_s": "s",
    "resolve.count_components.occupied_cells": "count",
    "resolve.choose_resolution.self_s": "s",
    "resolve.choose_resolution.fixed_s": "s",
    "resolve.smoothness_check.self_s": "s",
    "resolve.proximity_check.self_s": "s",
    "resolve.project_to_level.calls": "count",
    "resolve.project_to_level.converged_frac": "frac",
    "model.loss_grad.calls_per_step": "calls/step",
    "model.fim.calls_per_step": "calls/step",
    "optim.us_per_step.gd_cone": "us",
    "optim.us_per_step.gd_hyp": "us",
    "optim.us_per_step.ngd_cone": "us",
    "optim.us_per_step.ngd_hyp": "us",
    "optim.us_per_step.sgd_cone": "us",
    "optim.steps": "count",
    "optim.steps_per_s": "1/s",
    "optim.records": "count",
    "optim.terminations.grad_tol": "count",
    "optim.terminations.loss_tol": "count",
    "optim.terminations.max_steps": "count",
    "optim.terminations.failed": "count",
    "optim.detect_stall.self_s": "s",
    "runner.run_experiment.self_s": "s",
    "tables.write_csv.self_s": "s",
    "tables.write_csv.fixed_s": "s",
    "tables.rows": "count",
    "tables.bytes": "B",
    "svgplot.plot.self_s": "s",
    "svgplot.plot.fixed_s": "s",
    "svgplot.bytes": "B",
    "trace.overhead_frac": "frac",
    "digest_mismatches": "count",
}


def source_record() -> dict:
    """Commit (when the checkout is a git work tree) and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stratopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown: not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_pass(args, traced: bool, index: int, deadline: float) -> dict:
    """Run one pass process and return its record (``error`` set on failure)."""
    out = WORK / f"pass-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--out", str(out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "pass timed out"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    record = json.loads(lines[-1])
    record["traced"] = traced
    record["raw_setup_s"] = record["t_first"] - t_spawn - record["setup_probe_s"]
    record["setup_s"] = record["raw_setup_s"] * record["setup_speed"]
    record["items_per_s"] = record["completed"] / record["wall_s"]
    record["duration_s"] = time.monotonic() - t_spawn
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description="stratopt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "stratopt" / "__init__.py").is_file():
        print(f"error: no stratopt sources under {ROOT / 'src'}; run from the root "
              "of a stratopt checkout", file=sys.stderr)
        return 2
    if not (BENCH / "golden.json").is_file():
        print("error: bench/golden.json is missing; write it with bench/golden.py",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    longest = {False: 0.0, True: 0.0}
    while True:
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        done_minimum = untraced and (traced or not args.trace)
        now = time.monotonic()
        # start another pass only if it would end less than half a pass past --seconds
        if done_minimum and (now - start + 0.5 * longest[want_traced] >= args.seconds
                             or now + longest[want_traced] > deadline):
            break
        if now >= deadline:
            break
        record = run_pass(args, want_traced, len(passes), deadline)
        longest[want_traced] = max(longest[want_traced], record.get("duration_s", 0.0))
        passes.append(record)
        print("pass " + json.dumps({k: record.get(k) for k in (
            "traced", "wall_s", "raw_wall_s", "wall_speed", "setup_s", "raw_setup_s",
            "peak_rss_mb", "attempted", "failures",
            "digest_mismatches", "error")}), flush=True)
        if "error" in record and len(passes) == 1:
            break  # the first pass could not run at all: nothing to measure

    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no pass completed; " + "; ".join(p["error"] for p in passes if "error" in p),
              file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in good) + len(passes) - len(good)
    failed = sum(len(p["failures"]) for p in good) + len(passes) - len(good)
    print("env " + json.dumps({**good[0]["env"], **source_record(),
                                "nproc": os.cpu_count(),
                                "affinity": len(os.sched_getaffinity(0)),
                                "workload": args.workload, "seed": args.seed,
                                "items": good[0]["items"]}))

    samples: dict[str, list[float]] = {}
    if args.trace:
        for name in PER_LAYER:
            if name in traced[0]["layer"]:
                samples[name] = [p["layer"][name] for p in traced]
        # each traced pass against the untraced pass just before it, so that
        # slow drifts in machine speed mostly cancel
        samples["trace.overhead_frac"] = [
            p["wall_s"] / before["wall_s"] - 1.0
            for before, p in zip(passes, passes[1:])
            if p["traced"] and "error" not in p and not before["traced"] and "error" not in before
        ]
        samples["digest_mismatches"] = [max(p["digest_mismatches"] for p in good)]
        units = PER_LAYER
    else:
        for name in END_TO_END:
            samples[name] = [p[name] for p in untraced]
        units = END_TO_END
    missing = {name for name in units if not samples.get(name)}
    if missing:
        print(f"error: passes did not report {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in units.items():
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        print("metric " + json.dumps({"name": name, "unit": unit, "median": med,
                                       "q1": q1, "q3": q3, "n": len(samples[name])}))
    print("summary " + json.dumps({"failed_frac": failed / attempted,
                                    "passes": len(passes),
                                    "elapsed_s": time.monotonic() - start}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
