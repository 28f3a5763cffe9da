"""Write golden.json: the pools of the seeded workloads and the reference
outcome of every item any seed can select, from the code as it is now.

Usage (from the repository root): python3 bench/golden.py

Run it only when the program's numbers are meant to change; the benchmark
then compares every later pass against the new reference.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_out"
    work.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="golden-", dir=work))
    try:
        golden = {}
        items = wl.select_items("figures", 0, {})
        results, errors = wl.run_items("figures", items, wl.build_inputs("figures", items), out)
        if errors:
            raise RuntimeError(f"figures failed: {errors}")
        golden["figures"] = {
            "experiments": {name: wl.experiment_outcome(r) for name, r in results.items()},
            "svg": wl.digests(out, "*.svg"),
        }
        golden["sweep"] = []
        for item in wl.sweep_pool():
            spec = wl.sweep_spec(item)
            result = wl.runner.run_experiment(spec, out_dir=out / item["name"])
            outcome = wl.experiment_outcome(result)
            golden["sweep"].append({**item, "outcome": outcome})
            print(item["name"], flush=True)
        golden["varieties"] = []
        for item in wl.fixed_variety_items() + wl.variety_pool():
            outcome = wl.run_variety(wl.variety_polynomial(item))
            problems = wl.variety_oracle(item, outcome)
            if problems:
                raise RuntimeError(f"{item['name']}: {problems}")
            golden["varieties"].append({**item, "outcome": outcome})
            print(item["name"], flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
