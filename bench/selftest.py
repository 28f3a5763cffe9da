"""Self-test of the benchmark.

Usage, from the repository root: python3 bench/selftest.py

Checks that
* one seed always selects the same inputs, another seed selects other
  ``sweep`` and ``varieties`` inputs, and ``figures`` ignores the seed;
* a minimal run (``--seconds 1``) of every workload prints exactly the
  metrics BENCHMARK.json names, with their units, for ``--trace 0`` and
  ``--trace 1``, and reports no failed item;
* in a directory that holds only BENCHMARK.json and the benchmark's files,
  run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402


def check_seeds(golden):
    for workload in wl.WORKLOADS:
        first, again, other = (wl.build_inputs(workload, wl.select_items(workload, seed, golden))
                               for seed in (1, 1, 2))
        assert first == again, f"{workload}: seed 1 gave different inputs twice"
        if workload == "figures":
            assert first == other, "figures depends on the seed"
        else:
            assert first != other, f"{workload}: seeds 1 and 2 gave the same inputs"
        print(f"ok   seeds: {workload}")


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (f"{workload} trace {trace}: extra "
                                     f"{sorted(set(got) - set(declared))}, missing "
                                     f"{sorted(set(declared) - set(got))}")
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            print(f"ok   metrics: {workload} --trace {trace}")


def check_bare_directory():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "figures", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the program's sources"
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print("ok   bare directory: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_seeds(wl.load_golden())
    check_bare_directory()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
