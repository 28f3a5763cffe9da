"""One benchmark pass, run by run.py in a fresh single-threaded process.

Usage: python3 bench/passrun.py --workload NAME --seed N --trace 0|1 --out DIR

A ``speed.SpeedProbe`` samples the core's speed from set-up to the end of
the timed window; ``wall_s`` and ``setup_speed`` come from it (see run.py).
Its handler takes about 1% of the window, which is taken out of ``wall_s``
but stays inside the spans of a traced pass.  Setup
(imports, input generation, loading the golden reference) runs first;
``t_first`` marks the first timed call.  The timed window runs the
workload's items.  A traced pass then calls every layer once on fixed
inputs under the tracer, writes its spans to ``spans-<workload>.jsonl``
beside DIR, and times single layers on fixed inputs untraced.
Outputs are checked outside the timed window.  The last line of standard
output is one JSON object with the pass's figures.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    import speed
    probe = speed.SpeedProbe()
    probe_start = time.perf_counter()
    probe.start()

    import workloads as wl
    golden = wl.load_golden()
    items = wl.select_items(args.workload, args.seed, golden)
    inputs = wl.build_inputs(args.workload, items)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    args.out.mkdir(parents=True)

    t_first = time.monotonic()
    start = time.perf_counter()
    results, errors = wl.run_items(args.workload, items, inputs, args.out)
    end = time.perf_counter()
    probe.stop()
    wall = end - start - probe.overhead(start, end)
    wall_speed, _ = probe.speed(start, end)
    setup_speed, setup_samples = probe.speed(probe_start, start)
    if setup_samples < 3:  # too short a set-up to sample: use the whole pass
        setup_speed, setup_samples = probe.speed(probe_start, end)

    layer = {}
    if tracer is not None:
        layers.probe_layers(args.out)
        tracer.uninstall()
        tracer.write(args.out.parent / f"spans-{args.workload}.jsonl")
        layer = {**tracer.metrics(), **layers.fixed_timings(args.out)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failures, drift = wl.check_pass(
        args.workload, items, inputs, results, errors, golden, args.out)
    print(json.dumps({
        "t_first": t_first,
        "setup_probe_s": probe.overhead(probe_start, start),
        "setup_speed": setup_speed,
        "raw_wall_s": wall,
        "wall_speed": wall_speed,
        "wall_s": wall * wall_speed,
        "items": [it["name"] for it in items],
        "completed": len(results),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "digest_mismatches": drift,
        "layer": layer,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
