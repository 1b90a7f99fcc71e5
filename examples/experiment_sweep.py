"""Declare-and-run experiment grids with repro.experiments.

Demonstrates the orchestration subsystem end to end:

1. declare a grid (workloads x systems) plus a parameter sweep;
2. run it through one Runner -- shared runs deduplicate, independent
   runs execute in parallel worker processes;
3. re-run it to show the in-memory memo (and, with --cache-dir, the
   on-disk store) serving repeat invocations.

Run me:  PYTHONPATH=src python examples/experiment_sweep.py
"""

import argparse
import time

from repro.experiments import ExperimentSpec, Runner, RunSpec
from repro.params import DEFAULT_PARAMS

SCALE = 0.1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="persist finished runs on disk")
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args()
    runner = Runner(store=args.cache_dir or None, max_workers=args.jobs)

    # --- a Figure-4-shaped grid, plus a signal-cost sweep ------------
    grid = ExperimentSpec.grid(
        "speedups", ["RayTracer", "gauss", "dense_mmm"],
        systems=[("1p", "smp1"), ("misp", "1x8"), ("smp", "smp8")],
        scale=SCALE)
    sweep = ExperimentSpec("signal-sweep", tuple(
        RunSpec("RayTracer", "misp", "1x8", scale=SCALE,
                params=DEFAULT_PARAMS.with_changes(signal_cost=cost))
        for cost in (0, 500, 5000)))

    t0 = time.time()
    result = runner.run_experiment(grid + sweep)
    print(f"ran {len(result)} unique simulations "
          f"in {time.time() - t0:.1f}s  [{runner.stats}]")

    print(f"\n{'workload':12s} {'system':6s} {'config':6s} "
          f"{'cycles':>14s} {'proxy':>6s}")
    for summary in result.summaries():
        print(f"{summary.workload:12s} {summary.system:6s} "
              f"{summary.config:6s} {summary.cycles:>14,} "
              f"{summary.proxy.requests:>6d}")

    # --- repeat invocation: served without simulating ----------------
    t0 = time.time()
    runner.run_experiment(grid + sweep)
    print(f"\nsecond invocation: {time.time() - t0:.3f}s  "
          f"[{runner.stats}]")


if __name__ == "__main__":
    main()
