"""MISP multiprocessor throughput under load (Figure 7 in miniature).

Runs the shredded RayTracer with 0..4 background single-threaded
processes on three eight-sequencer partitions plus the SMP baseline
and the per-load ideal partition, and prints the speedup-vs-unloaded
curves.  Watch 1x8 collapse (every background process time-shares the
one OMS and idles the AMSs) while 4x2 stays flat.

Run:  python examples/multiprogramming.py [rt_scale]
"""

import sys

from repro.analysis.figure7 import run_figure7

CONFIGS = ["ideal", "smp", "4x2", "2x4", "1x8"]


def main():
    rt_scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    loads = range(5)
    # one declared grid: shared points run once, independent ones in
    # parallel worker processes
    result = run_figure7(series=CONFIGS, loads=loads, rt_scale=rt_scale)
    print(f"RayTracer speedup vs unloaded (rt_scale={rt_scale})")
    print(f"{'config':8s} " + " ".join(f"load={n:<2d}" for n in loads))
    for config in CONFIGS:
        curve = result.curve(config)
        print(f"{config:8s} " + " ".join(f"{v:7.3f}" for v in curve))


if __name__ == "__main__":
    main()
