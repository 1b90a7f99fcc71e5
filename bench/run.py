"""Benchmark of the MISP reproduction: four workloads, golden-checked.

Run every workload (each in its own process), or one of them::

    python3 bench/run.py [--seed N] [--seconds S]
    python3 bench/run.py --workload fig4_execute --seed 3 --seconds 20
    python3 bench/run.py --workload store_serve --trace 1   # per-layer
    python3 bench/run.py --write-golden          # accept new outputs

One run builds the workload's inputs from ``--seed``, runs one
untimed warm-up round, then times whole rounds until ``--seconds``
have passed.  Every simulated output of every round is checked against
``bench/golden.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace 1``
its ``per_layer`` metrics.  The exit status is non-zero when any op
failed or any output missed its golden digest.

See ``bench/README.md`` for what each workload and metric is for.
"""

import time

#: ``setup_s`` starts here, before anything of ``repro`` is imported
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("fig4_execute", "sweep_replay", "store_serve", "observe_analyze")
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="timed seconds per run (default 16)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--out", type=Path,
                        help="append the run's record to this JSON-lines "
                             "file (input of bench/compare.py)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record every output's digest as the new "
                             "bench/golden.json")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_metrics() -> dict:
    """Metric names and units, by kind, from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def setup_seconds(args, kernel, cpus: set[int]) -> float:
    """Median set-up time of fresh processes, from their first line to
    the workload's inputs being built, normalized like op times.

    Set-up is interpreter work too: compiling or loading ``repro`` and
    running its module bodies.  Five kernel passes right after each
    sample, on the same CPU, measure the host speed it ran at.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples, passes = [], []
    for _ in range(SETUP_SAMPLES):
        kernel.pin_fastest_cpu(cpus)
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True, timeout=120)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
        passes.extend(kernel.seconds() for _ in range(5))
    return (statistics.median(samples) * kernel.REFERENCE_S
            / statistics.median(passes))


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def play(workload, golden, kernel, cpus: set[int], **meter_args):
    """One round on the least disturbed CPU; returns its meter."""
    import suite

    kernel.pin_fastest_cpu(cpus)
    return suite.Meter(golden, kernel, **meter_args).measure(workload)


def measure(workload, golden, kernel, cpus: set[int],
            seconds: float) -> tuple[dict, list]:
    """Untraced rounds: a warm-up, then whole rounds for ``seconds``.

    ``wall_s`` is a round with every op at its median over the timed
    rounds; the latency percentiles pool the ops of every timed round.
    """
    import suite

    warmup = play(workload, golden, kernel, cpus)
    timed: list = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(play(workload, golden, kernel, cpus))
    latencies = [t for m in timed for t in m.latencies]
    print(f"{workload.name}: {len(timed)} timed rounds, "
          f"{len(latencies)} op latencies", flush=True)
    metrics = {
        "wall_s": sum(statistics.median(op)
                      for op in zip(*(m.times for m in timed))),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": suite.peak_rss_mb(),
    }
    return metrics, [warmup] + timed


def measure_traced(workload, golden, kernel,
                   cpus: set[int]) -> tuple[dict, list]:
    """A warm-up and an untraced round, one round with boundary spans,
    one under ``cProfile`` (shares only: the profiler inflates
    absolute times).  Spans go to ``bench/results/trace.json``."""
    import ledger
    import suite

    warmup = play(workload, golden, kernel, cpus)
    base = play(workload, golden, kernel, cpus)
    tracer = ledger.Tracer()
    with ledger.instrumented(tracer):
        traced = play(workload, golden, kernel, cpus, tracer=tracer)
    profiler = ledger.Profiler()
    profiled = play(workload, golden, kernel, cpus, profiler=profiler)

    metrics = ledger.span_metrics(tracer.spans)
    metrics.update(ledger.profile_shares(profiler.stats()))
    for job in traced.jobs:
        for phase, seconds in job.metrics()["phases"].items():
            name = f"service.phase.{phase}_s"
            metrics[name] = metrics.get(name, 0.0) + seconds
    counts = traced.counts
    if counts.get("warm.store_lookups"):
        metrics["service.store.hit_ratio"] = (counts["warm.store_hits"]
                                              / counts["warm.store_lookups"])
    if counts.get("cold.requested"):
        metrics["service.inflight.joined_ratio"] = (
            counts["cold.inflight_joined"] / counts["cold.requested"])
    produced = (metrics.get("sim.replay.calls", 0)
                + metrics.get("systems.run.calls", 0))
    if produced:
        metrics["service.replay_share"] = (metrics.get("sim.replay.calls", 0)
                                           / produced)
    metrics["bench.trace_overhead"] = traced.wall / base.wall

    pid = WORKLOADS.index(workload.name) + 1
    path = suite.RESULTS / "trace.json"
    ledger.write_chrome_trace(
        path, pid, ledger.chrome_events(tracer.spans, workload.name, pid))
    print(f"{workload.name}: {len(tracer.spans)} spans written to {path}",
          flush=True)
    return metrics, [warmup, base, traced, profiled]


def fingerprint() -> dict:
    """The machine a record was measured on; compare.py refuses to
    compare records of different machines."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def git_sha() -> str:
    """The commit measured, marked ``-dirty`` when the tree differs."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--abbrev=40"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(args, units: dict) -> int:
    import suite

    workload = suite.build(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    golden = suite.Golden.load()
    kernel = suite.ReferenceKernel()
    cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else set())
    try:
        if args.trace:
            values, meters = measure_traced(workload, golden, kernel, cpus)
            names = units["per_layer"]
        else:
            values, meters = measure(workload, golden, kernel, cpus,
                                     args.seconds)
            values["setup_s"] = setup_seconds(args, kernel, cpus)
            names = units["end_to_end"]
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    for key in sorted(set(golden.mismatches)):
        print(f"{args.workload}: output differs from golden: {key}",
              file=sys.stderr)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in names.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}", flush=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "rounds": len(meters),
                  "round_wall_s": [m.wall for m in meters],
                  "git_sha": git_sha(), "fingerprint": fingerprint(),
                  **result}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; the last line
    sums their results, metrics named ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            status = status or 1
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total), flush=True)
    return status


def write_golden() -> int:
    """Record the digest of every output any seed can produce."""
    import suite

    golden = suite.Golden({}, record=True)
    kernel = suite.ReferenceKernel()
    for size in suite.SIZES:
        for name in WORKLOADS:
            meter = suite.Meter(golden, kernel).measure(
                suite.build(name, 0, size))
            if meter.failed:
                print(f"{name} ({size}): {meter.failed} ops failed; "
                      "golden file left unchanged", file=sys.stderr)
                return 1
    with open(suite.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(golden.expected.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden.expected)} digests to "
          f"{suite.GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        return run_all(args)
    return run_one(args, load_metrics())


if __name__ == "__main__":
    sys.exit(main())
