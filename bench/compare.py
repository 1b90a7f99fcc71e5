"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl

``A`` and ``B`` are JSON-lines files that ``bench/run.py --out``
appended run records to, typically ten runs per workload, each with
another ``--seed``.  For every (workload, end-to-end metric) it prints
each side's median and quartiles, and B's change against A's median
judged by the metric's bound in ``BENCHMARK.json``:

* ``ok`` -- B is worse than A by no more than the bound;
* ``better`` -- B is better than A by more than the bound;
* ``REGRESSION`` -- B is worse than A by more than the bound;
* ``unresolved`` -- a side's spread (interquartile range over median)
  exceeds the bound, so the runs cannot tell, unless every run of B
  reads better than every run of A.

Records from different machines (Python version, CPU count, CPU model)
are refused: timings taken on two machines compare the machines.
Exit status: 0 without regressions, 1 with any, 2 when refused.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """B's change against A as a share of A's median, and its verdict."""
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1]
    worse = change if better == "lower" else -change
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        b_wins = (max(b) < min(a) if better == "lower" else min(b) > max(a))
        return change, "better" if b_wins else "unresolved"
    if worse > bound:
        return change, "REGRESSION"
    return change, "better" if worse < -bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="baseline run records")
    parser.add_argument("b", type=Path, help="candidate run records")
    args = parser.parse_args(argv)
    sides = {"A": [r for r in load(args.a) if not r["trace"]],
             "B": [r for r in load(args.b) if not r["trace"]]}

    machines = {json.dumps(r["fingerprint"], sort_keys=True)
                for records in sides.values() for r in records}
    if len(machines) != 1:
        print("refused: the records come from different machines:",
              *sorted(machines), sep="\n  ", file=sys.stderr)
        return 2
    print(f"machine: {machines.pop()}")
    for side, records in sides.items():
        shas = sorted({r["git_sha"][:12] + r["git_sha"][40:]
                       for r in records})
        print(f"{side}: {len(records)} runs of {', '.join(shas)}")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    workloads = sorted({r["workload"] for r in sides["A"]}
                       & {r["workload"] for r in sides["B"]})
    print(f"{'workload':16s} {'metric':12s} {'A median [q1, q3]':>28s} "
          f"{'B median [q1, q3]':>28s} {'change':>8s} {'bound':>6s}  verdict")
    regressions = 0
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a, b = ([r["metrics"][name]["value"] for r in sides[side]
                     if r["workload"] == workload and name in r["metrics"]]
                    for side in ("A", "B"))
            if not a or not b:
                continue
            change, word = verdict(a, b, metric["better"], metric["bound"])
            regressions += word == "REGRESSION"
            cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v))
                     for v in (a, b)]
            print(f"{workload:16s} {name:12s} {cells[0]:>28s} "
                  f"{cells[1]:>28s} {change:+8.1%} {metric['bound']:6.0%}  "
                  f"{word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
