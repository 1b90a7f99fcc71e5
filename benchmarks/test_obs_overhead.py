"""Observability overhead gate: instrumented runs must stay cheap.

Two guarantees, one per test:

* ``test_obs_overhead_observed`` times the **observed** Figure 4 smoke
  grid (``Session.observe(...)``: signal counting closure, fine
  trace records, end-of-run registry pump) as a committed
  ``BENCH_baseline.json`` entry, so the cost of observability itself
  has a regression trajectory like every other artifact.
* ``test_obs_overhead_ratio`` runs the same grid plain and observed
  (interleaved rounds, best-of-N per side, same process) and gates the
  enabled-observability overhead below ``OVERHEAD_LIMIT`` -- the
  "zero-cost when disabled, cheap when enabled" contract from the
  observability layer.

The grid is the Figure 4 system triple on one workload at smoke scale;
structure (per-event instant records, the per-run registry pump) is
what costs, not workload size, so the small grid bounds the full one.
"""

import os
import time

from conftest import run_once

from repro.obs import MetricsRegistry
from repro.systems import Session

#: workload scale for the overhead grid (kept small: the gate measures
#: instrumentation structure, which is scale-invariant)
SMOKE_SCALE = float(os.environ.get("REPRO_OBS_BENCH_SCALE", "0.05"))
WORKLOAD = "dense_mvm"
#: the Figure 4 system triple (1P denominator, MISP, SMP baseline)
GRID = (("1p", "smp1"), ("misp", "1x8"), ("smp", "smp8"))
#: observed / plain wall-clock ratio ceiling
OVERHEAD_LIMIT = 1.10
#: plain/observed round pairs timed by the ratio gate
ROUNDS = 9


def _run_grid(observe: bool) -> None:
    registry = MetricsRegistry() if observe else None
    for system, config in GRID:
        session = Session(system, config)
        if observe:
            session = session.observe(registry=registry,
                                      run_id=f"bench-{system}")
        session.run(WORKLOAD, scale=SMOKE_SCALE)


def test_obs_overhead_observed(benchmark):
    run_once(benchmark, lambda: _run_grid(observe=True))


def test_obs_overhead_ratio():
    # plain and observed rounds alternate, so drift in the host's
    # speed lands on both sides alike; the minimum of several runs of
    # a deterministic simulation is a stable wall-clock estimator
    best = {False: float("inf"), True: float("inf")}
    for _ in range(ROUNDS):
        for observe in (False, True):
            t0 = time.perf_counter()
            _run_grid(observe)
            best[observe] = min(best[observe], time.perf_counter() - t0)
    plain, observed = best[False], best[True]
    ratio = observed / plain
    print(f"\nobservability overhead: plain {plain:.3f}s, "
          f"observed {observed:.3f}s, ratio {ratio:.3f}")
    assert ratio < OVERHEAD_LIMIT, (
        f"enabled observability costs {(ratio - 1) * 100:.1f}% "
        f"(limit {(OVERHEAD_LIMIT - 1) * 100:.0f}%)")
