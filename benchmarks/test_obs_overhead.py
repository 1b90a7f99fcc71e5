"""Observability overhead gate: instrumented runs must stay cheap.

``test_obs_overhead_ratio`` runs the Figure 4 smoke grid plain and
**observed** (``Session.observe(...)``: the machine's stall account,
noted at each serialization stage, fine trace records, and
registration of the finished run as a metrics collector) in
interleaved rounds, best-of-N per side, in one process, and gates
the enabled-observability overhead below ``OVERHEAD_LIMIT`` -- the
"coarse counts only when disabled, cheap when enabled" contract from
the observability layer.  Both sides keep the coarse counts every
run keeps (TraceLog totals, signal counts).  The registry reads an observed run's families
only when it exports, and this gate exports nothing, so it times what
every observed run pays.

The grid is the Figure 4 system triple on one workload at smoke scale;
structure (per-event instant records) is what costs, not workload
size, so the small grid bounds the full one.
"""

import time

from repro.obs import MetricsRegistry
from repro.systems import Session

#: workload scale for the overhead grid (kept small: the gate measures
#: instrumentation structure, which is scale-invariant)
SMOKE_SCALE = 0.05
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
