"""Figure M: sensitivity to the memory hierarchy (a new sweep axis).

The paper fixes the memory system and sweeps the signal cost
(Figure 5); with the hierarchy modelled in :mod:`repro.mem.hierarchy`
the dual experiment becomes possible: hold the MISP parameters fixed
and sweep the *miss penalty* (``MachineParams.mem_cost``), comparing
the three Figure 4 systems at every point.  Because MISP shreds share
their processor's L2 while SMP workers run behind private L2s, the
sweep separates the two effects the hierarchy models:

* both parallel speedups stay well above 1 but *decline* monotonically
  as memory slows: the 1P baseline runs the whole gang through one L1
  (its working set stays warm), while eight sequencers split the
  working set and re-miss on migrated shreds, so a larger miss
  penalty taxes the parallel systems relatively more;
* the MISP-vs-SMP gap tracks the coherence/sharing difference the
  flat-memory model could not express: MISP's lock and data ping-pong
  refills from the shared L2, SMP's goes to memory through cross-L2
  invalidations.

Declared as a ``mem_cost x {1p, misp, smp}`` grid of RunSpecs, so the
Runner deduplicates, parallelizes, and caches it like every other
figure.  It is Figure 4's comparison along a swept axis: each row is
a :class:`~repro.analysis.figure4.SpeedupRow` whose ``point`` is the
``mem_cost``, and whose ``misp.mem`` / ``smp.mem`` carry the cache
behaviour.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.figure4 import (
    DEFAULT_AMS_COUNT, SpeedupRow, _comparison_rows, _systems,
)
from repro.experiments import ExperimentSpec, Runner, default_runner
from repro.params import DEFAULT_PARAMS, MachineParams

#: miss penalties (cycles) evaluated by the sweep; the default
#: ``mem_cost`` (60) sits at the low end, 960 models a deep
#: memory-bound regime
FIGURE_MEM_COSTS = (15, 60, 240, 960)

#: the workload the sweep defaults to (most memory-intensive scaling)
DEFAULT_WORKLOAD = "RayTracer"


def figure_mem_experiment(workload: str = DEFAULT_WORKLOAD,
                          mem_costs: Sequence[int] = FIGURE_MEM_COSTS,
                          ams_count: int = DEFAULT_AMS_COUNT,
                          params: MachineParams = DEFAULT_PARAMS,
                          scale: Optional[float] = None) -> ExperimentSpec:
    """Declare the sweep grid point-major: each ``mem_cost`` on
    ``{1p, misp, smp}``."""
    return ExperimentSpec("figure_mem", tuple(
        spec for mem_cost in mem_costs
        for spec in ExperimentSpec.grid(
            "figure_mem", [workload], _systems(ams_count), scale=scale,
            params=params.with_changes(mem_cost=mem_cost)).runs))


def run_figure_mem(workload: str = DEFAULT_WORKLOAD,
                   mem_costs: Sequence[int] = FIGURE_MEM_COSTS,
                   ams_count: int = DEFAULT_AMS_COUNT,
                   params: MachineParams = DEFAULT_PARAMS,
                   scale: Optional[float] = None,
                   runner: Optional[Runner] = None) -> list[SpeedupRow]:
    """Execute the sweep: one row per miss penalty, ``point`` = the
    ``mem_cost``."""
    runner = runner or default_runner()
    result = runner.run_experiment(
        figure_mem_experiment(workload, mem_costs, ams_count, params, scale))
    return _comparison_rows(mem_costs, result)


def format_figure_mem(rows: Sequence[SpeedupRow]) -> str:
    """Render the sweep as a table of speedups and cache behaviour."""
    if not rows:
        return "figure_mem: no rows"
    header = (f"{rows[0].workload}: {'mem_cost':>8s} {'MISP':>6s} "
              f"{'SMP':>6s} {'Δ(M/S)':>8s}   "
              f"{'L2 hit% M/S':>12s} {'L1 inval M/S':>14s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{'':{len(rows[0].workload) + 1}s} {row.point:>8d} "
            f"{row.misp_speedup:6.2f} {row.smp_speedup:6.2f} "
            f"{row.misp_vs_smp * 100:+7.2f}%   "
            f"{row.misp.mem.l2_hit_rate * 100:5.1f}/"
            f"{row.smp.mem.l2_hit_rate * 100:<5.1f} "
            f"{row.misp.mem.l1_invalidations:>6d}/"
            f"{row.smp.mem.l1_invalidations:<6d}")
    first, last = rows[0], rows[-1]
    lines.append(
        f"MISP speedup {first.misp_speedup:.2f} -> {last.misp_speedup:.2f} "
        f"as mem_cost {first.point} -> {last.point} "
        f"(shared-L2 hierarchy; SMP pays "
        f"{last.smp.mem.l2_invalidations} cross-L2 invalidations)")
    return "\n".join(lines)
