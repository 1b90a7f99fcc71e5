"""Figure P: MISP-vs-SMP across functional-unit counts (scoreboard).

Figure 4 compares the systems under the paper's fixed per-op cost
model.  With the ``scoreboard`` timing model
(:mod:`repro.timing.scoreboard`) the comparison gains a
microarchitectural axis the paper's testbed could not vary: the width
of the execution core.  All sequencers of one MISP processor issue
into a *shared* pool of functional units, so MISP pays structural
hazards that single-sequencer processors (the SMP workers, the 1P
baseline) never see -- with one ALU and one memory unit, eight shreds
time-slice a single execution core; with eight of each they issue
unimpeded.

The sweep therefore holds everything fixed and varies
``sb_alu_units`` / ``sb_mem_units`` together, re-plotting the
Figure-4-style speedups at each width.  The expected shape (asserted
in ``tests/test_timing.py``): MISP cycles fall monotonically as units
are added -- so the MISP speedup rises monotonically -- while the SMP
curve stays flat, quantifying how much of the paper's MISP advantage
assumes an execution core wide enough for its shred gang.

Scoreboard runs are execution-driven only (no capture/replay), but
they dedup, parallelize, and cache like any grid: ``timing_model`` is
part of every spec hash, so these runs never collide with the fixed
model's.  Each row is a :class:`~repro.analysis.figure4.SpeedupRow`
whose ``point`` is the FU count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.figure4 import (
    DEFAULT_AMS_COUNT, SpeedupRow, _comparison_rows, _systems,
)
from repro.experiments import ExperimentSpec, Runner, default_runner
from repro.params import DEFAULT_PARAMS, MachineParams

#: functional-unit counts swept (applied to ALU and memory pools
#: alike); 1 = one shared execution core, 8 = one unit per sequencer
#: of the default 1x8 MISP partition
FIGURE_PIPELINE_FU_COUNTS = (1, 2, 4, 8)

#: the workload the sweep defaults to
DEFAULT_WORKLOAD = "RayTracer"


def figure_pipeline_experiment(
        workload: str = DEFAULT_WORKLOAD,
        fu_counts: Sequence[int] = FIGURE_PIPELINE_FU_COUNTS,
        ams_count: int = DEFAULT_AMS_COUNT,
        params: MachineParams = DEFAULT_PARAMS,
        scale: Optional[float] = None) -> ExperimentSpec:
    """Declare the grid point-major: each FU count on
    ``{1p, misp, smp}``, scoreboard."""
    return ExperimentSpec("figure_pipeline", tuple(
        spec for fu_count in fu_counts
        for spec in ExperimentSpec.grid(
            "figure_pipeline", [workload], _systems(ams_count), scale=scale,
            params=params.with_changes(sb_alu_units=fu_count,
                                       sb_mem_units=fu_count),
            timing_model="scoreboard").runs))


def run_figure_pipeline(workload: str = DEFAULT_WORKLOAD,
                        fu_counts: Sequence[int] = FIGURE_PIPELINE_FU_COUNTS,
                        ams_count: int = DEFAULT_AMS_COUNT,
                        params: MachineParams = DEFAULT_PARAMS,
                        scale: Optional[float] = None,
                        runner: Optional[Runner] = None
                        ) -> list[SpeedupRow]:
    """Execute the sweep: one row per FU count, ``point`` = the count."""
    runner = runner or default_runner()
    result = runner.run_experiment(figure_pipeline_experiment(
        workload, fu_counts, ams_count, params, scale))
    return _comparison_rows(fu_counts, result)


def format_figure_pipeline(rows: Sequence[SpeedupRow]) -> str:
    """Render the sweep as a table of speedups per core width."""
    if not rows:
        return "figure_pipeline: no rows"
    header = (f"{rows[0].workload} (scoreboard): {'FUs':>4s} "
              f"{'MISP':>6s} {'SMP':>6s} {'Δ(M/S)':>8s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{'':{len(rows[0].workload) + 14}s} {row.point:>4d} "
            f"{row.misp_speedup:6.2f} {row.smp_speedup:6.2f} "
            f"{row.misp_vs_smp * 100:+7.2f}%")
    first, last = rows[0], rows[-1]
    lines.append(
        f"MISP speedup {first.misp_speedup:.2f} -> {last.misp_speedup:.2f} "
        f"as shared FU pool widens {first.point} -> {last.point} "
        "(single-sequencer SMP cores never contend)")
    return "\n".join(lines)
