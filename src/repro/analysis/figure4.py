"""Figure 4: MISP vs SMP speedup over 1P, for all 16 applications.

"Figure 4 shows, for each application, MISP performance as speedup
over single sequencer performance.  For comparison, we also show the
performance for those same applications when executing on a similarly
configured SMP machine with eight cores."  (Section 5.3)

The companion text also gives the two summary statistics this module
computes: "The RMS applications perform, on average, 1.5% slower on
MISP than their performance on the SMP system, while the SPEComp
applications perform, on average, 1.9% faster on MISP."

The experiment is declared as a ``workloads x {1p, misp, smp}`` grid
over :mod:`repro.experiments`; the Runner deduplicates runs shared
with Table 1 / Figure 5 and executes grid members in parallel.

The comparison itself is shared with Figure M and Figure P, which
re-plot it along one swept axis: every three-system grid is built
point-major (each point's runs in :func:`_systems` order), and its
rows (:class:`SpeedupRow`) are the result's summaries read three at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.core.notation import config_name
from repro.experiments import (
    ExperimentSpec, Runner, RunSummary, default_runner,
)
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.service import ExperimentResult, ExperimentService
from repro.workloads.base import REGISTRY

#: AMS count of the paper's MISP uniprocessor prototype (1 OMS + 7 AMS)
DEFAULT_AMS_COUNT = 7


@dataclass(frozen=True)
class SpeedupRow:
    """One point of a three-system comparison: a Figure 4 bar pair, or
    one swept point of Figure M or Figure P.

    ``point`` is what the row stands for (a workload, a ``mem_cost``,
    an FU count); ``one_p``, ``misp`` and ``smp`` are the point's runs.
    """

    point: Union[str, int]
    one_p: RunSummary
    misp: RunSummary
    smp: RunSummary

    @property
    def workload(self) -> str:
        return self.misp.workload

    @property
    def cycles_1p(self) -> int:
        return self.one_p.cycles

    @property
    def cycles_misp(self) -> int:
        return self.misp.cycles

    @property
    def cycles_smp(self) -> int:
        return self.smp.cycles

    @property
    def misp_speedup(self) -> float:
        return self.cycles_1p / self.cycles_misp

    @property
    def smp_speedup(self) -> float:
        return self.cycles_1p / self.cycles_smp

    @property
    def misp_vs_smp(self) -> float:
        """Relative MISP slowdown vs SMP (positive = MISP slower)."""
        return self.cycles_misp / self.cycles_smp - 1.0


@dataclass
class Figure4Result:
    rows: list[SpeedupRow]

    @property
    def misp_summaries(self) -> dict[str, RunSummary]:
        """MISP run summaries for further analysis (Table 1, Figure 5)."""
        return {row.workload: row.misp for row in self.rows}

    def row(self, workload: str) -> SpeedupRow:
        for row in self.rows:
            if row.workload == workload:
                return row
        raise KeyError(workload)

    def mean_misp_vs_smp(self, suite: str) -> float:
        """Average MISP-vs-SMP delta for one suite (the §5.3 numbers)."""
        deltas = [r.misp_vs_smp for r in self.rows
                  if REGISTRY.get(r.workload).suite == suite]
        if not deltas:
            raise ValueError(f"no rows for suite '{suite}'")
        return sum(deltas) / len(deltas)


def _systems(ams_count: int) -> tuple[tuple[str, str], ...]:
    """The three systems of every comparison, in the order each point's
    runs appear in its grid: 1P, MISP 1xN, SMP N-way."""
    return (("1p", "smp1"),
            ("misp", config_name([ams_count])),
            ("smp", f"smp{ams_count + 1}"))


def _comparison_rows(points: Sequence, result: ExperimentResult
                     ) -> list[SpeedupRow]:
    """Read a point-major grid (each point's runs in ``_systems``
    order) three summaries at a time: one row per point."""
    runs = result.summaries()
    return [SpeedupRow(point, *runs[3 * i:3 * i + 3])
            for i, point in enumerate(points)]


def figure4_experiment(workload_names: Sequence[str],
                       ams_count: int = DEFAULT_AMS_COUNT,
                       params: MachineParams = DEFAULT_PARAMS,
                       scale: Optional[float] = None) -> ExperimentSpec:
    """Declare the Figure 4 grid: each workload on 1P, MISP, and SMP."""
    return ExperimentSpec.grid("figure4", workload_names,
                               systems=_systems(ams_count),
                               scale=scale, params=params)


def run_figure4(workload_names: Sequence[str],
                ams_count: int = DEFAULT_AMS_COUNT,
                params: MachineParams = DEFAULT_PARAMS,
                scale: Optional[float] = None,
                runner: Optional[Runner] = None) -> Figure4Result:
    """Execute the Figure 4 experiment for the named workloads.

    ``scale`` rebuilds each workload scaled (for fast CI runs); the
    default uses the registered full-size specs.
    """
    runner = runner or default_runner()
    result = runner.run_experiment(
        figure4_experiment(workload_names, ams_count, params, scale))
    return Figure4Result(_comparison_rows(workload_names, result))


def run_figure4_streaming(
        service: ExperimentService,
        workload_names: Sequence[str],
        ams_count: int = DEFAULT_AMS_COUNT,
        params: MachineParams = DEFAULT_PARAMS,
        scale: Optional[float] = None,
        progress: Optional[Callable[[int, int, RunSummary], None]] = None,
) -> Figure4Result:
    """Figure 4 over the streaming job API.

    Submits the grid to an
    :class:`~repro.service.ExperimentService` and consumes partial
    summaries as runs finish -- ``progress(done, total, summary)``
    fires per completed run, *before* the grid completes -- then
    assembles the same :class:`Figure4Result` the batch path builds.
    Concurrent submissions of overlapping grids (another client asking
    for the same baselines) share executions through the service's
    in-flight table.
    """
    job = service.submit(
        figure4_experiment(workload_names, ams_count, params, scale))
    for done, summary in enumerate(job.as_completed(), start=1):
        if progress is not None:
            progress(done, job.expected, summary)
    return Figure4Result(_comparison_rows(workload_names, job.result()))


def format_figure4(result: Figure4Result) -> str:
    """Render the figure as the table of bar heights."""
    lines = [f"{'application':18s} {'MISP':>6s} {'SMP':>6s} {'Δ(M/S)':>8s}",
             "-" * 42]
    for row in result.rows:
        lines.append(f"{row.workload:18s} {row.misp_speedup:6.2f} "
                     f"{row.smp_speedup:6.2f} {row.misp_vs_smp * 100:+7.2f}%")
    for suite, label in (("rms", "RMS"), ("speccomp", "SPEComp")):
        try:
            delta = result.mean_misp_vs_smp(suite) * 100
        except ValueError:
            continue
        lines.append(f"{label} mean MISP-vs-SMP: {delta:+.2f}% "
                     f"(paper: {'+1.5%' if suite == 'rms' else '-1.9%'})")
    return "\n".join(lines)
