"""Table 1: serializing events per application on the MISP prototype.

"Table 1 summarizes statistics for all salient architectural events
that cause the MISP processor to serialize execution to synchronize
privileged state across all AMSs. ... The events are separated into
those occurring on the OMS and those occurring on the AMSs."

Columns: OMS SysCall / PF / Timer / Interrupt, AMS SysCall / PF.
The paper's reference counts are embedded here so the harness can
report measured-vs-paper side by side (SPEComp rows are compared at
the proxies' 1/50 event scale; see
:data:`repro.workloads.speccomp.EVENT_SCALE`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.analysis.figure4 import DEFAULT_AMS_COUNT
from repro.analysis.figure5 import figure5_experiment
from repro.experiments import Runner, RunSummary, default_runner
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.workloads.runner import RunResult
from repro.workloads.speccomp import EVENT_SCALE


@dataclass(frozen=True)
class EventRow:
    """One row of Table 1."""

    workload: str
    oms_syscall: int
    oms_pf: int
    oms_timer: int
    oms_interrupt: int
    ams_syscall: int
    ams_pf: int

    @property
    def total_oms(self) -> int:
        return (self.oms_syscall + self.oms_pf + self.oms_timer
                + self.oms_interrupt)

    @property
    def total_ams(self) -> int:
        return self.ams_syscall + self.ams_pf


#: The paper's Table 1, verbatim.
PAPER_TABLE1 = {
    "ADAt": EventRow("ADAt", 0, 1, 168, 20, 0, 9),
    "dense_mmm": EventRow("dense_mmm", 0, 29, 141, 15, 0, 133),
    "dense_mvm": EventRow("dense_mvm", 0, 1, 64, 5, 0, 5),
    "dense_mvm_sym": EventRow("dense_mvm_sym", 0, 2, 1178, 104, 0, 9),
    "gauss": EventRow("gauss", 8, 7170, 1736, 158, 0, 1),
    "kmeans": EventRow("kmeans", 8, 7170, 260, 25, 0, 2),
    "sparse_mvm": EventRow("sparse_mvm", 0, 27, 114, 13, 0, 205),
    "sparse_mvm_sym": EventRow("sparse_mvm_sym", 0, 11, 343, 31, 0, 669),
    "sparse_mvm_trans": EventRow("sparse_mvm_trans", 0, 26, 826, 75, 0, 200),
    "svm_c": EventRow("svm_c", 8, 7204, 1006, 101, 0, 1307),
    "RayTracer": EventRow("RayTracer", 0, 210, 591, 66, 0, 979),
    "swim": EventRow("swim", 77_009, 59_570, 96_687, 10_281, 0, 346_201),
    "applu": EventRow("applu", 1_394, 59_540, 57_282, 5_115, 0, 327_313),
    "galgel": EventRow("galgel", 881, 152_806, 64_880, 6_242, 0, 140_180),
    "equake": EventRow("equake", 45_937, 47_896, 29_727, 3_093, 0, 85_654),
    "art": EventRow("art", 19_978, 133_672, 31_647, 2_923, 436, 138_464),
}

#: SPEComp applications whose paper counts must be scaled for comparison
_SPECCOMP = {"swim", "applu", "galgel", "equake", "art"}


def measured_row(result: Union[RunResult, RunSummary]) -> EventRow:
    """Extract the Table 1 row from one MISP run (live result or
    plain-data summary)."""
    events = result.serializing_events()
    return EventRow(result.workload, events["oms_syscall"],
                    events["oms_pf"], events["oms_timer"],
                    events["oms_interrupt"], events["ams_syscall"],
                    events["ams_pf"])


def run_table1(workload_names: Sequence[str],
               ams_count: int = DEFAULT_AMS_COUNT,
               params: MachineParams = DEFAULT_PARAMS,
               scale: Optional[float] = None,
               runner: Optional[Runner] = None) -> list[EventRow]:
    """Run the MISP grid and extract each workload's Table 1 row (the
    MISP runs of Figure 4 and Figure 5)."""
    runner = runner or default_runner()
    exp = figure5_experiment(workload_names, ams_count, params, scale)
    return [measured_row(s) for s in runner.run_many(exp.runs)]


def paper_row_scaled(workload: str) -> Optional[EventRow]:
    """The paper's row, at the proxies' event scale where applicable."""
    row = PAPER_TABLE1.get(workload)
    if row is None:
        return None
    if workload not in _SPECCOMP:
        return row
    scale = EVENT_SCALE
    return EventRow(row.workload, round(row.oms_syscall * scale),
                    round(row.oms_pf * scale), round(row.oms_timer * scale),
                    round(row.oms_interrupt * scale),
                    round(row.ams_syscall * scale),
                    round(row.ams_pf * scale))


def format_table1(rows: list[EventRow], compare: bool = True) -> str:
    """Render measured rows, optionally with paper references."""
    header = (f"{'application':18s} {'SysCall':>8s} {'PF':>7s} {'Timer':>7s} "
              f"{'Intr':>6s} | {'aSysCall':>8s} {'aPF':>7s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.workload:18s} {row.oms_syscall:8d} "
                     f"{row.oms_pf:7d} {row.oms_timer:7d} "
                     f"{row.oms_interrupt:6d} | {row.ams_syscall:8d} "
                     f"{row.ams_pf:7d}")
        if compare:
            paper = paper_row_scaled(row.workload)
            if paper is not None:
                lines.append(f"{'  (paper, scaled)':18s} "
                             f"{paper.oms_syscall:8d} {paper.oms_pf:7d} "
                             f"{paper.oms_timer:7d} {paper.oms_interrupt:6d}"
                             f" | {paper.ams_syscall:8d} {paper.ams_pf:7d}")
    return "\n".join(lines)
