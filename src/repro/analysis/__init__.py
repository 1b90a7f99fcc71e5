"""Evaluation harness: regenerates every table and figure of Section 5.

Every driver declares its run grid as a
:class:`repro.experiments.ExperimentSpec` and consumes plain-data
:class:`repro.experiments.RunSummary` values from a
:class:`repro.experiments.Runner` -- by default the process-wide
shared runner, so runs common to several artifacts (the MISP runs
behind Figure 4, Figure 5, and Table 1) simulate exactly once.

Figure 4, Figure M and Figure P are one three-system comparison (1P,
MISP, SMP) over different points -- workloads, miss penalties, FU
counts -- and share its row type, :class:`SpeedupRow`.
"""

from repro.analysis.figure4 import (
    Figure4Result, SpeedupRow, figure4_experiment, format_figure4,
    run_figure4, run_figure4_streaming,
)
from repro.analysis.figure5 import (
    FIGURE5_SIGNAL_COSTS, SensitivityRow, figure5_experiment,
    format_figure5, run_figure5, sensitivity_from_run,
)
from repro.analysis.figure7 import (
    FIGURE7_SERIES, Figure7Result, figure7_experiment, format_figure7,
    run_figure7,
)
from repro.analysis.figure_mem import (
    FIGURE_MEM_COSTS, figure_mem_experiment, format_figure_mem,
    run_figure_mem,
)
from repro.analysis.figure_pipeline import (
    FIGURE_PIPELINE_FU_COUNTS, figure_pipeline_experiment,
    format_figure_pipeline, run_figure_pipeline,
)
from repro.analysis.table1 import (
    PAPER_TABLE1, EventRow, format_table1, measured_row, paper_row_scaled,
    run_table1,
)
from repro.analysis.table2 import (
    PortRow, format_table2, ode_restructuring_speedup, run_table2,
    table2_experiment,
)

__all__ = [
    "Figure4Result", "SpeedupRow", "figure4_experiment", "format_figure4",
    "run_figure4", "run_figure4_streaming",
    "FIGURE5_SIGNAL_COSTS", "SensitivityRow",
    "figure5_experiment", "format_figure5", "run_figure5",
    "sensitivity_from_run", "FIGURE7_SERIES", "Figure7Result",
    "figure7_experiment", "format_figure7", "run_figure7",
    "FIGURE_MEM_COSTS", "figure_mem_experiment", "format_figure_mem",
    "run_figure_mem", "FIGURE_PIPELINE_FU_COUNTS",
    "figure_pipeline_experiment", "format_figure_pipeline",
    "run_figure_pipeline", "PAPER_TABLE1",
    "EventRow", "format_table1", "measured_row", "paper_row_scaled",
    "run_table1", "PortRow", "format_table2",
    "ode_restructuring_speedup", "run_table2", "table2_experiment",
]
