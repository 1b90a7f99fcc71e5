"""Unified observability: metrics registry and run observation.

See :mod:`repro.obs.metrics` (the registry of collectors, read at
export, and the :class:`Stats` record components count into),
:mod:`repro.obs.observe` (instrumented simulation runs),
:mod:`repro.obs.perfetto` (Chrome-trace-event timeline export),
:mod:`repro.obs.critpath` (critical-path / stall-taxonomy bottleneck
attribution), and :mod:`repro.obs.diff` (run-diff regression
attribution).  The serving pipeline's wall time per resolution phase
lives on :meth:`repro.service.JobHandle.metrics`.
"""

from repro.obs.critpath import (
    analyze_observed, analyze_result, analyze_trace, busy_timeline,
    critical_path, event_slack, event_times, format_analysis,
)
from repro.obs.diff import diff_analyses, format_diff
from repro.obs.metrics import MetricsRegistry, Stats, get_registry, new_run_id
from repro.obs.observe import ObservedRun
from repro.obs.perfetto import export_run, trace_events, write_trace

__all__ = [
    "MetricsRegistry", "Stats", "get_registry", "new_run_id",
    "ObservedRun", "export_run", "trace_events", "write_trace",
    "analyze_observed", "analyze_result", "analyze_trace",
    "busy_timeline", "critical_path", "event_slack", "event_times",
    "format_analysis", "diff_analyses", "format_diff",
]
