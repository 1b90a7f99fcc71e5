"""Perfetto / Chrome-trace-event timeline export for observed runs.

Converts the fine-grained :class:`~repro.sim.trace.TraceLog` records
and the ShredLib contention log of one run into the Chrome trace-event
JSON format (the ``traceEvents`` array), which https://ui.perfetto.dev
and ``chrome://tracing`` both open directly.

Mapping:

* every sequencer is one track (``pid`` 0 = the machine, ``tid`` =
  ``seq_id``), named from its role and owning processor (``P0 OMS``,
  ``P0 AMS1``, ...) via ``M``/``thread_name`` metadata events;
* fine trace records with duration become ``X`` (complete) events,
  zero-duration records become ``i`` (instant) events -- ring
  transitions, proxy choreography, context switches, signals;
* ShredLib sync contention becomes instant events on ``pid`` 1
  ("shredlib"), one track per sync-object name;
* when the run also *captured* its event graph
  (``Session.capture()``), the export is enriched from it: per-
  sequencer utilization and outstanding-event **counter tracks**
  (``C`` events, from :func:`repro.obs.critpath.busy_timeline`) and a
  **critical path** track (``pid`` 2) whose ``X`` slices -- named by
  their dominant stall class -- are chained with ``s``/``f`` flow
  events, so Perfetto draws the one chain of work that bounds the
  run's wall time.

Timestamps are simulation **cycles emitted as microseconds** -- the
timeline is exact and deterministic (1 cycle = 1 us on screen), which
is also what makes golden-file testing possible.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.shredlib.log import ShredLog
    from repro.sim.captrace import CapturedTrace
    from repro.workloads.runner import RunResult

__all__ = ["trace_events", "export_run", "write_trace"]

#: pid of the machine (sequencer) tracks and the runtime tracks
_MACHINE_PID = 0
_SHREDLIB_PID = 1
_CRITPATH_PID = 2

#: buckets for the utilization/outstanding counter tracks
_COUNTER_BUCKETS = 64


def _sequencer_names(machine: "Machine") -> dict[int, str]:
    """seq_id -> human track name, grouped by owning processor."""
    names: dict[int, str] = {}
    for proc in machine.processors:
        names[proc.oms.seq_id] = f"P{proc.proc_id} OMS"
        for i, ams in enumerate(proc.amss, start=1):
            names[ams.seq_id] = f"P{proc.proc_id} AMS{i}"
    # sequencers not owned by a processor (defensive; should not happen)
    for seq in machine.sequencers:
        names.setdefault(seq.seq_id, f"SEQ{seq.seq_id}")
    return names


def _capture_events(trace: "CapturedTrace",
                    names: dict[int, str]) -> list[dict]:
    """Counter tracks + critical-path track from a captured run."""
    from repro.obs.critpath import (analyze_trace, busy_timeline,
                                    event_times)
    events: list[dict] = []
    times = event_times(trace)
    timeline = busy_timeline(trace, times, buckets=_COUNTER_BUCKETS)
    width = timeline["bucket_cycles"]
    for seq_id in sorted(timeline["per_seq"]):
        label = names.get(seq_id, f"SEQ{seq_id}")
        counter = f"utilization {label}"
        for b, busy in enumerate(timeline["per_seq"][seq_id]):
            events.append({"name": counter, "ph": "C",
                           "pid": _MACHINE_PID, "tid": 0, "ts": b * width,
                           "args": {"busy_permille":
                                    busy * 1000 // width}})
    for b, level in enumerate(timeline["outstanding"]):
        events.append({"name": "outstanding events", "ph": "C",
                       "pid": _MACHINE_PID, "tid": 0, "ts": b * width,
                       "args": {"count": level}})

    analysis = analyze_trace(trace)
    segments = analysis["critical_path"]["segments"]
    if not segments:
        return events
    events.append({"name": "process_name", "ph": "M",
                   "pid": _CRITPATH_PID, "tid": 0,
                   "args": {"name": "critical path"}})
    events.append({"name": "thread_name", "ph": "M",
                   "pid": _CRITPATH_PID, "tid": 0,
                   "args": {"name": "critical path"}})
    for k, seg in enumerate(segments):
        owner = seg["seq"]
        events.append({"name": seg["class"], "cat": "critpath",
                       "ph": "X", "pid": _CRITPATH_PID, "tid": 0,
                       "ts": seg["start"], "dur": seg["cycles"],
                       "args": {"seqno": seg["seqno"],
                                "seq": names.get(owner,
                                                 f"SEQ{owner}")
                                if owner >= 0 else "machine"}})
        if k + 1 < len(segments):
            flow = {"cat": "critpath", "name": "crit", "id": k,
                    "pid": _CRITPATH_PID, "tid": 0}
            events.append({**flow, "ph": "s", "ts": seg["end"]})
            events.append({**flow, "ph": "f", "bp": "e",
                           "ts": segments[k + 1]["start"]})
    return events


def trace_events(machine: "Machine",
                 shred_log: Optional["ShredLog"] = None,
                 run_id: str = "",
                 trace: Optional["CapturedTrace"] = None) -> list[dict]:
    """Build the Chrome ``traceEvents`` list for one finished run.

    Requires fine-grained trace records, which
    :meth:`~repro.core.machine.Machine.enable_observation` (e.g. via
    ``Session.observe(...)``) turns on; with none recorded the result
    is just the metadata tracks.  Passing the run's captured event
    graph as ``trace`` adds the counter tracks and the critical-path
    track.
    """
    events: list[dict] = []
    names = _sequencer_names(machine)

    events.append({"name": "process_name", "ph": "M", "pid": _MACHINE_PID,
                   "tid": 0, "args": {"name": "machine"}})
    for seq_id in sorted(names):
        events.append({"name": "thread_name", "ph": "M",
                       "pid": _MACHINE_PID, "tid": seq_id,
                       "args": {"name": names[seq_id]}})

    for rec in machine.trace.records():
        name = rec.kind.value
        if rec.detail:
            name = f"{name}:{rec.detail}"
        ev = {"name": name, "cat": rec.kind.value, "pid": _MACHINE_PID,
              "tid": rec.sequencer, "ts": rec.start}
        if rec.duration > 0:
            ev["ph"] = "X"
            ev["dur"] = rec.duration
        else:
            ev["ph"] = "i"
            ev["s"] = "t"  # thread-scoped instant
        events.append(ev)

    contention = (shred_log.contention_events()
                  if shred_log is not None else [])
    if contention:
        events.append({"name": "process_name", "ph": "M",
                       "pid": _SHREDLIB_PID, "tid": 0,
                       "args": {"name": "shredlib"}})
        tids: dict[str, int] = {}
        for cycle, obj in contention:
            tid = tids.get(obj)
            if tid is None:
                tid = len(tids)
                tids[obj] = tid
                events.append({"name": "thread_name", "ph": "M",
                               "pid": _SHREDLIB_PID, "tid": tid,
                               "args": {"name": f"contention {obj}"}})
            events.append({"name": f"contention:{obj}", "cat": "contention",
                           "ph": "i", "s": "t", "pid": _SHREDLIB_PID,
                           "tid": tid, "ts": cycle})

    if trace is not None:
        events.extend(_capture_events(trace, names))
    return events


def export_run(result: "RunResult", path: Optional[str] = None,
               run_id: Optional[str] = None) -> dict:
    """Convert a finished run into a Chrome-trace document.

    Returns the document (``{"traceEvents": [...], ...}``); when
    ``path`` is given it is also written there as JSON.  ``run_id``
    overrides the correlation id stamped into the document metadata
    (default: the run's ``obs.run_id`` when observed).
    """
    if run_id is None and result.obs is not None:
        run_id = result.obs.run_id
    doc = {
        "traceEvents": trace_events(result.machine, result.runtime.log,
                                    run_id=run_id or "",
                                    trace=result.trace),
        "displayTimeUnit": "ms",
        "otherData": {
            "run": run_id or "",
            "workload": result.workload,
            "system": result.system,
            "config": result.config,
            "cycles": result.cycles,
            "clock": "1 simulated cycle = 1 us",
        },
    }
    if path is not None:
        write_trace(doc, path)
    return doc


def write_trace(doc: dict, path: str) -> None:
    """Write a trace document as deterministic, stable-order JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
