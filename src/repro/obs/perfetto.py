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

:func:`write_trace` writes the bytes ``json.dump(doc, fh, indent=1,
sort_keys=True)`` would, formatted by :func:`trace_json`: with
``indent`` set, :mod:`json` falls back to its pure-Python encoder and
hands the file one small chunk per token, where this encoder formats
containers itself, leaves strings to the C escaper :mod:`json` uses,
and writes the text in one call.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.shredlib.log import ShredLog
    from repro.sim.captrace import CapturedTrace
    from repro.workloads.runner import RunResult

__all__ = ["trace_events", "export_run", "write_trace", "trace_json"]

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
    from repro.obs.critpath import (busy_timeline, critical_path_segments,
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

    segments = critical_path_segments(trace, times)
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

    for start, end, sequencer, kind, detail in machine.trace.records():
        name = kind.value
        if detail:
            name = f"{name}:{detail}"
        ev = {"name": name, "cat": kind.value, "pid": _MACHINE_PID,
              "tid": sequencer, "ts": start}
        if end > start:
            ev["ph"] = "X"
            ev["dur"] = end - start
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
    """Write a trace document as deterministic, stable-order JSON: the
    text of :func:`trace_json` and a newline."""
    text = trace_json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


# ----------------------------------------------------------------------
# The encoder
# ----------------------------------------------------------------------
#: the C routine json escapes and quotes strings with (ASCII output)
_escape = json.encoder.encode_basestring_ascii
_int_text = int.__repr__
_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _scalar(value: Any) -> str:
    """A leaf as json writes it (its checks, in its order)."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    "is not JSON serializable")


def _text(value: Any, newline: str, labels: dict[str, str]) -> str:
    """The text of ``value``.

    ``newline`` is a line break plus the indentation of ``value``'s own
    level; ``labels`` caches each key's quoted text and colon.  A
    container joins its items' texts, writing the common leaves --
    exact ``str`` and ``int`` -- inline and everything else
    recursively, so the document's text is built from one string per
    container rather than one per token.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + " "
        sep = "{" + inner
        parts = []
        for key, item in sorted(value.items()):
            label = labels.get(key)
            if label is None:
                label = labels[key] = _escape(key) + ": "
            kind = type(item)
            if kind is str:
                parts.append(sep + label + _escape(item))
            elif kind is int:
                parts.append(sep + label + _int_text(item))
            else:
                parts.append(sep + label + _text(item, inner, labels))
            sep = "," + inner
        parts.append(newline + "}")
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + " "
        sep = "[" + inner
        parts = []
        for item in value:
            kind = type(item)
            if kind is str:
                parts.append(sep + _escape(item))
            elif kind is int:
                parts.append(sep + _int_text(item))
            else:
                parts.append(sep + _text(item, inner, labels))
            sep = "," + inner
        parts.append(newline + "]")
        return "".join(parts)
    return _scalar(value)


def trace_json(doc: Any) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte,
    for a JSON document whose mapping keys are strings (a key of any
    other type raises :class:`TypeError`)."""
    return _text(doc, "\n", {})
