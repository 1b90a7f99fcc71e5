"""Critical-path and bottleneck attribution for simulation runs.

The captured event-dependency graph (:mod:`repro.sim.captrace`) is a
tree: every event has exactly one parent (the event executing when it
was scheduled) and completes at ``parent_time + delay``.  That makes
the classic critical-path questions cheap:

* **completion times** -- one forward pass in seqno order
  (:func:`event_times`);
* **critical path** -- the parent chain ending at the application's
  exit event (:func:`critical_path`): the one chain of delays whose
  sum *is* the run's wall cycles, i.e. the only place where making
  something faster makes the run faster;
* **slack** -- one downward subtree-max pass (:func:`event_slack`):
  how many cycles an event's delay could grow before it moved the end
  of the run;
* **attribution** -- every recorded delay decomposes into the stall
  taxonomy of :data:`repro.timing.base.STALL_CLASSES` (parameter
  coefficients via :data:`~repro.timing.base.PARAM_CLASS`, hierarchy
  charges as ``memory``, the remainder as ``compute``) and is charged
  to the sequencer that owned it, so per-sequencer class totals plus
  ``suspended`` and ``idle`` sum to the run's wall cycles
  (:func:`analyze_trace`).

Runs that cannot capture (the ``scoreboard`` timing model, the
``multiprog`` backend) fall back to the observed-run surface --
sequencer busy/suspended statistics plus the live
:class:`~repro.timing.base.StallAccount` -- via
:func:`analyze_observed`; :func:`analyze_result` dispatches on what
the :class:`~repro.workloads.runner.RunResult` carries.

Every function here is pure arithmetic over recorded integers, so the
same trace always produces byte-identical analysis documents -- the
property the committed-fixture determinism test pins down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.sim.captrace import derive_marks
from repro.timing.base import PARAM_CLASS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.captrace import CapturedTrace
    from repro.workloads.runner import RunResult

__all__ = [
    "event_times", "event_slack", "critical_path", "busy_timeline",
    "analyze_trace", "analyze_observed", "analyze_result",
    "format_analysis",
]

#: schema tag stamped into every analysis document
ANALYZE_SCHEMA = "repro.critpath/1"


# ----------------------------------------------------------------------
# Graph primitives
# ----------------------------------------------------------------------
def event_times(trace: "CapturedTrace") -> list[int]:
    """Completion time of every event (one forward pass)."""
    parents = trace.parents
    delays = trace.delays
    root_now = trace.root_now
    times = [0] * len(parents)
    for i in range(len(parents)):
        p = parents[i]
        times[i] = (times[p] if p >= 0 else root_now[i]) + delays[i]
    return times


def _end_event(trace: "CapturedTrace", times: list[int]) -> Optional[int]:
    """The event whose completion defines the run's wall time.

    Preferably the event during which the application process exited
    (its ``pexit`` mark); otherwise the earliest event with the
    maximum completion time.
    """
    for kind, at_seqno, _at_now, arg in trace.marks:
        if kind == "pexit" and arg == trace.app_pid and at_seqno >= 0:
            return at_seqno
    if not times:
        return None
    best, best_t = 0, times[0]
    for i, t in enumerate(times):
        if t > best_t:
            best, best_t = i, t
    return best


def critical_path(trace: "CapturedTrace",
                  times: Optional[list[int]] = None) -> list[int]:
    """Seqnos of the critical path, in chronological order."""
    if times is None:
        times = event_times(trace)
    end = _end_event(trace, times)
    if end is None:
        return []
    path = []
    i = end
    while i >= 0:
        path.append(i)
        i = trace.parents[i]
    path.reverse()
    return path


def event_slack(trace: "CapturedTrace",
                times: Optional[list[int]] = None) -> list[int]:
    """Per-event slack: cycles its delay may grow before the run does.

    ``slack[i] = wall - max(completion time over i's subtree)``; the
    critical path is exactly the zero-slack chain.
    """
    if times is None:
        times = event_times(trace)
    n = len(times)
    subtree_max = list(times)
    parents = trace.parents
    for i in range(n - 1, -1, -1):
        p = parents[i]
        if p >= 0 and subtree_max[i] > subtree_max[p]:
            subtree_max[p] = subtree_max[i]
    wall = max(times) if times else 0
    return [wall - m for m in subtree_max]


def _event_classes(trace: "CapturedTrace", i: int,
                   residual: bool = True) -> dict[str, int]:
    """Decompose one event's delay into stall-taxonomy classes.

    Parameter coefficients map through :data:`PARAM_CLASS`, hierarchy
    charges are ``memory``, and -- for priced work (``residual``) --
    any remaining delay is ``compute``.  Pass ``residual=False`` for
    events no sequencer owns: a timer sleep's un-annotated delay is a
    wait, not anyone's compute cycles.
    """
    d = trace.delays[i]
    out: dict[str, int] = {}
    if d <= 0:
        return out
    params = trace.params
    coefs = trace.coefs.get(i)
    if coefs:
        for key, mult, div in coefs:
            cycles = (getattr(params, key) * mult) // div
            if cycles:
                klass = PARAM_CLASS.get(key, "compute")
                out[klass] = out.get(klass, 0) + cycles
    access = trace.accesses.get(i)
    if access is not None and access[0]:
        out["memory"] = out.get("memory", 0) + access[0]
    if residual:
        rest = d - sum(out.values())
        if rest > 0:
            out["compute"] = out.get("compute", 0) + rest
    return out


def busy_timeline(trace: "CapturedTrace",
                  times: Optional[list[int]] = None,
                  buckets: int = 64) -> dict:
    """Bucketed occupancy timelines for counter tracks.

    Returns ``{"bucket_cycles": w, "per_seq": {seq_id: [busy cycles
    per bucket]}, "outstanding": [in-flight scheduled events per
    bucket]}``.  Pure integers, deterministic.
    """
    if times is None:
        times = event_times(trace)
    wall = max(times) if times else 0
    buckets = max(1, buckets)
    width = max(1, -(-wall // buckets)) if wall else 1
    nbuckets = max(1, -(-wall // width)) if wall else 1
    seq_ids = sorted(trace.oms_ids + trace.ams_ids)
    per_seq = {s: [0] * nbuckets for s in seq_ids}
    outstanding_delta = [0] * (nbuckets + 1)
    parents = trace.parents
    root_now = trace.root_now
    busy_get = trace.busy_seq.get
    owner_get = trace.owner_seq.get
    for i in range(len(parents)):
        p = parents[i]
        start = times[p] if p >= 0 else root_now[i]
        end = times[i]
        b0 = min(start // width, nbuckets - 1)
        b1 = min(end // width, nbuckets)
        outstanding_delta[b0] += 1
        if b1 > b0:
            outstanding_delta[b1] -= 1
        owner = busy_get(i)
        if owner is None:
            owner = owner_get(i)
        if owner is None or end <= start:
            continue
        row = per_seq.get(owner)
        if row is None:
            continue
        b = start // width
        while b * width < end and b < nbuckets:
            lo = max(start, b * width)
            hi = min(end, (b + 1) * width)
            if hi > lo:
                row[b] += hi - lo
            b += 1
    outstanding = []
    level = 0
    for b in range(nbuckets):
        level += outstanding_delta[b]
        outstanding.append(level)
    return {"bucket_cycles": width, "per_seq": per_seq,
            "outstanding": outstanding}


# ----------------------------------------------------------------------
# Full analyses
# ----------------------------------------------------------------------
def _roll_up(rows, oms: set[int], wall: int
             ) -> tuple[dict[str, dict], dict[str, int]]:
    """Per-sequencer rows and run-wide class totals.

    ``rows`` yields ``(seq_id, classes, busy, suspended)``, with
    ``classes`` the sequencer's accounted stall-class cycles; ``oms``
    holds the OMS ids (every other sequencer is an AMS).  A
    sequencer is occupied for the larger of ``busy`` and its accounted
    cycles (serialization stages occupy the OMS without charging its
    busy cycles; in a captured run the two are equal); ``idle`` is
    whatever of ``wall`` is neither occupied nor ``suspended``.
    """
    sequencers: dict[str, dict] = {}
    totals: dict[str, int] = {}
    for seq_id, classes, busy, susp in rows:
        classes = dict(sorted(classes.items()))
        accounted = sum(classes.values())
        idle = max(0, wall - max(busy, accounted) - susp)
        classes["suspended"] = susp
        classes["idle"] = idle
        for klass, cycles in classes.items():
            totals[klass] = totals.get(klass, 0) + cycles
        sequencers[str(seq_id)] = {
            "role": "oms" if seq_id in oms else "ams",
            "busy_cycles": busy,
            "utilization": round(busy / wall, 6) if wall else 0.0,
            "coverage": round((accounted + susp + idle) / wall, 6)
            if wall else 1.0,
            "classes": classes,
        }
    return sequencers, dict(sorted(totals.items()))


def analyze_trace(trace: "CapturedTrace", workload: str = "",
                  system: str = "", config: str = "",
                  timing: str = "fixed",
                  max_segments: Optional[int] = None) -> dict:
    """Critical path, slack, and per-sequencer/per-class attribution
    of one captured run, as a deterministic JSON-ready document.

    ``max_segments`` bounds the listed critical-path segments (the
    longest are kept, in chronological order; the count dropped is
    recorded) -- totals and ``by_class`` always cover the full path.
    Consumers that walk consecutive segments (the Perfetto flow
    arrows) must leave it ``None``.
    """
    times = event_times(trace)
    n = len(times)
    wall_end = _end_event(trace, times)
    wall = times[wall_end] if wall_end is not None else 0
    full = max(times) if times else 0

    busy_get = trace.busy_seq.get
    owner_get = trace.owner_seq.get
    per_seq: dict[int, dict[str, int]] = {}
    unattributed = 0
    for i in range(n):
        owner = busy_get(i)
        if owner is None:
            owner = owner_get(i)
        # unowned events (timer sleeps, quantum delays) are waits:
        # only their explicitly annotated cycles count, and having no
        # owning sequencer those go to the unattributed bucket
        classes = _event_classes(trace, i, residual=owner is not None)
        if not classes:
            continue
        if owner is None:
            unattributed += sum(classes.values())
            continue
        row = per_seq.setdefault(owner, {})
        for klass, cycles in classes.items():
            row[klass] = row.get(klass, 0) + cycles

    suspended = derive_marks(trace, times)[1]
    rows = []
    for seq_id in sorted(trace.oms_ids + trace.ams_ids):
        classes = per_seq.get(seq_id, {})
        # a captured sequencer's busy cycles are exactly its classes
        rows.append((seq_id, classes, sum(classes.values()),
                     suspended.get(seq_id, 0)))
    sequencers, totals = _roll_up(rows, set(trace.oms_ids), wall)

    path = critical_path(trace, times)
    segments = []
    path_by_class: dict[str, int] = {}
    for i in path:
        d = trace.delays[i]
        if d <= 0:
            continue
        owner = busy_get(i)
        if owner is None:
            owner = owner_get(i, -1)
        classes = _event_classes(trace, i, residual=owner >= 0)
        if classes:
            klass = max(classes.items(), key=lambda kv: (kv[1], kv[0]))[0]
        else:
            klass = "wait"
        p = trace.parents[i]
        start = times[p] if p >= 0 else trace.root_now[i]
        segments.append({"seqno": i, "start": start, "end": times[i],
                         "cycles": d, "seq": owner, "class": klass})
        path_by_class[klass] = path_by_class.get(klass, 0) + d
    path_cycles = sum(s["cycles"] for s in segments)
    segments_dropped = 0
    if max_segments is not None and len(segments) > max_segments:
        keep = sorted(segments, key=lambda s: (-s["cycles"], s["seqno"]))
        kept = {s["seqno"] for s in keep[:max_segments]}
        segments_dropped = len(segments) - len(kept)
        segments = [s for s in segments if s["seqno"] in kept]

    slack = event_slack(trace, times)
    zero_slack = sum(1 for s in slack if s == 0)
    return {
        "schema": ANALYZE_SCHEMA,
        "source": "capture",
        "workload": workload,
        "system": system,
        "config": config,
        "timing": timing,
        "wall_cycles": wall,
        "horizon_cycles": full,
        "events": n,
        "unattributed_cycles": unattributed,
        "classes": totals,
        "sequencers": sequencers,
        "critical_path": {
            "events": len(segments) + segments_dropped,
            "cycles": path_cycles,
            "fraction_of_wall": round(path_cycles / wall, 6) if wall
            else 0.0,
            "by_class": dict(sorted(path_by_class.items())),
            "segments": segments,
            "segments_dropped": segments_dropped,
        },
        "slack": {
            "zero_slack_events": zero_slack,
            "mean": round(sum(slack) / n, 2) if n else 0.0,
            "max": max(slack) if slack else 0,
        },
    }


def analyze_observed(result: "RunResult") -> dict:
    """Fallback attribution from the observed-run surface.

    Used when no captured event graph exists (the ``scoreboard``
    timing model refuses capture): per-sequencer busy/suspended
    statistics plus the run's live
    :class:`~repro.timing.base.StallAccount`.  No critical path -- the
    event-dependency graph was never recorded.
    """
    machine = result.machine
    wall = result.cycles
    stalls = result.obs.stalls if result.obs is not None else None
    stall_rows = stalls.per_sequencer() if stalls is not None else {}
    sequencers, totals = _roll_up(
        [(seq.seq_id, stall_rows.get(seq.seq_id, {}), seq.busy_cycles,
          seq.suspended_cycles) for seq in machine.sequencers],
        set(machine.oms_ids()), wall)
    return {
        "schema": ANALYZE_SCHEMA,
        "source": "observed",
        "workload": result.workload,
        "system": result.system,
        "config": result.config,
        "timing": machine.timing.canonical_name(),
        "wall_cycles": wall,
        "horizon_cycles": wall,
        "events": machine.engine.events_executed,
        "unattributed_cycles": 0,
        "classes": totals,
        "sequencers": sequencers,
        "critical_path": None,
        "slack": None,
    }


def analyze_result(result: "RunResult",
                   max_segments: Optional[int] = None) -> dict:
    """Analyze a finished run with the best available evidence:
    the captured event graph when present, else the observed-run
    fallback."""
    if result.trace is not None:
        return analyze_trace(result.trace, workload=result.workload,
                             system=result.system, config=result.config,
                             timing=result.machine.timing.canonical_name(),
                             max_segments=max_segments)
    if result.obs is not None:
        return analyze_observed(result)
    raise ConfigurationError(
        "bottleneck analysis needs evidence: run the session with "
        ".capture() (fixed timing) or .observe() (any timing)")


# ----------------------------------------------------------------------
# Human rendering
# ----------------------------------------------------------------------
def _top_classes(classes: dict[str, int], total: int,
                 limit: int = 5) -> str:
    ranked = sorted(((cycles, klass) for klass, cycles in classes.items()
                     if cycles > 0), key=lambda cv: (-cv[0], cv[1]))
    return " | ".join(f"{klass} {100 * cycles / total:.1f}%"
                      for cycles, klass in ranked[:limit]) or "-"


def format_analysis(doc: dict) -> str:
    """Render one analysis document as a compact human block."""
    wall = doc["wall_cycles"] or 1
    head = (f"{doc['workload']} on {doc['system']}:{doc['config']} "
            f"({doc['timing']}, source={doc['source']}): "
            f"{doc['wall_cycles']:,} cycles, {doc['events']:,} events")
    lines = [head,
             f"  by class: {_top_classes(doc['classes'], wall * max(1, len(doc['sequencers'])))}"]
    cp = doc.get("critical_path")
    if cp:
        lines.append(
            f"  critical path: {cp['events']} events, "
            f"{100 * cp['fraction_of_wall']:.1f}% of wall -- "
            f"{_top_classes(cp['by_class'], max(cp['cycles'], 1))}")
    for seq_id, row in doc["sequencers"].items():
        lines.append(
            f"  seq {seq_id} ({row['role']}): "
            f"util {100 * row['utilization']:.1f}%  "
            f"{_top_classes(row['classes'], wall, limit=3)}")
    return "\n".join(lines)
