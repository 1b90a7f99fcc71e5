"""Critical-path and bottleneck attribution for simulation runs.

The captured event-dependency graph (:mod:`repro.sim.captrace`) is a
tree: every event has exactly one parent (the event executing when it
was scheduled) and completes at ``parent_time + delay``.  That makes
the classic critical-path questions cheap:

* **completion times** -- one forward pass in seqno order, computed
  once per trace and shared by everything below and by the Perfetto
  export (:func:`event_times`);
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
  (:func:`analyze_trace`).  The coefficient classes and the owner of
  an event come from its interned pattern, so they are worked out
  once per pattern, not once per event; the per-event work is integer
  sums over the trace's columns.

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
from repro.sim.captrace import app_exit_event, derive_marks
from repro.timing.base import PARAM_CLASS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.captrace import CapturedTrace
    from repro.workloads.runner import RunResult

__all__ = [
    "event_times", "event_slack", "critical_path",
    "critical_path_segments", "busy_timeline", "analyze_trace",
    "analyze_observed", "analyze_result", "format_analysis",
]

#: schema tag stamped into every analysis document
ANALYZE_SCHEMA = "repro.critpath/1"


# ----------------------------------------------------------------------
# Graph primitives
# ----------------------------------------------------------------------
def event_times(trace: "CapturedTrace") -> list[int]:
    """Completion time of every event: one forward pass, computed once
    per trace (the trace's shared, read-only ``times``)."""
    return trace.times


def _end_event(trace: "CapturedTrace", times: list[int]) -> Optional[int]:
    """The event whose completion defines the run's wall time.

    Preferably the event during which the application process exited
    (its ``pexit`` mark); otherwise the earliest event with the
    maximum completion time.
    """
    end = app_exit_event(trace)
    if end is not None:
        return end
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
    parents = trace.parents.tolist()
    for i in range(n - 1, -1, -1):
        p = parents[i]
        if p >= 0 and subtree_max[i] > subtree_max[p]:
            subtree_max[p] = subtree_max[i]
    wall = max(times) if times else 0
    return [wall - m for m in subtree_max]


def _pattern_classes(trace: "CapturedTrace"
                     ) -> list[tuple[int, dict[str, int], int]]:
    """Each pattern's part of the stall attribution, by pattern id:
    ``(cycles of its coefficient terms, {class: cycles} of them, owning
    sequencer or -1)``.

    Parameter coefficients map through :data:`PARAM_CLASS`; the owner
    is the sequencer the delay keeps busy, else the one it is
    attributed to.  A run has a handful of patterns, so this is the
    per-trace half of every event's classes.
    """
    params = trace.params
    out = []
    for coefs, busy, owner in trace.pattern_table:
        classes: dict[str, int] = {}
        for key, mult, div in coefs:
            cycles = (getattr(params, key) * mult) // div
            if cycles:
                klass = PARAM_CLASS.get(key, "compute")
                classes[klass] = classes.get(klass, 0) + cycles
        out.append((sum(classes.values()), classes,
                    busy if busy >= 0 else owner))
    return out


def _event_classes(delay: int, pattern: tuple[int, dict[str, int], int],
                   memory: int) -> dict[str, int]:
    """Decompose one event's delay into stall-taxonomy classes.

    Its pattern's coefficient classes, its hierarchy charges as
    ``memory``, and -- for an owned event, whose delay is priced work
    -- any remaining delay as ``compute``.  An unowned event (a timer
    sleep, a quantum delay) is a wait, not anyone's compute cycles:
    only its annotated cycles count.
    """
    if delay <= 0:
        return {}
    total, classes, owner = pattern
    out = dict(classes)
    if memory:
        out["memory"] = out.get("memory", 0) + memory
    if owner >= 0:
        rest = delay - total - memory
        if rest > 0:
            out["compute"] = out.get("compute", 0) + rest
    return out


def critical_path_segments(trace: "CapturedTrace",
                           times: Optional[list[int]] = None
                           ) -> list[dict]:
    """The critical path's events with a positive delay, as segments
    ``{"seqno", "start", "end", "cycles", "seq", "class"}`` in
    chronological order: each named by its dominant stall class
    (``wait`` when it has none) and owned by ``seq`` (-1: none)."""
    if times is None:
        times = event_times(trace)
    patterns = _pattern_classes(trace)
    parents, delays, pids = trace.parents, trace.delays, trace.patterns
    memory = dict(zip(trace.acc_events, trace.acc_costs))
    #: (pattern id, delay, memory) -> dominant class: events repeat
    dominant: dict[tuple[int, int, int], str] = {}
    segments = []
    for i in critical_path(trace, times):
        d = delays[i]
        if d <= 0:
            continue
        pid = pids[i]
        key = (pid, d, memory.get(i, 0))
        klass = dominant.get(key)
        if klass is None:
            classes = _event_classes(d, patterns[pid], key[2])
            klass = dominant[key] = (
                max(classes.items(), key=lambda kv: (kv[1], kv[0]))[0]
                if classes else "wait")
        p = parents[i]
        start = times[p] if p >= 0 else trace.root_now[i]
        segments.append({"seqno": i, "start": start, "end": times[i],
                         "cycles": d, "seq": patterns[pid][2],
                         "class": klass})
    return segments


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
    rows = [per_seq.get(busy if busy >= 0 else owner)
            for _, busy, owner in trace.pattern_table]
    root_now = trace.root_now
    last = nbuckets - 1
    for i, (p, end, pid) in enumerate(zip(trace.parents.tolist(), times,
                                          trace.patterns)):
        start = times[p] if p >= 0 else root_now[i]
        b = start // width
        b1 = end // width
        outstanding_delta[b if b < last else last] += 1
        if b1 > b:
            outstanding_delta[b1 if b1 < nbuckets else nbuckets] -= 1
        row = rows[pid]
        if row is None or end <= start:
            continue
        if b1 == b and b < nbuckets:
            row[b] += end - start      # within one bucket
            continue
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
    arrows) take :func:`critical_path_segments` instead.
    """
    times = event_times(trace)
    n = len(times)
    wall_end = _end_event(trace, times)
    wall = times[wall_end] if wall_end is not None else 0
    full = max(times) if times else 0

    # attribution, per pattern: its events with a positive delay, the
    # hierarchy charges among them, and the delay left over as compute
    patterns = _pattern_classes(trace)
    coef_cycles = [total for total, _, _ in patterns]
    counts = [0] * len(patterns)
    memory = [0] * len(patterns)
    residual = [0] * len(patterns)
    delays, pids = trace.delays, trace.patterns
    for d, pid in zip(delays, pids):
        if d > 0:
            counts[pid] += 1
            rest = d - coef_cycles[pid]
            if rest > 0:
                residual[pid] += rest
    for i, cost in zip(trace.acc_events, trace.acc_costs):
        d = delays[i]
        if d > 0 and cost:
            # the hierarchy charges are memory, not compute
            pid = pids[i]
            memory[pid] += cost
            rest = d - coef_cycles[pid]
            if rest > 0:
                residual[pid] -= cost if rest > cost else rest
    per_seq: dict[int, dict[str, int]] = {}
    unattributed = 0
    for pid, (total, classes, owner) in enumerate(patterns):
        count = counts[pid]
        if not count:
            continue
        if owner < 0:
            # unowned events (timer sleeps, quantum delays) are
            # waits: only their annotated cycles count, and having no
            # owning sequencer those go to the unattributed bucket
            unattributed += total * count + memory[pid]
            continue
        row = per_seq.setdefault(owner, {})
        for klass, cycles in classes.items():
            row[klass] = row.get(klass, 0) + cycles * count
        if memory[pid]:
            row["memory"] = row.get("memory", 0) + memory[pid]
        if residual[pid]:
            row["compute"] = row.get("compute", 0) + residual[pid]

    suspended = derive_marks(trace, times)[1]
    rows = []
    for seq_id in sorted(trace.oms_ids + trace.ams_ids):
        classes = per_seq.get(seq_id, {})
        # a captured sequencer's busy cycles are exactly its classes
        rows.append((seq_id, classes, sum(classes.values()),
                     suspended.get(seq_id, 0)))
    sequencers, totals = _roll_up(rows, set(trace.oms_ids), wall)

    segments = critical_path_segments(trace, times)
    path_by_class: dict[str, int] = {}
    for seg in segments:
        klass = seg["class"]
        path_by_class[klass] = path_by_class.get(klass, 0) + seg["cycles"]
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
    statistics plus the machine's stall account (``Machine.stalls``,
    which an observed run keeps).  No critical path -- the
    event-dependency graph was never recorded.
    """
    machine = result.machine
    wall = result.cycles
    stalls = machine.stalls
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
