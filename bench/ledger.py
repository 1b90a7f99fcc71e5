"""The per-layer ledger: boundary spans, profile shares, Chrome trace.

Everything here measures ``repro`` from outside.  :func:`instrumented`
wraps public callables at layer boundaries in spans for the length of
one traced round; :func:`profile_shares` rolls a ``cProfile`` run up
by ``repro`` subpackage.  Spans stay in memory until the run ends and
are then written as a Chrome trace that opens in ui.perfetto.dev.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import json
import pstats
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import repro.service.executor as executor
from repro.obs import critpath, perfetto
from repro.service import ResultStore
from repro.sim.captrace import ReplayMachine
from repro.systems import Session

#: the subpackages of ``repro``, plus ``python`` for the standard
#: library, builtins and the benchmark's own code
LAYERS = ("isa", "exec", "core", "smp", "kernel", "mem", "sim", "timing",
          "shredlib", "workloads", "systems", "experiments", "service",
          "obs", "analysis", "python")


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "span_id", "parent_id", "thread", "start", "end",
                 "child", "work")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 thread: int) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.start = time.perf_counter()
        self.end = self.start
        #: seconds covered by child spans on the same thread
        self.child = 0.0
        #: deterministic work counts of the call (``sim.ops``, ...)
        self.work: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Collects spans in memory; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        sp = Span(name, next(self._ids),
                  parent.span_id if parent else None, threading.get_ident())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child += sp.duration
            self.spans.append(sp)


def _run_work(args, result) -> dict[str, int]:
    machine = result.machine
    counters = machine.hierarchy.counters()
    return {"sim.ops": sum(s.ops_executed for s in machine.sequencers),
            "mem.accesses": counters["l1_hits"] + counters["l1_misses"]}


def _replay_work(args, result) -> dict[str, int]:
    return {"sim.trace_events": args[0].trace.num_events}


#: (owner, attribute, span name, work counter) of every wrapped callable
BOUNDARIES = (
    (Session, "run", "systems.run", _run_work),
    (executor, "execute", "service.execute", None),
    (executor, "execute_captured", "sim.capture", None),
    (ReplayMachine, "run", "sim.replay", _replay_work),
    (ResultStore, "get", "service.store.get", None),
    (ResultStore, "put", "service.store.put", None),
    (critpath, "analyze_result", "obs.analyze", None),
    (perfetto, "export_run", "obs.export", None),
)


def _traced(tracer: Tracer, name: str, fn, work):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if work is not None:
            sp.work = work(args, result)
        return result
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every :data:`BOUNDARIES` callable in a span until exit.

    The callables are looked up on their module or class at call time
    everywhere ``repro`` and the workloads use them, so the wrappers
    see every call.
    """
    saved = []
    try:
        for owner, attr, name, work in BOUNDARIES:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.busy_s`` per span name, the summed
    work counts, and the per-unit costs they are denominators of."""
    out: dict[str, float] = {}
    for sp in spans:
        out[f"{sp.name}.calls"] = out.get(f"{sp.name}.calls", 0) + 1
        out[f"{sp.name}.busy_s"] = (out.get(f"{sp.name}.busy_s", 0.0)
                                    + sp.duration)
        for key, value in sp.work.items():
            out[key] = out.get(key, 0) + value
    if out.get("sim.ops"):
        out["systems.run.us_per_op"] = (out["systems.run.busy_s"] * 1e6
                                        / out["sim.ops"])
    if out.get("sim.trace_events"):
        out["sim.replay.us_per_event"] = (out["sim.replay.busy_s"] * 1e6
                                          / out["sim.trace_events"])
    return out


class Profiler:
    """``cProfile`` of the calling thread and of every thread started
    while it is enabled: the service resolves each job on a thread of
    its own.  Each thread gets its own ``cProfile.Profile``;
    :meth:`stats` merges them."""

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._threads: list[cProfile.Profile] = []

    def _start_thread(self, frame, event, arg) -> None:
        # first profile event of a new thread: its own profiler takes
        # over from this hook for the rest of the thread
        profile = cProfile.Profile()
        self._threads.append(profile)
        profile.enable()

    def enable(self) -> None:
        threading.setprofile(self._start_thread)
        self._main.enable()

    def disable(self) -> None:
        self._main.disable()
        threading.setprofile(None)

    def stats(self) -> pstats.Stats:
        stats = pstats.Stats(self._main)
        for profile in self._threads:
            stats.add(profile)
        return stats


#: blocking builtins: time in them is waiting for another thread, not
#: work of any layer
WAITS = frozenset({"<method 'acquire' of '_thread.lock' objects>"})


def layer_of(filename: str) -> str:
    """The ``repro`` subpackage a source file belongs to.

    ``repro``'s top-level modules (``params``, ``errors``) hold the
    machine description and count as ``core``; anything outside
    ``repro`` counts as ``python``.
    """
    parts = Path(filename).parts
    if "repro" not in parts:
        return "python"
    i = len(parts) - 1 - parts[::-1].index("repro")
    sub = parts[i + 1] if i + 1 < len(parts) else ""
    return sub if sub in LAYERS else "core"


def profile_shares(stats: pstats.Stats) -> dict[str, float]:
    """``<layer>.self_share``: each layer's share of profiled tottime,
    lock waits left out."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, func), row in stats.stats.items():
        if func not in WAITS:
            totals[layer_of(filename)] += row[2]
    total = sum(totals.values()) or 1.0
    return {f"{layer}.self_share": seconds / total
            for layer, seconds in totals.items()}


def chrome_events(spans: list[Span], workload: str, pid: int) -> list[dict]:
    """Spans as Chrome trace events: one process for the workload, one
    track per thread, nested complete (``X``) slices."""
    events = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
               "args": {"name": workload}}]
    if not spans:
        return events
    origin = min(sp.start for sp in spans)
    tids: dict[int, int] = {}
    for sp in sorted(spans, key=lambda s: (s.start, s.span_id)):
        if sp.thread not in tids:
            tids[sp.thread] = len(tids)
            events.append({"ph": "M", "pid": pid, "tid": tids[sp.thread],
                           "name": "thread_name",
                           "args": {"name": "main" if not tids[sp.thread]
                                    else f"job-{tids[sp.thread]}"}})
        events.append({
            "ph": "X", "pid": pid, "tid": tids[sp.thread],
            "name": sp.name, "cat": sp.name.split(".")[0],
            "ts": round((sp.start - origin) * 1e6, 3),
            "dur": round(sp.duration * 1e6, 3),
            "args": {"id": sp.span_id, "parent": sp.parent_id,
                     "self_us": round(sp.self_time * 1e6, 3), **sp.work},
        })
    return events


def write_chrome_trace(path: Path, pid: int, events: list[dict]) -> None:
    """Replace process ``pid`` in the trace file at ``path`` (other
    workloads' processes stay), so one file gathers every workload."""
    kept: list[dict] = []
    try:
        with open(path, encoding="utf-8") as fh:
            kept = [e for e in json.load(fh)["traceEvents"]
                    if e.get("pid") != pid]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": kept + events, "displayTimeUnit": "ms"},
                  fh)
