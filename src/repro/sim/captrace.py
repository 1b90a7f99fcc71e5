"""Trace capture and replay: the trace-driven fast path.

The paper's figures are parameter sweeps -- SIGNAL cost, memory cost
-- over the *same* workload executions.  Execution-driven simulation
re-interprets the mini-ISA and re-walks every cache line at every
sweep point, even though only the *timing* parameters changed.  This
module implements the classic execution-driven/trace-driven split:

* :class:`TraceCapture` hangs off the engine's recorder hook and
  records, for every scheduled event, its parent (the event executing
  when it was scheduled), its delay, and -- via annotations the
  machine attaches on the hot paths -- how that delay decomposes into
  :class:`~repro.params.MachineParams` coefficients and memory-
  hierarchy accesses.  From the hierarchy's counters it also records
  each event's access *profile* (lines, L1 misses, memory accesses);
* :class:`CapturedTrace` is the resulting plain-data artifact
  (picklable, so worker processes can ship it);
* :class:`ReplayMachine` re-charges a captured trace under new
  parameters -- no interpreter, no shredlib, no kernel.  It re-prices
  each delay as ``base + sum(param * mult // div) + hierarchy cost``,
  touching only the events that carry coefficients or accesses, then
  turns delays into completion times in one pass over the
  event-dependency graph.  The hierarchy cost comes from a per-event
  profile of the cache geometry: the capture's own for the captured
  geometry, else one re-drive of the recorded access stream through
  a freshly built :class:`~repro.mem.hierarchy.MemoryHierarchy`.

Replay is *exact* when parameters are unchanged (asserted in
``tests/test_replay.py``) and is a faithful trace-driven
approximation for sweeps over :data:`REPLAY_SAFE_FIELDS` -- the
timing-only axes, where the recorded event order is held fixed.
Parameters that change control flow (``timer_quantum``,
``tlb_entries``, scheduling policy, workload scale, ...) invalidate
the trace; :meth:`ReplayMachine.run` refuses them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.mem.hierarchy import MemoryHierarchy
from repro.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary
    from repro.sim.engine import Engine

#: per-event access profile: seqno -> (lines touched, L1 misses,
#: memory accesses), plus the hierarchy's aggregate counters
AccessProfile = tuple[dict[int, tuple[int, int, int]], dict[str, int]]

#: MachineParams fields a captured trace may be re-priced across.
#: These affect only *when* recorded events complete, never *which*
#: events occur: costs charged per event (re-priced through recorded
#: coefficients) and cache geometry (re-priced by re-driving the
#: recorded access stream).  Everything else -- quanta and interrupt
#: periods, TLB shape, frame counts, costs baked into generated
#: Compute ops (queue/shred-switch/idle-poll/ISA costs) -- steers
#: control flow, so sweeping it demands a fresh execution-driven run.
#: ``syscall_service_cost`` and ``atomic_op_cost`` are baked in too:
#: SMP thread creation yields a ``SyscallOp`` with an explicit cost,
#: and the proxy handler's registration a ``Compute`` of two atomics,
#: so neither records a coefficient a replay could re-price.
#: The scoreboard pipeline knobs (``sb_*``) are likewise excluded:
#: capture itself requires the constant-cost ``fixed`` timing model
#: (under which they are inert), so replaying across them would
#: silently answer a question the trace never asked.
REPLAY_SAFE_FIELDS = frozenset({
    "signal_cost",
    "page_fault_service_cost",
    "timer_service_cost",
    "interrupt_service_cost",
    "context_switch_cost",
    "sequencer_state_save_cost",
    "page_walk_cost",
    "l1_hit_cost",
    "l2_hit_cost",
    "mem_cost",
    "l1_size",
    "l1_assoc",
    "l2_size",
    "l2_assoc",
    "cache_line_size",
})


def replayable_changes(old: MachineParams, new: MachineParams) -> set[str]:
    """Fields changed between two parameter sets, if all are replay-safe.

    Raises :class:`ConfigurationError` when any changed field is not a
    timing-only axis.
    """
    changed = {f.name for f in dataclasses.fields(MachineParams)
               if getattr(old, f.name) != getattr(new, f.name)}
    bad = changed - REPLAY_SAFE_FIELDS
    if bad:
        raise ConfigurationError(
            f"cannot replay across non-timing parameters {sorted(bad)}: "
            "these change the event structure; run execution-driven")
    return changed


class TraceCapture:
    """Recorder attached to an :class:`~repro.sim.engine.Engine`.

    The engine notifies it of every ``schedule`` (building the event
    dependency graph); the machine annotates the event it is about to
    schedule with the parameter coefficients and hierarchy accesses
    that went into its delay, and drops *marks* (process exit, AMS
    suspend/resume, proxy raise/done) used to rebuild the derived
    statistics at replay time.  What each event's accesses did in
    ``hierarchy`` -- its access profile -- is read off the hierarchy's
    counters as the accesses are annotated.
    """

    def __init__(self, engine: "Engine",
                 hierarchy: MemoryHierarchy) -> None:
        self.engine = engine
        self.hierarchy = hierarchy
        #: seqno -> scheduling event's seqno (-1 = scheduled outside run())
        self.parents: list[int] = []
        #: seqno -> recorded delay in cycles
        self.delays: list[int] = []
        #: schedule-time clock for parentless events
        self.root_now: dict[int, int] = {}
        #: seqno -> ((param_field, mult, div), ...) cost coefficients
        self.coefs: dict[int, tuple] = {}
        #: seqno -> (recorded_hierarchy_cost, ((seq_id, paddr, span,
        #: write), ...)) in intra-event access order
        self.accesses: dict[int, tuple] = {}
        #: seqno -> (lines, l1 misses, memory accesses) of those
        #: accesses: the event's profile for the captured geometry
        self.profile: dict[int, tuple[int, int, int]] = {}
        #: seqno -> seq_id whose busy_cycles this event's delay charged
        self.busy_seq: dict[int, int] = {}
        #: seqno -> seq_id the delay is *attributed* to without being
        #: charged to its busy_cycles (ring-transition stages, proxy
        #: egress, context switches); analysis-only -- replay derives
        #: utilization from busy_seq alone
        self.owner_seq: dict[int, int] = {}
        #: (kind, at_seqno, at_now, arg) in chronological order
        self.marks: list[tuple[str, int, int, Any]] = []
        self._next_proxy_id = 0
        # pending annotations, attached to the next scheduled event
        self._pend_coefs: list[tuple[str, int, int]] = []
        self._pend_accesses: list[tuple[int, int, int, bool]] = []
        self._pend_cost = 0
        self._pend_lines = 0
        self._pend_l1_misses = 0
        self._pend_mem = 0
        self._pend_busy: Optional[int] = None
        self._pend_owner: Optional[int] = None
        # the hierarchy's counters as of the previous access: seq_id ->
        # (its L1, L1 hits, L1 misses), and memory accesses
        self._l1_seen: dict[int, tuple] = {}
        for domain in hierarchy.domains():
            for seq_id in domain:
                l1 = hierarchy.l1(seq_id)
                self._l1_seen[seq_id] = (l1, l1.hits, l1.misses)
        self._mem_seen = hierarchy.mem_accesses

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def on_schedule(self, seqno: int, parent: int, now: int,
                    delay: int) -> None:
        if seqno != len(self.parents):
            raise SimulationError(
                "trace capture attached mid-run: event seqnos must be "
                "dense from 0 (enable capture before staging)")
        self.parents.append(parent)
        self.delays.append(delay)
        if parent < 0:
            self.root_now[seqno] = now
        if self._pend_coefs:
            self.coefs[seqno] = tuple(self._pend_coefs)
            self._pend_coefs = []
        if self._pend_accesses:
            self.accesses[seqno] = (self._pend_cost,
                                    tuple(self._pend_accesses))
            self.profile[seqno] = (self._pend_lines, self._pend_l1_misses,
                                   self._pend_mem)
            self._pend_accesses = []
            self._pend_cost = 0
            self._pend_lines = self._pend_l1_misses = self._pend_mem = 0
        if self._pend_busy is not None:
            self.busy_seq[seqno] = self._pend_busy
            self._pend_busy = None
        if self._pend_owner is not None:
            self.owner_seq[seqno] = self._pend_owner
            self._pend_owner = None

    # ------------------------------------------------------------------
    # Machine-side annotations (always immediately before the one
    # engine.schedule call whose delay they describe)
    # ------------------------------------------------------------------
    def pend_coef(self, key: str, mult: int = 1, div: int = 1) -> None:
        """The next scheduled delay includes ``params.key * mult // div``."""
        self._pend_coefs.append((key, mult, div))

    def pend_access(self, seq_id: int, paddr: int, span: int, write: bool,
                    cost: int) -> None:
        """The next scheduled delay includes a hierarchy access that
        charged ``cost`` cycles at capture time.

        Called right after every access, so the access's profile is
        the growth of the counters it touches since the previous one:
        ``seq_id``'s L1 and the memory level.
        """
        self._pend_accesses.append((seq_id, paddr, span, write))
        self._pend_cost += cost
        l1, hits, misses = self._l1_seen[seq_id]
        self._l1_seen[seq_id] = (l1, l1.hits, l1.misses)
        self._pend_lines += l1.hits - hits + l1.misses - misses
        self._pend_l1_misses += l1.misses - misses
        mem = self.hierarchy.mem_accesses
        self._pend_mem += mem - self._mem_seen
        self._mem_seen = mem

    def pend_busy(self, seq_id: int) -> None:
        """The next scheduled delay was charged to ``seq_id``'s
        busy_cycles."""
        self._pend_busy = seq_id

    def pend_owner(self, seq_id: int) -> None:
        """The next scheduled delay belongs to ``seq_id`` for
        *attribution* (critical-path / bottleneck analysis) without
        charging its busy_cycles -- the serialization stages where the
        sequencer is architecturally occupied but not executing an op."""
        self._pend_owner = seq_id

    def mark(self, kind: str, arg: Any = None) -> None:
        """Record a point-in-time observation during the current event."""
        engine = self.engine
        self.marks.append((kind, engine.current_seqno, engine.now, arg))

    def proxy_raised(self) -> int:
        """Mark a proxy request being raised; returns its trace-local id."""
        req_id = self._next_proxy_id
        self._next_proxy_id = req_id + 1
        self.mark("praise", req_id)
        return req_id


@dataclass
class CapturedTrace:
    """The plain-data product of one captured execution-driven run."""

    #: parameters the trace was captured under
    params: MachineParams
    #: hierarchy topology: one tuple of seq_ids per L2 domain
    domains: tuple[tuple[int, ...], ...]
    oms_ids: tuple[int, ...]
    ams_ids: tuple[int, ...]
    #: pid of the application process (its exit defines ``cycles``)
    app_pid: int
    parents: list[int]
    delays: list[int]
    root_now: dict[int, int]
    coefs: dict[int, tuple]
    accesses: dict[int, tuple]
    busy_seq: dict[int, int]
    marks: list[tuple[str, int, int, Any]]
    #: analysis-only sequencer attribution for serialization delays
    #: (see :meth:`TraceCapture.pend_owner`)
    owner_seq: dict[int, int] = field(default_factory=dict)
    #: the access profile of the captured geometry, as recorded while
    #: capturing; not serialized (replay re-drives when it is absent)
    profile: Optional[AccessProfile] = field(default=None, repr=False)
    #: the execution-driven summary of the captured run, attached by
    #: the experiment layer (replay re-prices it)
    snapshot: Optional["RunSummary"] = field(default=None, repr=False)

    @classmethod
    def from_machine(cls, machine, capture: TraceCapture,
                     app_pid: int) -> "CapturedTrace":
        return cls(
            params=machine.params,
            domains=machine.hierarchy.domains(),
            oms_ids=tuple(machine.oms_ids()),
            ams_ids=tuple(machine.ams_ids()),
            app_pid=app_pid,
            parents=capture.parents,
            delays=capture.delays,
            root_now=capture.root_now,
            coefs=capture.coefs,
            accesses=capture.accesses,
            busy_seq=capture.busy_seq,
            marks=capture.marks,
            owner_seq=capture.owner_seq,
            profile=(capture.profile, machine.hierarchy.counters()),
        )

    @property
    def num_events(self) -> int:
        return len(self.parents)

    # ------------------------------------------------------------------
    # JSON portability (committed analysis fixtures, artifact exchange)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable copy of the trace (without the attached
        :class:`RunSummary` snapshot -- analysis needs only the graph).

        Mapping keys become strings and tuples become lists, exactly
        reversed by :meth:`from_dict`; a round trip preserves every
        field :mod:`repro.obs.critpath` reads.
        """
        return {
            "schema": "repro.captrace/1",
            "params": dataclasses.asdict(self.params),
            "domains": [list(d) for d in self.domains],
            "oms_ids": list(self.oms_ids),
            "ams_ids": list(self.ams_ids),
            "app_pid": self.app_pid,
            "parents": list(self.parents),
            "delays": list(self.delays),
            "root_now": {str(k): v for k, v in self.root_now.items()},
            "coefs": {str(k): [list(c) for c in v]
                      for k, v in self.coefs.items()},
            "accesses": {str(k): [cost, [list(a) for a in records]]
                         for k, (cost, records) in self.accesses.items()},
            "busy_seq": {str(k): v for k, v in self.busy_seq.items()},
            "owner_seq": {str(k): v for k, v in self.owner_seq.items()},
            "marks": [list(m) for m in self.marks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CapturedTrace":
        """Rebuild a trace from :meth:`to_dict` output (no snapshot, so
        the result analyzes but does not replay)."""
        return cls(
            params=MachineParams(**data["params"]),
            domains=tuple(tuple(d) for d in data["domains"]),
            oms_ids=tuple(data["oms_ids"]),
            ams_ids=tuple(data["ams_ids"]),
            app_pid=data["app_pid"],
            parents=list(data["parents"]),
            delays=list(data["delays"]),
            root_now={int(k): v for k, v in data["root_now"].items()},
            coefs={int(k): tuple(tuple(c) for c in v)
                   for k, v in data["coefs"].items()},
            accesses={int(k): (cost, tuple(tuple(a) for a in records))
                      for k, (cost, records) in data["accesses"].items()},
            busy_seq={int(k): v for k, v in data["busy_seq"].items()},
            owner_seq={int(k): v
                       for k, v in data.get("owner_seq", {}).items()},
            marks=[(str(m[0]), int(m[1]), int(m[2]), m[3])
                   for m in data["marks"]],
        )


#: the MachineParams fields that shape the cache model (as opposed to
#: pricing it); replays sharing a geometry share one access profile
_GEOMETRY_FIELDS = ("l1_size", "l1_assoc", "l2_size", "l2_assoc",
                    "cache_line_size")

#: radix for the cost-decomposition probe drive (must exceed the lines
#: touched by any single event; a page Touch is 64 lines plus a fetch)
_PROBE_RADIX = 1 << 21


def _geometry(params: MachineParams) -> tuple:
    return tuple(getattr(params, f) for f in _GEOMETRY_FIELDS)


class ReplayMachine:
    """Re-charges a :class:`CapturedTrace` under new parameters.

    One instance replays one trace any number of times.  Each replay
    prices events from a per-event (lines, l1-misses, mem-accesses)
    profile of its cache *geometry* (sizes, associativities, line
    size).  The captured geometry's profile comes with the trace, so
    a timing-only point -- each point of a ``mem_cost`` or
    ``signal_cost`` sweep -- is pure arithmetic.  A new geometry
    re-drives the recorded access stream through a fresh
    :class:`~repro.mem.hierarchy.MemoryHierarchy` once.  The re-drive
    walks events in schedule order, which is also the chronological
    order every access was recorded in, so the cache model sees its
    original global reference stream.
    """

    def __init__(self, trace: CapturedTrace) -> None:
        if trace.snapshot is None:
            raise ConfigurationError(
                "trace has no execution-driven snapshot attached; "
                "capture through the experiment layer or set "
                "trace.snapshot first")
        self.trace = trace
        #: geometry tuple -> access profile
        self._profiles: dict[tuple, AccessProfile] = {}
        if trace.profile is not None:
            self._profiles[_geometry(trace.params)] = trace.profile
        # what every replay starts from: the recorded delays without
        # their hierarchy cost, and the events grouped by the
        # coefficients they carry and the sequencer they keep busy
        bare = list(trace.delays)
        for i, (cost, _records) in trace.accesses.items():
            bare[i] -= cost
        self._bare_delays = bare
        self._coef_events: dict[tuple, list[int]] = {}
        for i, coefs in trace.coefs.items():
            self._coef_events.setdefault(coefs, []).append(i)
        self._busy_events: dict[int, list[int]] = {}
        for i, seq_id in trace.busy_seq.items():
            self._busy_events.setdefault(seq_id, []).append(i)

    # ------------------------------------------------------------------
    def _access_profile(self, params: MachineParams) -> AccessProfile:
        """The trace's access behaviour under ``params``' geometry.

        Re-drives the recorded access stream with probe costs
        ``(1, R, R^2)`` so each event's total decomposes by radix into
        ``(lines touched, l1 misses, memory accesses)`` -- from which
        any cost assignment is a dot product.  Cached per geometry.
        """
        key = _geometry(params)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        radix = _PROBE_RADIX
        probe = params.with_changes(l1_hit_cost=1, l2_hit_cost=radix,
                                    mem_cost=radix * radix)
        hierarchy = MemoryHierarchy(probe)
        for domain in self.trace.domains:
            hierarchy.add_domain(domain)
        access_line = hierarchy.access_line
        access_range = hierarchy.access_range
        line_size = hierarchy.line_size
        per_event: dict[int, tuple[int, int, int]] = {}
        # dict insertion order == seqno order == the chronological
        # order the accesses originally hit the hierarchy
        for seqno, (_old_cost, records) in self.trace.accesses.items():
            c = 0
            for seq_id, paddr, span, write in records:
                if span <= 1:
                    c += access_line(seq_id, paddr // line_size, write)
                else:
                    c += access_range(seq_id, paddr, span, write)
            per_event[seqno] = (c % radix, (c // radix) % radix,
                                c // (radix * radix))
        profile = (per_event, hierarchy.counters())
        self._profiles[key] = profile
        return profile

    def run(self, params: Optional[MachineParams] = None,
            spec: Optional["RunSpec"] = None) -> "RunSummary":
        """Replay under ``params`` (or ``spec.params``); returns a
        :class:`~repro.experiments.summary.RunSummary` with
        ``timing="replay"``."""
        from repro.experiments.summary import (
            MemorySummary, ProxySummary, UtilizationSummary,
        )
        trace = self.trace
        old = trace.params
        new = spec.params if spec is not None else (params or old)
        replayable_changes(old, new)
        per_event, mem_counters = self._access_profile(new)

        # re-price only the events whose delay has a repriced part
        delays = self._bare_delays.copy()
        l1_cost = new.l1_hit_cost
        l2_cost = new.l2_hit_cost
        mem_cost = new.mem_cost
        for i, (lines, l1_misses, mem_refs) in per_event.items():
            delays[i] += (lines * l1_cost + l1_misses * l2_cost
                          + mem_refs * mem_cost)
        for coefs, events in self._coef_events.items():
            delta = sum((getattr(new, key) * mult) // div
                        - (getattr(old, key) * mult) // div
                        for key, mult, div in coefs)
            if delta:
                for i in events:
                    delays[i] += delta
        busy = {seq_id: sum(map(delays.__getitem__, events))
                for seq_id, events in self._busy_events.items()}
        # delays -> completion times, in place: a parent is scheduled
        # before its children, so times[p] is already a time
        times = delays
        root_now = trace.root_now
        for i, p in enumerate(trace.parents):
            times[i] += times[p] if p >= 0 else root_now[i]

        cycles, suspended, proxy_latency = derive_marks(trace, times)
        if cycles is None:
            cycles = max(times) if times else 0

        snap = trace.snapshot
        mem = MemorySummary(
            **mem_counters,
            tlb_hits=snap.mem.tlb_hits,
            tlb_misses=snap.mem.tlb_misses,
            tlb_flushes=snap.mem.tlb_flushes,
        )
        util = UtilizationSummary(
            oms_busy_cycles=sum(busy.get(s, 0) for s in trace.oms_ids),
            ams_busy_cycles=sum(busy.get(s, 0) for s in trace.ams_ids),
            ams_suspended_cycles=sum(suspended.get(s, 0)
                                     for s in trace.ams_ids),
            ops_executed=snap.utilization.ops_executed,
            num_oms=snap.utilization.num_oms,
            num_ams=snap.utilization.num_ams,
        )
        proxy = ProxySummary(
            requests=snap.proxy.requests,
            page_faults=snap.proxy.page_faults,
            syscalls=snap.proxy.syscalls,
            total_latency=proxy_latency,
            max_queue_depth=snap.proxy.max_queue_depth,
        )
        return dataclasses.replace(
            snap,
            cycles=cycles,
            mem=mem,
            utilization=util,
            proxy=proxy,
            events=dict(snap.events),
            timing="replay",
            scale=spec.scale if spec is not None else snap.scale,
            spec_hash=spec.spec_hash() if spec is not None else "",
        )


def derive_marks(trace: CapturedTrace, times: list[int]
                 ) -> tuple[Optional[int], dict[int, int], int]:
    """Recompute mark-derived statistics against event completion
    ``times`` (captured or replayed).

    Returns (app-exit cycles, per-sequencer suspended cycles, total
    proxy latency).  Suspension mirrors
    :meth:`repro.core.sequencer.Sequencer.suspend`'s depth counting;
    proxy latency pairs each raise with its completion.
    """
    cycles: Optional[int] = None
    depth: dict[int, int] = {}
    since: dict[int, int] = {}
    suspended: dict[int, int] = {}
    raised: dict[int, int] = {}
    proxy_latency = 0
    for kind, at_seqno, at_now, arg in trace.marks:
        t = times[at_seqno] if at_seqno >= 0 else at_now
        if kind == "sus":
            if depth.get(arg, 0) == 0:
                since[arg] = t
            depth[arg] = depth.get(arg, 0) + 1
        elif kind == "res":
            depth[arg] = depth.get(arg, 0) - 1
            if depth[arg] == 0:
                suspended[arg] = suspended.get(arg, 0) + t - since.pop(arg)
        elif kind == "praise":
            raised[arg] = t
        elif kind == "pdone":
            proxy_latency += t - raised.pop(arg)
        elif kind == "pexit":
            if arg == trace.app_pid:
                cycles = t
    return cycles, suspended, proxy_latency
