"""Trace capture and replay: the trace-driven fast path.

The paper's figures are parameter sweeps -- SIGNAL cost, memory cost
-- over the *same* workload executions.  Execution-driven simulation
re-interprets the mini-ISA and re-walks every cache line at every
sweep point, even though only the *timing* parameters changed.  This
module implements the classic execution-driven/trace-driven split:

* :class:`TraceCapture` records, for every scheduled event, its
  parent (the event executing when it was scheduled), its delay, and
  -- via annotations the machine attaches on the hot paths -- how
  that delay decomposes into :class:`~repro.params.MachineParams`
  coefficients and memory-hierarchy accesses, and which sequencer it
  keeps busy or is attributed to;
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

The trace is columnar: flat stdlib :class:`array.array` columns
indexed by event seqno -- ``parents``, ``delays`` and ``patterns``,
one interned pattern id per event.  A pattern is the rest of what the
machine annotates an event with: the
:class:`~repro.params.MachineParams` coefficient terms of its delay,
and the sequencer the delay keeps busy or is attributed to (-1 for
none); a run has only a few dozen distinct ones (``pattern_table``).
The hierarchy accesses are flat records (``acc_addrs``, and
``acc_spans`` holding ``span * 2 + write``; the accessing sequencer is
the one its event keeps busy) in the order they hit the hierarchy.
The events that made them are listed in ``acc_events`` with the
offsets of their records (``acc_ends``), their recorded hierarchy
cost (``acc_costs``), and the counters their access profile derives
from (``counts``).  Marks are four more columns (``mark_*``).  Nothing
holds a Python object per event, so a capture holds about 40-50 bytes
per event, and filling the columns takes no call per event: the
engine's capture path appends each new event's row, and the machine
writes its annotations straight into the row of the event it has just
scheduled.

:meth:`CapturedTrace.to_dict` expands the columns into the
``repro.captrace/1`` JSON form of the committed fixtures, keyed by
seqno -- ``coefs``, ``accesses`` (cost and records), ``busy_seq`` and
``owner_seq`` for the events that have them, plus the parents,
delays, parentless events' clocks and marks -- and
:meth:`CapturedTrace.from_dict` rebuilds the columns from it.

Replay is *exact* when parameters are unchanged (asserted in
``tests/test_replay.py``) and is a faithful trace-driven
approximation for sweeps over :data:`REPLAY_SAFE_FIELDS` -- the
timing-only axes, where the recorded event order is held fixed.
Everything else -- workload, system, configuration, scale, scheduling
policy, timing model, and parameters that change control flow
(``timer_quantum``, ``tlb_entries``, ...) -- invalidates the trace:
:meth:`ReplayMachine.run` refuses a spec that differs from the
captured one (:attr:`CapturedTrace.spec`) outside those fields.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigurationError
from repro.mem.hierarchy import MemoryHierarchy
from repro.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary
    from repro.sim.engine import Engine

#: the access profile of one cache geometry: for each event in
#: ``acc_events`` order, its lines touched, L1 misses and memory
#: accesses (three parallel lists), plus the hierarchy's aggregate
#: counters
AccessProfile = tuple[list[int], list[int], list[int], dict[str, int]]

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

#: bits of an op issue's coefficient terms: an atomic's default cost,
#: a page walk (both in that order when both apply), or one SIGNAL's
#: cost; each bit combination indexes the issue's pattern
ISSUE_ATOMIC = 1
ISSUE_WALK = 2
ISSUE_SIGNAL = 4
_ISSUE_COEFS = (
    (),
    (("atomic_op_cost", 1, 1),),
    (("page_walk_cost", 1, 1),),
    (("atomic_op_cost", 1, 1), ("page_walk_cost", 1, 1)),
    (("signal_cost", 1, 1),),
)

#: the pattern of an event with no coefficients and no sequencer
#: (timer and device ticks, thread wake-ups); id 0 in every trace
_NO_PATTERN = ((), -1, -1)

#: the kinds of marks, by code: an AMS suspended and resumed (arg:
#: its seq_id), a proxy request raised and done (arg: its trace-local
#: id), a process exit (arg: its pid)
MARK_KINDS = ("sus", "res", "praise", "pdone", "pexit")
_MARK_CODES = {kind: code for code, kind in enumerate(MARK_KINDS)}
_SUS, _RES, _PRAISE, _PDONE, _PEXIT = range(len(MARK_KINDS))


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


def replay_mismatch(captured: "RunSpec", spec: "RunSpec") -> list[str]:
    """The fields in which ``spec`` leaves ``captured``'s replay class:
    every differing spec field but ``params``, and every differing
    parameter outside :data:`REPLAY_SAFE_FIELDS`."""
    old, new = captured.to_dict(), spec.to_dict()
    old_params, new_params = old.pop("params"), new.pop("params")
    return sorted([name for name in old if old[name] != new[name]]
                  + [name for name in old_params
                     if name not in REPLAY_SAFE_FIELDS
                     and old_params[name] != new_params[name]])


class TraceCapture:
    """The columns of a capture in progress, as plain lists (the
    fastest thing CPython appends to); :meth:`CapturedTrace.from_machine`
    packs them into arrays once the run is over.

    :meth:`~repro.sim.engine.Engine.schedule` appends every new
    event's parent, delay and pattern 0 (no coefficients, no
    sequencer).  The machine then overwrites the last pattern with the
    one of the event it has just scheduled: an op issue's from
    ``issue_patterns`` (by issuing sequencer and ``ISSUE_*`` bits), a
    serialization stage's from :meth:`pattern_id`.  It appends each
    hierarchy access to the access records as it makes it, and once an
    op issue is scheduled, closes the records it made into one access
    event, with the hierarchy cost they charged and the counters its
    access profile derives from: the issuing sequencer's L1 misses and
    the memory accesses so far.  *Marks* (process exit, AMS
    suspend/resume, proxy raise/done) record the points replay
    rebuilds derived statistics from.
    """

    def __init__(self, engine: "Engine", hierarchy: MemoryHierarchy,
                 seq_ids: Iterable[int]) -> None:
        self.engine = engine
        #: per event: the scheduling event's seqno (-1 = scheduled
        #: outside run()), the delay in cycles, and the pattern id
        self.parents: list[int] = []
        self.delays: list[int] = []
        self.patterns: list[int] = []
        #: pattern -> id, in id order
        self.pattern_ids: dict[tuple, int] = {_NO_PATTERN: 0}
        #: seq_id -> its L1 (where an access event reads its misses)
        self.l1s = {seq_id: hierarchy.l1(seq_id)
                    for domain in hierarchy.domains() for seq_id in domain}
        #: seq_id -> the pattern ids of its op issues, by ISSUE_* bits
        self.issue_patterns = {
            seq_id: tuple(self.pattern_id(coefs, busy=seq_id)
                          for coefs in _ISSUE_COEFS)
            for seq_id in seq_ids}
        #: schedule-time clock of parentless events
        self.root_now: dict[int, int] = {}
        #: per mark, in chronological order: its MARK_KINDS code, the
        #: seqno and clock of the event it was made in, and its arg
        self.mark_kinds: list[int] = []
        self.mark_seqnos: list[int] = []
        self.mark_nows: list[int] = []
        self.mark_args: list[int] = []
        #: access records, in the order they hit the hierarchy: the
        #: physical address, and the span in bytes times 2 plus 1 for
        #: a write (the accessing sequencer is the event's busy one)
        self.acc_addrs: list[int] = []
        self.acc_spans: list[int] = []
        #: per access event: its seqno, the end of its records (the
        #: start is the previous end), the hierarchy cost they charged
        #: at capture, and the issuing sequencer's L1 misses and the
        #: memory accesses after them (cumulative)
        self.acc_events: list[int] = []
        self.acc_ends: list[int] = [0]
        self.acc_costs: list[int] = []
        self.acc_l1_misses: list[int] = []
        self.acc_mem: list[int] = []
        #: the counters before the first access event
        self.start = ({seq_id: l1.misses for seq_id, l1 in self.l1s.items()},
                      hierarchy.mem_accesses)
        self._next_proxy_id = 0

    def pattern_id(self, coefs: tuple, busy: int = -1,
                   owner: int = -1) -> int:
        """The id of the pattern of an event whose delay has the
        coefficient terms ``coefs`` and keeps sequencer ``busy`` busy
        or is attributed to sequencer ``owner`` (-1: none); interned
        on first use."""
        ids = self.pattern_ids
        return ids.setdefault((coefs, busy, owner), len(ids))

    def mark(self, kind: str, arg: int) -> None:
        """Record a point-in-time observation during the current event
        (``kind`` one of :data:`MARK_KINDS`)."""
        engine = self.engine
        self.mark_kinds.append(_MARK_CODES[kind])
        self.mark_seqnos.append(engine.current_seqno)
        self.mark_nows.append(engine.now)
        self.mark_args.append(arg)

    def proxy_raised(self) -> int:
        """Mark a proxy request being raised; returns its trace-local id."""
        req_id = self._next_proxy_id
        self._next_proxy_id = req_id + 1
        self.mark("praise", req_id)
        return req_id


@dataclass(eq=False)
class CapturedTrace:
    """The plain-data product of one captured execution-driven run
    (the columns are described in the module docstring)."""

    #: parameters the trace was captured under
    params: MachineParams
    #: hierarchy topology: one tuple of seq_ids per L2 domain
    domains: tuple[tuple[int, ...], ...]
    oms_ids: tuple[int, ...]
    ams_ids: tuple[int, ...]
    #: pid of the application process (its exit defines ``cycles``)
    app_pid: int
    parents: array
    delays: array
    patterns: array
    #: pattern id -> (coefficient terms, busy seq_id, owner seq_id)
    pattern_table: tuple[tuple[tuple, int, int], ...]
    root_now: dict[int, int]
    mark_kinds: array
    mark_seqnos: array
    mark_nows: array
    mark_args: array
    acc_addrs: array
    acc_spans: array
    acc_events: array
    acc_ends: array
    acc_costs: array
    #: what the captured geometry's access profile derives from, as
    #: recorded while capturing: per access event the cumulative L1
    #: misses and memory accesses, the counters before the first, and
    #: the hierarchy's aggregate counters at the end.  Not serialized
    #: (replay re-drives when it is absent)
    counts: Optional[tuple] = dataclasses.field(default=None, repr=False)
    #: the execution-driven summary of the captured run, attached by
    #: the experiment layer (replay re-prices it)
    snapshot: Optional["RunSummary"] = dataclasses.field(default=None,
                                                         repr=False)
    #: the spec the run was captured for, attached beside the
    #: snapshot (replay refuses a spec from another replay class)
    spec: Optional["RunSpec"] = dataclasses.field(default=None, repr=False)

    @classmethod
    def from_machine(cls, machine, capture: TraceCapture,
                     app_pid: int) -> "CapturedTrace":
        return cls(
            params=machine.params,
            domains=machine.hierarchy.domains(),
            oms_ids=tuple(machine.oms_ids()),
            ams_ids=tuple(machine.ams_ids()),
            app_pid=app_pid,
            parents=array("q", capture.parents),
            delays=array("q", capture.delays),
            patterns=array("H", capture.patterns),
            pattern_table=tuple(capture.pattern_ids),
            root_now=capture.root_now,
            mark_kinds=array("b", capture.mark_kinds),
            mark_seqnos=array("q", capture.mark_seqnos),
            mark_nows=array("q", capture.mark_nows),
            mark_args=array("q", capture.mark_args),
            acc_addrs=array("q", capture.acc_addrs),
            acc_spans=array("q", capture.acc_spans),
            acc_events=array("q", capture.acc_events),
            acc_ends=array("q", capture.acc_ends),
            acc_costs=array("q", capture.acc_costs),
            counts=(array("q", capture.acc_l1_misses),
                    array("q", capture.acc_mem), capture.start,
                    machine.hierarchy.counters()),
        )

    @property
    def num_events(self) -> int:
        return len(self.parents)

    @functools.cached_property
    def times(self) -> list[int]:
        """Completion time of every event under the captured
        parameters: one forward pass, computed once and shared by
        analysis and export (read-only)."""
        # delays -> times in place: a parent is scheduled before its
        # children, so times[p] is already a time
        times = self.delays.tolist()
        root_now = self.root_now
        for i, p in enumerate(self.parents.tolist()):
            times[i] += times[p] if p >= 0 else root_now[i]
        return times

    def __getstate__(self) -> dict:
        # derived columns are recomputed where they are needed, not
        # shipped between processes
        state = self.__dict__.copy()
        state.pop("times", None)
        return state

    def access_seqs(self) -> list[int]:
        """The sequencer of each access event: the one its delay keeps
        busy."""
        table, patterns = self.pattern_table, self.patterns
        return [table[patterns[i]][1] for i in self.acc_events]

    def captured_profile(self) -> Optional[AccessProfile]:
        """The access profile of the captured geometry, derived from
        the counters recorded while capturing (None without them).

        An access event's lines follow from its records and the line
        size, its L1 misses and memory accesses from the growth of
        the issuing sequencer's L1 misses and of the memory accesses
        since the previous access event that moved them.
        """
        if self.counts is None:
            return None
        l1_misses, mem, (l1_start, mem_seen), counters = self.counts
        line_size = self.params.cache_line_size
        seen = dict(l1_start)
        out_lines: list[int] = []
        out_misses: list[int] = []
        out_mem: list[int] = []
        addrs, spans = self.acc_addrs, self.acc_spans
        first = 0
        for seq_id, end, misses, refs in zip(
                self.access_seqs(), self.acc_ends[1:], l1_misses, mem):
            lines = 0
            for r in range(first, end):
                span = spans[r] >> 1
                if span <= 1:
                    lines += 1
                else:
                    addr = addrs[r]
                    lines += ((addr + span - 1) // line_size
                              - addr // line_size + 1)
            first = end
            out_lines.append(lines)
            out_misses.append(misses - seen[seq_id])
            seen[seq_id] = misses
            out_mem.append(refs - mem_seen)
            mem_seen = refs
        return out_lines, out_misses, out_mem, counters

    # ------------------------------------------------------------------
    # JSON portability (committed analysis fixtures, artifact exchange)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serializable copy of the trace (without the attached
        :class:`RunSummary` snapshot, spec and recorded counters --
        analysis needs only the graph).

        The columns expand into mappings keyed by the seqno string of
        the events that carry each annotation, exactly reversed by
        :meth:`from_dict`; a round trip preserves every field
        :mod:`repro.obs.critpath` reads.
        """
        table = self.pattern_table
        coefs: dict[str, list] = {}
        busy: dict[str, int] = {}
        owner: dict[str, int] = {}
        for i, p in enumerate(self.patterns):
            if p:
                terms, busy_seq, owner_seq = table[p]
                key = str(i)
                if terms:
                    coefs[key] = [list(c) for c in terms]
                if busy_seq >= 0:
                    busy[key] = busy_seq
                if owner_seq >= 0:
                    owner[key] = owner_seq
        accesses = {}
        addrs, spans = self.acc_addrs, self.acc_spans
        first = 0
        for seqno, seq_id, end, cost in zip(
                self.acc_events, self.access_seqs(), self.acc_ends[1:],
                self.acc_costs):
            accesses[str(seqno)] = [cost, [
                [seq_id, addrs[r], spans[r] >> 1, bool(spans[r] & 1)]
                for r in range(first, end)]]
            first = end
        return {
            "schema": "repro.captrace/1",
            "params": dataclasses.asdict(self.params),
            "domains": [list(d) for d in self.domains],
            "oms_ids": list(self.oms_ids),
            "ams_ids": list(self.ams_ids),
            "app_pid": self.app_pid,
            "parents": self.parents.tolist(),
            "delays": self.delays.tolist(),
            "root_now": {str(k): v for k, v in self.root_now.items()},
            "coefs": coefs,
            "accesses": accesses,
            "busy_seq": busy,
            "owner_seq": owner,
            "marks": [[MARK_KINDS[code], seqno, now, arg]
                      for code, seqno, now, arg in zip(
                          self.mark_kinds, self.mark_seqnos,
                          self.mark_nows, self.mark_args)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CapturedTrace":
        """Rebuild a trace from :meth:`to_dict` output (no snapshot, so
        the result analyzes but does not replay).

        Raises :class:`ValueError` for an access record whose sequencer
        is not the one its event keeps busy, which no capture makes.
        """
        coefs = data["coefs"]
        busy = data["busy_seq"]
        owner = data.get("owner_seq", {})
        ids = {_NO_PATTERN: 0}
        patterns = array("H", [0]) * len(data["parents"])
        for key in sorted(coefs.keys() | busy.keys() | owner.keys(),
                          key=int):
            pattern = (tuple(tuple(c) for c in coefs.get(key, ())),
                       busy.get(key, -1), owner.get(key, -1))
            patterns[int(key)] = ids.setdefault(pattern, len(ids))
        addrs: list[int] = []
        spans: list[int] = []
        events: list[int] = []
        ends = [0]
        costs: list[int] = []
        for key, (cost, records) in sorted(data["accesses"].items(),
                                           key=lambda kv: int(kv[0])):
            for seq_id, paddr, span, write in records:
                if seq_id != busy.get(key, -1):
                    raise ValueError(
                        f"event {key} records an access by sequencer "
                        f"{seq_id}, which its delay does not keep busy")
                addrs.append(paddr)
                spans.append(span * 2 + bool(write))
            events.append(int(key))
            ends.append(len(addrs))
            costs.append(cost)
        marks = data["marks"]
        return cls(
            params=MachineParams(**data["params"]),
            domains=tuple(tuple(d) for d in data["domains"]),
            oms_ids=tuple(data["oms_ids"]),
            ams_ids=tuple(data["ams_ids"]),
            app_pid=data["app_pid"],
            parents=array("q", data["parents"]),
            delays=array("q", data["delays"]),
            patterns=patterns,
            pattern_table=tuple(ids),
            root_now={int(k): v for k, v in data["root_now"].items()},
            mark_kinds=array("b", [_MARK_CODES[m[0]] for m in marks]),
            mark_seqnos=array("q", [m[1] for m in marks]),
            mark_nows=array("q", [m[2] for m in marks]),
            mark_args=array("q", [m[3] for m in marks]),
            acc_addrs=array("q", addrs),
            acc_spans=array("q", spans),
            acc_events=array("q", events),
            acc_ends=array("q", ends),
            acc_costs=array("q", costs),
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
    size).  The captured geometry's profile derives from the counters
    the capture recorded, so a timing-only point -- each point of a
    ``mem_cost`` or ``signal_cost`` sweep -- is pure arithmetic.  A
    new geometry re-drives the recorded access records through a
    fresh :class:`~repro.mem.hierarchy.MemoryHierarchy` once.  The
    records are in the chronological order they originally hit the
    hierarchy, so the cache model sees its original global reference
    stream.
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
        # what every replay starts from: the recorded delays without
        # their hierarchy cost, and the events grouped by the
        # coefficient pattern they carry and the sequencer they keep
        # busy
        self._parents = trace.parents.tolist()
        self._acc_events = trace.acc_events.tolist()
        bare = trace.delays.tolist()
        for i, cost in zip(self._acc_events, trace.acc_costs):
            bare[i] -= cost
        self._bare_delays = bare
        by_pattern: dict[int, list[int]] = {}
        for i, pid in enumerate(trace.patterns):
            if pid:
                by_pattern.setdefault(pid, []).append(i)
        table = trace.pattern_table
        self._coef_events = [(table[pid][0], events)
                             for pid, events in by_pattern.items()
                             if table[pid][0]]
        self._busy_events: dict[int, list[int]] = {}
        for pid, events in by_pattern.items():
            seq_id = table[pid][1]
            if seq_id >= 0:
                self._busy_events.setdefault(seq_id, []).extend(events)

    # ------------------------------------------------------------------
    def _access_profile(self, params: MachineParams) -> AccessProfile:
        """The trace's access behaviour under ``params``' geometry.

        The captured geometry's comes from the capture's counters when
        it recorded them.  Otherwise the recorded access stream is
        re-driven with probe costs ``(1, R, R^2)``, so each event's
        total decomposes by radix into ``(lines touched, l1 misses,
        memory accesses)`` -- from which any cost assignment is a dot
        product.  Cached per geometry.
        """
        key = _geometry(params)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        trace = self.trace
        profile = (trace.captured_profile()
                   if key == _geometry(trace.params) else None)
        if profile is None:
            profile = self._redrive(params)
        self._profiles[key] = profile
        return profile

    def _redrive(self, params: MachineParams) -> AccessProfile:
        trace = self.trace
        radix = _PROBE_RADIX
        probe = params.with_changes(l1_hit_cost=1, l2_hit_cost=radix,
                                    mem_cost=radix * radix)
        hierarchy = MemoryHierarchy(probe)
        for domain in trace.domains:
            hierarchy.add_domain(domain)
        access_line = hierarchy.access_line
        access_range = hierarchy.access_range
        line_size = hierarchy.line_size
        seqs = trace.access_seqs()
        ends = trace.acc_ends
        if len(seqs) != len(trace.acc_addrs):
            # events with several records: one sequencer per record
            seqs = [seq_id for seq_id, a, b in zip(seqs, ends, ends[1:])
                    for _ in range(b - a)]
        # one charge per record, in the order they hit the hierarchy
        costs = [access_line(seq_id, paddr // line_size, coded & 1)
                 if coded < 4 else
                 access_range(seq_id, paddr, coded >> 1, coded & 1)
                 for seq_id, paddr, coded in zip(
                     seqs, trace.acc_addrs, trace.acc_spans)]
        if len(costs) != len(self._acc_events):
            costs = [sum(costs[a:b]) for a, b in zip(ends, ends[1:])]
        return ([c % radix for c in costs],
                [c // radix % radix for c in costs],
                [c // (radix * radix) for c in costs],
                hierarchy.counters())

    def run(self, params: Optional[MachineParams] = None,
            spec: Optional["RunSpec"] = None) -> "RunSummary":
        """Replay under ``params`` (or ``spec.params``); returns a
        :class:`~repro.experiments.summary.RunSummary` with
        ``timing="replay"``.

        Raises :class:`ConfigurationError` for a spec outside the
        captured spec's replay class, naming the fields that differ,
        and for parameters that differ outside
        :data:`REPLAY_SAFE_FIELDS`.
        """
        from repro.experiments.summary import (
            MemorySummary, ProxySummary, UtilizationSummary,
        )
        trace = self.trace
        if spec is not None and trace.spec is not None:
            differ = replay_mismatch(trace.spec, spec)
            if differ:
                raise ConfigurationError(
                    f"cannot replay the trace of {trace.spec.describe()} "
                    f"as {spec.describe()}: they differ in {differ}, "
                    "outside the replay-safe timing parameters; run "
                    "execution-driven")
        old = trace.params
        new = spec.params if spec is not None else (params or old)
        replayable_changes(old, new)
        lines, l1_misses, mem_refs, mem_counters = self._access_profile(new)

        # re-price only the events whose delay has a repriced part
        delays = self._bare_delays.copy()
        l1_cost = new.l1_hit_cost
        l2_cost = new.l2_hit_cost
        mem_cost = new.mem_cost
        for i, a, b, c in zip(self._acc_events, lines, l1_misses, mem_refs):
            delays[i] += a * l1_cost + b * l2_cost + c * mem_cost
        for coefs, events in self._coef_events:
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
        for i, p in enumerate(self._parents):
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


def app_exit_event(trace: CapturedTrace) -> Optional[int]:
    """The seqno of the event the application process exited in, if
    it exited inside the run."""
    for kind, at_seqno, arg in zip(trace.mark_kinds, trace.mark_seqnos,
                                   trace.mark_args):
        if kind == _PEXIT and arg == trace.app_pid and at_seqno >= 0:
            return at_seqno
    return None


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
    for kind, at_seqno, at_now, arg in zip(
            trace.mark_kinds, trace.mark_seqnos, trace.mark_nows,
            trace.mark_args):
        t = times[at_seqno] if at_seqno >= 0 else at_now
        if kind == _SUS:
            if depth.get(arg, 0) == 0:
                since[arg] = t
            depth[arg] = depth.get(arg, 0) + 1
        elif kind == _RES:
            depth[arg] = depth.get(arg, 0) - 1
            if depth[arg] == 0:
                suspended[arg] = suspended.get(arg, 0) + t - since.pop(arg)
        elif kind == _PRAISE:
            raised[arg] = t
        elif kind == _PDONE:
            proxy_latency += t - raised.pop(arg)
        elif kind == _PEXIT:
            if arg == trace.app_pid:
                cycles = t
    return cycles, suspended, proxy_latency
