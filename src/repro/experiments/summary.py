"""Serializable run results.

:class:`~repro.workloads.runner.RunResult` holds the live
:class:`~repro.core.machine.Machine`, runtime, and OS thread -- ideal
for in-process inspection, but generators and engine callbacks make it
unpicklable, which blocks both multiprocessing and on-disk caching.
:class:`RunSummary` is the serialization split: the plain-data view of
a finished run (cycles, Table-1 event counts, proxy statistics,
utilization totals) that crosses process boundaries and round-trips
through JSON.

``RunSummary`` intentionally mirrors the accessors the analysis layer
uses on ``RunResult`` (``cycles``, ``workload``,
``serializing_events()``), so :func:`repro.analysis.table1.measured_row`
and :func:`repro.analysis.figure5.sensitivity_from_run` accept either.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.workloads.runner import RunResult

#: Table 1's six event columns, in presentation order
EVENT_KEYS = ("oms_syscall", "oms_pf", "oms_timer", "oms_interrupt",
              "ams_syscall", "ams_pf")


@dataclass(frozen=True)
class ProxySummary:
    """Proxy-execution accounting (the firmware-feedback view)."""

    requests: int = 0
    page_faults: int = 0
    syscalls: int = 0
    total_latency: int = 0
    max_queue_depth: int = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class MemorySummary:
    """Per-level memory-hierarchy and TLB totals for one run.

    Per level, ``hits + misses`` equals the accesses that reached the
    level: every L1 miss becomes one L2 access, every L2 miss one
    flat-memory access.
    """

    l1_hits: int = 0
    l1_misses: int = 0
    #: L1 lines purged by the invalidate-on-write coherence protocol
    l1_invalidations: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    #: cross-L2 invalidations (needs more than one L2 domain: private
    #: per-core L2s, or shared per-processor L2s on a multi-processor)
    l2_invalidations: int = 0
    #: accesses served by the flat memory level (== l2_misses)
    mem_accesses: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    tlb_flushes: int = 0

    @property
    def accesses(self) -> int:
        """Total hierarchy accesses (data + instruction fetch)."""
        return self.l1_hits + self.l1_misses

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.accesses if self.accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        refs = self.l2_hits + self.l2_misses
        return self.l2_hits / refs if refs else 0.0


@dataclass(frozen=True)
class UtilizationSummary:
    """Aggregate sequencer-utilization totals for one run."""

    oms_busy_cycles: int = 0
    ams_busy_cycles: int = 0
    ams_suspended_cycles: int = 0
    ops_executed: int = 0
    num_oms: int = 0
    num_ams: int = 0

    def ams_availability(self, cycles: int) -> float:
        """Fraction of AMS-cycles not lost to suspension."""
        if not self.num_ams or not cycles:
            return 1.0
        return 1.0 - self.ams_suspended_cycles / (self.num_ams * cycles)


@dataclass(frozen=True)
class RunSummary:
    """Plain-data outcome of one simulation (picklable, JSON-able)."""

    workload: str
    system: str
    config: str
    cycles: int
    scale: Optional[float] = None
    background: int = 0
    #: Table-1 event counts, in the six-column layout
    events: dict[str, int] = field(default_factory=dict)
    # per-instance defaults (a shared singleton default would alias
    # every summary onto one object)
    proxy: ProxySummary = field(default_factory=ProxySummary)
    utilization: UtilizationSummary = field(
        default_factory=UtilizationSummary)
    #: cache-hierarchy and TLB totals
    mem: MemorySummary = field(default_factory=MemorySummary)
    #: shreds still live at completion (0 = every shred joined)
    shreds_unjoined: int = 0
    #: legacy API calls the ShredLib shim translated (Table 2 runs)
    legacy_calls_translated: int = 0
    #: content hash of the RunSpec that produced this summary
    spec_hash: str = ""
    #: how the numbers were produced: "execute" (execution-driven) or
    #: "replay" (trace-driven re-pricing; see repro.sim.captrace)
    timing: str = "execute"
    #: which timing model priced the run (a repro.timing registry name;
    #: distinct from `timing`, which says execute-vs-replay)
    timing_model: str = "fixed"

    # -- RunResult-compatible accessors --------------------------------
    def serializing_events(self) -> dict[str, int]:
        """Counts in the paper's Table 1 layout."""
        return dict(self.events)

    @property
    def total_oms_events(self) -> int:
        return sum(self.events.get(k, 0) for k in EVENT_KEYS
                   if k.startswith("oms_"))

    @property
    def total_ams_events(self) -> int:
        return sum(self.events.get(k, 0) for k in EVENT_KEYS
                   if k.startswith("ams_"))

    # -- JSON round-trip (the on-disk cache format) --------------------
    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSummary":
        data = dict(data)
        data["proxy"] = ProxySummary(**data.get("proxy", {}))
        data["utilization"] = UtilizationSummary(**data.get("utilization", {}))
        data["mem"] = MemorySummary(**data.get("mem", {}))
        data["events"] = {str(k): int(v)
                          for k, v in data.get("events", {}).items()}
        return cls(**data)


def _machine_totals(
        machine) -> tuple[ProxySummary, UtilizationSummary, MemorySummary]:
    ps = machine.proxy_stats
    proxy = ProxySummary(ps.requests, ps.page_faults, ps.syscalls,
                         ps.total_latency, ps.max_queue_depth)
    util = UtilizationSummary(
        oms_busy_cycles=sum(s.busy_cycles for s in machine.sequencers
                            if s.is_oms),
        ams_busy_cycles=sum(s.busy_cycles for s in machine.sequencers
                            if not s.is_oms),
        ams_suspended_cycles=sum(s.suspended_cycles
                                 for s in machine.sequencers if not s.is_oms),
        ops_executed=sum(s.ops_executed for s in machine.sequencers),
        num_oms=len(machine.oms_ids()),
        num_ams=len(machine.ams_ids()),
    )
    mem = MemorySummary(
        **machine.hierarchy.counters(),
        tlb_hits=sum(s.tlb.hits for s in machine.sequencers),
        tlb_misses=sum(s.tlb.misses for s in machine.sequencers),
        tlb_flushes=sum(s.tlb.flushes for s in machine.sequencers),
    )
    return proxy, util, mem


def summarize_run(result: "RunResult",
                  spec: Optional["RunSpec"] = None) -> RunSummary:
    """Flatten a live :class:`RunResult` into a :class:`RunSummary`."""
    proxy, util, mem = _machine_totals(result.machine)
    shim = getattr(result.runtime, "legacy_shim", None)
    return RunSummary(
        # label with the spec's registry name (not the built spec's,
        # which args like probe_pages may decorate) so a summary always
        # matches the RunSpec that produced it
        workload=spec.workload if spec else result.workload,
        system=result.system,
        config=result.config,
        cycles=result.cycles,
        scale=spec.scale if spec else None,
        background=getattr(result, "background", 0),
        events=result.serializing_events(),
        proxy=proxy,
        utilization=util,
        mem=mem,
        shreds_unjoined=result.runtime.active,
        legacy_calls_translated=(shim.calls_translated if shim else 0),
        spec_hash=spec.spec_hash() if spec else "",
        timing_model=(spec.timing_model if spec
                      else result.machine.timing.canonical_name()),
    )
