"""Observed simulation runs: per-run metrics across every layer.

An :class:`ObservedRun` is the bridge between one simulation and the
metrics registry.  When a run is observed (``Session.observe(...)`` or
``machine.enable_observation(obs)``):

* the timing model's ``signal_cycles`` is wrapped in a counting
  closure (signals are rare); the per-op ``charge`` path is never
  wrapped -- the ops and cycles it priced are read off the sequencers
  at the end of the run (:meth:`Machine.ops_issued
  <repro.core.machine.Machine.ops_issued>` and the sum of
  ``busy_cycles``, which ``Machine._issue`` accumulates from the same
  charge);
* fine-grained :class:`~repro.sim.trace.TraceLog` recording turns on,
  so the run can be exported as a Perfetto timeline
  (:mod:`repro.obs.perfetto`);
* the ShredLib runtime log gets a simulation clock (timestamped
  contention records);
* at :meth:`finish`, every layer's counters -- engine, trace, memory
  hierarchy (aggregate and per cache), TLBs, timing, shredlib -- are
  published into the registry as families labeled with the run's
  correlation id.

When observation is *not* enabled none of this exists: no signal
wrapper, no fine records, no registry writes -- the default run is
bit-for-bit and allocation-for-allocation the un-instrumented one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.obs.metrics import MetricsRegistry, get_registry, new_run_id
from repro.timing.base import StallAccount

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.shredlib.runtime import ShredRuntime

__all__ = ["ObservedRun"]


class ObservedRun:
    """Instrumentation state and end-of-run metrics pump for one run.

    ``registry`` defaults to the process-wide registry; ``run_id`` is
    the correlation id labeling every family this run publishes (pass
    a fixed one to correlate with a report emitter, or for
    deterministic test output).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 run_id: Optional[str] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.run_id = run_id or new_run_id()
        self.machine: Optional["Machine"] = None
        #: counted by the signal wrapper (plain ints on purpose: the
        #: hot path must not take locks or allocate)
        self.signal_charges = 0
        self.signal_cycles = 0
        #: stall-taxonomy account the timing model notes into
        #: (Machine._bind_timing attaches it via attach_stalls)
        self.stalls = StallAccount()
        self.finished = False

    # ------------------------------------------------------------------
    # Timing-layer totals
    # ------------------------------------------------------------------
    @property
    def ops(self) -> int:
        """Ops the timing model priced (0 before a machine is bound)."""
        machine = self.machine
        return machine.ops_issued() if machine is not None else 0

    @property
    def charged_cycles(self) -> int:
        """Cycles the timing model charged to ops, summed over
        sequencers (0 before a machine is bound)."""
        machine = self.machine
        if machine is None:
            return 0
        return sum(seq.busy_cycles for seq in machine.sequencers)

    # ------------------------------------------------------------------
    # Hot-path wrapper (installed by Machine._bind_timing)
    # ------------------------------------------------------------------
    def wrap_signal(self, signal_cycles: Callable) -> Callable:
        def signal_counted(seq, count=1):
            cost = signal_cycles(seq, count)
            self.signal_charges += count
            self.signal_cycles += cost
            return cost
        return signal_counted

    # ------------------------------------------------------------------
    # Run wiring
    # ------------------------------------------------------------------
    def bind_machine(self, machine: "Machine") -> None:
        self.machine = machine

    def attach_runtime(self, runtime: "ShredRuntime") -> None:
        """Give the runtime's :class:`~repro.shredlib.log.ShredLog` this
        run's simulation clock, so its contention records carry
        timestamps for the timeline export."""
        if self.machine is not None:
            runtime.log.attach_clock(self.machine.engine)

    # ------------------------------------------------------------------
    # End-of-run publication
    # ------------------------------------------------------------------
    def finish(self, cycles: Optional[int] = None,
               runtime: Optional["ShredRuntime"] = None,
               workload: str = "", system: str = "",
               config: str = "") -> None:
        """Publish every layer's counters into the registry.

        Publication happens once, after the run, rather than per event:
        the simulator's own counters (TraceLog, Cache, Sequencer.tlb)
        stay plain ints on the hot path, and the registry gets their
        totals under this run's correlation id.
        """
        if self.finished:
            return
        self.finished = True
        machine = self.machine
        if machine is None:
            raise ValueError("ObservedRun was never bound to a machine")
        reg = self.registry
        run = self.run_id

        info = reg.gauge("repro_run_info",
                         "one sample per observed run; value is 1",
                         labels=("run", "workload", "system", "config",
                                 "timing"))
        info.labels(run=run, workload=workload, system=system,
                    config=config,
                    timing=machine.timing.canonical_name()).set(1)
        reg.gauge("repro_run_cycles", "simulated cycles at run end",
                  labels=("run",)).labels(run=run).set(
            cycles if cycles is not None else machine.now)

        engine = reg.counter("repro_engine_events_total",
                             "discrete-event engine activity",
                             labels=("run", "event"))
        engine.labels(run=run, event="executed").set(
            machine.engine.events_executed)
        engine.labels(run=run, event="scheduled").set(
            machine.engine.events_scheduled)

        trace = reg.counter("repro_trace_events_total",
                            "firmware-log event counts (TraceLog)",
                            labels=("run", "kind"))
        for kind, count in machine.trace.summary().items():
            trace.labels(run=run, kind=kind).set(count)

        timing = reg.counter("repro_timing_ops_total",
                             "ops priced by the timing model",
                             labels=("run", "model"))
        model = machine.timing.canonical_name()
        timing.labels(run=run, model=model).set(self.ops)
        charged = reg.counter("repro_timing_cycles_total",
                              "cycles charged by the timing model",
                              labels=("run", "model", "kind"))
        charged.labels(run=run, model=model, kind="op").set(
            self.charged_cycles)
        charged.labels(run=run, model=model, kind="signal").set(
            self.signal_cycles)

        wall = cycles if cycles is not None else machine.now
        stall = reg.counter(
            "repro_stall_cycles_total",
            "cycles by stall/serialization class (the taxonomy of "
            "repro.timing.base.STALL_CLASSES)",
            labels=("run", "seq", "class", "model"))
        for (seq_id, klass), stall_cycles in self.stalls.items():
            stall.labels(**{"run": run, "seq": str(seq_id),
                            "class": klass, "model": model}).set(
                stall_cycles)
        per_seq = self.stalls.per_sequencer()
        for seq in machine.sequencers:
            accounted = sum(per_seq.get(seq.seq_id, {}).values())
            susp = seq.suspended_cycles
            if susp:
                stall.labels(**{"run": run, "seq": str(seq.seq_id),
                                "class": "suspended",
                                "model": model}).set(susp)
            idle = wall - max(seq.busy_cycles, accounted) - susp
            if idle > 0:
                stall.labels(**{"run": run, "seq": str(seq.seq_id),
                                "class": "idle", "model": model}).set(idle)

        hier = reg.counter("repro_hierarchy_events_total",
                           "memory-hierarchy events by level",
                           labels=("run", "level", "event"))
        for key, count in machine.hierarchy.counters().items():
            level, _, event = key.partition("_")
            hier.labels(run=run, level=level,
                        event=event or "accesses").set(count)
        cache = reg.counter("repro_cache_events_total",
                            "per-cache hit/miss/invalidation/eviction",
                            labels=("run", "cache", "event"))
        for name, counts in machine.hierarchy.cache_counters().items():
            for event, count in counts.items():
                cache.labels(run=run, cache=name, event=event).set(count)

        tlb = reg.counter("repro_tlb_events_total",
                          "TLB activity summed over sequencers",
                          labels=("run", "event"))
        seqs = machine.sequencers
        tlb.labels(run=run, event="hits").set(
            sum(s.tlb.hits for s in seqs))
        tlb.labels(run=run, event="misses").set(
            sum(s.tlb.misses for s in seqs))
        tlb.labels(run=run, event="flushes").set(
            sum(s.tlb.flushes for s in seqs))

        if runtime is not None:
            shred = reg.counter("repro_shred_events_total",
                                "ShredLib runtime lifecycle events",
                                labels=("run", "event"))
            for event, count in runtime.log.summary().items():
                shred.labels(run=run, event=event).set(count)
            contention = reg.counter(
                "repro_shredlib_contention_total",
                "contended sync-object acquires (ShredLib runtime log)",
                labels=("run", "object"))
            for name, count in runtime.log.contention_by_object().items():
                contention.labels(run=run, object=name).set(count)

    def snapshot(self) -> dict:
        """This run's families only, from the registry snapshot.

        A sample belongs to the run when any of its label values is the
        run's correlation id -- which matches both ``run=<id>`` labels
        and component instances named after the id (a store or service
        created with ``instance=<id>``).
        """
        out = {}
        for name, family in self.registry.snapshot().items():
            samples = [s for s in family["samples"]
                       if self.run_id in s["labels"].values()]
            if samples:
                out[name] = {**family, "samples": samples}
        return out
