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
* at :meth:`finish`, the run records its end state and registers
  itself as a collector; whenever the registry exports,
  :meth:`~ObservedRun.collect` derives every layer's counters --
  engine, trace, memory hierarchy (aggregate and per cache), TLBs,
  timing, shredlib -- from the finished machine, as families labeled
  with the run's correlation id.

The registry holds the run weakly.  The run and its machine refer to
each other, so a dropped run leaves the registry when the cyclic
garbage collector next runs; an export that must be deterministic
holds on to the runs it exports.

When observation is *not* enabled none of this exists: no signal
wrapper, no fine records, no registration -- the default run is
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
    """Instrumentation state of one run, and its metrics collector.

    ``registry`` defaults to the process-wide registry, which
    :meth:`finish` registers the run with; ``run_id`` is the
    correlation id labeling every family this run yields (pass a
    fixed one to correlate with a report emitter, or for
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
        #: end state, recorded by finish()
        self._cycles: Optional[int] = None
        self._runtime: Optional["ShredRuntime"] = None
        self._labels: dict[str, str] = {}

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
    # End state and collection
    # ------------------------------------------------------------------
    def finish(self, cycles: Optional[int] = None,
               runtime: Optional["ShredRuntime"] = None,
               workload: str = "", system: str = "",
               config: str = "") -> None:
        """Record the run's end state and register with the registry.

        Nothing is counted or copied here: :meth:`collect` reads every
        layer's totals off the finished machine whenever the registry
        exports, so the simulator's own counters (TraceLog, Cache,
        Sequencer.tlb) stay plain ints on the hot path.
        """
        if self.finished:
            return
        if self.machine is None:
            raise ValueError("ObservedRun was never bound to a machine")
        self.finished = True
        self._cycles = cycles if cycles is not None else self.machine.now
        self._runtime = runtime
        self._labels = {"workload": workload, "system": system,
                        "config": config}
        self.registry.register(self)

    def collect(self):
        """This run's families, derived from the finished machine."""
        machine, run = self.machine, self.run_id
        model = machine.timing.canonical_name()

        def by(label, counts):
            """One sample per ``(value of label, count)`` in ``counts``."""
            return [({"run": run, label: key}, count) for key, count in counts]

        engine = machine.engine
        yield ("repro_run_info", "gauge",
               "one sample per observed run; value is 1",
               [({"run": run, **self._labels, "timing": model}, 1)])
        yield ("repro_run_cycles", "gauge", "simulated cycles at run end",
               [({"run": run}, self._cycles)])
        yield ("repro_engine_events_total", "counter",
               "discrete-event engine activity",
               by("event", [("executed", engine.events_executed),
                            ("scheduled", engine.events_scheduled)]))
        yield ("repro_trace_events_total", "counter",
               "firmware-log event counts (TraceLog)",
               by("kind", machine.trace.summary().items()))
        yield ("repro_timing_ops_total", "counter",
               "ops priced by the timing model",
               by("model", [(model, self.ops)]))
        yield ("repro_timing_cycles_total", "counter",
               "cycles charged by the timing model",
               [({"run": run, "model": model, "kind": kind}, cycles)
                for kind, cycles in (("op", self.charged_cycles),
                                     ("signal", self.signal_cycles))])

        stall = self.stalls.items()
        per_seq = self.stalls.per_sequencer()
        for seq in machine.sequencers:
            accounted = sum(per_seq.get(seq.seq_id, {}).values())
            susp = seq.suspended_cycles
            idle = self._cycles - max(seq.busy_cycles, accounted) - susp
            stall += [((seq.seq_id, klass), cycles) for klass, cycles
                      in (("suspended", susp), ("idle", idle)) if cycles > 0]
        yield ("repro_stall_cycles_total", "counter",
               "cycles by stall/serialization class (the taxonomy of "
               "repro.timing.base.STALL_CLASSES)",
               [({"run": run, "seq": str(seq_id), "class": klass,
                  "model": model}, cycles)
                for (seq_id, klass), cycles in stall])

        hierarchy = machine.hierarchy
        levels = [(key.partition("_"), count)
                  for key, count in hierarchy.counters().items()]
        yield ("repro_hierarchy_events_total", "counter",
               "memory-hierarchy events by level",
               [({"run": run, "level": level, "event": event or "accesses"},
                 count) for (level, _, event), count in levels])
        yield ("repro_cache_events_total", "counter",
               "per-cache hit/miss/invalidation/eviction",
               [({"run": run, "cache": name, "event": event}, count)
                for name, counts in hierarchy.cache_counters().items()
                for event, count in counts.items()])
        tlbs = [seq.tlb for seq in machine.sequencers]
        yield ("repro_tlb_events_total", "counter",
               "TLB activity summed over sequencers",
               by("event", [(event, sum(getattr(tlb, event) for tlb in tlbs))
                            for event in ("hits", "misses", "flushes")]))
        if self._runtime is not None:
            log = self._runtime.log
            yield ("repro_shred_events_total", "counter",
                   "ShredLib runtime lifecycle events",
                   by("event", log.summary().items()))
            yield ("repro_shredlib_contention_total", "counter",
                   "contended sync-object acquires (ShredLib runtime log)",
                   by("object", log.contention_by_object().items()))

    def snapshot(self) -> dict:
        """This run's families alone (none before :meth:`finish`), in
        :meth:`MetricsRegistry.snapshot` form."""
        registry = MetricsRegistry()
        if self.finished:
            registry.register(self)
        return registry.snapshot()
