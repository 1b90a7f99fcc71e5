"""Observed simulation runs: per-run metrics across every layer.

Observation is a state of the machine, and an :class:`ObservedRun`
only reads it.  ``Session.observe(...)`` (or
``machine.enable_observation()`` before the run) turns on:

* the machine's :class:`~repro.timing.base.StallAccount`
  (``Machine.stalls``), which each serialization stage and a
  decomposing timing model note their cycles into;
* fine-grained :class:`~repro.sim.trace.TraceLog` recording, so the
  run can be exported as a Perfetto timeline
  (:mod:`repro.obs.perfetto`);
* a simulation clock for the ShredLib runtime log (timestamped
  contention records), which ``Session.run`` attaches.

Every run, observed or not, keeps the coarse counts: TraceLog totals,
the signal broadcasts it priced (``Machine.signal_charges`` and
``signal_cycles``), and each sequencer's ops and busy cycles.

At :meth:`ObservedRun.finish` the run records the finished machine and
its end state and registers itself as a collector; whenever the
registry exports, :meth:`~ObservedRun.collect` derives every layer's
counters -- engine, trace, memory hierarchy (aggregate and per cache),
TLBs, timing, stalls, shredlib -- from the finished machine, as
families labeled with the run's correlation id.

The registry holds the run weakly, and nothing in the machine refers
back to it, so a dropped run leaves the registry at once; an export
that must be deterministic holds on to the runs it exports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.metrics import MetricsRegistry, get_registry, new_run_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.shredlib.runtime import ShredRuntime

__all__ = ["ObservedRun"]


class ObservedRun:
    """The metrics collector of one observed run.

    ``registry`` defaults to the process-wide registry, which
    :meth:`finish` registers the run with; ``run_id`` is the
    correlation id labeling every family this run yields (pass a
    fixed one to correlate with a report's other artifacts, or for
    deterministic test output).  Every total reads 0 until
    :meth:`finish` records the machine.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 run_id: Optional[str] = None) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.run_id = run_id or new_run_id()
        #: the finished machine, recorded by finish()
        self.machine: Optional["Machine"] = None
        self._cycles: Optional[int] = None
        self._runtime: Optional["ShredRuntime"] = None
        self._labels: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Timing-layer totals
    # ------------------------------------------------------------------
    @property
    def ops(self) -> int:
        """Ops the timing model priced."""
        machine = self.machine
        return machine.ops_issued() if machine is not None else 0

    @property
    def charged_cycles(self) -> int:
        """Cycles the timing model charged to ops, summed over
        sequencers."""
        machine = self.machine
        if machine is None:
            return 0
        return sum(seq.busy_cycles for seq in machine.sequencers)

    @property
    def signal_charges(self) -> int:
        """Signal broadcasts the timing model priced."""
        machine = self.machine
        return machine.signal_charges if machine is not None else 0

    @property
    def signal_cycles(self) -> int:
        """Cycles the timing model charged to signal broadcasts."""
        machine = self.machine
        return machine.signal_cycles if machine is not None else 0

    # ------------------------------------------------------------------
    # End state and collection
    # ------------------------------------------------------------------
    def finish(self, machine: "Machine", cycles: Optional[int] = None,
               runtime: Optional["ShredRuntime"] = None,
               workload: str = "", system: str = "",
               config: str = "") -> None:
        """Record the finished ``machine`` and the run's end state, and
        register with the registry.

        ``machine`` must have been observed
        (:meth:`~repro.core.machine.Machine.enable_observation` before
        its run): anything else is a :class:`ValueError`.  Nothing is
        counted or copied here: :meth:`collect` reads every layer's
        totals off the machine whenever the registry exports, so the
        simulator's own counters (TraceLog, Cache, Sequencer.tlb) stay
        plain ints on the hot path.
        """
        if self.machine is not None:
            return
        if machine.stalls is None:
            raise ValueError(
                "ObservedRun.finish() needs an observed machine: call "
                "machine.enable_observation() before the run")
        self.machine = machine
        self._cycles = cycles if cycles is not None else machine.now
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
                                     ("signal", machine.signal_cycles))])

        stall = machine.stalls.items()
        per_seq = machine.stalls.per_sequencer()
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
        if self.machine is not None:
            registry.register(self)
        return registry.snapshot()
