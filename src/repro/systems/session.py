"""The composable Session builder: one fluent path from backend to run.

A :class:`Session` binds a system backend to a configuration and a
set of execution knobs (machine parameters, gang-scheduler queue
policy, cycle limit, multiprogramming background load) and runs
workloads on it::

    from repro.systems import Session

    result = (Session("misp", "1x8")
              .params(signal_cost=500)
              .policy("lifo")
              .run("RayTracer", scale=0.1))

Sessions are immutable: every knob method returns a *new* session, so
a configured session can be kept and reused as a template.  A session
is the one way to run a workload: :func:`repro.service.executor.execute`
builds one per :class:`~repro.experiments.spec.RunSpec`.
"""

from __future__ import annotations

import copy
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.params import DEFAULT_PARAMS, MachineParams
from repro.shredlib.runtime import QueuePolicy
from repro.systems.base import SystemBackend, get_system
from repro.timing.base import (
    TimingModel, canonical_timing_name, resolve_timing,
)
from repro.workloads.base import REGISTRY, WorkloadSpec
from repro.workloads.runner import RunResult


class Session:
    """A reusable, composable recipe for running workloads on a system."""

    def __init__(self, system: Union[str, SystemBackend],
                 config: Optional[str] = None) -> None:
        self._backend = (get_system(system) if isinstance(system, str)
                         else system)
        self._config = config
        self._params: MachineParams = DEFAULT_PARAMS
        self._policy: QueuePolicy = QueuePolicy.FIFO
        self._limit: Optional[int] = None
        self._background = 0
        self._capture = False
        self._timing: Union[str, TimingModel, type] = "fixed"
        #: (registry, run_id) when observation is requested, else None
        self._observe: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Knobs (each returns a new Session)
    # ------------------------------------------------------------------
    def _clone(self) -> "Session":
        return copy.copy(self)

    def config(self, config: str) -> "Session":
        """Use a different machine configuration."""
        new = self._clone()
        new._config = config
        return new

    def params(self, params: Optional[MachineParams] = None,
               **changes) -> "Session":
        """Set machine parameters, optionally with field overrides.

        ``session.params(signal_cost=500)`` tweaks the current
        parameter set; ``session.params(my_params)`` replaces it.
        """
        new = self._clone()
        base = params if params is not None else self._params
        new._params = base.with_changes(**changes) if changes else base
        return new

    def policy(self, policy: Union[str, QueuePolicy]) -> "Session":
        """Set the gang-scheduler queue policy ("fifo" | "lifo")."""
        new = self._clone()
        new._policy = (policy if isinstance(policy, QueuePolicy)
                       else QueuePolicy(str(policy).strip().lower()))
        return new

    def limit(self, limit: int) -> "Session":
        """Set the cycle budget before the run is declared hung."""
        if limit <= 0:
            raise ConfigurationError(f"limit must be positive: {limit}")
        new = self._clone()
        new._limit = limit
        return new

    def background(self, count: int) -> "Session":
        """Set the number of background single-threaded processes."""
        if count < 0:
            raise ConfigurationError("background must be >= 0")
        new = self._clone()
        new._background = count
        return new

    def timing(self, timing: Union[str, TimingModel, type]) -> "Session":
        """Select the timing model pricing this session's runs.

        Accepts a :data:`~repro.timing.TIMING_REGISTRY` name
        (``"fixed"``, ``"scoreboard"``), a
        :class:`~repro.timing.TimingModel` subclass, or a prototype
        instance (copied per run -- bound models carry run state).
        Validated immediately; the model itself is instantiated fresh
        for every :meth:`run`.
        """
        resolve_timing(timing)  # fail fast on anything unresolvable
        new = self._clone()
        new._timing = timing
        return new

    def capture(self, enabled: bool = True) -> "Session":
        """Record an execution trace (``RunResult.trace``) for replay.

        The trace feeds :class:`repro.sim.captrace.ReplayMachine`,
        which re-prices the run under new timing parameters without
        re-executing it.  Only valid on backends whose drive loop
        drains the engine (``supports_capture``).
        """
        new = self._clone()
        new._capture = enabled
        return new

    def observe(self, enabled: bool = True, *, registry=None,
                run_id: Optional[str] = None) -> "Session":
        """Instrument the run with the observability layer.

        An observed run keeps a stall account and fine-grained trace
        records (timeline export) on its machine, timestamps ShredLib
        contention, and at the end registers with a metrics registry
        (default: the process-wide one from
        :func:`repro.obs.get_registry`), which reads every layer's
        totals -- op, cycle and signal totals included -- off the
        finished machine under one correlation id whenever it exports.
        The :class:`~repro.obs.observe.ObservedRun` rides back on
        ``RunResult.obs``; the registry holds it weakly, so keep the
        result until its metrics are exported.  Un-observed sessions
        keep only the coarse counts every run keeps.
        """
        new = self._clone()
        new._observe = (registry, run_id) if enabled else None
        return new

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def resolve(self) -> tuple[SystemBackend, str]:
        """The canonical ``(backend, config)`` this session will run on.

        Canonicalization may redirect to a different backend (e.g.
        ``smp`` on one CPU collapses to ``1p``).
        """
        config = (self._config or self._backend.default_config)
        system, config = self._backend.canonical_config(
            str(config).strip().lower(), self._background)
        backend = (self._backend if system == self._backend.name
                   else get_system(system))
        if self._background and not backend.supports_background:
            raise ConfigurationError(
                f"system '{backend.name}' does not support background "
                "processes; use a multiprogramming system")
        return backend, config

    def _timing_name(self) -> str:
        name = (self._timing if isinstance(self._timing, str)
                else self._timing.name)
        return canonical_timing_name(name)

    def describe(self) -> str:
        backend, config = self.resolve()
        extra = f"+{self._background}bg" if self._background else ""
        timing = self._timing_name()
        if timing != "fixed":
            extra += f"~{timing}"
        return f"{backend.name}:{config}{extra}"

    def run(self, workload: Union[str, WorkloadSpec],
            scale: Optional[float] = None, **args) -> RunResult:
        """Run a workload (a spec, or a registry name to build) on this
        session's system and return the live :class:`RunResult`."""
        if isinstance(workload, str):
            workload = REGISTRY.build(workload, scale, **args)
        elif scale is not None or args:
            raise ConfigurationError(
                "scale/args apply to registry names; pass a workload "
                "name string to build one")
        backend, config = self.resolve()
        machine = backend.build_machine(config, self._params)
        # backend build signatures stay timing-agnostic; the resolved
        # model (a fresh instance per run) attaches here
        machine.set_timing(resolve_timing(self._timing))
        obs = None
        if self._observe is not None:
            from repro.obs.observe import ObservedRun
            registry, run_id = self._observe
            obs = ObservedRun(registry=registry, run_id=run_id)
            machine.enable_observation()
        cap = None
        if self._capture:
            if not backend.supports_capture:
                raise ConfigurationError(
                    f"system '{backend.name}' does not support trace "
                    "capture (its drive loop does not drain the engine)")
            cap = machine.enable_capture()
        staged = backend.stage(machine, workload, config=config,
                               policy=self._policy,
                               background=self._background)
        if obs is not None:
            # timestamped contention records for the timeline export
            staged.runtime.log.attach_clock(machine.engine)
        limit = self._limit if self._limit is not None else backend.default_limit
        cycles = backend.drive(staged, limit)
        trace = None
        if cap is not None:
            from repro.sim.captrace import CapturedTrace
            machine.engine.set_capture(None)
            trace = CapturedTrace.from_machine(machine, cap,
                                               staged.process.pid)
        if obs is not None:
            obs.finish(machine, cycles=cycles, runtime=staged.runtime,
                       workload=workload.name, system=backend.name,
                       config=config)
        return RunResult(workload.name, backend.name, config, cycles,
                         machine, staged.runtime, staged.main_thread,
                         background=self._background, trace=trace,
                         obs=obs)

    def __repr__(self) -> str:
        try:
            label = self.describe()
        except Exception:
            # repr must not raise on not-yet-valid configurations
            label = f"{self._backend.name}:{self._config or '?'}"
        return f"Session({label!r})"
