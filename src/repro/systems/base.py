"""The system-backend protocol and registry.

A *system* is everything about a simulation that is not the workload:
how the machine is partitioned, how the application's OS threads and
gang schedulers are laid onto it, and how the finished run is boiled
down to a :class:`~repro.experiments.summary.RunSummary`.  The paper's
point is that sequencer topology is an architectural resource; this
module makes it a *pluggable* one, looked up by name through the same
generic :class:`~repro.registry.Registry` as timing models and
workloads:

* :class:`SystemBackend` -- the protocol: a ``name``, a
  ``default_config``, ``canonical_config`` (the Figure 6 notation
  rules for this system), ``build_machine``, ``stage`` (lay the
  application onto the machine), ``drive`` (run it), ``summarize``;
* :data:`SYSTEM_REGISTRY` -- name -> backend, consulted by
  :class:`~repro.experiments.spec.RunSpec` validation, by
  :meth:`~repro.experiments.spec.ExperimentSpec.grid` (a bare system
  name runs in the backend's ``default_config``) and by
  :func:`~repro.service.executor.execute`, so *registering a backend
  is sufficient* to make it spec-able, cacheable, and grid-able.

Custom backends registered at runtime are visible only in the
registering process: run them through a serial Runner
(``Runner(parallel=False)``), or register them at import time so
worker processes see them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.registry import Registry
from repro.workloads.runner import DEFAULT_LIMIT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary
    from repro.kernel.process import OSThread, Process
    from repro.params import MachineParams
    from repro.shredlib.runtime import QueuePolicy, ShredRuntime
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.runner import RunResult


@dataclass
class StagedRun:
    """A machine with the application laid onto it, ready to drive."""

    machine: "Machine"
    process: "Process"
    runtime: "ShredRuntime"
    main_thread: "OSThread"
    config: str = ""
    background: int = 0


class SystemBackend:
    """One way of running a workload on a simulated system.

    Subclasses set the class attributes and implement the three
    stages; :class:`~repro.systems.session.Session` composes them into
    a run, and the experiment layer resolves them by name through
    :data:`SYSTEM_REGISTRY`.
    """

    #: registry key (``RunSpec.system``)
    name: str = ""
    #: configuration used when a spec/session names none
    default_config: str = ""
    #: cycle budget substituted for the untouched generic default
    default_limit: int = DEFAULT_LIMIT
    #: whether ``background`` (multiprogramming load) is meaningful
    supports_background: bool = False
    #: whether trace capture/replay (repro.sim.captrace) is valid for
    #: this backend's drive loop (requires a plain run-to-completion
    #: engine drain)
    supports_capture: bool = True
    #: one-line description for docs and error messages
    description: str = ""

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def canonical_config(self, config: str,
                         background: int = 0) -> tuple[str, str]:
        """Normalize ``config``; returns the canonical ``(system,
        config)`` pair.

        The returned system name may differ from :attr:`name` -- e.g.
        the SMP backend canonicalizes a single-CPU configuration to
        the ``1p`` baseline -- in which case the caller re-resolves
        the backend through the registry.
        """
        return self.name, config

    def build_machine(self, config: str,
                      params: "MachineParams") -> "Machine":
        """Build the simulated machine for a canonical ``config``.

        This is also where a backend declares its memory-hierarchy
        topology: pass a :data:`repro.mem.hierarchy.HierarchyFactory`
        (e.g. ``shared_l2_per_processor`` for MISP shapes,
        ``private_l2_per_sequencer`` for SMP shapes) to the machine
        factory, so sharing-vs-coherence differences between systems
        are built in rather than assumed.
        """
        raise NotImplementedError

    def stage(self, machine: "Machine", workload: "WorkloadSpec", *,
              config: str, policy: "QueuePolicy",
              background: int = 0) -> StagedRun:
        """Lay the workload's processes/threads/shreds onto ``machine``."""
        raise NotImplementedError

    def drive(self, staged: StagedRun, limit: int) -> int:
        """Run a staged machine to completion; returns the cycle count."""
        staged.machine.run_to_completion(limit)
        return staged.process.exit_time or staged.machine.now

    def summarize(self, run: "RunResult",
                  spec: Optional["RunSpec"] = None) -> "RunSummary":
        """Flatten a finished run into plain, picklable data."""
        from repro.experiments.summary import summarize_run
        return summarize_run(run, spec)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} '{self.name}'>"


#: the process-wide registry, populated by :mod:`repro.systems.backends`
SYSTEM_REGISTRY: Registry[SystemBackend] = Registry("system")


def register_system(backend: SystemBackend, *,
                    replace: bool = False) -> SystemBackend:
    """Register a backend in the process-wide :data:`SYSTEM_REGISTRY`."""
    return SYSTEM_REGISTRY.register(backend, replace=replace)


def get_system(name: str) -> SystemBackend:
    """Look up a backend by name (raises ConfigurationError if unknown)."""
    return SYSTEM_REGISTRY.get(name)
