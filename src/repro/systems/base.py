"""The system-backend protocol and registry.

A *system* is everything about a simulation that is not the workload:
how the machine is partitioned, how the application's OS threads and
gang schedulers are laid onto it, and how the finished run is boiled
down to a :class:`~repro.experiments.summary.RunSummary`.  The paper's
point is that sequencer topology is an architectural resource; this
module makes it a *pluggable* one, mirroring the workload
``REGISTRY``:

* :class:`SystemBackend` -- the protocol: a ``name``, a
  ``default_config``, ``canonical_config`` (the Figure 6 notation
  rules for this system), ``build_machine``, ``stage`` (lay the
  application onto the machine), ``drive`` (run it), ``summarize``;
* :data:`SYSTEM_REGISTRY` -- name -> backend, consulted by
  :class:`~repro.experiments.spec.RunSpec` validation and by
  :func:`~repro.service.executor.execute`, so *registering a backend
  is sufficient* to make it spec-able, cacheable, and grid-able;
* :data:`SYSTEMS` / :data:`DEFAULT_CONFIGS` -- live views over the
  registry (re-exported by :mod:`repro.experiments` for
  compatibility); a backend registered at runtime appears in both.

Custom backends registered at runtime are visible only in the
registering process: run them through a serial Runner
(``Runner(parallel=False)``), or register them at import time so
worker processes see them too.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import ConfigurationError
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


class SystemRegistry:
    """Name -> :class:`SystemBackend`, in registration order."""

    def __init__(self) -> None:
        self._backends: dict[str, SystemBackend] = {}

    @staticmethod
    def _key(name: str) -> str:
        return str(name).strip().lower()

    def register(self, backend: SystemBackend, *,
                 replace: bool = False) -> SystemBackend:
        """Register a backend under its :attr:`~SystemBackend.name`.

        ``replace=True`` swaps an existing backend in place.  Note
        that :meth:`RunSpec.spec_hash` encodes the backend's *name*,
        not its behavior: a replacement that simulates differently
        under the same name will be served stale results by the
        on-disk cache.  Give behaviorally different backends distinct
        names (or point the Runner at a fresh ``cache_dir``).
        """
        key = self._key(backend.name)
        if not key:
            raise ConfigurationError("system backend needs a name")
        if key in self._backends and not replace:
            raise ConfigurationError(
                f"system '{key}' already registered; pass replace=True "
                "to override")
        self._backends[key] = backend
        return backend

    def unregister(self, name: str) -> SystemBackend:
        try:
            return self._backends.pop(self._key(name))
        except KeyError:
            raise ConfigurationError(
                f"system '{name}' is not registered") from None

    def find(self, name: str) -> Optional[SystemBackend]:
        return self._backends.get(self._key(name))

    def get(self, name: str) -> SystemBackend:
        backend = self.find(name)
        if backend is None:
            raise ConfigurationError(
                f"unknown system '{name}'; registered systems: "
                f"{tuple(self._backends)}")
        return backend

    def names(self) -> list[str]:
        return list(self._backends)

    def backends(self) -> list[SystemBackend]:
        return list(self._backends.values())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._key(name) in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._backends))

    @contextmanager
    def temporary(self, backend: SystemBackend):
        """Register ``backend`` for the duration of a ``with`` block."""
        self.register(backend)
        try:
            yield backend
        finally:
            self.unregister(backend.name)


#: the process-wide registry, populated by :mod:`repro.systems.backends`
SYSTEM_REGISTRY = SystemRegistry()


def register_system(backend: SystemBackend, *,
                    replace: bool = False) -> SystemBackend:
    """Register a backend in the process-wide :data:`SYSTEM_REGISTRY`."""
    return SYSTEM_REGISTRY.register(backend, replace=replace)


def get_system(name: str) -> SystemBackend:
    """Look up a backend by name (raises ConfigurationError if unknown)."""
    return SYSTEM_REGISTRY.get(name)


class _SystemsView(Sequence):
    """Live, tuple-like view of the registered system names."""

    def __init__(self, registry: SystemRegistry) -> None:
        self._registry = registry

    def __getitem__(self, index):
        return tuple(self._registry.names())[index]

    def __len__(self) -> int:
        return len(self._registry)

    def __contains__(self, name: object) -> bool:
        return name in self._registry

    def __repr__(self) -> str:
        return repr(tuple(self._registry.names()))


class _DefaultConfigsView(Mapping):
    """Live name -> ``default_config`` view of the registry."""

    def __init__(self, registry: SystemRegistry) -> None:
        self._registry = registry

    def __getitem__(self, name: str) -> str:
        backend = self._registry.find(name)
        if backend is None:
            raise KeyError(name)
        return backend.default_config

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry)

    def __len__(self) -> int:
        return len(self._registry)

    def __repr__(self) -> str:
        return repr(dict(self))


#: systems a RunSpec can target (live registry view)
SYSTEMS = _SystemsView(SYSTEM_REGISTRY)

#: default machine configuration per system (live registry view)
DEFAULT_CONFIGS = _DefaultConfigsView(SYSTEM_REGISTRY)
