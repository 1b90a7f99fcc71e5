"""The timing-model protocol and registry.

A *timing model* is where cycles come from: how each machine operation,
inter-sequencer signal, and pipeline event is priced.  Functional
execution (the ISA interpreter, ShredLib, the model kernel) decides
*what happens*; the timing model decides *how long it takes*.  Models
are looked up by name like system backends and workloads, through one
generic :class:`~repro.registry.Registry`:

* :class:`TimingModel` -- the protocol: a ``name``, ``bind`` (attach
  to a machine and build per-sequencer/per-processor state),
  ``charge`` (price one op from its functional cost components),
  ``signal_cycles`` (price one inter-sequencer signal broadcast), and
  ``begin_quantum`` / ``end_quantum`` hooks the machine invokes around
  OS context switches;
* :data:`TIMING_REGISTRY` -- name -> model *factory* (a
  :class:`TimingModel` subclass), consulted by
  :class:`~repro.experiments.spec.RunSpec` validation and
  :meth:`~repro.systems.session.Session.timing`, so registering a
  model is sufficient to make it spec-able, sweep-able, and cacheable
  (the model's canonical name is part of every spec hash).

Unlike system backends (stateless singletons), timing models carry
per-run state (pipeline occupancy, register scoreboards), so the
registry stores the *class* and a fresh instance is created per
machine.

Only models that charge constant, occupancy-independent costs may set
:attr:`TimingModel.supports_capture`: trace capture/replay
(:mod:`repro.sim.captrace`) re-prices recorded per-event coefficient
sums, which is meaningless when an op's cost depends on pipeline
state.  The built-in ``fixed`` model is the only capture-safe one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Type, Union

from repro.errors import ConfigurationError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.core.sequencer import Sequencer
    from repro.exec.ops import MachineOp


#: The canonical stall/serialization taxonomy every timing model and
#: the machine's serialization sites attribute cycles into.  The first
#: group is work (compute/memory/page_walk), the second is the paper's
#: serialization costs (signal broadcasts, kernel services, context
#: switches), the third is the scoreboard pipeline's hazard classes,
#: and the last two are derived occupancy states (an AMS suspended for
#: an OMS Ring-0 entry; a sequencer with nothing to run).
STALL_CLASSES = (
    "compute", "memory", "page_walk",
    "signal", "atomic", "syscall_service", "page_fault_service",
    "timer_service", "interrupt_service", "context_switch", "state_save",
    "frontend", "raw", "waw", "structural", "wb_port", "drain",
    "suspended", "idle",
)

#: MachineParams cost-coefficient field -> stall class.  This is the
#: shared vocabulary between the trace-capture coefficient
#: decomposition (``repro.sim.captrace``) and the live stall accounts,
#: so a captured-trace analysis and an observed-run analysis bucket
#: the same cycle into the same class.
PARAM_CLASS = {
    "signal_cost": "signal",
    "syscall_service_cost": "syscall_service",
    "page_fault_service_cost": "page_fault_service",
    "timer_service_cost": "timer_service",
    "interrupt_service_cost": "interrupt_service",
    "context_switch_cost": "context_switch",
    "sequencer_state_save_cost": "state_save",
    "page_walk_cost": "page_walk",
    "atomic_op_cost": "atomic",
}


class StallAccount:
    """Per-sequencer, per-class cycle attribution for one run.

    A plain ``(seq_id, class) -> cycles`` dict behind the narrowest
    possible hot-path API (:meth:`note` is one dict update).  The
    machine owns it (``Machine.stalls``, created by
    ``Machine.enable_observation``): its serialization stages note
    their classes, and a timing model that decomposes its charges
    notes them through ``self.machine.stalls``.  An unobserved run has
    none.
    """

    __slots__ = ("cycles",)

    def __init__(self) -> None:
        self.cycles: dict[tuple[int, str], int] = {}

    def note(self, seq_id: int, klass: str, cycles: int) -> None:
        """Charge ``cycles`` on ``seq_id`` to stall class ``klass``."""
        key = (seq_id, klass)
        c = self.cycles
        c[key] = c.get(key, 0) + cycles

    def per_sequencer(self) -> dict[int, dict[str, int]]:
        """``seq_id -> {class: cycles}`` with deterministic ordering."""
        out: dict[int, dict[str, int]] = {}
        for (seq_id, klass), cycles in sorted(self.cycles.items()):
            out.setdefault(seq_id, {})[klass] = cycles
        return out

    def items(self) -> list[tuple[tuple[int, str], int]]:
        """Sorted ``((seq_id, class), cycles)`` pairs."""
        return sorted(self.cycles.items())


class TimingModel:
    """One way of pricing a simulated machine's operations.

    Subclasses set the class attributes and implement :meth:`charge`
    (and, for occupancy-based models, :meth:`signal_cycles` and the
    quantum hooks).  The :class:`~repro.core.machine.Machine` binds a
    fresh instance per run and routes every cost through it.
    """

    #: registry key (``RunSpec.timing_model``)
    name: str = ""
    #: whether trace capture/replay (repro.sim.captrace) is valid
    #: under this model (True only for constant per-op pricing)
    supports_capture: bool = False
    #: one-line description for docs and error messages
    description: str = ""

    def canonical_name(self) -> str:
        """The normalized registry name this model prices as."""
        return canonical_timing_name(self.name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, machine: "Machine") -> None:
        """Attach to ``machine`` and build per-sequencer state.

        Called once, after the machine's processors and hierarchy
        exist and before any event executes.  Models must read every
        :class:`~repro.params.MachineParams` field they price from
        here (params are frozen, so hoisted values never go stale).
        """
        self.machine = machine

    def split_signal(self, cost: int) -> tuple[tuple[str, int], ...]:
        """Decompose the most recent :meth:`signal_cycles` result into
        ``(stall class, cycles)`` parts for the machine's serialization
        stages (which schedule the returned delay directly, outside
        :meth:`charge`)."""
        return (("signal", cost),)

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def charge(self, seq: "Sequencer", op: "MachineOp", base: int,
               walks: int = 0, access: int = 0, fetch: int = 0) -> int:
        """Price one machine op; returns the cycles until completion.

        The machine passes the op's functional cost components:

        * ``base`` -- the op's constant issue cost (``op.cycles``, or
          the :class:`~repro.params.MachineParams` constant the fixed
          model maps the op to);
        * ``walks`` -- page walks performed translating its address;
        * ``access`` -- cycles the memory hierarchy charged for its
          data access;
        * ``fetch`` -- cycles the hierarchy charged for its
          instruction fetch.
        """
        raise NotImplementedError

    def signal_cycles(self, seq: "Sequencer", count: int = 1) -> int:
        """Price ``count`` back-to-back inter-sequencer signal
        broadcasts issued by ``seq``'s processor (the ``signal`` term
        of Equations 1-3)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Quantum hooks (OS scheduling boundaries)
    # ------------------------------------------------------------------
    def begin_quantum(self, seq: "Sequencer") -> None:
        """``seq`` (an OMS) was just switched to a new thread."""

    def end_quantum(self, seq: "Sequencer") -> None:
        """``seq`` (an OMS) is being switched out / its team frozen.

        Occupancy models flush the processor's pipeline state here: a
        context switch drains in-flight work architecturally.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} '{self.name}'>"


class _TimingRegistry(Registry[Type[TimingModel]]):
    """Holds :class:`TimingModel` *classes*; :meth:`create` instantiates."""

    def register(self, model: Type[TimingModel], *,
                 replace: bool = False) -> Type[TimingModel]:
        if not (isinstance(model, type) and issubclass(model, TimingModel)):
            raise ConfigurationError(
                f"timing models register as TimingModel subclasses "
                f"(they carry per-run state), got {model!r}")
        return super().register(model, replace=replace)

    def create(self, name: str) -> TimingModel:
        """A fresh (unbound) instance of the named model."""
        return self.get(name)()


#: the process-wide registry, populated by :mod:`repro.timing`
TIMING_REGISTRY = _TimingRegistry("timing model")


def canonical_timing_name(name: str) -> str:
    """The registry key ``name`` resolves to."""
    return TIMING_REGISTRY.key(name)


def register_timing(model: Type[TimingModel], *,
                    replace: bool = False) -> Type[TimingModel]:
    """Register a model class in the process-wide :data:`TIMING_REGISTRY`."""
    return TIMING_REGISTRY.register(model, replace=replace)


def get_timing(name: str) -> Type[TimingModel]:
    """Look up a model class by name (ConfigurationError if unknown)."""
    return TIMING_REGISTRY.get(name)


def resolve_timing(timing: Union[str, TimingModel,
                                 Type[TimingModel]]) -> TimingModel:
    """Turn a name, class, or prototype instance into a fresh instance.

    Names resolve through the registry; classes instantiate directly;
    instances are used as prototypes (a per-run copy is created, since
    bound models carry run state).
    """
    if isinstance(timing, str):
        return TIMING_REGISTRY.create(timing)
    if isinstance(timing, type) and issubclass(timing, TimingModel):
        return timing()
    if isinstance(timing, TimingModel):
        import copy
        return copy.deepcopy(timing)
    raise ConfigurationError(
        f"cannot resolve {timing!r} as a timing model; pass a registry "
        "name, a TimingModel subclass, or an instance")
