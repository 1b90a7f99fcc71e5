"""Machine-level operations and scheduler-level sentinels.

The direct-execution mode represents a running instruction stream as a
Python generator that yields *operations*.  Two disjoint families
exist:

* **Machine ops** (:class:`MachineOp` subclasses) are consumed by the
  machine model in :mod:`repro.core.machine`.  They carry a cycle cost
  and may raise architectural events (page faults, syscall traps).
  These are the direct-execution duals of mini-ISA instructions.

* **Scheduler sentinels** (:class:`SchedSentinel` subclasses) never
  reach the machine.  They are intercepted by the ShredLib shred
  runner (:mod:`repro.shredlib.scheduler`), which uses them to park,
  re-queue, or retire the current shred.  They are the direct-execution
  duals of the user-level context switch in Figure 3 of the paper.

A workload body therefore looks like::

    def body(ctx):
        yield Compute(10_000)                  # machine op
        yield Touch(data_region, page_index=3) # may page-fault
        yield from mutex.acquire(ctx)          # may yield Block(...)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.addrspace import Region
    from repro.shredlib.runtime import ShredRuntime


class Op:
    """Root of the operation hierarchy."""

    __slots__ = ()


class MachineOp(Op):
    """An operation executed (and costed) by the machine."""

    __slots__ = ()


class SchedSentinel(Op):
    """An operation intercepted by the user-level shred runner."""

    __slots__ = ()


# ----------------------------------------------------------------------
# Machine ops
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Compute(MachineOp):
    """Retire ``cycles`` of pure computation.

    Keep individual chunks modest (tens of thousands of cycles) so
    asynchronous events -- timer interrupts, ingress signals -- are
    taken with bounded latency; the machine only samples for them at
    operation boundaries.  :meth:`repro.exec.context.ExecContext.compute`
    chunks long computations automatically.
    """

    cycles: int
    #: register numbers this op reads / writes (its architectural
    #: dependences) -- consumed by hazard-tracking timing models
    #: (repro.timing.scoreboard); empty for coarse direct-mode ops
    reads: tuple = ()
    writes: tuple = ()

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("compute cycles must be non-negative")


@dataclass(frozen=True)
class IdlePoll(MachineOp):
    """One PAUSE-loop backoff of a gang scheduler that found the work
    queue empty (the idle arm of Figure 3's loop).

    Every timing model prices it exactly like a :class:`Compute` of
    ``cycles`` with no register dependences, and a trace capture gives
    it :class:`Compute`'s pattern.  It carries the ``runtime`` whose
    queue its scheduler polls: the machine sends its completion to a
    quiet callback that issues the next lock RMW and poll in place
    while that queue stays quiet, relying on the loop contract
    documented on :func:`repro.shredlib.scheduler.gang_scheduler`.
    """

    cycles: int
    runtime: "ShredRuntime" = field(compare=False, repr=False)


@dataclass(frozen=True)
class Touch(MachineOp):
    """Access one page of a region (load, or store if ``write``).

    The machine translates the page through the touching sequencer's
    TLB; a miss costs a page walk, and a non-resident page raises a
    page fault -- serviced directly on an OMS / SMP CPU, or via proxy
    execution on an AMS.
    """

    region: "Region"
    page_index: int
    write: bool = False
    #: extra cycles modelling the data access itself
    cycles: int = 10


@dataclass(frozen=True)
class MemAccess(MachineOp):
    """Access one word at a virtual address (the mini-ISA load/store).

    Like :class:`Touch` but addressed virtually rather than through a
    named region; used by the assembly interpreter, whose effective
    addresses are computed at runtime.
    """

    vaddr: int
    write: bool = False
    cycles: int = 10
    #: register dependences, as on :class:`Compute`
    reads: tuple = ()
    writes: tuple = ()


@dataclass(frozen=True)
class SyscallOp(MachineOp):
    """Request an OS service (always a Ring 3 -> Ring 0 transition).

    On an AMS this triggers proxy execution.  ``cost`` overrides the
    kernel's default service cost when given.
    """

    kind: str
    cost: Optional[int] = None
    #: opaque argument recorded in traces (e.g. byte count for write)
    arg: Any = None


@dataclass(frozen=True)
class AtomicOp(MachineOp):
    """One atomic read-modify-write (lock-prefixed instruction).

    With a ``vaddr`` the RMW is a *write to shared memory*: it goes
    through the sequencer's TLB and cache hierarchy and invalidates
    other caches holding the line -- the lock ping-pong that makes a
    contended work queue expensive across private caches (and cheap
    behind a MISP processor's shared L2).  Without one it degrades to
    a flat-cost compute op (hand-built machines without a staged
    runtime).
    """

    cycles: int = 0  # 0 = use params.atomic_op_cost
    #: virtual address of the lock word, if the caller has one
    vaddr: Optional[int] = None


@dataclass(frozen=True)
class SignalShred(MachineOp):
    """Execute the MISP ``SIGNAL`` instruction (Section 2.4).

    Delivers a shred continuation to the sequencer with logical id
    ``sid`` within the current MISP processor.  ``continuation`` is a
    started-or-fresh generator in direct mode (the ⟨EIP, ESP⟩ pair of
    the paper).  Only valid on an OMS or AMS of a MISP processor.
    """

    sid: int
    continuation: Any
    label: str = ""


@dataclass(frozen=True)
class HaltOp(MachineOp):
    """Stop fetching; the stream is finished (thread/shred exit)."""


# ----------------------------------------------------------------------
# Scheduler sentinels (ShredLib-level)
# ----------------------------------------------------------------------
@dataclass
class Block(SchedSentinel):
    """Park the current shred on ``waiters`` until someone wakes it.

    ``waiters`` is any object with an ``append`` method (usually the
    wait list inside a ShredLib sync object).  The runner appends the
    parked shred and schedules other work.
    """

    waiters: list = field(default_factory=list)
    reason: str = ""


@dataclass(frozen=True)
class YieldShred(SchedSentinel):
    """Voluntarily yield: re-enqueue the current shred and run another.

    This is the voluntary-yield semantics of Section 3 that queue-based
    locking algorithms build on.
    """


@dataclass(frozen=True)
class ExitShred(SchedSentinel):
    """Terminate the current shred immediately (like returning)."""
