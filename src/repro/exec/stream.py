"""Instruction streams: the interface a sequencer fetches from.

A :class:`Sequencer <repro.core.sequencer.Sequencer>` does not care
whether it is running mini-ISA machine code or a direct-execution
generator; it fetches :class:`~repro.exec.ops.MachineOp` objects from
an :class:`InstructionStream` and notifies it on completion.  Two
implementations exist:

* :class:`DirectStream` wraps a Python generator (this module);
* :class:`~repro.isa.interpreter.AsmStream` wraps the mini-ISA
  interpreter.

The fetch/complete split matters for fault semantics: when a fetched
operation page-faults, the machine services the fault (possibly via
proxy execution) and *re-attempts the same operation* without
advancing the stream -- exactly the "re-execute the faulting
instruction" behaviour of Section 2.5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import SimulationError
from repro.exec.ops import (
    AtomicOp, Compute, HaltOp, IdlePoll, MachineOp, MemAccess, Op,
    SignalShred, SyscallOp, Touch,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sequencer import Sequencer
    from repro.mem.hierarchy import MemoryHierarchy


class InstructionStream:
    """Abstract stream of machine operations."""

    #: human-readable label for traces
    label: str = ""
    #: set when the owning process exited with this shred still live;
    #: in-flight completions for a killed stream are dropped
    killed: bool = False
    #: the sequencer currently fetching this stream (bound by the
    #: machine at issue time; commit-phase translation goes through
    #: its TLB)
    sequencer: Optional["Sequencer"] = None
    #: whether the machine charges an instruction fetch per op through
    #: :meth:`fetch_addr`; direct-execution streams fold fetch into
    #: their op costs, so the machine skips the call for them
    models_fetch: bool = False

    def fetch_addr(self, hierarchy: "MemoryHierarchy") -> int:
        """Synthetic physical address of the next instruction fetch.

        The machine calls this only on streams that set
        :attr:`models_fetch`.  The mini-ISA interpreter does, so its
        fetches go through the owning sequencer's cache hierarchy.
        """
        raise NotImplementedError

    def next_op(self) -> Optional[MachineOp]:
        """Fetch the next operation, or ``None`` when the stream ends.

        Repeated calls without an intervening :meth:`complete` return
        the same pending operation (fault-retry semantics).
        """
        raise NotImplementedError

    def complete(self, value: Any = None) -> None:
        """Commit the pending operation, passing ``value`` back."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        raise NotImplementedError


#: the op classes the machine's issue path dispatches on, tested by
#: exact type before the isinstance fallbacks (they are final)
_ISSUED = frozenset((Compute, AtomicOp, IdlePoll, Touch, MemAccess,
                     SyscallOp, SignalShred))


class DirectStream(InstructionStream):
    """Adapts a generator of ops into an :class:`InstructionStream`.

    The generator must yield :class:`MachineOp` instances only; the
    ShredLib layer is responsible for intercepting scheduler sentinels
    before they reach a sequencer.  A yielded :class:`HaltOp`, or
    generator exhaustion, ends the stream.
    """

    def __init__(self, gen: Iterator[Op], label: str = "") -> None:
        self._gen = gen
        self.label = label
        #: the fetched op awaiting completion (None: fetch the next)
        self.pending: Optional[MachineOp] = None
        #: what the next fetch sends in; None primes a fresh generator.
        #: The machine commits an op with no value inline, by clearing
        #: both, instead of calling complete(None)
        self.send_value: Any = None
        self._finished = False
        # the machine reads these two on every op: as instance
        # attributes they skip the class lookup
        self.killed = False
        self.models_fetch = False

    @property
    def finished(self) -> bool:
        return self._finished

    def next_op(self) -> Optional[MachineOp]:
        op = self.pending
        if op is not None:
            return op  # fault retry: same op again
        if self._finished:
            return None
        try:
            op = self._gen.send(self.send_value)
        except StopIteration:
            self._finished = True
            return None
        if type(op) not in _ISSUED:
            if isinstance(op, HaltOp):
                self._finished = True
                self._close()
                return None
            if not isinstance(op, MachineOp):
                raise SimulationError(
                    f"stream '{self.label}' yielded a non-machine op "
                    f"{op!r}; scheduler sentinels must be intercepted by "
                    "the shred runner")
        self.pending = op
        return op

    def complete(self, value: Any = None) -> None:
        if self.pending is None:
            raise SimulationError(
                f"stream '{self.label}': complete() with no pending op")
        self.pending = None
        self.send_value = value

    def _close(self) -> None:
        close = getattr(self._gen, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else "live"
        return f"<DirectStream {self.label or '?'} {state}>"
