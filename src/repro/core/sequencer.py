"""The sequencer: MISP's new architectural resource (Section 2.1).

A sequencer is "a hardware thread context capable of fetching and
executing one stream of instructions".  It may be **OS-managed** (an
OMS -- supports all privilege rings, visible to the OS as a logical
CPU) or **application-managed** (an AMS -- Ring 3 only, invisible to
the OS, driven by user code through SIGNAL).

This class holds per-sequencer architectural state: the attached
instruction stream, the privilege ring, the private TLB, suspension
bookkeeping, and statistics.  All *behaviour* (dispatch, faults,
signals) is orchestrated by :class:`repro.core.machine.Machine`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.errors import ProtectionError
from repro.mem.tlb import TLB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.processor import MISPProcessor
    from repro.exec.stream import InstructionStream
    from repro.kernel.process import OSThread, Process


class SequencerRole(enum.Enum):
    """OS-managed vs application-managed (Section 2.2)."""

    OMS = "oms"
    AMS = "ams"


class Sequencer:
    """One hardware thread context."""

    def __init__(self, seq_id: int, role: SequencerRole,
                 tlb_entries: int) -> None:
        #: globally unique id (index into ``machine.sequencers``)
        self.seq_id = seq_id
        self.role = role
        #: OS-managed (a plain attribute: the dispatch loop tests it
        #: on every op, and the role never changes)
        self.is_oms = role is SequencerRole.OMS
        #: logical Sequencer ID within the owning MISP processor, the
        #: SID operand of the SIGNAL instruction (0 = the OMS).
        self.sid: int = -1
        self.processor: Optional["MISPProcessor"] = None
        self.tlb = TLB(tlb_entries)
        #: current privilege ring; AMSs are architecturally pinned to 3.
        self._ring = 3
        #: the instruction stream being fetched, if any
        self.stream: Optional["InstructionStream"] = None
        #: OS thread currently dispatched here (OMS only)
        self.thread: Optional["OSThread"] = None
        #: process whose address space this sequencer translates
        #: through (its effective CR3); kept synchronized with the OMS
        #: for all AMSs of a processor (Section 2.3)
        self.process_ref: Optional["Process"] = None
        #: an op-completion or service event is in flight
        self.busy = False
        #: nested suspension count (ring-transition serialization and
        #: context-switch freezes stack; the sequencer runs at 0)
        self.suspend_depth = 0
        #: AMS is stalled awaiting proxy-execution service
        self.proxy_wait = False
        # -- statistics ----------------------------------------------------
        self.ops_executed = 0
        #: issued ops whose completion was dropped because the owning
        #: process exited meanwhile (issued = executed + dropped)
        self.ops_dropped = 0
        self.busy_cycles = 0
        self.suspended_cycles = 0
        self._suspended_since: Optional[int] = None

    # ------------------------------------------------------------------
    # Privilege
    # ------------------------------------------------------------------
    @property
    def ring(self) -> int:
        return self._ring

    def enter_ring0(self) -> None:
        if self.role is SequencerRole.AMS:
            raise ProtectionError(
                f"sequencer {self.seq_id} is an AMS; AMSs execute only "
                "Ring 3 (Section 2.2) -- Ring-0 work requires proxy execution")
        self._ring = 0

    def exit_ring0(self) -> None:
        self._ring = 3

    # ------------------------------------------------------------------
    # Run state
    # ------------------------------------------------------------------
    @property
    def has_work(self) -> bool:
        return self.stream is not None and not self.stream.finished

    @property
    def runnable(self) -> bool:
        """May fetch its next operation right now."""
        return (self.has_work and not self.busy
                and self.suspend_depth == 0 and not self.proxy_wait
                and self._ring == 3)

    def suspend(self, now: int) -> None:
        """Push one level of suspension (idempotent nesting)."""
        if self.suspend_depth == 0:
            self._suspended_since = now
        self.suspend_depth += 1

    def resume(self, now: int) -> bool:
        """Pop one suspension level; True if the sequencer woke up."""
        if self.suspend_depth == 0:
            raise ProtectionError(
                f"sequencer {self.seq_id}: resume without matching suspend")
        self.suspend_depth -= 1
        if self.suspend_depth == 0:
            if self._suspended_since is not None:
                self.suspended_cycles += now - self._suspended_since
                self._suspended_since = None
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Seq {self.seq_id} {self.role.value} sid={self.sid} "
                f"ring={self._ring} depth={self.suspend_depth}"
                f"{' busy' if self.busy else ''}>")
