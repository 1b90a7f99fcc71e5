"""Proxy execution (Section 2.5).

When an AMS encounters a condition needing Ring-0 service -- a page
fault or a system call -- it cannot trap into the OS itself.  The
architecture relays a user-level fault to the OMS, which suspends its
current work, *impersonates* the faulting AMS, re-executes the
faulting operation so the OS services it, and then restores both
contexts.  The mechanism guarantees forward progress for any shred on
any sequencer, giving software the illusion of functional symmetry.

This module defines the request objects and the bookkeeping engine;
the timed choreography (Equations 2 and 3 of Section 5.1) is executed
by :class:`repro.core.machine.Machine`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sequencer import Sequencer
    from repro.exec.stream import InstructionStream
    from repro.kernel.process import Process


class ProxyKind(enum.Enum):
    """Triggering conditions that lead to proxy execution."""

    PAGE_FAULT = "page_fault"
    SYSCALL = "syscall"


@dataclass
class ProxyRequest:
    """One fault-type exception relayed from an AMS to its OMS."""

    ams: "Sequencer"
    kind: ProxyKind
    #: the faulting shred, resumed once the request is serviced
    stream: "InstructionStream"
    #: the process the shred belongs to, whose address space is served
    process: "Process"
    #: faulting virtual page number (PAGE_FAULT only)
    vpn: Optional[int] = None
    #: syscall name (SYSCALL only)
    service: Optional[str] = None
    #: explicit service-cost override from the op
    cost_override: Optional[int] = None
    #: cycle the AMS raised the fault (for latency accounting)
    raised_at: int = 0
    #: value delivered back to the shred for a serviced syscall
    result: Any = None
    #: the trace capture's id for the request (captured runs only)
    cap_id: Optional[int] = None


@dataclass
class ProxyStats:
    """Per-machine accounting of proxy activity (firmware feedback).

    Section 4.1: "The firmware also provides feedback to the
    application developer on the number of proxy execution events and
    their causes."
    """

    requests: int = 0
    page_faults: int = 0
    syscalls: int = 0
    total_latency: int = 0
    max_queue_depth: int = 0

    def note_request(self, request: ProxyRequest, queue_depth: int) -> None:
        self.requests += 1
        if request.kind is ProxyKind.PAGE_FAULT:
            self.page_faults += 1
        else:
            self.syscalls += 1
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def note_complete(self, request: ProxyRequest, now: int) -> None:
        self.total_latency += now - request.raised_at

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.requests if self.requests else 0.0
