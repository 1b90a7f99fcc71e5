"""System-call registry for the model kernel.

Service costs are expressed in cycles and default to
``params.syscall_service_cost``; individual calls may override.  The
registry exists so workloads can speak in named services ("write",
"sched_yield") while the kernel stays a pure cost/effect model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SyscallSpec:
    """Static description of one system call."""

    name: str
    #: service cost in cycles; None -> kernel default
    cost: Optional[int] = None
    #: whether the call may trigger a reschedule on return
    reschedules: bool = False
    #: whether the calling OS thread blocks after service; the block
    #: duration comes from the op's ``arg``.  Only meaningful on an
    #: OMS/CPU thread: a blocked multi-shredded thread freezes its
    #: whole shred team (the Open Dynamics Engine effect of Table 2).
    blocks: bool = False


#: System calls known out of the box.  Costs are left at the kernel
#: default unless a call is notably heavier or lighter.
_BUILTIN = [
    SyscallSpec("write", cost=None),
    SyscallSpec("read", cost=None),
    SyscallSpec("open", cost=None),
    SyscallSpec("close", cost=None),
    SyscallSpec("sbrk", cost=None),
    SyscallSpec("mmap", cost=None),
    SyscallSpec("gettime", cost=1200),
    SyscallSpec("sched_yield", cost=1500, reschedules=True),
    SyscallSpec("nanosleep", cost=2000, reschedules=True, blocks=True),
    SyscallSpec("wait_input", cost=2500, reschedules=True, blocks=True),
    SyscallSpec("io", cost=None),          # generic I/O used by proxies
    SyscallSpec("thread_exit", cost=2500),
    # the SMP baseline spawns its worker team through the OS; its
    # staging body always passes an explicit cost
    SyscallSpec("thread_create", cost=None),
]


class SyscallTable:
    """Mutable registry of :class:`SyscallSpec`."""

    def __init__(self) -> None:
        self._specs: dict[str, SyscallSpec] = {s.name: s for s in _BUILTIN}

    def register(self, spec: SyscallSpec) -> None:
        if spec.name in self._specs:
            raise ConfigurationError(f"syscall '{spec.name}' already registered")
        self._specs[spec.name] = spec

    def lookup(self, name: str) -> SyscallSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(f"unknown syscall '{name}'") from None
