"""The SMP baseline system.

The paper compares every MISP result against "a similarly configured
SMP machine" (Section 5): the same number of cores, all OS-visible,
with threads scheduled by the kernel.  In this model an SMP system is
simply a machine whose processors all have zero AMSs -- every MISP
mechanism (AMS serialization, proxy execution, SIGNAL) is then
structurally unreachable, and every core services its own faults,
syscalls, and timer interrupts locally.

SMP machines are complete at construction: because an SMP application
spawns its worker team through the OS, :func:`build_smp_machine`
registers the ``thread_create`` syscall up front (callers used to
patch it in afterwards).
"""

from __future__ import annotations

from typing import Optional

from repro.core.machine import Machine
from repro.errors import ConfigurationError
from repro.kernel.syscalls import SyscallSpec
from repro.mem.hierarchy import HierarchyFactory, private_l2_per_sequencer
from repro.params import DEFAULT_PARAMS, MachineParams


def ensure_thread_create(machine: Machine) -> Machine:
    """Register the thread_create syscall if this kernel lacks it."""
    try:
        machine.kernel.syscalls.lookup("thread_create")
    except ConfigurationError:
        machine.kernel.syscalls.register(SyscallSpec("thread_create"))
    return machine


def build_smp_machine(num_cpus: int,
                      params: MachineParams = DEFAULT_PARAMS,
                      hierarchy: Optional[HierarchyFactory] = None) -> Machine:
    """Build an SMP machine with ``num_cpus`` OS-visible cores.

    SMP cores get *private* L2s by default -- cross-core sharing pays
    coherence invalidations instead, the cost the paper's shreds avoid
    by sharing one processor's hierarchy.
    """
    return ensure_thread_create(
        Machine([0] * num_cpus, params=params,
                hierarchy=hierarchy or private_l2_per_sequencer))
