"""The model OS kernel.

This is the Ring-0 side of the simulated machine: process and thread
lifecycle, demand-paging service, syscall service, and scheduling
policy.  It is deliberately *passive* -- the machine layer
(:mod:`repro.core.machine`) drives all timing, ring transitions, AMS
suspension, and proxy execution, and prices page faults; the kernel
supplies state transitions and the syscall table's service costs.
This split mirrors the paper's prototype, where the firmware (our
machine layer) interposed on architectural events and the unmodified
OS serviced them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.kernel.process import OSThread, Process, ThreadState
from repro.kernel.scheduler import Scheduler
from repro.kernel.syscalls import SyscallSpec, SyscallTable
from repro.mem.addrspace import AddressSpace
from repro.mem.physical import PhysicalMemory
from repro.params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.stream import InstructionStream


class Kernel:
    """Process/thread management plus fault and syscall service."""

    def __init__(self, params: MachineParams, num_cpus: int) -> None:
        self.params = params
        self.physical = PhysicalMemory(params.physical_frames)
        self.scheduler = Scheduler(num_cpus)
        self.syscalls = SyscallTable()
        self.processes: list[Process] = []
        self._next_pid = 1
        self._next_tid = 1
        # -- statistics ----------------------------------------------------
        self.page_faults_serviced = 0
        self.syscalls_serviced = 0

    # ------------------------------------------------------------------
    # Process / thread lifecycle
    # ------------------------------------------------------------------
    def create_process(self, name: str) -> Process:
        space = AddressSpace(self.physical, name=name)
        process = Process(self._next_pid, name, space)
        self._next_pid += 1
        self.processes.append(process)
        return process

    def create_thread(self, process: Process, name: str,
                      stream: "InstructionStream",
                      pinned_cpu: Optional[int] = None) -> OSThread:
        """Create a thread; it is NOT ready until :meth:`start_thread`."""
        if process.exited:
            raise ConfigurationError(
                f"cannot add thread to exited process '{process.name}'")
        thread = OSThread(self._next_tid, process, name, stream, pinned_cpu)
        self._next_tid += 1
        process.threads.append(thread)
        return thread

    def start_thread(self, thread: OSThread) -> int:
        """Admit a NEW thread to the scheduler; returns its CPU."""
        if thread.state is not ThreadState.NEW:
            raise ConfigurationError(f"{thread} already started")
        return self.scheduler.enqueue(thread)

    def exit_thread(self, thread: OSThread, now: int) -> None:
        """Mark a thread exited and retire its process if it was last."""
        thread.state = ThreadState.EXITED
        thread.exit_time = now
        self.scheduler.remove(thread)
        process = thread.process
        if process.done and not process.exited:
            process.exited = True
            process.exit_time = now
            process.address_space.release()

    # ------------------------------------------------------------------
    # Service routines
    # ------------------------------------------------------------------
    def service_page_fault(self, space: AddressSpace, vpn: int) -> None:
        """Make ``vpn`` resident and count the fault.

        Concurrent faults on the same page are benign: the loser of
        the race finds the page resident and maps nothing.  The
        machine prices each fault where it is raised
        (``Machine._page_fault_service``).
        """
        if not space.is_resident(vpn):
            space.handle_fault(vpn)
            self.page_faults_serviced += 1

    def service_syscall(self, kind: str, cost_override: Optional[int] = None
                        ) -> tuple[int, SyscallSpec]:
        """Return (service cost, spec) for one system call."""
        spec = self.syscalls.lookup(kind)
        self.syscalls_serviced += 1
        if cost_override is not None:
            return cost_override, spec
        if spec.cost is not None:
            return spec.cost, spec
        return self.params.syscall_service_cost, spec

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return all(p.done for p in self.processes)

    def live_thread_count(self) -> int:
        return sum(1 for p in self.processes for t in p.live_threads())
