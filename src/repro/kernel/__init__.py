"""Model OS kernel: processes, threads, scheduling, faults, syscalls."""

from repro.kernel.kernel import Kernel
from repro.kernel.process import OSThread, Process, ThreadState
from repro.kernel.scheduler import Scheduler
from repro.kernel.syscalls import SyscallSpec, SyscallTable

__all__ = [
    "Kernel", "OSThread", "Process", "ThreadState", "Scheduler",
    "SyscallSpec", "SyscallTable",
]
