"""Machine and cost-model parameters.

All timing constants used by the simulator live here, in one frozen
dataclass, so that every experiment states its assumptions explicitly
and sweeps (e.g. the Figure 5 signal-cost sensitivity study) are a
matter of ``dataclasses.replace``.

The defaults follow Section 5.2 of the paper:

* ``signal_cost = 5000`` cycles -- the paper's "conservative estimate of
  a microcode-based implementation of the inter-sequencer signaling
  mechanism".
* The overhead equations (Section 5.1) are implemented in
  :mod:`repro.core.overhead` and are driven by these constants.

Service costs for the model OS kernel (page-fault service, syscall
service, timer handler, context switch) are scaled values chosen so
that scaled-down workload runs produce event populations in the same
relative proportions as the paper's Table 1.  Absolute cycle counts are
not comparable to the authors' 3.0 GHz Windows Server 2003 testbed and
are not meant to be.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: Architectural page size in bytes (IA-32 small page).
PAGE_SIZE = 4096

#: Bits in a virtual address (IA-32 without PAE).
VADDR_BITS = 32

#: Default per-sequencer TLB capacity, in entries.
DEFAULT_TLB_ENTRIES = 64


@dataclass(frozen=True)
class MachineParams:
    """Every timing and sizing constant of the simulated machine.

    Instances are immutable; derive variants with
    :meth:`MachineParams.with_changes`.
    """

    # ------------------------------------------------------------------
    # MISP inter-sequencer signaling (Section 5.1 / 5.2)
    # ------------------------------------------------------------------
    #: Cost, in cycles, of one inter-sequencer signal (``signal`` in the
    #: paper's Equations 1-3).  5000 is the paper's conservative
    #: microcode estimate; 500/1000 model aggressive hardware; 0 models
    #: the ideal hardware baseline of Figure 5.
    signal_cost: int = 5000

    # ------------------------------------------------------------------
    # Kernel service costs (the ``priv`` term of Equation 1)
    # ------------------------------------------------------------------
    #: Cycles the kernel spends servicing one system call.
    syscall_service_cost: int = 4000
    #: Cycles the kernel spends servicing one page fault (allocate a
    #: demand-zero frame, update the page table).
    page_fault_service_cost: int = 9000
    #: Cycles the kernel spends in the timer-interrupt handler when no
    #: reschedule happens.
    timer_service_cost: int = 1500
    #: Cycles the kernel spends servicing an uncategorized device
    #: interrupt.
    interrupt_service_cost: int = 2500
    #: Additional cycles for an OS thread context switch (register file
    #: save/restore, run-queue manipulation).  For a thread with shreds,
    #: the aggregate AMS state save/restore happens concurrently across
    #: AMSs (Section 2.2), so it is charged once, not per AMS.
    context_switch_cost: int = 12000
    #: Cycles to save (or restore) one sequencer's architectural state
    #: to (from) the aggregate save area.  Charged once per switch since
    #: all AMSs save/restore in parallel (Section 5.1).
    sequencer_state_save_cost: int = 3000

    # ------------------------------------------------------------------
    # OS scheduling
    # ------------------------------------------------------------------
    #: Timer quantum in cycles.  Each OS-visible CPU (OMS or SMP core)
    #: takes a timer interrupt at this period.
    timer_quantum: int = 2_000_000
    #: Period, in cycles, of uncategorized device interrupts delivered
    #: to CPU 0 (models the paper's "Interrupt" column, roughly one per
    #: ~10 timer ticks on the interrupt-steered CPU).
    device_interrupt_period: int = 22_000_000

    # ------------------------------------------------------------------
    # Memory system
    # ------------------------------------------------------------------
    #: Physical memory size in 4 KiB frames (default 256 MiB).
    physical_frames: int = 65536
    #: Per-sequencer TLB entries.
    tlb_entries: int = DEFAULT_TLB_ENTRIES
    #: Cycles for a hardware page walk on a TLB miss that hits a
    #: present PTE (no fault, handled by the sequencer's page walker).
    page_walk_cost: int = 60

    # ------------------------------------------------------------------
    # Memory hierarchy (repro.mem.hierarchy)
    # ------------------------------------------------------------------
    #: Per-sequencer L1 cache size in bytes.
    l1_size: int = 32 * 1024
    #: L1 associativity (ways).
    l1_assoc: int = 4
    #: L2 cache size in bytes (one L2 per topology domain: shared by a
    #: MISP processor's sequencers, private per SMP core).
    l2_size: int = 512 * 1024
    #: L2 associativity (ways).
    l2_assoc: int = 8
    #: Cache line size in bytes (all levels).
    cache_line_size: int = 64
    #: Cycles for an access that hits in the L1 (charged on every
    #: hierarchy access as the pipeline's load-to-use latency).
    l1_hit_cost: int = 1
    #: Additional cycles when the access misses L1 and hits the L2.
    l2_hit_cost: int = 8
    #: Additional cycles when the access misses both caches and goes
    #: to the flat memory level (the figure_mem sweep axis).
    mem_cost: int = 60

    # ------------------------------------------------------------------
    # User-level runtime micro-costs (ShredLib)
    # ------------------------------------------------------------------
    #: Cycles for one atomic read-modify-write (lock cmpxchg).
    atomic_op_cost: int = 40
    #: Cycles for a work-queue push or pop once the lock is held.
    queue_op_cost: int = 80
    #: Cycles for the user-level shred context switch performed by the
    #: gang scheduler (swap EIP/ESP and callee-saved registers).
    shred_switch_cost: int = 200
    #: Cycles an idle gang scheduler waits between polls of an empty
    #: work queue (a PAUSE-loop batch; bounds wakeup latency).
    idle_poll_cost: int = 25_000

    # ------------------------------------------------------------------
    # Mini-ISA execution
    # ------------------------------------------------------------------
    #: Base cost, in cycles, of one mini-ISA instruction.
    isa_instruction_cost: int = 1

    # ------------------------------------------------------------------
    # Scoreboard pipeline (the ``scoreboard`` timing model;
    # ignored under ``fixed``)
    # ------------------------------------------------------------------
    #: ALU functional units shared by all sequencers of one processor.
    sb_alu_units: int = 2
    #: Memory (load/store/atomic) units shared per processor.
    sb_mem_units: int = 2
    #: Cycles through the in-order frontend (issue + read-operands).
    sb_frontend_depth: int = 4
    #: Cycles to refill the pipeline after one signal-broadcast drain
    #: (the per-signal term of the emergent SIGNAL cost).
    sb_drain_refill: int = 8

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # exactly int (bool is an int subclass): a float would make
            # cycles floats and give equal parameter sets different
            # spec hashes
            if type(value) is not int:
                raise ValueError(
                    f"{field.name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{field.name} must be non-negative, got {value}")
        if self.timer_quantum == 0:
            raise ValueError("timer_quantum must be positive")
        if self.physical_frames == 0:
            raise ValueError("physical_frames must be positive")
        for field_name in ("l1_assoc", "l2_assoc", "cache_line_size",
                           "sb_alu_units", "sb_mem_units"):
            if getattr(self, field_name) == 0:
                raise ValueError(f"{field_name} must be positive")

    def with_changes(self, **changes: int) -> "MachineParams":
        """Return a copy with the given fields replaced.

        Unknown field names raise :class:`ValueError` -- a typo'd
        sweep axis must fail loudly, not silently leave the default.
        """
        unknown = [name for name in changes if name not in _FIELD_NAMES]
        if unknown:
            raise ValueError(
                f"unknown MachineParams field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(_FIELD_NAMES)}")
        return dataclasses.replace(self, **changes)


#: All MachineParams field names, for with_changes validation.
_FIELD_NAMES = frozenset(
    field.name for field in dataclasses.fields(MachineParams))


#: Shared default parameter set (signal = 5000 cycles, as in the paper).
DEFAULT_PARAMS = MachineParams()
