"""The ``fixed`` timing model: constant per-op costs.

This is the pre-timing-subsystem cost model, extracted verbatim from
the machine's issue path (``Machine._issue``, with
``Machine._classify_access`` supplying each data access's functional
components): every op costs those components added together -- the
op's own cycle count (or the :class:`~repro.params.MachineParams`
constant it maps to), page walks at ``page_walk_cost`` each, whatever
the cache hierarchy charged, and the instruction fetch.  A SIGNAL broadcast costs
``signal_cost`` flat (the paper's Section 5.2 microcode estimate).

It is the default model and the reference the rest of the subsystem is
measured against: ``tests/test_timing.py`` asserts it is cycle-exact
with an unconfigured machine on every backend.  Because its pricing is
constant and occupancy-free, it is also the only built-in model with
:attr:`~repro.timing.base.TimingModel.supports_capture` -- trace
replay re-prices per-event coefficient sums, which is exactly this
model's structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.timing.base import TimingModel, register_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.core.sequencer import Sequencer
    from repro.exec.ops import MachineOp

#: Extra cycles a mini-ISA memory-reference instruction (LD/ST/
#: PUSH/POP/CALL/RET) costs over ``isa_instruction_cost``, covering
#: effective-address generation.  Lives here rather than in the
#: interpreter because it is pricing, not semantics.
ISA_MEM_EXTRA = 2

#: Extra cycles a mini-ISA MUL costs over ``isa_instruction_cost``.
ISA_MUL_EXTRA = 3


@register_timing
class FixedTiming(TimingModel):
    """Constant per-op pricing (the default; capture/replay-safe)."""

    name = "fixed"
    supports_capture = True
    description = ("constant per-op costs straight from MachineParams; "
                   "the default, and the only replay-capable model")

    def bind(self, machine: "Machine") -> None:
        super().bind(machine)
        # params is frozen; hoist the two per-op constants out of the
        # charge hot loop
        self._page_walk_cost = machine.params.page_walk_cost
        self._signal_cost = machine.params.signal_cost

    def charge(self, seq: "Sequencer", op: "MachineOp", base: int,
               walks: int = 0, access: int = 0, fetch: int = 0) -> int:
        if walks:
            return base + walks * self._page_walk_cost + access + fetch
        return base + access + fetch

    def signal_cycles(self, seq: "Sequencer", count: int = 1) -> int:
        return count * self._signal_cost

    # Stall attribution: this model does NOT decompose its charge path
    # live.  Constant pricing means the full compute/memory/page_walk
    # decomposition is recoverable exactly from a captured trace's
    # coefficients (repro.obs.critpath.analyze_trace), so adding
    # per-op accounting to the observed hot path would buy nothing but
    # overhead -- the observability cost gate in
    # benchmarks/test_obs_overhead.py keeps the observed/plain ratio
    # honest.  The base-class attach_stalls is inherited unchanged:
    # the machine's serialization sites (SIGNAL broadcasts, Ring-0
    # services, proxy egress, context switches -- all rare events)
    # note their classes directly, which is exactly the fixed-cost
    # serialization taxonomy the paper's model defines.
