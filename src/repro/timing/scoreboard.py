"""The ``scoreboard`` timing model: an in-order scoreboarded pipeline.

Instead of constant per-op costs, each MISP processor owns one
scoreboarded in-order pipeline (issue / read-operands / execute /
writeback) that *all* of its sequencers -- the OMS and every AMS --
issue into.  An op's cost is when the pipeline actually retires it:

* **frontend** -- issue + read-operands take ``sb_frontend_depth``
  cycles;
* **RAW** -- read-operands additionally waits until every source
  register the op reads (``op.reads``, attached by the mini-ISA
  interpreter) has been written back by this sequencer's earlier ops;
* **structural** -- execute needs a free functional unit from the
  processor's shared pool (``sb_alu_units`` ALUs, ``sb_mem_units``
  memory units); when all units of the needed class are busy, the op
  waits for the earliest one;
* **execute** -- occupies the unit for the op's functional latency
  (its base cost + page walks + hierarchy charges + fetch);
* **writeback / WAW** -- destination registers (``op.writes``) retire
  through a single writeback port, one op per cycle, in order -- a
  later op reading them stalls until then.

SIGNAL, yield-conditional delivery, and proxy transitions are where
this model earns its keep: a signal broadcast must *drain* the
processor's pipeline (every in-flight op completes) before the
broadcast trains refill it, so ``signal_cycles`` is ``drain +
count * sb_drain_refill`` -- an emergent, occupancy-dependent cost in
place of the paper's flat ``signal_cost`` estimate (Section 5.2 calls
its 5000-cycle figure "conservative" precisely because a real
implementation's cost depends on pipeline state).  A context switch
flushes the pipeline architecturally, so :meth:`end_quantum` resets
the processor's scoreboard.

Because sequencers on one processor contend for the shared unit pool,
MISP configurations are sensitive to ``sb_alu_units`` /
``sb_mem_units`` while single-sequencer processors (SMP cores, 1P) are
not -- the FU-count axis :mod:`repro.analysis.figure_pipeline` sweeps.

Costs depend on pipeline occupancy, so this model does **not** support
trace capture/replay (``supports_capture = False``); the experiment
layer runs it execution-driven only.

Modeled after the classic MIPS scoreboard simulators: per-unit
busy-until bookkeeping, per-register ready times, and in-order
issue with stalls resolved by time comparison -- no event machinery of
its own, the machine's discrete-event clock is the only clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.ops import AtomicOp, MemAccess, SignalShred, Touch
from repro.timing.base import TimingModel, register_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.core.sequencer import Sequencer
    from repro.exec.ops import MachineOp


class _ProcPipeline:
    """One processor's scoreboard: shared FUs + per-register state."""

    __slots__ = ("alu", "mem", "wb_free", "reg_ready")

    def __init__(self, alu_units: int, mem_units: int) -> None:
        #: busy-until time per ALU / memory unit
        self.alu = [0] * alu_units
        self.mem = [0] * mem_units
        #: when the single writeback port is next free
        self.wb_free = 0
        #: (seq_id, reg) -> cycle its last write retires
        self.reg_ready: dict[tuple[int, int], int] = {}

    def drain_time(self, now: int) -> int:
        """Cycles until every in-flight op has left the pipeline."""
        busiest = max(max(self.alu), max(self.mem), self.wb_free)
        return busiest - now if busiest > now else 0

    def flush(self) -> None:
        """Architectural pipeline flush (context switch)."""
        for i in range(len(self.alu)):
            self.alu[i] = 0
        for i in range(len(self.mem)):
            self.mem[i] = 0
        self.wb_free = 0
        self.reg_ready.clear()


@register_timing
class ScoreboardTiming(TimingModel):
    """In-order scoreboarded pipeline per processor (occupancy-based)."""

    name = "scoreboard"
    supports_capture = False
    description = ("in-order scoreboarded pipeline per processor: shared "
                   "FU pools, RAW/WAW + structural hazards, drain-based "
                   "signal costs; sweeps sb_* MachineParams axes")

    def bind(self, machine: "Machine") -> None:
        super().bind(machine)
        params = machine.params
        self._frontend = params.sb_frontend_depth
        self._refill = params.sb_drain_refill
        self._page_walk_cost = params.page_walk_cost
        self._engine = machine.engine
        self._pipes = [_ProcPipeline(params.sb_alu_units, params.sb_mem_units)
                       for _ in machine.processors]
        #: drain portion of the most recent signal_cycles() result
        #: (consumed by split_signal / the SIGNAL charge right after)
        self._last_drain = 0

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def charge(self, seq: "Sequencer", op: "MachineOp", base: int,
               walks: int = 0, access: int = 0, fetch: int = 0) -> int:
        now = self._engine.now
        pipe = self._pipes[seq.processor.proc_id]
        lat = base + access + fetch
        if walks:
            lat += walks * self._page_walk_cost
        if lat < 1:
            lat = 1

        stalls = self.machine.stalls
        if type(op) is SignalShred:
            # `base` already came from signal_cycles (drain + refill)
            # and accounted for pipeline occupancy; don't queue the
            # broadcast on a functional unit on top of that.
            if stalls is not None:
                sid = seq.seq_id
                stalls.note(sid, "frontend", self._frontend)
                drain = self._last_drain if self._last_drain < lat else 0
                if drain:
                    stalls.note(sid, "drain", drain)
                stalls.note(sid, "signal", lat - drain)
            return self._frontend + lat

        sid = seq.seq_id
        reg_ready = pipe.reg_ready
        # issue + read-operands, stalled by RAW on this stream's regs
        ready = now + self._frontend
        for reg in getattr(op, "reads", ()):
            t = reg_ready.get((sid, reg), 0)
            if t > ready:
                ready = t
        # structural hazard: earliest free unit of the needed class
        units = (pipe.mem if type(op) in (MemAccess, Touch, AtomicOp)
                 else pipe.alu)
        slot = min(range(len(units)), key=units.__getitem__)
        avail = units[slot]
        start = avail if avail > ready else ready
        done = start + lat
        units[slot] = done
        # single writeback port, one retirement per cycle, in order
        wb_wait = pipe.wb_free - done if pipe.wb_free > done else 0
        wb = done + wb_wait + 1
        waw_wait = 0
        writes = getattr(op, "writes", ())
        if writes:
            for reg in writes:
                key = (sid, reg)
                prior = reg_ready.get(key, 0)
                if prior >= wb:       # WAW: retire after the earlier write
                    waw_wait += prior + 1 - wb
                    wb = prior + 1
            for reg in writes:
                reg_ready[(sid, reg)] = wb
        pipe.wb_free = wb
        if stalls is not None:
            # decompose `done - now` exactly: frontend + RAW wait +
            # structural wait + execute (memory / page walks / compute);
            # the retire-port and WAW waits happen after `done` (they
            # surface as later ops' RAW stalls) and are tracked as
            # their own families without inflating this op's cost
            note = stalls.note
            note(sid, "frontend", self._frontend)
            raw = ready - (now + self._frontend)
            if raw > 0:
                note(sid, "raw", raw)
            if avail > ready:
                note(sid, "structural", avail - ready)
            mem = access + fetch
            if mem:
                note(sid, "memory", mem)
            if walks:
                note(sid, "page_walk", walks * self._page_walk_cost)
            compute = lat - mem - (walks * self._page_walk_cost if walks
                                   else 0)
            if compute:
                note(sid, "compute", compute)
            if wb_wait:
                note(sid, "wb_port", wb_wait)
            if waw_wait:
                note(sid, "waw", waw_wait)
        # the sequencer is execution-serialized on `done`; the register
        # writeback at `wb` is what later RAW/WAW stalls see
        return done - now

    def signal_cycles(self, seq: "Sequencer", count: int = 1) -> int:
        if count <= 0:
            self._last_drain = 0
            return 0
        now = self._engine.now
        pipe = self._pipes[seq.processor.proc_id]
        drain = pipe.drain_time(now)
        self._last_drain = drain
        cost = drain + count * self._refill
        # the broadcast owns the drained pipeline until it completes
        done = now + cost
        for units in (pipe.alu, pipe.mem):
            for i in range(len(units)):
                units[i] = done
        if pipe.wb_free < done:
            pipe.wb_free = done
        return cost

    def split_signal(self, cost: int) -> tuple[tuple[str, int], ...]:
        drain = self._last_drain if self._last_drain < cost else 0
        return (("drain", drain), ("signal", cost - drain))

    # ------------------------------------------------------------------
    # Quantum hooks
    # ------------------------------------------------------------------
    def begin_quantum(self, seq: "Sequencer") -> None:
        # a freshly switched-in thread starts with a cold pipeline
        self._pipes[seq.processor.proc_id].flush()

    def end_quantum(self, seq: "Sequencer") -> None:
        self._pipes[seq.processor.proc_id].flush()
