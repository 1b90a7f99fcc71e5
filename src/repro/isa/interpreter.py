"""Mini-ISA interpreter as an :class:`InstructionStream`.

:class:`AsmStream` executes one decoded instruction per fetch, split
into the two-phase protocol the machine expects: ``next_op`` exposes
the instruction's externally visible action (computation, a memory
access at a computed effective address, a trap, a SIGNAL) as a machine
op, and ``complete`` commits the architectural side effects (register
writes, PC update, actual word movement).  Because the commit only
happens after the machine has resolved the access, a faulting load
re-executes after proxy service with no special casing -- precisely
the "re-execute the faulting instruction" semantics of Section 2.5.

Shred continuations are ⟨EIP, ESP⟩ exactly as in the paper: the
SIGNAL instruction builds a *new* ``AsmStream`` over the same program
image with PC = EIP and r7/sp = ESP.

Ingress signals to a busy sequencer go through the YIELD-CONDITIONAL
mechanism: if the stream registered a handler with ``YMONITOR``, the
handler runs as an asynchronous function call (sender SID in r6) and
``YRET`` resumes the interrupted instruction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import InvalidInstructionError, SimulationError
from repro.exec.ops import (
    Compute, MachineOp, MemAccess, SignalShred, SyscallOp,
)
from repro.exec.stream import InstructionStream
from repro.isa.instructions import NUM_REGS, SP, Instruction, Opcode
from repro.kernel.process import Process
from repro.mem.pagetable import vpn_of
from repro.params import PAGE_SIZE, MachineParams
from repro.timing.fixed import ISA_MEM_EXTRA, ISA_MUL_EXTRA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.hierarchy import MemoryHierarchy

#: register that receives the sender SID in a yield handler
YIELD_SID_REG = 6

_MASK = 0xFFFFFFFF


def _wrap(value: int) -> int:
    return value & _MASK


class AsmStream(InstructionStream):
    """One hardware thread context running mini-ISA code."""

    #: every instruction is fetched through the cache hierarchy
    models_fetch = True

    def __init__(self, program: list[Instruction], process: Process,
                 params: MachineParams, entry: int = 0,
                 stack_top: Optional[int] = None, label: str = "asm") -> None:
        self.program = program
        self.process = process
        self.params = params
        # params is frozen; hoist the per-instruction base cost out of
        # the _issue hot loop
        self._base_cost = params.isa_instruction_cost
        self.label = label
        self.regs = [0] * NUM_REGS
        if stack_top is not None:
            self.regs[SP] = stack_top
        self.pc = entry
        self.instructions_retired = 0
        self._halted = False
        self._pending: Optional[MachineOp] = None
        self._pending_instr: Optional[Instruction] = None
        #: synthetic code-segment base, assigned by the hierarchy on
        #: the first fetch (continuations over the same program image
        #: share one segment)
        self._code_base: Optional[int] = None
        # YIELD-CONDITIONAL state
        self._yield_handler: Optional[int] = None
        self._yield_pending: Optional[int] = None   # sender SID
        self._yield_return: Optional[int] = None    # interrupted PC

    # ------------------------------------------------------------------
    # InstructionStream protocol
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._halted

    def next_op(self) -> Optional[MachineOp]:
        if self._halted:
            return None
        if self._pending is not None:
            return self._pending           # fault retry
        self._take_yield_if_pending()
        if not 0 <= self.pc < len(self.program):
            raise InvalidInstructionError(
                f"{self.label}: PC {self.pc} outside program "
                f"(len {len(self.program)})")
        instr = self.program[self.pc]
        op = self._issue(instr)
        if op is None:                      # HALT
            self._halted = True
            return None
        self._pending = op
        self._pending_instr = instr
        return op

    def fetch_addr(self, hierarchy: "MemoryHierarchy") -> int:
        """Fetch address of the issuing instruction (cache-modelled)."""
        if self._code_base is None:
            self._code_base = hierarchy.code_segment(id(self.program),
                                                     len(self.program))
        return self._code_base + 4 * self.pc

    def complete(self, value: Any = None) -> None:
        if self._pending is None:
            raise SimulationError(f"{self.label}: complete() with no pending op")
        instr = self._pending_instr
        self._pending = None
        self._pending_instr = None
        self._commit(instr)
        self.instructions_retired += 1

    # ------------------------------------------------------------------
    # YIELD-CONDITIONAL (Section 2.4)
    # ------------------------------------------------------------------
    def deliver_signal(self, sender_sid: int, op: SignalShred) -> bool:
        """Ingress signal while running; True if a handler will take it."""
        if self._yield_handler is None:
            return False
        self._yield_pending = sender_sid
        return True

    def _take_yield_if_pending(self) -> None:
        if self._yield_pending is None or self._yield_handler is None:
            return
        if self._yield_return is not None:
            return                          # already inside the handler
        self._yield_return = self.pc        # save the next EIP
        self.regs[YIELD_SID_REG] = self._yield_pending
        self._yield_pending = None
        self.pc = self._yield_handler       # fly-weight control transfer

    # ------------------------------------------------------------------
    # Issue: expose the instruction's action as a machine op
    # ------------------------------------------------------------------
    def _issue(self, instr: Instruction) -> Optional[MachineOp]:
        base = self._base_cost
        mem_cost = base + ISA_MEM_EXTRA
        opcode = instr.opcode
        if opcode is Opcode.HALT:
            return None
        if opcode is Opcode.LD:
            return MemAccess(_wrap(self.regs[instr.rs] + instr.imm),
                             write=False, cycles=mem_cost,
                             reads=(instr.rs,), writes=(instr.rd,))
        if opcode is Opcode.ST:
            return MemAccess(_wrap(self.regs[instr.rd] + instr.imm),
                             write=True, cycles=mem_cost,
                             reads=(instr.rd, instr.rs))
        if opcode is Opcode.PUSH:
            return MemAccess(_wrap(self.regs[SP] - 4), write=True,
                             cycles=mem_cost,
                             reads=(SP, instr.rs), writes=(SP,))
        if opcode is Opcode.POP:
            return MemAccess(self.regs[SP], write=False, cycles=mem_cost,
                             reads=(SP,), writes=(instr.rd, SP))
        if opcode is Opcode.CALL:
            return MemAccess(_wrap(self.regs[SP] - 4), write=True,
                             cycles=mem_cost, reads=(SP,), writes=(SP,))
        if opcode is Opcode.RET:
            return MemAccess(self.regs[SP], write=False, cycles=mem_cost,
                             reads=(SP,), writes=(SP,))
        if opcode is Opcode.SYS:
            return SyscallOp(instr.service)
        if opcode is Opcode.SPIN:
            return Compute(max(1, instr.imm))
        if opcode is Opcode.SIGNAL:
            continuation = AsmStream(
                self.program, self.process, self.params,
                entry=instr.target, stack_top=self.regs[instr.rt],
                label=f"{self.label}-sid{self.regs[instr.rs]}")
            return SignalShred(self.regs[instr.rs], continuation,
                               label=continuation.label)
        if opcode is Opcode.MUL:
            return Compute(base + ISA_MUL_EXTRA,
                           reads=(instr.rs, instr.rt), writes=(instr.rd,))
        return Compute(base)

    # ------------------------------------------------------------------
    # Commit: apply architectural effects after the op resolved
    # ------------------------------------------------------------------
    def _commit(self, instr: Instruction) -> None:
        opcode = instr.opcode
        regs = self.regs
        next_pc = self.pc + 1
        if opcode is Opcode.LI:
            regs[instr.rd] = _wrap(instr.imm)
        elif opcode is Opcode.MOV:
            regs[instr.rd] = regs[instr.rs]
        elif opcode is Opcode.ADD:
            regs[instr.rd] = _wrap(regs[instr.rs] + regs[instr.rt])
        elif opcode is Opcode.SUB:
            regs[instr.rd] = _wrap(regs[instr.rs] - regs[instr.rt])
        elif opcode is Opcode.MUL:
            regs[instr.rd] = _wrap(regs[instr.rs] * regs[instr.rt])
        elif opcode is Opcode.ADDI:
            regs[instr.rd] = _wrap(regs[instr.rs] + instr.imm)
        elif opcode is Opcode.LD:
            regs[instr.rd] = self._read(_wrap(regs[instr.rs] + instr.imm))
        elif opcode is Opcode.ST:
            self._write(_wrap(regs[instr.rd] + instr.imm), regs[instr.rs])
        elif opcode is Opcode.PUSH:
            regs[SP] = _wrap(regs[SP] - 4)
            self._write(regs[SP], regs[instr.rs])
        elif opcode is Opcode.POP:
            regs[instr.rd] = self._read(regs[SP])
            regs[SP] = _wrap(regs[SP] + 4)
        elif opcode is Opcode.JMP:
            next_pc = instr.target
        elif opcode is Opcode.BEQ:
            if regs[instr.rs] == regs[instr.rt]:
                next_pc = instr.target
        elif opcode is Opcode.BNE:
            if regs[instr.rs] != regs[instr.rt]:
                next_pc = instr.target
        elif opcode is Opcode.BLT:
            if regs[instr.rs] < regs[instr.rt]:
                next_pc = instr.target
        elif opcode is Opcode.CALL:
            regs[SP] = _wrap(regs[SP] - 4)
            self._write(regs[SP], self.pc + 1)
            next_pc = instr.target
        elif opcode is Opcode.RET:
            next_pc = self._read(regs[SP])
            regs[SP] = _wrap(regs[SP] + 4)
        elif opcode is Opcode.YMONITOR:
            self._yield_handler = instr.target
        elif opcode is Opcode.YRET:
            if self._yield_return is None:
                raise InvalidInstructionError(
                    f"{self.label}: YRET outside a yield handler")
            next_pc = self._yield_return
            self._yield_return = None
        elif opcode in (Opcode.NOP, Opcode.SYS, Opcode.SPIN,
                        Opcode.SIGNAL):
            pass
        else:  # pragma: no cover - defensive
            raise InvalidInstructionError(f"unhandled opcode {opcode}")
        self.pc = next_pc

    # ------------------------------------------------------------------
    # Word access (only reached once the page is resident)
    # ------------------------------------------------------------------
    def _translate(self, vaddr: int, action: str) -> int:
        """Commit-phase translation through the owning sequencer's TLB.

        The issue phase already counted the TLB lookup and charged the
        cache hierarchy for this access, so the commit phase peeks
        (no statistics) and falls back to the page table -- e.g. when
        the shred team was frozen and thawed mid-access, which flushes
        the TLB.
        """
        seq = self.sequencer
        if seq is not None:
            frame = seq.tlb.peek(vpn_of(vaddr))
            if frame is not None:
                return frame * PAGE_SIZE + vaddr % PAGE_SIZE
        paddr = self.process.address_space.translate(vaddr)
        if paddr is None:
            raise SimulationError(
                f"{self.label}: commit-time {action} of non-resident "
                f"{vaddr:#x}")
        return paddr

    def _read(self, vaddr: int) -> int:
        paddr = self._translate(vaddr, "read")
        return self.process.address_space.physical.read_word(paddr)

    def _write(self, vaddr: int, value: int) -> None:
        paddr = self._translate(vaddr, "write")
        self.process.address_space.physical.write_word(paddr, value)
