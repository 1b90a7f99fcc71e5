"""The MISP machine model: timed choreography of every architectural flow.

One :class:`Machine` simulates a complete system: one or more
:class:`~repro.core.processor.MISPProcessor` (each one OS-visible CPU,
Figure 2), the model kernel, physical memory, and the discrete-event
engine.  The same class covers every configuration in the paper:

* MISP uniprocessor (Figure 1): ``ams_per_processor=[7]``;
* MISP MP (Figure 6): e.g. ``[1, 1, 1, 1]`` for 4x2, ``[3, 0, 0, 0, 0]``
  for 1x4+4;
* the SMP baseline: ``[0] * 8`` (every processor a plain CPU).

The machine *dynamically* charges the overheads that Section 5.1
models analytically:

* every OMS Ring 3 -> Ring 0 transition pays Equation 1
  (``2*signal + priv``) and suspends the processor's active AMSs;
* every AMS fault/syscall pays the proxy choreography of Equations 2
  and 3 through an explicit relayed-request state machine;
* the user-level ``SIGNAL`` instruction costs ``signal`` cycles and
  delivers a shred continuation to an idle sequencer.

The kernel scheduler is shred-oblivious: when it preempts a
multi-shredded thread, the machine freezes that thread's AMS streams
into the thread's aggregate save area (Section 2.2) and the AMSs idle
-- the effect Figure 7 measures.

Every op's completion is one engine event.  An idle gang scheduler's
completions go to two dedicated callbacks: each
:class:`~repro.exec.ops.IdlePoll`'s to :meth:`Machine._poll_done`,
which on a quiet scheduler issues the lock RMW in place, and that lock
RMW's to :meth:`Machine._lock_done`, which on a quiet work queue counts
one poll and issues the same backoff again.  A quiet step makes the
state reads, mutating calls and :meth:`~repro.sim.engine.Engine.schedule`
call the full completion would, and skips only resuming the generator,
which the loop contract of
:func:`~repro.shredlib.scheduler.gang_scheduler` makes side-effect
free; anything else runs the full completion.  So every run, captured
or not, fires the events of the per-op path in its order, and a quiet
event's capture row is the one the full path would write.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.core.notation import config_name
from repro.core.processor import MISPProcessor
from repro.core.proxy import ProxyKind, ProxyRequest, ProxyStats
from repro.core.sequencer import Sequencer, SequencerRole
from repro.errors import ConfigurationError, SimulationError
from repro.exec.ops import (
    AtomicOp, Compute, IdlePoll, MachineOp, MemAccess, SignalShred, SyscallOp,
    Touch,
)
from repro.exec.stream import DirectStream, InstructionStream
from repro.kernel.kernel import Kernel
from repro.kernel.process import OSThread, Process, ThreadState
from repro.kernel.syscalls import SyscallSpec
from repro.mem.addrspace import AddressSpace
from repro.mem.hierarchy import HierarchyFactory, shared_l2_per_processor
from repro.mem.pagetable import vpn_of
from repro.params import DEFAULT_PARAMS, PAGE_SIZE, MachineParams
from repro.sim.captrace import (
    ISSUE_ATOMIC, ISSUE_SIGNAL, ISSUE_WALK, TraceCapture,
)
from repro.sim.engine import Engine
from repro.sim.trace import EventKind, TraceLog
from repro.timing.base import PARAM_CLASS, StallAccount, TimingModel
from repro.timing.fixed import FixedTiming

class Machine:
    """A full simulated system (processors + kernel + memory + clock)."""

    def __init__(self, ams_per_processor: Sequence[int],
                 params: MachineParams = DEFAULT_PARAMS,
                 hierarchy: Optional[HierarchyFactory] = None,
                 timing: Optional[TimingModel] = None) -> None:
        if not ams_per_processor:
            raise ConfigurationError("need at least one processor")
        if any(n < 0 for n in ams_per_processor):
            raise ConfigurationError("AMS counts must be non-negative")
        self.params = params
        self.engine = Engine()
        self.trace = TraceLog(record_fine=False)
        self.proxy_stats = ProxyStats()
        #: trace capture (repro.sim.captrace.TraceCapture), if enabled
        self._cap: Optional[Any] = None
        #: the run's stall account, once enable_observation() ran
        self.stalls: Optional[StallAccount] = None
        #: signal broadcasts priced and the cycles they cost: coarse
        #: counts every run keeps, like TraceLog's
        self.signal_charges = 0
        self.signal_cycles = 0

        # -- build sequencers and processors ------------------------------
        self.sequencers: list[Sequencer] = []
        self.processors: list[MISPProcessor] = []
        for proc_id, n_ams in enumerate(ams_per_processor):
            oms = self._new_sequencer(SequencerRole.OMS)
            amss = [self._new_sequencer(SequencerRole.AMS) for _ in range(n_ams)]
            self.processors.append(MISPProcessor(proc_id, oms, amss))

        #: cache hierarchy; system backends declare the topology in
        #: build_machine (default: one L2 shared per processor)
        self.hierarchy = (hierarchy or shared_l2_per_processor)(
            self.processors, params)

        self.kernel = Kernel(params, num_cpus=len(self.processors))
        #: per-processor queue of pending OMS work items:
        #: ("timer",), ("device",), or ("proxy", ProxyRequest)
        self._pending: list[deque[tuple]] = [deque() for _ in self.processors]
        self._timers_started = False
        self._stopped = False

        #: the timing model pricing every op (repro.timing); the
        #: default `fixed` model reproduces the constant per-op costs
        self.timing: TimingModel = timing if timing is not None else FixedTiming()
        self._bind_timing()

    def _bind_timing(self) -> None:
        self.timing.bind(self)
        # hot-path hoist: one bound-method lookup per op, not an
        # attribute chain (rebinds on set_timing)
        self._charge = self.timing.charge

    def set_timing(self, timing: TimingModel) -> None:
        """Swap in a timing model (before any events are scheduled).

        Backend ``build_machine`` signatures stay timing-agnostic: the
        Session attaches the resolved model here right after build.
        """
        if self.engine.events_scheduled:
            raise SimulationError(
                "set_timing() must run before any events are scheduled")
        self.timing = timing
        self._bind_timing()

    def _new_sequencer(self, role: SequencerRole) -> Sequencer:
        seq = Sequencer(len(self.sequencers), role, self.params.tlb_entries)
        self.sequencers.append(seq)
        return seq

    def enable_capture(self) -> Any:
        """Attach a :class:`~repro.sim.captrace.TraceCapture`.

        Must be called before any events are scheduled (the trace's
        event graph needs seqnos dense from 0).  Returns the capture,
        from which :class:`~repro.sim.captrace.CapturedTrace` is built
        after the run.  The engine appends every scheduled event's
        row to its columns; the machine writes each event's
        annotations into that row right after scheduling it.
        """
        if not self.timing.supports_capture:
            raise ConfigurationError(
                f"trace capture requires a constant-cost timing model; "
                f"the active '{self.timing.canonical_name()}' model prices "
                "ops from pipeline occupancy, so a captured cost "
                "decomposition would not replay -- run execution-driven, "
                "or switch to .timing('fixed')")
        if self.engine.events_scheduled:
            raise SimulationError(
                "enable_capture() must run before any events are scheduled")
        if self._cap is None:
            cap = TraceCapture(self.engine, self.hierarchy,
                               [seq.seq_id for seq in self.sequencers])
            self.engine.set_capture(cap)
            self._cap = cap
        return self._cap

    def enable_observation(self) -> None:
        """Keep a stall account (:attr:`stalls`) and fine trace records
        for this run.

        Must run before any events are scheduled: the account has to
        see every serialization stage and every charge the timing
        model notes into it, and the fine records let the run be
        exported as a timeline.  An unobserved run keeps neither, only
        the coarse counts every run keeps (TraceLog totals,
        :attr:`signal_charges`, :attr:`signal_cycles`).
        """
        if self.engine.events_scheduled:
            raise SimulationError(
                "enable_observation() must run before any events are "
                "scheduled")
        self.stalls = StallAccount()
        self.trace.record_fine = True

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    @property
    def num_cpus(self) -> int:
        return len(self.processors)

    @property
    def now(self) -> int:
        return self.engine.now

    def cpu(self, index: int) -> Sequencer:
        return self.processors[index].oms

    def oms_ids(self) -> list[int]:
        return [p.oms.seq_id for p in self.processors]

    def ams_ids(self) -> list[int]:
        return [a.seq_id for p in self.processors for a in p.amss]

    def describe(self) -> str:
        """Configuration string in the paper's Figure 6 notation."""
        return config_name([len(p.amss) for p in self.processors])

    def ops_issued(self) -> int:
        """Ops the timing model has priced so far: completed, dropped
        with a killed stream, or still in flight (a drive loop may stop
        before the engine drains, as multiprogramming's does)."""
        return (sum(s.ops_executed + s.ops_dropped for s in self.sequencers)
                + sum(self.engine.queued(done) for done in (
                    self._complete, self._poll_done, self._lock_done)))

    # ------------------------------------------------------------------
    # Process / thread API
    # ------------------------------------------------------------------
    def spawn_process(self, name: str) -> Process:
        return self.kernel.create_process(name)

    def spawn_thread(self, process: Process, name: str, body: Any,
                     pinned_cpu: Optional[int] = None,
                     start: bool = True) -> OSThread:
        """Create (and by default start) an OS thread.

        ``body`` may be an :class:`InstructionStream` or a generator of
        machine ops (which is wrapped in a :class:`DirectStream`).
        """
        stream = (body if isinstance(body, InstructionStream)
                  else DirectStream(body, label=name))
        thread = self.kernel.create_thread(process, name, stream, pinned_cpu)
        if start:
            cpu = self.kernel.start_thread(thread)
            self._kick_cpu(cpu)
        return thread

    def _kick_cpu(self, cpu: int) -> None:
        """If the CPU is idle, let it pick up ready work."""
        oms = self.processors[cpu].oms
        if oms.thread is None and not oms.busy:
            self._context_switch(cpu)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start_timers(self) -> None:
        """Arm per-CPU timers and the device-interrupt source."""
        if self._timers_started:
            return
        self._timers_started = True
        quantum = self.params.timer_quantum
        for cpu in range(self.num_cpus):
            # stagger CPUs so ticks are not artificially synchronized
            offset = (cpu * quantum) // max(self.num_cpus, 1)
            self.engine.schedule(quantum + offset, self._timer_tick, cpu)
        if self.params.device_interrupt_period > 0:
            self.engine.schedule(self.params.device_interrupt_period,
                                 self._device_tick)

    def run(self, until: Optional[int] = None) -> int:
        """Run the machine; returns the stop time."""
        self.start_timers()
        return self.engine.run(until=until)

    def run_to_completion(self, limit: int = 100_000_000_000) -> int:
        """Run until every process exits; raises on timeout."""
        self.run(until=limit)
        if not self.kernel.all_done:
            raise SimulationError(
                f"machine did not finish within {limit} cycles "
                f"({self.kernel.live_thread_count()} threads live)")
        return self.now

    def stop(self) -> None:
        """Stop issuing periodic interrupts (lets the engine drain)."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Periodic interrupts
    # ------------------------------------------------------------------
    def _timer_tick(self, cpu: int) -> None:
        if self._stopped or self.kernel.all_done:
            return
        self._pending[cpu].append(("timer",))
        self._advance(self.processors[cpu].oms)
        self.engine.schedule(self.params.timer_quantum, self._timer_tick, cpu)

    def _device_tick(self) -> None:
        if self._stopped or self.kernel.all_done:
            return
        self._pending[0].append(("device",))
        self._advance(self.processors[0].oms)
        self.engine.schedule(self.params.device_interrupt_period,
                             self._device_tick)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------
    def _advance(self, seq: Sequencer) -> None:
        """Let a sequencer make progress if it can."""
        if seq.busy or seq.suspend_depth > 0 or seq.proxy_wait:
            return
        if seq.is_oms and self._pending[seq.processor.proc_id] and seq.ring == 3:
            self._take_pending(seq)
            return
        if seq.stream is None:
            if seq.is_oms and seq.thread is None:
                # idle CPU: pull ready work
                if self.kernel.scheduler.has_ready(seq.processor.proc_id):
                    self._context_switch(seq.processor.proc_id)
            return
        op = seq.stream.next_op()
        if op is None:
            self._stream_finished(seq)
            return
        self._issue(seq, seq.stream, op)

    def _issue(self, seq: Sequencer, stream: InstructionStream,
               op: MachineOp) -> None:
        """Decompose an op's functional cost, price it through the
        timing model, and schedule its completion (to
        :meth:`_poll_done`, for an IdlePoll)."""
        cap = self._cap
        base: int
        walks = 0
        access = 0
        action: Optional[tuple] = None
        # exact-type dispatch, commonest first: the op classes are
        # final (nothing subclasses them)
        kind = type(op)
        if kind is Compute:
            base = op.cycles
        elif kind is AtomicOp:
            base = op.cycles or self.params.atomic_op_cost
            if op.vaddr is not None:   # a lock word in shared memory
                walks, access, action = self._classify_access(
                    seq, op.vaddr, True)
        elif kind is Touch:
            base = op.cycles
            walks, access, action = self._classify_access(
                seq, op.region.vpn(op.page_index) * PAGE_SIZE, op.write,
                span=PAGE_SIZE)
        elif kind is MemAccess:
            base = op.cycles
            walks, access, action = self._classify_access(
                seq, op.vaddr, op.write)
        elif kind is SyscallOp:
            base, action = 0, ("syscall", op)
        elif kind is SignalShred:
            base, action = self._signal(seq), ("signal", op)
        elif kind is IdlePoll:
            base = op.cycles
        else:
            raise SimulationError(f"unknown machine op {op!r}")
        fetch = 0
        if stream.models_fetch:
            stream.sequencer = seq  # bind for commit-time translation
            # instruction fetch goes through the same hierarchy (a
            # fault retry refetches, like the re-executed instruction)
            fetch_addr = stream.fetch_addr(self.hierarchy)
            fetch = self.hierarchy.access(seq.seq_id, fetch_addr)
            if cap is not None:
                cap.acc_addrs.append(fetch_addr)
                cap.acc_spans.append(2)        # one line, a read
        cost = self._charge(seq, op, base, walks, access, fetch)
        seq.busy = True
        seq.busy_cycles += cost
        if kind is IdlePoll:
            seqno = self.engine.schedule(cost, self._poll_done, seq, stream,
                                         op)
        else:
            seqno = self.engine.schedule(cost, self._complete, seq, stream,
                                         op, action)
        if cap is not None:
            terms = ISSUE_WALK if walks else 0
            if kind is AtomicOp:
                if not op.cycles:
                    terms += ISSUE_ATOMIC
            elif kind is SignalShred:
                terms = ISSUE_SIGNAL
            self._annotate_issue(cap, seq, seqno, terms, access + fetch)

    def _annotate_issue(self, cap: TraceCapture, seq: Sequencer, seqno: int,
                        terms: int, cost: int) -> None:
        """Annotate the op issue just scheduled as event ``seqno``: its
        pattern (the sequencer it keeps busy and its ``ISSUE_*``
        coefficient terms), and the access records it made, closed into
        one access event with the hierarchy ``cost`` they charged."""
        cap.patterns[-1] = cap.issue_patterns[seq.seq_id][terms]
        records = len(cap.acc_addrs)
        if records != cap.acc_ends[-1]:
            cap.acc_events.append(seqno)
            cap.acc_ends.append(records)
            cap.acc_costs.append(cost)
            cap.acc_l1_misses.append(cap.l1s[seq.seq_id].misses)
            cap.acc_mem.append(self.hierarchy.mem_accesses)

    def _classify_access(self, seq: Sequencer, vaddr: int, write: bool,
                         span: int = 1) -> tuple[int, int, Optional[tuple]]:
        """Translate one data access; returns its functional cost
        components ``(page_walks, hierarchy_cycles, action)``.

        ``span`` is the bytes the op references from ``vaddr`` (a page
        Touch streams the whole page; word accesses reference one
        line).  A non-resident page returns a fault action and skips
        the hierarchy (the access re-executes after service).
        """
        process = seq.process_ref
        if process is None:
            raise SimulationError(
                f"sequencer {seq.seq_id} touched memory with no process")
        cap = self._cap
        vpn = vpn_of(vaddr)
        walks = 0
        tlb = seq.tlb
        frame = tlb.translations.get(vpn)
        if frame is not None:   # TLB.lookup's hit, inlined
            tlb.translations.move_to_end(vpn)
            tlb.hits += 1
        else:
            tlb.misses += 1
            walks = 1
            pte = process.address_space.page_table.lookup(vpn)
            if pte is None:
                return walks, 0, ("fault", vpn)
            tlb.insert(vpn, pte.frame)
            frame = pte.frame
        paddr = frame * PAGE_SIZE + vaddr % PAGE_SIZE
        hierarchy = self.hierarchy
        if span == 1:   # a word access: one line, no range walk
            access = hierarchy.access_line(
                seq.seq_id, paddr // hierarchy.line_size, write)
        else:
            access = hierarchy.access_range(seq.seq_id, paddr, span, write)
        if cap is not None:
            cap.acc_addrs.append(paddr)
            cap.acc_spans.append(span * 2 + write)
        return walks, access, None

    def _complete(self, seq: Sequencer, stream: InstructionStream,
                  op: MachineOp, action: Optional[tuple]) -> None:
        seq.busy = False
        if stream.killed:
            # the owning process exited; drop the in-flight operation
            seq.ops_dropped += 1
            return
        seq.ops_executed += 1
        if action is None:
            if type(stream) is DirectStream:
                # complete(None), inlined
                stream.pending = stream.send_value = None
            else:
                stream.complete(None)
            if seq.stream is not stream:
                return
            if (seq.suspend_depth or seq.proxy_wait
                    or (seq.is_oms and self._pending[seq.processor.proc_id])):
                self._advance(seq)
                return
            # the common case, _advance inlined: fetch and issue
            op = stream.next_op()
            if op is None:
                self._stream_finished(seq)
            else:
                self._issue(seq, stream, op)
            return
        kind = action[0]
        if kind == "fault":
            self._on_fault(seq, stream, action[1])
        elif kind == "syscall":
            self._on_syscall(seq, stream, action[1])
        elif kind == "signal":
            self._on_signal(seq, stream, action[1])
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown action {kind}")

    # ------------------------------------------------------------------
    # Quiet polls (idle gang schedulers)
    # ------------------------------------------------------------------
    def _poll_done(self, seq: Sequencer, stream: InstructionStream,
                   poll: IdlePoll) -> None:
        """An idle gang scheduler's backoff completed.

        On a quiet scheduler, issue the lock RMW its loop yields next
        in place, with the TLB hit, ``access_line`` call, ``charge``,
        counters and capture row the full path would make, and send
        its completion to :meth:`_lock_done`.  A killed or swapped
        stream, a suspension, a proxy wait, pending OMS work, or no
        process or a TLB miss on the lock word runs the full
        completion instead.
        """
        if (stream.killed or seq.stream is not stream or seq.suspend_depth
                or seq.proxy_wait
                or (seq.is_oms and self._pending[seq.processor.proc_id])):
            self._complete(seq, stream, poll, None)
            return
        lock = poll.runtime.lock_op
        cap = self._cap
        access = 0
        if lock.vaddr is not None:
            # _classify_access, on a TLB hit only (a walk, or a fault,
            # runs in full)
            vpn, offset = divmod(lock.vaddr, PAGE_SIZE)
            tlb = seq.tlb
            frame = tlb.translations.get(vpn)
            if frame is None or seq.process_ref is None:
                self._complete(seq, stream, poll, None)
                return
            tlb.translations.move_to_end(vpn)
            tlb.hits += 1
            hierarchy = self.hierarchy
            paddr = frame * PAGE_SIZE + offset
            access = hierarchy.access_line(
                seq.seq_id, paddr // hierarchy.line_size, True)
            if cap is not None:
                cap.acc_addrs.append(paddr)
                cap.acc_spans.append(3)        # one word, a write
        seq.ops_executed += 1
        cost = self._charge(
            seq, lock, lock.cycles or self.params.atomic_op_cost, 0, access,
            0)
        seq.busy_cycles += cost
        seqno = self.engine.schedule(cost, self._lock_done, seq, stream, lock,
                                     poll)
        if cap is not None:
            self._annotate_issue(cap, seq, seqno,
                                 0 if lock.cycles else ISSUE_ATOMIC, access)

    def _lock_done(self, seq: Sequencer, stream: InstructionStream,
                   lock: AtomicOp, poll: IdlePoll) -> None:
        """The lock RMW :meth:`_poll_done` issued completed.

        While the scheduler stays quiet and its work queue is empty
        and not shut down, count one poll and issue the same backoff
        in place, its completion sent back to :meth:`_poll_done`.
        Anything else brings the generator, which still has the
        backoff pending, to the lock RMW and runs the full completion.
        """
        rt = poll.runtime
        if (stream.killed or seq.stream is not stream or seq.suspend_depth
                or seq.proxy_wait
                or (seq.is_oms and self._pending[seq.processor.proc_id])
                or not rt.quiet):
            stream.complete(None)
            if stream.next_op() is not lock:
                raise SimulationError(
                    f"stream '{stream.label}' broke the idle-poll "
                    "contract: no lock RMW after the backoff")
            self._complete(seq, stream, lock, None)
            return
        seq.ops_executed += 1
        rt.note_poll()
        cost = self._charge(seq, poll, poll.cycles, 0, 0, 0)
        seq.busy_cycles += cost
        seqno = self.engine.schedule(cost, self._poll_done, seq, stream, poll)
        cap = self._cap
        if cap is not None:
            self._annotate_issue(cap, seq, seqno, 0, 0)

    def _stream_finished(self, seq: Sequencer) -> None:
        """A stream ran to completion on ``seq``."""
        if seq.is_oms:
            thread = seq.thread
            seq.stream = None
            seq.thread = None
            seq.process_ref = None
            if thread is not None:
                self.kernel.scheduler.preempt(seq.processor.proc_id,
                                              requeue=False)
                self.kernel.exit_thread(thread, self.now)
                if thread.process.exited:
                    if self._cap is not None:
                        self._cap.mark("pexit", thread.process.pid)
                    self._kill_process_shreds(thread.process)
            self._advance(seq)  # drain pending / pick next thread
        else:
            # AMS shred (gang scheduler) finished: the sequencer idles
            # until the next SIGNAL.
            seq.stream = None
            seq.process_ref = None
            self.trace.instant(self.now, seq.seq_id, EventKind.SHRED_END)

    def _kill_process_shreds(self, process: Process) -> None:
        """Tear down shreds orphaned by their process's exit.

        A correct multi-shredded program joins its shreds before the
        OS thread returns (ShredLib's gang schedulers guarantee this);
        raw ISA programs may exit early, in which case the OS reclaims
        the whole process and the AMS contexts with it.
        """
        for seq in self.sequencers:
            if seq.process_ref is process and not seq.is_oms:
                if seq.stream is not None:
                    seq.stream.killed = True
                    seq.stream = None
                    self.trace.instant(self.now, seq.seq_id,
                                       EventKind.SHRED_END, detail="killed")
                seq.process_ref = None
                seq.proxy_wait = False

    # ------------------------------------------------------------------
    # Faults and syscalls
    # ------------------------------------------------------------------
    def _on_fault(self, seq: Sequencer, stream: InstructionStream,
                  vpn: int) -> None:
        if seq.role is SequencerRole.AMS:
            self._proxy_egress(seq, stream, ProxyKind.PAGE_FAULT, vpn=vpn)
            return
        self.trace.instant(self.now, seq.seq_id, EventKind.PAGE_FAULT)
        priv, priv_coefs, effect = self._page_fault_service(
            seq.process_ref.address_space, vpn)
        # the faulting op stays pending; _advance re-executes it
        self._ring0_service(seq, EventKind.PAGE_FAULT, priv,
                            priv_coefs=priv_coefs, effect=effect)

    def _on_syscall(self, seq: Sequencer, stream: InstructionStream,
                    op: SyscallOp) -> None:
        if seq.role is SequencerRole.AMS:
            self._proxy_egress(seq, stream, ProxyKind.SYSCALL,
                               service=op.kind, cost_override=op.cost)
            return
        self.trace.instant(self.now, seq.seq_id, EventKind.SYSCALL,
                           detail=op.kind)
        priv, priv_coefs, spec = self._syscall_service(op.kind, op.cost)
        block_for = op.arg if (spec.blocks and isinstance(op.arg, int)
                               and op.arg > 0) else 0

        def on_done() -> None:
            stream.complete(0)
            if block_for and seq.thread is not None:
                self._block_thread(seq, block_for)

        self._ring0_service(seq, EventKind.SYSCALL, priv,
                            priv_coefs=priv_coefs, on_done=on_done)

    def _page_fault_service(self, space: AddressSpace, vpn: int
                            ) -> tuple[int, tuple, Callable[[], None]]:
        """The cycles, ``priv_coefs`` and effect of servicing a page
        fault on ``vpn`` in ``space``, from the OMS or by proxy: a page
        already resident when the fault is serviced costs a quarter."""
        if not space.is_resident(vpn):
            priv = self.params.page_fault_service_cost
            priv_coefs = (("page_fault_service_cost", 1, 1),)
        else:
            priv = self.params.page_fault_service_cost // 4
            priv_coefs = (("page_fault_service_cost", 1, 4),)

        def effect() -> None:
            self.kernel.service_page_fault(space, vpn)

        return priv, priv_coefs, effect

    def _syscall_service(self, name: str, cost: Optional[int]
                         ) -> tuple[int, tuple, SyscallSpec]:
        """The cycles and ``priv_coefs`` of servicing syscall ``name``,
        from the OMS or by proxy, and its syscall-table entry."""
        priv, spec = self.kernel.service_syscall(name, cost)
        # priv traces back to params only when neither the op nor the
        # syscall table pinned an explicit cost
        priv_coefs = ((("syscall_service_cost", 1, 1),)
                      if cost is None and spec.cost is None else ())
        return priv, priv_coefs, spec

    # ------------------------------------------------------------------
    # Ring-transition serialization (Equation 1)
    # ------------------------------------------------------------------
    def _ring0_service(self, oms: Sequencer, kind: EventKind, priv: int,
                       pre_signals: int = 0,
                       priv_coefs: tuple = (),
                       effect: Optional[Callable[[], None]] = None,
                       on_done: Optional[Callable[[], None]] = None) -> None:
        """Run one privileged service with full MISP serialization.

        Timeline (Equation 1, plus Equation 3's leading signals as
        ``pre_signals`` for proxy services)::

            t0                : Ring 3 -> Ring 0
            +pre_signals*S+S  : all active AMSs suspended
            +priv             : kernel service complete (``effect`` applied)
            +S                : AMSs resumed, Ring 0 -> Ring 3

        ``S`` (the suspend/resume broadcast) is charged only when the
        processor has AMSs with shreds attached; a plain CPU or an OMS
        whose shred team is switched out pays only ``priv``.

        ``priv_coefs`` tells trace capture which MachineParams terms
        ``priv`` decomposes into (empty when the cost is pinned by the
        workload and so not re-priceable).
        """
        if oms.busy:
            raise SimulationError(f"{oms} entered Ring 0 while busy")
        t0 = self.now
        oms.enter_ring0()
        oms.busy = True
        self.trace.instant(t0, oms.seq_id, EventKind.RING_ENTER,
                           detail=kind.value)
        # only a syscall's cost can be pinned (empty priv_coefs)
        svc_class = (PARAM_CLASS.get(priv_coefs[0][0], "syscall_service")
                     if priv_coefs else "syscall_service")

        def stage_suspend() -> None:
            cap = self._cap
            active = oms.processor.active_amss()
            for ams in active:
                ams.suspend(self.now)
                self.trace.instant(self.now, ams.seq_id,
                                   EventKind.AMS_SUSPEND)
                if cap is not None:
                    cap.mark("sus", ams.seq_id)
            self._stage(oms, priv, priv_coefs, ((svc_class, priv),),
                        stage_service, active)

        def stage_service(active: list[Sequencer]) -> None:
            if effect is not None:
                effect()
            self._signal_stage(oms, 1 if active else 0, stage_resume, active)

        def stage_resume(active: list[Sequencer]) -> None:
            cap = self._cap
            oms.exit_ring0()
            oms.busy = False
            self.trace.record(t0, self.now, oms.seq_id, EventKind.RING_EXIT,
                              detail=kind.value)
            for ams in active:
                self.trace.instant(self.now, ams.seq_id,
                                   EventKind.AMS_RESUME)
                if cap is not None:
                    cap.mark("res", ams.seq_id)
                if ams.resume(self.now):
                    self._advance(ams)
            if on_done is not None:
                on_done()
            self._advance(oms)

        n_signals = pre_signals + (1 if oms.processor.active_amss() else 0)
        self._signal_stage(oms, n_signals, stage_suspend)

    # ------------------------------------------------------------------
    # Serialization stages (Equations 1-3, context switches)
    # ------------------------------------------------------------------
    def _signal(self, seq: Sequencer, count: int = 1) -> int:
        """Price ``count`` back-to-back signal broadcasts from ``seq``'s
        processor, counting them."""
        cycles = self.timing.signal_cycles(seq, count)
        self.signal_charges += count
        self.signal_cycles += cycles
        return cycles

    def _stage(self, seq: Sequencer, cycles: int, terms: tuple,
               parts: tuple, callback: Callable[..., None],
               *args: Any) -> None:
        """Schedule one serialization stage: ``callback(*args)`` after
        ``cycles`` that ``seq`` spends on it.

        The stage is recorded for both instruments: its MachineParams
        coefficient ``terms`` as the captured event's pattern, and its
        ``(stall class, cycles)`` ``parts`` in the stall account (a part
        of zero cycles is not noted).
        """
        stalls = self.stalls
        if stalls is not None:
            for klass, n in parts:
                if n:
                    stalls.note(seq.seq_id, klass, n)
        self.engine.schedule(cycles, callback, *args)
        cap = self._cap
        if cap is not None:
            cap.patterns[-1] = cap.pattern_id(terms, owner=seq.seq_id)

    def _signal_stage(self, seq: Sequencer, count: int,
                      callback: Callable[..., None], *args: Any) -> None:
        """A :meth:`_stage` of ``count`` signal broadcasts from ``seq``'s
        processor, its cycles split into classes by the timing model
        (``fixed``: all signal; ``scoreboard``: drain + refill)."""
        cycles = self._signal(seq, count)
        self._stage(seq, cycles, (("signal_cost", count, 1),) if count else (),
                    self.timing.split_signal(cycles), callback, *args)

    # ------------------------------------------------------------------
    # Proxy execution (Equations 2 and 3)
    # ------------------------------------------------------------------
    def _proxy_egress(self, ams: Sequencer, stream: InstructionStream,
                      kind: ProxyKind,
                      vpn: Optional[int] = None,
                      service: Optional[str] = None,
                      cost_override: Optional[int] = None) -> None:
        """AMS side: relay a fault-type exception to the OMS."""
        ams.proxy_wait = True
        event = (EventKind.PAGE_FAULT if kind is ProxyKind.PAGE_FAULT
                 else EventKind.SYSCALL)
        self.trace.instant(self.now, ams.seq_id, event)
        self.trace.instant(self.now, ams.seq_id, EventKind.PROXY_REQUEST)
        request = ProxyRequest(ams=ams, kind=kind, stream=stream,
                               process=ams.process_ref, vpn=vpn,
                               service=service, cost_override=cost_override,
                               raised_at=self.now)
        if self._cap is not None:
            request.cap_id = self._cap.proxy_raised()
        # Equation 2, first signal: notify the OMS
        self._signal_stage(ams, 1, self._proxy_arrive, ams.processor, request)

    def _proxy_arrive(self, proc: MISPProcessor, request: ProxyRequest) -> None:
        pending = self._pending[proc.proc_id]
        pending.append(("proxy", request))
        # the requests waiting for the OMS, this one included
        depth = sum(1 for item in pending if item[0] == "proxy")
        self.proxy_stats.note_request(request, depth)
        self._advance(proc.oms)

    def _service_proxy(self, oms: Sequencer, request: ProxyRequest) -> None:
        """OMS side: impersonate the AMS and re-execute under Ring 0."""
        self.trace.instant(self.now, oms.seq_id, EventKind.PROXY_BEGIN)
        if request.kind is ProxyKind.PAGE_FAULT:
            priv, priv_coefs, effect = self._page_fault_service(
                request.process.address_space, request.vpn)
        else:
            priv, priv_coefs, _ = self._syscall_service(
                request.service, request.cost_override)
            request.result = 0
            effect = None

        def on_done() -> None:
            self._proxy_done(request)

        # Equation 3: pre_signals = the leading `signal` (state swap /
        # impersonation), then the full Equation-1 serialization.
        self._ring0_service(oms, EventKind.PROXY_BEGIN, priv,
                            pre_signals=1, priv_coefs=priv_coefs,
                            effect=effect, on_done=on_done)

    def _proxy_done(self, request: ProxyRequest) -> None:
        self.proxy_stats.note_complete(request, self.now)
        if self._cap is not None:
            self._cap.mark("pdone", request.cap_id)
        ams = request.ams
        stream = request.stream
        self.trace.instant(self.now, ams.seq_id, EventKind.PROXY_END)
        if request.kind is ProxyKind.SYSCALL:
            # the OMS executed the call on the shred's behalf; commit it
            stream.complete(request.result)
        # else: page fault -- the op stays pending and re-executes.
        if ams.stream is stream:
            ams.proxy_wait = False
            self._advance(ams)
        # If the shred team was frozen meanwhile, the retried op simply
        # finds the page resident after thaw; proxy_wait was cleared by
        # the freeze path.

    # ------------------------------------------------------------------
    # SIGNAL (Section 2.4)
    # ------------------------------------------------------------------
    def _on_signal(self, seq: Sequencer, stream: InstructionStream,
                   op: SignalShred) -> None:
        proc = seq.processor
        target = proc.by_sid(op.sid)
        if target is seq:
            raise ConfigurationError("SIGNAL to self is meaningless")
        self.trace.instant(self.now, seq.seq_id, EventKind.SIGNAL_SENT)
        if target.stream is not None and not target.stream.finished:
            # ingress signal to a busy sequencer: asynchronous control
            # transfer through a registered YIELD-CONDITIONAL handler
            deliver = getattr(target.stream, "deliver_signal", None)
            if deliver is None or not deliver(seq.sid, op):
                raise ConfigurationError(
                    f"SIGNAL to busy sequencer sid={op.sid} with no "
                    "YIELD-CONDITIONAL handler registered")
            self.trace.instant(self.now, target.seq_id,
                               EventKind.YIELD_EVENT)
        else:
            label = op.label or f"shred@sid{op.sid}"
            target.stream = (op.continuation
                             if isinstance(op.continuation, InstructionStream)
                             else DirectStream(op.continuation, label=label))
            target.process_ref = seq.process_ref
            target.proxy_wait = False
            self.trace.instant(self.now, target.seq_id,
                               EventKind.SHRED_START)
        self.trace.instant(self.now, target.seq_id,
                           EventKind.SIGNAL_RECEIVED)
        stream.complete(None)
        self._advance(target)
        if seq.stream is stream:
            self._advance(seq)

    # ------------------------------------------------------------------
    # Context switching (shred-oblivious kernel scheduler)
    # ------------------------------------------------------------------
    def _context_switch(self, cpu: int) -> None:
        """Switch the CPU to its next ready thread (if any)."""
        proc = self.processors[cpu]
        oms = proc.oms
        if oms.busy:
            raise SimulationError(f"context switch on busy {oms}")
        old = self.kernel.scheduler.preempt(cpu, requeue=True)
        n_save = 0
        if old is not None:
            old.context_switches += 1
            self.timing.end_quantum(oms)
            oms.stream = None
            oms.thread = None
            oms.process_ref = None
            if old.is_shredded:
                self._freeze_team(old, proc)
                n_save += 1
            self.trace.instant(self.now, oms.seq_id,
                               EventKind.CONTEXT_SWITCH, detail="out")
        new = self.kernel.scheduler.pick_next(cpu)
        if new is None:
            return
        if new.start_time is None:
            new.start_time = self.now
        if old is None:
            self.trace.instant(self.now, oms.seq_id,
                               EventKind.CONTEXT_SWITCH, detail="in")
        if new.is_shredded:
            n_save += 1
        oms.busy = True
        # one switch, out or in, and a team state save per shredded
        # thread switched out or in
        switch = self.params.context_switch_cost
        save = n_save * self.params.sequencer_state_save_cost
        terms: tuple = (("context_switch_cost", 1, 1),)
        if n_save:
            terms += (("sequencer_state_save_cost", n_save, 1),)
        self._stage(oms, switch + save, terms,
                    (("context_switch", switch), ("state_save", save)),
                    self._finish_switch_in, cpu, new)

    def _finish_switch_in(self, cpu: int, thread: OSThread) -> None:
        proc = self.processors[cpu]
        oms = proc.oms
        oms.busy = False
        oms.thread = thread
        oms.stream = thread.stream
        oms.process_ref = thread.process
        oms.tlb.flush()  # new CR3
        self.timing.begin_quantum(oms)
        if thread.is_shredded and thread.ams_save_area:
            self._thaw_team(thread, proc)
        self._advance(oms)

    def _freeze_team(self, thread: OSThread, proc: MISPProcessor) -> None:
        """Save AMS shred state to the thread's aggregate save area."""
        saved: list[tuple[int, Any]] = []
        for ams in proc.amss:
            if ams.stream is not None and not ams.stream.finished:
                saved.append((ams.sid, ams.stream))
                ams.stream = None
                ams.process_ref = None
                # A shred mid-proxy re-faults after thaw; see _proxy_done.
                ams.proxy_wait = False
        thread.ams_save_area = saved

    def _thaw_team(self, thread: OSThread, proc: MISPProcessor) -> None:
        """Restore saved AMS shred state onto this processor's AMSs."""
        for sid, stream in thread.ams_save_area:
            ams = proc.by_sid(sid)
            if ams.stream is not None:
                raise ConfigurationError(
                    f"thaw of thread '{thread.name}' found AMS sid={sid} "
                    "occupied; multi-shredded threads must be pinned to "
                    "their home MISP processor")
            ams.stream = stream
            ams.process_ref = thread.process
            ams.tlb.flush()  # CR3 synchronized on restore (Section 2.3)
            self._advance(ams)
        thread.ams_save_area = []

    # ------------------------------------------------------------------
    # Blocking system calls (OS-level thread sleep)
    # ------------------------------------------------------------------
    def _block_thread(self, oms: Sequencer, duration: int) -> None:
        """Put the OMS's current thread to sleep in the kernel.

        A sleeping multi-shredded thread has its AMS state frozen into
        the aggregate save area, idling the AMSs for the whole sleep --
        the behaviour that made the naive Open Dynamics Engine port
        inefficient (Section 5.5).
        """
        thread = oms.thread
        cpu = oms.processor.proc_id
        self.kernel.scheduler.preempt(cpu, requeue=False)
        thread.state = ThreadState.BLOCKED
        thread.context_switches += 1
        self.timing.end_quantum(oms)
        oms.stream = None
        oms.thread = None
        oms.process_ref = None
        if thread.is_shredded:
            self._freeze_team(thread, oms.processor)
        self.trace.instant(self.now, oms.seq_id, EventKind.CONTEXT_SWITCH,
                           detail="block")
        self.engine.schedule(duration, self._wake_thread, thread)
        self._advance(oms)

    def _wake_thread(self, thread: OSThread) -> None:
        if thread.state is not ThreadState.BLOCKED:
            return
        cpu = self.kernel.scheduler.enqueue(thread, thread.pinned_cpu)
        oms = self.processors[cpu].oms
        if oms.thread is None:
            self._kick_cpu(cpu)
        else:
            # wakeup boost: preempt the running thread at the next
            # operation boundary rather than waiting out its quantum
            self._pending[cpu].append(("resched",))
            self._advance(oms)

    # ------------------------------------------------------------------
    # Pending OMS work (interrupts + proxy requests)
    # ------------------------------------------------------------------
    def _take_pending(self, oms: Sequencer) -> None:
        item = self._pending[oms.processor.proc_id].popleft()
        tag = item[0]
        if tag == "timer":
            self.trace.instant(self.now, oms.seq_id, EventKind.TIMER)

            def on_done() -> None:
                cpu = oms.processor.proc_id
                if self.kernel.scheduler.should_preempt(cpu):
                    self._context_switch(cpu)
                elif oms.thread is None:
                    self._kick_cpu(cpu)

            self._ring0_service(oms, EventKind.TIMER,
                                self.params.timer_service_cost,
                                priv_coefs=(("timer_service_cost", 1, 1),),
                                on_done=on_done)
        elif tag == "device":
            self.trace.instant(self.now, oms.seq_id, EventKind.INTERRUPT)
            self._ring0_service(
                oms, EventKind.INTERRUPT,
                self.params.interrupt_service_cost,
                priv_coefs=(("interrupt_service_cost", 1, 1),))
        elif tag == "proxy":
            self._service_proxy(oms, item[1])
        elif tag == "resched":
            cpu = oms.processor.proc_id
            if self.kernel.scheduler.should_preempt(cpu):
                self._context_switch(cpu)
            else:
                self._advance(oms)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown pending item {tag}")
