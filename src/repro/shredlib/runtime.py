"""The ShredLib runtime core: shared work queue and the shred pump.

ShredLib (Section 4.2) is the user-level runtime that implements the
shared-memory multi-shredded programming model on top of the raw MISP
ISA.  Its heart is the M:N gang scheduler of Figure 3: a
mutex-protected shared work queue of shred continuations, drained
concurrently by scheduler loops running on every sequencer.

:class:`ShredRuntime` is the process-wide shared state (it lives in
the application's address space; all sequencers see it because MISP
preserves one virtual address space).  The *costs* of operating on it
-- atomic operations, queue manipulation, user-level context switches
-- are charged through the machine ops the scheduler generators yield.

The pump :meth:`ShredRuntime.run_shred` is the direct-execution
analogue of ShredLib's light-weight context switch: it forwards a
shred's machine ops to the sequencer and intercepts the scheduler
sentinels (:class:`~repro.exec.ops.Block`,
:class:`~repro.exec.ops.YieldShred`, :class:`~repro.exec.ops.ExitShred`).
Everything a shred does between two machine ops is atomic in simulated
time, which is what makes the sync primitives in
:mod:`repro.shredlib.sync` race-free without real locks.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Iterator, Optional

from repro.errors import ShredLibError
from repro.exec.ops import (
    AtomicOp, Block, Compute, ExitShred, MachineOp, Op, YieldShred,
)
from repro.params import MachineParams
from repro.shredlib.log import ShredEvent, ShredLog
from repro.shredlib.shred import Shred, ShredState


class QueuePolicy(enum.Enum):
    """Work-queue ordering policies (Section 4.2: "several different
    shred scheduling algorithms ... can be customized")."""

    FIFO = "fifo"
    LIFO = "lifo"


class ShredRuntime:
    """Process-wide ShredLib state shared by all gang schedulers."""

    def __init__(self, params: MachineParams,
                 policy: QueuePolicy = QueuePolicy.FIFO,
                 name: str = "app") -> None:
        self.params = params
        self.policy = policy
        self.name = name
        self.queue: deque[Shred] = deque()
        #: set when the main shred finishes; idle gang schedulers exit
        self.shutdown = False
        self.log = ShredLog()
        self.main_shred: Optional[Shred] = None
        self._next_id = 0
        # -- shared-memory placement (set by attach_shared) ----------------
        #: base vaddr of the runtime's shared page(s); None means the
        #: runtime is not placed (hand-built machines) and lock ops
        #: degrade to flat-cost atomics
        self.shared_vaddr: Optional[int] = None
        self._shared_lines = 0
        self._next_line = 0
        # -- prebuilt machine ops ------------------------------------------
        # The scheduler and API yield these on every queue operation;
        # they are fixed for the runtime's life, so they are built once
        # (ops are frozen, and no consumer keys on op identity).
        # Yielders read them off the runtime at yield time, so a
        # scheduler built before attach_shared still takes the placed
        # lock op.
        #: the work-queue lock RMW (flat-cost until attach_shared)
        self.lock_op = AtomicOp()
        #: queue manipulation (Shred_create's push)
        self.queue_op = Compute(params.queue_op_cost)
        #: dequeue + unlock + light-weight switch into a shred
        self.switch_in_op = Compute(params.queue_op_cost
                                    + params.shred_switch_cost)
        #: light-weight switch back out of a shred
        self.switch_out_op = Compute(params.shred_switch_cost)
        #: PAUSE-loop backoff on an empty queue
        self.idle_poll_op = Compute(params.idle_poll_cost)
        # -- counters ------------------------------------------------------
        self.created = 0
        self.finished = 0
        self.active = 0

    # ------------------------------------------------------------------
    # Shared-memory placement
    # ------------------------------------------------------------------
    def attach_shared(self, base_vaddr: int, num_bytes: int) -> None:
        """Place the runtime's shared state at ``base_vaddr``.

        Line 0 holds the work-queue lock; :meth:`sync_line` hands the
        remaining cache lines to sync objects, so their atomic RMWs
        are real writes through the cache hierarchy (lock ping-pong is
        then cheap behind a shared L2 and expensive across private
        ones).  Wrap-around beyond the reserved bytes models false
        sharing rather than failing.
        """
        self.shared_vaddr = base_vaddr
        self.lock_op = AtomicOp(vaddr=base_vaddr)
        line = self.params.cache_line_size
        self._shared_lines = max(2, num_bytes // line)
        self._next_line = 1

    def sync_line(self) -> Optional[int]:
        """Allocate a cache line for one sync object (None if unplaced)."""
        if self.shared_vaddr is None:
            return None
        line = 1 + (self._next_line - 1) % (self._shared_lines - 1)
        self._next_line += 1
        return self.shared_vaddr + line * self.params.cache_line_size

    # ------------------------------------------------------------------
    # Shred lifecycle
    # ------------------------------------------------------------------
    def new_shred(self, gen: Optional[Iterator], name: str = "") -> Shred:
        shred = Shred(self._next_id, gen, name)
        self._next_id += 1
        self.created += 1
        self.active += 1
        self.log.note(ShredEvent.CREATED)
        return shred

    def set_main(self, shred: Shred) -> None:
        self.main_shred = shred

    def finish_shred(self, shred: Shred) -> None:
        """Retire a shred and wake everything joined on it."""
        if shred.done:
            raise ShredLibError(f"{shred} finished twice")
        shred.state = ShredState.DONE
        self.finished += 1
        self.active -= 1
        self.log.note(ShredEvent.FINISHED)
        for joiner in shred.joiners:
            self.make_ready(joiner)
        shred.joiners.clear()
        if shred is self.main_shred:
            # main returning ends the multi-shredded phase; gang
            # schedulers drain the queue and exit
            self.shutdown = True

    # ------------------------------------------------------------------
    # Work queue (callers charge the lock/queue costs via ops)
    # ------------------------------------------------------------------
    def push(self, shred: Shred) -> None:
        if shred.done:
            raise ShredLibError(f"cannot enqueue finished {shred}")
        shred.state = ShredState.READY
        self.queue.append(shred)
        self.log.note(ShredEvent.QUEUE_PUSH)
        self.log.note_queue_depth(len(self.queue))

    def pop(self, worker_id: Optional[int] = None) -> Optional[Shred]:
        """Pop the next shred runnable by ``worker_id``.

        Shreds with an affinity are skipped by other workers; the scan
        preserves the policy order for eligible shreds.
        """
        if not self.queue:
            return None
        order = (range(len(self.queue)) if self.policy is QueuePolicy.FIFO
                 else range(len(self.queue) - 1, -1, -1))
        for index in order:
            shred = self.queue[index]
            if (worker_id is None or shred.affinity is None
                    or shred.affinity == worker_id):
                del self.queue[index]
                self.log.note(ShredEvent.QUEUE_POP)
                return shred
        return None

    def make_ready(self, shred: Shred) -> None:
        """Wake a blocked shred: put it back in the work queue."""
        if shred.state is not ShredState.BLOCKED:
            raise ShredLibError(f"waking {shred} which is not blocked")
        self.log.note(ShredEvent.WOKEN)
        self.push(shred)

    @property
    def queue_empty(self) -> bool:
        return not self.queue

    @property
    def all_work_done(self) -> bool:
        return self.shutdown and not self.queue

    # ------------------------------------------------------------------
    # The pump: run one shred until it blocks, yields, or finishes
    # ------------------------------------------------------------------
    def run_shred(self, shred: Shred, worker_id: int) -> Iterator[Op]:
        """Generator forwarding machine ops; returns a status string.

        Statuses: ``"done"``, ``"blocked"``, ``"yielded"``.
        """
        if shred.gen is None:
            raise ShredLibError(f"{shred} has no body")
        shred.state = ShredState.RUNNING
        shred.times_scheduled += 1
        shred.last_worker = worker_id
        self.log.note(ShredEvent.SCHEDULED)
        gen = shred.gen
        send_value: Any = None
        first = not getattr(shred, "_started", False)
        while True:
            try:
                if first:
                    shred._started = True  # type: ignore[attr-defined]
                    first = False
                    op = next(gen)
                else:
                    op = gen.send(send_value)
            except StopIteration as stop:
                shred.result = stop.value
                self.finish_shred(shred)
                return "done"
            if isinstance(op, MachineOp):      # the common case
                send_value = yield op
                continue
            if isinstance(op, Block):
                op.waiters.append(shred)
                shred.state = ShredState.BLOCKED
                shred.times_blocked += 1
                self.log.note(ShredEvent.BLOCKED)
                if op.reason:
                    self.log.note_contention(op.reason)
                return "blocked"
            if isinstance(op, YieldShred):
                shred.times_yielded += 1
                self.log.note(ShredEvent.YIELDED)
                self.push(shred)
                return "yielded"
            if isinstance(op, ExitShred):
                gen.close()
                shred.result = None
                self.finish_shred(shred)
                return "done"
            raise ShredLibError(f"{shred} yielded unknown op {op!r}")
