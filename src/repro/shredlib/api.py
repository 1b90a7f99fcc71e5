"""The public ShredLib API facade.

Application (workload) code is written against this class: shred
creation, joining, yielding, and factories for every synchronization
primitive.  All methods that do work are generators -- call them with
``yield from``::

    def app_main(api):
        workers = []
        for i in range(8):
            w = yield from api.create(worker(api, i), name=f"w{i}")
            workers.append(w)
        yield from api.join_all(workers)
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.exec.context import ExecContext
from repro.exec.ops import Block, ExitShred, Op, YieldShred
from repro.shredlib.runtime import ShredRuntime
from repro.shredlib.shred import Shred
from repro.shredlib.sync import (
    CriticalSection, ShredBarrier, ShredCondVar, ShredEventObject,
    ShredMutex, ShredRWLock, ShredSemaphore,
)


class ShredAPI:
    """Facade bundling the runtime, execution context, and factories."""

    def __init__(self, rt: ShredRuntime, ctx: ExecContext) -> None:
        self.rt = rt
        self.ctx = ctx

    # ------------------------------------------------------------------
    # Shred control
    # ------------------------------------------------------------------
    def create(self, body: Iterator[Op], name: str = "") -> Iterator[Op]:
        """Create a shred from a generator body; returns the Shred.

        The Shred_create of Figure 3: push a continuation onto the
        mutex-protected work queue.
        """
        rt = self.rt
        yield rt.lock_op
        yield rt.queue_op
        shred = rt.new_shred(body, name)
        rt.push(shred)
        return shred

    def create_fn(self, fn: Callable[..., Iterator[Op]], *args: Any,
                  name: str = "") -> Iterator[Op]:
        """Create a shred whose body receives its own Shred handle.

        ``fn(shred, *args)`` must return a generator.  Use this when
        the body needs identity-dependent services such as TLS.
        """
        rt = self.rt
        yield rt.lock_op
        yield rt.queue_op
        shred = rt.new_shred(None, name)
        shred.gen = fn(shred, *args)
        rt.push(shred)
        return shred

    def join(self, shred: Shred) -> Iterator[Op]:
        """Park until ``shred`` finishes; returns its result."""
        yield self.rt.lock_op
        if not shred.done:
            # the done check and the Block share one atomic segment,
            # so a finish racing with this join cannot be missed
            yield Block(shred.joiners, reason=f"join:{shred.name}")
        return shred.result

    def join_all(self, shreds: Sequence[Shred]) -> Iterator[Op]:
        results = []
        for shred in shreds:
            results.append((yield from self.join(shred)))
        return results

    def yield_(self) -> Iterator[Op]:
        """Voluntarily yield the sequencer (Section 3)."""
        yield YieldShred()

    def exit(self) -> Iterator[Op]:
        """Terminate the calling shred immediately."""
        yield ExitShred()

    # ------------------------------------------------------------------
    # Synchronization factories
    # ------------------------------------------------------------------
    def mutex(self, name: str = "mutex") -> ShredMutex:
        return ShredMutex(self.rt, name)

    def critical_section(self, name: str = "critsec",
                         spin_count: int = 4) -> CriticalSection:
        return CriticalSection(self.rt, name, spin_count)

    def condvar(self, name: str = "cond") -> ShredCondVar:
        return ShredCondVar(self.rt, name)

    def semaphore(self, initial: int = 0, name: str = "sem") -> ShredSemaphore:
        return ShredSemaphore(self.rt, initial, name)

    def event(self, manual_reset: bool = True,
              name: str = "event") -> ShredEventObject:
        return ShredEventObject(self.rt, manual_reset, name)

    def barrier(self, parties: int, name: str = "barrier") -> ShredBarrier:
        return ShredBarrier(self.rt, parties, name)

    def rwlock(self, name: str = "rwlock") -> ShredRWLock:
        return ShredRWLock(self.rt, name)
