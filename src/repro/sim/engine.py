"""Discrete-event simulation engine.

The machine model in :mod:`repro.core` is built on this engine (the
SMP baseline is the same machine with plain CPUs).  It is a classic
calendar queue: callbacks are scheduled at absolute cycle times and
executed in time order, with a monotonically increasing sequence
number breaking ties so execution is fully deterministic.

A scheduled callback is one plain heap entry, the list
``[time, seqno, callback, args, engine]``; :meth:`Engine.schedule`
returns it as the handle :meth:`Engine.cancel` takes.  Seqnos are
unique, so every sift comparison inside ``heapq`` is a C-level list
compare that settles on ``(time, seqno)`` and never reaches the
callback -- the engine's hottest path builds no object beyond the
entry itself.  Entries are marked in place: cancelling one drops its
callback (slot 2), and the run loop drops the engine (slot 4) from an
entry it pops to execute, so a later cancel of it is a no-op.

The engine knows nothing about sequencers, kernels, or memory -- those
layers schedule events against it.  It has one observation path: with
a :class:`~repro.sim.captrace.TraceCapture` attached, ``schedule``
also appends the new event's parent (the seqno of the event executing
at that moment) and delay to the capture's columns, with an empty
pattern for the machine to fill in.  That is how trace capture
reconstructs the run's event-dependency graph without touching the
machine's control flow, and without a call per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Engine:
    """Deterministic discrete-event simulator with an integer clock."""

    def __init__(self) -> None:
        self._now = 0
        #: heap of [time, seqno, callback, args, engine] entries;
        #: callback is None once cancelled (lazy deletion)
        self._heap: list[list] = []
        self._next_seqno = 0
        self._running = False
        self._executed = 0
        #: cancelled events still sitting in the heap (lazy deletion),
        #: maintained so pending() is O(1) instead of a heap scan
        self._cancelled_queued = 0
        #: trace capture (repro.sim.captrace.TraceCapture), if any
        self._capture: Optional[Any] = None
        #: seqno of the event currently executing (-1 outside run())
        self._current_seqno = -1

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for instrumentation)."""
        return self._executed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled (seqnos are dense from 0)."""
        return self._next_seqno

    @property
    def current_seqno(self) -> int:
        """Seqno of the executing event (-1 when not inside a callback)."""
        return self._current_seqno

    def set_capture(self, capture: Optional[Any]) -> None:
        """Attach (or with None, detach) a trace capture.

        A capture needs the event graph from its root, so it attaches
        only before the first event is scheduled: seqnos then index
        its columns.
        """
        if capture is not None and self._next_seqno:
            raise SimulationError(
                "trace capture attached mid-run: event seqnos must be "
                "dense from 0 (enable capture before staging)")
        self._capture = capture

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current cycle.  Returns the
        event's heap entry, the handle :meth:`cancel` takes.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seqno = self._next_seqno
        self._next_seqno = seqno + 1
        entry = [self._now + delay, seqno, callback, args, self]
        heapq.heappush(self._heap, entry)
        cap = self._capture
        if cap is not None:
            # the capture path: the event's row, its pattern empty
            # until the machine writes it
            parent = self._current_seqno
            if parent < 0:
                cap.root_now[seqno] = self._now
            cap.parents.append(parent)
            cap.delays.append(delay)
            cap.patterns.append(0)
        return entry

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args: Any) -> list:
        """Schedule ``callback(*args)`` at an absolute cycle time."""
        return self.schedule(time - self._now, callback, *args)

    @staticmethod
    def cancel(event: list) -> None:
        """Cancel a pending event (no-op if it already ran).

        ``event`` is the entry :meth:`schedule` returned.  Cancellation
        is lazy, but when cancelled events outnumber live ones the heap
        is compacted so a cancel-heavy workload cannot keep dead events
        resident (amortized O(1): a rebuild resets the count, so the
        next rebuild needs as many fresh cancels as there are live
        events).
        """
        engine = event[4]
        if engine is None or event[2] is None:
            return          # already ran, or already cancelled
        event[2] = None
        engine._cancelled_queued += 1
        if engine._cancelled_queued * 2 > len(engine._heap):
            engine._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events (order preserved
        by the (time, seqno) ordering invariant).  In place, because
        run() holds a local alias to the heap list."""
        self._heap[:] = [entry for entry in self._heap
                         if entry[2] is not None]
        heapq.heapify(self._heap)
        self._cancelled_queued = 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` cycles pass, or
        ``max_events`` callbacks execute.

        ``until`` may not lie before the current time: the clock never
        runs backwards.  Returns the simulation time when the loop
        stopped.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) would move the clock back from "
                f"{self._now}")
        self._running = True
        executed_this_run = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                callback = entry[2]
                if callback is None:
                    pop(heap)
                    self._cancelled_queued -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self._now = until
                    break
                if max_events is not None and executed_this_run >= max_events:
                    break
                pop(heap)
                entry[4] = None       # ran: cancel is now a no-op
                if time < self._now:
                    raise SimulationError(
                        f"time went backwards: event at {time}, now {self._now}")
                self._now = time
                self._current_seqno = entry[1]
                callback(*entry[3])
                self._executed += 1
                executed_this_run += 1
        finally:
            self._running = False
            self._current_seqno = -1
        return self._now

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued, in O(1)."""
        return len(self._heap) - self._cancelled_queued

    def queued(self, callback: Callable[..., None]) -> int:
        """Live queued events that will call ``callback`` (a heap scan,
        for end-of-run accounting rather than the hot path)."""
        return sum(1 for entry in self._heap if entry[2] == callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine now={self._now} pending={self.pending()}>"
