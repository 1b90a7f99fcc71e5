"""Discrete-event simulation engine.

The machine model in :mod:`repro.core` is built on this engine (the
SMP baseline is the same machine with plain CPUs).  It is a classic
calendar queue: callbacks are scheduled at absolute cycle times and
executed in time order, with a monotonically increasing sequence
number breaking ties so execution is fully deterministic.

A scheduled callback is one plain heap entry, the tuple
``(time, seqno, callback, args)``; :meth:`Engine.schedule` returns
its seqno.  Seqnos are unique, so every sift comparison inside
``heapq`` is a C-level tuple compare that settles on ``(time,
seqno)`` and never reaches the callback -- the engine's hottest path
builds no object beyond the entry itself.  Nothing is ever taken out
of the queue except by running it, so every scheduled event has either
run or is still queued: that is all the bookkeeping the run loop
needs.

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
import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Engine:
    """Deterministic discrete-event simulator with an integer clock."""

    def __init__(self) -> None:
        self._now = 0
        #: heap of (time, seqno, callback, args) entries
        self._heap: list[tuple] = []
        self._next_seqno = 0
        self._running = False
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
        """Number of callbacks run so far, the executing one included
        (for instrumentation): every scheduled event has run or is
        still queued, so this is ``events_scheduled - pending()``."""
        return self._next_seqno - len(self._heap)

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
                 *args: Any) -> int:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current cycle.  Returns the
        event's seqno.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seqno = self._next_seqno
        self._next_seqno = seqno + 1
        heapq.heappush(self._heap, (self._now + delay, seqno, callback, args))
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
        return seqno

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or ``until`` cycles pass.

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
        heap = self._heap
        pop = heapq.heappop
        bound = until if until is not None else math.inf
        try:
            while heap:
                if heap[0][0] > bound:
                    self._now = until
                    break
                time, seqno, callback, args = pop(heap)
                if time < self._now:
                    raise SimulationError(
                        f"time went backwards: event at {time}, now {self._now}")
                self._now = time
                self._current_seqno = seqno
                callback(*args)
        finally:
            self._running = False
            self._current_seqno = -1
        return self._now

    def pending(self) -> int:
        """Number of events still queued, in O(1)."""
        return len(self._heap)

    def queued(self, callback: Callable[..., None]) -> int:
        """Queued events that will call ``callback`` (a heap scan, for
        end-of-run accounting rather than the hot path)."""
        return sum(1 for entry in self._heap if entry[2] == callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine now={self._now} pending={self.pending()}>"
