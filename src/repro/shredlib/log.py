"""ShredLib's runtime event log (Section 4.2).

"ShredLib also provides a detailed event logging system that can
profile relevant scheduling activities, such as inter-shred
dependencies and contention on common synchronization objects.  This
event logging system is complementary to that provided by the
prototype MISP processor's custom firmware."

The firmware-side log is :class:`repro.sim.trace.TraceLog`; this class
covers the runtime side: shred lifecycle, queue activity, and sync
contention.

Every count is a plain ``collections.Counter``, so a run writes
nothing outside its own log.  An observed run calls
:meth:`attach_clock` to timestamp contention for timeline export, and
:meth:`repro.obs.observe.ObservedRun.finish` publishes the totals into
the metrics registry under its correlation id.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional


class ShredEvent(enum.Enum):
    CREATED = "created"
    SCHEDULED = "scheduled"
    BLOCKED = "blocked"
    WOKEN = "woken"
    YIELDED = "yielded"
    FINISHED = "finished"
    QUEUE_PUSH = "queue_push"
    QUEUE_POP = "queue_pop"
    QUEUE_EMPTY_POLL = "queue_empty_poll"

    # identity hash, in C: ShredLog.note hashes one member per counted
    # event, and Enum's own hash is a Python call.  Members are
    # singletons compared by identity; only set order could show the
    # per-process hash values, and the counters are dicts.
    __hash__ = object.__hash__


@dataclass
class ShredLog:
    """Counters plus per-object contention attribution."""

    _events: Counter = field(default_factory=Counter)
    #: maximum work-queue depth observed
    max_queue_depth: int = 0
    #: contended acquires per sync-object name
    _contended: Counter = field(default_factory=Counter, repr=False)
    #: simulation clock (anything with ``.now``); None = no timestamps
    _clock: Optional[Any] = field(default=None, repr=False)
    #: timestamped contention records ``(cycle, object_name)``,
    #: collected only while a clock is attached
    _records: list = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------
    def attach_clock(self, clock: Any) -> None:
        """Timestamp contention against ``clock.now`` (an
        :class:`~repro.sim.engine.Engine`) from here on."""
        self._clock = clock

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note(self, event: ShredEvent, n: int = 1) -> None:
        self._events[event] += n

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def note_contention(self, object_name: str) -> None:
        self._contended[object_name] += 1
        clock = self._clock
        if clock is not None:
            self._records.append((clock.now, object_name))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, event: ShredEvent) -> int:
        return self._events[event]

    def contention(self, object_name: Optional[str] = None) -> int:
        if object_name is None:
            return sum(self._contended.values())
        return self._contended[object_name]

    def contention_by_object(self) -> dict[str, int]:
        return dict(sorted(self._contended.items()))

    def contention_events(self) -> list[tuple[int, str]]:
        """Timestamped ``(cycle, object_name)`` contention records
        (empty unless a clock was attached -- observed runs only)."""
        return list(self._records)

    def summary(self) -> dict[str, int]:
        return {e.value: c for e, c in sorted(self._events.items(),
                                              key=lambda kv: kv[0].value)}
