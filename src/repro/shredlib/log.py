"""ShredLib's runtime event log (Section 4.2).

"ShredLib also provides a detailed event logging system that can
profile relevant scheduling activities, such as inter-shred
dependencies and contention on common synchronization objects.  This
event logging system is complementary to that provided by the
prototype MISP processor's custom firmware."

The firmware-side log is :class:`repro.sim.trace.TraceLog`; this class
covers the runtime side: shred lifecycle, queue activity, and sync
contention.

Contention counters are unified with the observability registry
(:mod:`repro.obs.metrics`): each sync-object name is one member of a
labeled counter family rather than the private ``collections.Counter``
this class historically kept.  By default the family lives in a
log-private registry (so an un-observed run writes nothing global);
an observed run calls :meth:`attach_metrics` to redirect the family
into the process-wide registry under its correlation id, and
:meth:`attach_clock` to timestamp contention for timeline export.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.metrics import Family, MetricsRegistry


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
    """Counters plus optional per-object contention attribution."""

    _events: Counter = field(default_factory=Counter)
    #: maximum work-queue depth observed
    max_queue_depth: int = 0
    #: registry counter family for contention; lazily a private one,
    #: or the process-wide family installed by :meth:`attach_metrics`
    _family: Optional[Family] = field(default=None, repr=False)
    _family_labels: dict = field(default_factory=dict, repr=False)
    #: per-object children of ``_family`` (one counter per sync object)
    _contended: dict = field(default_factory=dict, repr=False)
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

    def attach_metrics(self, family: Family, **labels: str) -> None:
        """Unify contention counters into ``family`` (plus fixed
        ``labels``, e.g. the observed run's correlation id).  Counts
        noted before attachment migrate into the new family."""
        self._family = family
        self._family_labels = dict(labels)
        for name, child in list(self._contended.items()):
            moved = family.labels(**labels, object=name)
            if child.value:
                moved.inc(child.value)
            self._contended[name] = moved

    def _contention_child(self, object_name: str):
        child = self._contended.get(object_name)
        if child is None:
            if self._family is None:
                # un-attached log: a private registry, so default runs
                # never touch the process-wide one
                self._family = MetricsRegistry().counter(
                    "repro_shredlib_contention_total",
                    "contended sync-object acquires", labels=("object",))
            child = self._family.labels(**self._family_labels,
                                        object=object_name)
            self._contended[object_name] = child
        return child

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note(self, event: ShredEvent, n: int = 1) -> None:
        self._events[event] += n

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def note_contention(self, object_name: str) -> None:
        self._contention_child(object_name).inc()
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
            return sum(child.value for child in self._contended.values())
        child = self._contended.get(object_name)
        return child.value if child is not None else 0

    def contention_by_object(self) -> dict[str, int]:
        return {name: child.value
                for name, child in sorted(self._contended.items())}

    def contention_events(self) -> list[tuple[int, str]]:
        """Timestamped ``(cycle, object_name)`` contention records
        (empty unless a clock was attached -- observed runs only)."""
        return list(self._records)

    def summary(self) -> dict[str, int]:
        return {e.value: c for e, c in sorted(self._events.items(),
                                              key=lambda kv: kv[0].value)}
