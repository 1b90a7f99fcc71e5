"""Event tracing, modelled on the prototype firmware's logging.

Section 4.1 of the paper describes two logging levels provided by the
custom firmware:

* **coarse-grained** -- total counts for the number and cause of ring
  transitions on each sequencer; and
* **fine-grained** -- time-stamped records with the start and end time
  of each event.

:class:`TraceLog` provides both.  The coarse counters are what the
Table 1 reproduction and the run metrics read; the fine-grained
records, kept only while observation turns them on, are the timeline
:mod:`repro.obs.perfetto` exports.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional


class EventKind(enum.Enum):
    """Categories of architecturally salient events.

    The first six match the columns of the paper's Table 1; the rest
    support finer attribution.
    """

    SYSCALL = "syscall"                  # trap to the OS (Table 1 "SysCall")
    PAGE_FAULT = "page_fault"            # Table 1 "PF"
    TIMER = "timer"                      # Table 1 "Timer"
    INTERRUPT = "interrupt"              # Table 1 "Interrupt" (uncategorized)
    SIGNAL_SENT = "signal_sent"          # SIGNAL instruction executed
    SIGNAL_RECEIVED = "signal_received"  # ingress signal accepted

    PROXY_REQUEST = "proxy_request"      # AMS relayed a fault to its OMS
    PROXY_BEGIN = "proxy_begin"          # OMS began impersonating an AMS
    PROXY_END = "proxy_end"              # OMS finished proxy execution
    RING_ENTER = "ring_enter"            # Ring 3 -> Ring 0 on an OMS/CPU
    RING_EXIT = "ring_exit"              # Ring 0 -> Ring 3
    AMS_SUSPEND = "ams_suspend"          # AMS paused for OMS Ring-0 entry
    AMS_RESUME = "ams_resume"            # AMS resumed after Ring-0 exit
    CONTEXT_SWITCH = "context_switch"    # OS thread switch on an OMS/CPU
    SHRED_START = "shred_start"          # a shred began running
    SHRED_END = "shred_end"              # a shred finished
    YIELD_EVENT = "yield_event"          # asynchronous control transfer

    # identity hash, in C: TraceLog.count hashes one member per counted
    # event, and Enum's own hash is a Python call.  Members are
    # singletons compared by identity; only set order could show the
    # per-process hash values, and the counters are dicts.
    __hash__ = object.__hash__


@dataclass
class TraceLog:
    """Coarse counters plus an optional fine-grained record list.

    Fine-grained recording can be disabled (``record_fine=False``) for
    long benchmark runs; the coarse counters are always maintained
    because the evaluation harness depends on them.
    """

    record_fine: bool = True
    _counts: Counter = field(default_factory=Counter)
    #: fine records as plain ``(start, end, sequencer, kind, detail)``
    #: tuples
    _records: list[tuple] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, sequencer: int, kind: EventKind, n: int = 1) -> None:
        """Bump the coarse counter for (sequencer, kind)."""
        self._counts[(sequencer, kind)] += n

    def record(self, start: int, end: int, sequencer: int,
               kind: EventKind, detail: str = "") -> None:
        """Record a fine-grained interval and bump the coarse counter."""
        self.count(sequencer, kind)
        if self.record_fine:
            self._records.append((start, end, sequencer, kind, detail))

    def instant(self, time: int, sequencer: int, kind: EventKind,
                detail: str = "") -> None:
        """Record a point event (zero-duration interval).

        With ``record_fine`` off this is exactly :meth:`count` plus one
        branch -- cheap enough for the machine's serializing-event
        paths to call unconditionally, which is what makes a timeline
        export possible the moment observation turns fine records on.
        """
        self.count(sequencer, kind)
        if self.record_fine:
            self._records.append((time, time, sequencer, kind, detail))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total(self, kind: EventKind,
              sequencers: Optional[Iterable[int]] = None) -> int:
        """Total count of ``kind`` across ``sequencers`` (default: all)."""
        if sequencers is None:
            return sum(c for (_, k), c in self._counts.items() if k == kind)
        wanted = set(sequencers)
        return sum(c for (s, k), c in self._counts.items()
                   if k == kind and s in wanted)

    def records(self) -> list[tuple]:
        """The fine-grained records, in recording order, as
        ``(start, end, sequencer, kind, detail)`` tuples."""
        return self._records

    def summary(self) -> dict[str, int]:
        """Aggregate counts keyed by kind name (all sequencers)."""
        out: dict[str, int] = {}
        for (_, kind), c in sorted(self._counts.items(),
                                   key=lambda kv: kv[0][1].value):
            out[kind.value] = out.get(kind.value, 0) + c
        return out
