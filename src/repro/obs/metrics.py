"""Process-wide metrics registry: collectors, read at export.

A stdlib-only, thread-safe :class:`MetricsRegistry` holds weak
references to *collectors*: objects whose ``collect()`` yields
``(name, kind, help, samples)`` from their own live state, where
``samples`` is an iterable of ``(labels, value)`` pairs.  Nothing is
pushed into the registry; it reads every collector only when an export
runs.  The service and its store register their :class:`Stats`; an
observed run registers itself when it finishes and derives every
simulator layer's totals (engine, machine/timing, memory hierarchy,
ShredLib) from the finished machine.  Two export formats:

* :meth:`MetricsRegistry.snapshot` -- a deterministic nested dict
  (stable ordering regardless of registration order), safe to
  ``json.dumps`` and to golden-file in tests;
* :meth:`MetricsRegistry.render_prometheus` -- Prometheus text
  exposition (``# HELP`` / ``# TYPE`` / escaped label values), the
  format a future multi-host service scrapes over the wire.

Samples that several collectors yield under one name and label set
add up, so unnamed services in one registry aggregate.  A collector
that is garbage-collected leaves the registry with it: dropping a
service drops its series.

Instrumented runs label their families with a correlation id from
:func:`new_run_id`, so one registry can hold many runs side by side.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Iterable, Optional, Union

__all__ = ["MetricsRegistry", "Stats", "get_registry", "new_run_id"]

_run_ids = itertools.count()


def new_run_id(prefix: str = "run") -> str:
    """A correlation id, ``<prefix>-<ordinal>`` (e.g. ``run-3``).

    The ordinal counts ids handed out in this process, so the same
    invocation names its runs the same way every time.
    """
    return f"{prefix}-{next(_run_ids)}"


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\``, ``"``, newline."""
    return (value.replace("\\", r"\\")
                 .replace('"', r'\"')
                 .replace("\n", r"\n"))


class MetricsRegistry:
    """A thread-safe weak set of collectors, read at export.

    :meth:`register` adds a collector; the registry keeps only a weak
    reference, so a collector leaves it when nothing else holds it.
    One metric name yielded under two kinds raises ``ValueError`` at
    export.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: "weakref.WeakSet" = weakref.WeakSet()

    def register(self, collector) -> None:
        """Read ``collector.collect()`` at every export while it lives."""
        with self._lock:
            self._collectors.add(collector)

    def _collect(self) -> list[tuple[str, str, str, list]]:
        """Every family, sorted by name: ``(name, kind, help,
        [(label pairs, value), ...])`` with samples sorted by label
        values and equal series summed."""
        with self._lock:
            collectors = list(self._collectors)
        families: dict[str, tuple[str, str, dict]] = {}
        for collector in collectors:
            for name, kind, help, samples in collector.collect():
                family = families.setdefault(name, (kind, help, {}))
                if family[0] != kind:
                    raise ValueError(f"metric '{name}' collected as both "
                                     f"{family[0]} and {kind}")
                series = family[2]
                for labels, value in samples:
                    key = tuple([(k, str(v)) for k, v in labels.items()])
                    series[key] = series.get(key, 0) + value
        return [(name, kind, help, sorted(series.items()))
                for name, (kind, help, series) in sorted(families.items())]

    def snapshot(self) -> dict:
        """Deterministic nested-dict export (sorted names and labels).

        The same metric state always renders the same dict, whatever
        order collectors registered in -- the property the
        snapshot-determinism tests pin down.
        """
        return {
            name: {"type": kind, "help": help,
                   "samples": [{"labels": dict(key), "value": value}
                               for key, value in samples]}
            for name, kind, help, samples in self._collect()
        }

    def render_prometheus(self) -> str:
        """Prometheus/OpenMetrics text exposition."""
        lines: list[str] = []
        for name, kind, help, samples in self._collect():
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for key, value in samples:
                lines.append(f"{name}{_render_labels(key)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(labels: Iterable[tuple[str, str]]) -> str:
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}" if inner else ""


#: the process-wide default registry every component registers into
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _GLOBAL


class Stats:
    """Counts of one component instance, collected as one family.

    A subclass names its counts in ``FIELDS`` and its family in
    ``NAME``, ``HELP`` and ``LABEL``, and declares ``__slots__ = ()``
    so that no other attribute can be assigned; each count is the sample
    ``NAME{LABEL=<instance>,event=<field>}``.  Reading ``stats.hits``
    returns the count, and ``stats.add(hits=1)`` increments it under
    the instance's lock, so concurrent callers never lose an update;
    a negative delta raises ``ValueError``.  The instance registers
    itself with ``registry`` (default: the process-wide one), which
    reads the counts only at export.  An unknown field, read, assigned
    or added, raises ``AttributeError``.
    """

    FIELDS: tuple[str, ...] = ()
    NAME = ""
    HELP = ""
    LABEL = ""

    __slots__ = ("instance", "_counts", "_lock", "__weakref__")

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        #: the ``LABEL`` value of this instance's samples; instances
        #: built without one share ``""`` and their counts add up
        self.instance = instance or ""
        self._counts = dict.fromkeys(self.FIELDS, 0)
        self._lock = threading.Lock()
        (registry if registry is not None else _GLOBAL).register(self)

    def __getattr__(self, name: str) -> Union[int, float]:
        if name in type(self).FIELDS:
            return self._counts[name]
        raise AttributeError(
            f"{type(self).__name__} has no field {name!r}")

    def add(self, **deltas: Union[int, float]) -> None:
        """Increment each named field by its (non-negative) delta."""
        for name, delta in deltas.items():
            if name not in self._counts:
                raise AttributeError(
                    f"{type(self).__name__} has no field {name!r}")
            if delta < 0:
                raise ValueError(f"counts only go up ({name}={delta})")
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def collect(self):
        """This instance's one family, read from its counts now."""
        with self._lock:
            counts = list(self._counts.items())
        yield self.NAME, "counter", self.HELP, [
            ({self.LABEL: self.instance, "event": field}, count)
            for field, count in counts]
