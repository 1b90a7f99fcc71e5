"""Process-wide metrics registry: counters and gauges.

A stdlib-only, thread-safe :class:`MetricsRegistry` of labeled metric
*families*.  The service and its store count into it live; an observed
run publishes every simulator layer's totals (engine, machine/timing,
memory hierarchy, ShredLib) into it once, at the end of the run.  Two
export formats:

* :meth:`MetricsRegistry.snapshot` -- a deterministic nested dict
  (stable ordering regardless of registration/update order), safe to
  ``json.dumps`` and to golden-file in tests;
* :meth:`MetricsRegistry.render_prometheus` -- Prometheus text
  exposition (``# HELP`` / ``# TYPE`` / escaped label values), the
  format a future multi-host service scrapes over the wire.

The service's stats objects (:class:`~repro.service.store.StoreStats`,
:class:`~repro.service.ServiceStats`) are *views* over registry
counters -- see :class:`StatsView` -- so ``store.stats.hits`` and the
registry's ``repro_store_events_total{store=...,event="hits"}`` are one
number, not parallel bookkeeping.

Instrumented runs label their families with a correlation id from
:func:`new_run_id`, so one registry can hold many runs side by side.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter", "Gauge", "Family", "MetricsRegistry",
    "StatsView", "get_registry", "set_registry", "new_run_id",
]

_run_ids = itertools.count()


def new_run_id(prefix: str = "run") -> str:
    """A process-unique correlation id, e.g. ``run-3-1f2e``.

    The random suffix keeps ids from different processes (a report
    invocation vs a worker) from colliding when their metrics land in
    one place.
    """
    return f"{prefix}-{next(_run_ids)}-{os.urandom(2).hex()}"


class Counter:
    """A monotonically increasing value (one labeled family member)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0
        self._lock = lock

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up (inc({n}))")
        with self._lock:
            self._value += n

    def set(self, value: Union[int, float]) -> None:
        """Overwrite the value.

        Exists for end-of-run pumps that publish a totalled count;
        live counts use :meth:`inc`, which cannot lose a concurrent
        update.
        """
        with self._lock:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge(Counter):
    """A value that can go up and down (same cells, different intent)."""

    __slots__ = ()

    def inc(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: Union[int, float] = 1) -> None:
        self.inc(-n)


_KIND_NAMES = {Counter: "counter", Gauge: "gauge"}


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\``, ``"``, newline."""
    return (value.replace("\\", r"\\")
                 .replace('"', r'\"')
                 .replace("\n", r"\n"))


class Family:
    """All time series sharing one metric name, keyed by label values."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: type,
                 help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._registry = registry
        self._children: dict[tuple, object] = {}
        self._default: Optional[object] = None

    def labels(self, **labelvalues: str):
        """The child metric for one label-value combination (created on
        first use).  Label values are coerced to ``str``."""
        if labelvalues.keys() != self._labelset:
            raise ValueError(
                f"metric '{self.name}' takes labels {self.labelnames}, "
                f"got {tuple(labelvalues)}")
        key = tuple([str(labelvalues[name]) for name in self.labelnames])
        child = self._children.get(key)
        if child is None:
            with self._registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = self.kind(self._registry._value_lock)
                    self._children[key] = child
        return child

    # -- unlabeled convenience: the family proxies its single child ----
    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"metric '{self.name}' is labeled {self.labelnames}; "
                "use .labels(...)")
        if self._default is None:
            self._default = self.labels()
        return self._default

    def inc(self, n: Union[int, float] = 1) -> None:
        self._default_child().inc(n)

    def dec(self, n: Union[int, float] = 1) -> None:
        self._default_child().dec(n)

    def set(self, value: Union[int, float]) -> None:
        self._default_child().set(value)

    @property
    def value(self):
        return self._default_child().value

    def samples(self) -> Iterator[tuple[dict[str, str], object]]:
        """``(labels, child)`` pairs in deterministic label order."""
        for key in sorted(self._children):
            yield dict(zip(self.labelnames, key)), self._children[key]


class MetricsRegistry:
    """A named collection of metric families.

    Thread-safe; family constructors are idempotent (re-registering the
    same name returns the existing family) but re-registering under a
    different kind or label set is a bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: one shared lock for all metric cells -- updates are a single
        #: add under the GIL, so per-cell locks would buy contention
        #: granularity nothing here justifies
        self._value_lock = threading.Lock()
        self._families: dict[str, Family] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: type, help: str,
                labels: Sequence[str]) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind is not kind \
                        or family.labelnames != tuple(labels):
                    raise ValueError(
                        f"metric '{name}' already registered as "
                        f"{_KIND_NAMES[family.kind]}{family.labelnames}")
                return family
            family = Family(self, name, kind, help, labels)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Family:
        return self._family(name, Counter, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Family:
        return self._family(name, Gauge, help, labels)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic nested-dict export (sorted names and labels).

        The same metric state always renders the same dict, whatever
        order families were registered or updated in -- the property
        the snapshot-determinism tests pin down.
        """
        out: dict = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            out[name] = {
                "type": _KIND_NAMES[family.kind],
                "help": family.help,
                "samples": [
                    {"labels": labels, "value": child.value}
                    for labels, child in family.samples()
                ],
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus/OpenMetrics text exposition."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {_KIND_NAMES[family.kind]}")
            for labels, child in family.samples():
                lines.append(f"{name}{_render_labels(labels)} {child.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(str(v))}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


#: the process-wide default registry every component registers into
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Intended for test isolation (install a fresh registry, restore the
    old one in teardown).
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


class StatsView:
    """Attribute-style stats object backed by registry counters.

    Each public field is a *view* over one labeled registry counter:
    reading ``stats.hits`` returns the counter's value, and
    ``stats.add(hits=1)`` increments it, so component counts and the
    exported metrics are a single source of truth.  Each field of an
    :meth:`add` is one :meth:`Counter.inc`, atomic under the registry's
    value lock, so concurrent callers never lose an update.

    Subclasses map each public field name to a registry child via the
    ``children`` dict and list any plain attribute in ``__slots__``, so
    assigning to an unknown name fails loudly.
    """

    __slots__ = ("_children",)

    def __init__(self, children: Mapping[str, Counter]) -> None:
        self._children = dict(children)

    def _child(self, name: str) -> Counter:
        try:
            return self._children[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!s} has no field {name!r}") from None

    def __getattr__(self, name: str):
        return self._child(name).value

    def add(self, **deltas: Union[int, float]) -> None:
        """Increment each named field by its delta."""
        for name, delta in deltas.items():
            self._child(name).inc(delta)
