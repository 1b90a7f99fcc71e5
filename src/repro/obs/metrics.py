"""Process-wide metrics registry: counters, gauges, and histograms.

The repo grew four disconnected stats islands -- ``TraceLog``,
``ShredLog``, ``StoreStats``, ``ServiceStats`` -- each a private pile of
counters with its own query methods and no shared export path.  This
module is the unification point: a stdlib-only, thread-safe
:class:`MetricsRegistry` of labeled metric *families* that every layer
(engine, machine/timing, memory hierarchy, store, in-flight table,
service) registers into, with two export formats:

* :meth:`MetricsRegistry.snapshot` -- a deterministic nested dict
  (stable ordering regardless of registration/update order), safe to
  ``json.dumps`` and to golden-file in tests;
* :meth:`MetricsRegistry.render_prometheus` -- Prometheus text
  exposition (``# HELP`` / ``# TYPE`` / escaped label values), the
  format a future multi-host service scrapes over the wire.

Component stats objects (:class:`~repro.service.store.StoreStats` and
friends) are *views* over registry counters -- see :class:`StatsView`
-- so ``store.stats.hits`` and the registry's
``repro_store_events_total{store=...,event="hits"}`` are one number,
not parallel bookkeeping.

Instrumented runs label their families with a correlation id from
:func:`new_run_id`, so one registry can hold many runs side by side.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter", "Gauge", "Histogram", "Family", "MetricsRegistry",
    "StatsView", "get_registry", "set_registry", "new_run_id",
]

#: default histogram buckets (seconds-ish scale; override per family)
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

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

        Exists for the :class:`StatsView` attribute protocol
        (``stats.hits += 1`` reads then sets) and for end-of-run pumps
        that publish a totalled count; live hot paths use :meth:`inc`.
        """
        with self._lock:
            self._value = value

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def _sample(self):
        return self._value


class Gauge(Counter):
    """A value that can go up and down (same cells, different intent)."""

    __slots__ = ()

    def inc(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: Union[int, float] = 1) -> None:
        self.inc(-n)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("_buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self._buckets = tuple(sorted(buckets))
        self._counts = [0] * len(self._buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: Union[int, float]) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            # per-bucket counts; _sample() cumulates at render time
            for i, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: Union[int, float]) -> float:
        """Upper-bound estimate of the ``q``-th percentile (0..100).

        Returns the smallest bucket bound whose cumulative count covers
        ``q`` percent of observations -- the usual histogram-quantile
        upper bound.  Observations beyond the largest bucket resolve to
        ``inf``; an empty histogram returns ``0.0``.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q!r}")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = q * total / 100.0
            cumulative = 0
            for bound, n in zip(self._buckets, self._counts):
                cumulative += n
                if cumulative >= rank:
                    return float(bound)
        return float("inf")

    def _sample(self):
        buckets = {}
        cumulative = 0
        for bound, n in zip(self._buckets, self._counts):
            cumulative += n
            buckets[format(bound, "g")] = cumulative
        buckets["+Inf"] = self._count
        return {"count": self._count, "sum": self._sum, "buckets": buckets}


_KIND_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\``, ``"``, newline."""
    return (value.replace("\\", r"\\")
                 .replace('"', r'\"')
                 .replace("\n", r"\n"))


class Family:
    """All time series sharing one metric name, keyed by label values."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: type,
                 help: str, labelnames: Sequence[str], **kwargs) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._kwargs = kwargs
        self._children: dict[tuple, object] = {}
        self._default: Optional[object] = None

    def labels(self, **labelvalues: str):
        """The child metric for one label-value combination (created on
        first use).  Label values are coerced to ``str``."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric '{self.name}' takes labels {self.labelnames}, "
                f"got {tuple(labelvalues)}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = self.kind(self._registry._value_lock,
                                      **self._kwargs)
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

    def observe(self, value: Union[int, float]) -> None:
        self._default_child().observe(value)

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
                labels: Sequence[str], **kwargs) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind is not kind \
                        or family.labelnames != tuple(labels):
                    raise ValueError(
                        f"metric '{name}' already registered as "
                        f"{_KIND_NAMES[family.kind]}{family.labelnames}")
                return family
            family = Family(self, name, kind, help, labels, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Family:
        return self._family(name, Counter, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Family:
        return self._family(name, Gauge, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Family:
        return self._family(name, Histogram, help, labels, buckets=buckets)

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
                    {"labels": labels, "value": child._sample()}
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
                if isinstance(child, Histogram):
                    sample = child._sample()
                    for le, count in sample["buckets"].items():
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels({**labels, 'le': le})} "
                            f"{count}")
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{sample['sum']}")
                    lines.append(
                        f"{name}_count{_render_labels(labels)} "
                        f"{sample['count']}")
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} {child.value}")
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

    The component stats dataclasses (``StoreStats``, ``ServiceStats``,
    ...) historically were parallel bookkeeping: plain ints the
    component mutated with ``stats.hits += 1``.  This base preserves
    that exact surface -- attribute reads return ints, augmented
    assignment and ``setattr`` keep working -- while making each field
    a *view* over one labeled registry counter, so component counts and
    the exported metrics are a single source of truth.

    Subclasses map each public field name to a registry child via the
    ``children`` dict; extra plain attributes must be set with
    ``object.__setattr__`` (the default ``__setattr__`` only accepts
    known metric fields, so typos fail loudly like they would on a
    dataclass with ``__slots__``).
    """

    __slots__ = ("_children",)

    def __init__(self, children: Mapping[str, Counter]) -> None:
        object.__setattr__(self, "_children", dict(children))

    def __getattr__(self, name: str):
        try:
            return self._children[name].value
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!s} has no field {name!r}") from None

    def __setattr__(self, name: str, value) -> None:
        try:
            self._children[name].set(value)
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!s} has no field {name!r}") from None

    def as_dict(self) -> dict[str, Union[int, float]]:
        """Plain ``{field: value}`` copy of the current counts."""
        return {name: child.value
                for name, child in self._children.items()}
