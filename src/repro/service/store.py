"""Content-addressed result store: the durable layer of the service.

The :class:`ResultStore` grows the old spec-hash disk cache into a
proper content-addressed store.  Entries are keyed by
:meth:`RunSpec.spec_hash` (plus timing identity), one JSON file per
entry, written atomically (temp file + ``os.replace``) so concurrent
writers -- parallel Runner workers, several services sharing one
directory, or two simultaneous invocations -- can only ever race to
write identical content.

On top of the old cache behaviour the store adds:

* **versioning** -- every payload carries :data:`STORE_VERSION`;
  entries written under another version read as misses and are
  overwritten in place on the next put;
* **eviction** -- optional ``max_entries`` / ``max_bytes`` bounds,
  enforced least-recently-used (reads refresh an entry's mtime, so
  recency survives process restarts);
* **integrity** -- unreadable or mis-addressed entries are counted and
  *quarantined* (renamed ``<name>.corrupt``) instead of silently
  swallowed, orphaned ``*.tmp`` files from crashed writers are
  reclaimed on init / :meth:`clear` / :meth:`sweep`, and
  :meth:`sweep` re-validates every entry on demand;
* **metrics** -- hit / miss / corrupt / evict counters on the live
  :class:`StoreStats` view, so a serving deployment can report its
  cache hit rate.

Timing identity is part of the key: an execution-driven summary lives
in ``<spec_hash>.json``, a trace-driven replay summary (see
:mod:`repro.sim.captrace`) in ``<spec_hash>.replay.json``, and each
entry also records its ``timing`` in the payload, so a replay summary
can never alias the execution-driven numbers for the same spec.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.obs.metrics import MetricsRegistry, StatsView, get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    # imported lazily at runtime: repro.experiments imports this module
    # (the Runner builds its store), so a top-level import would cycle
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary

#: bump to invalidate every previously stored summary
#: (2: timing-identity keys -- replay entries split from execute ones;
#:  3: timing_model joined the spec hash and the summary payload)
STORE_VERSION = 3

#: live writers hold a ``*.tmp`` file for milliseconds; anything older
#: than this many seconds is an orphan from a crashed writer
TMP_GRACE_SECONDS = 60.0

#: suffix quarantined entries are renamed to (outside every ``*.json``
#: glob, so they never shadow the key again)
QUARANTINE_SUFFIX = ".corrupt"


_store_ids = itertools.count()


class StoreStats(StatsView):
    """Counters of one :class:`ResultStore`'s traffic.

    A view over one labeled family in the metrics registry
    (``repro_store_events_total{store=<instance>,event=...}``):
    attribute reads and ``stats.add(hits=1)`` go to the registry
    counters directly, so the store's own numbers and the exported
    metrics can never disagree, and concurrent lookups never lose a
    count.
    """

    FIELDS = ("hits", "misses", "corrupt", "evictions", "puts",
              "tmp_reclaimed")

    __slots__ = ("instance",)

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        family = (registry if registry is not None
                  else get_registry()).counter(
            "repro_store_events_total",
            "ResultStore traffic by outcome", labels=("store", "event"))
        if instance is None:
            instance = f"store-{next(_store_ids)}"
        self.instance = instance
        super().__init__({field: family.labels(store=instance, event=field)
                          for field in self.FIELDS})

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.corrupt

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        return (f"store: {self.hits} hits / {self.misses} misses "
                f"({self.hit_rate * 100:.1f}% hit rate), "
                f"{self.corrupt} corrupt, {self.evictions} evicted, "
                f"{self.puts} puts")


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one :meth:`ResultStore.sweep` integrity pass."""

    checked: int = 0
    quarantined: int = 0
    tmp_reclaimed: int = 0


class ResultStore:
    """A directory of ``<spec_hash>[.replay].json`` run summaries.

    ``max_entries`` / ``max_bytes`` (optional) bound the store; when a
    put pushes past a bound, least-recently-used entries are evicted
    until it holds again.  Construction reclaims orphaned temp files
    older than :data:`TMP_GRACE_SECONDS`.  Every job thread of a
    service shares one store; its traffic is counted in :attr:`stats`
    (a :class:`StoreStats`), which loses no count under concurrent use.
    """

    def __init__(self, root: Union[str, Path],
                 max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive: {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive: {max_bytes}")
        self.root = Path(root).expanduser()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: ``instance`` names this store's metric labels (a correlation
        #: id ties it to the run that owns it); default is process-unique
        self.stats = StoreStats(registry=registry, instance=instance)
        self.root.mkdir(parents=True, exist_ok=True)
        self._reclaim_tmp()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, spec: "RunSpec", timing: str = "execute") -> Path:
        suffix = ".json" if timing == "execute" else f".{timing}.json"
        return self.root / f"{spec.spec_hash()}{suffix}"

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, spec: "RunSpec",
            timing: str = "execute") -> Optional["RunSummary"]:
        """The stored summary for ``spec``, or None on miss.

        A present-but-unreadable entry -- truncated JSON, JSON that is
        not an object, or a payload whose recorded hash disagrees with
        its address -- is counted in ``stats.corrupt`` and quarantined
        (renamed ``*.corrupt``) so it cannot shadow the key, then
        reported as a miss.  An entry from another
        :data:`STORE_VERSION` is a plain miss (stale, not corrupt); the
        next put overwrites it.
        """
        from repro.experiments.summary import RunSummary

        path = self.path_for(spec, timing)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("spec_hash") != spec.spec_hash():
                raise ValueError("entry does not match its address")
            if payload.get("store_version",
                           payload.get("cache_version")) != STORE_VERSION:
                self.stats.add(misses=1)
                return None
            if payload.get("timing", "execute") != timing:
                raise ValueError("entry timing disagrees with its key")
            summary = RunSummary.from_dict(payload["summary"])
            if summary.timing != timing:
                raise ValueError("summary timing disagrees with its key")
        except FileNotFoundError:
            self.stats.add(misses=1)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        self.stats.add(hits=1)
        self._touch(path)
        return summary

    def put(self, spec: "RunSpec", summary: "RunSummary") -> Path:
        path = self.path_for(spec, summary.timing)
        payload = {
            "store_version": STORE_VERSION,
            # legacy field name kept so pre-store readers see a version
            # mismatch (a clean miss) instead of corruption
            "cache_version": STORE_VERSION,
            "spec_hash": spec.spec_hash(),
            "timing": summary.timing,
            "spec": spec.to_dict(),
            "summary": summary.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.add(puts=1)
        self._evict_to_bounds(protect=path)
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def sweep(self) -> SweepReport:
        """Integrity pass: validate every entry, reclaim temp orphans.

        Entries that fail to load, carry no version field at all, or
        disagree with their address are quarantined; version-mismatched
        (stale but well-formed) entries are left for puts to overwrite.
        """
        from repro.experiments.summary import RunSummary

        checked = quarantined = 0
        for path in sorted(self.root.glob("*.json")):
            checked += 1
            stem = path.name.split(".", 1)[0]
            try:
                with path.open("r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                if not isinstance(payload, dict):
                    raise ValueError("entry is not a JSON object")
                if payload.get("spec_hash") != stem:
                    raise ValueError("entry does not match its address")
                if "store_version" not in payload \
                        and "cache_version" not in payload:
                    raise ValueError("entry carries no version")
                RunSummary.from_dict(payload["summary"])
            except (OSError, ValueError, KeyError, TypeError):
                self._quarantine(path)
                quarantined += 1
        reclaimed = self._reclaim_tmp(max_age=0.0)
        return SweepReport(checked, quarantined, reclaimed)

    def clear(self) -> int:
        """Delete every entry (plus temp orphans and quarantined
        files); returns the number of *entries* removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        self._reclaim_tmp(max_age=0.0)
        for path in self.root.glob(f"*{QUARANTINE_SUFFIX}"):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch(self, path: Path) -> None:
        """Refresh mtime so LRU eviction sees the entry as recent."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _quarantine(self, path: Path) -> None:
        self.stats.add(corrupt=1)
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            # a concurrent reader quarantined it first; that is fine
            pass

    def _reclaim_tmp(self,
                     max_age: float = TMP_GRACE_SECONDS) -> int:
        """Remove ``*.tmp`` files older than ``max_age`` seconds.

        The grace period protects a live writer in another process
        (its temp file exists for the milliseconds between mkstemp and
        os.replace); a crashed writer's orphan is arbitrarily old.
        """
        now = time.time()
        reclaimed = 0
        for path in self.root.glob("*.tmp"):
            try:
                if now - path.stat().st_mtime >= max_age:
                    path.unlink()
                    reclaimed += 1
            except OSError:
                pass
        self.stats.add(tmp_reclaimed=reclaimed)
        return reclaimed

    def _evict_to_bounds(self, protect: Optional[Path] = None) -> None:
        """Drop least-recently-used entries until bounds hold.

        ``protect`` (the entry just written) is never evicted, so a
        put always leaves its own summary readable.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        entries = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        entries.sort()  # oldest first
        count = len(entries)
        size = sum(e[2] for e in entries)
        for mtime, path, nbytes in entries:
            over = ((self.max_entries is not None
                     and count > self.max_entries)
                    or (self.max_bytes is not None
                        and size > self.max_bytes))
            if not over:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            size -= nbytes
            self.stats.add(evictions=1)


def store_from_env(root: Union[str, Path],
                   instance: Optional[str] = None) -> ResultStore:
    """A :class:`ResultStore` at ``root`` honouring the documented
    environment bounds: ``REPRO_STORE_MAX_ENTRIES`` and
    ``REPRO_STORE_MAX_BYTES`` cap the store (least-recently-used
    eviction); unset means unbounded.  ``instance`` labels the store's
    metrics (see :class:`StoreStats`)."""
    max_entries = os.environ.get("REPRO_STORE_MAX_ENTRIES")
    max_bytes = os.environ.get("REPRO_STORE_MAX_BYTES")
    return ResultStore(
        root,
        max_entries=int(max_entries) if max_entries else None,
        max_bytes=int(max_bytes) if max_bytes else None,
        instance=instance,
    )
