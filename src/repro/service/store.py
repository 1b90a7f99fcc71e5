"""Content-addressed result store: the durable layer of the service.

The :class:`ResultStore` grows the old spec-hash disk cache into a
proper content-addressed store.  Entries are keyed by
:meth:`RunSpec.spec_hash`, one JSON file per entry, written atomically
(temp file + ``os.replace``) so concurrent writers -- parallel Runner
workers, several services sharing one directory, or two simultaneous
invocations -- can only ever race to write identical content.

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
* **metrics** -- hit / miss / corrupt / evict counts in
  :class:`StoreStats`, which the metrics registry reads at export, so
  a serving deployment can report its cache hit rate.

The store holds execution-driven summaries only: :meth:`ResultStore.put`
refuses a trace-driven replay summary (see :mod:`repro.sim.captrace`)
with a :class:`~repro.errors.ConfigurationError`, so every stored
number is one an execution produced.  Replay entries an earlier
version kept under their own key are never read: they are no entries
to ``len``, the bounds or :meth:`~ResultStore.sweep`, which
quarantines them, and :meth:`~ResultStore.clear` removes them.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, Stats

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

#: the file name of an entry: its spec hash (a sha256 hex digest)
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


class StoreStats(Stats):
    """Counts of one :class:`ResultStore`'s traffic.

    A :class:`~repro.obs.metrics.Stats` record: concurrent lookups
    never lose a count, and the registry reads the counts as
    ``repro_store_events_total{store=<instance>,event=...}`` only when
    it exports, so the store's own numbers and the exported metrics
    can never disagree.
    """

    NAME = "repro_store_events_total"
    HELP = "ResultStore traffic by outcome"
    LABEL = "store"
    FIELDS = ("hits", "misses", "corrupt", "evictions", "puts",
              "tmp_reclaimed")

    __slots__ = ()

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
    """A directory of ``<spec_hash>.json`` run summaries.

    ``max_entries`` / ``max_bytes`` (optional) bound the store; when a
    put pushes past a bound, least-recently-used entries are evicted
    until it holds again.  Construction creates ``root`` if needed and
    reclaims orphaned ``*.tmp`` files older than
    :data:`TMP_GRACE_SECONDS` in one scan of the directory; it reads
    no entry.  Every thread of a service -- callers looking up hits
    and job threads backfilling -- shares one store; its traffic is
    counted in :attr:`stats` (a :class:`StoreStats`), which loses no
    count under concurrent use.  The stats register with ``registry``
    (default: the process-wide one) under the label ``instance``
    (default ``""``) and leave it when the store is garbage-collected.
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
        #: every entry's path starts with this string (see _address)
        self._prefix = os.path.join(self.root, "")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: ``instance`` names this store's metric labels (a correlation
        #: id ties it to the run that owns it); unnamed stores share
        #: ``""`` and their counts add up in the registry
        self.stats = StoreStats(registry=registry, instance=instance)
        os.makedirs(self.root, exist_ok=True)
        self._reclaim_tmp()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _address(self, key: str) -> str:
        """The path of the entry for spec hash ``key``, as a plain
        string: the one place the file layout is decided."""
        return f"{self._prefix}{key}.json"

    def _entries(self) -> list[Path]:
        """Every entry in the directory: a file named
        ``<spec_hash>.json``, the name :meth:`_address` gives.  Any
        other ``*.json`` (a ``<hash>.replay.json`` an older version
        wrote) is no entry: :meth:`get` never reads it."""
        return [path for path in self.root.glob("*.json")
                if _ENTRY_NAME.fullmatch(path.name)]

    def path_for(self, spec: "RunSpec") -> Path:
        return Path(self._address(spec.spec_hash()))

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, spec: "RunSpec") -> Optional["RunSummary"]:
        """The stored summary for ``spec``, or None on miss.

        A present-but-unreadable entry -- truncated JSON, JSON that is
        not an object, a payload whose recorded hash disagrees with
        its address, or a summary that was not executed -- is counted
        in ``stats.corrupt`` and quarantined (renamed ``*.corrupt``)
        so it cannot shadow the key, then reported as a miss.  An entry from another
        :data:`STORE_VERSION` is a plain miss (stale, not corrupt); the
        next put overwrites it.
        """
        from repro.experiments.summary import RunSummary

        key = spec.spec_hash()
        path = self._address(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.loads(fh.read())
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("spec_hash") != key:
                raise ValueError("entry does not match its address")
            if payload.get("store_version",
                           payload.get("cache_version")) != STORE_VERSION:
                self.stats.add(misses=1)
                return None
            summary = RunSummary.from_dict(payload["summary"])
            if summary.timing != "execute":
                raise ValueError("entry holds a summary not executed")
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
        """Store ``summary`` as the entry for ``spec``; a summary that
        was not executed (``timing`` other than ``"execute"``) is a
        :class:`~repro.errors.ConfigurationError`."""
        if summary.timing != "execute":
            raise ConfigurationError(
                "the store holds executed summaries only, "
                f"got timing={summary.timing!r}")
        path = self.path_for(spec)
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
        disagree with their address are quarantined, and so is any
        other ``*.json`` file; version-mismatched (stale but
        well-formed) entries are left for puts to overwrite.
        """
        from repro.experiments.summary import RunSummary

        entries = self._entries()
        others = sorted(set(self.root.glob("*.json")).difference(entries))
        for path in others:
            self._quarantine(path)
        quarantined = len(others)
        for path in sorted(entries):
            try:
                with path.open("r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                if not isinstance(payload, dict):
                    raise ValueError("entry is not a JSON object")
                if payload.get("spec_hash") != path.stem:
                    raise ValueError("entry does not match its address")
                if "store_version" not in payload \
                        and "cache_version" not in payload:
                    raise ValueError("entry carries no version")
                RunSummary.from_dict(payload["summary"])
            except (OSError, ValueError, KeyError, TypeError):
                self._quarantine(path)
                quarantined += 1
        reclaimed = self._reclaim_tmp(max_age=0.0)
        return SweepReport(len(entries), quarantined, reclaimed)

    def clear(self) -> int:
        """Delete every ``*.json`` file (plus temp orphans and
        quarantined files); returns the number of ``*.json`` files
        removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        self._reclaim_tmp(max_age=0.0)
        for path in self.root.glob(f"*{QUARANTINE_SUFFIX}"):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        return len(self._entries())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch(self, path: str) -> None:
        """Refresh mtime so LRU eviction sees the entry as recent."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _quarantine(self, path: Union[str, Path]) -> None:
        self.stats.add(corrupt=1)
        try:
            os.replace(path, f"{path}{QUARANTINE_SUFFIX}")
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
        for name in os.listdir(self.root):
            if not name.endswith(".tmp"):
                continue
            path = self._prefix + name
            try:
                if now - os.stat(path).st_mtime >= max_age:
                    os.unlink(path)
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
        for path in self._entries():
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


def _env_bound(name: str) -> Optional[int]:
    """The positive integer environment variable ``name`` holds, or
    None when it is unset or empty; any other value is a
    :class:`~repro.errors.ConfigurationError` naming it."""
    value = os.environ.get(name)
    if not value:
        return None
    try:
        bound = int(value)
    except ValueError:
        bound = 0
    if bound <= 0:
        raise ConfigurationError(
            f"{name} must be a positive integer, got {value!r}")
    return bound


def store_from_env(root: Union[str, Path],
                   instance: Optional[str] = None) -> ResultStore:
    """A :class:`ResultStore` at ``root`` honouring the documented
    environment bounds: ``REPRO_STORE_MAX_ENTRIES`` and
    ``REPRO_STORE_MAX_BYTES`` cap the store (least-recently-used
    eviction); unset means unbounded, and a value that is not a
    positive integer is a :class:`~repro.errors.ConfigurationError`.
    ``instance`` labels the store's metrics (see :class:`StoreStats`)."""
    return ResultStore(
        root,
        max_entries=_env_bound("REPRO_STORE_MAX_ENTRIES"),
        max_bytes=_env_bound("REPRO_STORE_MAX_BYTES"),
        instance=instance,
    )
