"""Cross-request in-flight deduplication.

The :class:`InflightTable` maps a spec hash to the
:class:`concurrent.futures.Future` of its *currently executing* run.
When several concurrent requests (two :class:`ExperimentService` jobs,
or any two callers sharing one table) need the same simulation, the
first to :meth:`claim` the hash owns the execution; everyone else
*joins* the existing future and receives the summary the moment the
owner resolves it.  This is what turns "dedup within one grid" into
"dedup across every request currently in the air": N clients asking
for the same figure cost one execution, not N.

The table is purely in-memory and thread-safe.  Entries exist only
while a run is in flight -- resolution (or failure) removes the entry,
after which the memo / store layers serve the result.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Iterable


class InflightTable:
    """Shared futures for runs currently executing, keyed by spec hash."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}

    def claim(self, keys: Iterable[str]
              ) -> tuple[dict[str, Future], dict[str, Future]]:
        """Atomically claim ``keys``; returns ``(owned, joined)``.

        ``owned`` maps each key this caller must now execute to the
        fresh future it must later :meth:`resolve` or :meth:`fail`;
        ``joined`` maps keys already in flight to the existing future
        to wait on.  Atomic over the whole key set, so two concurrent
        claims can never both own the same key.
        """
        owned: dict[str, Future] = {}
        joined: dict[str, Future] = {}
        with self._lock:
            for key in keys:
                existing = self._futures.get(key)
                if existing is not None:
                    joined[key] = existing
                else:
                    future: Future = Future()
                    self._futures[key] = future
                    owned[key] = future
        return owned, joined

    def resolve(self, key: str, summary) -> None:
        """Fulfil the in-flight future for ``key`` and retire it."""
        with self._lock:
            future = self._futures.pop(key, None)
        if future is not None:
            future.set_result(summary)

    def fail(self, key: str, exc: BaseException) -> None:
        """Fail the in-flight future for ``key`` and retire it."""
        with self._lock:
            future = self._futures.pop(key, None)
        if future is not None:
            future.set_exception(exc)

    def __len__(self) -> int:
        with self._lock:
            return len(self._futures)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._futures
