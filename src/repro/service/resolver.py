"""The lookup layers in front of execution: memo, then store.

Both answer the same question -- *which of these specs can you
satisfy?* -- through one method::

    resolve(specs) -> (hits, misses)

where ``hits`` maps spec hashes to finished
:class:`~repro.experiments.summary.RunSummary` values and ``misses``
is the specs the layer could not serve, in input order.  ``store``
backfills a summary produced further down, so the next request
short-circuits as early as possible.

* :class:`MemoLayer` -- the in-process memo dict (thread-safe, shared
  by every job of an :class:`~repro.service.service.ExperimentService`);
* :class:`StoreLayer` -- adapts a
  :class:`~repro.service.store.ResultStore` (in replay mode, an exact
  execution-driven entry satisfies either key, while a replay entry
  only satisfies replay mode).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary
    from repro.service.store import ResultStore


class MemoLayer:
    """In-process memoization: the fastest, narrowest layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._memo: dict[str, "RunSummary"] = {}

    def resolve(self, specs: Sequence["RunSpec"]
                ) -> tuple[dict[str, "RunSummary"], list["RunSpec"]]:
        hits: dict[str, "RunSummary"] = {}
        misses: list["RunSpec"] = []
        with self._lock:
            for spec in specs:
                key = spec.spec_hash()
                summary = self._memo.get(key)
                if summary is not None:
                    hits[key] = summary
                else:
                    misses.append(spec)
        return hits, misses

    def store(self, spec: "RunSpec", summary: "RunSummary") -> None:
        with self._lock:
            self._memo[spec.spec_hash()] = summary

    def get(self, key: str) -> Optional["RunSummary"]:
        with self._lock:
            return self._memo.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memo)


class StoreLayer:
    """Adapts a content-addressed :class:`ResultStore` to the lookup.

    With ``replay=True`` a lookup falls back to the replay-timing key:
    execution-driven entries are exact, so they satisfy either mode,
    while a replay entry only ever satisfies replay mode.
    """

    def __init__(self, store: "ResultStore", replay: bool = False) -> None:
        self.backing = store
        self.replay = replay

    def resolve(self, specs: Sequence["RunSpec"]
                ) -> tuple[dict[str, "RunSummary"], list["RunSpec"]]:
        hits: dict[str, "RunSummary"] = {}
        misses: list["RunSpec"] = []
        for spec in specs:
            summary = self.backing.get(spec)
            if summary is None and self.replay:
                summary = self.backing.get(spec, timing="replay")
            if summary is not None:
                hits[spec.spec_hash()] = summary
            else:
                misses.append(spec)
        return hits, misses

    def store(self, spec: "RunSpec", summary: "RunSummary") -> None:
        self.backing.put(spec, summary)
