"""The experiment service: one resolution path for experiment grids.

``repro.service`` decomposes the experiment layer into serving-system
parts; :class:`ExperimentService` composes them, and
:class:`repro.experiments.Runner` is that service with a per-call
worker pool:

* :class:`ResultStore` -- content-addressed durable layer: entries
  keyed by spec hash, store versioning, LRU size-bounded eviction,
  integrity sweep with quarantine, and hit/miss/corrupt/evict
  counters (:class:`StoreStats`, a view over the metrics registry);
* :class:`MemoLayer` / :class:`StoreLayer` -- the lookups in front of
  execution, each answering ``resolve(specs) -> hits, misses``;
* :class:`InflightTable` -- cross-request deduplication: identical
  spec hashes in concurrent jobs share one in-flight future;
* :class:`DirectPlanner` / :class:`ReplayPlanner` -- execution
  planning (replay-class grouping), kept out of the executor so the
  execution layer stays policy-free;
* :class:`ExecutionBackend` -- runs planned groups inline or on a
  shared process pool (:func:`execute` and friends are its entry
  points);
* :class:`ExperimentService` -- synchronous ``run`` / ``run_many`` /
  ``run_experiment``, and ``submit(ExperimentSpec) ->``
  :class:`JobHandle`, streaming partial summaries via
  ``as_completed()`` while serving many concurrent clients over one
  shared executor and one store.  Its resolution outcomes are counted
  in :class:`ServiceStats`, and each job's wall seconds per phase in
  :meth:`JobHandle.metrics`.
"""

from repro.service.executor import (
    ExecutionBackend, execute, execute_captured, execute_replay_group,
    run_group,
)
from repro.service.inflight import InflightTable
from repro.service.planner import (
    DirectPlanner, ExecutionPlanner, ReplayPlanner, planner_for,
    replay_class,
)
from repro.service.resolver import MemoLayer, StoreLayer
from repro.service.service import (
    ExperimentResult, ExperimentService, JobHandle, ServiceStats,
)
from repro.service.store import (
    STORE_VERSION, ResultStore, StoreStats, SweepReport, store_from_env,
)

__all__ = [
    "ExecutionBackend", "execute", "execute_captured",
    "execute_replay_group", "run_group",
    "InflightTable",
    "DirectPlanner", "ExecutionPlanner", "ReplayPlanner", "planner_for",
    "replay_class",
    "MemoLayer", "StoreLayer",
    "ExperimentResult", "ExperimentService", "JobHandle", "ServiceStats",
    "STORE_VERSION", "ResultStore", "StoreStats", "SweepReport",
    "store_from_env",
]
