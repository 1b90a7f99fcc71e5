"""The experiment service: one resolution path for experiment grids.

``repro.service`` decomposes the experiment layer into serving-system
parts; :class:`ExperimentService` composes them, and
:class:`repro.experiments.Runner` is that service with a per-call
worker pool:

* :class:`ResultStore` -- content-addressed durable layer: entries
  keyed by spec hash, store versioning, LRU size-bounded eviction,
  integrity sweep with quarantine, and hit/miss/corrupt/evict
  counters (:class:`StoreStats`, a view over the metrics registry);
* :class:`InflightTable` -- cross-request deduplication: identical
  spec hashes in concurrent jobs share one in-flight future;
* :func:`plan_groups` / :func:`run_group` -- the execution plan
  (singletons, or one capture-plus-replay group per replay class)
  and the one function that runs a planned group;
* :class:`ExecutionBackend` -- runs a plan inline or on a shared
  process pool (:func:`execute` and :func:`execute_captured` are the
  entry points that simulate);
* :class:`ExperimentService` -- synchronous ``run`` / ``run_many`` /
  ``run_experiment``, and ``submit(ExperimentSpec) ->``
  :class:`JobHandle`, streaming partial summaries via
  ``as_completed()`` while serving many concurrent clients over one
  in-process memo, one shared executor and one store.  Its
  resolution outcomes are counted in :class:`ServiceStats`, and each
  job's wall seconds per phase in :meth:`JobHandle.metrics`.
"""

from repro.service.executor import (
    ExecutionBackend, execute, execute_captured, plan_groups,
    replay_class, run_group,
)
from repro.service.inflight import InflightTable
from repro.service.service import (
    ExperimentResult, ExperimentService, JobHandle, ServiceStats,
)
from repro.service.store import (
    STORE_VERSION, ResultStore, StoreStats, SweepReport, store_from_env,
)

__all__ = [
    "ExecutionBackend", "execute", "execute_captured", "plan_groups",
    "replay_class", "run_group",
    "InflightTable",
    "ExperimentResult", "ExperimentService", "JobHandle", "ServiceStats",
    "STORE_VERSION", "ResultStore", "StoreStats", "SweepReport",
    "store_from_env",
]
