"""The experiment service: one resolution path for experiment grids.

``repro.service`` decomposes the experiment layer into serving-system
parts; :class:`ExperimentService` composes them, and
:class:`repro.experiments.Runner` is that service with a per-call
worker pool:

* :class:`ResultStore` -- content-addressed durable layer: executed
  summaries keyed by spec hash, store versioning, LRU size-bounded
  eviction, integrity sweep with quarantine, and
  hit/miss/corrupt/evict counts (:class:`StoreStats`, which the
  metrics registry reads at export);
* :class:`ExecutionBackend` -- runs the specs left to execute, one
  :func:`execute` each, inline or on a shared process pool
  (:func:`execute_captured` also records the run's trace for the
  explicit trace-driven API, :class:`~repro.sim.captrace.ReplayMachine`);
* :class:`ExperimentService` -- synchronous ``run`` / ``run_many`` /
  ``run_experiment``, and ``submit(ExperimentSpec) ->``
  :class:`JobHandle`, streaming partial summaries via
  ``as_completed()`` while serving many concurrent clients over one
  run table, one shared executor and one store.  The table holds the
  summary of each finished run and the pending future of each run in
  flight, so identical spec hashes in concurrent jobs share one
  execution.  Its resolution outcomes are counted in
  :class:`ServiceStats`, and each job's wall seconds per phase in
  :meth:`JobHandle.metrics`.

Every summary the service returns, stores or streams was executed.
"""

from repro.service.executor import ExecutionBackend, execute, execute_captured
from repro.service.service import (
    ExperimentResult, ExperimentService, JobHandle, ServiceStats,
)
from repro.service.store import (
    STORE_VERSION, ResultStore, StoreStats, SweepReport, store_from_env,
)

__all__ = [
    "ExecutionBackend", "execute", "execute_captured",
    "ExperimentResult", "ExperimentService", "JobHandle", "ServiceStats",
    "STORE_VERSION", "ResultStore", "StoreStats", "SweepReport",
    "store_from_env",
]
