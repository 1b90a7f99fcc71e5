"""The experiment service: the one resolution path for experiment grids.

:class:`ExperimentService` serves grids through two faces over the
same layers -- in-process memo, content-addressed
:class:`~repro.service.store.ResultStore`, cross-request
:class:`~repro.service.inflight.InflightTable`, and one shared
execution backend:

* :meth:`~ExperimentService.run`, :meth:`~ExperimentService.run_many`
  and :meth:`~ExperimentService.run_experiment` resolve on the calling
  thread and return once the grid is done;
* :meth:`~ExperimentService.submit` looks the grid up in the memo and
  the store on the calling thread, delivers those hits, and returns a
  :class:`JobHandle`; only the specs still unresolved go on to a job
  thread, so finished runs stream back through
  :meth:`JobHandle.as_completed` *as they finish*, not when the whole
  grid does, and a grid the memo and store answer in full is done
  before ``submit`` returns.

Either way, a figure request repeated by N clients costs one
execution, and two different grids sharing a baseline run share its
simulation even while both are still in flight.

Resolution order per job::

    memo  ->  store  ->  inflight table  ->  executor
    (hits)    (hits)     (join a run        (claim + run,
                          already in         resolve joiners)
                          the air)

Everything an executed run produces is backfilled upward (store and
memo), so the next request short-circuits as early as possible.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union,
)

from repro.errors import ExperimentExecutionError
from repro.obs.metrics import MetricsRegistry, Stats, new_run_id
from repro.service.executor import ExecutionBackend
from repro.service.inflight import InflightTable
from repro.service.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import ExperimentSpec, RunSpec
    from repro.experiments.summary import RunSummary


class ExperimentResult:
    """Summaries of one executed :class:`ExperimentSpec`.

    Index with the member RunSpec (``result[spec]``) -- lookup is by
    content hash, so any spec describing the same simulation resolves.
    """

    def __init__(self, experiment: "ExperimentSpec",
                 summaries: dict[str, "RunSummary"]) -> None:
        self.experiment = experiment
        self._by_hash = summaries

    def __getitem__(self, spec: "RunSpec") -> "RunSummary":
        try:
            return self._by_hash[spec.spec_hash()]
        except KeyError:
            raise KeyError(f"no run for {spec.describe()}") from None

    def __contains__(self, spec: "RunSpec") -> bool:
        return spec.spec_hash() in self._by_hash

    def __len__(self) -> int:
        return len(self._by_hash)

    def summaries(self) -> list["RunSummary"]:
        """Summaries in experiment order (duplicates included)."""
        return [self[spec] for spec in self.experiment.runs]


class ServiceStats(Stats):
    """Where the service's runs came from, across all jobs.

    A :class:`~repro.obs.metrics.Stats` record: ``stats.add(...)``
    counts without losing a concurrent update, and the registry reads
    the counts as ``repro_service_events_total{service=...,event=...}``
    only when it exports.
    """

    NAME = "repro_service_events_total"
    HELP = "ExperimentService resolution outcomes"
    LABEL = "service"
    #: requested -- grid members submitted; deduplicated -- duplicate
    #: members within submitted grids; inflight_joined -- specs folded
    #: onto an execution another job already had in flight; executed --
    #: simulations run
    FIELDS = ("requested", "deduplicated", "memo_hits", "store_hits",
              "inflight_joined", "executed", "failed", "jobs")

    __slots__ = ()

    def __str__(self) -> str:
        return (f"{self.jobs} jobs / {self.requested} requested = "
                f"{self.executed} executed "
                f"+ {self.deduplicated} deduplicated "
                f"+ {self.memo_hits} memoized + {self.store_hits} stored "
                f"+ {self.inflight_joined} joined in-flight"
                + (f" ({self.failed} failed)" if self.failed else ""))


class JobHandle:
    """A submitted experiment: stream it, or wait for the result.

    One summary is delivered per *unique* spec in the grid; duplicate
    members share their delivery (and the final
    :class:`ExperimentResult` resolves them all).  :meth:`as_completed`
    is a single-consumer stream; it may be combined freely with a final
    :meth:`result` call.
    """

    def __init__(self, experiment: "ExperimentSpec",
                 expected: int, job_id: Optional[str] = None) -> None:
        self.experiment = experiment
        self.expected = expected
        #: correlation id of this job
        self.job_id = job_id or new_run_id("job")
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._consumed = 0
        self._lock = threading.Lock()
        self._delivered = 0
        self._results: dict[str, "RunSummary"] = {}
        self._failures: list[tuple["RunSpec", BaseException]] = []
        #: wall seconds per resolution phase (memo/store/execute/...)
        self._phase_seconds: dict[str, float] = {}
        self._done = threading.Event()
        if expected == 0:
            self._done.set()

    def _note_phase(self, name: str, seconds: float) -> None:
        with self._lock:
            self._phase_seconds[name] = (
                self._phase_seconds.get(name, 0.0) + seconds)

    # -- delivery (service side) ---------------------------------------
    def _deliver(self, key: str, summary: "RunSummary") -> None:
        with self._lock:
            if key in self._results:
                return
            self._results[key] = summary
            self._delivered += 1
            last = self._delivered == self.expected
        self._queue.put(summary)
        if last:
            self._done.set()

    def _deliver_failure(self, spec: "RunSpec",
                         exc: BaseException) -> None:
        with self._lock:
            self._failures.append((spec, exc))
            self._delivered += 1
            last = self._delivered == self.expected
        self._queue.put(None)      # keeps the stream's count moving
        if last:
            self._done.set()

    # -- consumption (client side) -------------------------------------
    def done(self) -> bool:
        """True once every unique spec has resolved or failed."""
        return self._done.is_set()

    @property
    def failures(self) -> list[tuple["RunSpec", BaseException]]:
        with self._lock:
            return list(self._failures)

    def as_completed(self, timeout: Optional[float] = None):
        """Yield each finished :class:`RunSummary` as it lands.

        Completion order, not grid order -- a cache hit streams out
        before a long simulation submitted earlier.  Failed specs are
        skipped here (they surface in :meth:`result` /
        :attr:`failures`).  ``timeout`` bounds the wait for *each*
        summary; on expiry a :class:`TimeoutError` is raised.
        """
        while self._consumed < self.expected:
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no run finished within {timeout}s "
                    f"({self._consumed}/{self.expected} streamed)") from None
            self._consumed += 1
            if item is not None:
                yield item

    def metrics(self) -> dict:
        """Observability snapshot of this job: correlation id, delivery
        progress, and wall-time attribution per resolution phase.

        ``phases`` maps each pipeline phase the service ran for this
        job (``submit``/``memo``/``store``/``execute``/``backfill``)
        to wall seconds spent in it.  ``submit`` times
        the start of the job thread, so it appears only when a
        submitted job had specs left after the memo and store: a job
        they answer in full starts no thread and has no ``submit``
        phase.
        """
        with self._lock:
            return {
                "job_id": self.job_id,
                "experiment": self.experiment.name,
                "expected": self.expected,
                "delivered": self._delivered,
                "failed": len(self._failures),
                "done": self._done.is_set(),
                "phases": dict(self._phase_seconds),
            }

    def result(self, timeout: Optional[float] = None) -> "ExperimentResult":
        """Block until the whole grid resolved; raise if any run failed."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job incomplete after {timeout}s "
                f"({self._delivered}/{self.expected} resolved)")
        if self._failures:
            raise ExperimentExecutionError(self.failures)
        return ExperimentResult(self.experiment, dict(self._results))


class ExperimentService:
    """Serve experiment grids, synchronously or as streaming jobs.

    One service owns one memo, one (optional) content-addressed store,
    one in-flight table, and one execution backend; every request --
    a synchronous ``run*`` call or a submitted job -- shares all four.
    Both faces look up the memo and the store on the calling thread;
    :meth:`submit` hands only the rest to a job thread.

    * duplicate specs within and across requests run once (memo, and
      the in-flight table while a run is still executing);
    * with a ``store`` (a :class:`ResultStore` or a directory), runs
      persist on disk keyed by spec hash, so new processes are served
      from the store;
    * every spec left to run executes; a batch of several runs in a
      persistent process pool of up to ``max_workers`` workers, and a
      single spec, or any batch with ``parallel=False``, runs inline
      on the resolving thread (deterministic, and registry-local
      backends/timing models stay visible).

    A failing simulation neither discards the rest of its grid
    (completed runs are memoized and stored first) nor shadows other
    failures: one :class:`~repro.errors.ExperimentExecutionError` names
    every failed spec, so a retry only re-runs what failed.

    Each fact is counted once: where runs came from in :attr:`stats`
    (a :class:`ServiceStats`, which also counts the specs joined onto
    in-flight runs), store traffic in ``store.stats``, and each job's
    wall seconds per resolution phase in :meth:`JobHandle.metrics`.
    Both stats register with ``registry`` (default: the process-wide
    one), which reads them only when it exports, labeled ``instance``
    (default ``""``: unnamed services and stores add up); a service
    that is garbage-collected leaves the registry.
    """

    def __init__(self,
                 store: Optional[Union[ResultStore, str, os.PathLike]] = None,
                 max_workers: Optional[int] = None,
                 parallel: bool = True,
                 execute_fn: Optional[Callable] = None,
                 registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        # first, so a bad worker count fails before a store is created
        self.backend = ExecutionBackend(max_workers=max_workers,
                                        parallel=parallel,
                                        execute_fn=execute_fn)
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store, registry=registry,
                                instance=instance)
        self.store: Optional[ResultStore] = store
        #: finished summaries by spec hash, shared by every job
        self._memo: dict[str, "RunSummary"] = {}
        self._memo_lock = threading.Lock()
        self.inflight = InflightTable()
        self.stats = ServiceStats(registry=registry, instance=instance)
        #: the job threads :meth:`submit` started that may still run
        self._threads: list[threading.Thread] = []
        self._threads_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, spec: "RunSpec") -> "RunSummary":
        """Run (or recall) a single spec."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Iterable["RunSpec"]) -> list["RunSummary"]:
        """Run a grid on the calling thread; returns summaries in
        input order (duplicates share one run)."""
        specs = list(specs)
        result = self.run_experiment(specs)
        return [result[spec] for spec in specs]

    def run_experiment(self,
                       experiment: Union["ExperimentSpec",
                                         Iterable["RunSpec"]]
                       ) -> ExperimentResult:
        """Resolve every member of a grid on the calling thread.

        Blocks until the grid is done, including members joined onto
        runs another request has in flight; raises
        :class:`~repro.errors.ExperimentExecutionError` if any failed.
        """
        job, unique = self._open(experiment)
        remaining = self._guarded(self._lookup, job, unique)
        if remaining:
            self._guarded(self._resolve_rest, job, unique, remaining)
        return job.result()

    def submit(self, experiment: Union["ExperimentSpec",
                                       Iterable["RunSpec"]]) -> JobHandle:
        """Accept a grid and return its :class:`JobHandle`.

        Memo and store hits are looked up and delivered on the calling
        thread before this returns.  A job thread starts only for the
        specs left over, which join a run already in flight or
        execute; a grid the memo and store answer in full is
        :meth:`~JobHandle.done` on return.
        """
        job, unique = self._open(experiment)
        remaining = self._guarded(self._lookup, job, unique)
        if remaining:
            with self._phase(job, "submit"):
                thread = threading.Thread(
                    target=self._guarded,
                    args=(self._resolve_rest, job, unique, remaining),
                    name=f"repro-{job.job_id}", daemon=True)
                with self._threads_lock:
                    self._threads = [t for t in self._threads
                                     if t.is_alive()]
                    self._threads.append(thread)
                    thread.start()
        return job

    def close(self) -> None:
        """Shut down the shared worker pool.  Jobs already submitted
        finish first: this waits for their threads, so none of them
        can start a pool after it is shut down."""
        with self._threads_lock:
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join()
        self.backend.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Job resolution
    # ------------------------------------------------------------------
    def _open(self, experiment: Union["ExperimentSpec",
                                      Iterable["RunSpec"]]
              ) -> tuple[JobHandle, dict[str, "RunSpec"]]:
        """A counted job for ``experiment`` and its unique specs."""
        from repro.experiments.spec import ExperimentSpec

        if not isinstance(experiment, ExperimentSpec):
            experiment = ExperimentSpec("adhoc", tuple(experiment))
        unique: dict[str, "RunSpec"] = {}
        for spec in experiment.runs:
            unique.setdefault(spec.spec_hash(), spec)
        self.stats.add(jobs=1, requested=len(experiment.runs),
                       deduplicated=len(experiment.runs) - len(unique))
        return JobHandle(experiment, expected=len(unique)), unique

    def _guarded(self, step: Callable, job: JobHandle,
                 unique: dict[str, "RunSpec"], *args):
        """``step(job, unique, *args)``'s result, or None if it raised.

        A step that raises fails every spec of ``job`` not yet
        settled, with that exception, so the job never hangs (a store
        write can raise, e.g. ENOSPC).
        """
        try:
            return step(job, unique, *args)
        except Exception as exc:
            with job._lock:
                settled = set(job._results)
                settled.update(s.spec_hash() for s, _ in job._failures)
            for key, spec in unique.items():
                if key not in settled:
                    job._deliver_failure(spec, exc)
            return None

    @contextlib.contextmanager
    def _phase(self, job: JobHandle, name: str) -> Iterator[None]:
        """Fold one pipeline phase's wall time into ``job``'s phase
        attribution (a phase that raises records nothing)."""
        start = time.perf_counter()
        yield
        job._note_phase(name, time.perf_counter() - start)

    def _lookup(self, job: JobHandle,
                unique: dict[str, "RunSpec"]) -> list["RunSpec"]:
        """Deliver the memo's hits, then the store's, each in grid
        order; returns the specs neither holds."""
        # 1. in-process memo
        with self._phase(job, "memo"):
            with self._memo_lock:
                hits = {key: self._memo[key] for key in unique
                        if key in self._memo}
            remaining = [spec for key, spec in unique.items()
                         if key not in hits]
            self.stats.add(memo_hits=len(hits))
            for key, summary in hits.items():
                job._deliver(key, summary)

        # 2. content-addressed store (backfills the memo)
        if self.store is not None and remaining:
            with self._phase(job, "store"):
                hits, missed = {}, []
                for spec in remaining:
                    summary = self.store.get(spec)
                    if summary is None:
                        missed.append(spec)
                    else:
                        hits[spec.spec_hash()] = summary
                remaining = missed
                self.stats.add(store_hits=len(hits))
                with self._memo_lock:
                    self._memo.update(hits)
                for key, summary in hits.items():
                    job._deliver(key, summary)
        return remaining

    def _resolve_rest(self, job: JobHandle, unique: dict[str, "RunSpec"],
                      remaining: Sequence["RunSpec"]) -> None:
        """Join or execute what :meth:`_lookup` left, backfilling the
        memo and store."""
        # 3. cross-request in-flight dedup
        owned, joined = self.inflight.claim(
            spec.spec_hash() for spec in remaining)
        self.stats.add(inflight_joined=len(joined))
        for key, future in {**owned, **joined}.items():
            future.add_done_callback(
                partial(self._on_future, job, unique[key]))

        try:
            # double-check the memo for owned keys: another job may have
            # resolved (and retired) the run between our memo miss and
            # the claim -- serve it rather than re-executing
            for key in list(owned):
                with self._memo_lock:
                    summary = self._memo.get(key)
                if summary is not None:
                    self.inflight.resolve(key, summary)
                    del owned[key]

            # 4. execute what this job owns
            if owned:
                self._execute_owned(job, [unique[key] for key in owned])
        except BaseException as exc:
            # an unsettled claim would hang its joiners and every later
            # request for the spec; only the owner settles a claim, so
            # a pending owned future is still the table's entry
            for key, future in owned.items():
                if not future.done():
                    self.inflight.fail(key, exc)
            raise

    def _execute_owned(self, job: JobHandle,
                       specs: Sequence["RunSpec"]) -> None:
        with self._phase(job, "execute"):
            # each run resolves -- and streams to every waiting job --
            # as soon as it finishes
            for spec, future in self.backend.run(specs):
                self._settle(job, spec, future)

    def _settle(self, job: JobHandle, spec: "RunSpec",
                future: Future) -> None:
        key = spec.spec_hash()
        try:
            summary = future.result()
        except Exception as exc:
            self.stats.add(failed=1)
            self.inflight.fail(key, exc)
            return
        with self._phase(job, "backfill"):
            with self._memo_lock:
                self._memo[key] = summary
            if self.store is not None:
                self.store.put(spec, summary)
            # resolving the future delivers to this job and every joiner
            self.inflight.resolve(key, summary)
        self.stats.add(executed=1)

    def _on_future(self, job: JobHandle, spec: "RunSpec",
                   future: Future) -> None:
        exc = future.exception()
        if exc is not None:
            job._deliver_failure(spec, exc)
        else:
            job._deliver(spec.spec_hash(), future.result())
