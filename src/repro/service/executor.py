"""The execution layer: policy-free simulation running.

:func:`execute` is the single entry point that maps a spec to a
finished summary; it is a module-level function so
``ProcessPoolExecutor`` can ship it to workers.
:func:`execute_captured` runs a spec the same way and also returns its
captured trace, for the explicit trace-driven API
(:class:`~repro.sim.captrace.ReplayMachine`).  The
:class:`ExecutionBackend` runs a batch of specs, inline or on a shared
process pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import repro.workloads  # noqa: F401  -- populates the workload registry
from repro.errors import ConfigurationError
from repro.systems import Session
from repro.workloads.base import REGISTRY, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary


def _prepare(spec: "RunSpec") -> tuple[Session, WorkloadSpec]:
    """The configured session and the built workload a spec describes
    -- everything but the run itself."""
    workload = REGISTRY.build(spec.workload, spec.scale, **dict(spec.args))
    session = (Session(spec.system, spec.config)
               .params(spec.params).policy(spec.policy).limit(spec.limit)
               .background(spec.background).timing(spec.timing_model))
    return session, workload


def execute(spec: "RunSpec") -> "RunSummary":
    """Run one spec to completion and return its plain-data summary.

    Deterministic: the simulation is a pure function of the spec, so
    equal specs produce equal summaries in any process.  The system is
    resolved purely through :data:`repro.systems.SYSTEM_REGISTRY`, so
    any registered backend -- built-in or custom -- executes the same
    way.  (Backends registered at runtime exist only in the
    registering process; run them through a serial Runner.)
    """
    # repro.experiments imports repro.service: import at call time
    from repro.experiments.summary import summarize_run

    session, workload = _prepare(spec)
    return summarize_run(session.run(workload), spec)


def execute_captured(spec: "RunSpec"):
    """Run one spec execution-driven with trace capture.

    Returns ``(summary, trace)`` where ``trace`` is a
    :class:`~repro.sim.captrace.CapturedTrace` with the summary
    attached as its snapshot and ``spec`` as its spec (everything
    picklable, so workers can ship it back).
    """
    from repro.experiments.summary import summarize_run

    session, workload = _prepare(spec)
    run = session.capture().run(workload)
    summary = summarize_run(run, spec)
    trace = run.trace
    trace.snapshot = summary
    trace.spec = spec
    return summary, trace


class ExecutionBackend:
    """Runs batches of specs, inline or on a shared process pool.

    The batch decides which: a single spec (or any batch, with
    ``parallel=False``) runs inline on the calling thread --
    deterministic, and registry-local backends and timing models stay
    visible -- while a wider batch fans out over a worker pool that
    persists across batches, so many concurrent jobs draw from one set
    of workers.  The pool never has more workers than the widest batch
    it has served, up to ``max_workers``.

    Each spec runs through ``execute_fn`` (the test seam), or else
    through :func:`execute`, looked up when the batch starts so a
    wrapper installed on this module sees the calls.

    A worker that dies breaks its pool, and every spec still on it
    fails with ``BrokenProcessPool``, whether the worker died under a
    spec or while the pool sat idle.  A run is a pure function of its
    spec, so each such spec runs once more, alone on a fresh pool,
    where only its own worker can break it; a spec that fails there
    too keeps its exception.

    ``max_workers`` is a positive ``int``, or None for every core;
    anything else is a :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 parallel: bool = True,
                 execute_fn: Optional[Callable] = None) -> None:
        if max_workers is not None and (type(max_workers) is not int
                                        or max_workers <= 0):
            raise ConfigurationError(
                "max_workers must be a positive integer or None, "
                f"got {max_workers!r}")
        # os.cpu_count() reads a file; only a parallel backend needs it
        self.max_workers = max_workers or (parallel and os.cpu_count()) or 1
        self.parallel = parallel and self.max_workers > 1
        self._execute_fn = execute_fn
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_width = 0
        self._lock = threading.Lock()

    def run(self, specs: Sequence["RunSpec"]
            ) -> Iterator[tuple["RunSpec", "Future[RunSummary]"]]:
        """Run every spec; yield ``(spec, finished future)`` pairs in
        completion order.  A failed spec's future holds its exception,
        so one failure neither hides nor stops the rest."""
        run = self._execute_fn or execute
        if self.parallel and len(specs) > 1:
            broken = []
            for spec, future in self._run_on_pool(run, specs):
                if isinstance(future.exception(), BrokenProcessPool):
                    broken.append(spec)
                else:
                    yield spec, future
            for spec in broken:
                yield from self._run_on_pool(run, [spec])
            return
        for spec in specs:
            future: Future = Future()
            try:
                future.set_result(run(spec))
            except Exception as exc:
                future.set_exception(exc)
            yield spec, future

    def _run_on_pool(self, run: Callable, specs: Sequence["RunSpec"]
                     ) -> Iterator[tuple["RunSpec", Future]]:
        """One attempt at every spec on the shared pool, yielded in
        completion order; a pool found broken is retired."""
        futures: dict[Future, "RunSpec"] = {}
        with self._lock:
            pool = self._widen_pool(len(specs))
            for spec in specs:
                try:
                    future = pool.submit(run, spec)
                except BrokenProcessPool as exc:
                    # flagged broken before this batch reached it
                    future = Future()
                    future.set_exception(exc)
                futures[future] = spec
        for future in as_completed(futures):
            if isinstance(future.exception(), BrokenProcessPool):
                self._retire(pool)
            yield futures[future], future

    def _widen_pool(self, specs: int) -> ProcessPoolExecutor:
        # caller holds the lock; a replaced pool finishes the specs
        # already submitted to it and then exits
        width = min(self.max_workers, specs)
        if self._pool is None or width > self._pool_width:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
            self._pool = ProcessPoolExecutor(max_workers=width)
            self._pool_width = width
        return self._pool

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        """Drop a pool a dead worker broke, so the next batch builds a
        fresh one instead of failing on it for good."""
        with self._lock:
            if self._pool is not pool:
                return
            self._pool, self._pool_width = None, 0
        pool.shutdown(wait=False)

    def close(self) -> None:
        """Shut the worker pool down, waiting for its running specs."""
        with self._lock:
            pool, self._pool, self._pool_width = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)
