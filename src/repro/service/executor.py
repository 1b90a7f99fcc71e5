"""The execution layer: policy-free simulation running.

:func:`execute` is the single entry point that maps a spec to a
finished summary; it is a module-level function so
``ProcessPoolExecutor`` can ship it to workers.  The layer never
decides *what* to run together -- a
:class:`~repro.service.planner.ExecutionPlanner` hands it task groups
(singletons, or capture-plus-replay classes) and the
:class:`ExecutionBackend` runs them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import repro.workloads  # noqa: F401  -- populates the workload registry
from repro.sim.captrace import ReplayMachine
from repro.systems import Session, get_system
from repro.workloads.base import REGISTRY, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.spec import RunSpec
    from repro.experiments.summary import RunSummary
    from repro.systems.base import SystemBackend


def _prepare(spec: "RunSpec"
             ) -> tuple["SystemBackend", Session, WorkloadSpec]:
    """The backend, the configured session and the built workload a
    spec describes -- everything but the run itself."""
    backend = get_system(spec.system)
    workload = REGISTRY.build(spec.workload, spec.scale, **dict(spec.args))
    session = (Session(backend, spec.config)
               .params(spec.params).policy(spec.policy).limit(spec.limit)
               .background(spec.background).timing(spec.timing_model))
    return backend, session, workload


def execute(spec: "RunSpec") -> "RunSummary":
    """Run one spec to completion and return its plain-data summary.

    Deterministic: the simulation is a pure function of the spec, so
    equal specs produce equal summaries in any process.  The system is
    resolved purely through :data:`repro.systems.SYSTEM_REGISTRY`, so
    any registered backend -- built-in or custom -- executes the same
    way.  (Backends registered at runtime exist only in the
    registering process; run them through a serial Runner.)
    """
    backend, session, workload = _prepare(spec)
    return backend.summarize(session.run(workload), spec)


def execute_captured(spec: "RunSpec"):
    """Run one spec execution-driven with trace capture.

    Returns ``(summary, trace)`` where ``trace`` is a
    :class:`~repro.sim.captrace.CapturedTrace` with the summary
    attached as its snapshot (everything picklable, so workers can
    ship it back).
    """
    backend, session, workload = _prepare(spec)
    run = session.capture().run(workload)
    summary = backend.summarize(run, spec)
    trace = run.trace
    trace.snapshot = summary
    return summary, trace


def execute_replay_group(specs: Sequence["RunSpec"]) -> list["RunSummary"]:
    """Run one replay class: capture ``specs[0]``, replay the rest.

    Returns summaries in input order; the first is execution-driven
    (``timing="execute"``), the rest trace-driven re-pricings of it
    (``timing="replay"``).
    """
    summary, trace = execute_captured(specs[0])
    replayer = ReplayMachine(trace)
    return [summary] + [replayer.run(spec=spec) for spec in specs[1:]]


def run_group(group: Sequence["RunSpec"]) -> list["RunSummary"]:
    """Run one planned task group (singleton or replay class)."""
    if len(group) > 1:
        return execute_replay_group(group)
    return [execute(group[0])]


class ExecutionBackend:
    """Runs planned task groups, inline or on a shared process pool.

    The plan decides which: a plan of one group (or any plan, with
    ``parallel=False``) runs inline on the calling thread --
    deterministic, and registry-local backends and timing models stay
    visible -- while a wider plan fans out over a worker pool that
    persists across plans, so many concurrent jobs draw from one set
    of workers.  The pool never has more workers than the widest plan
    it has served, up to ``max_workers``.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 parallel: bool = True,
                 run_group_fn: Optional[Callable] = None) -> None:
        self.max_workers = max_workers or os.cpu_count() or 1
        self.parallel = parallel and self.max_workers > 1
        self._run_group = run_group_fn or run_group
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_width = 0
        self._lock = threading.Lock()

    def run(self, groups: Sequence[Sequence["RunSpec"]]
            ) -> Iterator[tuple[Sequence["RunSpec"],
                                "Future[list[RunSummary]]"]]:
        """Run every group; yield ``(group, finished future)`` pairs in
        completion order.  A failed group's future holds its
        exception, so one failure neither hides nor stops the rest."""
        if self.parallel and len(groups) > 1:
            with self._lock:
                pool = self._widen_pool(len(groups))
                futures = {pool.submit(self._run_group, group): group
                           for group in groups}
            for future in as_completed(futures):
                yield futures[future], future
            return
        for group in groups:
            future: Future = Future()
            try:
                future.set_result(self._run_group(group))
            except Exception as exc:
                future.set_exception(exc)
            yield group, future

    def _widen_pool(self, groups: int) -> ProcessPoolExecutor:
        # caller holds the lock; a replaced pool finishes the groups
        # already submitted to it and then exits
        width = min(self.max_workers, groups)
        if self._pool is None or width > self._pool_width:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
            self._pool = ProcessPoolExecutor(max_workers=width)
            self._pool_width = width
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down, waiting for its running groups."""
        with self._lock:
            pool, self._pool, self._pool_width = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)
