"""The execution layer: policy-free simulation running.

:func:`execute` is the single entry point that maps a spec to a
finished summary; it is a module-level function so
``ProcessPoolExecutor`` can ship it to workers.  :func:`plan_groups`
partitions a batch of specs into task groups (singletons, or
capture-plus-replay classes), :func:`run_group` runs one group, and
the :class:`ExecutionBackend` runs a whole plan, inline or on a
shared process pool.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import repro.workloads  # noqa: F401  -- populates the workload registry
from repro.errors import ConfigurationError
from repro.sim.captrace import REPLAY_SAFE_FIELDS, ReplayMachine
from repro.systems import Session, get_system
from repro.timing import get_timing
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


def replay_class(spec: "RunSpec") -> Optional[str]:
    """Grouping key for specs replayable from one shared capture.

    Two specs share a class when they differ only in
    :data:`~repro.sim.captrace.REPLAY_SAFE_FIELDS` timing parameters.
    Returns None when the spec's backend cannot capture at all, or
    when its timing model prices ops from occupancy (only the
    constant-cost ``fixed`` model records replayable decompositions).
    """
    if not get_system(spec.system).supports_capture:
        return None
    if not get_timing(spec.timing_model).supports_capture:
        return None
    ident = spec.to_dict()
    ident["params"] = {k: v for k, v in ident["params"].items()
                      if k not in REPLAY_SAFE_FIELDS}
    return json.dumps(ident, sort_keys=True)


def plan_groups(specs: Sequence["RunSpec"],
                replay: bool) -> list[list["RunSpec"]]:
    """Partition unique specs into the task groups :func:`run_group`
    runs.

    Without replay every spec is its own execution-driven group, in
    input order.  With replay, the specs that cannot share a capture
    (see :func:`replay_class`) come first as singletons, then one
    group per replay class: classes in order of their first member,
    members in input order.
    """
    if not replay:
        return [[spec] for spec in specs]
    singletons: list[list["RunSpec"]] = []
    classes: dict[str, list["RunSpec"]] = {}
    for spec in specs:
        key = replay_class(spec)
        if key is None:
            singletons.append([spec])
        else:
            classes.setdefault(key, []).append(spec)
    return singletons + list(classes.values())


def run_group(group: Sequence["RunSpec"]) -> list["RunSummary"]:
    """Run one planned task group; summaries come back in group order.

    A singleton executes.  A replay class captures ``group[0]``
    execution-driven (``timing="execute"``) and re-prices the rest from
    that trace (``timing="replay"``).
    """
    if len(group) == 1:
        return [execute(group[0])]
    summary, trace = execute_captured(group[0])
    replayer = ReplayMachine(trace)
    return [summary] + [replayer.run(spec=spec) for spec in group[1:]]


class ExecutionBackend:
    """Runs planned task groups, inline or on a shared process pool.

    The plan decides which: a plan of one group (or any plan, with
    ``parallel=False``) runs inline on the calling thread --
    deterministic, and registry-local backends and timing models stay
    visible -- while a wider plan fans out over a worker pool that
    persists across plans, so many concurrent jobs draw from one set
    of workers.  The pool never has more workers than the widest plan
    it has served, up to ``max_workers``.

    A worker that dies breaks its pool, and every group still on it
    fails with ``BrokenProcessPool``, whether the worker died under a
    group or while the pool sat idle.  :func:`run_group` is a pure
    function of its specs, so each such group runs once more, alone
    on a fresh pool, where only its own worker can break it; a group
    that fails there too keeps its exception.

    ``max_workers`` is a positive ``int``, or None for every core;
    anything else is a :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 parallel: bool = True,
                 run_group_fn: Optional[Callable] = None) -> None:
        if max_workers is not None and (type(max_workers) is not int
                                        or max_workers <= 0):
            raise ConfigurationError(
                "max_workers must be a positive integer or None, "
                f"got {max_workers!r}")
        # os.cpu_count() reads a file; only a parallel backend needs it
        self.max_workers = max_workers or (parallel and os.cpu_count()) or 1
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
            broken = []
            for group, future in self._run_on_pool(groups):
                if isinstance(future.exception(), BrokenProcessPool):
                    broken.append(group)
                else:
                    yield group, future
            for group in broken:
                yield from self._run_on_pool([group])
            return
        for group in groups:
            future: Future = Future()
            try:
                future.set_result(self._run_group(group))
            except Exception as exc:
                future.set_exception(exc)
            yield group, future

    def _run_on_pool(self, groups: Sequence[Sequence["RunSpec"]]
                     ) -> Iterator[tuple[Sequence["RunSpec"], Future]]:
        """One attempt at every group on the shared pool, yielded in
        completion order; a pool found broken is retired."""
        futures: dict[Future, Sequence["RunSpec"]] = {}
        with self._lock:
            pool = self._widen_pool(len(groups))
            for group in groups:
                try:
                    future = pool.submit(self._run_group, group)
                except BrokenProcessPool as exc:
                    # flagged broken before this plan reached it
                    future = Future()
                    future.set_exception(exc)
                futures[future] = group
        for future in as_completed(futures):
            if isinstance(future.exception(), BrokenProcessPool):
                self._retire(pool)
            yield futures[future], future

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

    def _retire(self, pool: ProcessPoolExecutor) -> None:
        """Drop a pool a dead worker broke, so the next plan builds a
        fresh one instead of failing on it for good."""
        with self._lock:
            if self._pool is not pool:
                return
            self._pool, self._pool_width = None, 0
        pool.shutdown(wait=False)

    def close(self) -> None:
        """Shut the worker pool down, waiting for its running groups."""
        with self._lock:
            pool, self._pool, self._pool_width = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)
