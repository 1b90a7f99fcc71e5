"""Execute experiment grids: the batch face of ``repro.service``.

The :class:`Runner` takes :class:`~repro.experiments.spec.RunSpec`
grids and returns :class:`~repro.experiments.summary.RunSummary`
values, guaranteeing that each *unique* simulation executes exactly
once per process (in-memory run table), at most once per machine when
an on-disk store directory is configured, and that independent runs
execute concurrently in worker processes.

It is an :class:`~repro.service.ExperimentService` -- the same run
table (finished and in-flight runs) -> store -> executor resolution,
the same :class:`~repro.service.ServiceStats` -- with a per-call
worker pool.  Every summary it returns was executed: re-pricing a
captured trace under other timing parameters is the explicit
:class:`~repro.sim.captrace.ReplayMachine` API, never a Runner mode.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.service import ExperimentResult, ExperimentService, store_from_env
from repro.service.store import _env_bound


class Runner(ExperimentService):
    """Deduplicating, caching, parallel experiment executor.

    An :class:`~repro.service.ExperimentService` (same constructor:
    ``store`` takes a :class:`~repro.service.ResultStore` or a
    directory) whose worker pool lives for one synchronous call: it
    is shut down before :meth:`run`, :meth:`run_many` or
    :meth:`run_experiment` returns.  Batches run for seconds to
    minutes, so spawn cost is noise, and a long-lived Runner (the
    process-wide default) never holds idle worker processes between
    experiments.
    """

    def run_experiment(self, experiment: Union[ExperimentSpec,
                                               Iterable[RunSpec]]
                       ) -> ExperimentResult:
        try:
            return super().run_experiment(experiment)
        finally:
            self.close()


# ----------------------------------------------------------------------
# Process-wide default runner (one run table across analysis modules)
# ----------------------------------------------------------------------
_default_runner: Optional[Runner] = None


def runner_from_env() -> Runner:
    """A Runner configured from the documented environment knobs:
    ``REPRO_CACHE_DIR`` enables the on-disk store
    (``REPRO_STORE_MAX_ENTRIES`` / ``REPRO_STORE_MAX_BYTES`` bound it),
    ``REPRO_MAX_WORKERS`` bounds parallelism, ``REPRO_SERIAL=1`` forces
    serial in-process execution.  A worker count or store bound that
    is not a positive integer is a
    :class:`~repro.errors.ConfigurationError` naming the variable and
    its value."""
    max_workers = _env_bound("REPRO_MAX_WORKERS")
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return Runner(
        store=store_from_env(cache_dir) if cache_dir else None,
        max_workers=max_workers,
        parallel=os.environ.get("REPRO_SERIAL", "") not in ("1", "true"),
    )


def default_runner() -> Runner:
    """The process-wide shared Runner (built via :func:`runner_from_env`).

    Sharing one run table across the analysis drivers is what lets a
    single 1P baseline serve Figure 4, Figure 5, and Table 1 in one
    process.
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = runner_from_env()
    return _default_runner
