"""Experiment orchestration: declarative run specs, a deduplicating
parallel Runner, and serializable run summaries.

The subsystem separates *what to simulate* from *how it executes*:

* :class:`RunSpec` -- one simulation (workload x system x config x
  params x scale) as content-hashable plain data;
* :class:`ExperimentSpec` -- a named grid of RunSpecs (a figure);
* :class:`Runner` -- executes grids with shared-run deduplication,
  process-pool parallelism, and an on-disk result store (an
  :class:`~repro.service.ExperimentService` with a per-call pool;
  the execution entry points live in :mod:`repro.service`);
* :class:`RunSummary` -- the plain-data, picklable result that crosses
  process boundaries (the live :class:`~repro.workloads.runner.RunResult`
  stays in-process).

Systems are resolved through :data:`repro.systems.SYSTEM_REGISTRY`:
``SYSTEMS`` and ``DEFAULT_CONFIGS`` are live views over it, and
registering a :class:`~repro.systems.base.SystemBackend` is all it
takes to make a new system spec-able, grid-able, and cacheable.

Quick start::

    from repro.experiments import ExperimentSpec, Runner

    exp = ExperimentSpec.grid("demo", ["RayTracer", "gauss"],
                              systems=("1p", "misp", "smp"), scale=0.1)
    runner = Runner(cache_dir="~/.cache/repro")
    result = runner.run_experiment(exp)
    for summary in result.summaries():
        print(summary.workload, summary.system, summary.cycles)
"""

from repro.experiments.runner import (
    Runner, default_runner, runner_from_env, set_default_runner,
)
from repro.experiments.spec import (
    DEFAULT_CONFIGS, FIGURE7_SEQUENCERS, SYSTEMS, ExperimentSpec, RunSpec,
)
from repro.experiments.summary import (
    EVENT_KEYS, MemorySummary, ProxySummary, RunSummary,
    UtilizationSummary, summarize_multiprog, summarize_run,
)
from repro.service import ExperimentResult

__all__ = [
    "ExperimentResult", "Runner", "default_runner", "runner_from_env",
    "set_default_runner",
    "DEFAULT_CONFIGS", "FIGURE7_SEQUENCERS", "SYSTEMS", "ExperimentSpec",
    "RunSpec", "EVENT_KEYS", "MemorySummary", "ProxySummary", "RunSummary",
    "UtilizationSummary", "summarize_multiprog", "summarize_run",
]
