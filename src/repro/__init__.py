"""repro: a reproduction of "Multiple Instruction Stream Processor"
(Hankins et al., ISCA 2006).

The package implements the MISP architecture -- sequencers as
user-visible architectural resources, the SIGNAL instruction,
YIELD-CONDITIONAL asynchronous control transfer, proxy execution, and
ring-transition serialization -- on a discrete-event machine simulator
with a model OS kernel, plus the ShredLib user-level threading runtime
and the paper's full Section 5 evaluation.

Quick start: every system (MISP, SMP, 1P, multiprogramming, hybrid
partitions, plus any backend you register) runs through one
:class:`~repro.systems.Session`::

    from repro.systems import Session

    base = Session("1p").run("RayTracer", scale=0.1)
    misp = Session("misp", "1x8").run("RayTracer", scale=0.1)
    hybrid = Session("hybrid", "1x4+1x2").run("RayTracer", scale=0.1)
    print("speedup:", base.cycles / misp.cycles,
          "hybrid:", base.cycles / hybrid.cycles)

Whole experiment grids (with shared-run deduplication, parallel
execution, and on-disk caching) go through :mod:`repro.experiments`::

    from repro.experiments import ExperimentSpec, Runner

    exp = ExperimentSpec.grid("demo", ["RayTracer"], scale=0.1)
    for summary in Runner().run_experiment(exp).summaries():
        print(summary.system, summary.cycles)
"""

from repro.errors import ReproError
from repro.params import DEFAULT_PARAMS, PAGE_SIZE, MachineParams

__version__ = "1.1.0"

__all__ = ["ReproError", "DEFAULT_PARAMS", "PAGE_SIZE", "MachineParams",
           "Session", "SYSTEM_REGISTRY", "SystemBackend", "get_system",
           "register_system", "TIMING_REGISTRY", "TimingModel",
           "get_timing", "register_timing", "__version__"]

#: names resolved lazily so ``import repro`` stays dependency-light
_LAZY_SYSTEMS = {"Session", "SYSTEM_REGISTRY", "SystemBackend",
                 "get_system", "register_system"}
_LAZY_TIMING = {"TIMING_REGISTRY", "TimingModel", "get_timing",
                "register_timing"}


def __getattr__(name: str):
    if name in _LAZY_SYSTEMS:
        import repro.systems as systems
        return getattr(systems, name)
    if name in _LAZY_TIMING:
        import repro.timing as timing
        return getattr(timing, name)
    raise AttributeError(f"module 'repro' has no attribute '{name}'")
