"""Pluggable system backends and the composable Session API.

The MISP paper treats sequencer topology as an architectural
resource; this package treats *systems* -- ways of laying an
application onto a partition -- as pluggable values:

* :class:`SystemBackend` + :data:`SYSTEM_REGISTRY` -- the protocol
  and the name -> backend registry (``misp``, ``smp``, ``1p``,
  ``multiprog``, ``hybrid`` built in).  Registering a backend is
  sufficient to make it spec-able through
  :class:`~repro.experiments.spec.RunSpec`, cacheable, and grid-able.
* :class:`Session` -- the fluent builder that composes a backend with
  configuration/params/policy/limit/background and runs workloads.

Quick start::

    from repro.systems import SYSTEM_REGISTRY, Session

    misp = Session("misp", "1x8").run("RayTracer", scale=0.1)
    hyb = Session("hybrid", "1x4+1x2").run("RayTracer", scale=0.1)
    print(misp.cycles, hyb.cycles, SYSTEM_REGISTRY.names())
"""

from repro.systems.base import (
    SYSTEM_REGISTRY, StagedRun, SystemBackend, get_system, register_system,
)
from repro.systems.backends import (
    HYBRID, MISP, MULTIPROG, ONE_P, SMP, HybridBackend, MispBackend,
    MultiprogBackend, OnePBackend, SmpBackend,
)
from repro.systems.session import Session

__all__ = [
    "SYSTEM_REGISTRY", "StagedRun", "SystemBackend", "get_system",
    "register_system",
    "HYBRID", "MISP", "MULTIPROG", "ONE_P", "SMP", "HybridBackend",
    "MispBackend", "MultiprogBackend", "OnePBackend", "SmpBackend",
    "Session",
]
