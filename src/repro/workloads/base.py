"""Workload interface for the evaluation harness.

A workload is a multi-shredded application written against the public
:class:`~repro.shredlib.api.ShredAPI`.  The same body runs on every
system configuration:

* on **MISP**, the main shred runs inside one OS thread whose gang
  schedulers occupy the OMS and (via ``SIGNAL``) the AMSs;
* on the **SMP baseline**, the gang schedulers run as one OS thread
  per core;
* on the **1P baseline**, a single gang scheduler runs everything
  sequentially (the denominator of Figure 4's speedups).

``build(api, nworkers)`` returns the main shred's generator;
``nworkers`` is how many gang schedulers will drain the queue, so the
workload can size its shred count (M >= N, Section 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.exec.ops import Op
from repro.registry import Registry
from repro.shredlib.api import ShredAPI

#: signature of a workload main-shred factory
BuildFn = Callable[[ShredAPI, int], Iterator[Op]]

#: signature of a spec factory: ``factory(scale=..., **kwargs)`` builds
#: a (possibly scaled or otherwise parameterized) WorkloadSpec
SpecFactory = Callable[..., "WorkloadSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark application."""

    name: str
    #: "rms", "speccomp", "micro", or "legacy"
    suite: str
    build: BuildFn
    description: str = ""
    #: deterministic seed fed to the workload's RNG streams
    seed: int = 0

    def instantiate(self, api: ShredAPI, nworkers: int) -> Iterator[Op]:
        return self.build(api, nworkers)


def check_scale(scale: Optional[float]) -> None:
    """Reject a workload scale that is not a positive, finite number
    (``None`` means full size)."""
    if scale is not None and not (math.isfinite(scale) and scale > 0):
        raise ConfigurationError(f"scale must be positive and finite: {scale}")


class _WorkloadRegistry(Registry[WorkloadSpec]):
    """Full-size specs plus each workload's *spec factory*, so scaled
    (or otherwise parameterized) variants are constructed uniformly by
    name everywhere -- the experiment layer resolves every
    :class:`repro.experiments.RunSpec` through :meth:`build`.

    Names match exactly: ``RayTracer`` and ``ADAt`` are spelled as-is
    in every spec hash.
    """

    def __init__(self) -> None:
        super().__init__("workload", key=str)
        self._factories: dict[str, Optional[SpecFactory]] = {}

    def register(self, spec: WorkloadSpec,
                 factory: Optional[SpecFactory] = None, *,
                 replace: bool = False) -> WorkloadSpec:
        super().register(spec, replace=replace)
        self._factories[spec.name] = factory
        return spec

    def build(self, name: str, scale: Optional[float] = None,
              **kwargs) -> WorkloadSpec:
        """Construct the named workload, optionally scaled.

        ``scale=None`` with no extra arguments returns the registered
        full-size spec; anything else goes through the workload's
        registered factory (``factory(scale=..., **kwargs)``).  A
        scale that is not positive and finite is a ConfigurationError.
        """
        check_scale(scale)
        spec = self.get(name)
        if scale is None and not kwargs:
            return spec
        factory = self._factories[name]
        if factory is None:
            raise KeyError(
                f"workload '{name}' has no spec factory; it cannot be "
                "scaled or parameterized")
        return factory(scale=1.0 if scale is None else scale, **kwargs)

    def by_suite(self, suite: str) -> list[WorkloadSpec]:
        return [s for s in self.values() if s.suite == suite]


#: the process-wide registry populated by the rms/, speccomp/ and
#: legacy/ modules
REGISTRY = _WorkloadRegistry()
