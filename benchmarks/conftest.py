"""Shared configuration of the artifact tests.

Each test regenerates one of the paper's tables or figures by
declaring its run grid against :mod:`repro.experiments` and consuming
``RunSummary`` values from a :class:`~repro.experiments.Runner`, then
asserts the artifact's shape.  Simulated experiments are
deterministic, so every test runs its grid exactly once.  Timing the
repository is ``bench/``'s job (see ``bench/README.md``).

``BENCH_SCALE`` scales the workloads: 1.0 is the full-size run, the
default keeps the suite quick.  Event *structure* (syscall counts,
page profiles, curve shapes) is scale-invariant; timer counts shrink
with the scale.

The Runner honors the library-wide knobs documented on
:func:`repro.experiments.runner_from_env`: ``REPRO_MAX_WORKERS``
bounds worker processes, ``REPRO_SERIAL=1`` forces in-process serial
execution, and ``REPRO_CACHE_DIR`` makes repeat invocations
incremental.
"""

import pytest

from repro.experiments import runner_from_env

#: workload scale for the artifact tests
BENCH_SCALE = 0.25

#: RayTracer scale for the Figure 7 sweep (45 machine runs)
FIG7_RT_SCALE = 0.08


@pytest.fixture()
def runner():
    """A fresh Runner per test, so its stats stay independent."""
    return runner_from_env()
