"""Multiprogramming driver for the Figure 7 experiment (Section 5.4).

"Figure 7 shows the performance of RayTracer as non-shredded
applications are gradually added to the system."  The measured
application is the multi-shredded RayTracer; the load is N
single-threaded, CPU-bound background processes.  The kernel scheduler
is shred-oblivious, so on configurations with few OMSs the background
processes time-share the OMS that drives RayTracer's AMSs -- and every
quantum the RayTracer thread loses also idles its AMSs, which is the
effect the figure quantifies.

Configurations are the Figure 6 partitions of eight sequencers
("4x2", "2x4", "1x8", "1x7+1", ... "1x4+4"), plus "smp" (the 8-way SMP
baseline running RayTracer as eight worker threads) and "ideal" (the
per-load uneven partition 1x(8-N)+N that gives each background process
its own AMS-less OMS).

The staging and drive loop live in
:class:`repro.systems.backends.MultiprogBackend`, and the Figure 7
sweep (every series' speedup-vs-unloaded curve) is declared and run
by :func:`repro.analysis.figure7.run_figure7`.  This module keeps the
driver-level constants and the CPU-bound :func:`background_body` the
backend stages.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.ops import Compute, Op

#: RayTracer size used for the sweep (full scale is unnecessarily slow
#: for a 45-run experiment; the curve is a ratio of its own runtimes)
DEFAULT_RT_SCALE = 0.15

#: simulation slice while polling for application completion
MULTIPROG_SLICE = 100_000_000

#: absolute per-run budget before declaring a hang (the multiprog
#: backend's default cycle limit)
MULTIPROG_HORIZON = 200_000_000_000


def background_body() -> Iterator[Op]:
    """A single-threaded, CPU-bound process that never exits."""
    while True:
        yield Compute(100_000)
