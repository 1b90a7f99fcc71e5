"""SPEComp application proxies: swim, applu, galgel, equake, art.

The paper runs five SPEComp benchmarks (reference inputs) through a
MISP-enabled OpenMP runtime (Section 5.2).  We cannot run the Fortran
originals, so each is a synthetic proxy that preserves what MISP can
see of the application:

* the OpenMP structure -- alternating serial stanzas and parallel
  regions with implicit barriers over exactly N workers;
* the serializing-event profile of Table 1 -- per-iteration syscalls
  (file I/O) and fresh OMS page touches in the serial stanza, fresh
  first-touch slices per worker in the parallel regions (the AMS
  proxy faults), scaled by ``EVENT_SCALE``;
* per-application scalability (galgel the poorest, swim the best).

All event targets are 1/50 of the paper's Table 1 counts
(``EVENT_SCALE``): the reference runs are minutes long on 3 GHz
hardware and simulating them 1:1 buys no additional fidelity --
the *rates* are what the overhead model consumes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from repro.exec.ops import Op
from repro.shredlib.api import ShredAPI
from repro.workloads.base import REGISTRY, WorkloadSpec
from repro.workloads.common import (
    WORK_CHUNK, chunk_ranges, jittered, parallel_region,
)

#: global event scale relative to the paper's Table 1 counts
EVENT_SCALE = 1.0 / 50.0


@dataclass(frozen=True)
class SpecProfile:
    """Per-application proxy parameters (post-EVENT_SCALE)."""

    name: str
    iterations: int
    #: main-shred syscalls over the whole run
    syscalls: int
    #: pages the main shred touches at init
    init_pages: int
    #: fresh pages the main shred touches per iteration (serial stanza)
    oms_pages_per_iter: int
    #: fresh pages worker shreds first-touch per iteration (all workers)
    shred_pages_per_iter: int
    #: total parallel work, cycles
    parallel_work: int
    #: total serial work, cycles
    serial_work: int
    #: worker syscalls over the whole run (art only, Table 1: 436)
    worker_syscalls: int = 0
    #: per-worker load variance inside a region
    worker_cv: float = 0.04


PROFILES = {
    "swim": SpecProfile(
        name="swim", iterations=120, syscalls=1540, init_pages=400,
        oms_pages_per_iter=6, shred_pages_per_iter=58,
        parallel_work=24_000_000_000, serial_work=720_000_000),
    "applu": SpecProfile(
        name="applu", iterations=100, syscalls=28, init_pages=600,
        oms_pages_per_iter=6, shred_pages_per_iter=65,
        parallel_work=13_000_000_000, serial_work=650_000_000),
    "galgel": SpecProfile(
        name="galgel", iterations=80, syscalls=18, init_pages=1000,
        oms_pages_per_iter=25, shred_pages_per_iter=35,
        parallel_work=8_900_000_000, serial_work=1_500_000_000,
        worker_cv=0.12),
    "equake": SpecProfile(
        name="equake", iterations=60, syscalls=919, init_pages=400,
        oms_pages_per_iter=9, shred_pages_per_iter=28,
        parallel_work=5_300_000_000, serial_work=560_000_000),
    "art": SpecProfile(
        name="art", iterations=64, syscalls=400, init_pages=1500,
        oms_pages_per_iter=18, shred_pages_per_iter=43,
        parallel_work=6_500_000_000, serial_work=540_000_000,
        worker_syscalls=9),
}


def make_speccomp(name: str, scale: float = 1.0) -> WorkloadSpec:
    """Build one SPEComp proxy; ``scale`` shrinks it further for tests."""
    profile = PROFILES[name]

    def scaled(v: int, minimum: int = 0) -> int:
        return max(minimum, int(v * scale))

    iterations = max(2, int(profile.iterations * min(1.0, scale * 4)))

    def build(api: ShredAPI, nworkers: int) -> Iterator[Op]:
        ctx = api.ctx
        init_pages = scaled(profile.init_pages, 1)
        oms_pp = scaled(profile.oms_pages_per_iter * profile.iterations, 0)
        shred_pp = scaled(profile.shred_pages_per_iter * profile.iterations, 0)
        init = ctx.reserve("init", init_pages)
        oms_stream = ctx.reserve("serial_buffers", max(1, oms_pp))
        shred_stream = ctx.reserve("worker_arrays", max(1, shred_pp))
        rng = ctx.rng(61)

        par_per_iter = scaled(profile.parallel_work) // iterations
        ser_per_iter = scaled(profile.serial_work) // iterations
        syscalls_per_iter = scaled(profile.syscalls, 0) / iterations
        wsys_total = scaled(profile.worker_syscalls, 0)
        oms_slices = chunk_ranges(max(1, oms_pp), iterations)
        shred_slices = chunk_ranges(max(1, shred_pp), iterations)

        def region_worker(wid: int, iteration: int) -> Iterator[Op]:
            # each worker first-touches its slice of this iteration's
            # fresh arrays (the AMS compulsory faults of Table 1)
            start, count = shred_slices[iteration]
            offset, w_count = chunk_ranges(count, nworkers)[wid]
            w_start = start + offset
            if w_count > 0:
                yield from ctx.touch_range(shred_stream, w_start, w_count,
                                           write=True)
            if wsys_total and wid == 1 + (iteration % max(1, nworkers - 1)):
                if iteration % max(1, iterations // wsys_total) == 0:
                    yield from ctx.syscall("io")
            yield from ctx.compute(
                jittered(par_per_iter // nworkers, profile.worker_cv, rng),
                chunk=WORK_CHUNK)

        def main() -> Iterator[Op]:
            yield from ctx.touch_range(init, 0, init_pages, write=True)
            syscall_debt = 0.0
            for iteration in range(iterations):
                # --- serial stanza: I/O and bookkeeping ------------------
                start, count = oms_slices[iteration]
                if count > 0:
                    yield from ctx.touch_range(oms_stream, start, count,
                                               write=True)
                syscall_debt += syscalls_per_iter
                while syscall_debt >= 1.0:
                    yield from ctx.syscall("write")
                    syscall_debt -= 1.0
                yield from ctx.compute(max(1, ser_per_iter), chunk=WORK_CHUNK)
                # --- parallel region (implicit barrier at join) ----------
                yield from parallel_region(
                    api, nworkers, lambda w: region_worker(w, iteration),
                    name=f"{profile.name}-r{iteration}")

        return main()

    return WorkloadSpec(name, "speccomp", build,
                        description=f"SPEComp proxy for {name} "
                                    f"(events at 1/50 of Table 1)")


for _name in PROFILES:
    REGISTRY.register(make_speccomp(_name),
                      factory=functools.partial(make_speccomp, _name))
