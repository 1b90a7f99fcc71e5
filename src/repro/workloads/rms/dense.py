"""RMS dense linear-algebra kernels: dense_mmm, dense_mvm, dense_mvm_sym.

The RMS suite "includes kernels of code for matrix multiplication
(both dense and sparse)" (Section 5.2).  Each kernel is written
against the ShredLib API with the structure of the real algorithm:

* ``dense_mmm`` -- blocked C = A*B; the main shred initializes A and B
  (its compulsory faults land on the OMS), worker tasks first-touch
  their C blocks and workspace (their faults are AMS proxy events).
* ``dense_mvm`` -- y = A*x, row-striped, single pass.
* ``dense_mvm_sym`` -- y = A*x with A symmetric packed (triangular
  storage), iterated power-method style; triangular row blocks give
  the tasks a deterministic work skew.

Work amounts (cycles) and page-profile targets come from the paper's
Table 1 event counts for these kernels; the report's Table 1
(``python -m repro.analysis.report``) prints the measured counts next
to the paper's.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.ops import Op
from repro.shredlib.api import ShredAPI
from repro.workloads.base import REGISTRY, WorkloadSpec
from repro.workloads.common import (
    WORK_CHUNK, chunk_ranges, jittered, parallel_for,
)


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(value * scale))


def make_dense_mmm(scale: float = 1.0) -> WorkloadSpec:
    """Blocked dense matrix-matrix multiply."""
    input_pages = _scaled(29, scale)       # A and B (paper OMS PF: 29)
    output_pages = _scaled(133, scale)     # C + per-task workspace (AMS PF: 133)
    total_work = _scaled(2_080_000_000, scale)
    serial_work = _scaled(20_000_000, scale)
    ntasks = 64

    def build(api: ShredAPI, nworkers: int) -> Iterator[Op]:
        ctx = api.ctx
        inputs = ctx.reserve("AB", input_pages)
        output = ctx.reserve("C", output_pages)
        rng = ctx.rng(1)

        def block_task(tid: int, page_start: int, page_count: int) -> Iterator[Op]:
            # first touch of this task's C block: compulsory fault
            yield from ctx.touch_range(output, page_start, page_count, write=True)
            yield from ctx.compute(jittered(total_work // ntasks, 0.05, rng),
                                   chunk=WORK_CHUNK)

        def main() -> Iterator[Op]:
            # serial: initialize A and B on the main shred
            yield from ctx.touch_range(inputs, 0, input_pages, write=True)
            yield from ctx.compute(serial_work, chunk=WORK_CHUNK)
            blocks = chunk_ranges(output_pages, ntasks)
            bodies = [block_task(i, start, count)
                      for i, (start, count) in enumerate(blocks)]
            yield from parallel_for(api, bodies, name="mmm")

        return main()

    return WorkloadSpec("dense_mmm", "rms", build,
                        description="blocked dense matrix-matrix multiply")


def make_dense_mvm(scale: float = 1.0) -> WorkloadSpec:
    """Row-striped dense matrix-vector multiply."""
    input_pages = _scaled(1, scale)
    output_pages = _scaled(5, scale)
    total_work = _scaled(770_000_000, scale)
    serial_work = _scaled(36_000_000, scale)
    ntasks = 32

    def build(api: ShredAPI, nworkers: int) -> Iterator[Op]:
        ctx = api.ctx
        vec = ctx.reserve("x", input_pages)
        out = ctx.reserve("y", output_pages)
        rng = ctx.rng(2)

        def stripe_task(tid: int, page: int) -> Iterator[Op]:
            yield from ctx.touch_range(out, page, 1, write=True)
            yield from ctx.compute(jittered(total_work // ntasks, 0.03, rng),
                                   chunk=WORK_CHUNK)

        def main() -> Iterator[Op]:
            yield from ctx.touch_range(vec, 0, input_pages, write=True)
            yield from ctx.compute(serial_work, chunk=WORK_CHUNK)
            bodies = [stripe_task(i, i % output_pages) for i in range(ntasks)]
            yield from parallel_for(api, bodies, name="mvm")

        return main()

    return WorkloadSpec("dense_mvm", "rms", build,
                        description="row-striped dense matrix-vector multiply")


def make_dense_mvm_sym(scale: float = 1.0) -> WorkloadSpec:
    """Symmetric-packed matrix-vector multiply, power-iterated."""
    input_pages = _scaled(2, scale)
    output_pages = _scaled(9, scale)
    iterations = 16
    total_work = _scaled(16_500_000_000, scale)
    serial_work = _scaled(337_000_000, scale)
    ntasks = 64

    def build(api: ShredAPI, nworkers: int) -> Iterator[Op]:
        ctx = api.ctx
        vec = ctx.reserve("x", input_pages)
        out = ctx.reserve("y", output_pages)
        work_per_iter = total_work // iterations
        serial_per_iter = serial_work // iterations

        def tri_task(tid: int, iteration: int) -> Iterator[Op]:
            if iteration == 0:
                yield from ctx.touch_range(out, tid % output_pages, 1, write=True)
            # triangular storage: task tid covers rows with ~linear skew
            share = 2 * (tid + 1) / (ntasks * (ntasks + 1))
            yield from ctx.compute(max(1, int(work_per_iter * share)),
                                   chunk=WORK_CHUNK)

        def main() -> Iterator[Op]:
            yield from ctx.touch_range(vec, 0, input_pages, write=True)
            for iteration in range(iterations):
                bodies = [tri_task(i, iteration) for i in range(ntasks)]
                yield from parallel_for(api, bodies, name="mvmsym")
                # serial: normalize the iterate
                yield from ctx.compute(serial_per_iter, chunk=WORK_CHUNK)

        return main()

    return WorkloadSpec("dense_mvm_sym", "rms", build,
                        description="symmetric dense MVM (power iteration)")


REGISTRY.register(make_dense_mmm(), factory=make_dense_mmm)
REGISTRY.register(make_dense_mvm(), factory=make_dense_mvm)
REGISTRY.register(make_dense_mvm_sym(), factory=make_dense_mvm_sym)
