"""Shared building blocks for the evaluation workloads.

The RMS kernels and SPEComp proxies are written against the public
ShredLib API using two parallel idioms:

* **task-queue data parallelism** (:func:`parallel_for`): the work is
  split into M >> N tasks pushed through the shared work queue --
  natural load balancing, the idiom of the RMS kernels and RayTracer;
* **OpenMP-style parallel regions** (:func:`parallel_region`): exactly
  N worker shreds per region with join (barrier) semantics -- the
  idiom of the SPEComp applications, which the paper ran through a
  MISP-enabled OpenMP runtime.

Compute amounts are expressed in cycles; structure (phases, barriers,
first-touch patterns, syscalls) is what shapes the Table 1 event
profiles and the Figure 4 scalability of each application.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence

from repro.exec.ops import Op
from repro.shredlib.api import ShredAPI
from repro.shredlib.shred import Shred

#: compute chunk used by workloads (coarser than the context default;
#: still far below the 2M-cycle timer quantum)
WORK_CHUNK = 100_000


def chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous (start, count)."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        count = base + (1 if i < extra else 0)
        ranges.append((start, count))
        start += count
    return ranges


def jittered(amount: int, cv: float, rng: random.Random) -> int:
    """A work amount with coefficient-of-variation ``cv`` (load imbalance)."""
    if cv <= 0:
        return amount
    factor = max(0.1, rng.gauss(1.0, cv))
    return max(1, int(amount * factor))


def parallel_for(api: ShredAPI, bodies: Sequence[Iterator[Op]],
                 name: str = "task") -> Iterator[Op]:
    """Run task bodies to completion through the shared work queue."""
    shreds: list[Shred] = []
    for i, body in enumerate(bodies):
        shred = yield from api.create(body, name=f"{name}-{i}")
        shreds.append(shred)
    yield from api.join_all(shreds)


def parallel_region(api: ShredAPI, nworkers: int,
                    body_fn: Callable[[int], Iterator[Op]],
                    name: str = "omp") -> Iterator[Op]:
    """One OpenMP-style parallel region: N workers, implicit barrier."""
    bodies = [body_fn(i) for i in range(nworkers)]
    yield from parallel_for(api, bodies, name=name)
