"""Staging primitives the system backends compose.

This module holds the building blocks every system backend composes
(Section 5.2's methodology):

* :func:`misp_group_body` -- the body of a multi-shredded OS thread
  (Figure 3): register the proxy handler, push the main shred,
  ``SIGNAL`` a gang scheduler onto every AMS, then run a gang
  scheduler on the OMS;
* :func:`smp_main_body` / :func:`smp_worker_body` -- the same
  application code run as ``ncpus`` OS threads (one gang scheduler
  each), the way an OpenMP runtime would run it on a real SMP;
* :func:`_setup` -- process + runtime + API plumbing shared by all;
* :class:`RunResult` -- the live outcome of one run.

The actual system assembly lives in :mod:`repro.systems`: backends
(``misp``, ``smp``, ``1p``, ``multiprog``, ``hybrid``, ...) stage
these bodies onto machines, and the composable
:class:`~repro.systems.session.Session` builder drives them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.machine import Machine
from repro.exec.context import ExecContext
from repro.exec.ops import Op, SignalShred, SyscallOp
from repro.kernel.process import OSThread, Process
from repro.params import MachineParams
from repro.shredlib.api import ShredAPI
from repro.shredlib.proxyhandler import GenericProxyHandler
from repro.shredlib.runtime import ShredRuntime
from repro.shredlib.scheduler import gang_scheduler
from repro.sim.trace import EventKind
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.captrace import CapturedTrace

#: default per-run cycle budget before declaring a hang
DEFAULT_LIMIT = 2_000_000_000_000


@dataclass
class RunResult:
    """Outcome of one workload execution."""

    workload: str
    system: str           # a SYSTEM_REGISTRY name (possibly redirected)
    config: str           # e.g. "1x8", "smp8", "1x4+1x2"
    cycles: int           # process completion time
    machine: Machine
    runtime: ShredRuntime
    main_thread: OSThread
    #: background single-threaded processes (multiprogramming runs)
    background: int = 0
    #: captured execution trace (Session.capture() runs only)
    trace: Optional["CapturedTrace"] = None
    #: observability state (Session.observe() runs only); a
    #: repro.obs.observe.ObservedRun with the run's correlation id
    obs: Optional[object] = None

    # ------------------------------------------------------------------
    # Event accounting (the Table 1 view of this run)
    # ------------------------------------------------------------------
    def oms_event_count(self, kind: EventKind) -> int:
        return self.machine.trace.total(kind, self.machine.oms_ids())

    def ams_event_count(self, kind: EventKind) -> int:
        return self.machine.trace.total(kind, self.machine.ams_ids())

    def serializing_events(self) -> dict[str, int]:
        """Counts in the paper's Table 1 layout."""
        return {
            "oms_syscall": self.oms_event_count(EventKind.SYSCALL),
            "oms_pf": self.oms_event_count(EventKind.PAGE_FAULT),
            "oms_timer": self.oms_event_count(EventKind.TIMER),
            "oms_interrupt": self.oms_event_count(EventKind.INTERRUPT),
            "ams_syscall": self.ams_event_count(EventKind.SYSCALL),
            "ams_pf": self.ams_event_count(EventKind.PAGE_FAULT),
        }


def _workload_seed(workload: WorkloadSpec) -> int:
    return workload.seed or zlib.crc32(workload.name.encode())


def _setup(machine: Machine, workload: WorkloadSpec,
           params: MachineParams) -> tuple[Process, ShredRuntime, ShredAPI]:
    process = machine.spawn_process(workload.name)
    ctx = ExecContext(process, params, seed=_workload_seed(workload))
    ctx.machine = machine
    rt = ShredRuntime(params, name=workload.name)
    # place the runtime's shared state (work-queue lock + sync-object
    # lines) in the application's address space; the loader maps it
    # up front, so runtime lock traffic hits the cache hierarchy
    # without compulsory-fault noise
    shared = process.address_space.reserve("shredlib", 1)
    process.address_space.handle_fault(shared.start_vpn)
    rt.attach_shared(shared.base_vaddr, shared.size_bytes)
    api = ShredAPI(rt, ctx)
    return process, rt, api


def misp_group_body(machine: Machine, proc_index: int, rt: ShredRuntime,
                    api: ShredAPI, workload: Optional[WorkloadSpec],
                    nworkers: int, worker_base: int = 0) -> Iterator[Op]:
    """Body of one multi-shredded OS thread driving one MISP processor.

    A single-processor run stages it once (Figure 3); multi-processor
    (hybrid) partitions stage it once per MISP processor, with
    gang-scheduler worker ids starting at ``worker_base`` (they must
    be unique runtime-wide).  Only the *primary* group -- the one
    given a ``workload`` -- instantiates and pushes the main shred.
    """
    processor = machine.processors[proc_index]
    handler = GenericProxyHandler()
    handler.register(processor)
    yield from GenericProxyHandler.registration_ops(rt.params)
    if workload is not None:
        main = rt.new_shred(workload.instantiate(api, nworkers), name="main")
        # the main shred is the primary OS thread's own execution
        main.affinity = worker_base
        rt.set_main(main)
        rt.push(main)
    for sid in range(1, len(processor.amss) + 1):
        yield SignalShred(sid, gang_scheduler(rt, worker_id=worker_base + sid),
                          label=f"gang-{worker_base + sid}")
    yield from gang_scheduler(rt, worker_id=worker_base)


def smp_worker_body(rt: ShredRuntime, worker_id: int) -> Iterator[Op]:
    """One SMP worker OS thread: a bare gang scheduler."""
    yield from gang_scheduler(rt, worker_id)


def smp_main_body(machine: Machine, process: Process, rt: ShredRuntime,
                  api: ShredAPI, workload: WorkloadSpec,
                  nworkers: int) -> Iterator[Op]:
    """Main OS thread on SMP: spawn workers, then join the gang."""
    main = rt.new_shred(workload.instantiate(api, nworkers), name="main")
    main.affinity = 0  # runs on the main OS thread's gang scheduler
    rt.set_main(main)
    rt.push(main)
    for i in range(1, nworkers):
        # thread creation is an OS service on SMP
        yield SyscallOp("thread_create", cost=rt.params.syscall_service_cost)
        machine.spawn_thread(process, f"{workload.name}-w{i}",
                             smp_worker_body(rt, i))
    yield from gang_scheduler(rt, worker_id=0)
