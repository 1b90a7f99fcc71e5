"""Built-in system backends: misp, smp, 1p, multiprog, and hybrid.

Each backend owns its slice of the Figure 6 notation rules
(``canonical_config``), its machine construction, and its staging --
everything :func:`repro.service.executor.execute` used to dispatch
on system strings.  The ``hybrid`` backend is new relative to the
paper's Section 5 scenarios: it runs one *shredded* application gang
across a multi-group MISP partition such as ``1x4+1x2`` (one OS
thread per MISP processor, plus bare gang-scheduler worker threads on
any plain CPUs), which is what a ShredLib runtime would do on a
heterogeneous MISP MP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.mp import build_machine
from repro.core.notation import (
    FIGURE7_SEQUENCERS, config_name, ideal_config_for_load, parse_config,
    total_sequencers,
)
from repro.errors import ConfigurationError, SimulationError
from repro.mem.hierarchy import (
    private_l2_per_sequencer, shared_l2_per_processor,
)
from repro.systems.base import StagedRun, SystemBackend, register_system
from repro.workloads.multiprog import (
    MULTIPROG_HORIZON, MULTIPROG_SLICE, background_body,
)
from repro.workloads.runner import (
    _setup, misp_group_body, smp_main_body, smp_worker_body,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.machine import Machine
    from repro.params import MachineParams
    from repro.shredlib.runtime import QueuePolicy
    from repro.workloads.base import WorkloadSpec


class MispBackend(SystemBackend):
    """One MISP processor; the application is ONE OS thread (Figure 3)."""

    name = "misp"
    default_config = "1x8"
    description = "single MISP processor, one multi-shredded OS thread"

    def canonical_config(self, config: str,
                         background: int = 0) -> tuple[str, str]:
        counts = parse_config(config)
        if len(counts) != 1:
            raise ConfigurationError(
                f"system='misp' runs on one MISP processor, got '{config}'; "
                "use system='hybrid' for multi-group partitions or "
                "system='multiprog' for MP multiprogramming")
        return self.name, config_name(counts)

    def build_machine(self, config: str,
                      params: "MachineParams") -> "Machine":
        # MISP topology: the shred team shares the processor's L2
        return build_machine(parse_config(config), params=params,
                             hierarchy=shared_l2_per_processor)

    def stage(self, machine: "Machine", workload: "WorkloadSpec", *,
              config: str, policy: "QueuePolicy",
              background: int = 0) -> StagedRun:
        ams_count = parse_config(config)[0]
        process, rt, api = _setup(machine, workload, machine.params)
        rt.policy = policy
        thread = machine.spawn_thread(
            process, f"{workload.name}-main",
            misp_group_body(machine, 0, rt, api, workload,
                            nworkers=1 + ams_count),
            pinned_cpu=0)
        thread.is_shredded = ams_count > 0
        return StagedRun(machine, process, rt, thread, config=config)


class SmpBackend(SystemBackend):
    """The N-way SMP baseline: one gang-scheduler OS thread per core."""

    name = "smp"
    default_config = "smp8"
    description = "SMP baseline, one worker OS thread per core"

    def canonical_config(self, config: str,
                         background: int = 0) -> tuple[str, str]:
        counts = parse_config(config)
        if any(counts):
            raise ConfigurationError(
                f"system='smp' needs plain CPUs, got '{config}'")
        if len(counts) == 1:
            return "1p", "smp1"
        return self.name, config_name(counts)

    def build_machine(self, config: str,
                      params: "MachineParams") -> "Machine":
        # SMP topology: private L2 per core, coherence between them
        return build_machine(parse_config(config), params=params,
                             hierarchy=private_l2_per_sequencer)

    def stage(self, machine: "Machine", workload: "WorkloadSpec", *,
              config: str, policy: "QueuePolicy",
              background: int = 0) -> StagedRun:
        process, rt, api = _setup(machine, workload, machine.params)
        rt.policy = policy
        thread = machine.spawn_thread(
            process, f"{workload.name}-main",
            smp_main_body(machine, process, rt, api, workload,
                          nworkers=machine.num_cpus))
        return StagedRun(machine, process, rt, thread, config=config)


class OnePBackend(SmpBackend):
    """Single CPU, single gang scheduler: Figure 4's denominator."""

    name = "1p"
    default_config = "smp1"
    description = "sequential 1P baseline"

    def canonical_config(self, config: str,
                         background: int = 0) -> tuple[str, str]:
        counts = parse_config(config)
        if any(counts) or len(counts) != 1:
            raise ConfigurationError(
                f"system='1p' is the single-CPU baseline, got '{config}'; "
                "use system='smp' for multi-CPU machines")
        return self.name, "smp1"


class HybridBackend(SystemBackend):
    """A shredded gang spanning a multi-group MISP partition.

    New scenario (not in the paper's Section 5): on ``1x4+1x2`` the
    application runs as two multi-shredded OS threads -- one per MISP
    processor, each SIGNALing gang schedulers onto its own AMSs --
    all draining one shared ShredLib work queue.  Plain CPUs in the
    partition (e.g. ``1x4+2``) contribute bare gang-scheduler worker
    threads, SMP-style.
    """

    name = "hybrid"
    default_config = "1x4+1x2"
    description = "shredded gangs across a multi-group MISP partition"

    def canonical_config(self, config: str,
                         background: int = 0) -> tuple[str, str]:
        counts = parse_config(config)
        if not any(counts):
            raise ConfigurationError(
                f"system='hybrid' needs at least one MISP processor, got "
                f"'{config}'; use system='smp' for plain-CPU machines")
        if len(counts) == 1:
            raise ConfigurationError(
                f"system='hybrid' spans multiple processors, got "
                f"'{config}'; use system='misp' for a single MISP "
                "processor")
        return self.name, config_name(counts)

    def build_machine(self, config: str,
                      params: "MachineParams") -> "Machine":
        # each MISP group shares its processor's L2; plain CPUs in the
        # partition degenerate to private L2s
        return build_machine(parse_config(config), params=params,
                             hierarchy=shared_l2_per_processor)

    def stage(self, machine: "Machine", workload: "WorkloadSpec", *,
              config: str, policy: "QueuePolicy",
              background: int = 0) -> StagedRun:
        counts = tuple(len(p.amss) for p in machine.processors)
        process, rt, api = _setup(machine, workload, machine.params)
        rt.policy = policy
        nworkers = total_sequencers(counts)
        main_thread = None
        worker_base = 0
        for proc_index, ams in enumerate(counts):
            if ams > 0:
                primary = main_thread is None
                thread = machine.spawn_thread(
                    process, f"{workload.name}-g{proc_index}",
                    misp_group_body(machine, proc_index, rt, api,
                                    workload if primary else None,
                                    nworkers, worker_base=worker_base),
                    pinned_cpu=proc_index)
                thread.is_shredded = True
                if primary:
                    main_thread = thread
                worker_base += 1 + ams
            else:
                machine.spawn_thread(
                    process, f"{workload.name}-w{worker_base}",
                    smp_worker_body(rt, worker_base),
                    pinned_cpu=proc_index)
                worker_base += 1
        return StagedRun(machine, process, rt, main_thread, config=config)


class MultiprogBackend(SystemBackend):
    """The Section 5.4 multiprogramming study: one shredded application
    plus N single-threaded background processes on a partition of
    :data:`~repro.core.notation.FIGURE7_SEQUENCERS` sequencers."""

    name = "multiprog"
    default_config = "1x8"
    default_limit = MULTIPROG_HORIZON
    supports_background = True
    # drive() polls fixed slices against a horizon, so the engine
    # never drains and the trace's event graph would be truncated
    supports_capture = False
    description = "shredded app + background load (Figure 7)"

    def canonical_config(self, config: str,
                         background: int = 0) -> tuple[str, str]:
        if config == "smp":          # the 8-way SMP baseline series
            return self.name, config
        if config == "ideal":        # per-load partition (Section 5.4)
            counts = ideal_config_for_load(FIGURE7_SEQUENCERS, background)
        else:
            counts = parse_config(config)
        if not any(counts):
            raise ConfigurationError(
                f"multiprog partition '{config}' has no MISP "
                "processor to drive the shredded workload; use "
                "config='smp' for the SMP multiprogramming baseline")
        return self.name, config_name(counts)

    def build_machine(self, config: str,
                      params: "MachineParams") -> "Machine":
        if config == "smp":
            return build_machine((0,) * FIGURE7_SEQUENCERS, params=params,
                                 hierarchy=private_l2_per_sequencer)
        return build_machine(parse_config(config), params=params,
                             hierarchy=shared_l2_per_processor)

    def stage(self, machine: "Machine", workload: "WorkloadSpec", *,
              config: str, policy: "QueuePolicy",
              background: int = 0) -> StagedRun:
        process, rt, api = _setup(machine, workload, machine.params)
        if config == "smp":
            thread = machine.spawn_thread(
                process, f"{workload.name}-main",
                smp_main_body(machine, process, rt, api, workload,
                              nworkers=machine.num_cpus))
        else:
            counts = parse_config(config)
            thread = machine.spawn_thread(
                process, f"{workload.name}-main",
                misp_group_body(machine, 0, rt, api, workload,
                                nworkers=1 + counts[0]),
                pinned_cpu=0)
            thread.is_shredded = counts[0] > 0
        rt.policy = policy
        for i in range(background):
            bg = machine.spawn_process(f"background-{i}")
            machine.spawn_thread(bg, f"bg-{i}", background_body())
        return StagedRun(machine, process, rt, thread, config=config,
                         background=background)

    def drive(self, staged: StagedRun, limit: int) -> int:
        """Poll for *application* exit: the background processes are
        CPU-bound and never terminate, so the machine as a whole never
        reaches ``all_done``."""
        machine, process = staged.machine, staged.process
        machine.start_timers()
        while not process.exited and machine.now < limit:
            machine.run(until=min(machine.now + MULTIPROG_SLICE, limit))
        if not process.exited:
            raise SimulationError(
                f"'{staged.runtime.name}' did not finish on "
                f"'{staged.config}' with {staged.background} background "
                f"processes within {limit} cycles")
        machine.stop()
        return process.exit_time


#: the built-in backends, in presentation order
MISP = register_system(MispBackend())
SMP = register_system(SmpBackend())
ONE_P = register_system(OnePBackend())
MULTIPROG = register_system(MultiprogBackend())
HYBRID = register_system(HybridBackend())
