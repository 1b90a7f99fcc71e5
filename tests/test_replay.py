"""Tests for trace capture/replay (repro.sim.captrace): the capture
format, replay-vs-execute equivalence, the timing-only sweep
approximation, and the validity boundaries (refused fields, specs and
backends)."""

import dataclasses
import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis.figure4 import DEFAULT_AMS_COUNT, _systems
from repro.analysis.figure_mem import (
    DEFAULT_WORKLOAD, FIGURE_MEM_COSTS, MemSensitivityRow,
)
from repro.core import build_machine
from repro.errors import ConfigurationError
from repro.experiments import RunSpec, RunSummary
from repro.isa import AsmStream, assemble
from repro.params import DEFAULT_PARAMS, PAGE_SIZE
from repro.service import execute, execute_captured
from repro.sim import captrace
from repro.sim.captrace import (
    REPLAY_SAFE_FIELDS, CapturedTrace, ReplayMachine, replayable_changes,
)
from repro.systems import Session

SCALE = 0.05
GOLDEN = Path(__file__).parent / "golden"


def spec_for(system, workload="RayTracer", **params):
    p = DEFAULT_PARAMS.with_changes(**params) if params else DEFAULT_PARAMS
    return RunSpec(workload=workload, system=system, scale=SCALE, params=p)


# ----------------------------------------------------------------------
# The capture format
# ----------------------------------------------------------------------
#: sha256 of the canonical JSON of one dense_mvm capture per system at
#: scale 0.01: a change to the capture format or to the run shows here
CAPTURE_DIGESTS = {
    "smp": "b6d7b28d7713a6bdd85a172887c7b5de4ce979ce0fa140b878c776b179892f65",
    "1p": "a3a97bfcba275bb0058f52177751ff4678f21fce60fe95a81d3700c7b8287823",
    "hybrid":
        "ecdb4d7f6fbb2a9a9ef7e11ed8a2deeadba9da29996e8726b82577877269f01b",
}


class TestCaptureFormat:
    def test_fresh_capture_writes_the_committed_golden(self):
        """A fresh capture serializes to exactly the committed fixture
        (which the analysis tests otherwise only ever read back)."""
        trace = (Session("misp", "1x2").capture()
                 .run("dense_mvm", scale=0.01).trace)
        text = json.dumps(trace.to_dict(), indent=1, sort_keys=True) + "\n"
        golden = GOLDEN / "captrace_misp_1x2_dense_mvm.json"
        assert text == golden.read_text()

    @pytest.mark.parametrize("system", sorted(CAPTURE_DIGESTS))
    def test_capture_digest_is_pinned(self, system):
        trace = Session(system).capture().run("dense_mvm", scale=0.01).trace
        text = json.dumps(trace.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            CAPTURE_DIGESTS[system])

    @pytest.mark.parametrize("system", ["misp", "smp"])
    def test_round_trip_through_dict(self, system):
        trace = Session(system).capture().run("kmeans", scale=0.01).trace
        clone = CapturedTrace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()
        assert clone.times == trace.times

    def test_capture_holds_at_most_64_bytes_per_event(self):
        """The columns hold no Python object per event: what dropping
        a capture frees, per event, stays within 64 bytes."""
        def capture():
            return (Session("misp", "1x8").capture()
                    .run("kmeans", scale=0.02).trace)

        tracemalloc.start()
        try:
            trace = capture()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            events = trace.num_events
            del trace
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert events > 5000
        assert freed / events <= 64, f"{freed / events:.0f} B per event"

    def test_instruction_fetch_makes_two_record_access_events(self):
        """A mini-ISA op fetches its instruction and may access data:
        one access event with two records.  Its captured profile is
        the re-driven one, it round-trips through JSON, and replay at
        the captured parameters ends where the run ended."""
        machine = build_machine([1], params=DEFAULT_PARAMS)
        process = machine.spawn_process("asm")
        space = process.address_space
        space._next_vpn = 0x100000 // PAGE_SIZE
        space.reserve("shared", 2)
        space._next_vpn = 0x180000 // PAGE_SIZE
        space.reserve("stacks", 2)
        program = assemble("""
            li r0, 1
            li r1, 0x184000
            signal r0, worker, r1
            li r2, 0x100000
            li r3, 5
            st r3, r2, 8
            spin 500
            ld r4, r2, 0
            halt
        worker:
            li r2, 0x100000
            li r3, 7
            st r3, r2, 0
            halt
        """)
        cap = machine.enable_capture()
        stream = AsmStream(program, process, DEFAULT_PARAMS,
                           stack_top=0x180000, label="main")
        thread = machine.spawn_thread(process, "main", stream, pinned_cpu=0)
        thread.is_shredded = True
        machine.run_to_completion(limit=10**10)
        trace = CapturedTrace.from_machine(machine, cap, process.pid)
        assert len(trace.acc_addrs) > len(trace.acc_events) > 0
        trace.snapshot = RunSummary("asm", "misp", machine.describe(),
                                    process.exit_time)
        replayer = ReplayMachine(trace)
        redriven = ReplayMachine(dataclasses.replace(trace, counts=None))
        assert (replayer._access_profile(trace.params)
                == redriven._access_profile(trace.params))
        assert replayer.run().cycles == process.exit_time
        clone = CapturedTrace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()


# ----------------------------------------------------------------------
# Exact replay-vs-execute equivalence
# ----------------------------------------------------------------------
class TestExactEquivalence:
    @pytest.mark.parametrize("system", ["misp", "smp", "hybrid"])
    def test_replay_reproduces_execution_exactly(self, system):
        """Under identical params a replayed summary matches the
        execution-driven one field for field: cycles, every memory
        counter, Table-1 event counts, proxy and utilization totals."""
        spec = spec_for(system)
        plain = execute(spec)
        summary, trace = execute_captured(spec)
        # capture itself must not perturb the simulation
        assert summary.to_dict() == plain.to_dict()
        replayed = ReplayMachine(trace).run(spec=spec)
        a, b = plain.to_dict(), replayed.to_dict()
        assert a.pop("timing") == "execute"
        assert b.pop("timing") == "replay"
        assert a == b

    def test_equivalence_on_second_workload(self):
        spec = spec_for("misp", workload="gauss")
        plain = execute(spec)
        _, trace = execute_captured(spec)
        replayed = ReplayMachine(trace).run(spec=spec)
        assert replayed.cycles == plain.cycles
        assert replayed.mem == plain.mem
        assert replayed.events == plain.events

    @pytest.mark.parametrize("system", ["misp", "smp", "1p", "hybrid"])
    def test_captured_profile_equals_redriven(self, system):
        """The profile a capture records from the hierarchy's counters
        is the one a from-scratch re-drive of its access stream
        computes: per event, and in the aggregate counters."""
        _, trace = execute_captured(spec_for(system))
        seeded = ReplayMachine(trace)._access_profile(trace.params)
        assert seeded == trace.captured_profile()
        redriven = ReplayMachine(dataclasses.replace(trace, counts=None))
        assert redriven._access_profile(trace.params) == seeded
        lines, l1_misses, mem_refs, counters = seeded
        # one profile row per access event, each touching lines
        assert (len(lines) == len(l1_misses) == len(mem_refs)
                == len(trace.acc_events) > 0)
        assert min(lines) >= 1
        assert counters == {name: getattr(trace.snapshot.mem, name)
                            for name in counters}

    def test_timing_only_replay_builds_no_hierarchy(self, monkeypatch):
        """At the captured geometry a replay is arithmetic over the
        capture's own profile; only a new geometry re-drives."""
        _, trace = execute_captured(spec_for("misp"))
        built = []

        class CountingHierarchy(captrace.MemoryHierarchy):
            def __init__(self, params):
                built.append(params)
                super().__init__(params)

        monkeypatch.setattr(captrace, "MemoryHierarchy", CountingHierarchy)
        machine = ReplayMachine(trace)
        machine.run(params=DEFAULT_PARAMS.with_changes(mem_cost=240))
        machine.run(params=DEFAULT_PARAMS.with_changes(signal_cost=5000))
        assert built == []
        machine.run(params=DEFAULT_PARAMS.with_changes(l2_size=4096))
        assert len(built) == 1

    @pytest.mark.smoke
    def test_capture_replay_round_trip_smoke(self):
        """The CI smoke gate: one capture+replay round-trip stays
        exact (guards the fast path between full bench runs)."""
        spec = spec_for("misp")
        summary, trace = execute_captured(spec)
        replayed = ReplayMachine(trace).run(spec=spec)
        assert replayed.cycles == summary.cycles
        assert replayed.mem == summary.mem
        assert replayed.events == summary.events
        assert replayed.utilization == summary.utilization


# ----------------------------------------------------------------------
# Timing-only sweeps (the trace-driven approximation)
# ----------------------------------------------------------------------
class TestTimingSweeps:
    def test_swept_mem_cost_monotone_cycles(self):
        _, trace = execute_captured(spec_for("misp"))
        machine = ReplayMachine(trace)
        cycles = [machine.run(
            params=DEFAULT_PARAMS.with_changes(mem_cost=mc)).cycles
            for mc in FIGURE_MEM_COSTS]
        assert cycles == sorted(cycles)
        assert cycles[0] < cycles[-1]

    def test_figure_mem_decline_reproduced_via_replay(self):
        """The figure_mem property -- MISP's advantage declines as
        memory gets slower -- survives the replay fast path: one
        capture per system, every swept point re-priced from it."""
        machines = {}
        for system, config in _systems(DEFAULT_AMS_COUNT):
            _, trace = execute_captured(
                RunSpec(DEFAULT_WORKLOAD, system, config, scale=SCALE))
            machines[system] = ReplayMachine(trace)
        rows = []
        for mem_cost in FIGURE_MEM_COSTS:
            swept = DEFAULT_PARAMS.with_changes(mem_cost=mem_cost)
            point = {system: machine.run(params=swept)
                     for system, machine in machines.items()}
            rows.append(MemSensitivityRow(
                DEFAULT_WORKLOAD, mem_cost, point["1p"].cycles,
                point["misp"].cycles, point["smp"].cycles,
                point["misp"].mem, point["smp"].mem))
        assert [row.mem_cost for row in rows] == list(FIGURE_MEM_COSTS)
        speedups = [row.misp_speedup for row in rows]
        assert all(a >= b for a, b in zip(speedups, speedups[1:]))
        assert speedups[0] > speedups[-1]
        assert min(speedups) > 2.0

    def test_geometry_sweep_redrives_cache_model(self):
        _, trace = execute_captured(spec_for("misp"))
        machine = ReplayMachine(trace)
        base = machine.run()
        small = machine.run(
            params=DEFAULT_PARAMS.with_changes(l2_size=4096))
        assert base.mem == trace.snapshot.mem      # no-change is exact
        assert small.mem.l2_hits < base.mem.l2_hits
        assert small.mem.mem_accesses > base.mem.mem_accesses
        assert small.cycles > base.cycles


# ----------------------------------------------------------------------
# Validity boundaries
# ----------------------------------------------------------------------
class TestValidity:
    def test_safe_fields_identified(self):
        new = DEFAULT_PARAMS.with_changes(mem_cost=960, signal_cost=500)
        assert replayable_changes(DEFAULT_PARAMS, new) == {
            "mem_cost", "signal_cost"}

    @pytest.mark.parametrize("field,value", [
        ("timer_quantum", 12345),
        ("tlb_entries", 4),
        ("isa_instruction_cost", 3),
    ])
    def test_control_flow_axes_refused(self, field, value):
        assert field not in REPLAY_SAFE_FIELDS
        _, trace = execute_captured(spec_for("misp"))
        with pytest.raises(ConfigurationError):
            ReplayMachine(trace).run(
                params=DEFAULT_PARAMS.with_changes(**{field: value}))

    @pytest.mark.parametrize("field,system", [
        ("syscall_service_cost", "smp"),
        ("atomic_op_cost", "misp"),
    ])
    def test_costs_baked_into_generated_ops_refused(self, field, system):
        """SMP thread creation yields a ``SyscallOp`` with an explicit
        cost and proxy registration a ``Compute`` of two atomics, so
        neither records a coefficient: a replay would keep the
        captured cost.  Replay refuses the field, so such points must
        execute."""
        assert field not in REPLAY_SAFE_FIELDS
        spec = spec_for(system, workload="dense_mvm")
        swept = spec_for(system, workload="dense_mvm", **{field: 200_000})
        _, trace = execute_captured(spec)
        with pytest.raises(ConfigurationError):
            ReplayMachine(trace).run(spec=swept)

    def test_spec_from_another_replay_class_refused(self):
        """A trace replays only specs of its own replay class: another
        scale, workload, system, configuration or queue policy is a
        different execution, not a re-pricing of this one."""
        spec = RunSpec("kmeans", "1p", "smp1", scale=0.01)
        summary, trace = execute_captured(spec)
        machine = ReplayMachine(trace)
        for other, fields in [
                (dataclasses.replace(spec, scale=0.02), ["scale"]),
                (RunSpec("dense_mvm", "misp", "1x8", scale=0.01),
                 ["config", "system", "workload"]),
                (dataclasses.replace(spec, policy="lifo"), ["policy"]),
                (dataclasses.replace(spec, params=DEFAULT_PARAMS.with_changes(
                    timer_quantum=12345, mem_cost=240)), ["timer_quantum"])]:
            with pytest.raises(ConfigurationError) as err:
                machine.run(spec=other)
            assert str(fields) in str(err.value)
        # its own class still replays, exactly at the captured point
        swept = dataclasses.replace(
            spec, params=DEFAULT_PARAMS.with_changes(mem_cost=240))
        assert machine.run(spec=swept).spec_hash == swept.spec_hash()
        assert machine.run(spec=spec).cycles == summary.cycles

    def test_multiprog_capture_refused(self):
        with pytest.raises(ConfigurationError):
            Session("multiprog").capture().run("RayTracer", scale=SCALE)

    def test_session_capture_attaches_trace(self):
        captured = Session("misp", "1x8").capture().run("RayTracer",
                                                        scale=SCALE)
        plain = Session("misp", "1x8").run("RayTracer", scale=SCALE)
        assert captured.trace is not None
        assert captured.trace.num_events > 1000
        assert plain.trace is None
        assert captured.cycles == plain.cycles
