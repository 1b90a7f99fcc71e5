"""Tests for trace capture/replay (repro.sim.captrace) and its Runner
integration: replay-vs-execute equivalence, timing-only sweep
approximation, replay-class grouping, and cache timing identity."""

import dataclasses

import pytest

from repro.analysis.figure_mem import FIGURE_MEM_COSTS, run_figure_mem
from repro.errors import ConfigurationError
from repro.experiments import Runner, RunSpec
from repro.params import DEFAULT_PARAMS
from repro.service import execute, execute_captured, replay_class, run_group
from repro.sim import captrace
from repro.sim.captrace import (
    REPLAY_SAFE_FIELDS, ReplayMachine, replayable_changes,
)
from repro.systems import Session

SCALE = 0.05


def spec_for(system, workload="RayTracer", **params):
    p = DEFAULT_PARAMS.with_changes(**params) if params else DEFAULT_PARAMS
    return RunSpec(workload=workload, system=system, scale=SCALE, params=p)


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
        assert seeded is trace.profile
        redriven = ReplayMachine(dataclasses.replace(trace, profile=None))
        assert redriven._access_profile(trace.params) == seeded
        per_event, counters = seeded
        assert per_event.keys() == trace.accesses.keys()
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

    def test_replay_group_first_executes_rest_replay(self):
        specs = [spec_for("misp", mem_cost=mc) for mc in (60, 240, 960)]
        out = run_group(specs)
        assert [s.timing for s in out] == ["execute", "replay", "replay"]
        assert out[0].to_dict() == execute(specs[0]).to_dict()

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
        memory gets slower -- survives the replay fast path."""
        rows = run_figure_mem(scale=SCALE,
                              runner=Runner(parallel=False, replay=True))
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
        captured cost.  Replay refuses the field; the planner executes
        such points."""
        assert field not in REPLAY_SAFE_FIELDS
        spec = spec_for(system, workload="dense_mvm")
        swept = spec_for(system, workload="dense_mvm", **{field: 200_000})
        assert replay_class(spec) != replay_class(swept)
        _, trace = execute_captured(spec)
        with pytest.raises(ConfigurationError):
            ReplayMachine(trace).run(spec=swept)

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


# ----------------------------------------------------------------------
# Runner integration: replay classes and cache timing identity
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_replay_class_groups_timing_only_diffs(self):
        a = spec_for("misp")
        b = spec_for("misp", mem_cost=960)
        c = spec_for("misp", timer_quantum=123456)
        d = spec_for("smp")
        assert replay_class(a) == replay_class(b)
        assert replay_class(a) != replay_class(c)
        assert replay_class(a) != replay_class(d)
        assert replay_class(RunSpec(workload="RayTracer",
                                    system="multiprog",
                                    scale=SCALE)) is None

    def test_runner_replay_mode_captures_once(self, tmp_path):
        specs = [spec_for("misp", mem_cost=mc) for mc in (15, 60, 240)]
        runner = Runner(store=tmp_path, parallel=False, replay=True)
        out = runner.run_many(specs)
        assert runner.stats.executed == 1
        assert runner.stats.captured == 1
        assert runner.stats.replayed == 2
        assert [s.timing for s in out] == ["execute", "replay", "replay"]

    def test_replay_cache_entries_never_alias_execution(self, tmp_path):
        specs = [spec_for("misp", mem_cost=mc) for mc in (15, 60, 240)]
        Runner(store=tmp_path, parallel=False,
               replay=True).run_many(specs)
        # an execution-driven runner sees only the captured spec's
        # entry; the replay summaries are invisible to it
        exec_runner = Runner(store=tmp_path, parallel=False)
        out = exec_runner.run_many(specs)
        assert all(s.timing == "execute" for s in out)
        assert exec_runner.stats.store_hits == 1
        assert exec_runner.stats.executed == 2
        # once execution-driven entries exist, a replay-mode runner
        # prefers them (they are exact)
        third = Runner(store=tmp_path, parallel=False, replay=True)
        out3 = third.run_many(specs)
        assert third.stats.store_hits == 3
        assert third.stats.executed == 0
        assert all(s.timing == "execute" for s in out3)

    def test_replay_mode_parallel_matches_serial(self, tmp_path):
        specs = [spec_for("smp", mem_cost=mc) for mc in (60, 960)]
        serial = Runner(parallel=False, replay=True).run_many(specs)
        parallel = Runner(max_workers=2, replay=True).run_many(specs)
        assert [s.to_dict() for s in serial] == [s.to_dict()
                                                for s in parallel]
