"""Tests for the repro.timing subsystem: the registry, the fixed
model's bit-exactness with the pre-refactor machine, the scoreboard
pipeline model's FU sensitivity, capture gating, and the end-to-end
path of a custom timing model through Session, Runner, and cache."""

import dataclasses

import pytest

from repro.analysis import run_figure_pipeline
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import ExperimentSpec, Runner, RunSpec
from repro.params import DEFAULT_PARAMS
from repro.systems import Session, get_system
from repro.timing import (
    TIMING_REGISTRY, FixedTiming, ScoreboardTiming, TimingModel,
    canonical_timing_name, get_timing, register_timing, resolve_timing,
)

FAST = dict(workload="dense_mvm", scale=0.05)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestTimingRegistry:
    def test_builtins_registered(self):
        assert "fixed" in TIMING_REGISTRY
        assert "scoreboard" in TIMING_REGISTRY
        assert get_timing("fixed") is FixedTiming
        assert get_timing("scoreboard") is ScoreboardTiming

    def test_names_canonicalized(self):
        assert canonical_timing_name("  Fixed ") == "fixed"
        assert get_timing(" FIXED ") is FixedTiming

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="fixed"):
            get_timing("warp_drive")

    def test_duplicate_rejected_unless_replace(self):
        class Clash(TimingModel):
            name = "fixed"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_timing(Clash)
        # and the original survives the failed registration
        assert get_timing("fixed") is FixedTiming

    def test_instance_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="subclass"):
            TIMING_REGISTRY.register(FixedTiming())  # type: ignore[arg-type]

    def test_nameless_model_rejected(self):
        class Nameless(TimingModel):
            pass

        with pytest.raises(ConfigurationError, match="name"):
            register_timing(Nameless)

    def test_temporary_scopes_registration(self):
        class Toy(TimingModel):
            name = "toy_scoped"

        with TIMING_REGISTRY.temporary(Toy):
            assert get_timing("toy_scoped") is Toy
        assert "toy_scoped" not in TIMING_REGISTRY

    def test_create_returns_fresh_instances(self):
        a = TIMING_REGISTRY.create("scoreboard")
        b = TIMING_REGISTRY.create("scoreboard")
        assert isinstance(a, ScoreboardTiming) and a is not b

    def test_resolve_timing_variants(self):
        by_name = resolve_timing("fixed")
        by_class = resolve_timing(FixedTiming)
        proto = FixedTiming()
        by_proto = resolve_timing(proto)
        assert all(isinstance(m, FixedTiming)
                   for m in (by_name, by_class, by_proto))
        # prototypes are copied, never handed out directly
        assert by_proto is not proto
        with pytest.raises(ConfigurationError, match="timing model"):
            resolve_timing(42)  # type: ignore[arg-type]

    def test_base_model_is_abstract(self):
        model = TimingModel()
        with pytest.raises(NotImplementedError):
            model.charge(None, None, 1)
        with pytest.raises(NotImplementedError):
            model.signal_cycles(None)


# ----------------------------------------------------------------------
# Fixed model: bit-exact with the pre-refactor machine (acceptance
# criterion -- the refactor moved pricing, it must not change it)
# ----------------------------------------------------------------------
class TestFixedExactness:
    @pytest.mark.parametrize("system,config", [
        ("misp", "1x8"), ("smp", "8"), ("hybrid", "1x4+1x2"),
    ])
    def test_fixed_matches_default(self, system, config):
        default = Session(system, config).run(**FAST)
        explicit = Session(system, config).timing("fixed").run(**FAST)
        proto = Session(system, config).timing(FixedTiming()).run(**FAST)
        assert explicit.cycles == default.cycles == proto.cycles
        assert (explicit.machine.engine.events_executed
                == default.machine.engine.events_executed)

    def test_default_model_is_fixed(self):
        result = Session("misp", "1x2").run("dense_mvm", scale=0.02)
        assert isinstance(result.machine.timing, FixedTiming)
        assert result.machine.timing.canonical_name() == "fixed"
        assert result.machine.timing.supports_capture

    def test_charge_is_component_sum(self):
        params = DEFAULT_PARAMS
        machine = get_system("misp").build_machine("1x2", params)
        model = machine.timing
        seq = machine.sequencers[0]
        op = object()
        assert model.charge(seq, op, 7) == 7
        assert (model.charge(seq, op, 7, walks=2, access=5, fetch=3)
                == 7 + 2 * params.page_walk_cost + 5 + 3)
        assert model.signal_cycles(seq) == params.signal_cost
        assert model.signal_cycles(seq, 4) == 4 * params.signal_cost
        assert model.signal_cycles(seq, 0) == 0


# ----------------------------------------------------------------------
# MachineParams.with_changes validation (satellite 1)
# ----------------------------------------------------------------------
class TestWithChangesValidation:
    def test_unknown_field_raises_value_error(self):
        with pytest.raises(ValueError, match="signal_costt"):
            DEFAULT_PARAMS.with_changes(signal_costt=500)

    def test_error_lists_valid_fields(self):
        with pytest.raises(ValueError, match="signal_cost"):
            DEFAULT_PARAMS.with_changes(nope=1)

    def test_mixed_known_and_unknown_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            DEFAULT_PARAMS.with_changes(signal_cost=500, bogus=1)

    def test_valid_changes_still_work(self):
        changed = DEFAULT_PARAMS.with_changes(sb_alu_units=4,
                                              signal_cost=500)
        assert changed.sb_alu_units == 4 and changed.signal_cost == 500
        assert DEFAULT_PARAMS.sb_alu_units == 2  # immutably


# ----------------------------------------------------------------------
# Capture gating (satellite 2): capture/replay only under `fixed`
# ----------------------------------------------------------------------
class TestCaptureGating:
    def test_session_capture_refused_under_scoreboard(self):
        session = Session("misp", "1x2").timing("scoreboard").capture()
        with pytest.raises(ConfigurationError, match="scoreboard"):
            session.run("dense_mvm", scale=0.02)

    def test_machine_enable_capture_refused(self):
        machine = get_system("misp").build_machine("1x2", DEFAULT_PARAMS)
        machine.set_timing(ScoreboardTiming())
        with pytest.raises(ConfigurationError, match="scoreboard"):
            machine.enable_capture()

    def test_capture_ok_under_explicit_fixed(self):
        result = (Session("misp", "1x2").timing("fixed").capture()
                  .run("dense_mvm", scale=0.02))
        assert result.trace is not None

    def test_set_timing_after_events_rejected(self):
        backend = get_system("misp")
        machine = backend.build_machine("1x2", DEFAULT_PARAMS)
        from repro.shredlib.runtime import QueuePolicy
        from repro.workloads.base import REGISTRY
        backend.stage(machine, REGISTRY.build("dense_mvm", 0.02),
                      config="1x2", policy=QueuePolicy.FIFO)
        with pytest.raises(SimulationError, match="set_timing"):
            machine.set_timing(FixedTiming())


# ----------------------------------------------------------------------
# Spec / cache identity
# ----------------------------------------------------------------------
class TestSpecIdentity:
    def test_timing_model_canonicalized_and_validated(self):
        spec = RunSpec(system="misp", timing_model=" Scoreboard ", **FAST)
        assert spec.timing_model == "scoreboard"
        with pytest.raises(ConfigurationError, match="warp"):
            RunSpec(system="misp", timing_model="warp_drive", **FAST)

    def test_timing_model_in_spec_hash(self):
        fixed = RunSpec(system="misp", **FAST)
        scoreboard = RunSpec(system="misp", timing_model="scoreboard",
                             **FAST)
        assert fixed.spec_hash() != scoreboard.spec_hash()
        assert fixed.to_dict()["timing_model"] == "fixed"
        assert scoreboard.to_dict()["timing_model"] == "scoreboard"

    def test_describe_marks_non_fixed_only(self):
        fixed = RunSpec(system="misp", **FAST)
        scoreboard = RunSpec(system="misp", timing_model="scoreboard",
                             **FAST)
        assert "~" not in fixed.describe()
        assert "~scoreboard" in scoreboard.describe()
        assert "~" not in Session("misp").describe()
        assert "~scoreboard" in (Session("misp").timing("scoreboard")
                                 .describe())

    def test_session_describe_canonicalizes_timing_names(self):
        # a padded or mixed-case name is the same model, so Session
        # labels it the way RunSpec.describe() does
        assert Session("misp").timing("fixed ").describe() == "misp:1x8"
        scoreboard = Session("misp").timing(" Scoreboard ")
        assert scoreboard.describe() == "misp:1x8~scoreboard"
        assert repr(scoreboard) == "Session('misp:1x8~scoreboard')"
        spec = RunSpec(system="misp", timing_model=" Scoreboard ", **FAST)
        assert spec.describe() == "dense_mvm@0.05/misp:1x8~scoreboard"

    def test_grid_carries_timing_model(self):
        exp = ExperimentSpec.grid("g", ["dense_mvm"], systems=("misp",),
                                  scale=0.05, timing_model="scoreboard")
        assert all(spec.timing_model == "scoreboard" for spec in exp.runs)


# ----------------------------------------------------------------------
# Custom model end to end (satellite 3): registration alone makes a
# model spec-able, runnable, and cacheable -- mirroring the toy-backend
# test in test_systems.py
# ----------------------------------------------------------------------
class TestCustomTimingEndToEnd:
    def test_toy_model_through_run_experiment(self, tmp_path):
        """No experiments/ module knows about 'toy_free_signal', yet
        specs validate, hash distinctly, run, summarize, and cache."""

        class ToyFreeSignal(FixedTiming):
            name = "toy_free_signal"
            supports_capture = False
            description = "fixed pricing with free SIGNAL broadcasts"

            def signal_cycles(self, seq, count=1):
                return 0

        with TIMING_REGISTRY.temporary(ToyFreeSignal):
            exp = ExperimentSpec.grid(
                "toy", ["dense_mvm"], systems=("misp",), scale=0.05,
                timing_model="toy_free_signal")
            runner = Runner(parallel=False, store=tmp_path)
            result = runner.run_experiment(exp)
            toy_spec = RunSpec("dense_mvm", "misp", "1x8", scale=0.05,
                               timing_model="toy_free_signal")
            toy = result[toy_spec]
            assert toy.timing_model == "toy_free_signal"
            assert runner.stats.executed == 1

            # free signals must actually change the priced run
            fixed = Session("misp", "1x8").run(**FAST)
            assert toy.cycles < fixed.cycles

            # and the cache round-trips it under its own key
            again = Runner(parallel=False, store=tmp_path)
            cached = again.run_experiment(exp)[toy_spec]
            assert again.stats.executed == 0
            assert again.stats.store_hits == 1
            assert cached.cycles == toy.cycles
            assert cached.timing_model == "toy_free_signal"

    def test_summary_records_timing_model(self):
        result = (Session("misp", "1x2").timing("scoreboard")
                  .run("dense_mvm", scale=0.02))
        from repro.experiments import summarize_run
        summary = summarize_run(result)
        assert summary.timing_model == "scoreboard"
        rehydrated = type(summary).from_dict(summary.to_dict())
        assert rehydrated.timing_model == "scoreboard"


# ----------------------------------------------------------------------
# Scoreboard model
# ----------------------------------------------------------------------
class TestScoreboard:
    def test_fu_count_sensitivity_is_monotone(self):
        """The acceptance shape: MISP cycles fall as the shared FU pool
        widens, single-sequencer SMP stays flat, so the figure_pipeline
        MISP speedups rise monotonically."""
        rows = run_figure_pipeline(
            workload="dense_mvm", fu_counts=(1, 2, 8), scale=0.05,
            runner=Runner(parallel=False))
        misp = [row.cycles_misp for row in rows]
        smp = [row.cycles_smp for row in rows]
        assert misp == sorted(misp, reverse=True)
        assert misp[0] > misp[-1]  # strictly better somewhere
        assert len(set(smp)) == 1  # SMP workers never contend
        speedups = [row.misp_speedup for row in rows]
        assert speedups == sorted(speedups)

    @pytest.mark.smoke
    def test_scoreboard_smoke(self):
        """CI smoke gate: a narrow-core scoreboard run completes and
        contention costs cycles relative to the fixed model."""
        narrow = DEFAULT_PARAMS.with_changes(sb_alu_units=1,
                                             sb_mem_units=1)
        fixed = (Session("misp", "1x4").params(narrow)
                 .run("dense_mvm", scale=0.02))
        scoreboard = (Session("misp", "1x4").params(narrow)
                      .timing("scoreboard").run("dense_mvm", scale=0.02))
        assert scoreboard.cycles > fixed.cycles
        assert isinstance(scoreboard.machine.timing, ScoreboardTiming)

    def test_scoreboard_params_reach_the_model(self):
        machine = get_system("misp").build_machine(
            "1x2", DEFAULT_PARAMS.with_changes(sb_alu_units=3,
                                               sb_mem_units=1,
                                               sb_frontend_depth=6))
        machine.set_timing(ScoreboardTiming())
        model = machine.timing
        pipe = model._pipes[0]
        assert len(pipe.alu) == 3 and len(pipe.mem) == 1
        assert model._frontend == 6

    def test_sb_params_positivity_enforced(self):
        with pytest.raises(ValueError, match="sb_alu_units"):
            dataclasses.replace(DEFAULT_PARAMS, sb_alu_units=0)
        with pytest.raises(ValueError, match="sb_mem_units"):
            dataclasses.replace(DEFAULT_PARAMS, sb_mem_units=-1)
