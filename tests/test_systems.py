"""Tests for the pluggable system-backend registry and the Session
API: registry error paths, spec/hash round-trips through backends,
the hybrid backend, and a custom backend running through the
experiment Runner without touching any ``experiments/`` module."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, Runner, RunSpec
from repro.shredlib.runtime import QueuePolicy
from repro.systems import (
    SYSTEM_REGISTRY, MispBackend, Session, SystemBackend, get_system,
)
from repro.workloads import REGISTRY
from repro.workloads.runner import RunResult

#: a fast workload for end-to-end runs
FAST = dict(workload="dense_mvm", scale=0.05)


def fast_workload():
    return REGISTRY.build(FAST["workload"], FAST["scale"])


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert SYSTEM_REGISTRY.names() == [
            "misp", "smp", "1p", "multiprog", "hybrid"]
        assert get_system("misp").name == "misp"
        assert get_system("  MISP ").name == "misp"     # normalized

    def test_unknown_backend_error_lists_known(self):
        with pytest.raises(ConfigurationError, match="misp"):
            get_system("cluster")
        with pytest.raises(ConfigurationError):
            Session("cluster")
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "cluster")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            SYSTEM_REGISTRY.register(MispBackend())

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            SYSTEM_REGISTRY.unregister("nope")

    def test_temporary_registration_is_scoped(self):
        class Toy(MispBackend):
            name = "toy"
        with SYSTEM_REGISTRY.temporary(Toy()):
            assert "toy" in SYSTEM_REGISTRY
        assert "toy" not in SYSTEM_REGISTRY

    def test_grid_uses_registered_default_config(self):
        # a bare system name in a grid runs in the backend's default
        # config, looked up live in the registry
        class Toy(MispBackend):
            name = "toy_view"
            default_config = "1x2"

        def grid():
            return ExperimentSpec.grid("toy", ["gauss"],
                                       systems=["toy_view"], scale=0.1)
        with pytest.raises(KeyError):
            grid()
        with SYSTEM_REGISTRY.temporary(Toy()):
            [spec] = grid().runs
            assert (spec.system, spec.config) == ("toy_view", "1x2")
        with pytest.raises(KeyError):
            grid()


# ----------------------------------------------------------------------
# Spec hashing through backends
# ----------------------------------------------------------------------
class TestSpecHashRoundTrip:
    def test_same_backend_same_args_stable_hash(self):
        a = RunSpec("gauss", "hybrid", "1x2+1x2", scale=0.1)
        b = RunSpec("gauss", "hybrid", "1X2+1x2", scale=0.1)
        assert a.spec_hash() == b.spec_hash()
        assert RunSpec.from_dict(a.to_dict()).spec_hash() == a.spec_hash()

    def test_new_backend_same_args_distinct_hash(self):
        class Toy(MispBackend):
            name = "toy_hash"
        with SYSTEM_REGISTRY.temporary(Toy()):
            misp = RunSpec("gauss", "misp", "1x4", scale=0.1)
            toy = RunSpec("gauss", "toy_hash", "1x4", scale=0.1)
            assert toy.system == "toy_hash"
            assert toy.spec_hash() != misp.spec_hash()
            again = RunSpec("gauss", "toy_hash", "1x4", scale=0.1)
            assert again.spec_hash() == toy.spec_hash()

    def test_hybrid_config_validation(self):
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "hybrid", "1x8")       # single group -> misp
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "hybrid", "smp8")      # no MISP group -> smp
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "hybrid", background=1)  # no background


# ----------------------------------------------------------------------
# Session API
# ----------------------------------------------------------------------
class TestSession:
    def test_knobs_return_new_sessions(self):
        base = Session("misp", "1x4")
        tweaked = base.policy("lifo").limit(123).params(signal_cost=500)
        assert tweaked is not base
        assert base._policy is QueuePolicy.FIFO      # template unchanged
        assert tweaked._policy is QueuePolicy.LIFO
        assert tweaked._params.signal_cost == 500

    def test_resolve_redirects_smp1_to_1p(self):
        backend, config = Session("smp", "smp1").resolve()
        assert backend.name == "1p" and config == "smp1"
        assert Session("smp", "smp1").describe() == "1p:smp1"

    def test_1p_rejects_multi_cpu_configs(self):
        with pytest.raises(ConfigurationError):
            Session("1p", "smp8").resolve()
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "1p", "1x8")

    def test_repr_never_raises(self):
        assert repr(Session("misp", "2x4")) == "Session('misp:2x4')"
        assert repr(Session("hybrid")) == "Session('hybrid:1x4+1x2')"

    def test_run_by_workload_name(self):
        result = Session("misp", "1x4").run("dense_mvm", scale=0.05)
        assert isinstance(result, RunResult)
        assert result.system == "misp" and result.config == "1x4"
        assert result.cycles > 0 and result.runtime.active == 0

    def test_scale_requires_name(self):
        spec = fast_workload()
        with pytest.raises(ConfigurationError):
            Session("misp").run(spec, scale=0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Session("misp").limit(0)
        with pytest.raises(ConfigurationError):
            Session("misp").background(-1)
        with pytest.raises(ConfigurationError):
            Session("misp", "smp8").resolve()     # misp needs one group
        with pytest.raises(ConfigurationError):
            Session("misp").background(1).resolve()

    def test_run_1p_honors_policy(self):
        # the 1p backend must not drop the policy knob
        spec = fast_workload()
        result = Session("1p").policy(QueuePolicy.LIFO).run(spec)
        assert result.runtime.policy is QueuePolicy.LIFO
        assert result.system == "1p" and result.runtime.active == 0


# ----------------------------------------------------------------------
# The hybrid backend
# ----------------------------------------------------------------------
class TestHybrid:
    def test_smoke_completes_with_table1_events(self):
        result = Session("hybrid", "1x2+1x2").run(fast_workload())
        assert result.system == "hybrid" and result.config == "2x2"
        assert result.runtime.active == 0            # every shred retired
        assert result.runtime.finished == result.runtime.created
        assert result.machine.kernel.all_done
        events = result.serializing_events()
        assert set(events) == {"oms_syscall", "oms_pf", "oms_timer",
                               "oms_interrupt", "ams_syscall", "ams_pf"}
        assert events["oms_timer"] > 0               # both OMSs ticked
        assert events["oms_pf"] + events["ams_pf"] > 0

    def test_parallelism_beats_1p(self):
        spec = fast_workload()
        hybrid = Session("hybrid", "1x2+1x2").run(spec)
        base = Session("1p").run(spec)
        assert base.cycles / hybrid.cycles > 2.0     # 4 sequencers help

    def test_plain_cpus_join_the_gang(self):
        result = Session("hybrid", "1x2+2").run(fast_workload())
        assert result.config == "1x2+2"
        assert result.runtime.active == 0
        assert result.machine.num_cpus == 3

    def test_hybrid_spec_through_runner(self):
        runner = Runner(parallel=False)
        summary = runner.run(RunSpec(system="hybrid", config="1x2+1x2",
                                     **FAST))
        assert summary.system == "hybrid" and summary.config == "2x2"
        assert summary.cycles > 0 and summary.shreds_unjoined == 0
        assert summary.utilization.num_oms == 2
        assert summary.utilization.num_ams == 2
        assert sum(summary.events.values()) > 0      # Table-1 counts travel


# ----------------------------------------------------------------------
# Acceptance: a custom backend is spec-able and runnable end to end
# ----------------------------------------------------------------------
class TestCustomBackend:
    def test_toy_backend_through_run_experiment(self):
        """Registering a backend suffices: no experiments/ module knows
        about 'toy_e2e', yet specs validate, hash, dedup, and run."""

        class ToyBackend(MispBackend):
            name = "toy_e2e"
            default_config = "1x2"
            description = "misp with a halved signal cost"

            def build_machine(self, config, params):
                return super().build_machine(
                    config, params.with_changes(
                        signal_cost=params.signal_cost // 2))

        with SYSTEM_REGISTRY.temporary(ToyBackend()):
            exp = ExperimentSpec.grid("toy", ["dense_mvm"],
                                      systems=("toy_e2e", "misp"),
                                      scale=0.05)
            runner = Runner(parallel=False)
            result = runner.run_experiment(exp)
            toy = result[RunSpec("dense_mvm", "toy_e2e", "1x2", scale=0.05)]
            misp = result[RunSpec("dense_mvm", "misp", "1x8", scale=0.05)]
            assert toy.system == "toy_e2e" and toy.cycles > 0
            assert misp.system == "misp"
            assert runner.stats.executed == 2

    def test_backend_without_stage_is_abstract(self):
        class Incomplete(SystemBackend):
            name = "incomplete"
        with SYSTEM_REGISTRY.temporary(Incomplete()):
            with pytest.raises(NotImplementedError):
                Session("incomplete", "1x2").run(fast_workload())
