"""Tests for the 16 evaluation workloads and the run drivers, at small
scale (scale=0.02) so the whole file stays fast."""

import pytest

from repro.sim.trace import EventKind
from repro.systems import Session
from repro.workloads import REGISTRY, FIGURE4_ORDER
from repro.workloads import rms, speccomp
from repro.workloads.base import WorkloadSpec

SCALE = 0.02

_FACTORIES = {
    "ADAt": rms.make_adat, "dense_mmm": rms.make_dense_mmm,
    "dense_mvm": rms.make_dense_mvm,
    "dense_mvm_sym": rms.make_dense_mvm_sym, "gauss": rms.make_gauss,
    "kmeans": rms.make_kmeans, "sparse_mvm": rms.make_sparse_mvm,
    "sparse_mvm_sym": rms.make_sparse_mvm_sym,
    "sparse_mvm_trans": rms.make_sparse_mvm_trans,
    "svm_c": rms.make_svm_c, "RayTracer": rms.make_raytracer,
    "swim": lambda scale: speccomp.make_speccomp("swim", scale),
    "applu": lambda scale: speccomp.make_speccomp("applu", scale),
    "galgel": lambda scale: speccomp.make_speccomp("galgel", scale),
    "equake": lambda scale: speccomp.make_speccomp("equake", scale),
    "art": lambda scale: speccomp.make_speccomp("art", scale),
}


def small(name):
    return _FACTORIES[name](scale=SCALE)


def test_registry_has_all_16():
    # the 16 Figure 4 applications, plus the Table 2 legacy ports
    assert set(FIGURE4_ORDER) <= set(REGISTRY.names())
    assert len(FIGURE4_ORDER) == 16


def test_registry_suites():
    assert len(REGISTRY.by_suite("rms")) == 11
    assert len(REGISTRY.by_suite("speccomp")) == 5
    assert len(REGISTRY.by_suite("legacy")) == 6


def test_registry_builds_scaled_specs_by_name():
    scaled = REGISTRY.build("gauss", 0.1)
    assert scaled.name == "gauss" and scaled is not REGISTRY.get("gauss")
    assert REGISTRY.build("swim", 0.1).suite == "speccomp"
    assert REGISTRY.build("RayTracer", 0.1, probe_pages=True).name == \
        "RayTracer_probed"
    # legacy apps resolve by name too (scale is accepted and ignored)
    assert REGISTRY.build("ode_like_naive", 0.5).name == "ode_like_naive"
    with pytest.raises(KeyError):
        REGISTRY.build("nope", 0.1)


def test_registry_unknown():
    with pytest.raises(KeyError):
        REGISTRY.get("nope")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        REGISTRY.register(REGISTRY.get("gauss"))


@pytest.mark.parametrize("name", FIGURE4_ORDER)
def test_workload_completes_on_misp(name):
    result = Session("misp", "1x4").run(small(name))
    assert result.runtime.active == 0          # every shred retired
    assert result.runtime.finished == result.runtime.created
    assert result.cycles > 0
    assert result.machine.kernel.all_done


@pytest.mark.parametrize("name", ["gauss", "RayTracer", "swim"])
def test_workload_completes_on_smp_and_1p(name):
    smp = Session("smp", "smp4").run(small(name))
    base = Session("1p").run(small(name))
    assert smp.runtime.active == 0 and base.runtime.active == 0
    assert base.cycles > smp.cycles            # parallelism helps


def test_misp_parallelism_beats_1p():
    spec = _FACTORIES["RayTracer"](scale=0.05)
    base = Session("1p").run(spec)
    misp = Session("misp", "1x8").run(spec)
    assert base.cycles / misp.cycles > 3.0


class TestEventProfiles:
    """Table-1-shaped invariants at small scale."""

    def test_init_on_main_faults_on_oms(self):
        # gauss initializes its grid on the main shred -> OMS faults
        result = Session("misp", "1x4").run(small("gauss"))
        events = result.serializing_events()
        assert events["oms_pf"] > 50
        assert events["ams_pf"] <= 2

    def test_shred_first_touch_faults_on_ams(self):
        result = Session("misp", "1x4").run(
            _FACTORIES["sparse_mvm_sym"](scale=0.2))
        events = result.serializing_events()
        assert events["ams_pf"] > events["oms_pf"]

    def test_gauss_syscalls_on_oms_only(self):
        result = Session("misp", "1x4").run(small("gauss"))
        events = result.serializing_events()
        assert events["oms_syscall"] == 8
        assert events["ams_syscall"] == 0

    def test_art_has_worker_syscalls(self):
        result = Session("misp", "1x4").run(_FACTORIES["art"](scale=0.5))
        events = result.serializing_events()
        # art is the only application with AMS-side syscalls (Table 1)
        assert events["ams_syscall"] + events["oms_syscall"] > 0

    def test_timers_only_on_oms(self):
        result = Session("misp", "1x4").run(small("kmeans"))
        trace = result.machine.trace
        assert trace.total(EventKind.TIMER, result.machine.ams_ids()) == 0

    def test_smp_has_no_proxy_events(self):
        result = Session("smp", "smp4").run(small("dense_mmm"))
        assert result.machine.proxy_stats.requests == 0
        assert result.serializing_events()["ams_pf"] == 0

    def test_misp_ams_faults_are_proxied(self):
        result = Session("misp", "1x4").run(small("RayTracer"))
        events = result.serializing_events()
        assert result.machine.proxy_stats.requests == (
            events["ams_pf"] + events["ams_syscall"])


class TestRunnerMechanics:
    def test_main_shred_pinned_to_worker0(self):
        captured = {}

        def build(api, nworkers):
            def main():
                from repro.exec.ops import Compute
                yield Compute(1000)
                captured["main"] = api.rt.main_shred
            return main()

        result = Session("misp", "1x3").run(WorkloadSpec("t", "micro", build))
        assert captured["main"].affinity == 0
        assert captured["main"].last_worker == 0

    def test_proxy_handler_registered(self):
        from repro.core.yieldcond import Scenario
        result = Session("misp", "1x3").run(small("dense_mvm"))
        table = result.machine.processors[0].scenarios
        assert Scenario.PROXY_REQUEST in table

    def test_smp_spawns_one_thread_per_cpu(self):
        result = Session("smp", "smp4").run(small("dense_mvm"))
        process = result.main_thread.process
        assert len(process.threads) == 4

    def test_seed_determinism(self):
        a = Session("misp", "1x4").run(small("sparse_mvm"))
        b = Session("misp", "1x4").run(small("sparse_mvm"))
        assert a.cycles == b.cycles
        assert a.serializing_events() == b.serializing_events()
