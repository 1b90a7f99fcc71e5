"""Tests for the analysis layer (row math, formatters, spec lookup)
and the legacy applications on both system types."""

import pytest

from repro.analysis.figure4 import (
    DEFAULT_AMS_COUNT, Figure4Result, SpeedupRow, _systems, run_figure4,
)
from repro.analysis.figure5 import PAPER_TICK_CYCLES, sensitivity_from_run
from repro.analysis.figure_mem import run_figure_mem
from repro.analysis.figure_pipeline import run_figure_pipeline
from repro.analysis.report import figure6_text
from repro.analysis.table1 import EventRow, PAPER_TABLE1, format_table1
from repro.experiments import Runner, RunSpec, RunSummary
from repro.params import DEFAULT_PARAMS
from repro.systems import Session
from repro.workloads.base import REGISTRY
from repro.workloads.legacy import (
    make_jrockit_like, make_lame_mt, make_media_encoder, make_ode_like,
    make_thread_checker_like,
)


def speedup_row(workload, *cycles):
    """A Figure 4 row of hand-set cycles (1P, MISP, SMP)."""
    return SpeedupRow(workload, *(
        RunSummary(workload, system, config, count)
        for (system, config), count in zip(_systems(DEFAULT_AMS_COUNT),
                                           cycles)))


class TestFigure4Math:
    def make_result(self):
        # registered workloads, so each row's suite resolves
        rows = [
            speedup_row("dense_mvm", 1000, 125, 120),   # rms
            speedup_row("gauss", 1000, 250, 260),       # rms
            speedup_row("swim", 1000, 200, 210),        # speccomp
        ]
        return Figure4Result(rows)

    def test_speedups(self):
        result = self.make_result()
        row = result.row("dense_mvm")
        assert row.misp_speedup == pytest.approx(8.0)
        assert row.smp_speedup == pytest.approx(1000 / 120)
        assert row.misp_vs_smp == pytest.approx(125 / 120 - 1)

    def test_suite_mean(self):
        result = self.make_result()
        expected = ((125 / 120 - 1) + (250 / 260 - 1)) / 2
        assert result.mean_misp_vs_smp("rms") == pytest.approx(expected)
        with pytest.raises(ValueError):
            result.mean_misp_vs_smp("nope")

    def test_row_lookup_missing(self):
        with pytest.raises(KeyError):
            self.make_result().row("zzz")

    def test_spec_lookup_scaled(self):
        # scaled specs come uniformly from the registry's factories
        spec = REGISTRY.build("gauss", 0.1)
        assert spec.name == "gauss"
        spec2 = REGISTRY.build("swim", 0.1)
        assert spec2.suite == "speccomp"
        full = REGISTRY.build("gauss", None)
        assert full is REGISTRY.get("gauss")


#: each three-system figure: how to run it on a serial Runner, its
#: points, and the RunSpec one of its points declares on one system
SCALE = 0.02
COMPARISONS = {
    "figure4": (
        lambda runner: run_figure4(["dense_mvm", "gauss"], scale=SCALE,
                                   runner=runner).rows,
        ["dense_mvm", "gauss"],
        lambda point, system, config: RunSpec(point, system, config,
                                              scale=SCALE)),
    "figure_mem": (
        lambda runner: run_figure_mem("dense_mvm", mem_costs=(15, 960),
                                      scale=SCALE, runner=runner),
        [15, 960],
        lambda point, system, config: RunSpec(
            "dense_mvm", system, config, scale=SCALE,
            params=DEFAULT_PARAMS.with_changes(mem_cost=point))),
    "figure_pipeline": (
        lambda runner: run_figure_pipeline("dense_mvm", fu_counts=(1, 2),
                                           scale=SCALE, runner=runner),
        [1, 2],
        lambda point, system, config: RunSpec(
            "dense_mvm", system, config, scale=SCALE,
            params=DEFAULT_PARAMS.with_changes(sb_alu_units=point,
                                               sb_mem_units=point),
            timing_model="scoreboard")),
}


@pytest.mark.parametrize("figure", COMPARISONS)
def test_each_row_holds_the_runs_its_point_declares(figure):
    """Rows are read three summaries at a time off a point-major grid:
    every row's 1P, MISP and SMP runs are the specs its point declares,
    in ``_systems`` order (a grid built system-major would fail)."""
    run, points, declared = COMPARISONS[figure]
    rows = run(Runner(parallel=False))
    assert [row.point for row in rows] == points
    for row in rows:
        runs = (row.one_p, row.misp, row.smp)
        for summary, (system, config) in zip(
                runs, _systems(DEFAULT_AMS_COUNT), strict=True):
            spec = declared(row.point, system, config)
            assert summary.spec_hash == spec.spec_hash(), spec.describe()


class TestTable1Rows:
    def test_totals(self):
        row = EventRow("x", 1, 2, 3, 4, 5, 6)
        assert row.total_oms == 10
        assert row.total_ams == 11

    def test_paper_reference_sums(self):
        # spot-check the transcription against the paper
        assert PAPER_TABLE1["RayTracer"].ams_pf == 979
        assert PAPER_TABLE1["art"].ams_syscall == 436
        assert PAPER_TABLE1["galgel"].oms_pf == 152_806

    def test_format_without_compare(self):
        text = format_table1([EventRow("x", 0, 0, 0, 0, 0, 0)],
                             compare=False)
        assert "paper" not in text


class TestFigure5Model:
    def test_decompression_ratio(self):
        result = Session("misp", "1x4").run(REGISTRY.build("dense_mvm", 0.1))
        row = sensitivity_from_run(result)
        stretch = PAPER_TICK_CYCLES / 2_000_000
        for measured, decompressed in zip(row.overheads,
                                          row.overheads_decompressed):
            assert decompressed == pytest.approx(measured / stretch)


class TestReportHelpers:
    def test_figure6_text(self):
        text = figure6_text()
        for name in ("4x2", "2x4", "1x8", "1x4+4"):
            assert name in text
        assert "OMS+7AMS" in text


class TestLegacyApps:
    @pytest.mark.parametrize("factory", [
        make_lame_mt, make_media_encoder, make_jrockit_like,
        make_thread_checker_like,
        lambda: make_ode_like(restructured=False),
        lambda: make_ode_like(restructured=True),
    ])
    def test_runs_on_misp_and_smp(self, factory):
        misp = Session("misp", "1x4").run(factory())
        assert misp.runtime.active == 0
        smp = Session("smp", "smp4").run(factory())
        assert smp.runtime.active == 0

    def test_legacy_apps_scale(self):
        app = make_lame_mt()
        base = Session("1p").run(app)
        misp = Session("misp", "1x8").run(app)
        assert base.cycles / misp.cycles > 4.0

    def test_shim_counter_exposed(self):
        result = Session("misp", "1x4").run(make_lame_mt())
        shim = result.runtime.legacy_shim
        assert shim.calls_translated > 0

    def test_ode_naive_freezes_team(self):
        naive = Session("misp", "1x8").run(make_ode_like(restructured=False))
        fixed = Session("misp", "1x8").run(make_ode_like(restructured=True))
        assert naive.cycles > fixed.cycles
        # the naive port blocks its shredded thread in the kernel
        assert naive.main_thread.context_switches > 0
