"""Integration tests for the experiment harness: scaled-down versions
of every table and figure, asserting the paper's qualitative shapes."""

import pytest

from repro.analysis import (
    format_figure4, format_figure5, format_figure7,
    format_table1, measured_row, paper_row_scaled, run_figure4,
    sensitivity_from_run,
)
from repro.analysis.figure7 import Figure7Result, run_figure7
from repro.analysis.table1 import PAPER_TABLE1
from repro.analysis.table2 import (
    ode_restructuring_speedup, run_table2,
)
from repro.experiments import Runner

SUBSET = ["dense_mmm", "gauss", "RayTracer", "swim"]


@pytest.fixture(scope="module")
def fig4():
    return run_figure4(SUBSET, scale=0.05)


class TestFigure4:
    def test_speedups_meaningful(self, fig4):
        for row in fig4.rows:
            assert row.misp_speedup > 2.0, row
            assert row.smp_speedup > 2.0, row

    def test_misp_close_to_smp(self, fig4):
        # the paper's headline: MISP within a few percent of SMP
        for row in fig4.rows:
            assert abs(row.misp_vs_smp) < 0.15, row

    def test_raytracer_most_scalable(self, fig4):
        ray = fig4.row("RayTracer")
        others = [r for r in fig4.rows if r.workload != "RayTracer"]
        assert all(ray.misp_speedup >= r.misp_speedup - 0.5 for r in others)

    def test_format_contains_all_rows(self, fig4):
        text = format_figure4(fig4)
        for name in SUBSET:
            assert name in text


class TestTable1:
    def test_measured_rows_extracted(self, fig4):
        row = measured_row(fig4.misp_summaries["gauss"])
        assert row.oms_syscall == 8          # exact (structural)
        assert row.ams_syscall == 0
        assert row.oms_timer > 0
        assert row.total_oms > row.total_ams

    def test_paper_reference_complete(self):
        assert len(PAPER_TABLE1) == 16
        assert PAPER_TABLE1["swim"].oms_syscall == 77_009

    def test_speccomp_rows_scaled(self):
        scaled = paper_row_scaled("swim")
        assert scaled.oms_syscall == round(77_009 / 50)
        unscaled = paper_row_scaled("gauss")
        assert unscaled.oms_pf == 7170

    def test_format(self, fig4):
        rows = [measured_row(fig4.misp_summaries[n]) for n in SUBSET]
        text = format_table1(rows)
        assert "SysCall" in text and "gauss" in text


class TestFigure5:
    def test_overhead_small_and_linear(self, fig4):
        for name in SUBSET:
            row = sensitivity_from_run(fig4.misp_summaries[name])
            o500, o1000, o5000 = row.overheads
            assert 0 <= o500 <= o1000 <= o5000
            assert o1000 == pytest.approx(2 * o500)
            assert o5000 < 0.35   # scaled runs are event-dense
            # decompressed values land in the paper's magnitude range
            assert row.overheads_decompressed[-1] < 0.02

    def test_format(self, fig4):
        rows = [sensitivity_from_run(fig4.misp_summaries[n]) for n in SUBSET]
        text = format_figure5(rows)
        assert "worst" in text


@pytest.fixture(scope="module")
def fig7_curve():
    """One Figure 7 series at rt_scale 0.05, through one serial Runner
    so points shared between tests (the unloaded baselines) simulate
    once."""
    runner = Runner(parallel=False)

    def curve(config, loads):
        return run_figure7(series=[config], loads=loads, rt_scale=0.05,
                           runner=runner).curve(config)
    return curve


class TestFigure7:
    def test_1x8_degrades_nearly_linearly(self, fig7_curve):
        curve = fig7_curve("1x8", loads=range(3))
        assert curve[0] == pytest.approx(1.0)
        assert curve[1] == pytest.approx(0.5, abs=0.1)
        assert curve[2] == pytest.approx(1 / 3, abs=0.1)

    def test_4x2_flat_until_cpus_exhausted(self, fig7_curve):
        curve = fig7_curve("4x2", loads=range(4))
        for value in curve:
            assert value > 0.9

    def test_ideal_stays_at_one(self, fig7_curve):
        curve = fig7_curve("ideal", loads=range(3))
        for value in curve:
            assert value == pytest.approx(1.0, abs=0.05)

    def test_smp_degrades_gracefully(self, fig7_curve):
        curve = fig7_curve("smp", loads=[0, 2])
        assert curve[1] > 0.6    # ~ 8/(8+2)

    def test_more_processors_flatter(self, fig7_curve):
        """Section 5.4: scaling improves with more MISP processors."""
        at_load = 2
        one = fig7_curve("1x8", loads=[0, at_load])[1]
        two = fig7_curve("2x4", loads=[0, at_load])[1]
        four = fig7_curve("4x2", loads=[0, at_load])[1]
        assert one < two <= four

    def test_format(self):
        result = Figure7Result((0, 1), {"1x8": [1.0, 0.5]})
        assert "1x8" in format_figure7(result)


class TestTable2:
    def test_all_ports_run_unmodified(self):
        rows = run_table2(ams_count=3)
        assert len(rows) == 6
        for row in rows:
            assert row.ran_correctly, row.application
            assert row.lines_changed == 1
            assert row.api_calls_translated > 0

    def test_ode_restructuring_helps(self):
        assert ode_restructuring_speedup(ams_count=7) > 1.25
