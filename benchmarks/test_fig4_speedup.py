"""Figure 4 — MISP vs SMP speedup over 1P for all 16 applications.

Regenerates the paper's bar chart as a table: the driver declares the
``16 workloads x {1p, misp 1x8, smp8}`` grid and the Runner executes
the 48 unique simulations in parallel worker processes.  The paper's
companion claims are asserted: every application scales, MISP tracks
SMP within a few percent, and the suite means are small (paper: RMS
+1.5%, SPEComp -1.9%).
"""

from conftest import BENCH_SCALE

from repro.analysis import format_figure4, run_figure4
from repro.workloads import FIGURE4_ORDER


def test_figure4(runner):
    result = run_figure4(FIGURE4_ORDER, scale=BENCH_SCALE, runner=runner)
    print()
    print(format_figure4(result))
    print(f"  [runner: {runner.stats}]")
    for row in result.rows:
        assert row.misp_speedup > 2.0, f"{row.workload} failed to scale"
        assert abs(row.misp_vs_smp) < 0.15, (
            f"{row.workload}: MISP deviates {row.misp_vs_smp:+.1%} from SMP")
    assert abs(result.mean_misp_vs_smp("rms")) < 0.08
    assert abs(result.mean_misp_vs_smp("speccomp")) < 0.08
    # RayTracer is the most scalable application (Section 5.2)
    ray = result.row("RayTracer")
    assert ray.misp_speedup == max(r.misp_speedup for r in result.rows)
    # each unique (workload, system, config) simulated exactly once
    assert runner.stats.executed <= 3 * len(FIGURE4_ORDER)
