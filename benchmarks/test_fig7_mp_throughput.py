"""Figure 7 — MISP MP throughput under multiprogramming.

Regenerates all nine series (ideal, smp, 4x2, 2x4, 1x8, 1x7+1, 1x6+2,
1x5+3, 1x4+4): RayTracer's speedup vs unloaded as 0..4 single-threaded
processes are added.  The 45-point sweep is declared as a ``configs x
loads`` grid; the Runner executes the points in parallel worker
processes and folds the "ideal" series onto the identically
partitioned fixed-series runs.  Asserts the paper's Section 5.4
findings: 1x8 degrades nearly linearly, more MISP processors flatten
the curve, and the per-load ideal partition stays at 1.0.
"""

import pytest
from conftest import FIG7_RT_SCALE

from repro.analysis import FIGURE7_SERIES, format_figure7, run_figure7


def test_figure7(runner):
    result = run_figure7(rt_scale=FIG7_RT_SCALE, runner=runner)
    print()
    print(format_figure7(result))
    print(f"  [runner: {runner.stats}]")

    one_x8 = result.curve("1x8")
    # "the performance of RayTracer decreases nearly linearly"
    for load in range(1, 5):
        assert one_x8[load] == pytest.approx(1 / (1 + load), abs=0.08)

    # every curve starts at 1.0 (normalized to its own unloaded config)
    for config in FIGURE7_SERIES:
        assert result.curve(config)[0] == pytest.approx(1.0)

    # "As we increase the number of MISP processors ... scaling
    # performance improves"
    at = 2
    assert result.curve("1x8")[at] < result.curve("2x4")[at]
    assert result.curve("2x4")[at] <= result.curve("4x2")[at] + 1e-9

    # the ideal partition keeps RayTracer unaffected
    for value in result.curve("ideal"):
        assert value == pytest.approx(1.0, abs=0.05)

    # SMP degrades gracefully (~ 8/(8+N))
    smp = result.curve("smp")
    for load in range(1, 5):
        assert smp[load] == pytest.approx(8 / (8 + load), abs=0.12)

    # curves never increase with load
    for config in FIGURE7_SERIES:
        curve = result.curve(config)
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 0.05

    # the ideal series dedups onto the fixed-partition grid: 9 series
    # x 5 loads declare 50 specs but at most 45 unique simulations
    assert runner.stats.executed <= 45
