"""Figure 5 — sensitivity to the inter-sequencer signal cost.

Two reproductions of the same claim:

1. **Analytic** (the paper's own method): apply Equations 1/2 to each
   application's measured event counts for signal in {500, 1000, 5000}
   and report % overhead over ideal (signal = 0) hardware.
2. **Dynamic** (an ablation the prototype could not do): re-run a
   workload with the machine's signal cost actually swept -- declared
   as a params-sweep grid of RunSpecs -- confirming the analytic model
   against end-to-end runtimes.
"""

import pytest
from conftest import BENCH_SCALE

from repro.analysis import FIGURE5_SIGNAL_COSTS, format_figure5, run_figure5
from repro.experiments import ExperimentSpec, RunSpec
from repro.params import DEFAULT_PARAMS
from repro.workloads import FIGURE4_ORDER

APPS = FIGURE4_ORDER


def test_figure5_analytic(runner):
    rows = run_figure5(APPS, scale=BENCH_SCALE, runner=runner)
    print()
    print(format_figure5(rows))
    for row in rows:
        o500, o1000, o5000 = row.overheads
        assert 0 <= o500 <= o1000 <= o5000          # monotone in signal
        assert o1000 == pytest.approx(2 * o500)     # linear
        # decompressed to the testbed's event density, magnitudes land
        # in the paper's "insensitive" range (<= ~1%)
        assert row.overheads_decompressed[-1] < 0.02


def test_figure5_dynamic_sweep(runner):
    """End-to-end: sweep the machine's actual signal cost on kmeans
    (the paper's worst case)."""
    signals = (0,) + FIGURE5_SIGNAL_COSTS
    sweep = ExperimentSpec("fig5-sweep", tuple(
        RunSpec("kmeans", "misp", "1x8", scale=BENCH_SCALE,
                params=DEFAULT_PARAMS.with_changes(signal_cost=signal))
        for signal in signals))
    result = runner.run_experiment(sweep)
    cycles = {spec.params.signal_cost: result[spec].cycles
              for spec in sweep.runs}
    ideal = cycles[0]
    print()
    for signal in FIGURE5_SIGNAL_COSTS:
        overhead = cycles[signal] / ideal - 1
        print(f"  kmeans signal={signal:5d}: {overhead * 100:+.3f}% vs ideal")
    # runtimes grow (weakly) with signal cost and stay small
    assert cycles[500] <= cycles[1000] * 1.001
    assert cycles[1000] <= cycles[5000] * 1.001
    assert cycles[5000] / ideal - 1 < 0.25
