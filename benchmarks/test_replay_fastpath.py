"""The trace-driven fast path: Figure M regenerated from captured traces.

The execution-driven ``test_figure_mem_sweep`` benchmark simulates all
twelve ``mem_cost x {1p, misp, smp}`` runs.  This benchmark captures
each system's event trace once (in the un-timed ``pedantic`` setup)
and times only the replay regeneration of the full sweep: re-pricing
the recorded event graph under each swept ``mem_cost``.  The timed
region is what a ``Runner(replay=True)`` grid pays per additional
sweep point, and the assertion pins the committed baseline ratio:
replay regeneration must be at least ``TARGET_SPEEDUP`` times faster
than the execution-driven sweep recorded in ``BENCH_baseline.json``.

The replayed rows themselves are held to the same figure-shape
assertions as the execution-driven benchmark (monotone speedup
decline, both parallel systems above 2x), so the fast path cannot buy
speed by drifting from the paper's curve.
"""

import json
from pathlib import Path

from conftest import BENCH_SCALE

from repro.analysis import FIGURE_MEM_COSTS, format_figure_mem
from repro.analysis.figure4 import DEFAULT_AMS_COUNT, _systems
from repro.analysis.figure_mem import DEFAULT_WORKLOAD, MemSensitivityRow
from repro.experiments import RunSpec
from repro.params import DEFAULT_PARAMS
from repro.service import execute_captured
from repro.sim.captrace import ReplayMachine

#: committed execution-driven medians (regenerated by run_bench.sh)
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"

#: replay regeneration must beat the execution-driven sweep by this much
TARGET_SPEEDUP = 5.0


def baseline_median(name: str) -> float:
    data = json.loads(BASELINE.read_text())
    for bench in data["benchmarks"]:
        if bench["name"] == name:
            return bench["stats"]["median"]
    raise KeyError(f"{name} not in {BASELINE}")


def test_figure_mem_sweep_replay(benchmark):
    systems = _systems(DEFAULT_AMS_COUNT)
    machines = {}

    def capture():
        machines.clear()
        for system, config in systems:
            spec = RunSpec(DEFAULT_WORKLOAD, system, config,
                           scale=BENCH_SCALE, params=DEFAULT_PARAMS)
            _, trace = execute_captured(spec)
            machines[system] = ReplayMachine(trace)

    def regenerate():
        rows = []
        for mem_cost in FIGURE_MEM_COSTS:
            swept = DEFAULT_PARAMS.with_changes(mem_cost=mem_cost)
            point = {system: machines[system].run(params=swept)
                     for system, _config in systems}
            rows.append(MemSensitivityRow(
                DEFAULT_WORKLOAD, mem_cost,
                point["1p"].cycles, point["misp"].cycles,
                point["smp"].cycles,
                point["misp"].mem, point["smp"].mem))
        return rows

    rows = benchmark.pedantic(regenerate, setup=capture,
                              rounds=1, iterations=1)
    print()
    print(format_figure_mem(rows))

    # same figure shape the execution-driven benchmark asserts
    assert [row.mem_cost for row in rows] == list(FIGURE_MEM_COSTS)
    for prev, cur in zip(rows, rows[1:]):
        assert prev.cycles_misp <= cur.cycles_misp
        assert prev.cycles_smp <= cur.cycles_smp
        assert cur.misp_speedup <= prev.misp_speedup * 1.002
    for row in rows:
        assert row.misp_speedup > 2.0 and row.smp_speedup > 2.0

    # the fast-path contract, against the committed baseline (only
    # meaningful at the scale the baseline was recorded at)
    if BASELINE.exists() and BENCH_SCALE == 0.25:
        exec_median = baseline_median("test_figure_mem_sweep")
        replay_time = benchmark.stats.stats.median
        speedup = exec_median / replay_time
        print(f"replay fast path: {replay_time:.3f}s vs "
              f"execution-driven baseline {exec_median:.3f}s "
              f"({speedup:.1f}x)")
        assert speedup >= TARGET_SPEEDUP
