"""The trace-driven fast path: Figure M regenerated from captured traces.

The test regenerates the Figure M sweep twice in one process, both
times serially.  First execution-driven: ``run_figure_mem`` on a
serial Runner simulates all twelve ``mem_cost x {1p, misp, smp}``
runs.  Then from traces: each system's event trace is captured once
(untimed), and the replay regeneration re-prices the recorded event
graph under each swept ``mem_cost``.  The replay side is what a caller
of the explicit trace-driven API (``execute_captured``, then one
``ReplayMachine.run`` per point) pays per additional sweep point; the
Runner and the report always execute.  The fast-path contract: replay
regeneration must be at least ``TARGET_SPEEDUP`` times faster than the
execution-driven sweep.  Both
sides run serially on the same host, so the ratio compares code, not
machines or pool widths.

The replayed rows themselves are held to the same figure-shape
assertions as the execution-driven test (monotone speedup decline,
both parallel systems above 2x), so the fast path cannot buy speed by
drifting from the paper's curve.
"""

import time

from conftest import BENCH_SCALE

from repro.analysis import FIGURE_MEM_COSTS, format_figure_mem, run_figure_mem
from repro.analysis.figure4 import DEFAULT_AMS_COUNT, SpeedupRow, _systems
from repro.analysis.figure_mem import DEFAULT_WORKLOAD
from repro.experiments import Runner, RunSpec
from repro.params import DEFAULT_PARAMS
from repro.service import execute_captured
from repro.sim.captrace import ReplayMachine

#: replay regeneration must beat the execution-driven sweep by this much
TARGET_SPEEDUP = 5.0


def test_figure_mem_sweep_replay():
    t0 = time.perf_counter()
    run_figure_mem(scale=BENCH_SCALE, runner=Runner(parallel=False))
    execute_time = time.perf_counter() - t0

    systems = _systems(DEFAULT_AMS_COUNT)
    machines = {}
    for system, config in systems:
        spec = RunSpec(DEFAULT_WORKLOAD, system, config,
                       scale=BENCH_SCALE, params=DEFAULT_PARAMS)
        _, trace = execute_captured(spec)
        machines[system] = ReplayMachine(trace)

    t0 = time.perf_counter()
    rows = []
    for mem_cost in FIGURE_MEM_COSTS:
        swept = DEFAULT_PARAMS.with_changes(mem_cost=mem_cost)
        point = {system: machines[system].run(params=swept)
                 for system, _config in systems}
        rows.append(SpeedupRow(mem_cost, point["1p"], point["misp"],
                               point["smp"]))
    replay_time = time.perf_counter() - t0
    print()
    print(format_figure_mem(rows))

    # same figure shape the execution-driven test asserts
    assert [row.point for row in rows] == list(FIGURE_MEM_COSTS)
    for prev, cur in zip(rows, rows[1:]):
        assert prev.cycles_misp <= cur.cycles_misp
        assert prev.cycles_smp <= cur.cycles_smp
        assert cur.misp_speedup <= prev.misp_speedup * 1.002
    for row in rows:
        assert row.misp_speedup > 2.0 and row.smp_speedup > 2.0

    # the fast-path contract, against the execution-driven sweep
    # timed above in this process
    speedup = execute_time / replay_time
    print(f"replay fast path: {replay_time:.3f}s vs execution-driven "
          f"{execute_time:.3f}s ({speedup:.1f}x)")
    assert speedup >= TARGET_SPEEDUP
