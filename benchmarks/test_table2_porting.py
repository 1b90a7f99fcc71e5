"""Table 2 — porting legacy multithreaded applications to MISP.

Ports every legacy application (written purely against the
Pthreads/Win32 APIs) through ShredLib's thread-to-shred shims, runs
each on the MISP machine via the declared porting grid, and prints the
table.  Also reproduces the Open Dynamics Engine finding: the naive
port wastes the AMSs while the main thread sleeps in the OS; the
paper's structural fix (a native I/O thread) recovers the loss -- and
because the ODE runs are grid members too, the speedup is computed
from memoized summaries, not fresh simulations.
"""

from conftest import run_once

from repro.analysis import format_table2, run_table2
from repro.analysis.table2 import ode_restructuring_speedup, table2_experiment
from repro.systems import Session
from repro.workloads.legacy import make_ode_like


def test_table2_ports(benchmark, runner):
    rows = run_once(benchmark, lambda: run_table2(ams_count=7,
                                                  runner=runner))
    print()
    print(format_table2(rows))
    for row in rows:
        assert row.ran_correctly
        assert row.lines_changed == 1        # the shim "header include"
        assert row.api_calls_translated > 0
    # every app also runs unmodified on the SMP baseline
    smp = Session("smp", "smp4").run(make_ode_like(restructured=True))
    assert smp.runtime.active == 0


def test_table2_ode_restructuring(benchmark, runner):
    speedup = run_once(
        benchmark, lambda: ode_restructuring_speedup(ams_count=7,
                                                     runner=runner))
    naive, fixed = runner.run_many(table2_experiment(ams_count=7).runs[-2:])
    print(f"\n  naive: {naive.cycles:,} cycles; "
          f"restructured: {fixed.cycles:,} cycles; "
          f"speedup {speedup:.2f}x")
    assert speedup > 1.25
    # the second lookup was served from the Runner's memo
    assert runner.stats.memo_hits >= 2
