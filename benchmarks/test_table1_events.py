"""Table 1 — serializing events per application on MISP (1 OMS + 7 AMS).

Regenerates the table's six columns (OMS SysCall / PF / Timer /
Interrupt, AMS SysCall / PF) from the declared MISP grid and prints
them next to the paper's reference counts (SPEComp at the proxies'
documented 1/50 event scale).  Structural counts (syscalls, page
profiles) are asserted against the paper; time-coupled counts (Timer,
Interrupt) scale with ``BENCH_SCALE`` and are asserted as ratios.
"""

import pytest
from conftest import BENCH_SCALE

from repro.analysis import format_table1, run_table1
from repro.workloads import FIGURE4_ORDER


def test_table1(runner):
    rows = run_table1(FIGURE4_ORDER, scale=BENCH_SCALE, runner=runner)
    print()
    print(format_table1(rows))

    by_name = {row.workload: row for row in rows}
    # --- structural counts track the paper (scaled workloads shrink
    #     page populations linearly with BENCH_SCALE) -----------------
    gauss = by_name["gauss"]
    assert gauss.oms_syscall == 8                       # exact: 8 logs
    assert gauss.ams_pf <= 4                            # init-on-main
    assert gauss.oms_pf == pytest.approx(7170 * BENCH_SCALE, rel=0.2)

    for name in ("sparse_mvm", "sparse_mvm_sym", "RayTracer"):
        row = by_name[name]
        assert row.ams_pf > row.oms_pf, (
            f"{name}: shred-side first touch should dominate")

    # art is the only application with AMS syscalls (paper: 436)
    others = [r for r in rows if r.workload != "art"]
    assert all(r.ams_syscall == 0 for r in others)

    # relative timer ordering matches the paper's runtimes:
    # gauss runs much longer than dense_mvm
    assert by_name["gauss"].oms_timer > 3 * by_name["dense_mvm"].oms_timer

    # interrupts are steered to CPU 0 and are ~Timer/10
    for row in rows:
        if row.oms_timer > 50:
            assert 0 < row.oms_interrupt < row.oms_timer
