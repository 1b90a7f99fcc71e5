"""Figure M — sensitivity to the memory hierarchy (a new sweep axis).

The dual of the Figure 5 signal sweep: hold the MISP parameters fixed
and sweep the miss penalty (``MachineParams.mem_cost``) across the
three Figure 4 systems.  The sweep is declared as a
``mem_cost x {1p, misp, smp}`` grid and executed end-to-end through
``Runner.run_experiment``, so deduplication, parallelism, and the
on-disk cache all apply.

Asserted shape:

* absolute runtimes grow monotonically with the miss penalty on every
  system (slower memory never speeds a run up);
* parallel speedups decline monotonically as memory slows (the 1P
  baseline keeps the whole working set in one L1; the eight-sequencer
  gangs split it and re-miss on migrated shreds);
* the shared-vs-private L2 difference stays observable at every point:
  MISP refills its lock/data ping-pong from the shared L2, SMP pays
  cross-L2 invalidations and memory accesses.
"""

from conftest import BENCH_SCALE

from repro.analysis import FIGURE_MEM_COSTS, format_figure_mem, run_figure_mem

#: tolerance for the monotone-speedup assertion: scheduling noise
#: (idle-poll quantization) moves completion by fractions of a percent
SLACK = 1.002


def test_figure_mem_sweep(runner):
    rows = run_figure_mem(scale=BENCH_SCALE, runner=runner)
    print()
    print(format_figure_mem(rows))
    assert [row.mem_cost for row in rows] == list(FIGURE_MEM_COSTS)

    for prev, cur in zip(rows, rows[1:]):
        # runtimes grow with the miss penalty on every system
        assert prev.cycles_1p <= cur.cycles_1p
        assert prev.cycles_misp <= cur.cycles_misp
        assert prev.cycles_smp <= cur.cycles_smp
        # parallel speedups decline (weakly) as memory slows
        assert cur.misp_speedup <= prev.misp_speedup * SLACK
        assert cur.smp_speedup <= prev.smp_speedup * SLACK

    for row in rows:
        assert row.misp_speedup > 2.0 and row.smp_speedup > 2.0
        # shared vs private L2: observable at every sweep point
        assert row.misp_mem.l2_hits > row.smp_mem.l2_hits
        assert row.misp_mem.l2_invalidations == 0
        assert row.smp_mem.l2_invalidations > 0
        assert row.smp_mem.mem_accesses > row.misp_mem.mem_accesses
