"""Figure P — MISP-vs-SMP across core widths (scoreboard timing).

The paper's testbed prices every op with fixed costs; the
``scoreboard`` timing model re-prices the same functional runs on an
in-order pipeline whose ALU / memory units are *shared by all
sequencers of a processor*.  The sweep varies that pool width
(``sb_alu_units`` = ``sb_mem_units``) and regenerates the
Figure-4-style comparison at each point, declared as a
``fu_count x {1p, misp, smp}`` grid of ``timing_model="scoreboard"``
specs and executed through ``Runner.run_experiment`` (deduplication,
parallelism, and the cache all apply; scoreboard specs cannot even be
captured, so they are execution-driven by construction).

Asserted shape:

* MISP cycles fall monotonically as the shared pool widens (more
  units never slow the gang down), strictly over the full sweep;
* the single-sequencer systems are width-insensitive: SMP workers and
  the 1P baseline never contend, so their cycles stay flat;
* consequently the MISP speedup rises monotonically with core width —
  the paper's MISP advantage assumes an execution core wide enough
  for its shred gang.
"""

from conftest import BENCH_SCALE

from repro.analysis import (
    FIGURE_PIPELINE_FU_COUNTS, format_figure_pipeline, run_figure_pipeline,
)


def test_figure_pipeline(runner):
    rows = run_figure_pipeline(scale=BENCH_SCALE, runner=runner)
    print()
    print(format_figure_pipeline(rows))
    assert [row.point for row in rows] == list(FIGURE_PIPELINE_FU_COUNTS)

    for prev, cur in zip(rows, rows[1:]):
        # widening the shared pool never slows the MISP gang down
        assert cur.cycles_misp <= prev.cycles_misp
        # single-sequencer systems never contend: width-insensitive
        assert cur.cycles_1p == prev.cycles_1p
        assert cur.cycles_smp == prev.cycles_smp
        # so the MISP speedup rises with core width
        assert cur.misp_speedup >= prev.misp_speedup

    first, last = rows[0], rows[-1]
    assert last.cycles_misp < first.cycles_misp  # strict over the sweep
    assert last.misp_speedup > 2.0
    # at one unit per sequencer the gang issues nearly unimpeded:
    # MISP lands within 25% of the contention-free SMP ideal
    assert last.misp_vs_smp < 0.25
