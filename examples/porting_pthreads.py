"""Porting a legacy Pthreads application to MISP (the Table 2 story).

``lame_mt`` (the frame-parallel MP3 encoder analogue) is written
purely against the Pthreads API -- it knows nothing about shreds.
Porting is the construction of the :class:`PthreadsAPI` shim over
ShredLib (the paper's single header include): the same source then
runs multi-shredded on MISP, as gang workers on the SMP baseline, and
sequentially on 1P.

Run:  python examples/porting_pthreads.py
"""

from repro.systems import Session
from repro.workloads.legacy import make_lame_mt, make_ode_like


def main():
    app = make_lame_mt()
    base = Session("1p").run(app)
    misp = Session("misp", "1x8").run(app)
    smp = Session("smp", "smp8").run(app)

    print("lame_mt (legacy Pthreads source, zero lines changed):")
    print(f"  1P        : {base.cycles:>12,} cycles")
    print(f"  MISP 1x8  : {misp.cycles:>12,} cycles "
          f"({base.cycles / misp.cycles:.2f}x)")
    print(f"  SMP 8-way : {smp.cycles:>12,} cycles "
          f"({base.cycles / smp.cycles:.2f}x)")
    shim = getattr(misp.runtime, "legacy_shim", None)
    print(f"  Pthreads calls translated by the shim: "
          f"{shim.calls_translated}")
    print()

    naive = Session("misp", "1x8").run(make_ode_like(restructured=False))
    fixed = Session("misp", "1x8").run(make_ode_like(restructured=True))
    print("ode_like (the one app needing a structural change, §5.5):")
    print(f"  naive port (main thread sleeps in OS) : {naive.cycles:>12,}")
    print(f"  restructured (native I/O thread)      : {fixed.cycles:>12,}")
    print(f"  restructuring speedup                 : "
          f"{naive.cycles / fixed.cycles:.2f}x")


if __name__ == "__main__":
    main()
