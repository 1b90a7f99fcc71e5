"""RayTracer on MISP vs SMP, with the page-probing optimization.

Reproduces a slice of the Section 5.3 analysis on the paper's most
scalable application: runs RayTracer on the 1P baseline, the MISP
uniprocessor, and the 8-way SMP; then applies the page-probing
optimization ("the OMS probes each page while executing in the serial
region") and shows the AMS proxy faults collapse.

Run:  python examples/raytracer_demo.py [scale]
"""

import sys

from repro.systems import Session
from repro.workloads.rms.raytracer import make_raytracer


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    plain = make_raytracer(scale=scale)
    probed = make_raytracer(scale=scale, probe_pages=True)

    base = Session("1p").run(plain)
    misp = Session("misp", "1x8").run(plain)
    smp = Session("smp", "smp8").run(plain)
    misp_probed = Session("misp", "1x8").run(probed)

    print(f"RayTracer (scale={scale})")
    print(f"  1P        : {base.cycles:>14,} cycles")
    print(f"  MISP 1x8  : {misp.cycles:>14,} cycles "
          f"(speedup {base.cycles / misp.cycles:.2f}x)")
    print(f"  SMP 8-way : {smp.cycles:>14,} cycles "
          f"(speedup {base.cycles / smp.cycles:.2f}x)")
    delta = misp.cycles / smp.cycles - 1
    print(f"  MISP vs SMP: {delta:+.2%}  "
          "(paper: within ~2% either way)")
    print()
    before = misp.serializing_events()
    after = misp_probed.serializing_events()
    print("page-probing optimization (Section 5.3):")
    print(f"  AMS proxy faults : {before['ams_pf']:>6} -> {after['ams_pf']}")
    print(f"  OMS page faults  : {before['oms_pf']:>6} -> {after['oms_pf']}")
    print(f"  runtime          : {misp.cycles:,} -> {misp_probed.cycles:,} "
          f"({misp.cycles / misp_probed.cycles:.3f}x)")


if __name__ == "__main__":
    main()
