"""Observability end to end: metrics, contention records, and a Perfetto
timeline.

Runs one MISP simulation with ``Session.observe(...)`` turned on and
shows everything the observability layer produces:

* the per-run **metrics families** (engine, trace, timing, memory
  hierarchy, TLB, ShredLib) labeled with the run's correlation id, in
  both snapshot and Prometheus text form;
* timestamped **sync-contention records** from the ShredLib runtime
  log (unified into the same registry);
* a **Perfetto/Chrome trace** (``observe_trace.json``) with one track
  per sequencer -- open it at https://ui.perfetto.dev to see ring
  transitions, proxy choreography, and contention on a timeline.

Run:  python examples/observe_run.py
"""

from repro.obs import MetricsRegistry, export_run
from repro.systems import Session

TRACE_PATH = "observe_trace.json"


def main():
    registry = MetricsRegistry()
    session = (Session("misp", "1x8")
               .observe(registry=registry, run_id="demo"))
    result = session.run("RayTracer", scale=0.05)
    print(f"{result.workload} on {result.system}:{result.config} -> "
          f"{result.cycles:,} cycles (observed as '{result.obs.run_id}')")

    # -- the timing-layer totals, read off the finished machine --------
    obs = result.obs
    print(f"\ntiming layer: {obs.ops:,} ops priced, "
          f"{obs.charged_cycles:,} cycles charged, "
          f"{obs.signal_charges} SIGNALs ({obs.signal_cycles:,} cycles)")

    # -- ShredLib contention, timestamped because the run was observed -
    events = result.runtime.log.contention_events()
    print(f"sync contention: {len(events)} timestamped events")
    for cycle, name in events[:5]:
        print(f"  cycle {cycle:>12,}  {name}")

    # -- every family this run published, Prometheus-style -------------
    print("\nmetrics snapshot (this run's families):")
    for family in sorted(obs.snapshot()):
        print(f"  {family}")
    print("\nPrometheus exposition (excerpt):")
    text = registry.render_prometheus()
    print("\n".join(text.splitlines()[:12]))

    # -- the timeline ---------------------------------------------------
    doc = export_run(result, TRACE_PATH)
    print(f"\nwrote {len(doc['traceEvents'])} trace events -> {TRACE_PATH}")
    print("open it at https://ui.perfetto.dev (or chrome://tracing)")


if __name__ == "__main__":
    main()
