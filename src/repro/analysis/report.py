"""One-stop evaluation report: regenerate every table and figure.

``python -m repro.analysis.report`` runs the full Section 5 evaluation
(Figure 4, Table 1, Figure 5, Figure 6, Figure 7, Table 2) and prints
the paper-shaped artifacts.  All experiments flow through one shared
:class:`repro.experiments.Runner`, so runs common to several artifacts
simulate once, grid members execute in parallel worker processes, and
(with ``--cache-dir``) a re-invocation is served from the on-disk
cache.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional, Sequence

from repro.analysis.figure4 import (
    format_figure4, run_figure4, run_figure4_streaming,
)
from repro.analysis.figure5 import format_figure5, run_figure5
from repro.analysis.figure7 import format_figure7, run_figure7
from repro.analysis.figure_mem import format_figure_mem, run_figure_mem
from repro.analysis.table1 import format_table1, run_table1
from repro.analysis.table2 import (
    format_table2, ode_restructuring_speedup, run_table2,
)
from repro.core.notation import FIGURE6_CONFIGS, config_name, parse_config
from repro.errors import ConfigurationError
from repro.experiments import Runner, default_runner
from repro.obs.emit import ReportEmitter
from repro.params import DEFAULT_PARAMS
from repro.service import store_from_env
from repro.systems import SYSTEM_REGISTRY
from repro.workloads.runner import RunResult


def figure6_text() -> str:
    """Figure 6: the MISP MP configurations, as partition listings."""
    lines = ["Figure 6 -- MISP MP configurations (8 sequencers total):"]
    for name in FIGURE6_CONFIGS:
        counts = parse_config(name)
        parts = " | ".join(
            "OMS" + (f"+{c}AMS" if c else "") for c in counts)
        lines.append(f"  {config_name(counts):7s} -> {parts}")
    return "\n".join(lines)


def full_report(workloads: Optional[Sequence[str]] = None,
                scale: Optional[float] = None,
                rt_scale: float = 0.15,
                runner: Optional[Runner] = None,
                streaming: bool = False,
                stream=None,
                emitter: Optional[ReportEmitter] = None,
                smoke: bool = False) -> None:
    """Regenerate every artifact.

    With ``streaming`` the Figure 4 grid flows through the runner's
    streaming job API (``submit``) -- partial results print as runs
    finish.  When the runner has a store, the report ends with its
    hit-rate line.

    Output flows through a :class:`~repro.obs.emit.ReportEmitter`
    (built from ``stream`` when not passed), so every line carries the
    report's correlation id in structured mode.  ``smoke`` restricts
    the report to the Figure 4 grid -- the fast end-to-end slice CI
    exercises for observability artifacts.
    """
    from repro.workloads import FIGURE4_ORDER
    names = list(workloads or FIGURE4_ORDER)
    runner = runner or default_runner()
    out = emitter if emitter is not None else ReportEmitter(stream=stream)
    emit = out.emit

    t0 = time.time()
    emit("=" * 70, kind="header")
    emit("MISP reproduction -- full evaluation report", kind="header",
         run=out.run_id)
    emit("system backends: " + ", ".join(
        f"{b.name} ({b.default_config})"
        for b in SYSTEM_REGISTRY.values()), kind="header")
    emit("=" * 70, kind="header")

    out.section("Figure 4: speedup vs 1P (MISP 1x8 vs SMP 8-way)")
    if streaming:
        def progress(done: int, total: int, summary) -> None:
            emit(f"  [{done}/{total}] {summary.workload}/{summary.system}:"
                 f"{summary.config} -> {summary.cycles:,} cycles",
                 kind="progress", done=done, total=total,
                 workload=summary.workload, system=summary.system,
                 config=summary.config, cycles=summary.cycles)

        fig4 = run_figure4_streaming(runner, names, scale=scale,
                                     progress=progress)
    else:
        fig4 = run_figure4(names, scale=scale, runner=runner)
    emit(format_figure4(fig4), kind="artifact", artifact="figure4")

    if not smoke:
        out.section("Table 1: serializing events (MISP 1x8)")
        emit(format_table1(run_table1(names, scale=scale, runner=runner)),
             kind="artifact", artifact="table1")

        out.section("Figure 5: sensitivity to signal cost")
        emit(format_figure5(run_figure5(names, scale=scale, runner=runner)),
             kind="artifact", artifact="figure5")

        out.section("Figure M: sensitivity to memory cost (new axis)")
        emit(format_figure_mem(run_figure_mem(workload=names[0], scale=scale,
                                              runner=runner)),
             kind="artifact", artifact="figure_mem")
        sample = fig4.misp_summaries[names[0]].mem
        emit(f"{names[0]} on MISP: {sample.accesses:,} hierarchy accesses, "
             f"L1 {sample.l1_hit_rate * 100:.1f}% / "
             f"L2 {sample.l2_hit_rate * 100:.1f}% hit, "
             f"{sample.l1_invalidations} L1 invalidations, "
             f"TLB {sample.tlb_hits:,}h/{sample.tlb_misses:,}m/"
             f"{sample.tlb_flushes}f", kind="stats")

        emit("\n--- " + figure6_text(), kind="artifact", artifact="figure6")

        out.section("Figure 7: MP throughput under multiprogramming")
        fig7 = run_figure7(rt_scale=rt_scale, runner=runner)
        emit(format_figure7(fig7), kind="artifact", artifact="figure7")

        out.section("Table 2: porting legacy applications")
        emit(format_table2(run_table2(runner=runner)),
             kind="artifact", artifact="table2")
        speedup = ode_restructuring_speedup(runner=runner)
        emit(f"ODE restructuring speedup: {speedup:.2f}x", kind="stats",
             speedup=speedup)

    emit(f"\n[report completed in {time.time() - t0:.1f}s; "
         f"runs: {runner.stats}]", kind="stats")
    if streaming:
        emit(f"[service: {runner.stats}]", kind="stats")
    if runner.store is not None:
        # the ROADMAP's serving target: a figure request should be
        # almost entirely store hits -- report the measured rate
        emit(f"[{runner.store.stats}]", kind="stats")


def _observed_timeline(names: Sequence[str], scale: Optional[float],
                       emitter: ReportEmitter, trace_out: str) -> RunResult:
    """Run one observed MISP simulation and export its timeline.

    The run is labeled with the report's correlation id, so the
    Perfetto document, the metrics snapshot, and the structured report
    lines all join on one id.  Returns the run's result: the registry
    holds the run only weakly, so a caller exporting metrics keeps the
    result until it has.
    """
    from repro.obs.perfetto import export_run
    from repro.systems import Session

    workload = names[0]
    session = Session("misp").observe(run_id=emitter.run_id)
    result = session.run(workload, scale=scale if scale is not None else 0.05)
    doc = export_run(result, trace_out)
    emitter.emit(
        f"[trace: {len(doc['traceEvents'])} events from observed "
        f"{workload} run ({result.cycles:,} cycles) -> {trace_out}]",
        kind="artifact", artifact="trace", path=trace_out,
        events=len(doc["traceEvents"]), cycles=result.cycles)
    return result


#: the Figure 4 smoke grid the bottleneck analysis sweeps: each
#: workload on the paper's three system shapes
_ANALYZE_SYSTEMS = (("1p", "smp1"), ("misp", "1x8"), ("smp", "smp8"))


def _parse_params(pairs: Optional[Sequence[str]]) -> dict:
    """``--param KEY=VALUE`` pairs as MachineParams field overrides.

    Every field is an integer; a malformed pair, a non-integer value or
    a value :class:`~repro.params.MachineParams` rejects exits with a
    message naming it.
    """
    changes: dict = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            changes[key] = int(value)
        except ValueError:
            raise SystemExit(f"--param {key} expects an integer, "
                             f"got {value!r}") from None
    try:
        DEFAULT_PARAMS.with_changes(**changes)
    except ValueError as exc:
        raise SystemExit(f"--param: {exc}") from None
    return changes


def _bottleneck_analysis(names: Sequence[str], scale: Optional[float],
                         timing: str = "fixed",
                         params: Optional[dict] = None,
                         emitter: Optional[ReportEmitter] = None) -> dict:
    """Run the Figure 4 grid and attribute every run's cycles.

    Each run captures its event-dependency trace when the backend and
    timing model support it (critical path + exact stall attribution);
    otherwise it falls back to an observed run (live stall accounts,
    no critical path) with a one-line notice.  Those runs observe into
    a private registry: the analysis reads only their stall accounts,
    and they stay out of the report's metrics export.  The returned
    document is deterministic -- no run ids, keys sorted -- so two
    invocations at the same scale diff cleanly.
    """
    from repro.obs.critpath import analyze_result
    from repro.obs.metrics import MetricsRegistry
    from repro.systems import Session
    from repro.timing.base import resolve_timing

    runs: dict = {}
    noticed = False
    for workload in names:
        for system, config in _ANALYZE_SYSTEMS:
            session = Session(system, config).timing(timing)
            if params:
                session = session.params(**params)
            backend, _ = session.resolve()
            model = resolve_timing(timing)
            if backend.supports_capture and model.supports_capture:
                session = session.capture()
            else:
                if not noticed and emitter is not None:
                    emitter.emit(
                        f"[analyze: '{timing}' timing does not support "
                        "trace capture; attributing from observed stall "
                        "accounts (no critical path)]", kind="notice",
                        timing=timing)
                noticed = True
                session = session.observe(registry=MetricsRegistry())
            result = session.run(workload, scale=scale)
            # totals/by_class stay exact; only the listed segments are
            # bounded, keeping multi-run snapshot files commit-sized
            doc = analyze_result(result, max_segments=64)
            runs[f"{workload}/{result.system}:{result.config}"] = doc
    return {
        "schema": "repro.analyze/1",
        "timing": timing,
        "scale": scale,
        "params": dict(sorted(params.items())) if params else {},
        "runs": dict(sorted(runs.items())),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default: full size)")
    parser.add_argument("--rt-scale", type=float, default=0.15,
                        help="RayTracer scale for Figure 7")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workloads to run")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker processes (default: cores)")
    parser.add_argument("--serial", action="store_true",
                        help="run everything in-process, serially")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk run cache (incremental re-runs)")
    parser.add_argument("--stream", action="store_true",
                        help="serve Figure 4 through the runner's "
                             "submit() job API (partial results stream "
                             "as runs finish; with --cache-dir, prints "
                             "the store hit-rate line)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast end-to-end slice: Figure 4 grid only, "
                             "small default scale (CI's observability run)")
    parser.add_argument("--structured", action="store_true",
                        help="emit JSON-lines records with run correlation "
                             "ids instead of human text")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics-registry snapshot after "
                             "the report")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the metrics snapshot as JSON")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="run one observed MISP simulation and write "
                             "its Perfetto/Chrome timeline JSON")
    parser.add_argument("--analyze", action="store_true",
                        help="run the Figure 4 grid with trace capture "
                             "and print critical-path / stall-class "
                             "bottleneck attribution per run")
    parser.add_argument("--analyze-out", default=None, metavar="FILE",
                        help="write the bottleneck analysis as JSON "
                             "(deterministic; diffable with --diff)")
    parser.add_argument("--timing", default="fixed",
                        help="timing model for --analyze runs (models "
                             "that cannot capture fall back to observed "
                             "attribution)")
    parser.add_argument("--param", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="MachineParams override for --analyze runs "
                             "(repeatable), e.g. --param mem_cost=600")
    parser.add_argument("--diff", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="attribute the cycle delta between two "
                             "--analyze-out JSON files and exit")
    args = parser.parse_args(argv)
    if args.param and not (args.analyze or args.analyze_out):
        raise SystemExit("--param applies to --analyze / --analyze-out "
                         "runs only")
    params = _parse_params(args.param)
    if args.diff:
        from repro.obs.diff import diff_analyses, format_diff
        path_a, path_b = args.diff
        with open(path_a, encoding="utf-8") as fh:
            doc_a = json.load(fh)
        with open(path_b, encoding="utf-8") as fh:
            doc_b = json.load(fh)
        print(format_diff(diff_analyses(doc_a, doc_b,
                                        label_a=path_a, label_b=path_b)))
        return 0
    from repro.workloads import FIGURE4_ORDER
    names = list(args.workloads or FIGURE4_ORDER)
    scale = args.scale
    if args.smoke and scale is None:
        scale = 0.05

    emitter = ReportEmitter(structured=args.structured)
    try:
        store = (store_from_env(args.cache_dir, instance=emitter.run_id)
                 if args.cache_dir else None)
        runner = Runner(store=store, max_workers=args.jobs,
                        parallel=not args.serial, instance=emitter.run_id)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    with runner:
        full_report(names, scale, args.rt_scale, runner=runner,
                    streaming=args.stream, emitter=emitter,
                    smoke=args.smoke)
    if args.analyze or args.analyze_out:
        from repro.obs.critpath import format_analysis
        emitter.section("Bottleneck attribution (critical path & stalls)")
        analysis = _bottleneck_analysis(
            names, scale, timing=args.timing,
            params=params, emitter=emitter)
        for key in analysis["runs"]:
            emitter.emit(format_analysis(analysis["runs"][key]),
                         kind="artifact", artifact="analysis", run_key=key)
        if args.analyze_out:
            with open(args.analyze_out, "w", encoding="utf-8") as fh:
                json.dump(analysis, fh, indent=1, sort_keys=True)
                fh.write("\n")
            emitter.emit(f"[analysis: {len(analysis['runs'])} runs -> "
                         f"{args.analyze_out}]", kind="artifact",
                         artifact="analysis", path=args.analyze_out,
                         runs=len(analysis["runs"]))
    traced = (_observed_timeline(names, scale, emitter, args.trace_out)
              if args.trace_out else None)
    if args.metrics or args.metrics_out:
        from repro.obs.metrics import get_registry
        snapshot = get_registry().snapshot()
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump({"run": emitter.run_id, "metrics": snapshot},
                          fh, indent=1, sort_keys=True)
                fh.write("\n")
            emitter.emit(f"[metrics: {len(snapshot)} families -> "
                         f"{args.metrics_out}]", kind="artifact",
                         artifact="metrics", path=args.metrics_out,
                         families=len(snapshot))
        if args.metrics:
            emitter.emit(get_registry().render_prometheus(),
                         kind="metrics", families=len(snapshot))
    del traced      # the observed run may leave the registry from here
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
