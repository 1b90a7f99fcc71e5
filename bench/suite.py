"""The benchmark's four workloads and the golden check on their outputs.

A workload builds its inputs from a seed (that is its set-up) and then
runs *rounds*: a fixed amount of work, every simulated output of which
is checked against ``golden.json``.  A round is a sequence of *ops*,
each one call into a public ``repro`` entry point, timed from outside
by a :class:`Meter`.  The seed only reorders and redraws inputs from a
fixed set, so one round at any seed produces every golden key.

Each workload puts a different layer of ``repro`` under load:

* ``fig4_execute`` -- execution-driven simulation (isa, exec, core,
  mem, sim, shredlib); service, replay and obs do no work here.
* ``sweep_replay`` -- trace capture and ``ReplayMachine`` re-pricing.
* ``store_serve`` -- the serving path: memo, store, in-flight table.
* ``observe_analyze`` -- the scoreboard timing model, critical-path
  analysis and Perfetto export.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import deque
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Optional

import repro.service.executor as executor
from repro.analysis.figure4 import figure4_experiment
from repro.experiments import Runner, RunSpec, RunSummary
from repro.obs import critpath, perfetto
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS
from repro.service import ExperimentService, ResultStore
from repro.sim.captrace import ReplayMachine
from repro.systems import Session
from repro.workloads import FIGURE4_ORDER

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
#: scratch space for stores, exports and results (ignored by git)
RESULTS = BENCH / "results"


# ----------------------------------------------------------------------
# Golden outputs
# ----------------------------------------------------------------------
def digest(doc) -> str:
    """sha256 of a JSON document in canonical form."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_key(spec: RunSpec) -> str:
    """Readable unique name of a spec: its description plus every
    machine parameter that differs from the defaults."""
    base = dataclasses.asdict(DEFAULT_PARAMS)
    changed = ",".join(f"{k}={v}" for k, v in
                       sorted(dataclasses.asdict(spec.params).items())
                       if base[k] != v)
    return spec.describe() + (f" {changed}" if changed else "")


def summary_doc(summary: RunSummary) -> dict:
    """A summary's golden document, once its hierarchy invariants hold:
    every L1 miss is one L2 access, every L2 miss one memory access."""
    mem = summary.mem
    if (mem.l2_hits + mem.l2_misses != mem.l1_misses
            or mem.mem_accesses != mem.l2_misses):
        raise ValueError(f"{summary.workload}/{summary.system}: memory "
                         f"counters break the hierarchy invariants: {mem}")
    return summary.to_dict()


class Golden:
    """Expected digest per output key.

    With ``record=True`` it learns digests instead of checking them
    (``--write-golden``); a key seen twice with different digests is
    still a mismatch, because the simulator must be deterministic.
    """

    def __init__(self, expected: dict[str, str], record: bool = False):
        self.expected = expected
        self.record = record
        self.mismatches: list[str] = []

    @classmethod
    def load(cls) -> "Golden":
        with open(GOLDEN, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def check(self, key: str, doc) -> bool:
        got = digest(doc)
        if self.record and key not in self.expected:
            self.expected[key] = got
        if self.expected.get(key) == got:
            return True
        self.mismatches.append(key)
        return False


# ----------------------------------------------------------------------
# Measurement of one round
# ----------------------------------------------------------------------
class ReferenceKernel:
    """A fixed piece of interpreter work that measures how fast the
    host runs right now: compiling the benchmark's own ``ledger.py``.

    Other tenants of a shared host slow it down for minutes at a time,
    through contention for cores and caches that this process cannot
    see.  The kernel is timed between ops, and op times are scaled by
    it.  Compiling slows down in step with the simulator and with
    set-up, where a memory-bound loop does not.  The source belongs to
    the benchmark, so no change to ``repro`` moves it, and the
    collector stays off during a pass, so the size of the heap does
    not either.
    """

    SOURCE = BENCH / "ledger.py"
    #: a pass's median seconds on the machine the baseline was
    #: recorded on; normalized times are seconds on a host running at
    #: that speed
    REFERENCE_S = 2.5e-3

    def __init__(self) -> None:
        self._text = self.SOURCE.read_text(encoding="utf-8")
        # five passes smooth out a single slow one and still follow
        # slowdowns that last seconds
        self._recent: deque[float] = deque(maxlen=5)

    def seconds(self) -> float:
        """Time one pass: compile the source once."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            compile(self._text, str(self.SOURCE), "exec")
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def scale(self) -> float:
        """Factor from host seconds now to normalized seconds:
        ``REFERENCE_S`` over the median of the last five passes."""
        self._recent.append(self.seconds())
        return self.REFERENCE_S / statistics.median(self._recent)

    def pin_fastest_cpu(self, cpus: set[int]) -> None:
        """Pin this process to whichever of ``cpus`` runs the kernel
        fastest right now.

        A vCPU whose sibling hyperthread is busy with another tenant
        runs Python up to half again slower, for seconds at a time.
        The scheduler cannot see that, so a busy thread stays on
        whichever vCPU it started on.
        """
        if len(cpus) < 2:
            return

        def best_of_three(cpu: int) -> float:
            os.sched_setaffinity(0, {cpu})
            return min(self.seconds() for _ in range(3))

        os.sched_setaffinity(0, {min(sorted(cpus), key=best_of_three)})


#: op seconds between two passes of the reference kernel
CALIBRATE_EVERY_S = 0.04


class Meter:
    """Times, checks and counts the ops of one round.

    Only the op itself is timed (and, with a profiler, profiled); its
    outputs are checked afterwards.  An op fails when it raises or
    when any of its outputs misses the golden digest.  Op times are
    normalized by the :class:`ReferenceKernel`, which runs after every
    40 ms of ops and scales the ops since its last pass.
    """

    def __init__(self, golden: Golden, kernel: ReferenceKernel,
                 tracer=None, profiler=None) -> None:
        self.golden = golden
        self.kernel = kernel
        self.tracer = tracer
        self.profiler = profiler
        #: normalized seconds of every op, in round order
        self.times: list[float] = []
        #: whether each op is a latency sample
        self.sampled: list[bool] = []
        self._pending: list[float] = []
        self.attempted = 0
        self.failed = 0
        #: per-layer tallies the workload notes along the way
        self.counts: dict[str, float] = {}
        #: service jobs of a traced round, for their phase timings
        self.jobs: list = []

    def measure(self, workload) -> "Meter":
        """Run one round of ``workload`` under this meter."""
        workload.round(self)
        self._normalize()
        return self

    @property
    def wall(self) -> float:
        """Normalized seconds spent inside the round's ops."""
        return sum(self.times)

    @property
    def latencies(self) -> list[float]:
        """Normalized seconds of each sampled op."""
        return [t for t, s in zip(self.times, self.sampled) if s]

    def span(self, name: str):
        """A tracer span, or nothing when the round is not traced."""
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def _profiled(self):
        if self.profiler is None:
            yield
            return
        self.profiler.enable()
        try:
            yield
        finally:
            self.profiler.disable()

    def _normalize(self) -> None:
        if self._pending:
            scale = self.kernel.scale()
            self.times.extend(t * scale for t in self._pending)
            self._pending.clear()

    def op(self, label: str, fn: Callable, *args,
           check: Optional[Callable] = None, sample: bool = True, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one op and return its result
        (None when it failed).  ``check(result)`` returns the
        ``(key, doc)`` outputs to compare with the golden digests;
        ``sample=False`` keeps the op out of the latency samples."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.span(f"op.{label}"), self._profiled():
                result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            self._pending.append(time.perf_counter() - start)
            self.sampled.append(sample)
            if sum(self._pending) >= CALIBRATE_EVERY_S:
                self._normalize()
        try:
            outputs = check(result) if check is not None else ()
            ok = all([self.golden.check(key, doc) for key, doc in outputs])
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            return None
        return result

    def skip(self, ops: int) -> None:
        """Count ops that could not run because an op they need failed."""
        self.attempted += ops
        self.failed += ops

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def keep_job(self, job) -> None:
        """Keep a service job for the ledger; untraced rounds drop it,
        so that peak memory does not grow with the number of rounds."""
        if self.tracer is not None:
            self.jobs.append(job)


def scratch_dir(prefix: str) -> str:
    """A fresh temporary directory inside the benchmark's results."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=RESULTS)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Fig4Execute:
    """Figure 4 from cold: every grid member through a fresh serial
    Runner with no store, one ``Runner.run`` per op."""

    name = "fig4_execute"

    def __init__(self, seed: int, apps, scale: float) -> None:
        specs = list(figure4_experiment(apps, scale=scale).runs)
        random.Random(seed).shuffle(specs)
        self.runs = [(spec, run_key(spec)) for spec in specs]

    def round(self, m: Meter) -> None:
        runner = Runner(parallel=False, registry=MetricsRegistry())
        for spec, key in self.runs:
            m.op("run", runner.run, spec,
                 check=lambda s, key=key: [(key, summary_doc(s))])


def _capture_for_replay(spec: RunSpec):
    summary, trace = executor.execute_captured(spec)
    return summary, ReplayMachine(trace)


class SweepReplay:
    """The Figure 5 / Figure M sweep pattern: per replay class, one
    execution-driven capture of the default-params spec, then every
    other point re-priced by ``ReplayMachine``, one point per op.

    The timing-only points (``mem_cost`` x ``signal_cost``) hit the
    replayer's per-geometry profile cache; each ``l2_size`` point
    re-drives the access stream first.
    """

    name = "sweep_replay"

    POINTS = ([{"mem_cost": m, "signal_cost": s}
               for m in (15, 60, 240, 960) for s in (500, 1000, 5000)]
              + [{"l2_size": kib << 10} for kib in (128, 256, 1024, 2048)])

    def __init__(self, seed: int, apps, scale: float) -> None:
        rng = random.Random(seed)
        params = [DEFAULT_PARAMS.with_changes(**point)
                  for point in self.POINTS]
        params = [p for p in params if p != DEFAULT_PARAMS]
        self.classes = []
        for base in figure4_experiment(apps, scale=scale).runs:
            points = [dataclasses.replace(base, params=p) for p in params]
            rng.shuffle(points)
            # the capture stays first, so replayed numbers do not
            # depend on the seed
            self.classes.append([(spec, run_key(spec))
                                 for spec in [base] + points])
        rng.shuffle(self.classes)

    def round(self, m: Meter) -> None:
        for (base, key), *points in self.classes:
            captured = m.op("capture", _capture_for_replay, base,
                            check=lambda out, key=key:
                            [(key, summary_doc(out[0]))])
            if captured is None:
                m.skip(len(points))
                continue
            replayer = captured[1]
            for spec, key in points:
                m.op("replay", replayer.run, spec=spec,
                     check=lambda s, key=key: [(key, summary_doc(s))])


class StoreServe:
    """The serving path over a fresh content-addressed store.

    Cold phase: fills of six specs each.  In a fill, one client submits
    two jobs of four specs that share two, and waits for both, so the
    shared specs join executions already in flight.  Fills are short
    ops because the reference kernel runs only between ops: one fill
    of every spec varied by 0.13 to 0.31 of its median from round to
    round, normalized, against 0.07 to 0.10 for fills of six.
    Warm phase: a closed loop of one client, each request (1-6 specs)
    served by a newly built service and store, as a new CLI process
    would be; nothing executes.
    """

    name = "store_serve"
    FILL = 6

    def __init__(self, seed: int, apps, scale: float, requests: int) -> None:
        rng = random.Random(seed)
        specs = [spec for mem_cost in (30, 60)
                 for spec in figure4_experiment(
                     apps, scale=scale,
                     params=DEFAULT_PARAMS.with_changes(mem_cost=mem_cost)
                 ).runs]
        rng.shuffle(specs)
        self.keys = {spec.spec_hash(): run_key(spec) for spec in specs}
        share = 2 * self.FILL // 3
        self.fills = [(chunk[:share], chunk[-share:]) for chunk in
                      (specs[i:i + self.FILL]
                       for i in range(0, len(specs), self.FILL))]
        self.requests = [rng.sample(specs, rng.randint(1, 6))
                         for _ in range(requests)]

    def _service(self, root: str, m: Meter) -> ExperimentService:
        with m.span("service.construct"):
            registry = MetricsRegistry()
            return ExperimentService(
                store=ResultStore(root, registry=registry),
                parallel=False, registry=registry)

    def _cold(self, root: str, fill, m: Meter):
        with self._service(root, m) as service:
            jobs = [service.submit(specs) for specs in fill]
            results = [job.result() for job in jobs]
        summaries = {spec.spec_hash(): result[spec]
                     for result, specs in zip(results, fill)
                     for spec in specs}
        return service, jobs, summaries

    def _request(self, root: str, specs, m: Meter):
        with self._service(root, m) as service:
            job = service.submit(specs)
            result = job.result()
        return service, job, [result[spec] for spec in specs]

    def _docs(self, summaries, cold_docs=None):
        out = []
        for summary in summaries:
            doc = summary_doc(summary)
            if cold_docs is not None and doc != cold_docs[summary.spec_hash]:
                raise ValueError(f"{self.keys[summary.spec_hash]}: warm-"
                                 "served summary differs from the cold one")
            out.append((self.keys[summary.spec_hash], doc))
        return out

    def round(self, m: Meter) -> None:
        root = scratch_dir("store-")
        try:
            cold_docs = {}
            for i, fill in enumerate(self.fills):
                cold = m.op("cold_fill", self._cold, root, fill, m,
                            sample=False,
                            check=lambda out: self._docs(out[2].values()))
                if cold is None:
                    m.skip(len(self.fills) - i - 1 + len(self.requests))
                    return
                service, jobs, summaries = cold
                for job in jobs:
                    m.keep_job(job)
                m.count("cold.requested", service.stats.requested)
                m.count("cold.inflight_joined",
                        service.stats.inflight_joined)
                cold_docs.update((key, s.to_dict())
                                 for key, s in summaries.items())
            for specs in self.requests:
                served = m.op("request", self._request, root, specs, m,
                              check=lambda out: self._docs(out[2],
                                                           cold_docs))
                if served is not None:
                    service, job, _ = served
                    m.keep_job(job)
                    m.count("warm.store_hits", service.store.stats.hits)
                    m.count("warm.store_lookups",
                            service.store.stats.hits
                            + service.store.stats.misses)
        finally:
            shutil.rmtree(root, ignore_errors=True)


class ObserveAnalyze:
    """Bottleneck analysis of one grid.  Per (workload, system), one op
    runs it captured and analyzes its critical path (on MISP it also
    exports the run to Perfetto), and one runs it under the scoreboard
    model with observation and analyzes that."""

    name = "observe_analyze"

    def __init__(self, seed: int, apps, scale: float) -> None:
        self.scale = scale
        self.units = [(spec.workload, spec.system, spec.config,
                       spec.describe())
                      for spec in figure4_experiment(apps, scale=scale).runs]
        random.Random(seed).shuffle(self.units)

    def _capture(self, session: Session, app: str, export: Optional[str],
                 m: Meter):
        with m.span("sim.capture"):
            run = session.capture().run(app, scale=self.scale)
        analysis = critpath.analyze_result(run, max_segments=64)
        return analysis, export and perfetto.export_run(run, export)

    def _observe(self, session: Session, app: str):
        run = (session.timing("scoreboard")
               .observe(registry=MetricsRegistry()).run(app, scale=self.scale))
        return critpath.analyze_result(run)

    def round(self, m: Meter) -> None:
        out_dir = scratch_dir("observe-")
        try:
            for app, system, config, key in self.units:
                session = Session(system, config)
                export = (str(Path(out_dir) / "trace.json")
                          if system == "misp" else None)
                m.op("capture", self._capture, session, app, export, m,
                     check=lambda out, key=key:
                     [(f"{key} capture-analysis", out[0])]
                     + ([(f"{key} perfetto", out[1])] if out[1] else []))
                m.op("observe", self._observe, session, app,
                     check=lambda doc, key=key:
                     [(f"{key} scoreboard-analysis", doc)])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (Fig4Execute, SweepReplay, StoreServe, ObserveAnalyze)}

#: the measured sizes, and miniature ones for the benchmark's own
#: tests; the golden file covers both
SIZES = {
    "full": {
        "fig4_execute": {"apps": FIGURE4_ORDER, "scale": 0.01},
        "sweep_replay": {"apps": ("RayTracer", "kmeans"), "scale": 0.05},
        # every other Figure 4 application, from both suites
        "store_serve": {"apps": FIGURE4_ORDER[::2], "scale": 0.01,
                        "requests": 1000},
        "observe_analyze": {"apps": ("dense_mvm", "kmeans", "RayTracer",
                                     "galgel"), "scale": 0.02},
    },
    "mini": {
        "fig4_execute": {"apps": ("dense_mvm", "kmeans"), "scale": 0.01},
        "sweep_replay": {"apps": ("kmeans",), "scale": 0.01},
        "store_serve": {"apps": ("dense_mvm", "kmeans"), "scale": 0.01,
                        "requests": 50},
        "observe_analyze": {"apps": ("dense_mvm",), "scale": 0.02},
    },
}


def build(name: str, seed: int, size: str = "full"):
    """The named workload with its inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, **SIZES[size][name])
