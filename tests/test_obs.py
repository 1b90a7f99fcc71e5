"""Tests for the unified observability layer: the metrics registry of
collectors (snapshot determinism, Prometheus exposition, label
escaping, collectors leaving with their owners), the Stats record,
zero-overhead-when-disabled, observed runs, the JobHandle metrics
surface, deterministic report exports, the golden-file Perfetto
export and its exact JSON encoder."""

import gc
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry, ObservedRun, Stats, export_run, get_registry,
    new_run_id, write_trace,
)
from repro.obs.emit import ReportEmitter
from repro.obs.perfetto import trace_json
from repro.systems import Session
from repro.timing import get_timing

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")


class Family:
    """A test collector: one family whose samples are whatever
    ``rows`` holds when the registry reads it."""

    def __init__(self, name, kind="counter", help="", rows=()):
        self.name, self.kind, self.help = name, kind, help
        self.rows = list(rows)

    def collect(self):
        yield self.name, self.kind, self.help, self.rows


def registry_of(collectors) -> MetricsRegistry:
    """A fresh registry reading ``collectors`` (it holds them weakly,
    so the caller keeps the list)."""
    reg = MetricsRegistry()
    for collector in collectors:
        reg.register(collector)
    return reg


class EventStats(Stats):
    NAME = "view_events_total"
    HELP = "events"
    LABEL = "view"
    FIELDS = ("hits", "misses")
    __slots__ = ()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_value(self):
        """A collector is read when the registry exports, not when it
        registers."""
        families = [Family("requests_total", help="requests")]
        reg = registry_of(families)
        assert reg.snapshot()["requests_total"]["samples"] == []
        families[0].rows.append(({}, 5))
        assert reg.snapshot()["requests_total"] == {
            "type": "counter", "help": "requests",
            "samples": [{"labels": {}, "value": 5}]}

    def test_counter_rejects_negative(self):
        stats = EventStats(registry=MetricsRegistry())
        with pytest.raises(ValueError):
            stats.add(hits=-1)
        assert stats.hits == 0

    def test_gauge_goes_both_ways(self):
        families = [Family("depth", "gauge", "queue depth", [({}, 3)])]
        reg = registry_of(families)
        families[0].rows[0] = ({}, -2)
        assert reg.snapshot()["depth"] == {
            "type": "gauge", "help": "queue depth",
            "samples": [{"labels": {}, "value": -2}]}

    def test_labeled_family_children(self):
        families = [Family("events_total", help="events", rows=[
            ({"run": "r1", "kind": "a"}, 2), ({"run": "r1", "kind": "b"}, 1)])]
        samples = registry_of(families).snapshot()["events_total"]["samples"]
        assert samples == [{"labels": {"run": "r1", "kind": "a"}, "value": 2},
                           {"labels": {"run": "r1", "kind": "b"}, "value": 1}]

    def test_same_name_same_family(self):
        """Collectors yielding one name share a family; equal series
        add up."""
        families = [Family("x_total", rows=[({"k": "a"}, 2)]),
                    Family("x_total", rows=[({"k": "a"}, 3),
                                            ({"k": "b"}, 1)])]
        samples = registry_of(families).snapshot()["x_total"]["samples"]
        assert samples == [{"labels": {"k": "a"}, "value": 5},
                           {"labels": {"k": "b"}, "value": 1}]

    def test_kind_mismatch_raises(self):
        families = [Family("x_total", "counter"), Family("x_total", "gauge")]
        reg = registry_of(families)
        with pytest.raises(ValueError, match="x_total"):
            reg.snapshot()
        with pytest.raises(ValueError, match="x_total"):
            reg.render_prometheus()

    def test_thread_safety(self):
        """Concurrent adds to one Stats record lose no count."""
        stats = EventStats(registry=MetricsRegistry())
        nthreads, adds = 8, 2000
        start = threading.Barrier(nthreads, timeout=30)

        def worker():
            start.wait()
            for _ in range(adds):
                stats.add(hits=1, misses=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (stats.hits, stats.misses) == (nthreads * adds,
                                              2 * nthreads * adds)

    def test_new_run_ids_unique(self):
        ids = [new_run_id() for _ in range(32)]
        assert len(set(ids)) == 32
        prefix, _, ordinal = new_run_id("job").rpartition("-")
        assert prefix == "job" and ordinal.isdigit()

    def test_dropped_collector_leaves_the_registry(self):
        families = [Family("kept_total", rows=[({}, 1)])]
        reg = registry_of(families)
        reg.register(Family("gone_total", rows=[({}, 1)]))
        gc.collect()
        assert list(reg.snapshot()) == ["kept_total"]


class TestSnapshotDeterminism:
    ROWS = [({"run": "r1", "kind": "x"}, 1), ({"run": "r2", "kind": "y"}, 2),
            ({"run": "r1", "kind": "y"}, 3)]

    def _families(self, rows):
        return [Family("events_total", help="events", rows=rows),
                Family("cycles", "gauge", "cycles", [({"run": "r1"}, 42)])]

    def test_insertion_order_invariant(self):
        """Two registries reading collectors registered, and samples
        yielded, in different orders snapshot identically."""
        families_a = self._families(self.ROWS)
        families_b = self._families(list(reversed(self.ROWS)))[::-1]
        a, b = registry_of(families_a), registry_of(families_b)
        assert a.snapshot() == b.snapshot()
        assert a.render_prometheus() == b.render_prometheus()
        samples = a.snapshot()["events_total"]["samples"]
        assert [s["labels"] for s in samples] == [
            {"run": "r1", "kind": "x"}, {"run": "r1", "kind": "y"},
            {"run": "r2", "kind": "y"}]

    def test_snapshot_is_json_round_trippable(self):
        families = self._families(self.ROWS[:1])
        snap = registry_of(families).snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestPrometheusExposition:
    def test_help_and_type_lines(self):
        families = [Family("hits_total", help="cache hits", rows=[({}, 3)])]
        text = registry_of(families).render_prometheus()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 3" in text

    def test_label_value_escaping(self):
        families = [Family("odd_total", help="odd labels",
                           rows=[({"name": 'we"ird\\na\nme'}, 1)])]
        text = registry_of(families).render_prometheus()
        assert 'name="we\\"ird\\\\na\\nme"' in text
        # the rendered line must stay a single physical line
        [line] = [ln for ln in text.splitlines() if ln.startswith("odd_total")]
        assert line.endswith("} 1")


# ----------------------------------------------------------------------
# Stats records
# ----------------------------------------------------------------------
class TestStats:
    def test_add_counts_into_the_registry(self):
        reg = MetricsRegistry()
        stats = EventStats(registry=reg, instance="v")
        stats.add(hits=2, misses=1)
        stats.add(hits=1)
        assert (stats.hits, stats.misses) == (3, 1)
        samples = {s["labels"]["event"]: s["value"] for s in
                   reg.snapshot()["view_events_total"]["samples"]}
        assert samples == {"hits": 3, "misses": 1}

    def test_unnamed_instances_add_up(self):
        reg = MetricsRegistry()
        a, b = EventStats(registry=reg), EventStats(registry=reg)
        a.add(hits=1)
        b.add(hits=2)
        samples = reg.snapshot()["view_events_total"]["samples"]
        assert {"labels": {"view": "", "event": "hits"},
                "value": 3} in samples

    def test_fields_are_counted_not_assigned(self):
        stats = EventStats(registry=MetricsRegistry())
        with pytest.raises(AttributeError):
            stats.hits = 5
        with pytest.raises(AttributeError):
            stats.add(hit=1)
        with pytest.raises(AttributeError):
            stats.hit
        assert stats.hits == 0

    def test_dropped_services_leave_the_process_registry(self, tmp_path):
        """Services and stores built without a registry count into the
        process-wide one only while they live."""
        from repro.service import ExperimentService

        gc.collect()
        before = get_registry().snapshot()
        for _ in range(1000):
            ExperimentService(store=tmp_path, parallel=False)
        gc.collect()
        assert get_registry().snapshot() == before


# ----------------------------------------------------------------------
# Zero overhead when disabled
# ----------------------------------------------------------------------
class TestZeroOverheadWhenDisabled:
    def test_default_run_touches_nothing(self):
        """An un-observed Session run leaves the global registry alone
        and records neither fine trace records nor charge wrappers."""
        # an observed run an earlier test dropped leaves the registry
        # when the cyclic collector runs: let it go before comparing
        gc.collect()
        before = get_registry().snapshot()
        result = Session("misp", "1x2").run("dense_mvm", scale=0.01)
        assert get_registry().snapshot() == before
        assert result.obs is None
        assert result.machine._obs is None
        assert list(result.machine.trace.records()) == []
        # the charge path is the raw bound method, not a closure
        timing = result.machine.timing
        assert result.machine._charge.__func__ is type(timing).charge

    def test_shredlog_contention_stays_private(self):
        from repro.shredlib.log import ShredLog
        gc.collect()
        before = get_registry().snapshot()
        log = ShredLog()
        log.note_contention("lock:a")
        log.note_contention("lock:a")
        assert log.contention("lock:a") == 2
        assert get_registry().snapshot() == before


# ----------------------------------------------------------------------
# Observed runs
# ----------------------------------------------------------------------
class TestObservedRun:
    def _observed(self, run_id="obs-test"):
        reg = MetricsRegistry()
        result = (Session("misp", "1x2")
                  .observe(registry=reg, run_id=run_id)
                  .run("dense_mvm", scale=0.01))
        return reg, result

    def test_families_labeled_with_run_id(self):
        reg, result = self._observed()
        assert result.obs is not None and result.obs.run_id == "obs-test"
        snap = reg.snapshot()
        for family in ("repro_run_info", "repro_run_cycles",
                       "repro_engine_events_total",
                       "repro_trace_events_total",
                       "repro_timing_ops_total",
                       "repro_timing_cycles_total",
                       "repro_hierarchy_events_total",
                       "repro_cache_events_total",
                       "repro_tlb_events_total",
                       "repro_shred_events_total"):
            assert family in snap, family
            for sample in snap[family]["samples"]:
                assert sample["labels"]["run"] == "obs-test"

    def test_charge_path_counted(self):
        reg, result = self._observed()
        assert result.obs.ops > 0
        assert result.obs.charged_cycles > 0
        [ops] = reg.snapshot()["repro_timing_ops_total"]["samples"]
        assert ops["value"] == result.obs.ops

    def test_run_cycles_matches_result(self):
        reg, result = self._observed()
        [cycles] = reg.snapshot()["repro_run_cycles"]["samples"]
        assert cycles["value"] == result.cycles

    def test_fine_records_collected(self):
        _, result = self._observed()
        assert len(list(result.machine.trace.records())) > 0

    def test_obs_snapshot_filters_to_run(self):
        reg, result = self._observed()
        unrelated = [Family("unrelated_total", rows=[({"run": "obs-test"},
                                                      1)])]
        for family in unrelated:
            reg.register(family)
        snap = result.obs.snapshot()
        assert "unrelated_total" not in snap
        assert "repro_run_cycles" in snap
        assert snap == {name: family for name, family
                        in reg.snapshot().items()
                        if name != "unrelated_total"}

    def test_observation_is_deterministic(self):
        rega, a = self._observed()
        regb, b = self._observed()
        assert a.cycles == b.cycles
        assert rega.snapshot() == regb.snapshot()

    def test_dropped_run_leaves_the_registry(self):
        reg, result = self._observed()
        assert "repro_run_cycles" in reg.snapshot()
        del result
        gc.collect()          # the run and its machine form a cycle
        assert reg.snapshot() == {}

    def test_finish_requires_machine(self):
        with pytest.raises(ValueError):
            ObservedRun(registry=MetricsRegistry()).finish()

    @pytest.mark.parametrize("timing", ["fixed", "scoreboard"])
    @pytest.mark.parametrize("system", ["misp", "hybrid", "multiprog"])
    def test_timing_totals_equal_a_counting_charge(self, monkeypatch,
                                                   system, timing):
        """The published op and cycle totals are derived from the
        sequencers, not counted per charge; they must equal what a
        wrapper around the model's charge counts.  These runs drop
        completions of killed shreds, and multiprogramming stops with
        an op still in flight, so both correction terms are exercised."""
        model = get_timing(timing)
        charge = model.charge
        counted = {"ops": 0, "cycles": 0}

        def counting(self, seq, op, base, walks=0, access=0, fetch=0):
            cost = charge(self, seq, op, base, walks, access, fetch)
            counted["ops"] += 1
            counted["cycles"] += cost
            return cost

        monkeypatch.setattr(model, "charge", counting)
        reg = MetricsRegistry()
        session = Session(system).timing(timing)
        if system == "multiprog":
            session = session.background(2)
        result = (session.observe(registry=reg, run_id="totals")
                  .run("dense_mvm", scale=0.02))
        snap = reg.snapshot()
        [ops] = snap["repro_timing_ops_total"]["samples"]
        cycles = {s["labels"]["kind"]: s["value"]
                  for s in snap["repro_timing_cycles_total"]["samples"]}
        assert ops["value"] == counted["ops"] == result.obs.ops
        assert cycles["op"] == counted["cycles"] == result.obs.charged_cycles
        executed = sum(s.ops_executed for s in result.machine.sequencers)
        assert counted["ops"] > executed


# ----------------------------------------------------------------------
# Service pipeline metrics (JobHandle.metrics)
# ----------------------------------------------------------------------
class TestJobMetrics:
    def test_job_metrics_phases(self):
        from repro.experiments import ExperimentSpec, RunSpec
        from repro.service import ExperimentService

        reg = MetricsRegistry()
        svc = ExperimentService(parallel=False, registry=reg,
                                instance="svc-test")
        try:
            spec = ExperimentSpec("tiny", (
                RunSpec("dense_mvm", "misp", "1x2", scale=0.01),))
            job = svc.submit(spec)
            job.result()
            m = job.metrics()
        finally:
            svc.close()
        assert m["experiment"] == "tiny"
        assert m["expected"] == 1 and m["delivered"] == 1
        assert m["done"] and not m["failed"]
        assert m["job_id"].startswith("job-")
        for phase in ("submit", "execute", "backfill"):
            assert phase in m["phases"], phase
            assert m["phases"][phase] >= 0.0
        # service stats landed in the passed registry under the instance
        [job_sample] = [
            s for s in reg.snapshot()["repro_service_events_total"]["samples"]
            if s["labels"]["event"] == "jobs"]
        assert job_sample["labels"]["service"] == "svc-test"
        assert job_sample["value"] == 1


# ----------------------------------------------------------------------
# Report emitter
# ----------------------------------------------------------------------
class TestReportEmitter:
    def test_human_mode_is_bare_text(self):
        import io
        buf = io.StringIO()
        ReportEmitter(stream=buf).emit("hello")
        assert buf.getvalue() == "hello\n"

    def test_structured_mode_correlates(self):
        import io
        buf = io.StringIO()
        em = ReportEmitter(stream=buf, structured=True, run_id="r-1")
        em.emit("a", kind="header")
        em.section("S")
        lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert [ln["seq"] for ln in lines] == [1, 2]
        assert all(ln["run"] == "r-1" for ln in lines)
        assert lines[1]["kind"] == "section"
        assert lines[1]["section"] == "S"


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------
class TestPerfettoExport:
    def _export(self, tmp_path):
        reg = MetricsRegistry()
        result = (Session("misp", "1x2")
                  .observe(registry=reg, run_id="golden")
                  .run("dense_mvm", scale=0.01))
        path = tmp_path / "trace.json"
        doc = export_run(result, str(path), run_id="golden")
        return doc, path

    def test_document_shape(self, tmp_path):
        doc, path = self._export(tmp_path)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        # one named track per sequencer (1x2 = OMS + 1 AMS)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"P0 OMS", "P0 AMS1"} <= names
        phases = {e["ph"] for e in events}
        assert "X" in phases and "i" in phases
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] > 0 and e["ts"] >= 0

    def test_golden_file(self, tmp_path):
        """The export of a fixed tiny run is byte-stable (simulations
        are deterministic; any diff here is a real behaviour change --
        regenerate tests/golden/ deliberately when one is intended)."""
        _, path = self._export(tmp_path)
        golden = GOLDEN / "trace_misp_1x2_dense_mvm.json"
        assert path.read_text() == golden.read_text()


#: JSON documents: every leaf json writes (escapes, non-ASCII, bools,
#: non-finite floats), nested in lists, tuples and string-keyed dicts
_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text())
_documents = st.recursive(
    _leaves,
    lambda children: (st.lists(children)
                      | st.tuples(children, children)
                      | st.dictionaries(st.text(), children)),
    max_leaves=30)


class TestTraceJson:
    @given(_documents)
    def test_matches_json_dumps(self, doc):
        assert trace_json(doc) == json.dumps(doc, indent=1, sort_keys=True)

    def test_write_trace_writes_the_text_and_a_newline(self, tmp_path):
        doc = {"traceEvents": [{"name": "\u00e9\"x", "ts": 1.5,
                                "args": {"n": float("nan")}}],
               "otherData": {}}
        path = tmp_path / "trace.json"
        write_trace(doc, str(path))
        assert path.read_text() == (
            json.dumps(doc, indent=1, sort_keys=True) + "\n")


class TestPerfettoCaptureEnrichment:
    """Counter tracks and critical-path flow events, present only when
    the run captured its event-dependency trace."""

    def _export(self, tmp_path):
        reg = MetricsRegistry()
        result = (Session("misp", "1x2").capture()
                  .observe(registry=reg, run_id="golden")
                  .run("dense_mvm", scale=0.01))
        path = tmp_path / "trace.json"
        doc = export_run(result, str(path), run_id="golden")
        return doc, path

    def test_counter_tracks_cover_each_sequencer(self, tmp_path):
        doc, _ = self._export(tmp_path)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "captured export must emit counter tracks"
        names = {e["name"] for e in counters}
        assert "outstanding events" in names
        util = [n for n in names if n.startswith("utilization")]
        assert len(util) == 2  # one per sequencer of the 1x2 machine

    def test_critical_path_slices_and_flows(self, tmp_path):
        doc, _ = self._export(tmp_path)
        events = doc["traceEvents"]
        crit = [e for e in events
                if e["ph"] == "X" and e.get("pid") == 2]
        assert crit, "captured export must draw the critical path"
        starts = {e["ph"] for e in events}
        assert {"s", "f"} <= starts
        flows_out = [e for e in events if e["ph"] == "s"]
        flows_in = [e for e in events if e["ph"] == "f"]
        assert len(flows_out) == len(flows_in) == len(crit) - 1

    def test_capture_golden_file(self, tmp_path):
        _, path = self._export(tmp_path)
        golden = GOLDEN / "trace_capture_misp_1x2_dense_mvm.json"
        assert path.read_text() == golden.read_text()


# ----------------------------------------------------------------------
# Report CLI end to end
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_report_smoke_with_observability(tmp_path, capsys):
    from repro.analysis.report import main

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    rc = main(["--smoke", "--serial", "--workloads", "dense_mvm",
               "--scale", "0.02", "--trace-out", str(trace),
               "--metrics-out", str(metrics)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    doc = json.loads(trace.read_text())
    assert len(doc["traceEvents"]) > 0
    snap = json.loads(metrics.read_text())
    assert snap["run"].startswith("report-")
    assert "repro_run_cycles" in snap["metrics"]
    assert "repro_service_events_total" in snap["metrics"]


def test_report_exports_are_deterministic(tmp_path):
    """Two identical report invocations write byte-identical timeline
    and metrics files: correlation ids are ordinals, not random."""
    env = {**os.environ, "PYTHONPATH": SRC}
    written = []
    for attempt in ("a", "b"):
        trace = tmp_path / f"trace-{attempt}.json"
        metrics = tmp_path / f"metrics-{attempt}.json"
        subprocess.run(
            [sys.executable, "-m", "repro.analysis.report", "--smoke",
             "--serial", "--workloads", "dense_mvm", "--scale", "0.02",
             "--trace-out", str(trace), "--metrics-out", str(metrics)],
            env=env, capture_output=True, check=True, timeout=300)
        written.append((trace.read_bytes(), metrics.read_bytes()))
    assert written[0] == written[1]
    assert json.loads(written[0][1])["metrics"]["repro_run_info"]


def test_report_stream_prints_the_batch_figure4(tmp_path, capsys):
    from repro.analysis import format_figure4, run_figure4
    from repro.analysis.report import main
    from repro.experiments import Runner

    argv = ["--smoke", "--serial", "--workloads", "dense_mvm",
            "--scale", "0.02"]
    figure4 = format_figure4(run_figure4(["dense_mvm"], scale=0.02,
                                         runner=Runner(parallel=False)))
    assert main(argv) == 0
    batch = capsys.readouterr().out
    assert main(argv + ["--stream", "--cache-dir", str(tmp_path)]) == 0
    streamed = capsys.readouterr().out
    assert figure4 in batch and figure4 in streamed
    assert "[3/3] dense_mvm/" in streamed
    tail = streamed[streamed.index(figure4) + len(figure4):]
    assert tail.rstrip().splitlines()[-1].startswith("[store: 0 hits / ")


def test_report_stream_leaves_no_temp_store(tmp_path, monkeypatch, capsys):
    import tempfile

    from repro.analysis.report import main

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(["--smoke", "--serial", "--workloads", "dense_mvm",
                 "--scale", "0.02", "--stream"]) == 0
    out = capsys.readouterr().out
    assert "[3/3] dense_mvm/" in out
    assert "[store: " not in out
    assert not list(tmp_path.glob("repro-store-*"))


def test_report_store_honours_env_bounds(tmp_path, monkeypatch, capsys):
    from repro.analysis.report import main

    monkeypatch.setenv("REPRO_STORE_MAX_ENTRIES", "1")
    assert main(["--smoke", "--serial", "--workloads", "dense_mvm",
                 "--scale", "0.02", "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_report_rejects_a_bad_store_bound_without_a_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC,
           "REPRO_STORE_MAX_ENTRIES": "abc"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.report", "--smoke",
         "--serial", "--cache-dir", str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "REPRO_STORE_MAX_ENTRIES" in proc.stderr
    assert "'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""                   # nothing simulated


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_report_rejects_a_bad_worker_count_without_a_traceback(jobs):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.report", "--smoke",
         "--serial", f"--jobs={jobs}"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode != 0
    assert "max_workers" in proc.stderr
    assert f"got {jobs}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""                   # nothing simulated
