"""Tests for the unified observability layer: the metrics registry
(snapshot determinism, Prometheus exposition, label escaping), span
tracing, stats views, zero-overhead-when-disabled, observed runs, the
JobHandle metrics surface, and the golden-file Perfetto export."""

import json
import threading
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry, ObservedRun, SpanTracer, export_run, get_registry,
    new_run_id,
)
from repro.obs.emit import ReportEmitter
from repro.systems import Session
from repro.timing import get_timing

GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_goes_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "queue depth")
        g.inc(3)
        g.dec(5)
        assert g.value == -2

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        sample = h.labels()._sample() if hasattr(h, "labels") else None
        snap = reg.snapshot()["lat"]["samples"][0]["value"]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)
        assert snap["buckets"]["1"] == 1
        assert snap["buckets"]["10"] == 2
        assert snap["buckets"]["+Inf"] == 3
        assert sample is None or sample  # silence unused warnings

    def test_labeled_family_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("events_total", "events", labels=("run", "kind"))
        fam.labels(run="r1", kind="a").inc()
        fam.labels(run="r1", kind="a").inc()
        fam.labels(run="r1", kind="b").inc()
        assert fam.labels(run="r1", kind="a").value == 2
        assert fam.labels(run="r1", kind="b").value == 1

    def test_same_name_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", labels=("k",))
        b = reg.counter("x_total", "x", labels=("k",))
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", labels=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", labels=("b",))

    def test_thread_safety(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_new_run_ids_unique(self):
        ids = {new_run_id() for _ in range(32)}
        assert len(ids) == 32


class TestSnapshotDeterminism:
    def _fill(self, reg, order):
        fam = reg.counter("events_total", "events", labels=("run", "kind"))
        for run, kind, n in order:
            fam.labels(run=run, kind=kind).inc(n)
        reg.gauge("cycles", "cycles", labels=("run",)).labels(
            run="r1").set(42)

    def test_insertion_order_invariant(self):
        """Two registries filled in different orders snapshot identically."""
        a, b = MetricsRegistry(), MetricsRegistry()
        rows = [("r1", "x", 1), ("r2", "y", 2), ("r1", "y", 3)]
        self._fill(a, rows)
        self._fill(b, list(reversed(rows)))
        assert a.snapshot() == b.snapshot()
        assert a.render_prometheus() == b.render_prometheus()

    def test_snapshot_is_json_round_trippable(self):
        reg = MetricsRegistry()
        self._fill(reg, [("r1", "x", 1)])
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestPrometheusExposition:
    def test_help_and_type_lines(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "cache hits").inc(3)
        text = reg.render_prometheus()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 3" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        fam = reg.counter("odd_total", "odd labels", labels=("name",))
        fam.labels(name='we"ird\\na\nme').inc()
        text = reg.render_prometheus()
        assert 'name="we\\"ird\\\\na\\nme"' in text
        # the rendered line must stay a single physical line
        [line] = [ln for ln in text.splitlines() if ln.startswith("odd_total")]
        assert line.endswith("} 1")

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("lat_seconds", "latency", buckets=(0.1,)).observe(0.05)
        text = reg.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_correlation(self):
        tracer = SpanTracer()
        with tracer.span("outer", correlation="job-1") as outer:
            with tracer.span("inner", correlation="job-1") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert [s.name for s in tracer.finished("job-1")] == ["inner", "outer"]
        assert tracer.finished("job-2") == []

    def test_by_name_aggregation(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("phase", correlation="j"):
                pass
        count, total = tracer.by_name()["phase"]
        assert count == 3
        assert total >= 0.0


# ----------------------------------------------------------------------
# Zero overhead when disabled
# ----------------------------------------------------------------------
class TestZeroOverheadWhenDisabled:
    def test_default_run_touches_nothing(self):
        """An un-observed Session run leaves the global registry alone
        and records neither fine trace records nor charge wrappers."""
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
        reg.counter("unrelated_total", "other").inc()
        snap = result.obs.snapshot()
        assert "unrelated_total" not in snap
        assert "repro_run_cycles" in snap

    def test_observation_is_deterministic(self):
        rega, a = self._observed()
        regb, b = self._observed()
        assert a.cycles == b.cycles
        assert rega.snapshot() == regb.snapshot()

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
        for phase in ("submit", "plan", "execute", "backfill"):
            assert phase in m["phases"], phase
            assert m["phases"][phase] >= 0.0
        spans = svc.tracer.finished(m["job_id"])
        assert {s.name for s in spans} >= {"submit", "plan", "execute"}
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


class TestHistogramPercentile:
    def test_percentile_upper_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        child = h.labels()
        assert child.percentile(50) == 1.0
        assert child.percentile(75) == 10.0
        assert child.percentile(100) == 100.0

    def test_percentile_beyond_buckets_is_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0,))
        h.observe(5.0)
        assert h.labels().percentile(99) == float("inf")

    def test_percentile_empty_and_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0,))
        child = h.labels()
        assert child.percentile(99) == 0.0
        with pytest.raises(ValueError):
            child.percentile(101)
        with pytest.raises(ValueError):
            child.percentile(-1)


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
