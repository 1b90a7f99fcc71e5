"""Tests for critical-path / bottleneck attribution and run diffing:
graph primitives on captured traces, the committed-fixture
determinism golden, live attribution coverage on the Figure 4 smoke
grid, the observed-run fallback (scoreboard), the stall-class metric
family, analysis diffing, and the report CLI surface."""

import json
import pickle
from pathlib import Path

import pytest

from repro.obs import (
    analyze_observed, analyze_result, analyze_trace, busy_timeline,
    critical_path, diff_analyses, event_slack, event_times,
    format_analysis, format_diff,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.captrace import CapturedTrace
from repro.systems import Session

GOLDEN = Path(__file__).parent / "golden"


def _golden_trace() -> CapturedTrace:
    with open(GOLDEN / "captrace_misp_1x2_dense_mvm.json") as fh:
        return CapturedTrace.from_dict(json.load(fh))


def _analysis_json(trace: CapturedTrace) -> str:
    doc = analyze_trace(trace, workload="dense_mvm", system="misp",
                        config="1x2", timing="fixed")
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Graph primitives
# ----------------------------------------------------------------------
class TestGraphPrimitives:
    def test_event_times_are_parent_plus_delay(self):
        trace = _golden_trace()
        times = event_times(trace)
        assert len(times) == len(trace.parents)
        for i, p in enumerate(trace.parents):
            base = times[p] if p >= 0 else trace.root_now[i]
            assert times[i] == base + trace.delays[i]

    def test_event_times_are_computed_once_per_trace(self):
        trace = _golden_trace()
        assert event_times(trace) is event_times(trace)
        # a trace shipped to another process recomputes them there
        clone = pickle.loads(pickle.dumps(trace))
        assert "times" not in vars(clone)
        assert event_times(clone) == event_times(trace)

    def test_critical_path_is_rooted_chain_summing_to_wall(self):
        trace = _golden_trace()
        times = event_times(trace)
        path = critical_path(trace, times)
        assert path, "captured run must have a critical path"
        assert trace.parents[path[0]] < 0  # starts at a root
        for a, b in zip(path, path[1:]):
            assert trace.parents[b] == a  # parent chain
        wall = times[path[-1]]
        chain = sum(trace.delays[i] for i in path) + trace.root_now[path[0]]
        assert chain == wall

    def test_critical_path_has_zero_slack(self):
        trace = _golden_trace()
        times = event_times(trace)
        slack = event_slack(trace, times)
        assert all(s >= 0 for s in slack)
        end = max(range(len(times)), key=lambda i: times[i])
        # every event on the chain ending at the horizon has no slack
        i = end
        while i >= 0:
            assert slack[i] == 0
            i = trace.parents[i]

    def test_busy_timeline_conserves_busy_cycles(self):
        trace = _golden_trace()
        times = event_times(trace)
        timeline = busy_timeline(trace, times, buckets=32)
        doc = analyze_trace(trace)
        for seq_id, row in timeline["per_seq"].items():
            assert sum(row) == doc["sequencers"][str(seq_id)]["busy_cycles"]
        assert all(level >= 0 for level in timeline["outstanding"])


# ----------------------------------------------------------------------
# Determinism (the committed-fixture acceptance criterion)
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_analysis_of_committed_trace_is_byte_deterministic(self):
        """Two invocations over the committed trace produce identical
        bytes, and they match the committed golden analysis."""
        first = _analysis_json(_golden_trace())
        second = _analysis_json(_golden_trace())
        assert first == second
        golden = (GOLDEN / "critpath_misp_1x2_dense_mvm.json").read_text()
        assert first == golden

    def test_captured_trace_roundtrips_through_dict(self):
        trace = _golden_trace()
        clone = CapturedTrace.from_dict(trace.to_dict())
        assert clone.to_dict() == trace.to_dict()
        assert _analysis_json(clone) == _analysis_json(trace)

    def test_segment_cap_preserves_totals(self):
        trace = _golden_trace()
        full = analyze_trace(trace)
        capped = analyze_trace(trace, max_segments=10)
        cp_full, cp_capped = full["critical_path"], capped["critical_path"]
        assert len(cp_capped["segments"]) == 10
        assert cp_capped["segments_dropped"] == (
            len(cp_full["segments"]) - 10)
        assert cp_capped["events"] == cp_full["events"]
        assert cp_capped["cycles"] == cp_full["cycles"]
        assert cp_capped["by_class"] == cp_full["by_class"]
        # kept segments stay in chronological order
        starts = [s["start"] for s in cp_capped["segments"]]
        assert starts == sorted(starts)


# ----------------------------------------------------------------------
# Live attribution on the smoke grid (the coverage criterion)
# ----------------------------------------------------------------------
class TestLiveAttribution:
    @pytest.mark.parametrize("system,config", [
        ("1p", "smp1"), ("misp", "1x8"), ("smp", "smp8")])
    def test_attribution_covers_wall_cycles(self, system, config):
        """Per sequencer, named-class cycles (incl. suspended/idle)
        account for the run's wall time to within 10%."""
        result = (Session(system, config).capture()
                  .run("dense_mvm", scale=0.05))
        doc = analyze_result(result)
        wall = doc["wall_cycles"]
        assert wall == result.cycles
        assert doc["sequencers"], "grid runs must report sequencers"
        for seq_id, row in doc["sequencers"].items():
            accounted = sum(row["classes"].values())
            assert 0.9 <= accounted / wall <= 1.1, (
                f"seq {seq_id} attribution covers {accounted / wall:.3f} "
                "of wall")
            assert 0.9 <= row["coverage"] <= 1.1
        # unattributed cycles (unowned waits) stay a sliver
        assert doc["unattributed_cycles"] <= wall * 0.1
        cp = doc["critical_path"]
        assert 0.9 <= cp["fraction_of_wall"] <= 1.0 + 1e-9

    def test_critical_path_dominant_classes_are_named(self):
        result = (Session("misp", "1x8").capture()
                  .run("dense_mvm", scale=0.05))
        doc = analyze_result(result)
        by_class = doc["critical_path"]["by_class"]
        assert sum(by_class.values()) == doc["critical_path"]["cycles"]
        assert set(by_class) & {"compute", "signal", "memory"}

    def test_format_analysis_mentions_path_and_sequencers(self):
        doc = analyze_trace(_golden_trace(), workload="dense_mvm",
                            system="misp", config="1x2")
        text = format_analysis(doc)
        assert "dense_mvm on misp:1x2" in text
        assert "critical path" in text
        assert "seq 0 (oms)" in text


# ----------------------------------------------------------------------
# Observed fallback (scoreboard cannot capture)
# ----------------------------------------------------------------------
class TestObservedFallback:
    def test_scoreboard_run_analyzes_from_observation(self):
        reg = MetricsRegistry()
        result = (Session("misp", "1x2").timing("scoreboard")
                  .observe(registry=reg)
                  .run("dense_mvm", scale=0.02))
        doc = analyze_result(result)
        assert doc["source"] == "observed"
        assert doc["critical_path"] is None and doc["slack"] is None
        wall = doc["wall_cycles"]
        for row in doc["sequencers"].values():
            # >= only: scoreboard hazard waits overlap in-flight ops,
            # so summed component latencies legitimately exceed
            # occupancy (idle pads any under-accounted remainder)
            assert sum(row["classes"].values()) / wall >= 0.9
        # scoreboard-specific hazard classes surface in the totals
        assert set(doc["classes"]) & {"raw", "structural", "wb_port",
                                      "frontend"}

    def test_stall_metric_family_is_pumped(self):
        reg = MetricsRegistry()
        result = (Session("misp", "1x2").observe(registry=reg)
                  .run("dense_mvm", scale=0.02))
        snap = reg.snapshot()
        assert "repro_stall_cycles_total" in snap
        samples = snap["repro_stall_cycles_total"]["samples"]
        classes = {s["labels"]["class"] for s in samples}
        assert {"signal", "suspended"} <= classes
        run_ids = {s["labels"]["run"] for s in samples}
        assert run_ids == {result.obs.run_id}

    def test_unevidenced_run_is_rejected(self):
        from repro.errors import ConfigurationError
        result = Session("misp", "1x2").run("dense_mvm", scale=0.01)
        with pytest.raises(ConfigurationError):
            analyze_result(result)

    def test_observed_analysis_matches_golden(self):
        """Both timing models' observed analyses of a fixed tiny run
        are byte-stable (regenerate tests/golden/ deliberately when a
        behaviour change is intended)."""
        docs = {}
        for timing in ("fixed", "scoreboard"):
            result = (Session("misp", "1x2").timing(timing)
                      .observe(registry=MetricsRegistry(), run_id="golden")
                      .run("dense_mvm", scale=0.02))
            docs[timing] = analyze_result(result)
        text = json.dumps(docs, sort_keys=True, indent=1) + "\n"
        golden = GOLDEN / "observed_misp_1x2_dense_mvm.json"
        assert text == golden.read_text()

    def test_analyze_observed_requires_only_result_surface(self):
        reg = MetricsRegistry()
        result = (Session("1p").observe(registry=reg)
                  .run("dense_mvm", scale=0.02))
        doc = analyze_observed(result)
        assert doc["system"] == "1p" and doc["source"] == "observed"


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def _mini_doc(wall, classes, workload="w", system="s", config="c"):
    return {"schema": "repro.critpath/1", "workload": workload,
            "system": system, "config": config, "wall_cycles": wall,
            "classes": classes,
            "sequencers": {"0": {"busy_cycles": wall,
                                 "classes": classes}}}


class TestDiff:
    def test_mem_cost_regression_ranks_memory_top(self):
        """The acceptance scenario: two runs differing only in
        mem_cost diff to a memory-class regression."""
        base = (Session("1p", "smp1").capture()
                .run("dense_mvm", scale=0.05))
        slow = (Session("1p", "smp1").params(mem_cost=600).capture()
                .run("dense_mvm", scale=0.05))
        doc = diff_analyses(analyze_result(base), analyze_result(slow))
        assert doc["delta_cycles"] > 0
        assert doc["top_contributor"]["class"] == "memory"
        assert doc["by_class"][0]["name"] == "memory"

    def test_diff_totals_and_ratio(self):
        a = _mini_doc(1000, {"compute": 900, "memory": 100})
        b = _mini_doc(1500, {"compute": 900, "memory": 600})
        doc = diff_analyses(a, b, label_a="old", label_b="new")
        assert doc["a"]["label"] == "old"
        assert doc["delta_cycles"] == 500
        assert doc["ratio"] == 1.5
        assert doc["top_contributor"] == {"class": "memory", "delta": 500}

    def test_derived_classes_never_rank(self):
        a = _mini_doc(1000, {"compute": 100, "idle": 900, "suspended": 0})
        b = _mini_doc(1200, {"compute": 300, "idle": 900, "suspended": 0})
        doc = diff_analyses(a, b)
        assert [row["name"] for row in doc["by_class"]] == ["compute"]

    def test_disjoint_runs_reported_not_diffed(self):
        a = {"runs": {"w1/s:c": _mini_doc(100, {"compute": 100})}}
        b = {"runs": {"w2/s:c": _mini_doc(100, {"compute": 100})}}
        doc = diff_analyses(a, b)
        assert doc["only_a"] == ["w1/s:c"] and doc["only_b"] == ["w2/s:c"]
        assert doc["delta_cycles"] == 0

    def test_format_diff_highlights_top_class(self):
        a = _mini_doc(1000, {"compute": 900, "memory": 100})
        b = _mini_doc(1500, {"compute": 900, "memory": 600})
        text = format_diff(diff_analyses(a, b, label_a="A", label_b="B"))
        assert "top regressing class: memory (+500 cycles)" in text
        assert "1,000 -> 1,500 cycles" in text


# ----------------------------------------------------------------------
# Report CLI
# ----------------------------------------------------------------------
class TestReportCLI:
    def _analyze(self, tmp_path, name, extra=()):
        from repro.analysis.report import main
        out = tmp_path / name
        rc = main(["--smoke", "--serial", "--workloads", "dense_mvm",
                   "--scale", "0.02", "--analyze",
                   "--analyze-out", str(out), *extra])
        assert rc == 0
        return json.loads(out.read_text())

    def test_analyze_writes_grid_snapshot(self, tmp_path, capsys):
        doc = self._analyze(tmp_path, "a.json")
        assert doc["schema"] == "repro.analyze/1"
        assert sorted(doc["runs"]) == [
            "dense_mvm/1p:smp1", "dense_mvm/misp:1x8", "dense_mvm/smp:smp8"]
        assert all(r["source"] == "capture" for r in doc["runs"].values())
        out = capsys.readouterr().out
        assert "Bottleneck attribution" in out
        assert "critical path" in out

    def test_scoreboard_analyze_falls_back_with_notice(self, tmp_path,
                                                       capsys):
        doc = self._analyze(tmp_path, "sb.json",
                            extra=["--timing", "scoreboard"])
        assert all(r["source"] == "observed" for r in doc["runs"].values())
        assert "does not support trace capture" in capsys.readouterr().out

    def test_param_override_and_diff_cli(self, tmp_path, capsys):
        from repro.analysis.report import main
        base = self._analyze(tmp_path, "base.json")
        mem = self._analyze(tmp_path, "mem.json",
                            extra=["--param", "mem_cost=600"])
        assert mem["params"] == {"mem_cost": 600}
        assert base["params"] == {}
        capsys.readouterr()
        rc = main(["--diff", str(tmp_path / "base.json"),
                   str(tmp_path / "mem.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top regressing class: memory" in out

    def test_committed_analysis_baseline_parses(self):
        root = Path(__file__).parent.parent
        doc = json.loads((root / "ANALYZE_baseline.json").read_text())
        assert doc["schema"] == "repro.analyze/1"
        assert len(doc["runs"]) == 48  # 16 workloads x 3 systems
        # a self-diff is clean: no deltas, nothing only on one side
        self_diff = diff_analyses(doc, doc)
        assert self_diff["delta_cycles"] == 0
        assert not self_diff["only_a"] and not self_diff["only_b"]

    @pytest.mark.parametrize("argv, message", [
        (["--analyze", "--param", "mem_cost=60.5"],
         "mem_cost expects an integer"),
        (["--param", "mem_cost=60"], "--analyze"),
    ], ids=["float", "without-analyze"])
    def test_bad_param_exits_before_simulating(self, argv, message,
                                               monkeypatch):
        import repro.analysis.report as report

        def simulated(*args, **kwargs):
            raise AssertionError("the report simulated before it "
                                 "rejected --param")

        monkeypatch.setattr(report, "full_report", simulated)
        with pytest.raises(SystemExit) as excinfo:
            report.main(["--smoke", "--serial", *argv])
        assert message in str(excinfo.value)
