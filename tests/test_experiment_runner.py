"""Tests for the experiment-orchestration subsystem: configuration
notation round-trips, RunSpec canonicalization and hashing, and the
Runner's dedup / cache / parallel-equality guarantees."""

import multiprocessing
import pickle

import pytest

from repro.core.notation import (
    FIGURE6_CONFIGS, FIGURE7_CONFIGS, config_name, parse_config,
)
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import ExperimentSpec, Runner, RunSpec, RunSummary
from repro.params import DEFAULT_PARAMS
from repro.service import ResultStore, execute
from repro.shredlib.runtime import QueuePolicy
from repro.systems import Session

#: a fast workload for runner-behaviour tests
FAST = dict(workload="dense_mvm", scale=0.05)


# ----------------------------------------------------------------------
# Configuration notation round-trips
# ----------------------------------------------------------------------
ROUND_TRIP_NAMES = sorted(
    set(FIGURE6_CONFIGS) | set(FIGURE7_CONFIGS)
    | {"smp1", "smp8", "smp16", "1x2", "2x3+2", "1x4+1x2", "1x8+1x4+2"}
)


class TestConfigNotation:
    @pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
    def test_name_round_trip(self, name):
        assert config_name(parse_config(name)) == name

    @pytest.mark.parametrize("counts", [
        (7,), (3, 3), (1, 1, 1, 1), (3, 0, 0, 0, 0), (0,) * 8,
        (3, 1), (1, 3), (5, 2, 0), (6, 0),
    ])
    def test_tuple_round_trip(self, counts):
        assert parse_config(config_name(counts)) == counts

    def test_non_canonical_forms_normalize(self):
        assert parse_config("4x1") == (0, 0, 0, 0)
        assert config_name(parse_config("4x1")) == "smp4"
        assert parse_config("1X8") == (7,)

    @pytest.mark.parametrize("bad", ["", "x", "0x2", "1x0", "+", "1x", "smp"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigurationError):
            parse_config(bad)

    def test_bare_plain_count_is_smp(self):
        assert parse_config("8") == (0,) * 8
        assert parse_config("1x4+2+2") == (3, 0, 0, 0, 0)


# ----------------------------------------------------------------------
# RunSpec canonicalization and hashing
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_equivalent_specs_share_hash(self):
        a = RunSpec("gauss", "1p")
        b = RunSpec("gauss", "smp", "smp1")
        c = RunSpec("gauss", "1P", "  SMP1 ")
        assert a == b == c
        assert a.spec_hash() == b.spec_hash() == c.spec_hash()

    def test_ideal_config_resolves_per_load(self):
        spec = RunSpec("RayTracer", "multiprog", "ideal", background=2)
        assert spec.config == "1x6+2"
        fixed = RunSpec("RayTracer", "multiprog", "1x6+2", background=2)
        assert spec.spec_hash() == fixed.spec_hash()

    def test_distinct_fields_change_hash(self):
        base = RunSpec("gauss", "misp", "1x8")
        assert base.spec_hash() != RunSpec("gauss", "misp", "1x4").spec_hash()
        assert base.spec_hash() != RunSpec("gauss", "misp", "1x8",
                                           scale=0.5).spec_hash()
        assert base.spec_hash() != RunSpec(
            "gauss", "misp", "1x8", policy=QueuePolicy.LIFO).spec_hash()
        assert base.spec_hash() != RunSpec(
            "gauss", "misp", "1x8",
            params=DEFAULT_PARAMS.with_changes(signal_cost=0)).spec_hash()
        assert base.spec_hash() != RunSpec(
            "gauss", "misp", "1x8", args={"x": 1}).spec_hash()

    def test_args_normalize_to_sorted_pairs(self):
        a = RunSpec("RayTracer", args={"probe_pages": True, "ntiles": 8})
        b = RunSpec("RayTracer", args=(("ntiles", 8), ("probe_pages", True)))
        assert a.args == b.args and a.spec_hash() == b.spec_hash()

    def test_dict_round_trip(self):
        spec = RunSpec("RayTracer", "multiprog", "smp", scale=0.1,
                       background=3, policy="lifo",
                       params=DEFAULT_PARAMS.with_changes(signal_cost=500))
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "cluster")
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "misp", "2x4")      # MP needs multiprog
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "smp", "1x8")       # smp needs plain CPUs
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", "misp", background=1)
        with pytest.raises(ConfigurationError):
            RunSpec("gauss", scale=-1.0)

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_scale_rejected(self, scale):
        # one check guards the spec and the direct Session path alike
        with pytest.raises(ConfigurationError, match="scale must be"):
            RunSpec("dense_mvm", "1p", scale=scale)
        with pytest.raises(ConfigurationError, match="scale must be"):
            Session("1p").run("dense_mvm", scale=scale)

    @pytest.mark.parametrize("workload", ["no_such_app", "raytracer"])
    def test_unknown_workload_rejected_at_construction(self, workload):
        # workload names match exactly ("RayTracer" is registered)
        with pytest.raises(ConfigurationError, match="unknown workload"):
            RunSpec(workload, "misp", "1x4", scale=0.01)

    def test_multiprog_default_limit_is_the_driver_horizon(self):
        from repro.workloads.multiprog import MULTIPROG_HORIZON
        spec = RunSpec("RayTracer", "multiprog", "1x8")
        assert spec.limit == MULTIPROG_HORIZON
        explicit = RunSpec("RayTracer", "multiprog", "1x8", limit=123)
        assert explicit.limit == 123

    def test_experiment_dedup_preserves_order(self):
        exp = ExperimentSpec("e", (RunSpec("gauss", "1p"),
                                   RunSpec("gauss", "misp"),
                                   RunSpec("gauss", "smp", "smp1")))
        unique = exp.unique_runs()
        assert len(exp) == 3 and len(unique) == 2
        assert unique[0].system == "1p" and unique[1].system == "misp"


# ----------------------------------------------------------------------
# Runner behaviour (dedup, cache, parallel equality)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fast_grid():
    return [RunSpec(system="1p", **FAST),
            RunSpec(system="misp", config="1x4", **FAST),
            RunSpec(system="smp", config="smp4", **FAST)]


class TestRunner:
    def test_dedup_within_and_across_calls(self, fast_grid):
        runner = Runner(parallel=False)
        exp = ExperimentSpec("dup", tuple(fast_grid) + tuple(fast_grid))
        result = runner.run_experiment(exp)
        assert len(result.summaries()) == 6
        assert runner.stats.executed == 3
        assert runner.stats.deduplicated == 3
        # a second invocation is pure memo
        runner.run_many(fast_grid)
        assert runner.stats.executed == 3
        assert runner.stats.memo_hits == 3

    def test_cache_miss_then_hit(self, fast_grid, tmp_path):
        first = Runner(store=tmp_path, parallel=False)
        a = first.run_many(fast_grid)
        assert first.stats.executed == 3 and first.stats.store_hits == 0
        # a fresh Runner (fresh process, conceptually) hits the disk cache
        second = Runner(store=tmp_path, parallel=False)
        b = second.run_many(fast_grid)
        assert second.stats.executed == 0
        assert second.stats.store_hits == 3
        assert a == b

    def test_cache_ignores_corrupt_entries(self, fast_grid, tmp_path):
        cache = ResultStore(tmp_path)
        spec = fast_grid[0]
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None
        runner = Runner(store=tmp_path, parallel=False)
        summary = runner.run(spec)
        assert runner.stats.executed == 1
        assert cache.get(spec) == summary     # repaired on write

    def test_failed_run_keeps_completed_batch_members(self, fast_grid,
                                                      tmp_path):
        good = fast_grid[0]
        bad = RunSpec(system="misp", config="1x4", limit=10, **FAST)
        runner = Runner(store=tmp_path, parallel=False)
        with pytest.raises(SimulationError):
            runner.run_many([good, bad])
        assert runner.stats.executed == 1     # the good run was kept
        # a retry only re-runs the failure; the good run is cached
        retry = Runner(store=tmp_path, parallel=False)
        with pytest.raises(SimulationError):
            retry.run_many([good, bad])
        assert retry.stats.store_hits == 1 and retry.stats.executed == 0

    def test_parallel_equals_serial(self, fast_grid):
        serial = Runner(parallel=False).run_many(fast_grid)
        parallel = Runner(parallel=True, max_workers=2).run_many(fast_grid)
        assert parallel == serial

    def test_pool_shut_down_when_a_call_returns(self, fast_grid):
        Runner(parallel=True, max_workers=2).run_many(fast_grid)
        assert multiprocessing.active_children() == []

    def test_summary_is_plain_data(self, fast_grid):
        summary = Runner(parallel=False).run(fast_grid[1])
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
        assert RunSummary.from_dict(summary.to_dict()) == summary
        assert summary.events == summary.serializing_events()
        assert summary.spec_hash == fast_grid[1].spec_hash()

    def test_figure4_grid_runs_once_parallel_then_cached(self, tmp_path):
        """The acceptance path: a Figure-4 grid simulates each unique
        (workload, system, config) exactly once in parallel workers,
        and a re-invocation is served wholly from the on-disk cache."""
        from repro.analysis import run_figure4, run_table1

        names = ["dense_mvm", "ADAt"]
        first = Runner(store=tmp_path, parallel=True, max_workers=2)
        fig_a = run_figure4(names, ams_count=3, scale=0.05, runner=first)
        assert first.stats.executed == 6     # 2 workloads x {1p,misp,smp}
        assert first.stats.store_hits == 0

        second = Runner(store=tmp_path, parallel=True, max_workers=2)
        fig_b = run_figure4(names, ams_count=3, scale=0.05, runner=second)
        assert second.stats.executed == 0
        assert second.stats.store_hits == 6
        assert fig_a.rows == fig_b.rows
        assert fig_a.misp_summaries == fig_b.misp_summaries

        # Table 1 consumes the same MISP runs: all memo, no simulation
        rows = run_table1(names, ams_count=3, scale=0.05, runner=second)
        assert [r.workload for r in rows] == names
        assert second.stats.executed == 0

    def test_execute_labels_match_spec(self):
        summary = execute(RunSpec(system="misp", config="1x4", **FAST))
        assert summary.workload == "dense_mvm"
        assert summary.system == "misp" and summary.config == "1x4"
        assert summary.cycles > 0 and summary.utilization.num_ams == 3
