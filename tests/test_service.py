"""Tests for the layered experiment service: the content-addressed
ResultStore (metrics, eviction, quarantine, temp-file reclamation,
executed summaries only), resolution order, the execution backend, the
run table (in-flight joins, failures, counts that add up), concurrency
invariants (shared-store races, in-flight dedup), and the
ExperimentService streaming job API."""

import dataclasses
import errno
import json
import multiprocessing
import os
import random
import sys
import threading
import time
from concurrent.futures import Future

import pytest

import repro.service.executor as executor
from repro.errors import (
    ConfigurationError, ExperimentExecutionError, SimulationError,
)
from repro.experiments import (
    ExperimentSpec, Runner, RunSpec, RunSummary, runner_from_env,
)
from repro.params import DEFAULT_PARAMS
from repro.service import (
    STORE_VERSION, ExecutionBackend, ExperimentService, JobHandle,
    ResultStore, ServiceStats, execute, store_from_env,
)

#: a fast workload for end-to-end service tests
FAST = dict(workload="dense_mvm", scale=0.05)


def spec_n(n: int) -> RunSpec:
    """Cheap distinct specs (args vary the content hash; nothing runs)."""
    return RunSpec("dense_mvm", "misp", "1x8", args={"n": n})


def summary_for(spec: RunSpec, cycles: int = 100) -> RunSummary:
    return RunSummary(workload=spec.workload, system=spec.system,
                      config=spec.config, cycles=cycles,
                      spec_hash=spec.spec_hash())


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


def within(timeout: float, fn, *args):
    """``fn(*args)`` on a helper thread: its result, its exception, or
    TimeoutError instead of a hang."""
    future: Future = Future()

    def call():
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)

    threading.Thread(target=call, daemon=True).start()
    return future.result(timeout=timeout)


#: a spec cheap enough to execute for real
TINY = RunSpec("dense_mvm", "misp", "1x2", scale=0.01)

#: marks the spec whose worker :func:`crash_marked` kills
CRASH_COST = 4321

#: valid JSON that is not an object, so not a store entry
NON_OBJECT_PAYLOADS = ["[]", "null", '"x"', "3"]


def crash_marked(spec):
    """An ``execute_fn`` (module level, so pool workers can run it)
    whose worker process dies on a marked spec."""
    if spec.params.signal_cost == CRASH_COST:
        os._exit(1)
    return execute(spec)


#: marks the spec whose worker :func:`crash_once` kills, once
CRASH_ONCE_COST = 4322


def crash_once(spec):
    """An ``execute_fn`` (module level, so pool workers can run it)
    whose worker process dies on a marked spec's first attempt only:
    the attempt leaves a marker file in ``$REPRO_TEST_CRASH_DIR``."""
    if spec.params.signal_cost == CRASH_ONCE_COST:
        marker = os.path.join(os.environ["REPRO_TEST_CRASH_DIR"],
                              spec.spec_hash())
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
    return execute(spec)


def exit_after_run(spec):
    """An ``execute_fn`` (module level, so pool workers can run it)
    whose worker process exits shortly after it returns the spec's
    summary: the pool breaks while it sits idle."""
    summary = execute(spec)
    threading.Timer(0.2, os._exit, (0,)).start()
    return summary


def in_flight(service) -> list:
    """The futures left in ``service``'s run table: none once every
    job is done, since a run's future leaves it before it resolves."""
    return [run for run in service._runs.values()
            if isinstance(run, Future)]


def assert_quarantined(tmp_path, text: str) -> None:
    """An entry holding ``text`` is counted corrupt and quarantined,
    and its key serves normally once rewritten."""
    store = ResultStore(tmp_path)
    spec = spec_n(1)
    path = store.path_for(spec)
    path.write_text(text)
    assert store.get(spec) is None
    assert store.stats.corrupt == 1
    assert store.stats.misses == 0
    assert not path.exists()                       # quarantined away
    assert list(tmp_path.glob("*.corrupt"))
    # the key is writable again and serves normally afterwards
    store.put(spec, summary_for(spec))
    assert store.get(spec) == summary_for(spec)


def fail_next_put(store: ResultStore) -> None:
    """Make the store's next write raise ENOSPC, as a full disk would."""
    put = store.put
    state = {"failed": False}

    def flaky(spec, summary):
        if not state["failed"]:
            state["failed"] = True
            raise OSError(errno.ENOSPC, "No space left on device")
        return put(spec, summary)

    store.put = flaky


# ----------------------------------------------------------------------
# ResultStore: metrics, integrity, eviction
# ----------------------------------------------------------------------
class TestResultStore:
    def test_hit_miss_metrics(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_n(1)
        assert store.get(spec) is None
        store.put(spec, summary_for(spec))
        assert store.get(spec) == summary_for(spec)
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate == 0.5
        assert "50.0% hit rate" in str(store.stats)

    def test_corrupt_entry_counted_and_quarantined(self, tmp_path):
        assert_quarantined(tmp_path, "{not json")

    @pytest.mark.parametrize("payload", NON_OBJECT_PAYLOADS)
    def test_non_object_entry_counted_and_quarantined(self, tmp_path,
                                                      payload):
        assert_quarantined(tmp_path, payload)

    def test_misaddressed_entry_is_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        a, b = spec_n(1), spec_n(2)
        store.put(a, summary_for(a))
        # copy a's payload under b's address: content no longer matches
        store.path_for(b).write_text(store.path_for(a).read_text())
        assert store.get(b) is None
        assert store.stats.corrupt == 1
        assert not store.path_for(b).exists()

    def test_version_mismatch_is_a_plain_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_n(1)
        store.put(spec, summary_for(spec))
        payload = json.loads(store.path_for(spec).read_text())
        payload["store_version"] = payload["cache_version"] = \
            STORE_VERSION - 1
        store.path_for(spec).write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert store.stats.misses == 1 and store.stats.corrupt == 0
        assert store.path_for(spec).exists()           # not quarantined

    def test_orphaned_tmp_swept_on_init_and_clear(self, tmp_path):
        orphan = tmp_path / "crashed-writer.tmp"
        orphan.write_text("half a payload")
        os.utime(orphan, (0, 0))                       # ancient
        live = tmp_path / "live-writer.tmp"
        live.write_text("in flight")                   # fresh mtime
        store = ResultStore(tmp_path)
        assert not orphan.exists()                     # reclaimed
        assert live.exists()                           # grace period
        assert store.stats.tmp_reclaimed == 1
        store.clear()
        assert not live.exists()                       # clear takes all

    def test_lru_eviction_under_entry_bound(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=3)
        specs = [spec_n(i) for i in range(4)]
        for i, spec in enumerate(specs[:3]):
            path = store.put(spec, summary_for(spec))
            os.utime(path, (100 * (i + 1), 100 * (i + 1)))
        store.get(specs[0])            # refresh: specs[0] now most recent
        store.put(specs[3], summary_for(specs[3]))
        assert len(store) == 3
        assert store.stats.evictions == 1
        assert not store.path_for(specs[1]).exists()   # the LRU entry
        assert store.path_for(specs[0]).exists()       # refreshed survives

    def test_byte_bound_keeps_newest(self, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        spec = spec_n(0)
        entry_size = probe.put(spec, summary_for(spec)).stat().st_size
        store = ResultStore(tmp_path / "real",
                            max_bytes=int(entry_size * 1.5))
        a, b = spec_n(1), spec_n(2)
        pa = store.put(a, summary_for(a))
        os.utime(pa, (100, 100))
        store.put(b, summary_for(b))
        assert len(store) == 1
        assert store.path_for(b).exists()
        assert store.stats.evictions == 1

    def test_sweep_quarantines_and_reclaims(self, tmp_path):
        store = ResultStore(tmp_path)
        good = spec_n(1)
        store.put(good, summary_for(good))
        (tmp_path / ("d" * 64 + ".json")).write_text("garbage{")
        (tmp_path / "orphan.tmp").write_text("x")
        report = store.sweep()
        assert report.checked == 2
        assert report.quarantined == 1
        assert report.tmp_reclaimed == 1
        assert store.get(good) == summary_for(good)    # survivors intact

    @pytest.mark.parametrize("payload", NON_OBJECT_PAYLOADS)
    def test_sweep_quarantines_non_object_entry(self, tmp_path, payload):
        store = ResultStore(tmp_path)
        good = spec_n(1)
        store.put(good, summary_for(good))
        (tmp_path / ("d" * 64 + ".json")).write_text(payload)
        report = store.sweep()
        assert (report.checked, report.quarantined) == (2, 1)
        assert store.stats.corrupt == 1
        assert store.get(good) == summary_for(good)

    def test_put_refuses_a_replayed_summary(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = spec_n(1)
        replayed = dataclasses.replace(summary_for(spec), timing="replay")
        with pytest.raises(ConfigurationError, match="'replay'"):
            store.put(spec, replayed)
        assert len(store) == 0 and store.stats.puts == 0

    def test_replay_entry_of_an_older_version_never_served(self, tmp_path):
        """Replay summaries once had their own key beside the
        executed entry; the store never reads that key, and a replayed
        summary under the executed key is corruption."""
        store = ResultStore(tmp_path)
        spec = spec_n(1)
        store.put(spec, summary_for(spec))
        payload = json.loads(store.path_for(spec).read_text())
        payload["timing"] = payload["summary"]["timing"] = "replay"
        store.path_for(spec).unlink()
        old = tmp_path / f"{spec.spec_hash()}.replay.json"
        old.write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)
        assert old.exists()
        # under the executed key the same payload is corruption
        store.path_for(spec).write_text(json.dumps(payload))
        assert store.get(spec) is None
        assert store.stats.corrupt == 1
        assert not store.path_for(spec).exists()
        assert store.clear() == 1
        assert not old.exists()

    @pytest.mark.parametrize("edit, corrupt", [
        # a replayed summary under the executed key
        ({"summary": {"timing": "replay"}}, True),
        # a stale entry whose summary this version no longer loads
        ({"store_version": STORE_VERSION - 1,
          "cache_version": STORE_VERSION - 1,
          "summary": {"retired_field": 1}}, False),
        # an entry with no version field at all
        ({"store_version": None, "cache_version": None}, True),
    ], ids=["replayed", "stale-unloadable", "unversioned"])
    def test_get_and_sweep_read_an_entry_by_one_rule(self, tmp_path, edit,
                                                      corrupt):
        """get() and sweep() agree on every entry: both quarantine a
        corrupt one, and both leave a stale one for a put to
        overwrite."""
        verdicts = []
        for reader in ("get", "sweep"):
            store = ResultStore(tmp_path / reader)
            spec = spec_n(1)
            path = store.put(spec, summary_for(spec))
            payload = json.loads(path.read_text())
            for field, value in edit.items():
                if isinstance(value, dict):
                    payload[field].update(value)
                elif value is None:             # drop the field
                    del payload[field]
                else:
                    payload[field] = value
            path.write_text(json.dumps(payload))
            if reader == "get":
                assert store.get(spec) is None
            else:
                assert store.sweep().checked == 1
            verdicts.append((store.stats.corrupt, path.exists()))
        assert verdicts == [(int(corrupt), not corrupt)] * 2

    def test_replay_file_of_an_older_version_is_no_entry(self, tmp_path):
        """A ``<hash>.replay.json`` beside an executed entry is not
        counted, bounded or validated as an entry: sweep quarantines
        it and keeps the entry."""
        store = ResultStore(tmp_path, max_entries=1)
        spec = spec_n(1)
        old = tmp_path / f"{spec.spec_hash()}.replay.json"
        old.write_text(json.dumps({"spec_hash": spec.spec_hash(),
                                   "timing": "replay"}))
        store.put(spec, summary_for(spec))
        assert store.stats.evictions == 0 and old.exists()
        assert len(store) == 1
        report = store.sweep()
        assert (report.checked, report.quarantined) == (1, 1)
        assert not old.exists()
        assert store.get(spec) == summary_for(spec)


class TestStoreFromEnv:
    @pytest.mark.parametrize("variable", ["REPRO_STORE_MAX_ENTRIES",
                                          "REPRO_STORE_MAX_BYTES"])
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_bound_is_a_configuration_error(self, tmp_path,
                                                monkeypatch, variable,
                                                value):
        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigurationError) as excinfo:
            store_from_env(tmp_path / "store")
        assert variable in str(excinfo.value)
        assert repr(value) in str(excinfo.value)
        assert not (tmp_path / "store").exists()    # rejected up front

    def test_bounds_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_ENTRIES", "5")
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "")
        store = store_from_env(tmp_path)
        assert (store.max_entries, store.max_bytes) == (5, None)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_worker_count_is_a_configuration_error(self, monkeypatch,
                                                       value):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_MAX_WORKERS", value)
        with pytest.raises(ConfigurationError) as excinfo:
            runner_from_env()
        assert "REPRO_MAX_WORKERS" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_worker_count_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        runner = runner_from_env()
        assert runner.backend.max_workers == 3

    def test_no_worker_count_means_every_core(self):
        service = ExperimentService(max_workers=None)
        assert service.backend.max_workers == (os.cpu_count() or 1)

    @pytest.mark.parametrize("value", [0, -3, 1.5, True])
    @pytest.mark.parametrize("make", [ExperimentService, Runner])
    def test_bad_max_workers_is_a_configuration_error(self, tmp_path,
                                                      make, value):
        with pytest.raises(ConfigurationError) as excinfo:
            make(store=tmp_path / "store", max_workers=value,
                 parallel=False)
        assert f"got {value!r}" in str(excinfo.value)
        assert not (tmp_path / "store").exists()    # rejected up front


# ----------------------------------------------------------------------
# The execution backend and the inflight table
# ----------------------------------------------------------------------
class TestExecutionBackend:
    def test_each_spec_runs_through_the_module_execute(self, monkeypatch):
        """The backend runs every spec, in input order on the serial
        path, through ``executor.execute`` as the module holds it when
        the batch starts, so a wrapper installed after the service was
        built (as a profiler's) sees every execution."""
        backend = ExecutionBackend(parallel=False)
        calls = []

        def counted(spec):
            calls.append(spec)
            return execute(spec)

        monkeypatch.setattr(executor, "execute", counted)
        specs = [TINY, RunSpec("dense_mvm", "1p", scale=0.01)]
        out = [(spec, future.result()) for spec, future in backend.run(specs)]
        assert calls == specs
        assert out == [(spec, execute(spec)) for spec in specs]


# ----------------------------------------------------------------------
# Resolution order: memo -> store -> execution, with backfill
# ----------------------------------------------------------------------
class StubExecute:
    """An ``execute_fn`` that manufactures summaries and records calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, spec):
        self.calls.append(spec)
        return summary_for(spec)


def outcomes(stats) -> int:
    """The grid members ``stats`` has counted an outcome for."""
    return (stats.deduplicated + stats.memo_hits + stats.store_hits
            + stats.inflight_joined + stats.executed + stats.failed)


def served_by(service):
    """(memo, store, executed) counts of a service so far."""
    return (service.stats.memo_hits, service.stats.store_hits,
            service.stats.executed)


class TestResolutionOrder:
    def test_layer_order_and_backfill(self, tmp_path):
        store = ResultStore(tmp_path)
        stub = StubExecute()
        service = ExperimentService(store=store, parallel=False,
                                    execute_fn=stub)
        specs = [spec_n(i) for i in range(3)]

        first = service.run_many(specs)
        assert served_by(service) == (0, 0, 3)
        assert store.stats.puts == 3                   # backfilled down
        assert first == [summary_for(s) for s in specs]

        service.run_many(specs)                        # memo short-circuit
        assert served_by(service) == (3, 0, 3)
        assert len(stub.calls) == 3

        fresh = ExperimentService(store=store, parallel=False,
                                  execute_fn=StubExecute())
        fresh.run_many(specs)                          # disk short-circuit
        assert served_by(fresh) == (0, 3, 0)


# ----------------------------------------------------------------------
# Failure aggregation (every failed spec named, batch survivors kept)
# ----------------------------------------------------------------------
class TestFailureReporting:
    def test_all_failures_named_and_counted(self, tmp_path):
        good = RunSpec(system="1p", **FAST)
        bad1 = RunSpec(system="misp", config="1x4", limit=10, **FAST)
        bad2 = RunSpec(system="smp", config="smp4", limit=10, **FAST)
        runner = Runner(store=tmp_path, parallel=False)
        with pytest.raises(ExperimentExecutionError) as excinfo:
            runner.run_many([good, bad1, bad2])
        err = excinfo.value
        assert isinstance(err, SimulationError)        # old catch sites work
        assert len(err.failures) == 2
        assert bad1.describe() in str(err)
        assert bad2.describe() in str(err)
        assert runner.stats.failed == 2
        assert runner.stats.executed == 1              # the good run kept
        # survivors are stored: a retry only re-runs the failures
        retry = Runner(store=tmp_path, parallel=False)
        with pytest.raises(ExperimentExecutionError):
            retry.run_many([good, bad1, bad2])
        assert retry.stats.store_hits == 1
        assert retry.stats.executed == 0
        assert retry.stats.failed == 2

    def test_parallel_failures_also_aggregate(self):
        bads = [RunSpec(system="misp", config="1x4", limit=10, **FAST),
                RunSpec(system="smp", config="smp4", limit=10, **FAST)]
        runner = Runner(parallel=True, max_workers=2)
        with pytest.raises(ExperimentExecutionError) as excinfo:
            runner.run_many(bads)
        assert len(excinfo.value.failures) == 2


# ----------------------------------------------------------------------
# A store write that raises during backfill settles every claim
# ----------------------------------------------------------------------
class TestStoreWriteFailure:
    def test_submit_fails_named_then_retry_serves(self, tmp_path):
        store = ResultStore(tmp_path)
        fail_next_put(store)
        specs = [spec_n(1), spec_n(2)]
        with ExperimentService(store=store, parallel=False,
                               execute_fn=StubExecute()) as service:
            with pytest.raises(ExperimentExecutionError) as excinfo:
                service.submit(specs).result(timeout=10)
            assert all(isinstance(exc, OSError)
                       for _, exc in excinfo.value.failures)
            assert in_flight(service) == []
            retry = service.submit(specs).result(timeout=10)
        assert retry.summaries() == [summary_for(s) for s in specs]

    def test_runner_fails_named_then_retry_serves(self, tmp_path):
        specs = [RunSpec(system="1p", **FAST),
                 RunSpec(system="misp", config="1x4", **FAST)]
        runner = Runner(store=tmp_path, parallel=False)
        fail_next_put(runner.store)
        with pytest.raises(ExperimentExecutionError):
            within(120, runner.run_many, specs)
        assert in_flight(runner) == []
        retry = within(120, runner.run_many, specs)
        assert retry == Runner(parallel=False).run_many(specs)


# ----------------------------------------------------------------------
# Injected faults end in a quarantine or a named error, and the service
# keeps serving afterwards
# ----------------------------------------------------------------------
class TestFaultRecovery:
    def test_non_object_store_entry_executes_then_serves(self, tmp_path):
        ResultStore(tmp_path).path_for(TINY).write_text("[]")
        first = ExperimentService(store=ResultStore(tmp_path),
                                  parallel=False)
        summary = first.run(TINY)
        assert first.stats.executed == 1
        assert first.store.stats.corrupt == 1
        fresh = ExperimentService(store=ResultStore(tmp_path),
                                  parallel=False)
        assert fresh.run(TINY) == summary
        assert (fresh.stats.store_hits, fresh.stats.executed) == (1, 0)

    def test_dead_worker_does_not_break_the_service(self):
        marked = DEFAULT_PARAMS.with_changes(signal_cost=CRASH_COST)
        crashing = [RunSpec("dense_mvm", "misp", "1x2", scale=0.01,
                            params=marked),
                    RunSpec("dense_mvm", "1p", scale=0.01, params=marked)]
        healthy = [TINY, RunSpec("dense_mvm", "1p", scale=0.01)]
        with ExperimentService(max_workers=2,
                               execute_fn=crash_marked) as service:
            with pytest.raises(ExperimentExecutionError):
                service.run_many(crashing)
            out = service.run_many(healthy)
        assert [s.cycles for s in out] == [execute(s).cycles
                                           for s in healthy]

    def test_healthy_group_survives_a_crashing_one(self):
        """Each spec a dead worker broke is retried on a pool of its
        own, so a spec whose worker dies every time takes no healthy
        spec down with it."""
        marked = DEFAULT_PARAMS.with_changes(signal_cost=CRASH_COST)
        crashing = RunSpec("dense_mvm", "misp", "1x2", scale=0.01,
                           params=marked)
        plain = RunSpec("dense_mvm", "1p", scale=0.01)
        with ExperimentService(max_workers=2,
                               execute_fn=crash_marked) as service:
            with pytest.raises(ExperimentExecutionError) as excinfo:
                service.run_many([crashing, plain])
            assert [spec for spec, _ in excinfo.value.failures] == [crashing]
            assert service.run(plain).cycles == execute(plain).cycles
            assert service.stats.memo_hits == 1

    def test_worker_dead_mid_plan_is_retried_once(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        marked = DEFAULT_PARAMS.with_changes(signal_cost=CRASH_ONCE_COST)
        specs = [RunSpec("dense_mvm", "misp", "1x2", scale=0.01,
                         params=marked),
                 RunSpec("dense_mvm", "1p", scale=0.01)]
        with ExperimentService(max_workers=2,
                               execute_fn=crash_once) as service:
            out = service.run_many(specs)
        assert [s.cycles for s in out] == [execute(s).cycles
                                           for s in specs]
        assert os.listdir(tmp_path) == [specs[0].spec_hash()]

    def test_worker_dead_while_idle_does_not_break_the_service(self):
        first = [TINY, RunSpec("dense_mvm", "1p", scale=0.01)]
        healthy = [RunSpec("dense_mvm", "misp", "1x4", scale=0.01),
                   RunSpec("dense_mvm", "smp", "smp2", scale=0.01)]
        with ExperimentService(max_workers=2,
                               execute_fn=exit_after_run) as service:
            service.run_many(first)
            # every worker exits between plans; the next plan meets a
            # broken pool whether or not the pool has flagged it yet
            wait_until(lambda: not multiprocessing.active_children())
            out = service.run_many(healthy)
        assert [s.cycles for s in out] == [execute(s).cycles
                                           for s in healthy]


# ----------------------------------------------------------------------
# Concurrency invariants
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_two_runners_race_one_store_directory(self, tmp_path):
        """Atomic-write invariant: two processes'-worth of Runners
        racing on the same spec leave one valid entry and agree."""
        spec = RunSpec(system="misp", config="1x4", **FAST)
        results, errors = {}, []

        def race(name):
            try:
                runner = Runner(store=tmp_path, parallel=False)
                results[name] = runner.run(spec)
            except Exception as exc:                   # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=race, args=(n,))
                   for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results["a"] == results["b"]
        check = ResultStore(tmp_path)
        assert check.get(spec) == results["a"]         # entry readable
        assert check.stats.corrupt == 0
        assert not list(tmp_path.glob("*.tmp"))        # no orphans left

    def test_concurrent_store_lookups_count_every_one(self, tmp_path):
        """Every job thread of a service shares its store, so lookups
        race on its counters; each must count once, even with the
        interpreter switching threads as often as it can."""
        store = ResultStore(tmp_path)
        spec = spec_n(1)
        nthreads, lookups = 8, 10_000
        start = threading.Barrier(nthreads, timeout=30)

        def look_up():
            start.wait()
            for _ in range(lookups):
                store.get(spec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look_up)
                       for _ in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert store.stats.misses == nthreads * lookups

    def test_concurrent_submits_dedup_onto_one_execution(self):
        """Two concurrent jobs wanting the same spec share one in-flight
        run: exactly one execution, both jobs receive the summary."""
        calls = []
        release = threading.Event()

        def gated(spec):
            calls.append(spec)
            assert release.wait(timeout=30)
            return execute(spec)

        spec = RunSpec(system="misp", config="1x4", **FAST)
        with ExperimentService(parallel=False,
                               execute_fn=gated) as service:
            job_a = service.submit([spec])
            wait_until(lambda: len(calls) == 1)        # A owns the run
            job_b = service.submit([spec])
            wait_until(lambda: service.stats.inflight_joined == 1)
            assert not job_a.done() and not job_b.done()
            release.set()
            result_a = job_a.result(timeout=120)
            result_b = job_b.result(timeout=120)
        assert len(calls) == 1                         # exactly one execution
        assert service.stats.executed == 1
        assert service.stats.inflight_joined == 1
        assert result_a[spec] == result_b[spec]
        assert result_a[spec].cycles > 0


# ----------------------------------------------------------------------
# The run table: one entry per spec hash, a summary or a pending future
# ----------------------------------------------------------------------
class TestRunTable:
    def test_run_finished_after_a_store_miss_is_a_memo_hit(self, tmp_path):
        """Job A's store read misses while job B executes and finishes
        the same spec; A's claim then finds B's summary in the table.
        The spec executes once and both requests are counted."""
        reading, finished = threading.Event(), threading.Event()

        class MissThenWait(ResultStore):
            """Its first read returns its miss only once B finished."""
            first = True

            def get(self, spec):
                summary = super().get(spec)
                if self.first:
                    self.first = False
                    reading.set()
                    assert finished.wait(timeout=30)
                return summary

        spec, stub = spec_n(1), StubExecute()
        service = ExperimentService(store=MissThenWait(tmp_path),
                                    parallel=False, execute_fn=stub)
        served = {}
        job_a = threading.Thread(
            target=lambda: served.update(a=service.run(spec)))
        job_a.start()
        assert reading.wait(timeout=30)
        served["b"] = within(30, service.run, spec)
        finished.set()
        job_a.join(timeout=30)
        assert not job_a.is_alive()
        assert served == {"a": summary_for(spec), "b": summary_for(spec)}
        assert len(stub.calls) == 1
        stats = service.stats
        assert (stats.executed, stats.memo_hits) == (1, 1)
        assert stats.requested == outcomes(stats) == 2

    def test_failed_run_fails_its_joiners_then_leaves_the_table(self):
        release = threading.Event()
        attempts = []

        def fails_first(spec):
            attempts.append(spec)
            assert release.wait(timeout=30)
            if len(attempts) == 1:
                raise SimulationError("boom")
            return summary_for(spec)

        spec = spec_n(1)
        with ExperimentService(parallel=False,
                               execute_fn=fails_first) as service:
            owner = service.submit([spec])
            wait_until(lambda: attempts)               # the run is in flight
            joiner = service.submit([spec])
            wait_until(lambda: service.stats.inflight_joined == 1)
            release.set()
            raised = []
            for job in (owner, joiner):
                with pytest.raises(ExperimentExecutionError) as excinfo:
                    job.result(timeout=30)
                [(failed, exc)] = excinfo.value.failures
                assert failed == spec
                raised.append(exc)
            assert raised[0] is raised[1]
            assert str(raised[0]) == "boom"
            assert in_flight(service) == []
            # a retry executes
            assert within(30, service.run, spec) == summary_for(spec)
        assert len(attempts) == 2
        assert (service.stats.failed, service.stats.executed) == (1, 1)
        assert service.stats.requested == outcomes(service.stats) == 3

    def test_concurrent_cold_requests_execute_each_spec_once(self):
        """Client threads share one fresh service and ask for random
        overlapping grids, so claims, joins and table reads race; each
        spec must execute once and every member be counted once."""
        specs = [spec_n(i) for i in range(16)]
        stub = StubExecute()
        service = ExperimentService(parallel=False, execute_fn=stub)
        nthreads, requests = 8, 40
        start = threading.Barrier(nthreads, timeout=30)
        asked, wrong, errors = set(), [], []

        def client(seed):
            rng = random.Random(seed)
            try:
                start.wait()
                for _ in range(requests):
                    grid = [rng.choice(specs)
                            for _ in range(rng.randint(1, 6))]
                    asked.update(spec.spec_hash() for spec in grid)
                    if rng.random() < 0.5:
                        result = service.submit(grid).result(timeout=30)
                    else:
                        result = service.run_experiment(grid)
                    wrong.extend(spec for spec in grid
                                 if result[spec] != summary_for(spec))
            except Exception as exc:               # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        within(30, service.close)
        assert not errors and not wrong
        assert sorted(s.spec_hash() for s in stub.calls) == sorted(asked)
        stats = service.stats
        assert stats.jobs == nthreads * requests
        assert stats.executed == len(asked) and stats.failed == 0
        assert stats.requested == outcomes(stats)
        assert in_flight(service) == []

    def test_a_job_thread_that_cannot_start_leaves_no_claim(self,
                                                            monkeypatch):
        def cannot_start(thread):
            raise RuntimeError("can't start new thread")

        spec = spec_n(1)
        with ExperimentService(parallel=False,
                               execute_fn=StubExecute()) as service:
            with monkeypatch.context() as patch:
                patch.setattr(threading.Thread, "start", cannot_start)
                with pytest.raises(RuntimeError):
                    service.submit([spec])
            assert in_flight(service) == []
            assert within(30, service.run, spec) == summary_for(spec)
        assert service.stats.requested == outcomes(service.stats) == 2


class TestBookkeepingLandsFirst:
    """A job is done only once the phase times and the counts of the
    runs it waited on have landed, however slowly they are recorded."""

    def test_phase_times_land_before_the_result(self, monkeypatch):
        note = JobHandle._note_phase

        def slow_note(job, name, seconds):
            time.sleep(0.05)
            note(job, name, seconds)

        monkeypatch.setattr(JobHandle, "_note_phase", slow_note)
        with ExperimentService(parallel=False,
                               execute_fn=StubExecute()) as service:
            job = service.submit([spec_n(1)])
            job.result(timeout=30)
            phases = set(job.metrics()["phases"])
        assert {"memo", "execute", "backfill"} <= phases

    def test_counts_land_before_the_result(self, monkeypatch):
        add = ServiceStats.add

        def slow_add(stats, **deltas):
            if "executed" in deltas:
                time.sleep(0.05)
            add(stats, **deltas)

        monkeypatch.setattr(ServiceStats, "add", slow_add)
        with ExperimentService(parallel=False,
                               execute_fn=StubExecute()) as service:
            service.submit([spec_n(1)]).result(timeout=30)
            executed = service.stats.executed
        assert executed == 1


# ----------------------------------------------------------------------
# Warm requests: memo and store hits are served on the caller's thread
# ----------------------------------------------------------------------
def stored(tmp_path, specs) -> None:
    """Put ``summary_for`` every spec into a store at ``tmp_path``."""
    store = ResultStore(tmp_path)
    for spec in specs:
        store.put(spec, summary_for(spec))


class TestWarmPath:
    def test_store_answered_submit_starts_no_thread(self, tmp_path,
                                                    monkeypatch):
        specs = [spec_n(i) for i in range(3)]
        stored(tmp_path, specs)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        with ExperimentService(store=ResultStore(tmp_path), parallel=False,
                               execute_fn=StubExecute()) as service:
            job = service.submit(specs)
            assert job.done()                      # before any wait
            assert started == []
            assert list(job.as_completed(timeout=1)) == \
                [summary_for(s) for s in specs]
            assert job.result(timeout=1).summaries() == \
                [summary_for(s) for s in specs]
        assert "submit" not in job.metrics()["phases"]
        assert (service.stats.store_hits, service.stats.executed) == (3, 0)

    def test_cached_member_streams_before_the_miss_runs(self, tmp_path):
        cached, missing = spec_n(1), spec_n(2)
        stored(tmp_path, [cached])
        release = threading.Event()

        def gated(spec):
            assert release.wait(timeout=30)
            return summary_for(spec)

        with ExperimentService(store=ResultStore(tmp_path), parallel=False,
                               execute_fn=gated) as service:
            job = service.submit([missing, cached])
            stream = job.as_completed(timeout=30)
            assert next(stream) == summary_for(cached)
            time.sleep(0.05)
            assert not job.done()                  # the miss is held
            release.set()
            assert list(stream) == [summary_for(missing)]
            assert job.result(timeout=30)[missing] == summary_for(missing)
        assert "submit" in job.metrics()["phases"]

    def test_concurrent_warm_submits_serve_the_stored_summaries(self,
                                                                tmp_path):
        """Client threads share one service and store, so lookups race
        on the memo and on both stats views; every request must be
        served the stored summary and counted exactly once."""
        specs = [spec_n(i) for i in range(12)]
        stored(tmp_path, specs)
        service = ExperimentService(store=ResultStore(tmp_path),
                                    parallel=False,
                                    execute_fn=StubExecute())
        nthreads, requests = 8, 200
        start = threading.Barrier(nthreads, timeout=30)
        wrong, errors = [], []

        def client(seed):
            rng = random.Random(seed)
            try:
                start.wait()
                for _ in range(requests):
                    grid = rng.sample(specs, rng.randint(1, 6))
                    result = service.submit(grid).result(timeout=30)
                    wrong.extend(spec for spec in grid
                                 if result[spec] != summary_for(spec))
            except Exception as exc:               # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not wrong
        stats = service.stats
        assert stats.jobs == nthreads * requests
        assert stats.requested == (stats.deduplicated + stats.memo_hits
                                   + stats.store_hits)
        assert stats.executed == 0 and stats.inflight_joined == 0
        assert service.store.stats.hits == stats.store_hits


# ----------------------------------------------------------------------
# ExperimentService job API
# ----------------------------------------------------------------------
class TestExperimentService:
    @pytest.mark.smoke
    def test_service_round_trip_smoke(self, tmp_path):
        """CI smoke gate: submit -> stream -> resubmit (memo) ->
        fresh service (store hits), numbers equal the batch Runner."""
        grid = ExperimentSpec.grid("svc-smoke", ["dense_mvm"],
                                   systems=("1p", "misp"), scale=0.05)
        with ExperimentService(store=ResultStore(tmp_path),
                               parallel=False) as service:
            streamed = list(service.submit(grid).as_completed(timeout=120))
            assert len(streamed) == 2
            result = service.submit(grid).result(timeout=120)
            assert service.stats.executed == 2         # second job all memo
            assert service.stats.memo_hits == 2
        baseline = Runner(parallel=False).run_many(grid.runs)
        assert result.summaries() == baseline

        fresh = ExperimentService(store=ResultStore(tmp_path),
                                  parallel=False)
        again = fresh.submit(grid).result(timeout=120)
        assert fresh.stats.executed == 0
        assert fresh.stats.store_hits == 2
        assert fresh.store.stats.hits == 2             # the metric line
        assert again.summaries() == baseline

    def test_streams_partial_results_before_grid_completes(self):
        gate = threading.Event()

        def gated(spec):
            if spec.system == "smp":
                assert gate.wait(timeout=30)
            return execute(spec)

        specs = [RunSpec(system="misp", config="1x4", **FAST),
                 RunSpec(system="smp", config="smp4", **FAST)]
        with ExperimentService(parallel=False,
                               execute_fn=gated) as service:
            job = service.submit(specs)
            stream = job.as_completed(timeout=120)
            first = next(stream)
            assert first.system == "misp"
            assert not job.done()                      # grid still running
            gate.set()
            rest = list(stream)
        assert len(rest) == 1 and rest[0].system == "smp"
        assert job.done()

    def test_close_waits_for_submitted_jobs(self, monkeypatch):
        """A job submitted before ``close`` finishes before it returns,
        and no worker pool outlives it, even when the job thread
        reaches the executor only after ``close`` was called."""
        before = set(multiprocessing.active_children())
        specs = [TINY, RunSpec("dense_mvm", "1p", scale=0.01)]
        service = ExperimentService(max_workers=2)
        run = service.backend.run

        def late_run(specs):
            time.sleep(0.3)
            return run(specs)

        monkeypatch.setattr(service.backend, "run", late_run)
        job = service.submit(specs)
        within(120, service.close)
        assert job.done()
        assert set(multiprocessing.active_children()) <= before
        assert [s.cycles for s in job.result(timeout=0).summaries()] == \
            [execute(s).cycles for s in specs]

    def test_failed_spec_surfaces_in_result(self):
        good = RunSpec(system="1p", **FAST)
        bad = RunSpec(system="misp", config="1x4", limit=10, **FAST)
        with ExperimentService(parallel=False) as service:
            job = service.submit([good, bad])
            streamed = list(job.as_completed(timeout=120))
            assert len(streamed) == 1                  # the good run
            with pytest.raises(ExperimentExecutionError) as excinfo:
                job.result(timeout=10)
        assert bad.describe() in str(excinfo.value)
        assert service.stats.failed == 1

    def test_streaming_figure4_matches_batch(self, tmp_path):
        from repro.analysis import run_figure4, run_figure4_streaming

        names = ["dense_mvm"]
        seen = []
        with ExperimentService(store=ResultStore(tmp_path),
                               parallel=False) as service:
            streamed = run_figure4_streaming(
                service, names, ams_count=3, scale=0.05,
                progress=lambda done, total, s: seen.append((done, total)))
        batch = run_figure4(names, ams_count=3, scale=0.05,
                            runner=Runner(parallel=False))
        assert streamed.rows == batch.rows
        assert seen == [(1, 3), (2, 3), (3, 3)]
