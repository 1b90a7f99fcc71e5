"""Self-test of the benchmark: every workload at miniature size.

Checks the contract ``bench/run.py`` keeps with ``BENCHMARK.json``:
every metric is reported with its unit, outputs match the golden
digests, a wrong digest fails the run, and the seed reorders inputs
without changing any output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402

with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def scratch_results(tmp_path, monkeypatch):
    """Run the miniature inputs, and keep stores, exports and the
    Chrome trace out of the tree."""
    monkeypatch.setitem(suite.SIZES, "full", suite.SIZES["mini"])
    monkeypatch.setattr(suite, "RESULTS", tmp_path / "results")
    return tmp_path / "results"


def bench(capsys, *argv) -> tuple[int, dict]:
    status = run.main(["--seconds", "0", *argv])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_reported(capsys, monkeypatch, workload):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    status, result = bench(capsys, "--workload", workload)
    assert status == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(capsys, scratch_results, workload):
    status, result = bench(capsys, "--workload", workload, "--trace", "1")
    assert status == 0 and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: metric["unit"] for name, metric in metrics.items()}
    shares = [metrics[f"{layer}.self_share"]["value"]
              for layer in ledger.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    trace = json.loads((scratch_results / "trace.json").read_text())
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert slices and {e["pid"] for e in slices} == {
        run.WORKLOADS.index(workload) + 1}


def test_tampered_golden_entry_fails_the_run(capsys, tmp_path, monkeypatch):
    golden = json.loads(suite.GOLDEN.read_text())
    key = next(k for k in golden if k.startswith("dense_mvm@0.01/misp"))
    golden[key] = "0" * 64
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden))
    monkeypatch.setattr(suite, "GOLDEN", tampered)
    status, result = bench(capsys, "--workload", "fig4_execute",
                           "--trace", "1")
    assert status != 0
    assert not result["correct"] and result["failed"] > 0


def test_seed_reorders_inputs_but_not_outputs():
    digests = []
    for seed in (0, 1):
        golden = suite.Golden({}, record=True)
        meter = suite.Meter(golden, suite.ReferenceKernel()).measure(
            suite.build("fig4_execute", seed))
        assert meter.failed == 0
        digests.append(golden.expected)
    assert digests[0] == digests[1]
    orders = [[key for _, key in suite.build("fig4_execute", seed).runs]
              for seed in (0, 1)]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])


def test_refuses_to_run_without_the_simulator(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "fig4_execute"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def write_records(path: Path, scale: float, cpu: str = "cpu") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seed in range(5):
            metrics = {m["name"]: {"value": scale * (1 + seed / 100),
                                   "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            fh.write(json.dumps({
                "workload": "fig4_execute", "seed": seed, "trace": 0,
                "git_sha": "0" * 40, "metrics": metrics,
                "fingerprint": {"python": "3", "nproc": 2, "cpu": cpu},
            }) + "\n")


def test_compare_flags_regressions_and_refuses_other_machines(tmp_path,
                                                              capsys):
    base, slower, elsewhere = (tmp_path / name
                               for name in ("a", "b", "c"))
    write_records(base, 1.0)
    write_records(slower, 1.5)
    write_records(elsewhere, 1.0, cpu="another cpu")
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(slower)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([str(base), str(elsewhere)]) == 2
