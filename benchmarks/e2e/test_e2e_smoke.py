"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside tier-1's ``testpaths``.  Runs the whole set at 1/20 of its
counts with every correctness gate on (no timing is judged), then checks
the trace of every workload and the benchmark's own declaration.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import trace as tracing  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text()), out


def test_every_workload_passes_its_gates(smoke):
    payload, _ = smoke
    assert list(payload["workloads"]) == list(run.WORKLOAD_NAMES)
    for name, result in payload["workloads"].items():
        assert result["correct"], result["problems"]
        assert result["failed_share"] == 0, name
        assert set(result["metrics"]) >= set(run.END_TO_END), name
        assert all(value > 0 for value in result["metrics"].values()), name


def test_trace_round_trip(smoke):
    payload, _ = smoke
    for name, result in payload["workloads"].items():
        records = tracing.read_jsonl(run.OUT_DIR / f"trace-{name}.jsonl")
        ids = {record["id"] for record in records}
        roots = [record for record in records if record["parent"] == -1]
        assert len(roots) == 1, name
        assert all(record["parent"] in ids for record in records if record["parent"] != -1), name
        assert all(own >= 0 for _, own in tracing.self_times(records).values()), name
        shares = tracing.layer_shares(records)
        assert sum(shares.values()) <= 1.0 + 1e-9, name
        assert sum(v for layer, v in shares.items() if layer != tracing.DRIVER) >= 0.9, name
        assert result["per_layer"]["trace.spans"] == len(records), name


def test_layers_are_where_the_readme_says(smoke):
    layers = {name: r["per_layer"] for name, r in smoke[0]["workloads"].items()}
    for name, metrics in layers.items():
        assert (metrics["net.frames"] > 0) == (name == "tpcc-served"), name
        assert (metrics["durability.wal_records"] > 0) == (name == "tpcc-durable"), name
        assert (metrics["study.cells"] > 0) == (name == "corpus-study"), name
        assert (metrics["hunt.rounds"] > 0) == (name == "hunt-campaign"), name
    assert layers["tpcc-prepared"]["share.sqlengine.frontend"] < 0.02
    assert layers["tpcc-literal"]["share.sqlengine.frontend"] > 0.3


def test_compare_accepts_a_set_against_itself_and_sees_a_regression(smoke):
    payload, out = smoke
    assert compare.main([str(out), str(out)]) == 0
    slower = json.loads(json.dumps(payload))
    slower["workloads"]["tpcc-prepared"]["metrics"]["throughput_ops_s"] *= 0.7
    slower["workloads"]["hunt-campaign"]["failed_share"] = 0.01
    _, failures = compare.compare(payload, slower)
    assert any("throughput_ops_s regressed" in failure for failure in failures)
    assert any("failed_share rose" in failure for failure in failures)


def test_benchmark_json_declares_what_run_py_prints(smoke):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == run.END_TO_END
    printed = smoke[0]["workloads"]["tpcc-prepared"]["per_layer"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: tracing.per_layer_unit(name) for name in printed
    }
