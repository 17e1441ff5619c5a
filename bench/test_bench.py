"""Tests of the benchmark itself: tiny runs of every workload and the gate.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402

# Small enough to take seconds, large enough that every fold holds both
# classes and the graph uses blocking rather than all pairs.
TINY_DOCS = {"link-heavy": 1500, "label-heavy": 1200, "scale-100k": 1200}


def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_run_py():
    spec = _bench_json()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS) == set(TINY_DOCS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY_DOCS))
def test_tiny_run_prints_every_metric_and_passes_the_gate(workload, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--docs", str(TINY_DOCS[workload]),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    spec = _bench_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)), m["name"]
        assert f"{m['name']}: {metric['value']} {m['unit']}" in lines
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["docs"] == TINY_DOCS[workload]
    assert provenance["blas_threads"] == run.BLAS_THREADS


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale-100k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Inputs and the artifact set of one tiny scale-100k pipeline run."""
    base = tmp_path_factory.mktemp("gate")
    workload = run.WORKLOADS["scale-100k"]
    inputs = base / "inputs"
    run.prepare_inputs(workload, 4, TINY_DOCS["scale-100k"], inputs)
    conf = run.write_pipeline_config(workload, inputs)
    rep = run.run_pipeline(conf, base / "rep", traced=False, hash_seed=1, timeout=120)
    assert "error" not in rep, rep
    return inputs, base / "rep" / "out"


def _corrupt_copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def _duplicate_label_row(out: Path) -> None:
    lines = (out / "labels.csv").read_text(encoding="utf-8").splitlines()
    lines.append(lines[-1].replace(",expert", ",sampled"))
    (out / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_clustered_document(out: Path) -> None:
    lines = (out / "clusters.csv").read_text(encoding="utf-8").splitlines()
    (out / "clusters.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _leak_lexicon_token(out: Path) -> None:
    blob = json.loads((out / "model.json").read_text(encoding="utf-8"))
    blob["vocabulary"]["index"]["sitealpha"] = len(blob["vocabulary"]["index"])
    (out / "model.json").write_text(json.dumps(blob), encoding="utf-8")


def _unfold_a_cluster(out: Path) -> None:
    blob = json.loads((out / "fold_plan.json").read_text(encoding="utf-8"))
    blob["assignment"].popitem()
    (out / "fold_plan.json").write_text(json.dumps(blob), encoding="utf-8")


def _drop_an_artifact(out: Path) -> None:
    (out / "roc.csv").unlink()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_duplicate_label_row, "duplicate cluster id"),
        (_drop_clustered_document, "not a partition"),
        (_leak_lexicon_token, "removed tokens"),
        (_unfold_a_cluster, "exactly one fold"),
        (_drop_an_artifact, "missing artifacts"),
    ],
)
def test_gate_fails_a_corrupted_artifact(artifacts, tmp_path, corrupt, message):
    inputs, out = artifacts
    assert gate.check(out, inputs, 0.99, 0.999)[0] == []
    copy = _corrupt_copy(out, tmp_path)
    corrupt(copy)
    failures, _ = gate.check(copy, inputs, 0.99, 0.999)
    assert any(message in f for f in failures), failures
    assert gate.artifact_digest(copy) != gate.artifact_digest(out)


def test_gate_fails_quality_below_its_floor(artifacts):
    inputs, out = artifacts
    failures, quality = gate.check(out, inputs, auc_floor=1.01, ari_floor=1.01)
    assert any("pooled_auc" in f for f in failures)
    assert any("cluster_ari" in f for f in failures)
    assert 0.99 <= quality["pooled_auc"] <= 1.0
