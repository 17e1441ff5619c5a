"""End-to-end and per-layer benchmark of ``caserisk pipeline``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--docs N]

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src``.  For one workload the run:

1. generates the inputs with ``caserisk.synth`` from ``--seed`` (several
   times, to time set-up, checking that each copy is byte-identical);
2. runs ``caserisk pipeline`` on them in a fresh interpreter
   (``pipeline_child.py``), back to back, one process at a time, until
   ``--seconds`` have passed and at least five runs are done;
3. checks every run's artifacts with ``gate.check`` and compares their
   digests with each other and with earlier runs on the same source tree,
   inputs and pipeline config;
4. prints the metrics one per line, a provenance line, and last a JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` every pipeline run is untraced and the end-to-end
metrics are reported.  With ``--trace 1`` the runs cycle untraced, traced,
traced, and the per-layer metrics are reported: the median of each time
over the traced runs, counts that must repeat exactly across them, and the
tracing overhead (traced minus untraced ``pipeline_s``).

Workload inputs are cut to a fixed document count, so that every seed gives
the workload's stated size.  ``scale-100k`` is the ROADMAP's criterion-8
run, uncut, and is run by hand: one pipeline run takes about 100 s on a
2-core machine, and ``BENCHMARK.json`` needs about a minute per run for 48
runs.  ``--docs`` shrinks a workload for the benchmark's own tests.

Work files go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
MIN_REPS = 5
# A pipeline run starts only if it should end, judged by the last one,
# this many seconds after the benchmark started.
DEADLINE_S = 170.0
# A pipeline run that takes longer than this is stopped and counts as failed.
HANG_S = 900.0
# BLAS threads in the measuring process: one client on a 2-core machine.
BLAS_THREADS = 1

BASE_PIPELINE = (
    "sampling.mode = conditioned",
    "model.min_df = 2",
    "eval.folds = 5",
    "seed = 7",
)


@dataclass(frozen=True)
class Workload:
    synth: dict  # SynthConfig keywords besides num_clusters and seed
    docs: int | None  # documents kept; None keeps num_clusters clusters whole
    pipeline: tuple[str, ...]  # pipeline config lines besides the paths
    auc_floor: float
    ari_floor: float
    num_clusters: int | None = None
    gazetteer: bool = False


WORKLOADS = {
    # Graph-heavy.  A small vocabulary and duplicated texts make dense
    # rare-shingle blocks, and consensus, refine and the location-date
    # signal all run.  positive_fraction is 0.1, not the 0.03 of the
    # 48k-document version: at 10k documents 0.03 labels only ~60 clusters
    # and pooled AUC swings from 0.97 to 1.0 between seeds.
    "link-heavy": Workload(
        synth=dict(positive_fraction=0.1, domain_skew=1.0, vocab_size=800, duplication_rate=0.3),
        docs=10000,
        pipeline=BASE_PIPELINE
        + (
            "clustering.use_location_date = true",
            "clustering.consensus_runs = 3",
            "clustering.refine_passes = 2",
        ),
        auc_floor=0.97,
        ari_floor=0.99,
        gazetteer=True,
    ),
    # Model-heavy.  Most clusters labeled, unigrams plus bigrams and ten
    # folds, so model and evaluate take most of the time; the graph uses
    # phones only, so graph changes should not move it.
    "label-heavy": Workload(
        synth=dict(positive_fraction=0.4, domain_skew=0.5, vocab_size=5000),
        docs=3000,
        pipeline=BASE_PIPELINE
        + ("clustering.use_text = false", "model.orders = 1,2", "eval.folds = 10"),
        auc_floor=0.98,
        ari_floor=0.999,
    ),
    # The ROADMAP's criterion-8 run, uncut (100,328 documents at seed 5).
    "scale-100k": Workload(
        synth=dict(positive_fraction=0.25, domain_skew=1.0, vocab_size=5000, doc_tokens=30),
        docs=None,
        num_clusters=12500,
        pipeline=BASE_PIPELINE,
        auc_floor=0.99,
        ari_floor=0.999,
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "pipeline_s": ("s", "lower", 0.25),
    "docs_per_s": ("docs/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "pooled_auc": ("1", "higher", 0.01),
    "cluster_ari": ("1", "higher", 0.005),
    "run_success_ratio": ("1", "higher", 0.1),
}

# name -> unit; per-layer metrics carry no bound.  "s" is inclusive wall
# time over all calls (median over traced runs); every other unit is an
# exact count that must repeat across traced runs.
PER_LAYER = {
    "cli.ingest_s": "s",
    "cli.cluster_s": "s",
    "cli.sample_s": "s",
    "cli.diagnose_s": "s",
    "cli.train_s": "s",
    "cli.evaluate_s": "s",
    "cli.process_cpu_s": "s",
    "corpus.ingest_s": "s",
    "corpus.ingest_docs": "count",
    "corpus.ingest_skipped": "count",
    "corpus.write_corpus_s": "s",
    "corpus.remove_tokens_s": "s",
    "corpus.remove_tokens_calls": "count",
    "clustering.build_graph_s": "s",
    "clustering.shingles_calls": "count",
    "clustering.shingles_per_doc": "calls/doc",
    "clustering.edges": "count",
    "clustering.edges_phone": "count",
    "clustering.edges_text": "count",
    "clustering.edges_location_date": "count",
    "clustering.kwikcluster_s": "s",
    "clustering.kwikcluster_calls": "count",
    "clustering.consensus_s": "s",
    "clustering.refine_s": "s",
    "clustering.disagreement_cost_s": "s",
    "clustering.clusters": "count",
    "clustering.disagreement_cost": "count",
    "sampling.read_labels_s": "s",
    "sampling.conditioned_negatives_s": "s",
    "sampling.deficit": "count",
    "bias.audit_s": "s",
    "bias.audit_calls": "count",
    "model.build_vocabulary_s": "s",
    "model.build_vocabulary_calls": "count",
    "model.vectorize_cluster_s": "s",
    "model.vectorize_cluster_calls": "count",
    "model.vectorize_document_calls": "count",
    "model.tokenizations_per_labeled_doc": "calls/doc",
    "model.train_s": "s",
    "model.train_calls": "count",
    "model.solver_epochs": "count",
    "model.vocab_size": "count",
    "evaluate.make_folds_s": "s",
    "evaluate.fold_attempts": "count",
    "evaluate.cross_validate_s": "s",
    "evaluate.cross_validate_self_s": "s",
    "synth.generate_s": "s",
    "synth.write_artifacts_s": "s",
    "trace.overhead_s": "s",
}


def tree_sha256(root: Path) -> str:
    """Digest of the source tree, standing in for a commit id."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def git_sha() -> str | None:
    # A checkout that is not a repository of its own may sit inside another.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def prepare_inputs(workload: Workload, seed: int, docs: int | None, inputs: Path) -> dict:
    """Generate the workload's inputs into ``inputs`` and time the set-up.

    Returns the generated document count, the sha256 of corpus.jsonl and
    the seconds spent in ``synth.generate`` and ``synth.write_artifacts``.
    """
    from caserisk import synth
    from caserisk.clustering import Clustering
    from caserisk.corpus import Corpus

    if docs is None:
        num_clusters = workload.num_clusters
    else:
        # Mean planted cluster size is about 8, so docs / 7 clusters leave a
        # margin of several standard deviations before the cut.
        num_clusters = docs // 7 + 20
    config = synth.SynthConfig(num_clusters=num_clusters, seed=seed, **workload.synth)

    start = time.perf_counter()
    result = synth.generate(config)
    generate_s = time.perf_counter() - start
    if docs is not None:
        if len(result.corpus) < docs:
            raise RuntimeError(f"seed {seed} gave {len(result.corpus)} documents, fewer than {docs}")
        kept = result.corpus.documents[:docs]
        kept_ids = {d.id for d in kept}
        member_sets = [
            c.members & kept_ids for c in result.clustering if c.members & kept_ids
        ]
        clustering = Clustering.from_member_sets(member_sets)
        result = synth.SynthResult(
            corpus=Corpus(kept),
            clustering=clustering,
            labels={c.id: result.labels[c.id] for c in clustering},
            config=config,
        )
    start = time.perf_counter()
    paths = synth.write_artifacts(result, inputs)
    write_s = time.perf_counter() - start
    return {
        "docs": len(result.corpus),
        "corpus_sha256": hashlib.sha256(paths["corpus"].read_bytes()).hexdigest(),
        "generate_s": generate_s,
        "write_artifacts_s": write_s,
    }


def write_pipeline_config(workload: Workload, inputs: Path) -> Path:
    lines = [
        f"paths.corpus = {inputs / 'corpus.jsonl'}",
        f"paths.labels = {inputs / 'labels_expert.csv'}",
        f"paths.remove_lexicon = {inputs / 'domains.txt'}",
    ]
    if workload.gazetteer:
        lines.append(f"paths.gazetteer = {inputs / 'gazetteer.txt'}")
    path = inputs / "pipeline.conf"
    path.write_text("\n".join(lines + list(workload.pipeline)) + "\n", encoding="utf-8")
    return path


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Each run gets its own hash seed, so the digest comparison also proves
    # that artifacts do not depend on set and dict iteration order.
    env["PYTHONHASHSEED"] = str(hash_seed)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pipeline(conf: Path, rep_dir: Path, traced: bool, hash_seed: int, timeout: float) -> dict:
    """One ``caserisk pipeline`` run in a fresh interpreter.

    Returns the child's result record, or a record with ``error`` set.
    """
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "pipeline_child.py"),
        "--src", str(SRC),
        "--config", str(conf),
        "--out", str(rep_dir / "out"),
        "--result", str(result_path),
    ]
    if traced:
        cmd += ["--trace", str(rep_dir / "spans.json")]
    with open(rep_dir / "log.txt", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(hash_seed), timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"exit code {proc.returncode}; see {rep_dir / 'log.txt'}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_digest(cache_key: str, digest: str) -> bool:
    """Record the digest for this key; False if an earlier run recorded another."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    if known.setdefault(cache_key, digest) != digest:
        return False
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return True


def measure(workload, inputs, conf, run_dir, pattern, seconds, began, cache_key) -> list[dict]:
    """Run the pipeline back to back and gate each run's artifacts.

    Runs follow ``pattern`` (traced or not) cyclically.  The first
    ``len(pattern)`` always run; more run until ``MIN_REPS`` are done and
    ``seconds`` have passed, while the deadline allows.
    """
    reps: list[dict] = []
    start = time.perf_counter()
    while len(reps) < len(pattern) or (
        (len(reps) < MIN_REPS or time.perf_counter() - start < seconds)
        and time.perf_counter() - began + 1.3 * reps[-1]["wall_s"] < DEADLINE_S
    ):
        rep_dir = run_dir / f"rep{len(reps)}"
        traced = pattern[len(reps) % len(pattern)]
        rep_start = time.perf_counter()
        rep = run_pipeline(conf, rep_dir, traced, len(reps) + 1, HANG_S)
        rep["traced"] = traced
        if "error" not in rep:
            failures, quality = gate.check(
                rep_dir / "out", inputs, workload.auc_floor, workload.ari_floor
            )
            rep.update(quality)
            rep["digest"] = gate.artifact_digest(rep_dir / "out")
            if not check_digest(cache_key, rep["digest"]):
                failures.append("artifact digest differs from an earlier run on the same source, inputs and config")
            if failures:
                rep["error"] = "; ".join(failures)
        rep["wall_s"] = time.perf_counter() - rep_start
        reps.append(rep)
    return reps


def provenance(args, setup: dict, src_sha: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "docs": setup["docs"],
        "corpus_sha256": setup["corpus_sha256"],
        "git_sha": git_sha(),
        "src_sha256": src_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def median(values):
    return statistics.median(values) if values else None


def e2e_metrics(setups, untraced, import_s, success_ratio) -> dict:
    pipeline_s = median([r["pipeline_s"] for r in untraced])
    docs = setups[0]["docs"]
    setup_s = median([s["generate_s"] + s["write_artifacts_s"] for s in setups]) + import_s
    return {
        "pipeline_s": pipeline_s,
        "docs_per_s": docs / pipeline_s if pipeline_s else None,
        "peak_rss_mb": median([r["maxrss_kb"] / 1024 for r in untraced]),
        "setup_s": setup_s,
        "pooled_auc": untraced[0]["pooled_auc"] if untraced else None,
        "cluster_ari": untraced[0]["cluster_ari"] if untraced else None,
        "run_success_ratio": success_ratio,
    }


def layer_metrics(setups, untraced, traced) -> tuple[dict, list[str]]:
    problems = []
    metrics: dict = {}
    for name, unit in PER_LAYER.items():
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if unit == "s":
            metrics[name] = median(values)
        elif values:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs across traced runs: {values}")
    metrics["cli.process_cpu_s"] = median([r["cpu_s"] for r in traced])
    metrics["synth.generate_s"] = median([s["generate_s"] for s in setups])
    metrics["synth.write_artifacts_s"] = median([s["write_artifacts_s"] for s in setups])
    if traced and untraced:
        metrics["trace.overhead_s"] = median([r["pipeline_s"] for r in traced]) - median(
            [r["pipeline_s"] for r in untraced]
        )
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark caserisk pipeline on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="synth seed for the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting pipeline runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--docs", type=int, help="document count in place of the workload's own")
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "caserisk" / "__init__.py").is_file():
        print(f"no caserisk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    docs = args.docs if args.docs is not None else workload.docs
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    problems: list[str] = []

    setups = [prepare_inputs(workload, args.seed, docs, inputs) for _ in range(SETUP_REPS)]
    if len({s["corpus_sha256"] for s in setups}) != 1:
        problems.append("synth gave different corpora for one seed")
    conf = write_pipeline_config(workload, inputs)
    src_sha = tree_sha256(SRC)
    # Same source, inputs and pipeline config: the artifacts must not change.
    cache_key = hashlib.sha256(
        f"{src_sha}:{setups[0]['corpus_sha256']}:{conf.read_text(encoding='utf-8')}".encode()
    ).hexdigest()

    pattern = (False, True, True) if args.trace else (False,)
    reps = measure(workload, inputs, conf, run_dir, pattern, args.seconds, began, cache_key)

    passed = [r for r in reps if "error" not in r]
    problems += [f"run {i}: {r['error']}" for i, r in enumerate(reps) if "error" in r]
    imports = median([r["import_s"] for r in reps if "import_s" in r]) or 0.0
    untraced = [r for r in passed if not r["traced"]]
    traced_reps = [r for r in passed if r["traced"]]

    if args.trace:
        metrics, count_problems = layer_metrics(setups, untraced, traced_reps)
        problems += count_problems
        units = PER_LAYER
    else:
        metrics = e2e_metrics(setups, untraced, imports, len(passed) / len(reps))
        units = {name: spec[0] for name, spec in END_TO_END.items()}

    correct = not problems
    for problem in problems:
        print(f"FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name}: {metrics.get(name)} {unit}")
    details = {
        "provenance": provenance(args, setups[0], src_sha),
        "runs": len(reps),
        "traced_runs": len(traced_reps),
        "problems": problems,
    }
    print(json.dumps(details, sort_keys=True))
    (run_dir / "summary.json").write_text(
        json.dumps({**details, "metrics": metrics, "reps": reps}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": len(reps) - len(passed),
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
