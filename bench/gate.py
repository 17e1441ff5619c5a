"""Correctness gate over the artifact set of one ``caserisk pipeline`` run.

Every check reads the files the pipeline wrote and the inputs the benchmark
generated; none of them calls into ``caserisk``, so a defect in the package
cannot hide itself from the gate.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from math import comb
from pathlib import Path

# The artifacts README lists for a pipeline run without indicator rules.
ARTIFACTS = (
    "corpus_clean.jsonl",
    "clusters.csv",
    "labels.csv",
    "bias_report.json",
    "bias_report.txt",
    "model.json",
    "feature_importance.csv",
    "fold_plan.json",
    "eval_report.json",
    "eval_report.txt",
    "roc.csv",
)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digest(out: Path) -> str:
    """sha256 over the name and content of every file in the artifact set."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(bytes.fromhex(file_sha256(path)))
    return digest.hexdigest()


def corpus_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def read_partition(path: Path) -> dict[str, str]:
    """document id -> cluster id from a ``cluster_id,document_id`` CSV.

    Raises ValueError when a document appears twice.
    """
    assignment: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["cluster_id", "document_id"]:
            raise ValueError(f"{path.name}: header is {reader.fieldnames}")
        for row in reader:
            doc = row["document_id"]
            if doc in assignment:
                raise ValueError(f"{path.name}: document {doc!r} appears twice")
            assignment[doc] = row["cluster_id"]
    return assignment


def adjusted_rand(a: dict[str, str], b: dict[str, str]) -> float:
    """Adjusted Rand index of two labelings of the same documents."""
    n = len(a)
    joint = Counter((a[d], b[d]) for d in a)
    sum_joint = sum(comb(c, 2) for c in joint.values())
    sum_a = sum(comb(c, 2) for c in Counter(a.values()).values())
    sum_b = sum(comb(c, 2) for c in Counter(b.values()).values())
    expected = sum_a * sum_b / comb(n, 2)
    top = (sum_a + sum_b) / 2
    if top == expected:
        return 1.0
    return (sum_joint - expected) / (top - expected)


def rank_auc(scores: list[tuple[float, str]]) -> float:
    """ROC AUC as the Mann-Whitney statistic, ties counting one half."""
    ordered = sorted(scores, key=lambda row: row[0])
    n_pos = sum(1 for _, label in ordered if label == "positive")
    n_neg = len(ordered) - n_pos
    rank_sum = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            j += 1
        mid_rank = (i + 1 + j) / 2
        rank_sum += mid_rank * sum(1 for _, label in ordered[i:j] if label == "positive")
        i = j
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    duplicates = sorted(k for k, c in Counter(keys).items() if c > 1)
    if duplicates:
        raise ValueError(f"duplicate JSON keys {duplicates[:3]}")
    return dict(pairs)


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def check(
    out: Path,
    inputs: Path,
    auc_floor: float,
    ari_floor: float,
) -> tuple[list[str], dict[str, float]]:
    """Check one artifact set against the inputs it was computed from.

    Returns the failed checks (empty when the gate passes) and the quality
    figures ``pooled_auc`` and ``cluster_ari`` that could be read.
    """
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], {}
    try:
        return _check_contents(out, inputs, auc_floor, ari_floor)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"], {}


def _check_contents(out, inputs, auc_floor, ari_floor):
    failures: list[str] = []
    quality: dict[str, float] = {}
    input_ids = set(corpus_ids(inputs / "corpus.jsonl"))
    if set(corpus_ids(out / "corpus_clean.jsonl")) != input_ids:
        failures.append("corpus_clean.jsonl does not hold exactly the input documents")

    clusters = read_partition(out / "clusters.csv")
    if set(clusters) != input_ids:
        failures.append("clusters.csv is not a partition of the ingested ids")
    members: dict[str, list[str]] = {}
    for doc, cid in clusters.items():
        members.setdefault(cid, []).append(doc)
    if any(cid != min(docs) for cid, docs in members.items()):
        failures.append("clusters.csv: a cluster id is not its smallest member id")
    truth = read_partition(inputs / "clusters_true.csv")
    if set(truth) == set(clusters):
        quality["cluster_ari"] = adjusted_rand(truth, clusters)
        if quality["cluster_ari"] < ari_floor:
            failures.append(f"cluster_ari {quality['cluster_ari']:.6f} is below {ari_floor}")

    with open(out / "labels.csv", encoding="utf-8", newline="") as fh:
        label_rows = list(csv.DictReader(fh))
    labels = {row["cluster_id"]: row["label"] for row in label_rows}
    if len(labels) != len(label_rows):
        failures.append("labels.csv holds a duplicate cluster id")
    if not set(labels) <= set(members):
        failures.append("labels.csv names a cluster that clusters.csv lacks")
    if not set(labels.values()) <= {"positive", "negative"}:
        failures.append("labels.csv holds a label other than positive or negative")

    plan = _load_json(out / "fold_plan.json")
    folds = plan["assignment"]
    if set(folds) != set(labels) or any(
        not isinstance(f, int) or not 0 <= f < plan["k"] for f in folds.values()
    ):
        failures.append("fold_plan.json does not put each labeled cluster in exactly one fold")

    with open(inputs / "domains.txt", encoding="utf-8") as fh:
        lexicon = {line.strip().lower() for line in fh if line.strip()}
    vocabulary = _load_json(out / "model.json")["vocabulary"]["index"]
    leaked = sorted({tok for gram in vocabulary for tok in gram.split()} & lexicon)
    if leaked:
        failures.append(f"model.json vocabulary holds removed tokens {leaked}")

    report = _load_json(out / "eval_report.json")
    quality["pooled_auc"] = float(report["auc"])
    scores = report["scores"]
    if sorted(row[0] for row in scores) != sorted(labels):
        failures.append("eval_report.json does not score each labeled cluster exactly once")
    elif abs(rank_auc([(row[1], labels[row[0]]) for row in scores]) - quality["pooled_auc"]) > 1e-9:
        failures.append("eval_report.json auc does not match its pooled scores")
    if quality["pooled_auc"] < auc_floor:
        failures.append(f"pooled_auc {quality['pooled_auc']:.6f} is below {auc_floor}")
    return failures, quality
