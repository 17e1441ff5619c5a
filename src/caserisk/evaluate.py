"""Leakage-free evaluation.

Splits and cross-validation folds are assigned at cluster granularity so
no document ever straddles a train/test boundary.  Folds are assigned in
one pass, largest clusters first, balancing per-class cluster counts and
the documents of each (class x feature-group) cell; their document-level
feature distributions are then checked once for homogeneity with
chi-squared tests, and a rejection is reported, not retried.  The headline
metric is pooled ROC AUC computed by the midrank method with ties counted
as half.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from typing import ClassVar, Optional, Sequence

import numpy as np

from .bias import (
    NEGATIVE,
    POSITIVE,
    BiasReport,
    FeatureSpec,
    TestResult,
    chi_squared_test,
    group_counts,
    group_table,
)
from .corpus import Corpus, write_json
from .errors import (
    DegenerateTableError,
    EmptyInputError,
    InputError,
    UndefinedMetricError,
    UnsplittableError,
)
from .model import ClusterTerms, TrainConfig, row_view, train
from .sampling import LabeledCluster, majority_group


def split(
    labeled: Sequence[LabeledCluster],
    test_fraction: float,
    seed: int,
) -> tuple[list[LabeledCluster], list[LabeledCluster]]:
    """Class-stratified random split at cluster granularity."""
    if not 0.0 < test_fraction < 1.0:
        raise InputError("test_fraction must be in (0, 1)")
    by_class: dict[str, list[LabeledCluster]] = defaultdict(list)
    for lc in labeled:
        by_class[lc.label].append(lc)
    if set(by_class) != {POSITIVE, NEGATIVE}:
        raise UnsplittableError("both classes are required")
    rng = Random(seed)
    train_side: list[LabeledCluster] = []
    test_side: list[LabeledCluster] = []
    for label in (POSITIVE, NEGATIVE):
        group = sorted(by_class[label], key=lambda lc: lc.cluster.id)
        if len(group) < 2:
            raise UnsplittableError(f"class {label!r} has fewer than 2 clusters")
        rng.shuffle(group)
        n_test = min(len(group) - 1, max(1, round(test_fraction * len(group))))
        test_side.extend(group[:n_test])
        train_side.extend(group[n_test:])
    train_side.sort(key=lambda lc: lc.cluster.id)
    test_side.sort(key=lambda lc: lc.cluster.id)
    return train_side, test_side


@dataclass
class FoldPlan:
    """Cluster-level fold assignment with its homogeneity test results."""

    k: int
    assignment: dict[str, int]  # cluster id -> fold index
    conditioned_features: tuple[str, ...]
    homogeneity: dict[str, TestResult]  # "feature/class" -> result
    warnings: tuple[str, ...] = ()
    # Always 1: make_folds assigns once.  A class constant, not a field and
    # not serialized; bench/tracer.py still reads it.
    attempts: ClassVar[int] = 1

    def flagged(self) -> list[str]:
        return sorted(k for k, r in self.homogeneity.items() if r.rejected)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "conditioned_features": list(self.conditioned_features),
            "warnings": list(self.warnings),
            "assignment": dict(sorted(self.assignment.items())),
            "homogeneity": {
                key: asdict(r) for key, r in sorted(self.homogeneity.items())
            },
        }


def _assign_folds(
    labeled: Sequence[LabeledCluster], cells: Sequence[tuple], k: int, seed: int
) -> dict[str, int]:
    """Largest clusters first, each into a fold with the fewest clusters
    of its class; among those, the one with the fewest documents of its
    (class, groups) cell, then of its class, then the lowest index.

    Per-class cluster counts stay within one of each other.  Clusters of
    equal size go in an order keyed from ``seed`` and the cluster ids, so
    the order of ``labeled`` does not matter.
    """
    order = sorted(range(len(labeled)), key=lambda i: labeled[i].cluster.id)
    Random(seed).shuffle(order)
    order.sort(key=lambda i: -labeled[i].cluster.size())  # stable: keeps the tie order
    clusters: dict[str, list[int]] = defaultdict(lambda: [0] * k)  # class -> per fold
    class_docs: dict[str, list[int]] = defaultdict(lambda: [0] * k)
    cell_docs: dict[tuple, list[int]] = defaultdict(lambda: [0] * k)
    assignment: dict[str, int] = {}
    for i in order:
        lc = labeled[i]
        n_clusters, n_class, n_cell = clusters[lc.label], class_docs[lc.label], cell_docs[cells[i]]
        fewest = min(n_clusters)
        fold = min(
            (f for f in range(k) if n_clusters[f] == fewest),
            key=lambda f: (n_cell[f], n_class[f], f),
        )
        assignment[lc.cluster.id] = fold
        n_clusters[fold] += 1
        n_class[fold] += lc.cluster.size()
        n_cell[fold] += lc.cluster.size()
    return assignment


def _homogeneity_tests(
    labeled: Sequence[LabeledCluster],
    cluster_counts: Sequence[Sequence[Counter]],
    assignment: dict[str, int],
    k: int,
    features: Sequence[FeatureSpec],
    alpha: float,
) -> dict[str, TestResult]:
    """Chi-squared tests of document-level feature group x fold, per class.

    ``cluster_counts[f][i]`` is ``group_counts`` of ``labeled[i]`` and
    ``features[f]``.  A feature constant within a class is trivially
    homogeneous.
    """
    folds = [f"fold{i}" for i in range(k)]
    columns = [folds[assignment[lc.cluster.id]] for lc in labeled]
    by_class = {
        label: [i for i, lc in enumerate(labeled) if lc.label == label] for label in (POSITIVE, NEGATIVE)
    }
    results: dict[str, TestResult] = {}
    for feature, per_cluster in zip(features, cluster_counts):
        for label, members in by_class.items():
            key = f"{feature.name}/{label}"
            try:
                table = group_table([per_cluster[i] for i in members], [columns[i] for i in members], folds)
                results[key] = chi_squared_test(table, alpha)
            except DegenerateTableError:
                results[key] = TestResult(0.0, 1, 1.0, alpha, False)
    return results


def make_folds(
    corpus: Corpus,
    labeled: Sequence[LabeledCluster],
    k: int,
    features: Sequence[FeatureSpec] = (),
    alpha: float = 0.05,
    seed: int = 0,
) -> FoldPlan:
    """Stratified, bias-conditioned cross-validation folds.

    Assigns clusters once, balancing per-class cluster counts and the
    document mass of each (class, feature-groups) cell across folds
    (``_assign_folds``), then tests each feature's document-level
    homogeneity across folds once.  A rejected test is reported in the
    plan, not retried: ``flagged()`` names it.
    """
    if k < 2:
        raise InputError("k must be >= 2")
    per_class = Counter(lc.label for lc in labeled)
    if per_class.get(POSITIVE, 0) < k or per_class.get(NEGATIVE, 0) < k:
        raise InputError(f"need at least k={k} clusters of each class")
    ids = [lc.cluster.id for lc in labeled]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate cluster ids in labeled set")

    cluster_counts = [[group_counts(lc.cluster, corpus, f) for lc in labeled] for f in features]
    cells = [
        (lc.label,) + tuple(majority_group(c[i]) for c in cluster_counts)
        for i, lc in enumerate(labeled)
    ]
    warnings = [
        f"cell {'|'.join(cell)} has {n} clusters (< {k}); class-level balance only"
        for cell, n in sorted(Counter(cells).items())
        if n < k
    ]
    assignment = _assign_folds(labeled, cells, k, seed)
    return FoldPlan(
        k=k,
        assignment=assignment,
        conditioned_features=tuple(f.name for f in features),
        homogeneity=_homogeneity_tests(labeled, cluster_counts, assignment, k, features, alpha),
        warnings=tuple(warnings),
    )


def roc_curve(scores: Sequence[tuple[float, str]]) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) points sweeping unique scores descending.

    The leading point is (inf, 0, 0); the final point is always (min
    score, 1, 1).
    """
    n_pos = sum(1 for _, label in scores if label == POSITIVE)
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs both classes")
    by_score: dict[float, list[int]] = defaultdict(lambda: [0, 0])
    for value, label in scores:
        by_score[value][0 if label == POSITIVE else 1] += 1
    points = [(math.inf, 0.0, 0.0)]
    tp = fp = 0
    for value in sorted(by_score, reverse=True):
        tp += by_score[value][0]
        fp += by_score[value][1]
        points.append((value, fp / n_neg, tp / n_pos))
    return points


def roc_auc(scores: Sequence[tuple[float, str]]) -> tuple[float, list[tuple[float, float]]]:
    """Pairwise-rank AUC (ties count 0.5) plus the ROC points.

    Computed with midranks: AUC = (R_pos - P(P+1)/2) / (P*N) where R_pos
    is the positive midrank sum.
    """
    n_pos = sum(1 for _, label in scores if label == POSITIVE)
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes")
    ordered = sorted(scores, key=lambda sl: sl[0])
    rank_sum = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            j += 1
        midrank = (i + 1 + j) / 2.0  # average of ranks i+1 .. j
        rank_sum += midrank * sum(1 for s, l in ordered[i:j] if l == POSITIVE)
        i = j
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    points = [(fpr, tpr) for _, fpr, tpr in roc_curve(scores)]
    return auc, points


@dataclass
class EvalReport:
    auc: float
    fold_aucs: tuple[float, ...]
    roc_points: tuple[tuple[float, float], ...]
    roc_thresholds: tuple[float, ...]
    top_features: tuple[tuple[str, float], ...] = ()
    bias_recheck: Optional[BiasReport] = None
    scores: tuple[tuple[str, float, str], ...] = ()  # (cluster id, score, label)
    converged_folds: int = 0  # fold fits whose solver reached its tolerance

    def to_json(self) -> dict:
        return {
            "auc": self.auc,
            "fold_aucs": list(self.fold_aucs),
            "converged_folds": self.converged_folds,
            "top_features": [[t, w] for t, w in self.top_features],
            "bias_recheck": None if self.bias_recheck is None else self.bias_recheck.to_json(),
            "scores": [[cid, s, label] for cid, s, label in self.scores],
        }


def cross_validate(
    terms: ClusterTerms,
    labeled: Sequence[LabeledCluster],
    plan: FoldPlan,
    min_df: int = 1,
    max_vocab: Optional[int] = 50000,
    weighting: str = "tf",
    train_config: Optional[TrainConfig] = None,
) -> EvalReport:
    """Per-fold train/score with fold-local vocabularies.

    ``terms`` must be the ``ClusterTerms`` of ``labeled``'s clusters, in
    that order; every fold reads its counts, so no document is counted
    again, and its n-gram orders are the folds'.  The vocabulary for each
    fold is built from training-fold documents only, so test-fold tokens
    can never leak into a model.  Pooled AUC is the headline number; per-fold AUCs
    show dispersion.  Only the fold models are trained, and the report's
    ``top_features`` and ``bias_recheck`` are left empty: rank ``train``'s
    model with ``feature_importance`` and audit with ``audit``.
    """
    if not labeled:
        raise EmptyInputError("no labeled clusters")
    missing = [lc.cluster.id for lc in labeled if lc.cluster.id not in plan.assignment]
    if missing:
        raise InputError(f"fold plan does not cover clusters: {missing[:3]}")
    train_config = train_config or TrainConfig()

    if terms.clusters != [lc.cluster for lc in labeled]:
        raise InputError("terms were built over other clusters")
    labels = [lc.label for lc in labeled]
    folds = np.array([plan.assignment[lc.cluster.id] for lc in labeled])
    pooled: list[tuple[float, str]] = []
    pooled_with_ids: list[tuple[str, float, str]] = []
    fold_aucs = []
    converged = 0
    for fold in range(plan.k):
        fit = folds != fold
        train_idx, test_idx = np.flatnonzero(fit), np.flatnonzero(~fit)
        # The fit clusters' rows come first, so both sides are row ranges.
        vocab, x = terms.featurize(min_df, max_vocab, weighting, fit=fit)
        n_fit = len(train_idx)
        model = train((row_view(x, 0, n_fit), [labels[i] for i in train_idx]), vocab, train_config)
        converged += model.metadata["converged"]
        fold_scores = []
        for i, value in zip(test_idx.tolist(), model.scores(row_view(x, n_fit, len(labels))).tolist()):
            fold_scores.append((value, labels[i]))
            pooled_with_ids.append((labeled[i].cluster.id, value, labels[i]))
        pooled.extend(fold_scores)
        fold_auc, _ = roc_auc(fold_scores)
        fold_aucs.append(fold_auc)
        del x, model, vocab  # so that they and the next fold's are not held at once

    auc, points = roc_auc(pooled)
    thresholds = [t for t, _, _ in roc_curve(pooled)]
    pooled_with_ids.sort(key=lambda row: row[0])
    return EvalReport(
        auc=auc,
        fold_aucs=tuple(fold_aucs),
        roc_points=tuple(points),
        roc_thresholds=tuple(thresholds),
        scores=tuple(pooled_with_ids),
        converged_folds=converged,
    )


def write_report(
    report: EvalReport,
    json_path: str | Path,
    roc_csv_path: Optional[str | Path] = None,
    text_path: Optional[str | Path] = None,
    plan: Optional[FoldPlan] = None,
) -> None:
    payload = report.to_json()
    if plan is not None:
        payload["homogeneity"] = plan.to_json()["homogeneity"]
        payload["fold_warnings"] = list(plan.warnings)
    write_json(json_path, payload)
    if roc_csv_path is not None:
        with open(roc_csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "fpr", "tpr"])
            for threshold, (fpr, tpr) in zip(report.roc_thresholds, report.roc_points):
                writer.writerow([threshold, fpr, tpr])
    if text_path is not None:
        lines = [
            f"pooled AUC: {report.auc:.4f}",
            "per-fold AUCs: " + ", ".join(f"{a:.4f}" for a in report.fold_aucs),
            f"solver converged in {report.converged_folds} of {len(report.fold_aucs)} fold fits",
            "",
            "top features (|weight| desc):",
        ]
        for token, weight in report.top_features:
            lines.append(f"  {token:<24} {weight:+.5f}")
        if report.bias_recheck is not None:
            lines.append("")
            lines.append(
                "bias recheck flagged: "
                + (", ".join(report.bias_recheck.flagged_features) or "(none)")
            )
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
