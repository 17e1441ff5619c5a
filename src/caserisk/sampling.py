"""Negative-label sampling over clusters.

Noisy negatives come either from uniform random cluster draws or from
conditioned draws that match the positive class's joint distribution over
(feature-group x cluster-size-bucket) strata, which is the sampling-side
mitigation for labeling bias.
"""

from __future__ import annotations

import bisect
import csv
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Iterable, Sequence

from .bias import NEGATIVE, POSITIVE, BiasReport, FeatureSpec, audit, group_counts
from .clustering import Cluster, Clustering
from .corpus import Corpus, text_lines
from .errors import EmptyInputError, InputError, InsufficientPoolError

SOURCE_EXPERT = "expert"
SOURCE_SAMPLED = "sampled-noisy"

# Geometric buckets for heavy-tailed cluster sizes: 1, 2-4, 5-16, 17-64, 65+.
DEFAULT_SIZE_BUCKETS: tuple[int, ...] = (1, 2, 5, 17, 65)


@dataclass(frozen=True)
class LabeledCluster:
    cluster: Cluster
    label: str
    source: str

    def __post_init__(self):
        if self.label not in (POSITIVE, NEGATIVE):
            raise InputError(f"bad label {self.label!r}")
        if self.source not in (SOURCE_EXPERT, SOURCE_SAMPLED):
            raise InputError(f"bad source {self.source!r}")


def size_bucket(size: int, boundaries: Sequence[int] = DEFAULT_SIZE_BUCKETS) -> str:
    """Bucket label for a cluster size, e.g. "5-16" or "65+"."""
    if size < 1:
        raise InputError("cluster size must be >= 1")
    boundaries = sorted(boundaries)
    if boundaries[0] != 1:
        raise InputError("first size bucket boundary must be 1")
    idx = bisect.bisect_right(boundaries, size) - 1
    lower = boundaries[idx]
    if idx + 1 < len(boundaries):
        upper = boundaries[idx + 1] - 1
        return str(lower) if lower == upper else f"{lower}-{upper}"
    return f"{lower}+"


def cluster_feature_group(
    cluster: Cluster, corpus: Corpus, feature: FeatureSpec
) -> str:
    """Majority feature group over member documents; ties break to the
    lexicographically smallest group."""
    return majority_group(group_counts(cluster, corpus, feature))


def majority_group(counts: Counter[str]) -> str:
    """The group with the most documents; ties break to the
    lexicographically smallest group."""
    top = max(counts.values())
    return min(g for g, c in counts.items() if c == top)


def stratum_key(
    cluster: Cluster,
    corpus: Corpus,
    features: Sequence[FeatureSpec],
    size_buckets: Sequence[int] = DEFAULT_SIZE_BUCKETS,
) -> tuple[str, ...]:
    groups = tuple(cluster_feature_group(cluster, corpus, f) for f in features)
    return groups + (size_bucket(cluster.size(), size_buckets),)


@dataclass
class SamplingPlan:
    """Per-stratum quotas, realized draws, and any deficits."""

    seed: int
    target_counts: dict[tuple[str, ...], int] = field(default_factory=dict)
    drawn_counts: dict[tuple[str, ...], int] = field(default_factory=dict)
    deficits: dict[tuple[str, ...], int] = field(default_factory=dict)

    def reallocated(self) -> int:
        return sum(self.deficits.values())

    def to_json(self) -> dict:
        def keyed(d: dict[tuple[str, ...], int]) -> dict[str, int]:
            return {"|".join(k): v for k, v in sorted(d.items())}

        return {
            "seed": self.seed,
            "target_counts": keyed(self.target_counts),
            "drawn_counts": keyed(self.drawn_counts),
            "deficits": keyed(self.deficits),
        }


def _largest_remainder(total: int, weights: dict[tuple[str, ...], float]) -> dict[tuple[str, ...], int]:
    """Integer quotas summing to `total`, proportional to `weights`."""
    mass = sum(weights.values())
    if mass <= 0:
        raise InputError("weights must have positive mass")
    exact = {k: total * w / mass for k, w in weights.items()}
    quotas = {k: int(v) for k, v in exact.items()}
    short = total - sum(quotas.values())
    remainders = sorted(exact.items(), key=lambda kv: (-(kv[1] - int(kv[1])), kv[0]))
    for k, _ in remainders[:short]:
        quotas[k] += 1
    return quotas


def random_negatives(
    clustering: Clustering,
    exclude: Iterable[str],
    n: int,
    seed: int,
) -> list[LabeledCluster]:
    """Uniform draw of n distinct non-excluded clusters, labeled negative."""
    excluded = set(exclude)
    pool = sorted(c.id for c in clustering if c.id not in excluded)
    if n > len(pool):
        raise InsufficientPoolError(f"requested {n} clusters, pool has {len(pool)}")
    chosen = Random(seed).sample(pool, n)
    return [
        LabeledCluster(clustering.get(cid), NEGATIVE, SOURCE_SAMPLED) for cid in chosen
    ]


def _requota(
    short: int, supply: dict[tuple[str, ...], int], weights: dict[tuple[str, ...], float]
) -> dict[tuple[str, ...], int]:
    """Extra draws summing to ``short`` over the strata with ``supply``
    left: largest-remainder by positive mass where any remains there, else
    by supply; each capped at its supply, and what the caps cut is spread
    largest supply first."""
    available = {k: s for k, s in supply.items() if s > 0}
    weighted = {k: weights.get(k, 0.0) for k in available}
    if sum(weighted.values()) <= 0:
        weighted = {k: float(s) for k, s in available.items()}
    extra = {k: min(q, available[k]) for k, q in _largest_remainder(short, weighted).items()}
    leftover = short - sum(extra.values())
    for k in sorted(available, key=lambda k: (-available[k], k)):
        add = min(available[k] - extra[k], leftover)
        extra[k] += add
        leftover -= add
    return extra


def conditioned_negatives(
    clustering: Clustering,
    corpus: Corpus,
    positives: Sequence[LabeledCluster],
    features: Sequence[FeatureSpec],
    n: int,
    seed: int,
    size_buckets: Sequence[int] = DEFAULT_SIZE_BUCKETS,
    exclude: Iterable[str] = (),
) -> tuple[list[LabeledCluster], SamplingPlan]:
    """Draw negatives whose (feature-group x size-bucket) distribution
    matches the positive clusters.

    Neither the positives nor the clusters in ``exclude`` are ever drawn.

    Per-stratum quotas are the largest-remainder rounding of the positive
    empirical distribution, each capped at its stratum's supply; the
    shortfall is recorded on the plan as deficits and re-quota'd once over
    the strata with supply left (``_requota``).  Then each stratum is drawn
    once, uniformly without replacement, in sorted key order.
    """
    if not positives:
        raise EmptyInputError("no positive clusters to condition on")
    excluded = {lc.cluster.id for lc in positives} | set(exclude)
    pos_strata = Counter(stratum_key(lc.cluster, corpus, features, size_buckets) for lc in positives)
    # Clustering iterates clusters in id order, so every pool is sorted.
    pools: dict[tuple[str, ...], list[str]] = defaultdict(list)
    for cluster in clustering:
        if cluster.id not in excluded:
            pools[stratum_key(cluster, corpus, features, size_buckets)].append(cluster.id)
    supply = {k: len(p) for k, p in pools.items()}
    plan = SamplingPlan(seed=seed)
    if n == 0:
        return [], plan
    weights = {k: float(v) for k, v in pos_strata.items()}
    quotas = _largest_remainder(n, weights)
    if sum(supply.values()) < n:
        deficits = {
            "|".join(k): q - supply.get(k, 0)
            for k, q in sorted(quotas.items())
            if q > supply.get(k, 0)
        }
        raise InsufficientPoolError(
            f"requested {n} negatives, pool has {sum(supply.values())}", deficits=deficits
        )
    take = {k: min(q, supply.get(k, 0)) for k, q in quotas.items()}
    plan.target_counts = dict(quotas)
    plan.deficits = {k: q - take[k] for k, q in quotas.items() if q > take[k]}
    if plan.deficits:
        left = {k: s - take.get(k, 0) for k, s in supply.items()}
        for k, extra in _requota(plan.reallocated(), left, weights).items():
            take[k] = take.get(k, 0) + extra
    plan.drawn_counts = {k: t for k, t in take.items() if t > 0}

    rng = Random(seed)
    labeled = [
        LabeledCluster(clustering.get(cid), NEGATIVE, SOURCE_SAMPLED)
        for k in sorted(plan.drawn_counts)
        for cid in rng.sample(pools[k], take[k])
    ]
    return labeled, plan


def verify_alignment(
    corpus: Corpus,
    positives: Sequence[LabeledCluster],
    negatives: Sequence[LabeledCluster],
    features: Sequence[FeatureSpec],
    alpha: float = 0.05,
) -> BiasReport:
    """Audit the combined labeled set; mitigation succeeded iff nothing is
    flagged."""
    if not positives or not negatives:
        raise EmptyInputError("need both positives and negatives")
    report = audit(corpus, list(positives) + list(negatives), features, alpha)
    return replace(report, mitigation_successful=not report.flagged_features)


def write_labels(labeled: Sequence[LabeledCluster], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "label", "source"])
        for lc in sorted(labeled, key=lambda x: x.cluster.id):
            writer.writerow([lc.cluster.id, lc.label, lc.source])


def read_labels(
    path: str | Path, clustering: Clustering
) -> tuple[list[LabeledCluster], list[str]]:
    """Resolve a labels CSV against a clustering.

    Returns the resolved labeled clusters and the ids that did not match
    any cluster (left to the caller to report).  Expert labels win over
    sampled ones for the same cluster.  A missing header, or a row with a
    missing or empty cluster_id or label or an unknown label or source,
    raises InputError naming the file and the line.
    """
    rows: list[tuple[str, str, str]] = []
    reader = csv.DictReader(text_lines(path, newline=""))
    if reader.fieldnames is None or not {"cluster_id", "label"} <= set(reader.fieldnames):
        raise InputError(f"{path}: expected header cluster_id,label[,source]")
    for row in reader:
        label, source = row["label"], row.get("source") or SOURCE_EXPERT
        if not (row["cluster_id"] and label):
            raise InputError(f"{path}:{reader.line_num}: missing cluster_id or label")
        if label not in (POSITIVE, NEGATIVE):
            raise InputError(f"{path}:{reader.line_num}: bad label {label!r}")
        if source not in (SOURCE_EXPERT, SOURCE_SAMPLED):
            raise InputError(f"{path}:{reader.line_num}: bad source {source!r}")
        rows.append((row["cluster_id"], label, source))
    known = {c.id for c in clustering}
    by_cluster: dict[str, tuple[str, str]] = {}
    missing = []
    for cid, label, source in rows:
        if cid not in known:
            missing.append(cid)
            continue
        current = by_cluster.get(cid)
        if current is not None and current[1] == SOURCE_EXPERT and source != SOURCE_EXPERT:
            continue  # expert labels are never overwritten
        by_cluster[cid] = (label, source)
    labeled = [
        LabeledCluster(clustering.get(cid), label, source)
        for cid, (label, source) in sorted(by_cluster.items())
    ]
    return labeled, missing
