"""Similarity graph construction and correlation clustering.

Documents are linked by a disjunction of interpretable signals (shared
phone, high text-shingle overlap, shared location within a date window).
Candidate pairs come from blocking on shared phones and rare shingles so
large corpora never pay an all-pairs comparison.  Partitions are produced
by random-pivot correlation clustering, optionally combined across seeds
by co-association consensus and polished by single-node local search on
the disagreement objective.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import Corpus, Document, tokenize
from .errors import InputError

SIGNAL_PHONE = "phone-match"
SIGNAL_TEXT = "text-shingle"
SIGNAL_LOCATION_DATE = "location-date"


def shingles(text: str, shingle_len: int) -> frozenset[str]:
    """Set of word shingles of the given length over lowercased tokens."""
    if shingle_len < 1:
        raise InputError("shingle_len must be >= 1")
    tokens = tokenize(text)
    if len(tokens) < shingle_len:
        return frozenset()
    return frozenset(
        " ".join(tokens[i : i + shingle_len]) for i in range(len(tokens) - shingle_len + 1)
    )


def text_similarity(a: Document, b: Document, shingle_len: int) -> float:
    """Jaccard similarity of the two documents' word-shingle sets."""
    sa = shingles(a.text, shingle_len)
    sb = shingles(b.text, shingle_len)
    if not sa and not sb:
        return 0.0
    inter = len(sa & sb)
    if inter == 0:
        return 0.0
    return inter / (len(sa) + len(sb) - inter)


@dataclass
class GraphConfig:
    tau_text: float = 0.5
    shingle_len: int = 2
    use_phones: bool = True
    use_text: bool = True
    use_location_date: bool = False
    date_window_days: int = 7
    rare_shingle_df_cap: int = 10
    all_pairs_cutoff: int = 1000


class SimilarityGraph:
    """Undirected positive-edge graph over document ids with edge provenance."""

    def __init__(self, node_ids: Iterable[str], edges: Mapping[tuple[str, str], frozenset[str]]):
        self.node_ids: tuple[str, ...] = tuple(node_ids)
        node_set = set(self.node_ids)
        if len(node_set) != len(self.node_ids):
            raise InputError("duplicate node ids")
        normalized: dict[tuple[str, str], frozenset[str]] = {}
        adjacency: dict[str, set[str]] = {n: set() for n in self.node_ids}
        for (a, b), provenance in edges.items():
            if a == b:
                raise InputError(f"self-loop on {a!r}")
            if a not in node_set or b not in node_set:
                raise InputError(f"edge references unknown node: ({a!r}, {b!r})")
            key = (a, b) if a < b else (b, a)
            normalized[key] = frozenset(provenance)
            adjacency[a].add(b)
            adjacency[b].add(a)
        self.edges: dict[tuple[str, str], frozenset[str]] = normalized
        self.adjacency: dict[str, set[str]] = adjacency

    def __contains__(self, pair: tuple[str, str]) -> bool:
        a, b = pair
        key = (a, b) if a < b else (b, a)
        return key in self.edges

    def neighbors(self, node: str) -> set[str]:
        return self.adjacency[node]

    def edge_count(self) -> int:
        return len(self.edges)


def _candidate_pairs(
    corpus: Corpus, config: GraphConfig, shingle_sets: Mapping[str, frozenset[str]]
) -> set[tuple[str, str]]:
    """Every pair up to ``all_pairs_cutoff`` documents, else the pairs that
    share a phone or a rare shingle; ``shingle_sets`` maps each id to its
    shingles when ``use_text`` is on."""
    ids = corpus.ids()
    if len(ids) <= config.all_pairs_cutoff:
        return {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]}

    blocks: list[list[str]] = []
    if config.use_phones:
        by_phone: dict[str, list[str]] = defaultdict(list)
        for doc in corpus:
            for phone in doc.phones:
                by_phone[phone].append(doc.id)
        blocks.extend(by_phone.values())
    if config.use_text:
        df = Counter(s for doc_shingles in shingle_sets.values() for s in doc_shingles)
        rare = {s for s, c in df.items() if c <= config.rare_shingle_df_cap}
        del df
        by_shingle: dict[str, list[str]] = defaultdict(list)
        for doc_id, doc_shingles in shingle_sets.items():
            for s in doc_shingles:
                if s in rare:
                    by_shingle[s].append(doc_id)
        blocks.extend(by_shingle.values())
    pairs: set[tuple[str, str]] = set()
    for members in blocks:
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                pairs.add((a, b) if a < b else (b, a))
    return pairs


def build_graph(corpus: Corpus, config: Optional[GraphConfig] = None) -> SimilarityGraph:
    """Link candidate pairs whose enabled signals agree.

    A candidate pair is linked iff the phone sets intersect, or text
    similarity reaches ``tau_text``, or the location sets intersect with
    posted dates within ``date_window_days`` (each signal subject to its
    toggle).  Up to ``all_pairs_cutoff`` documents every pair is a
    candidate.  Above it only pairs that share a phone or a rare shingle
    are, so a shared location and date alone never links two documents.
    """
    config = config or GraphConfig()
    if not 0.0 <= config.tau_text <= 1.0:
        raise InputError("tau_text must be in [0, 1]")
    shingle_cache: dict[str, frozenset[str]] = {}
    if config.use_text:
        for doc in corpus:
            shingle_cache[doc.id] = shingles(doc.text, config.shingle_len)

    edges: dict[tuple[str, str], frozenset[str]] = {}
    for a_id, b_id in sorted(_candidate_pairs(corpus, config, shingle_cache)):
        a = corpus.get(a_id)
        b = corpus.get(b_id)
        provenance = set()
        if config.use_phones and a.phones and b.phones:
            if set(a.phones) & set(b.phones):
                provenance.add(SIGNAL_PHONE)
        if config.use_text:
            sa, sb = shingle_cache[a_id], shingle_cache[b_id]
            if sa or sb:
                inter = len(sa & sb)
                union = len(sa) + len(sb) - inter
                if union and inter / union >= config.tau_text:
                    provenance.add(SIGNAL_TEXT)
        if config.use_location_date and a.locations and b.locations:
            if set(a.locations) & set(b.locations):
                if a.posted_date is not None and b.posted_date is not None:
                    if abs((a.posted_date - b.posted_date).days) <= config.date_window_days:
                        provenance.add(SIGNAL_LOCATION_DATE)
        if provenance:
            edges[(a_id, b_id)] = frozenset(provenance)
    return SimilarityGraph(corpus.ids(), edges)


@dataclass(frozen=True)
class Cluster:
    id: str
    members: frozenset[str]

    def __post_init__(self):
        if not self.members:
            raise InputError("empty cluster")

    def size(self) -> int:
        return len(self.members)


class Clustering:
    """An exact partition of a set of document ids."""

    def __init__(self, clusters: Sequence[Cluster]):
        self.clusters: tuple[Cluster, ...] = tuple(sorted(clusters, key=lambda c: c.id))
        assignment: dict[str, str] = {}
        for cluster in self.clusters:
            for doc_id in cluster.members:
                if doc_id in assignment:
                    raise InputError(f"document {doc_id!r} in two clusters")
                assignment[doc_id] = cluster.id
        self.cluster_of: dict[str, str] = assignment
        self._by_id = {c.id: c for c in self.clusters}
        if len(self._by_id) != len(self.clusters):
            raise InputError("duplicate cluster ids")

    @classmethod
    def from_member_sets(cls, member_sets: Iterable[Iterable[str]]) -> "Clustering":
        """Build a partition; each cluster id is its smallest member id."""
        clusters = []
        for members in member_sets:
            members = frozenset(members)
            if members:
                clusters.append(Cluster(id=min(members), members=members))
        return cls(clusters)

    def get(self, cluster_id: str) -> Cluster:
        return self._by_id[cluster_id]

    def ids(self) -> set[str]:
        return set(self.cluster_of)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def sizes(self) -> list[int]:
        return [c.size() for c in self.clusters]


def _check_partition_of(clustering: Clustering, node_ids: Iterable[str]) -> None:
    if clustering.ids() != set(node_ids):
        raise InputError("clustering does not partition the graph's node set")


def kwikcluster(graph: SimilarityGraph, seed: int) -> Clustering:
    """Random-pivot correlation clustering.

    Walks a seeded uniform permutation of the nodes; each not-yet-clustered
    node becomes a pivot and absorbs its not-yet-clustered neighbors.
    Identical (graph, seed) always yields the identical partition.
    """
    order = sorted(graph.node_ids)
    random.Random(seed).shuffle(order)
    clustered: set[str] = set()
    member_sets: list[set[str]] = []
    for pivot in order:
        if pivot in clustered:
            continue
        members = {pivot} | (graph.neighbors(pivot) - clustered)
        clustered |= members
        member_sets.append(members)
    return Clustering.from_member_sets(member_sets)


def disagreement_cost(clustering: Clustering, graph: SimilarityGraph) -> int:
    """Correlation-clustering objective: cut positive edges plus missing
    within-cluster edges."""
    _check_partition_of(clustering, graph.node_ids)
    cut = 0
    within = 0
    for a, b in graph.edges:
        if clustering.cluster_of[a] == clustering.cluster_of[b]:
            within += 1
        else:
            cut += 1
    possible_within = sum(n * (n - 1) // 2 for n in clustering.sizes())
    return cut + (possible_within - within)


def consensus(clusterings: Sequence[Clustering], threshold: float) -> Clustering:
    """Co-association consensus across runs.

    Two ids land in one cluster iff they co-occur in at least
    ceil(threshold * runs) input clusterings; the output is the connected
    components of that co-association graph.
    """
    if not clusterings:
        raise InputError("no clusterings to combine")
    if not 0.0 < threshold <= 1.0:
        raise InputError("threshold must be in (0, 1]")
    base_ids = clusterings[0].ids()
    for other in clusterings[1:]:
        if other.ids() != base_ids:
            raise InputError("clusterings cover different id sets")
    runs = len(clusterings)
    needed = math.ceil(threshold * runs)

    counts: Counter[tuple[str, str]] = Counter()
    for clustering in clusterings:
        for cluster in clustering:
            members = sorted(cluster.members)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    counts[(a, b)] += 1

    parent: dict[str, str] = {n: n for n in base_ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), c in counts.items():
        if c >= needed:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    components: dict[str, set[str]] = defaultdict(set)
    for node in base_ids:
        components[find(node)].add(node)
    return Clustering.from_member_sets(components.values())


def refine(clustering: Clustering, graph: SimilarityGraph, max_passes: int = 3) -> Clustering:
    """Single-node best-move local search on the disagreement objective.

    Each pass visits nodes in sorted order and applies the best improving
    move: re-assigning the node to a neighboring cluster or detaching it
    into a fresh singleton.  Stops when a pass makes no move or max_passes
    is reached; never increases the objective.
    """
    _check_partition_of(clustering, graph.node_ids)
    members: dict[int, set[str]] = {}
    assign: dict[str, int] = {}
    for idx, cluster in enumerate(clustering):
        members[idx] = set(cluster.members)
        for doc_id in cluster.members:
            assign[doc_id] = idx
    next_idx = len(members)

    for _ in range(max_passes):
        moved = False
        for node in sorted(graph.node_ids):
            home = assign[node]
            neighbor_ids = graph.neighbors(node)
            edges_home = sum(1 for n in neighbor_ids if assign[n] == home)
            # Moving out of `home` removes (|home|-1 - e_home) within-pair
            # misses and adds e_home cut edges; joining B adds (|B| - e_B)
            # misses and removes e_B cuts.
            base_gain = (len(members[home]) - 1 - edges_home) - edges_home
            best_delta = 0
            best_target = None
            candidate_clusters = {assign[n] for n in neighbor_ids if assign[n] != home}
            for target in sorted(candidate_clusters):
                edges_target = sum(1 for n in neighbor_ids if assign[n] == target)
                delta = (len(members[target]) - 2 * edges_target) - base_gain
                if delta < best_delta:
                    best_delta = delta
                    best_target = target
            if len(members[home]) > 1:
                detach_delta = -base_gain
                if detach_delta < best_delta:
                    best_delta = detach_delta
                    best_target = -1
            if best_target is not None and best_delta < 0:
                members[home].discard(node)
                if best_target == -1:
                    members[next_idx] = {node}
                    assign[node] = next_idx
                    next_idx += 1
                else:
                    members[best_target].add(node)
                    assign[node] = best_target
                if not members[home]:
                    del members[home]
                moved = True
        if not moved:
            break
    return Clustering.from_member_sets(members.values())


def adjusted_rand(a: Clustering, b: Clustering) -> float:
    """Adjusted Rand index between two partitions of the same id set."""
    if a.ids() != b.ids():
        raise InputError("partitions cover different id sets")
    contingency: Counter[tuple[str, str]] = Counter()
    for doc_id, cluster_a in a.cluster_of.items():
        contingency[(cluster_a, b.cluster_of[doc_id])] += 1

    def comb2(n: int) -> int:
        return n * (n - 1) // 2

    sum_cells = sum(comb2(c) for c in contingency.values())
    sum_a = sum(comb2(c.size()) for c in a)
    sum_b = sum(comb2(c.size()) for c in b)
    total = comb2(len(a.cluster_of))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def write_clustering(clustering: Clustering, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "document_id"])
        for cluster in clustering:
            for doc_id in sorted(cluster.members):
                writer.writerow([cluster.id, doc_id])


def read_clustering(path: str | Path) -> Clustering:
    groups: dict[str, set[str]] = defaultdict(set)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"cluster_id", "document_id"} <= set(reader.fieldnames):
            raise InputError(f"{path}: expected header cluster_id,document_id")
        for row in reader:
            groups[row["cluster_id"]].add(row["document_id"])
    return Clustering.from_member_sets(groups.values())


def write_graph(graph: SimilarityGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "provenance"])
        for (a, b) in sorted(graph.edges):
            writer.writerow([a, b, "|".join(sorted(graph.edges[(a, b)]))])
