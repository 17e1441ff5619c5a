"""The integer-indexed graph and clustering against string-keyed references.

The references below are the per-pair, string-keyed implementations that
``build_graph``, ``kwikcluster``, ``consensus``, ``refine`` and
``disagreement_cost`` replaced.  They define the behaviour: the same
edges and provenance, the same partition seed for seed, the same cost and
the same ``graph.csv`` bytes.
"""

import csv
import io
import math
import random
from collections import Counter, defaultdict
from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from caserisk.clustering import (
    SIGNAL_LOCATION_DATE,
    SIGNAL_PHONE,
    SIGNAL_TEXT,
    Clustering,
    GraphConfig,
    SimilarityGraph,
    build_graph,
    consensus,
    disagreement_cost,
    kwikcluster,
    refine,
    shingles,
    write_graph,
)
from caserisk.corpus import Corpus, Document

# --- references ---------------------------------------------------------


class RefGraph:
    def __init__(self, node_ids, edges):
        self.node_ids = tuple(node_ids)
        self.edges = {}
        self.adjacency = {n: set() for n in self.node_ids}
        for (a, b), provenance in edges.items():
            key = (a, b) if a < b else (b, a)
            self.edges[key] = frozenset(provenance)
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)

    def neighbors(self, node):
        return self.adjacency[node]


def ref_build_graph(corpus, config):
    # Every pair is compared.  "Jaccard reaches tau_text / 2" is written
    # 2 * shared / union >= tau_text, which doubling makes exact: tau_text
    # / 2 rounds to 0 for the least subnormal tau_text.
    shingle_sets = {}
    if config.use_text or config.use_location_date:
        for doc in corpus:
            shingle_sets[doc.id] = shingles(doc.text, config.shingle_len)
    ids = sorted(corpus.ids())
    edges = {}
    for k, a_id in enumerate(ids):
        for b_id in ids[k + 1 :]:
            a, b = corpus.get(a_id), corpus.get(b_id)
            shared = union = 0
            if shingle_sets:
                sa, sb = shingle_sets[a_id], shingle_sets[b_id]
                shared = len(sa & sb)
                union = len(sa) + len(sb) - shared
            provenance = set()
            if config.use_phones and set(a.phones) & set(b.phones):
                provenance.add(SIGNAL_PHONE)
            if config.use_text and union and shared / union >= config.tau_text:
                provenance.add(SIGNAL_TEXT)
            if (
                config.use_location_date
                and set(a.locations) & set(b.locations)
                and a.posted_date is not None
                and b.posted_date is not None
                and abs((a.posted_date - b.posted_date).days) <= config.date_window_days
                and union
                and 2 * shared / union >= config.tau_text
            ):
                provenance.add(SIGNAL_LOCATION_DATE)
            if provenance:
                edges[(a_id, b_id)] = frozenset(provenance)
    return RefGraph(corpus.ids(), edges)


def ref_kwikcluster(graph, seed):
    order = sorted(graph.node_ids)
    random.Random(seed).shuffle(order)
    clustered = set()
    member_sets = []
    for pivot in order:
        if pivot in clustered:
            continue
        members = {pivot} | (graph.neighbors(pivot) - clustered)
        clustered |= members
        member_sets.append(members)
    return Clustering.from_member_sets(member_sets)


def ref_disagreement_cost(clustering, graph):
    within = sum(clustering.cluster_of[a] == clustering.cluster_of[b] for a, b in graph.edges)
    cut = len(graph.edges) - within
    possible_within = sum(n * (n - 1) // 2 for n in clustering.sizes())
    return cut + (possible_within - within)


def ref_consensus(clusterings, threshold):
    needed = math.ceil(threshold * len(clusterings))
    counts = Counter()
    for clustering in clusterings:
        for cluster in clustering:
            members = sorted(cluster.members)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    counts[(a, b)] += 1
    parent = {n: n for n in clusterings[0].ids()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), c in counts.items():
        if c >= needed:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    components = defaultdict(set)
    for node in parent:
        components[find(node)].add(node)
    return Clustering.from_member_sets(components.values())


def ref_refine(clustering, graph, max_passes):
    members = {}
    assign = {}
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


def graph_csv(graph):
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["id_a", "id_b", "provenance"])
    for a, b in sorted(graph.edges):
        writer.writerow([a, b, "|".join(sorted(graph.edges[(a, b)]))])
    return fh.getvalue()


# --- strategies ---------------------------------------------------------

WORDS = ("ab", "cd", "ef", "gh", "ij")
PHONES = ("5550000001", "5550000002", "5550000003")
PLACES = ("springfield", "shelbyville", "ogdenville")
DAY0 = date(2024, 1, 1)


@st.composite
def corpora(draw):
    n = draw(st.integers(0, 14))
    ids = draw(st.lists(st.text("abcxyz019", min_size=1, max_size=4), min_size=n, max_size=n, unique=True))
    docs = []
    for doc_id in ids:
        # "" and "!!" have no tokens, so no shingles.
        words = draw(st.lists(st.sampled_from(WORDS), max_size=6))
        text = " ".join(words) if words else draw(st.sampled_from(("", "!!")))
        posted = draw(st.one_of(st.none(), st.integers(0, 12).map(lambda d: DAY0 + timedelta(days=d))))
        docs.append(
            Document(
                id=doc_id,
                source_domain="x",
                text=text,
                phones=tuple(draw(st.lists(st.sampled_from(PHONES), max_size=2))),
                locations=tuple(draw(st.lists(st.sampled_from(PLACES), max_size=2))),
                posted_date=posted,
            )
        )
    return Corpus(docs)


@st.composite
def graph_configs(draw):
    # Thresholds that binary fractions do not hold exactly, and any float
    # in (0, 1], down to the least subnormal, whose half rounds to 0.
    tau = st.sampled_from((1 / 3, 0.3, 0.7, 0.05, 1.0)) | st.floats(0, 1, exclude_min=True)
    return GraphConfig(
        tau_text=draw(tau),
        shingle_len=draw(st.integers(1, 4)),
        use_phones=draw(st.booleans()),
        use_text=draw(st.booleans()),
        use_location_date=draw(st.booleans()),
        date_window_days=draw(st.integers(0, 5)),
    )


@st.composite
def graphs(draw):
    nodes = draw(st.lists(st.text("abcdef", min_size=1, max_size=3), max_size=12, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    edges = {pair: frozenset({"test"}) for pair in chosen}
    return nodes, edges


# --- properties ---------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_build_graph_matches_per_pair_reference(data):
    corpus = data.draw(corpora())
    config = data.draw(graph_configs())
    graph = build_graph(corpus, config)
    reference = ref_build_graph(corpus, config)
    assert graph.node_ids == tuple(sorted(corpus.ids()))
    assert graph.edges == reference.edges
    assert graph.edge_count() == len(reference.edges)
    assert graph.adjacency == reference.adjacency
    assert graph_csv(graph) == graph_csv(reference)


def test_often_posted_text_links_all_its_copies():
    # 12 copies of one text with no phone among 1,188 random texts with a
    # phone each: no phone pairs the copies and none of their shingles is
    # rare (each is in 12 documents), yet the rule links all 66 pairs.
    rng = random.Random(12)
    words = [f"w{k}" for k in range(300)]
    docs = [
        Document(
            id=f"r{k:04d}",
            source_domain="x",
            text=" ".join(rng.choices(words, k=12)),
            phones=(f"555{k:07d}",),
        )
        for k in range(1188)
    ]
    copies = [f"c{k:02d}" for k in range(12)]
    text = "same ad posted again and again in one city tonight"
    docs += [Document(id=doc_id, source_domain="x", text=text) for doc_id in copies]
    graph = build_graph(Corpus(docs), GraphConfig())
    pairs = [(a, b) for k, a in enumerate(copies) for b in copies[k + 1 :]]
    assert len(pairs) == 66
    assert {pair: graph.edges.get(pair) for pair in pairs} == dict.fromkeys(pairs, frozenset({SIGNAL_TEXT}))


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(0, 2**32 - 1), st.integers(1, 3), st.data())
def test_clustering_matches_string_reference(nodes_edges, seed, passes, data):
    nodes, edges = nodes_edges
    graph = SimilarityGraph(nodes, edges)
    reference = RefGraph(nodes, edges)
    assert graph.node_ids == tuple(sorted(nodes))
    assert graph.edges == reference.edges
    assert graph_csv(graph) == graph_csv(reference)

    runs = [kwikcluster(graph, seed + k) for k in range(3)]
    for k, run in enumerate(runs):
        assert run.clusters == ref_kwikcluster(reference, seed + k).clusters
        assert disagreement_cost(run, graph) == ref_disagreement_cost(run, reference)
    for threshold in (0.3, 0.5, 1.0):
        combined = consensus(runs, threshold)
        assert combined.clusters == ref_consensus(runs, threshold).clusters
        refined = refine(combined, graph, passes)
        assert refined.clusters == ref_refine(combined, reference, passes).clusters
        assert disagreement_cost(refined, graph) == ref_disagreement_cost(refined, reference)

    # Any partition, not only pivot clusters: blocks need not be connected.
    groups = data.draw(st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes)))
    start = _partition(nodes, groups)
    assert disagreement_cost(start, graph) == ref_disagreement_cost(start, reference)
    refined = refine(start, graph, passes)
    assert refined.clusters == ref_refine(start, reference, passes).clusters


def _partition(nodes, groups):
    blocks = defaultdict(set)
    for node, group in zip(nodes, groups):
        blocks[group].add(node)
    return Clustering.from_member_sets(blocks.values())


def test_write_graph_bytes_match_reference(tmp_path):
    rng = random.Random(5)
    nodes = [f"d{k:02d}" for k in range(20)]
    rng.shuffle(nodes)
    signals = (SIGNAL_PHONE, SIGNAL_TEXT, SIGNAL_LOCATION_DATE)
    edges = {
        (a, b): frozenset(rng.sample(signals, rng.randint(1, 3)))
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < 0.3
    }
    path = tmp_path / "graph.csv"
    write_graph(SimilarityGraph(nodes, edges), path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == graph_csv(RefGraph(nodes, edges))
