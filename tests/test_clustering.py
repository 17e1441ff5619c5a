"""Similarity graph and correlation clustering behavior."""

import itertools
import random
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caserisk.clustering import (
    Cluster,
    Clustering,
    GraphConfig,
    SimilarityGraph,
    adjusted_rand,
    build_graph,
    consensus,
    disagreement_cost,
    kwikcluster,
    read_clustering,
    refine,
    text_similarity,
    write_clustering,
)
from caserisk.corpus import Corpus, Document
from caserisk.errors import InputError


def doc(doc_id, text="", phones=(), locations=(), posted=None, domain="x"):
    return Document(
        id=doc_id,
        source_domain=domain,
        text=text or f"placeholder {doc_id}",
        phones=tuple(phones),
        locations=tuple(locations),
        posted_date=posted,
    )


def graph_from_edges(nodes, edges):
    return SimilarityGraph(nodes, {pair: frozenset({"test"}) for pair in edges})


def partitions(items):
    """All set partitions of items (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def brute_force_optimal_cost(nodes, edge_set):
    edge_set = {tuple(sorted(e)) for e in edge_set}
    best = None
    for part in partitions(nodes):
        cost = 0
        assign = {}
        for ci, block in enumerate(part):
            for n in block:
                assign[n] = ci
            for a, b in itertools.combinations(sorted(block), 2):
                if (a, b) not in edge_set:
                    cost += 1
        for a, b in edge_set:
            if assign[a] != assign[b]:
                cost += 1
        if best is None or cost < best:
            best = cost
    return best


class TestTextSimilarity:
    def test_identical_texts(self):
        a = doc("a", "the quick brown fox")
        assert text_similarity(a, doc("b", "the quick brown fox"), 2) == 1.0

    def test_disjoint_vocabulary(self):
        assert text_similarity(doc("a", "alpha beta"), doc("b", "gamma delta"), 1) == 0.0

    def test_hand_counted_jaccard(self):
        # shingles {ab, bc} vs {ab, bd}: intersection 1, union 3
        assert text_similarity(doc("a", "a b c"), doc("b", "a b d"), 2) == pytest.approx(1 / 3)

    def test_both_empty(self):
        a = Document(id="a", source_domain="x", text="!!")
        b = Document(id="b", source_domain="x", text="??")
        assert text_similarity(a, b, 2) == 0.0


class TestBuildGraph:
    def test_shared_phone_edge_with_provenance(self):
        corpus = Corpus([doc("a", phones=["5550123456"]), doc("b", phones=["5550123456"])])
        graph = build_graph(corpus, GraphConfig(use_text=False))
        assert ("a", "b") in graph
        assert graph.edges[("a", "b")] == frozenset({"phone-match"})

    def test_no_shared_attributes_no_edges(self):
        corpus = Corpus([doc("a", "alpha beta"), doc("b", "gamma delta"), doc("c", "eps zeta")])
        graph = build_graph(corpus, GraphConfig(tau_text=0.5))
        assert graph.edge_count() == 0

    def test_four_document_fixture(self):
        corpus = Corpus(
            [
                doc("a", "unique alpha text", phones=["5550000001"]),
                doc("b", "other beta words", phones=["5550000001"]),
                doc("c", "same shingle text here today"),
                doc("d", "same shingle text here tonight"),
            ]
        )
        graph = build_graph(corpus, GraphConfig(tau_text=0.4, shingle_len=2))
        assert graph.edge_count() == 2
        assert ("a", "b") in graph and ("c", "d") in graph

    def test_location_date_window(self):
        from datetime import date

        near = [
            doc("a", "aaa", locations=["springfield"], posted=date(2024, 1, 1)),
            doc("b", "bbb", locations=["springfield"], posted=date(2024, 1, 5)),
            doc("c", "ccc", locations=["springfield"], posted=date(2024, 3, 1)),
        ]
        config = GraphConfig(use_phones=False, use_text=False, use_location_date=True, date_window_days=7)
        graph = build_graph(Corpus(near), config)
        assert ("a", "b") in graph
        assert ("a", "c") not in graph

    @pytest.mark.parametrize("cutoff, linked", [(3, True), (2, True), (1, False), (0, False)])
    def test_location_date_links_only_up_to_all_pairs_cutoff(self, cutoff, linked):
        # Above the cutoff candidates come from phone and shingle blocks
        # only, so a shared location and date alone make no pair.
        from datetime import date

        corpus = Corpus(
            [
                doc("a", "alpha beta gamma", locations=["springfield"], posted=date(2024, 1, 1)),
                doc("b", "delta epsilon zeta", locations=["springfield"], posted=date(2024, 1, 2)),
            ]
        )
        graph = build_graph(corpus, GraphConfig(use_location_date=True, all_pairs_cutoff=cutoff))
        assert (("a", "b") in graph) is linked

    def test_blocking_matches_all_pairs(self):
        # above the cutoff, phone/shingle blocking must find the same edges
        docs = []
        for i in range(30):
            docs.append(doc(f"p{i:02d}", f"noise{i} filler{i}", phones=[f"55500000{i % 5:02d}"]))
        corpus = Corpus(docs)
        base = GraphConfig(tau_text=0.9)
        all_pairs = build_graph(corpus, base)
        blocked = build_graph(
            corpus,
            GraphConfig(tau_text=0.9, all_pairs_cutoff=0, rare_shingle_df_cap=10),
        )
        assert set(all_pairs.edges) == set(blocked.edges)


class TestKwikcluster:
    def test_edgeless_graph_singletons(self):
        graph = graph_from_edges(["a", "b", "c"], [])
        clustering = kwikcluster(graph, 0)
        assert sorted(c.size() for c in clustering) == [1, 1, 1]

    def test_complete_graph_single_cluster(self):
        nodes = list("abcdef")
        edges = list(itertools.combinations(nodes, 2))
        graph = graph_from_edges(nodes, edges)
        for seed in range(10):
            clustering = kwikcluster(graph, seed)
            assert len(clustering) == 1
            assert clustering.clusters[0].size() == len(nodes)

    def test_path_graph_pivot_at_a(self):
        graph = graph_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        # find a seed whose shuffled pivot order starts at "a"
        seed = next(s for s in range(100) if _first_pivot(graph, s) == "a")
        clustering = kwikcluster(graph, seed)
        assert _member_sets(clustering) == [("a", "b"), ("c",)]

    def test_determinism(self):
        rng = random.Random(7)
        nodes = [f"n{i}" for i in range(12)]
        edges = [pair for pair in itertools.combinations(nodes, 2) if rng.random() < 0.3]
        graph = graph_from_edges(nodes, edges)
        a = kwikcluster(graph, 123)
        b = kwikcluster(graph, 123)
        assert _member_sets(a) == _member_sets(b)

    def test_partition_exact(self):
        rng = random.Random(3)
        nodes = [f"n{i}" for i in range(15)]
        edges = [pair for pair in itertools.combinations(nodes, 2) if rng.random() < 0.4]
        graph = graph_from_edges(nodes, edges)
        clustering = kwikcluster(graph, 9)
        assert clustering.ids() == set(nodes)
        assert sum(clustering.sizes()) == len(nodes)

    def test_three_approximation_in_expectation(self):
        # smaller companion to the acceptance criterion: 30 graphs, 1000 seeds
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randrange(4, 8)
            nodes = [f"n{i}" for i in range(n)]
            edges = [p for p in itertools.combinations(nodes, 2) if rng.random() < 0.5]
            graph = graph_from_edges(nodes, edges)
            opt = brute_force_optimal_cost(nodes, edges)
            costs = [disagreement_cost(kwikcluster(graph, s), graph) for s in range(1000)]
            mean = sum(costs) / len(costs)
            var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
            se = (var / len(costs)) ** 0.5
            assert mean <= 3 * opt + 3 * se + 1e-9


def _first_pivot(graph, seed):
    order = sorted(graph.node_ids)
    random.Random(seed).shuffle(order)
    return order[0]


def _member_sets(clustering):
    return sorted(tuple(sorted(c.members)) for c in clustering.clusters)


class TestDisagreementCost:
    def test_singletons_on_edgeless_graph(self):
        graph = graph_from_edges(["a", "b"], [])
        clustering = Clustering.from_member_sets([{"a"}, {"b"}])
        assert disagreement_cost(clustering, graph) == 0

    def test_path_in_one_cluster(self):
        graph = graph_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
        clustering = Clustering.from_member_sets([{"a", "b", "c"}])
        assert disagreement_cost(clustering, graph) == 1

    def test_singletons_pay_every_edge(self):
        nodes = list("abcd")
        edges = list(itertools.combinations(nodes, 2))
        graph = graph_from_edges(nodes, edges)
        clustering = Clustering.from_member_sets([{n} for n in nodes])
        assert disagreement_cost(clustering, graph) == len(edges)


class TestConsensus:
    def test_self_consensus(self):
        clustering = Clustering.from_member_sets([{"a", "b"}, {"c"}])
        out = consensus([clustering], 1.0)
        assert _member_sets(out) == _member_sets(clustering)

    def test_unanimous_agreement(self):
        a = Clustering.from_member_sets([{"a", "b"}, {"c", "d"}])
        b = Clustering.from_member_sets([{"a", "b"}, {"c", "d"}])
        assert _member_sets(consensus([a, b], 1.0)) == _member_sets(a)

    def test_two_of_three_threshold_half(self):
        runs = [
            Clustering.from_member_sets([{"a", "b"}, {"c"}]),
            Clustering.from_member_sets([{"a", "b", "c"}]),
            Clustering.from_member_sets([{"a"}, {"b"}, {"c"}]),
        ]
        out = consensus(runs, 0.5)
        assert out.cluster_of["a"] == out.cluster_of["b"]

    def test_identity_on_k_copies(self):
        clustering = Clustering.from_member_sets([{"a", "b"}, {"c", "d", "e"}, {"f"}])
        out = consensus([clustering] * 5, 1.0)
        assert _member_sets(out) == _member_sets(clustering)

    def test_mismatched_ids_rejected(self):
        a = Clustering.from_member_sets([{"a", "b"}])
        b = Clustering.from_member_sets([{"a", "c"}])
        with pytest.raises(InputError):
            consensus([a, b], 1.0)


class TestRefine:
    def test_local_optimum_unchanged(self):
        graph = graph_from_edges(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        clustering = Clustering.from_member_sets([{"a", "b"}, {"c", "d"}])
        out = refine(clustering, graph, 5)
        assert _member_sets(out) == _member_sets(clustering)

    def test_singleton_merged_into_neighbor_cluster(self):
        nodes = list("abcd")
        edges = list(itertools.combinations(nodes, 2))
        graph = graph_from_edges(nodes, edges)
        start = Clustering.from_member_sets([{"a"}, {"b", "c", "d"}])
        out = refine(start, graph, 5)
        assert _member_sets(out) == [("a", "b", "c", "d")]
        assert disagreement_cost(out, graph) < disagreement_cost(start, graph)

    def test_empty_graph_singletons_unchanged(self):
        graph = graph_from_edges(["a", "b", "c"], [])
        clustering = Clustering.from_member_sets([{"a"}, {"b"}, {"c"}])
        out = refine(clustering, graph, 3)
        assert _member_sets(out) == _member_sets(clustering)

    def test_never_increases_cost(self):
        rng = random.Random(99)
        for trial in range(25):
            n = rng.randrange(4, 10)
            nodes = [f"n{i}" for i in range(n)]
            edges = [p for p in itertools.combinations(nodes, 2) if rng.random() < 0.5]
            graph = graph_from_edges(nodes, edges)
            start = kwikcluster(graph, trial)
            out = refine(start, graph, 4)
            assert disagreement_cost(out, graph) <= disagreement_cost(start, graph)


class TestAdjustedRand:
    def test_identical_partitions(self):
        clustering = Clustering.from_member_sets([{"a", "b"}, {"c"}])
        assert adjusted_rand(clustering, clustering) == pytest.approx(1.0)

    def test_disagreement_below_one(self):
        a = Clustering.from_member_sets([{"a", "b"}, {"c", "d"}])
        b = Clustering.from_member_sets([{"a", "c"}, {"b", "d"}])
        assert adjusted_rand(a, b) < 1.0


def test_clustering_round_trip(tmp_path):
    clustering = Clustering.from_member_sets([{"a", "b"}, {"c"}, {"d", "e", "f"}])
    path = tmp_path / "clusters.csv"
    write_clustering(clustering, path)
    loaded = read_clustering(path)
    assert _member_sets(loaded) == _member_sets(clustering)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=5), st.integers(0, 4)),
        unique_by=lambda pair: pair[0],
        min_size=1,
        max_size=20,
    )
)
def test_clustering_round_trip_is_exact(assignments):
    groups = defaultdict(set)
    for doc_id, group in assignments:
        groups[group].add(doc_id)
    clustering = Clustering.from_member_sets(groups.values())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clusters.csv"
        write_clustering(clustering, path)
        loaded = read_clustering(path)
    assert loaded.clusters == clustering.clusters


@pytest.mark.parametrize("header", ["foo,bar", "cluster_id,doc"])
def test_clustering_header_missing_columns_rejected(tmp_path, header):
    path = tmp_path / "clusters.csv"
    path.write_text(f"{header}\na,b\n")
    with pytest.raises(InputError):
        read_clustering(path)


def test_cluster_ids_are_min_member():
    clustering = Clustering.from_member_sets([{"z", "m"}, {"a", "q"}])
    assert sorted(c.id for c in clustering) == ["a", "m"]


def test_empty_cluster_rejected():
    with pytest.raises(InputError):
        Cluster(id="x", members=frozenset())
