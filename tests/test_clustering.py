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
    shingles,
    text_similarity,
    write_clustering,
)
from caserisk.corpus import Corpus, Document
from caserisk.errors import InputError
from caserisk.synth import SynthConfig, generate


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

        # Jaccard 2/4 between any two texts reaches tau_text / 2 = 0.25.
        near = [
            doc("a", "one two three four", locations=["springfield"], posted=date(2024, 1, 1)),
            doc("b", "one two three five", locations=["springfield"], posted=date(2024, 1, 5)),
            doc("c", "one two three six", locations=["springfield"], posted=date(2024, 3, 1)),
        ]
        config = GraphConfig(use_phones=False, use_text=False, use_location_date=True, date_window_days=7)
        graph = build_graph(Corpus(near), config)
        assert ("a", "b") in graph
        assert ("a", "c") not in graph

    @pytest.mark.parametrize("size", [2, 1200])
    @pytest.mark.parametrize("text_b, linked", [("w1 w4", True), ("w1 w4 w5", False)])
    def test_location_date_needs_half_tau_text_at_every_size(self, size, text_b, linked):
        # Against "w1 w2 w3", "w1 w4" has Jaccard 1/4, which reaches
        # tau_text / 2 = 0.25, and "w1 w4 w5" has 1/5, which does not.
        # Fillers share nothing with either, so only the corpus size moves.
        from datetime import date

        pair = [
            doc("a", "w1 w2 w3", locations=["springfield"], posted=date(2024, 1, 1)),
            doc("b", text_b, locations=["springfield"], posted=date(2024, 1, 2)),
        ]
        fillers = [doc(f"f{k:04d}", f"filler{k} pad{k}") for k in range(size - 2)]
        config = GraphConfig(tau_text=0.5, shingle_len=1, use_location_date=True)
        graph = build_graph(Corpus(pair + fillers), config)
        expected = {("a", "b"): frozenset({"location-date"})} if linked else {}
        assert graph.edges == expected

    def test_text_threshold_reached_in_float(self):
        # 7 of 25 shingles: 7 / 25 >= 0.28 holds in float, though 0.28 * 25
        # is 7.000000000000001, so a prefix cut from its ceiling misses b.
        words = [f"w{k}" for k in range(25)]
        corpus = Corpus([doc("a", " ".join(words)), doc("b", " ".join(words[-7:]))])
        graph = build_graph(corpus, GraphConfig(tau_text=0.28, shingle_len=1))
        assert graph.edges == {("a", "b"): frozenset({"text-shingle"})}

    def test_least_subnormal_tau_needs_a_shared_shingle(self):
        # Half of 5e-324 rounds to 0.0; the location-date threshold is
        # tau_text / 2 exactly, so texts with no shared shingle stay apart.
        from datetime import date

        corpus = Corpus(
            [
                doc("a", "alpha beta", locations=["springfield"], posted=date(2024, 1, 1)),
                doc("b", "gamma delta", locations=["springfield"], posted=date(2024, 1, 1)),
                doc("c", "alpha zeta", locations=["springfield"], posted=date(2024, 1, 1)),
            ]
        )
        graph = build_graph(corpus, GraphConfig(tau_text=5e-324, shingle_len=1, use_location_date=True))
        assert graph.edges == {("a", "c"): frozenset({"text-shingle", "location-date"})}

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, float("nan")])
    def test_tau_text_outside_unit_interval_rejected(self, tau):
        # At 0 every pair would reach it, shared shingle or not.
        with pytest.raises(InputError):
            build_graph(Corpus([doc("a"), doc("b")]), GraphConfig(tau_text=tau))

    def test_phone_listed_twice_links_once(self):
        # Phone pairs come from the phone matrix's products, where a
        # repeated phone must not pair a document with itself.
        corpus = Corpus(
            [doc("a", phones=["5550001111", "5550001111"]), doc("b", phones=["5550001111"])]
        )
        graph = build_graph(corpus, GraphConfig(use_text=False))
        assert graph.edges == {("a", "b"): frozenset({"phone-match"})}

    def test_blocking_matches_all_pairs(self):
        # Phone and prefix candidates give the edges of every pair compared
        # by the rule, on a synthetic corpus with near-duplicate texts.
        result = generate(
            SynthConfig(num_clusters=40, vocab_size=60, doc_tokens=12, duplication_rate=0.3, seed=3)
        )
        corpus = result.corpus
        ids = sorted(corpus.ids())
        sets = {doc_id: shingles(corpus.get(doc_id).text, 2) for doc_id in ids}
        for tau in (0.05, 0.28, 0.5, 1.0):
            config = GraphConfig(tau_text=tau, use_location_date=True, date_window_days=30)
            expected = {}
            for k, a_id in enumerate(ids):
                a = corpus.get(a_id)
                for b_id in ids[k + 1 :]:
                    b = corpus.get(b_id)
                    shared = len(sets[a_id] & sets[b_id])
                    similarity = shared / (len(sets[a_id]) + len(sets[b_id]) - shared)
                    signals = set()
                    if set(a.phones) & set(b.phones):
                        signals.add("phone-match")
                    if similarity >= tau:
                        signals.add("text-shingle")
                    if (
                        set(a.locations) & set(b.locations)
                        and abs((a.posted_date - b.posted_date).days) <= 30
                        and 2 * similarity >= tau
                    ):
                        signals.add("location-date")
                    if signals:
                        expected[(a_id, b_id)] = frozenset(signals)
            assert build_graph(corpus, config).edges == expected


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


def test_document_in_two_clusters_names_the_file_and_line(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("cluster_id,document_id\na,a\na,b\na,b\nc,c\nc,b\n")
    with pytest.raises(InputError) as excinfo:
        read_clustering(path)
    assert str(excinfo.value) == f"{path}:6: document 'b' in two clusters"


def test_cluster_ids_are_min_member():
    clustering = Clustering.from_member_sets([{"z", "m"}, {"a", "q"}])
    assert sorted(c.id for c in clustering) == ["a", "m"]


def test_empty_cluster_rejected():
    with pytest.raises(InputError):
        Cluster(id="x", members=frozenset())
