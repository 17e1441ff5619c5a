"""Random and conditioned negative sampling."""

import pytest

from caserisk.bias import FeatureSpec, POSITIVE, NEGATIVE
from caserisk.clustering import Cluster, Clustering
from caserisk.corpus import Corpus, Document
from caserisk.errors import EmptyInputError, InputError, InsufficientPoolError
from caserisk.sampling import (
    DEFAULT_SIZE_BUCKETS,
    SOURCE_EXPERT,
    SOURCE_SAMPLED,
    LabeledCluster,
    cluster_feature_group,
    conditioned_negatives,
    random_negatives,
    read_labels,
    size_bucket,
    stratum_key,
    verify_alignment,
    write_labels,
)


def build_world(cluster_specs):
    """cluster_specs: list of (domain, n_docs); returns (corpus, clustering)."""
    documents = []
    member_sets = []
    for ci, (domain, n_docs) in enumerate(cluster_specs):
        ids = [f"c{ci:03d}-d{di:03d}" for di in range(n_docs)]
        member_sets.append(ids)
        documents.extend(
            Document(id=i, source_domain=domain, text=f"text {i}") for i in ids
        )
    return Corpus(documents), Clustering.from_member_sets(member_sets)


class TestSizeBucket:
    def test_default_bucket_labels(self):
        assert size_bucket(1) == "1"
        assert size_bucket(2) == "2-4"
        assert size_bucket(4) == "2-4"
        assert size_bucket(5) == "5-16"
        assert size_bucket(16) == "5-16"
        assert size_bucket(17) == "17-64"
        assert size_bucket(64) == "17-64"
        assert size_bucket(65) == "65+"
        assert size_bucket(5000) == "65+"


class TestClusterFeatureGroup:
    def test_majority_group(self):
        documents = [
            Document(id="a", source_domain="g1", text="t"),
            Document(id="b", source_domain="g1", text="t"),
            Document(id="c", source_domain="g2", text="t"),
        ]
        corpus = Corpus(documents)
        cluster = Cluster(id="a", members=frozenset("abc"))
        assert cluster_feature_group(cluster, corpus, FeatureSpec("domain")) == "g1"

    def test_tie_breaks_lexicographically(self):
        documents = [
            Document(id="a", source_domain="zeta", text="t"),
            Document(id="b", source_domain="alpha", text="t"),
        ]
        corpus = Corpus(documents)
        cluster = Cluster(id="a", members=frozenset("ab"))
        assert cluster_feature_group(cluster, corpus, FeatureSpec("domain")) == "alpha"


class TestRandomNegatives:
    def test_zero_draw(self):
        _, clustering = build_world([("g1", 2)] * 5)
        assert random_negatives(clustering, set(), 0, 1) == []

    def test_exhaustive_draw(self):
        _, clustering = build_world([("g1", 2)] * 6)
        exclude = {clustering.clusters[0].id}
        out = random_negatives(clustering, exclude, 5, 1)
        assert len(out) == 5
        assert all(lc.label == NEGATIVE and lc.source == SOURCE_SAMPLED for lc in out)
        assert exclude.isdisjoint({lc.cluster.id for lc in out})

    def test_deterministic(self):
        _, clustering = build_world([("g1", 2)] * 10)
        a = random_negatives(clustering, set(), 3, 42)
        b = random_negatives(clustering, set(), 3, 42)
        assert [lc.cluster.id for lc in a] == [lc.cluster.id for lc in b]

    def test_pool_too_small(self):
        _, clustering = build_world([("g1", 2)] * 3)
        with pytest.raises(InsufficientPoolError):
            random_negatives(clustering, set(), 4, 1)


def positives_of(clustering, ids):
    return [LabeledCluster(clustering.get(i), POSITIVE, SOURCE_EXPERT) for i in ids]


class TestConditionedNegatives:
    def test_single_stratum_draws_from_it(self):
        corpus, clustering = build_world([("g1", 3)] * 10 + [("g2", 3)] * 10)
        g1_ids = sorted(c.id for c in clustering if cluster_feature_group(c, corpus, FeatureSpec("domain")) == "g1")
        positives = positives_of(clustering, g1_ids[:4])
        out, plan = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 5, 3
        )
        assert len(out) == 5
        for lc in out:
            assert cluster_feature_group(lc.cluster, corpus, FeatureSpec("domain")) == "g1"
        assert plan.reallocated() == 0

    def test_single_stratum_matches_restricted_random(self):
        corpus, clustering = build_world([("g1", 3)] * 12)
        positive_ids = sorted(clustering.cluster_of.values())
        positives = positives_of(clustering, sorted({c.id for c in clustering})[:3])
        pool = sorted(c.id for c in clustering if c.id not in {lc.cluster.id for lc in positives})
        conditioned, _ = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 4, 17
        )
        randomized = random_negatives(clustering, {lc.cluster.id for lc in positives}, 4, 17)
        assert [lc.cluster.id for lc in conditioned] == [lc.cluster.id for lc in randomized]

    def test_proportional_quotas(self):
        corpus, clustering = build_world([("g1", 3)] * 6 + [("g2", 3)] * 6)
        ids_by_group = {"g1": [], "g2": []}
        for cluster in clustering:
            ids_by_group[cluster_feature_group(cluster, corpus, FeatureSpec("domain"))].append(cluster.id)
        positives = positives_of(clustering, ids_by_group["g1"][:2] + ids_by_group["g2"][:2])
        out, plan = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 8, 5
        )
        assert sorted(plan.target_counts.values()) == [4, 4]
        assert sum(plan.drawn_counts.values()) == 8

    def test_deficit_reallocated_and_reported(self):
        # only 2 non-positive g1 clusters but quota wants 4
        corpus, clustering = build_world([("g1", 3)] * 4 + [("g2", 3)] * 8)
        ids_by_group = {"g1": [], "g2": []}
        for cluster in clustering:
            ids_by_group[cluster_feature_group(cluster, corpus, FeatureSpec("domain"))].append(cluster.id)
        positives = positives_of(clustering, ids_by_group["g1"][:2])
        out, plan = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 4, 9
        )
        assert len(out) == 4
        assert plan.reallocated() == 2
        groups = [cluster_feature_group(lc.cluster, corpus, FeatureSpec("domain")) for lc in out]
        assert groups.count("g1") == 2 and groups.count("g2") == 2

    def test_total_pool_too_small(self):
        corpus, clustering = build_world([("g1", 2)] * 4)
        positives = positives_of(clustering, sorted({c.id for c in clustering})[:2])
        with pytest.raises(InsufficientPoolError) as err:
            conditioned_negatives(clustering, corpus, positives, [FeatureSpec("domain")], 5, 1)
        assert err.value.deficits

    def test_never_intersects_positives(self):
        corpus, clustering = build_world([("g1", 2)] * 10)
        positive_ids = sorted({c.id for c in clustering})[:4]
        positives = positives_of(clustering, positive_ids)
        out, _ = conditioned_negatives(clustering, corpus, positives, [FeatureSpec("domain")], 6, 2)
        assert set(positive_ids).isdisjoint({lc.cluster.id for lc in out})

    def test_never_draws_excluded(self):
        corpus, clustering = build_world([("g1", 2)] * 10)
        ids = sorted({c.id for c in clustering})
        positives = positives_of(clustering, ids[:2])
        out, _ = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 5, 2, exclude=ids[2:5]
        )
        assert sorted(lc.cluster.id for lc in out) == ids[5:]

    def test_determinism(self):
        corpus, clustering = build_world([("g1", 3)] * 8 + [("g2", 5)] * 8)
        positives = positives_of(clustering, sorted({c.id for c in clustering})[:4])
        a, _ = conditioned_negatives(clustering, corpus, positives, [FeatureSpec("domain")], 6, 11)
        b, _ = conditioned_negatives(clustering, corpus, positives, [FeatureSpec("domain")], 6, 11)
        assert [lc.cluster.id for lc in a] == [lc.cluster.id for lc in b]

    def test_quotas_sum_to_n(self):
        corpus, clustering = build_world(
            [("g1", 1)] * 5 + [("g1", 3)] * 5 + [("g2", 7)] * 5 + [("g2", 20)] * 5
        )
        all_ids = sorted({c.id for c in clustering})
        positives = positives_of(clustering, all_ids[::4][:5])
        _, plan = conditioned_negatives(clustering, corpus, positives, [FeatureSpec("domain")], 7, 13)
        assert sum(plan.target_counts.values()) == 7

    def test_empty_positives_rejected(self):
        corpus, clustering = build_world([("g1", 2)] * 4)
        with pytest.raises(EmptyInputError):
            conditioned_negatives(clustering, corpus, [], [FeatureSpec("domain")], 2, 1)


class TestVerifyAlignment:
    def test_identical_distributions_pass(self):
        corpus, clustering = build_world([("g1", 4)] * 10 + [("g2", 4)] * 10)
        by_group = {"g1": [], "g2": []}
        for cluster in clustering:
            by_group[cluster_feature_group(cluster, corpus, FeatureSpec("domain"))].append(cluster.id)
        positives = positives_of(clustering, by_group["g1"][:3] + by_group["g2"][:3])
        negatives = [
            LabeledCluster(clustering.get(i), NEGATIVE, SOURCE_SAMPLED)
            for i in by_group["g1"][3:6] + by_group["g2"][3:6]
        ]
        report = verify_alignment(corpus, positives, negatives, [FeatureSpec("domain")])
        assert report.mitigation_successful is True

    def test_skewed_random_sampling_flagged(self):
        corpus, clustering = build_world([("g1", 8)] * 12 + [("g2", 8)] * 12)
        by_group = {"g1": [], "g2": []}
        for cluster in clustering:
            by_group[cluster_feature_group(cluster, corpus, FeatureSpec("domain"))].append(cluster.id)
        positives = positives_of(clustering, by_group["g1"][:8])
        negatives = [
            LabeledCluster(clustering.get(i), NEGATIVE, SOURCE_SAMPLED)
            for i in by_group["g2"][:8]
        ]
        report = verify_alignment(corpus, positives, negatives, [FeatureSpec("domain")])
        assert report.mitigation_successful is False
        assert "domain" in report.flagged_features


class TestLabelsIO:
    def test_round_trip_and_expert_precedence(self, tmp_path):
        _, clustering = build_world([("g1", 2)] * 4)
        ids = sorted({c.id for c in clustering})
        labeled = [
            LabeledCluster(clustering.get(ids[0]), POSITIVE, SOURCE_EXPERT),
            LabeledCluster(clustering.get(ids[1]), NEGATIVE, SOURCE_SAMPLED),
        ]
        path = tmp_path / "labels.csv"
        write_labels(labeled, path)
        loaded, missing = read_labels(path, clustering)
        assert missing == []
        assert {(lc.cluster.id, lc.label, lc.source) for lc in loaded} == {
            (ids[0], POSITIVE, SOURCE_EXPERT),
            (ids[1], NEGATIVE, SOURCE_SAMPLED),
        }

    def test_sampled_never_overwrites_expert(self, tmp_path):
        _, clustering = build_world([("g1", 2)] * 2)
        ids = sorted({c.id for c in clustering})
        path = tmp_path / "labels.csv"
        path.write_text(
            "cluster_id,label,source\n"
            f"{ids[0]},positive,expert\n"
            f"{ids[0]},negative,sampled-noisy\n"
        )
        loaded, _ = read_labels(path, clustering)
        assert len(loaded) == 1
        assert loaded[0].label == POSITIVE and loaded[0].source == SOURCE_EXPERT

    @pytest.mark.parametrize("header", ["foo,bar", "cluster_id,source"])
    def test_header_missing_columns_rejected(self, tmp_path, header):
        _, clustering = build_world([("g1", 2)] * 2)
        path = tmp_path / "labels.csv"
        path.write_text(f"{header}\nx,y\n")
        with pytest.raises(InputError):
            read_labels(path, clustering)

    def test_unknown_cluster_reported(self, tmp_path):
        _, clustering = build_world([("g1", 2)] * 2)
        path = tmp_path / "labels.csv"
        path.write_text("cluster_id,label,source\nghost,positive,expert\n")
        loaded, missing = read_labels(path, clustering)
        assert loaded == [] and missing == ["ghost"]


def test_stratum_key_shape():
    corpus, clustering = build_world([("g1", 6)])
    cluster = clustering.clusters[0]
    key = stratum_key(cluster, corpus, [FeatureSpec("domain")], DEFAULT_SIZE_BUCKETS)
    assert key == ("g1", "5-16")


def test_conditioned_sampling_mitigates_partial_skew():
    # Partial domain skew with singleton clusters (so documents are the
    # sampling unit): the post-mitigation re-test should accept
    # independence in >= 90% of seeds.
    from caserisk.bias import chi_squared_test, contingency
    from caserisk.synth import SynthConfig, generate

    passes = 0
    runs = 40
    for seed in range(runs):
        result = generate(
            SynthConfig(
                num_clusters=400,
                positive_fraction=0.25,
                domain_skew=0.9,
                size_rho=1.0,
                seed=seed,
            )
        )
        positives = [
            LabeledCluster(result.clustering.get(cid), POSITIVE, SOURCE_EXPERT)
            for cid in result.positive_ids()
        ]
        negatives, _ = conditioned_negatives(
            result.clustering,
            result.corpus,
            positives,
            [FeatureSpec("domain")],
            len(positives),
            seed + 500,
        )
        table = contingency(result.corpus, positives + negatives, FeatureSpec("domain"))
        if chi_squared_test(table, alpha=0.05).p_value >= 0.05:
            passes += 1
    assert passes >= 0.9 * runs
