"""Random and conditioned negative sampling."""

import csv
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caserisk.bias import FeatureSpec, POSITIVE, NEGATIVE, column_sums, group_counts, majority_groups
from caserisk.clustering import Cluster, Clustering
from caserisk.corpus import Corpus, Document
from caserisk.errors import EmptyInputError, InputError, InsufficientPoolError
from caserisk.sampling import (
    DEFAULT_SIZE_BUCKETS,
    SOURCE_EXPERT,
    SOURCE_SAMPLED,
    LabeledCluster,
    SamplingPlan,
    _largest_remainder,
    conditioned_negatives,
    random_negatives,
    read_labels,
    size_bucket,
    stratum_keys,
    verify_alignment,
    write_labels,
)


def domain_group(cluster, corpus):
    """The cluster's majority domain."""
    return majority_groups(*group_counts([cluster], corpus, FeatureSpec("domain")))[0]


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
        assert domain_group(cluster, corpus) == "g1"

    def test_tie_breaks_lexicographically(self):
        documents = [
            Document(id="a", source_domain="zeta", text="t"),
            Document(id="b", source_domain="alpha", text="t"),
        ]
        corpus = Corpus(documents)
        cluster = Cluster(id="a", members=frozenset("ab"))
        assert domain_group(cluster, corpus) == "alpha"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["g1", "g2", "g3", "g4"]), min_size=1, max_size=12))
    def test_majority_of_per_document_groups(self, groups):
        documents = [Document(id=f"d{i:02d}", source_domain=g, text="t") for i, g in enumerate(groups)]
        cluster = Cluster(id="d00", members=frozenset(d.id for d in documents))
        per_doc = Counter(groups)
        top = max(per_doc.values())
        expected = sorted(g for g in per_doc if per_doc[g] == top)[0]
        assert domain_group(cluster, Corpus(documents)) == expected


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
        g1_ids = sorted(c.id for c in clustering if domain_group(c, corpus) == "g1")
        positives = positives_of(clustering, g1_ids[:4])
        out, plan = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 5, 3
        )
        assert len(out) == 5
        for lc in out:
            assert domain_group(lc.cluster, corpus) == "g1"
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
            ids_by_group[domain_group(cluster, corpus)].append(cluster.id)
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
            ids_by_group[domain_group(cluster, corpus)].append(cluster.id)
        positives = positives_of(clustering, ids_by_group["g1"][:2])
        out, plan = conditioned_negatives(
            clustering, corpus, positives, [FeatureSpec("domain")], 4, 9
        )
        assert len(out) == 4
        assert plan.reallocated() == 2
        groups = [domain_group(lc.cluster, corpus) for lc in out]
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


def reference_group_counts(cluster, corpus, feature):
    """The one-cluster count that ``bias.group_counts`` replaced, kept as
    its reference."""
    return Counter(feature.group_of(doc) for doc in corpus.members(cluster.members))


def reference_majority_group(counts):
    top = max(counts.values())
    return min(g for g, c in counts.items() if c == top)


def reference_column_sums(per_cluster, columns, col_labels):
    """Per-cluster counts summed per column; a None column leaves its
    cluster out, as the callers once did by passing a subset."""
    index = {label: j for j, label in enumerate(col_labels)}
    sums = {}
    for counts, column in zip(per_cluster, columns, strict=True):
        if column is None:
            continue
        for group, n in counts.items():
            sums.setdefault(group, [0] * len(index))[index[column]] += n
    return dict(sorted(sums.items()))


def reference_stratum_key(cluster, corpus, features, size_buckets=DEFAULT_SIZE_BUCKETS):
    groups = tuple(reference_majority_group(reference_group_counts(cluster, corpus, f)) for f in features)
    return groups + (size_bucket(cluster.size(), size_buckets),)


# Values that differ only in a trailing NUL must stay two groups.
GROUP_VALUES = ["a", "a\x00", "b", "c"]
COUNTED_FEATURES = [
    FeatureSpec("domain"),
    FeatureSpec("location"),
    FeatureSpec("lang"),
    FeatureSpec("domain", grouping={"a": "first", "a\x00": "first", "b": "second"}),
]


@st.composite
def counted_worlds(draw):
    """A corpus of documents with a domain, maybe a location and maybe a
    "lang" extra, drawn from few values so that majorities tie; a
    clustering of it; and some of its clusters, in any order, each with a
    column or None."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    values = st.sampled_from(GROUP_VALUES)
    documents, member_sets = [], []
    for ci, size in enumerate(sizes):
        ids = [f"c{ci:02d}-d{di}" for di in range(size)]
        member_sets.append(ids)
        for doc_id in ids:
            domain, locations = draw(values), tuple(draw(st.lists(values, max_size=2)))
            extras = draw(st.dictionaries(st.just("lang"), values))
            documents.append(Document(id=doc_id, source_domain=domain, text="t", locations=locations, extras=extras))
    clustering = Clustering.from_member_sets(member_sets)
    clusters = draw(st.permutations(clustering.clusters))[: draw(st.integers(0, len(sizes)))]
    columns = draw(st.lists(st.sampled_from(["x", "y", "z", None]), min_size=len(clusters), max_size=len(clusters)))
    return Corpus(documents), clusters, columns


class TestGroupCountsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(counted_worlds(), st.sampled_from(COUNTED_FEATURES))
    def test_counts_majorities_and_sums_equal_the_reference(self, world, feature):
        corpus, clusters, columns = world
        per_cluster = [reference_group_counts(c, corpus, feature) for c in clusters]
        groups, counts = group_counts(clusters, corpus, feature)
        assert groups == sorted(set().union(*per_cluster))
        assert counts.shape == (len(clusters), len(groups)) and counts.data.dtype == np.int64
        for i, expected in enumerate(per_cluster):
            row = slice(counts.indptr[i], counts.indptr[i + 1])
            assert np.all(np.diff(counts.indices[row]) > 0)
            assert {groups[j]: n for j, n in zip(counts.indices[row].tolist(), counts.data[row].tolist())} == expected
        assert majority_groups(groups, counts) == [reference_majority_group(c) for c in per_cluster]
        col_labels = ("x", "y", "z")
        assert column_sums(groups, counts, columns, col_labels) == reference_column_sums(per_cluster, columns, col_labels)

    @settings(max_examples=300, deadline=None)
    @given(counted_worlds(), st.lists(st.sampled_from(COUNTED_FEATURES), max_size=3))
    def test_stratum_keys_equal_the_reference(self, world, features):
        corpus, clusters, _ = world
        expected = [reference_stratum_key(c, corpus, features) for c in clusters]
        assert stratum_keys(clusters, corpus, features) == expected

    def test_trailing_nul_is_its_own_group(self):
        documents = [Document(id=f"d{i}", source_domain=d, text="t") for i, d in enumerate(["a", "a\x00", "a\x00"])]
        corpus = Corpus(documents)
        clusters = [Cluster(id="d0", members=frozenset(["d0", "d1", "d2"])), Cluster(id="d1", members=frozenset(["d0"]))]
        groups, counts = group_counts(clusters, corpus, FeatureSpec("domain"))
        assert groups == ["a", "a\x00"]
        assert majority_groups(groups, counts) == ["a\x00", "a"]
        assert column_sums(groups, counts, ["x", "x"], ("x",)) == {"a": [2], "a\x00": [2]}

    def test_empty_cluster_sequence(self):
        corpus, clustering = build_world([("g1", 2)] * 4)
        groups, counts = group_counts([], corpus, FeatureSpec("domain"))
        assert groups == [] and counts.shape == (0, 0)
        assert majority_groups(groups, counts) == []
        assert column_sums(groups, counts, [], ("x", "y")) == {}
        assert stratum_keys([], corpus, [FeatureSpec("domain")]) == []
        # Every cluster that is not a positive is excluded: an empty pool.
        ids = [c.id for c in clustering]
        positives = positives_of(clustering, ids[:1])
        out, plan = conditioned_negatives(clustering, corpus, positives, [FeatureSpec("domain")], 0, 1, exclude=ids[1:])
        assert out == [] and plan.drawn_counts == {}


def reference_conditioned_negatives(
    clustering, corpus, positives, features, n, seed, size_buckets=DEFAULT_SIZE_BUCKETS, exclude=()
):
    """The round-based sampler that ``conditioned_negatives`` replaced,
    kept as its reference: it draws each round's quotas and re-quota's the
    deficit over the strata with supply left until ``n`` are drawn."""
    excluded = {lc.cluster.id for lc in positives} | set(exclude)
    pos_strata = Counter(reference_stratum_key(lc.cluster, corpus, features, size_buckets) for lc in positives)
    pools = defaultdict(list)
    for cluster in clustering:
        if cluster.id not in excluded:
            pools[reference_stratum_key(cluster, corpus, features, size_buckets)].append(cluster.id)
    for pool in pools.values():
        pool.sort()
    plan = SamplingPlan(seed=seed)
    if n == 0:
        return [], plan
    weights = {k: float(v) for k, v in pos_strata.items()}
    quotas = _largest_remainder(n, weights)
    assert sum(len(p) for p in pools.values()) >= n
    plan.target_counts = dict(quotas)
    rng = Random(seed)
    chosen = []
    pending = dict(quotas)
    while True:
        for key in sorted(pending):
            want = pending[key]
            pool = pools.get(key, [])
            take = min(want, len(pool))
            if take > 0:
                picked = rng.sample(pool, take)
                picked_set = set(picked)
                pools[key] = [c for c in pool if c not in picked_set]
                chosen.extend(picked)
                plan.drawn_counts[key] = plan.drawn_counts.get(key, 0) + take
            if want > take:
                plan.deficits[key] = plan.deficits.get(key, 0) + (want - take)
        deficit = n - len(chosen)
        if deficit == 0:
            break
        available = {k: p for k, p in pools.items() if p}
        weighted = {k: weights.get(k, 0.0) for k in available}
        if sum(weighted.values()) <= 0:
            weighted = {k: float(len(p)) for k, p in available.items()}
        pending = _largest_remainder(deficit, weighted)
        pending = {k: min(v, len(pools[k])) for k, v in pending.items() if v > 0}
        if sum(pending.values()) < deficit:
            leftover = deficit - sum(pending.values())
            for k in sorted(available, key=lambda k: (-len(pools[k]), k)):
                room = len(pools[k]) - pending.get(k, 0)
                if room <= 0:
                    continue
                add = min(room, leftover)
                pending[k] = pending.get(k, 0) + add
                leftover -= add
                if leftover == 0:
                    break
    return chosen, plan


@st.composite
def sampling_worlds(draw):
    """A corpus and clustering over two features (domain and a "lang"
    extra), with positives, exclusions, a feasible n and a seed."""
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from(["g1", "g2", "g3"]), st.sampled_from(["en", "es"]), st.integers(1, 20)),
            min_size=2,
            max_size=30,
        )
    )
    documents, member_sets = [], []
    for ci, (domain, lang, size) in enumerate(specs):
        ids = [f"c{ci:03d}-d{di:03d}" for di in range(size)]
        member_sets.append(ids)
        documents.extend(Document(id=i, source_domain=domain, text="t", extras={"lang": lang}) for i in ids)
    clustering = Clustering.from_member_sets(member_sets)
    ids = [c.id for c in clustering]
    roles = draw(st.lists(st.sampled_from(["pool", "pool", "positive", "exclude"]), min_size=len(ids), max_size=len(ids)))
    positive_ids = [cid for cid, role in zip(ids, roles) if role == "positive"] or ids[:1]
    exclude = [cid for cid, role in zip(ids, roles) if role == "exclude" and cid not in positive_ids]
    pool_size = len(ids) - len(positive_ids) - len(exclude)
    n = draw(st.integers(0, pool_size))
    features = draw(st.sampled_from([[FeatureSpec("domain")], [FeatureSpec("domain"), FeatureSpec("lang")]]))
    return Corpus(documents), clustering, positives_of(clustering, positive_ids), exclude, features, n, draw(st.integers(0, 2**16))


class TestConditionedAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(sampling_worlds())
    def test_plan_equals_the_reference(self, world):
        corpus, clustering, positives, exclude, features, n, seed = world
        _, plan = conditioned_negatives(clustering, corpus, positives, features, n, seed, exclude=exclude)
        _, ref = reference_conditioned_negatives(clustering, corpus, positives, features, n, seed, exclude=exclude)
        assert plan.target_counts == ref.target_counts
        assert plan.drawn_counts == ref.drawn_counts
        assert plan.deficits == ref.deficits

    @settings(max_examples=300, deadline=None)
    @given(sampling_worlds())
    def test_draws_equal_the_reference_when_no_stratum_runs_dry(self, world):
        corpus, clustering, positives, exclude, features, n, seed = world
        out, plan = conditioned_negatives(clustering, corpus, positives, features, n, seed, exclude=exclude)
        ref, _ = reference_conditioned_negatives(clustering, corpus, positives, features, n, seed, exclude=exclude)
        if not plan.deficits:
            assert [lc.cluster.id for lc in out] == ref

    @settings(max_examples=300, deadline=None)
    @given(sampling_worlds())
    def test_draws_lie_in_their_own_stratum_pool(self, world):
        corpus, clustering, positives, exclude, features, n, seed = world
        out, plan = conditioned_negatives(clustering, corpus, positives, features, n, seed, exclude=exclude)
        barred = {lc.cluster.id for lc in positives} | set(exclude)
        drawn = [lc.cluster.id for lc in out]
        assert len(drawn) == len(set(drawn)) == n
        assert barred.isdisjoint(drawn)
        assert all(lc.label == NEGATIVE and lc.source == SOURCE_SAMPLED for lc in out)
        strata = Counter(stratum_keys([lc.cluster for lc in out], corpus, features))
        assert dict(strata) == plan.drawn_counts


class TestVerifyAlignment:
    def test_identical_distributions_pass(self):
        corpus, clustering = build_world([("g1", 4)] * 10 + [("g2", 4)] * 10)
        by_group = {"g1": [], "g2": []}
        for cluster in clustering:
            by_group[domain_group(cluster, corpus)].append(cluster.id)
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
            by_group[domain_group(cluster, corpus)].append(cluster.id)
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

    @pytest.mark.parametrize(
        "row, error", [("{cid},maybe,expert", "bad label 'maybe'"), ("nosuch,positive,guessed", "bad source 'guessed'")]
    )
    def test_bad_value_names_the_file_and_line(self, tmp_path, row, error):
        _, clustering = build_world([("g1", 2)] * 2)
        cid = min(c.id for c in clustering)
        path = tmp_path / "labels.csv"
        path.write_text(f"cluster_id,label,source\n{cid},positive,expert\n{row.format(cid=cid)}\n")
        with pytest.raises(InputError) as excinfo:
            read_labels(path, clustering)
        assert str(excinfo.value) == f"{path}:3: {error}"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from([POSITIVE, NEGATIVE]), st.sampled_from([SOURCE_EXPERT, SOURCE_SAMPLED])),
            unique_by=lambda row: row[0],
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_gives_the_sorted_list(self, rows, rng):
        _, clustering = build_world([("g1", 1 + i % 3) for i in range(8)])
        clusters = list(clustering)
        labeled = [LabeledCluster(clusters[i], label, source) for i, label, source in rows]
        rng.shuffle(labeled)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.csv"
            write_labels(labeled, path)
            loaded, missing = read_labels(path, clustering)
        assert missing == []
        assert loaded == sorted(labeled, key=lambda lc: lc.cluster.id)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["c000-d000", "c001-d000", "c002-d000", "ghost"]),
                st.sampled_from([POSITIVE, NEGATIVE]),
                st.sampled_from([SOURCE_EXPERT, SOURCE_SAMPLED, ""]),
            ),
            max_size=12,
        )
    )
    def test_duplicate_rows_resolve_once_and_expert_rows_stay(self, rows):
        _, clustering = build_world([("g1", 1)] * 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["cluster_id", "label", "source"])
                writer.writerows(rows)
            loaded, missing = read_labels(path, clustering)
        ids = [lc.cluster.id for lc in loaded]
        assert ids == sorted({cid for cid, _, _ in rows if cid != "ghost"})
        assert missing == [cid for cid, _, _ in rows if cid == "ghost"]
        for lc in loaded:
            own = [(label, source or SOURCE_EXPERT) for cid, label, source in rows if cid == lc.cluster.id]
            expert_labels = {label for label, source in own if source == SOURCE_EXPERT}
            if expert_labels:
                assert lc.source == SOURCE_EXPERT and lc.label in expert_labels
            else:
                assert (lc.label, lc.source) in own

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
    keys = stratum_keys([cluster], corpus, [FeatureSpec("domain")], DEFAULT_SIZE_BUCKETS)
    assert keys == [("g1", "5-16")]


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
