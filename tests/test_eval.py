"""Splits, conditioned folds, AUC, and cross-validation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caserisk.bias import (
    NEGATIVE,
    POSITIVE,
    ContingencyTable,
    FeatureSpec,
    TestResult,
    chi_squared_test,
)
from caserisk.clustering import Cluster
from caserisk.corpus import Corpus, Document
from caserisk.errors import DegenerateTableError, InputError, UndefinedMetricError, UnsplittableError
from caserisk.evaluate import cross_validate, make_folds, roc_auc, roc_curve, split
from caserisk.model import ClusterTerms, TrainConfig
from caserisk.sampling import SOURCE_EXPERT, SOURCE_SAMPLED, LabeledCluster


def build_labeled(spec, text_fn=None):
    """spec: list of (label, domain, n_docs); returns (corpus, labeled)."""
    documents = []
    labeled = []
    for ci, (label, domain, n_docs) in enumerate(spec):
        ids = [f"c{ci:03d}-d{di:03d}" for di in range(n_docs)]
        for i in ids:
            text = text_fn(label, i) if text_fn else f"filler {i}"
            documents.append(Document(id=i, source_domain=domain, text=text))
        cluster = Cluster(id=min(ids), members=frozenset(ids))
        source = SOURCE_EXPERT if label == POSITIVE else SOURCE_SAMPLED
        labeled.append(LabeledCluster(cluster, label, source))
    return Corpus(documents), labeled


def trapezoid(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area


class TestSplit:
    def test_fraction_arithmetic(self):
        _, labeled = build_labeled([(POSITIVE, "g", 2)] * 5 + [(NEGATIVE, "g", 2)] * 5)
        train_side, test_side = split(labeled, 0.2, seed=0)
        assert len(test_side) == 2 and len(train_side) == 8

    def test_sides_disjoint(self):
        _, labeled = build_labeled([(POSITIVE, "g", 3)] * 4 + [(NEGATIVE, "g", 3)] * 6)
        train_side, test_side = split(labeled, 0.3, seed=1)
        train_ids = {lc.cluster.id for lc in train_side}
        test_ids = {lc.cluster.id for lc in test_side}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {lc.cluster.id for lc in labeled}

    def test_document_level_disjoint(self):
        _, labeled = build_labeled([(POSITIVE, "g", 4)] * 3 + [(NEGATIVE, "g", 4)] * 3)
        train_side, test_side = split(labeled, 0.34, seed=2)
        train_docs = {d for lc in train_side for d in lc.cluster.members}
        test_docs = {d for lc in test_side for d in lc.cluster.members}
        assert train_docs.isdisjoint(test_docs)

    def test_deterministic(self):
        _, labeled = build_labeled([(POSITIVE, "g", 2)] * 6 + [(NEGATIVE, "g", 2)] * 6)
        a = split(labeled, 0.25, seed=9)
        b = split(labeled, 0.25, seed=9)
        assert [lc.cluster.id for lc in a[1]] == [lc.cluster.id for lc in b[1]]

    def test_both_classes_on_both_sides(self):
        _, labeled = build_labeled([(POSITIVE, "g", 2)] * 3 + [(NEGATIVE, "g", 2)] * 7)
        train_side, test_side = split(labeled, 0.3, seed=3)
        for side in (train_side, test_side):
            assert {lc.label for lc in side} == {POSITIVE, NEGATIVE}

    def test_tiny_class_unsplittable(self):
        _, labeled = build_labeled([(POSITIVE, "g", 2)] + [(NEGATIVE, "g", 2)] * 5)
        with pytest.raises(UnsplittableError):
            split(labeled, 0.2, seed=0)


class TestRocAuc:
    def test_perfect_separation(self):
        auc, _ = roc_auc([(0.9, POSITIVE), (0.8, POSITIVE), (0.1, NEGATIVE)])
        assert auc == 1.0

    def test_half_ordered_pairs(self):
        auc, _ = roc_auc([(0.9, POSITIVE), (0.8, NEGATIVE), (0.1, POSITIVE)])
        assert auc == 0.5

    def test_all_ties(self):
        auc, _ = roc_auc([(0.5, POSITIVE), (0.5, NEGATIVE), (0.5, POSITIVE), (0.5, NEGATIVE)])
        assert auc == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([(0.5, POSITIVE), (0.4, POSITIVE)])

    def test_matches_trapezoidal_integration(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(2, 50)
            labels = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in range(n)]
            if POSITIVE not in labels:
                labels[0] = POSITIVE
            if NEGATIVE not in labels:
                labels[-1] = NEGATIVE
            if rng.random() < 0.5:
                values = [rng.random() for _ in range(n)]
            else:
                values = [rng.randrange(4) / 3.0 for _ in range(n)]
            auc, points = roc_auc(list(zip(values, labels)))
            assert abs(auc - trapezoid(points)) < 1e-9

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(23)
        values = [rng.random() for _ in range(40)]
        labels = [POSITIVE if rng.random() < 0.4 else NEGATIVE for _ in range(40)]
        labels[0], labels[1] = POSITIVE, NEGATIVE
        base, _ = roc_auc(list(zip(values, labels)))
        squashed, _ = roc_auc([(math.tanh(3 * v) , l) for v, l in zip(values, labels)])
        assert base == pytest.approx(squashed, abs=1e-12)

    def test_roc_endpoints_and_monotone(self):
        rng = random.Random(29)
        values = [rng.randrange(6) / 5.0 for _ in range(30)]
        labels = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in range(30)]
        labels[0], labels[1] = POSITIVE, NEGATIVE
        _, points = roc_auc(list(zip(values, labels)))
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 >= x0 and y1 >= y0

    def test_roc_curve_thresholds_descend(self):
        points = roc_curve([(0.2, POSITIVE), (0.8, NEGATIVE), (0.5, POSITIVE)])
        thresholds = [t for t, _, _ in points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert thresholds[0] == math.inf


class TestMakeFolds:
    def test_balanced_strata_pass_first_attempt(self):
        corpus, labeled = build_labeled(
            [(POSITIVE, "g1", 3)] * 6
            + [(POSITIVE, "g2", 3)] * 6
            + [(NEGATIVE, "g1", 3)] * 6
            + [(NEGATIVE, "g2", 3)] * 6
        )
        plan = make_folds(corpus, labeled, 3, [FeatureSpec("domain")], seed=0)
        assert plan.flagged() == []

    def test_every_cluster_in_exactly_one_fold(self):
        corpus, labeled = build_labeled([(POSITIVE, "g", 2)] * 7 + [(NEGATIVE, "g", 2)] * 9)
        plan = make_folds(corpus, labeled, 4, seed=1)
        assert set(plan.assignment) == {lc.cluster.id for lc in labeled}
        assert set(plan.assignment.values()) <= set(range(4))

    def test_no_document_in_two_folds(self):
        corpus, labeled = build_labeled([(POSITIVE, "g", 5)] * 4 + [(NEGATIVE, "g", 5)] * 4)
        plan = make_folds(corpus, labeled, 2, seed=2)
        seen = {}
        for lc in labeled:
            fold = plan.assignment[lc.cluster.id]
            for doc_id in lc.cluster.members:
                assert doc_id not in seen
                seen[doc_id] = fold

    def test_each_fold_has_both_classes_at_boundary(self):
        corpus, labeled = build_labeled([(POSITIVE, "g", 2)] * 3 + [(NEGATIVE, "g", 2)] * 8)
        plan = make_folds(corpus, labeled, 3, seed=3)  # k = rarer class count
        for fold in range(3):
            fold_labels = {
                lc.label for lc in labeled if plan.assignment[lc.cluster.id] == fold
            }
            assert fold_labels == {POSITIVE, NEGATIVE}

    def test_fold_sizes_within_one_per_class(self):
        corpus, labeled = build_labeled([(POSITIVE, "g", 2)] * 10 + [(NEGATIVE, "g", 2)] * 13)
        plan = make_folds(corpus, labeled, 4, seed=4)
        for label in (POSITIVE, NEGATIVE):
            counts = [0] * 4
            for lc in labeled:
                if lc.label == label:
                    counts[plan.assignment[lc.cluster.id]] += 1
            assert max(counts) - min(counts) <= 1

    def test_adversarial_group_flagged(self):
        # One all-positive feature group whose two clusters have wildly
        # different sizes: every assignment puts 90 docs in one fold and 5
        # in the other, so document-level homogeneity cannot be repaired.
        corpus, labeled = build_labeled(
            [(POSITIVE, "gbig", 90), (POSITIVE, "gbig", 5)]
            + [(POSITIVE, "gsmall", 24)] * 4
            + [(NEGATIVE, "gsmall", 10)] * 6
        )
        plan = make_folds(corpus, labeled, 2, [FeatureSpec("domain")], seed=5)
        assert "domain/positive" in plan.flagged()

    def test_mixed_sizes_balance_in_one_pass(self):
        # 30 clusters of 1 to 40 documents in each (class, domain) cell.
        # Dealing them round-robin within size buckets left domain/positive
        # rejected after 50 reshuffles for each seed below; assigning the
        # largest first by document mass passes at once.
        rng = random.Random(7)
        spec = [
            (label, domain, min(40, 1 + int(-8 * math.log(1.0 - rng.random()))))
            for label in (POSITIVE, NEGATIVE)
            for domain in ("g1", "g2")
            for _ in range(30)
        ]
        corpus, labeled = build_labeled(spec)
        for seed in (0, 1, 2):
            plan = make_folds(corpus, labeled, 5, [FeatureSpec("domain")], seed=seed)
            assert plan.flagged() == []
            assert plan.warnings == ()

    def test_small_cell_warned(self):
        corpus, labeled = build_labeled(
            [(POSITIVE, "g1", 2)] * 3 + [(POSITIVE, "g2", 2)] + [(NEGATIVE, "g1", 2)] * 4
        )
        plan = make_folds(corpus, labeled, 3, [FeatureSpec("domain")], seed=0)
        assert plan.warnings == (
            "cell positive|g2 has 1 clusters (< 3); class-level balance only",
        )

    def test_too_few_clusters_rejected(self):
        corpus, labeled = build_labeled([(POSITIVE, "g", 2)] * 2 + [(NEGATIVE, "g", 2)] * 5)
        with pytest.raises(InputError):
            make_folds(corpus, labeled, 3, seed=0)

    def test_deterministic(self):
        corpus, labeled = build_labeled([(POSITIVE, "g", 2)] * 6 + [(NEGATIVE, "g", 2)] * 6)
        a = make_folds(corpus, labeled, 3, seed=11)
        b = make_folds(corpus, labeled, 3, seed=11)
        assert a.assignment == b.assignment


@st.composite
def fold_inputs(draw):
    """(k, spec, permutation): 2 to 5 folds, k to 3k clusters of 1 to 40
    documents per class over three domains, and a reordering of them."""
    k = draw(st.integers(2, 5))
    spec = []
    for label in (POSITIVE, NEGATIVE):
        n = draw(st.integers(k, 3 * k))
        domains = draw(st.lists(st.sampled_from(("g1", "g2", "g3")), min_size=n, max_size=n))
        sizes = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
        spec += [(label, domain, size) for domain, size in zip(domains, sizes)]
    return k, spec, draw(st.permutations(range(len(spec))))


@settings(max_examples=40, deadline=None)
@given(inputs=fold_inputs(), seed=st.integers(0, 2**16))
def test_fold_assignment_properties(inputs, seed):
    k, spec, permutation = inputs
    corpus, labeled = build_labeled(spec)
    features = [FeatureSpec("domain")]
    plan = make_folds(corpus, labeled, k, features, seed=seed)
    # Every labeled cluster is in exactly one fold.
    assert sorted(plan.assignment) == sorted(lc.cluster.id for lc in labeled)
    assert set(plan.assignment.values()) <= set(range(k))
    per_fold = {label: [0] * k for label in (POSITIVE, NEGATIVE)}
    for lc in labeled:
        per_fold[lc.label][plan.assignment[lc.cluster.id]] += 1
    for counts in per_fold.values():
        # Per-class cluster counts within one; every fold holds both classes.
        assert max(counts) - min(counts) <= 1
        assert min(counts) >= 1
    # The same seed gives the same assignment, whatever the input order.
    assert make_folds(corpus, labeled, k, features, seed=seed).assignment == plan.assignment
    shuffled = [labeled[i] for i in permutation]
    assert make_folds(corpus, shuffled, k, features, seed=seed).assignment == plan.assignment


@st.composite
def mixed_fold_inputs(draw):
    """(k, corpus, labeled): 2 to 4 folds and k to 2k clusters per class,
    each document with its own domain and location, or none."""
    k = draw(st.integers(2, 4))
    documents, labeled = [], []
    for label in (POSITIVE, NEGATIVE):
        for _ in range(draw(st.integers(k, 2 * k))):
            ci = len(labeled)
            ids = [f"c{ci:03d}-d{di:03d}" for di in range(draw(st.integers(1, 6)))]
            for i in ids:
                domain = draw(st.sampled_from(("g1", "g2", "g3")))
                locations = draw(st.sampled_from(((), ("north",), ("south",))))
                documents.append(Document(id=i, source_domain=domain, text="filler", locations=locations))
            labeled.append(LabeledCluster(Cluster(id=min(ids), members=frozenset(ids)), label, SOURCE_EXPERT))
    return k, Corpus(documents), labeled


@settings(max_examples=40, deadline=None)
@given(inputs=mixed_fold_inputs(), seed=st.integers(0, 2**16))
def test_homogeneity_tests_count_documents_one_by_one(inputs, seed):
    """Each homogeneity test is the chi-squared test of a group x fold table
    counted document by document; a feature with one group in a class (the
    extra field "tier", which no document has) is trivially homogeneous."""
    k, corpus, labeled = inputs
    features = [FeatureSpec("domain"), FeatureSpec("location"), FeatureSpec("tier")]
    plan = make_folds(corpus, labeled, k, features, alpha=0.05, seed=seed)
    assert sorted(plan.homogeneity) == sorted(f"{f.name}/{c}" for f in features for c in (POSITIVE, NEGATIVE))
    for feature in features:
        for label in (POSITIVE, NEGATIVE):
            counts = {}
            for lc in labeled:
                if lc.label == label:
                    for doc_id in lc.cluster.members:
                        group = feature.group_of(corpus.get(doc_id))
                        counts.setdefault(group, [0] * k)[plan.assignment[lc.cluster.id]] += 1
            rows = sorted(counts)
            try:
                table = ContingencyTable(
                    tuple(rows), tuple(f"fold{i}" for i in range(k)), tuple(tuple(counts[g]) for g in rows)
                )
                expected = chi_squared_test(table, 0.05)
            except DegenerateTableError:
                assert len(rows) == 1
                expected = TestResult(0.0, 1, 1.0, 0.05, False)
            assert plan.homogeneity[f"{feature.name}/{label}"] == expected


def signal_text(label, doc_id):
    rng = random.Random(doc_id)
    words = [f"w{rng.randrange(200):03d}" for _ in range(12)]
    if label == POSITIVE and rng.random() < 0.9:
        words.append("hotsignal")
    if label == NEGATIVE and rng.random() < 0.9:
        words.append("coldsignal")
    return " ".join(words)


class TestCrossValidate:
    def build(self, n_per_class=12, docs_per_cluster=4):
        spec = [(POSITIVE, "g", docs_per_cluster)] * n_per_class + [
            (NEGATIVE, "g", docs_per_cluster)
        ] * n_per_class
        return build_labeled(spec, text_fn=signal_text)

    @staticmethod
    def terms(corpus, labeled):
        return ClusterTerms([lc.cluster for lc in labeled], corpus)

    def test_planted_signal_high_auc(self):
        corpus, labeled = self.build()
        plan = make_folds(corpus, labeled, 3, seed=0)
        report = cross_validate(self.terms(corpus, labeled), labeled, plan, 1, None, "tf", TrainConfig(epochs=150))
        assert report.auc >= 0.9
        assert len(report.fold_aucs) == 3

    def test_permuted_labels_near_chance(self):
        corpus, labeled = self.build(n_per_class=15)
        rng = random.Random(4)
        labels = [lc.label for lc in labeled]
        rng.shuffle(labels)
        permuted = [
            LabeledCluster(lc.cluster, label, lc.source)
            for lc, label in zip(labeled, labels)
        ]
        if len({lc.label for lc in permuted}) < 2:
            pytest.skip("degenerate shuffle")
        plan = make_folds(corpus, permuted, 3, seed=5)
        report = cross_validate(self.terms(corpus, permuted), permuted, plan, 1, None, "tf", TrainConfig(epochs=100))
        assert 0.25 <= report.auc <= 0.75

    def test_test_fold_tokens_never_in_model(self):
        # plant a token that appears only in one cluster's documents; when
        # that cluster is held out, the fold vocabulary must not know it.
        corpus, labeled = self.build(n_per_class=6)
        marker_cluster = labeled[0].cluster
        documents = []
        for doc in corpus:
            if doc.id in marker_cluster.members:
                documents.append(
                    Document(
                        id=doc.id,
                        source_domain=doc.source_domain,
                        text=doc.text + " uniquemarkertoken",
                    )
                )
            else:
                documents.append(doc)
        corpus = Corpus(documents)
        plan = make_folds(corpus, labeled, 3, seed=1)
        held_fold = plan.assignment[marker_cluster.id]

        from caserisk.model import build_vocabulary

        train_docs = [
            corpus.get(d)
            for lc in labeled
            if plan.assignment[lc.cluster.id] != held_fold
            for d in sorted(lc.cluster.members)
        ]
        vocab = build_vocabulary(train_docs, (1,), 1, None)
        assert "uniquemarkertoken" not in vocab

    def test_scores_cover_every_cluster(self):
        corpus, labeled = self.build(n_per_class=6)
        plan = make_folds(corpus, labeled, 2, seed=3)
        report = cross_validate(self.terms(corpus, labeled), labeled, plan, 1, None, "tf", TrainConfig(epochs=60))
        assert {cid for cid, _, _ in report.scores} == {lc.cluster.id for lc in labeled}

    @pytest.mark.parametrize("mismatch", ["clusters", "order"])
    def test_terms_over_other_clusters_rejected(self, mismatch):
        corpus, labeled = self.build(n_per_class=6)
        plan = make_folds(corpus, labeled, 3, seed=3)
        clusters = [lc.cluster for lc in labeled]
        if mismatch == "clusters":
            terms = ClusterTerms(clusters[:-1], corpus)
        else:
            terms = ClusterTerms(clusters[::-1], corpus)
        with pytest.raises(InputError):
            cross_validate(terms, labeled, plan)

    def test_no_ranking_trains_only_the_fold_models(self, monkeypatch):
        import caserisk.evaluate as evaluate_mod

        calls = []
        real_train = evaluate_mod.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "train", counting_train)
        corpus, labeled = self.build(n_per_class=6)
        plan = make_folds(corpus, labeled, 3, seed=3)
        report = cross_validate(self.terms(corpus, labeled), labeled, plan, 1, None, "tf", TrainConfig(epochs=60))
        assert report.top_features == () and report.bias_recheck is None
        assert len(calls) == plan.k
