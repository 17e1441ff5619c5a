"""Vocabulary, vectorization, training, scoring, and indicator rules."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from caserisk.clustering import Cluster
from caserisk.corpus import Corpus, Document, remove_tokens, tokenize
from caserisk.errors import (
    DegenerateTrainingError,
    EmptyInputError,
    InputError,
    RuleCompilationError,
)
from caserisk.model import (
    ClusterTerms,
    IndicatorRule,
    TrainConfig,
    apply_indicators,
    build_vocabulary,
    feature_importance,
    load_model,
    load_rules,
    logistic_objective,
    ngrams,
    save_model,
    train,
    vectorize_cluster,
    vectorize_document,
)


def doc(doc_id, text, **kwargs):
    return Document(id=doc_id, source_domain="x", text=text, **kwargs)


class TestVocabulary:
    def test_unigram_counts(self):
        vocab = build_vocabulary([doc("1", "a b"), doc("2", "a c")], orders=(1,), min_df=1)
        assert set(vocab.index) == {"a", "b", "c"}
        assert vocab.df == {"a": 2, "b": 1, "c": 1}

    def test_min_df_filter(self):
        vocab = build_vocabulary([doc("1", "a b"), doc("2", "a c")], orders=(1,), min_df=2)
        assert set(vocab.index) == {"a"}

    def test_empty_orders_rejected(self):
        with pytest.raises(InputError):
            build_vocabulary([doc("1", "a")], orders=())

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInputError):
            build_vocabulary([], orders=(1,))

    def test_bigrams(self):
        vocab = build_vocabulary([doc("1", "a b c")], orders=(1, 2))
        assert "a b" in vocab and "b c" in vocab

    def test_max_size_keeps_highest_df(self):
        docs = [doc(str(i), "common rare%d" % i) for i in range(5)]
        vocab = build_vocabulary(docs, orders=(1,), min_df=1, max_size=2)
        assert "common" in vocab
        assert len(vocab) == 2

    def test_indices_dense_and_sorted(self):
        vocab = build_vocabulary([doc("1", "c a b")], orders=(1,))
        assert [t for t, _ in sorted(vocab.index.items(), key=lambda kv: kv[1])] == ["a", "b", "c"]


class TestVectorize:
    def test_out_of_vocabulary_zero_vector(self):
        vocab = build_vocabulary([doc("1", "a b")], orders=(1,))
        assert vectorize_document(doc("2", "zzz qqq"), vocab) == {}

    def test_single_token_unit_weight(self):
        vocab = build_vocabulary([doc("1", "a b")], orders=(1,))
        vec = vectorize_document(doc("2", "a"), vocab)
        assert vec == {vocab.index["a"]: 1.0}

    def test_tf_normalization_hand_check(self):
        vocab = build_vocabulary([doc("1", "a b")], orders=(1,))
        vec = vectorize_document(doc("2", "a a b"), vocab)
        assert vec[vocab.index["a"]] == pytest.approx(2 / math.sqrt(5))
        assert vec[vocab.index["b"]] == pytest.approx(1 / math.sqrt(5))

    def test_unit_norm(self):
        vocab = build_vocabulary([doc("1", "a b c d")], orders=(1,))
        vec = vectorize_document(doc("2", "a b b c c c"), vocab, "tfidf")
        assert math.sqrt(sum(w * w for w in vec.values())) == pytest.approx(1.0)

    def test_cluster_of_single_document(self):
        corpus = Corpus([doc("1", "a b c")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1"]))
        assert vectorize_cluster(cluster, corpus, vocab) == vectorize_document(corpus.get("1"), vocab)

    def test_cluster_of_duplicates_equals_single(self):
        corpus = Corpus([doc("1", "a b c"), doc("2", "a b c"), doc("3", "a b c")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1", "2", "3"]))
        single = vectorize_document(corpus.get("1"), vocab)
        merged = vectorize_cluster(cluster, corpus, vocab)
        assert merged.keys() == single.keys()
        for idx in single:
            assert merged[idx] == pytest.approx(single[idx])

    def test_cluster_of_orthogonal_documents(self):
        corpus = Corpus([doc("1", "a"), doc("2", "b")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1", "2"]))
        vec = vectorize_cluster(cluster, corpus, vocab)
        for idx in vec:
            assert vec[idx] == pytest.approx(1 / math.sqrt(2))

    def test_removed_tokens_never_in_vocabulary(self):
        corpus = Corpus(
            [doc("1", "visit springfield today"), doc("2", "springfield again tomorrow")]
        )
        cleaned = remove_tokens(corpus, {"springfield"})
        vocab = build_vocabulary(list(cleaned.documents), orders=(1,))
        assert "springfield" not in vocab


def reference_cluster_vector(cluster, corpus, vocab, weighting):
    """The per-document dict loop that the matrix path replaced."""

    def unit(vec):
        norm = math.sqrt(sum(w * w for w in vec.values()))
        return {i: w / norm for i, w in vec.items()} if norm else {}

    total = {}
    for doc_id in sorted(cluster.members):
        grams = ngrams(tokenize(corpus.get(doc_id).text), vocab.orders)
        counts = Counter(g for g in grams if g in vocab)
        vec = {}
        for gram, c in counts.items():
            idf = 1.0
            if weighting == "tfidf":
                idf = math.log((1 + vocab.n_docs) / (1 + vocab.df[gram])) + 1.0
            vec[vocab.index[gram]] = c * idf
        for idx, w in unit(vec).items():
            total[idx] = total.get(idx, 0.0) + w
    dense = np.zeros(len(vocab))
    for idx, w in unit({i: w / len(cluster.members) for i, w in total.items()}).items():
        dense[idx] = w
    return dense


@st.composite
def fold_worlds(draw):
    """A small corpus of word-soup documents, partitioned into clusters
    that are dealt into folds, plus featurization settings."""
    words = ["a", "b", "c", "d", "e", "f"]
    n_clusters = draw(st.integers(2, 7))
    corpus_docs = []
    clusters = []
    for ci in range(n_clusters):
        ids = [f"c{ci}-d{di}" for di in range(draw(st.integers(1, 3)))]
        for doc_id in ids:
            tokens = draw(st.lists(st.sampled_from(words), min_size=0, max_size=8))
            corpus_docs.append(doc(doc_id, " ".join(tokens) or "-"))
        clusters.append(Cluster(id=ids[0], members=frozenset(ids)))
    folds = draw(st.lists(st.integers(0, 2), min_size=n_clusters, max_size=n_clusters))
    orders = draw(st.sets(st.sampled_from([1, 2, 3]), min_size=1))
    min_df = draw(st.integers(1, 3))
    max_size = draw(st.one_of(st.none(), st.integers(1, 12)))
    weighting = draw(st.sampled_from(["tf", "tfidf"]))
    return Corpus(corpus_docs), clusters, np.array(folds), orders, min_df, max_size, weighting


class TestClusterTerms:
    """The tokenize-once path against the per-document reference wrappers."""

    @settings(max_examples=150, deadline=None)
    @given(fold_worlds())
    def test_folds_match_reference(self, world):
        corpus, clusters, folds, orders, min_df, max_size, weighting = world
        terms = ClusterTerms(clusters, corpus, orders)
        for fold in sorted(set(folds.tolist())):
            fit = folds != fold
            train_docs = [
                corpus.get(d)
                for c, f in zip(clusters, fit)
                if f
                for d in sorted(c.members)
            ]
            if not train_docs:
                with pytest.raises(EmptyInputError):
                    terms.featurize(min_df, max_size, weighting, fit=fit)
                continue
            expected = build_vocabulary(train_docs, orders, min_df, max_size)
            if len(expected) == 0:
                with pytest.raises(EmptyInputError):
                    terms.featurize(min_df, max_size, weighting, fit=fit)
                continue
            vocab, x = terms.featurize(min_df, max_size, weighting, fit=fit)
            assert dict(vocab.index) == dict(expected.index)
            assert dict(vocab.df) == dict(expected.df)
            assert vocab.n_docs == expected.n_docs
            for row, cluster in zip(x.toarray(), clusters):
                wrapped = np.zeros(len(vocab))
                for idx, w in vectorize_cluster(cluster, corpus, vocab, weighting).items():
                    wrapped[idx] = w
                reference = reference_cluster_vector(cluster, corpus, vocab, weighting)
                np.testing.assert_allclose(row, wrapped, rtol=0, atol=1e-12)
                np.testing.assert_allclose(row, reference, rtol=0, atol=1e-12)
            seen_in_training = {
                g for d in train_docs for g in ngrams(tokenize(d.text), vocab.orders)
            }
            assert set(vocab.index) <= seen_in_training

    def test_test_only_gram_never_a_column(self):
        corpus = Corpus([doc("1", "a b"), doc("2", "a c"), doc("3", "a zz")])
        clusters = [Cluster(id=i, members=frozenset([i])) for i in ("1", "2", "3")]
        terms = ClusterTerms(clusters, corpus)
        vocab, x = terms.featurize(fit=np.array([True, True, False]))
        assert "zz" not in vocab and x.shape == (3, len(vocab))
        assert x[2].toarray().tolist() == [[1.0] + [0.0] * (len(vocab) - 1)]

    def test_member_missing_from_corpus_rejected(self):
        corpus = Corpus([doc("1", "a b")])
        with pytest.raises(InputError):
            ClusterTerms([Cluster(id="1", members=frozenset(["1", "2"]))], corpus)

    def test_matrix_and_vector_forms_train_alike(self):
        rng = random.Random(3)
        examples = [
            ({j: rng.random() for j in rng.sample(range(6), 3)}, "positive" if i % 2 else "negative")
            for i in range(20)
        ]
        from caserisk.model import _to_matrix

        x = _to_matrix([v for v, _ in examples], 6)
        a = train(examples, config=TrainConfig(epochs=40))
        b = train((x, [label for _, label in examples]), config=TrainConfig(epochs=40))
        assert a.weights == b.weights and a.intercept == b.intercept
        assert b.scores(x).tolist() == pytest.approx([a.score(v) for v, _ in examples], abs=1e-15)


def sv(**kw):
    return {int(k): float(v) for k, v in kw.items()}


class TestTrain:
    def test_separable_two_points(self):
        examples = [({0: 1.0}, "positive"), ({1: 1.0}, "negative")]
        model = train(examples, config=TrainConfig(epochs=200, learning_rate=1.0, lam=1e-6))
        assert model.score({0: 1.0}) > 0.5
        assert model.score({1: 1.0}) < 0.5

    def test_huge_penalty_shrinks_weights(self):
        examples = [({0: 1.0}, "positive"), ({1: 1.0}, "negative")] * 5
        model = train(examples, config=TrainConfig(epochs=100, lam=1e6))
        assert all(abs(w) < 1e-3 for w in model.weights.values())
        assert model.score({0: 1.0}) == pytest.approx(
            1.0 / (1.0 + math.exp(-model.intercept)), abs=1e-3
        )

    def test_gradient_at_zero_hand_check(self):
        x = csr_matrix(np.array([[1.0]]))
        y = np.array([1.0])
        _, grad_w, grad_b = logistic_objective(np.zeros(1), 0.0, x, y, "l2", 0.0)
        assert grad_w[0] == pytest.approx(-0.5)
        assert grad_b == pytest.approx(-0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train([({0: 1.0}, "positive"), ({1: 1.0}, "positive")])

    def test_objective_non_increasing(self):
        rng = random.Random(0)
        examples = []
        for i in range(40):
            label = "positive" if i % 2 == 0 else "negative"
            vec = {j: rng.random() for j in rng.sample(range(10), 3)}
            examples.append((vec, label))
        config = TrainConfig(epochs=50, learning_rate=4.0)  # large rate forces halving
        x_rows = [v for v, _ in examples]
        y = np.array([1.0 if l == "positive" else -1.0 for _, l in examples])
        from caserisk.model import _to_matrix

        x = _to_matrix(x_rows, 10)
        w = np.zeros(10)
        b = 0.0
        lr = config.learning_rate
        obj, gw, gb = logistic_objective(w, b, x, y, "l2", config.lam)
        history = [obj]
        for _ in range(config.epochs):
            while lr >= 1e-15:
                w2, b2 = w - lr * gw, b - lr * gb
                obj2, gw2, gb2 = logistic_objective(w2, b2, x, y, "l2", config.lam)
                if obj2 <= obj:
                    w, b, obj, gw, gb = w2, b2, obj2, gw2, gb2
                    break
                lr *= 0.5
            history.append(obj)
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_determinism_bit_for_bit(self):
        rng = random.Random(1)
        examples = []
        for i in range(30):
            label = "positive" if rng.random() < 0.5 else "negative"
            examples.append(({j: rng.random() for j in range(5)}, label))
        if len({l for _, l in examples}) < 2:
            examples[0] = (examples[0][0], "positive")
            examples[1] = (examples[1][0], "negative")
        a = train(examples, config=TrainConfig(epochs=80))
        b = train(examples, config=TrainConfig(epochs=80))
        assert a.weights == b.weights and a.intercept == b.intercept

    def test_hinge_loss_trains(self):
        examples = [({0: 1.0}, "positive"), ({1: 1.0}, "negative")] * 3
        model = train(examples, config=TrainConfig(loss="hinge", epochs=150, learning_rate=0.5))
        assert model.score({0: 1.0}) > 0.5 > model.score({1: 1.0})

    def test_l1_penalty_trains(self):
        examples = [({0: 1.0}, "positive"), ({1: 1.0}, "negative")] * 3
        model = train(examples, config=TrainConfig(penalty="l1", lam=1e-3, epochs=150))
        assert model.score({0: 1.0}) > 0.5

    def test_empty_examples_rejected(self):
        with pytest.raises(EmptyInputError):
            train([])


class TestGradientCheck:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(12)
        step = 1e-5
        for trial in range(30):
            n = int(rng.integers(2, 50))
            d = int(rng.integers(1, 20))
            dense = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.4)
            x = csr_matrix(dense)
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if len(set(y.tolist())) < 2:
                y[0] = 1.0
                y[-1] = -1.0
            w = rng.normal(size=d) * 0.5
            b = float(rng.normal() * 0.5)
            lam = float(rng.choice([0.0, 1e-4, 1e-2]))
            penalty = str(rng.choice(["l2", "l1"]))
            _, grad_w, grad_b = logistic_objective(w, b, x, y, penalty, lam)
            fd = np.zeros(d)
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += step
                wm[j] -= step
                fp, _, _ = logistic_objective(wp, b, x, y, penalty, lam)
                fm, _, _ = logistic_objective(wm, b, x, y, penalty, lam)
                fd[j] = (fp - fm) / (2 * step)
            fp, _, _ = logistic_objective(w, b + step, x, y, penalty, lam)
            fm, _, _ = logistic_objective(w, b - step, x, y, penalty, lam)
            fd_b = (fp - fm) / (2 * step)
            analytic = np.concatenate([grad_w, [grad_b]])
            numeric = np.concatenate([fd, [fd_b]])
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
            assert rel < 1e-6


class TestScoreAndImportance:
    def test_zero_vector_zero_intercept(self):
        model = train([({0: 1.0}, "positive"), ({1: 1.0}, "negative")])
        model.weights = {}
        model.intercept = 0.0
        assert model.score({}) == 0.5

    def test_sigmoid_limits(self):
        model = train([({0: 1.0}, "positive"), ({1: 1.0}, "negative")])
        model.weights = {0: 1000.0}
        model.intercept = 0.0
        assert model.score({0: 1.0}) == pytest.approx(1.0)
        assert model.score({0: -1.0}) == pytest.approx(0.0)

    def test_margin_ln3_scores_three_quarters(self):
        model = train([({0: 1.0}, "positive"), ({1: 1.0}, "negative")])
        model.weights = {0: 1.0}
        model.intercept = 0.0
        assert model.score({0: math.log(3)}) == pytest.approx(0.75)

    def test_score_monotone_in_margin(self):
        model = train([({0: 1.0}, "positive"), ({1: 1.0}, "negative")])
        model.weights = {0: 1.0}
        model.intercept = 0.0
        scores = [model.score({0: m}) for m in [-3, -1, 0, 1, 3]]
        assert scores == sorted(scores)

    def make_model(self, weights):
        model = train([({0: 1.0}, "positive"), ({1: 1.0}, "negative")])
        model.weights = weights
        vocab = build_vocabulary(
            [doc("1", " ".join(chr(ord("a") + i) for i in range(len(weights) or 3)))],
            orders=(1,),
        )
        model.vocabulary = vocab
        return model

    def test_empty_ranking_for_zero_weights(self):
        model = self.make_model({})
        assert feature_importance(model, 5) == []

    def test_rank_by_magnitude_signed(self):
        model = self.make_model({0: 2.0, 1: -3.0, 2: 1.0})
        out = feature_importance(model, 2)
        assert out == [("b", -3.0), ("a", 2.0)]

    def test_top_k_clamped(self):
        model = self.make_model({0: 2.0, 1: -3.0, 2: 1.0})
        assert len(feature_importance(model, 50)) == 3

    def test_ranking_invariant_under_positive_rescale(self):
        model = self.make_model({0: 2.0, 1: -3.0, 2: 1.0})
        base = [t for t, _ in feature_importance(model, 3)]
        model.weights = {k: 3.7 * v for k, v in model.weights.items()}
        rescaled = [t for t, _ in feature_importance(model, 3)]
        assert base == rescaled


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        docs = [doc("1", "alpha beta gamma"), doc("2", "alpha delta")]
        vocab = build_vocabulary(docs, orders=(1,))
        examples = [
            (vectorize_document(docs[0], vocab), "positive"),
            (vectorize_document(docs[1], vocab), "negative"),
        ]
        model = train(examples, vocab, TrainConfig(epochs=60))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights == model.weights
        assert loaded.intercept == model.intercept
        assert loaded.vocabulary.index == dict(model.vocabulary.index)
        assert loaded.lam == model.lam
        vec = vectorize_document(doc("3", "alpha beta"), vocab)
        assert loaded.score(vec) == model.score(vec)


class TestIndicators:
    def cluster_world(self):
        documents = [
            doc("1", "travel to springfield tonight", locations=("springfield",), phones=("5550000001",)),
            doc("2", "now in rivertown", locations=("rivertown",), phones=("5550000001", "5550000002")),
        ]
        corpus = Corpus(documents)
        cluster = Cluster(id="1", members=frozenset(["1", "2"]))
        return corpus, cluster

    def test_movement_rule(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="movement", kind="min_distinct_locations", scope="cluster", k=2)
        assert apply_indicators(cluster, corpus, [rule]) == {"movement": True}

    def test_movement_rule_single_location(self):
        corpus = Corpus([doc("1", "x", locations=("springfield",))])
        cluster = Cluster(id="1", members=frozenset(["1"]))
        rule = IndicatorRule(name="movement", kind="min_distinct_locations", scope="cluster", k=2)
        assert apply_indicators(cluster, corpus, [rule]) == {"movement": False}

    def test_empty_rule_list(self):
        corpus, cluster = self.cluster_world()
        assert apply_indicators(cluster, corpus, []) == {}

    def test_distinct_phones(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="contacts", kind="min_distinct_phones", scope="cluster", k=2)
        assert apply_indicators(cluster, corpus, [rule])["contacts"] is True

    def test_lexicon_rule(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="travelwords", kind="lexicon", terms=("travel", "move"))
        assert apply_indicators(cluster, corpus, [rule])["travelwords"] is True

    def test_lexicon_hits_threshold(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="many", kind="min_lexicon_hits", scope="cluster", terms=("tonight", "now"), k=2)
        assert apply_indicators(cluster, corpus, [rule])["many"] is True
        strict = IndicatorRule(name="many", kind="min_lexicon_hits", scope="cluster", terms=("tonight",), k=2)
        assert apply_indicators(cluster, corpus, [strict])["many"] is False

    def test_pattern_rule(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="nightly", kind="pattern", pattern=r"to\w+ight")
        assert apply_indicators(cluster, corpus, [rule])["nightly"] is True

    def test_bad_pattern_names_rule(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="broken", kind="pattern", pattern="(unclosed")
        with pytest.raises(RuleCompilationError) as err:
            apply_indicators(cluster, corpus, [rule])
        assert err.value.rule_name == "broken"

    def test_duplicate_rule_names_rejected(self):
        corpus, cluster = self.cluster_world()
        rules = [
            IndicatorRule(name="r", kind="min_distinct_phones", scope="cluster"),
            IndicatorRule(name="r", kind="min_distinct_locations", scope="cluster"),
        ]
        with pytest.raises(InputError):
            apply_indicators(cluster, corpus, rules)

    def test_rules_file_with_lexicon_path(self, tmp_path):
        (tmp_path / "risky.txt").write_text("tonight\nnow\n")
        (tmp_path / "rules.json").write_text(
            '[{"name": "movement", "kind": "min_distinct_locations", "scope": "cluster", "k": 2},'
            ' {"name": "risky", "kind": "lexicon", "lexicon_path": "risky.txt"}]'
        )
        rules = load_rules(tmp_path / "rules.json")
        assert [r.name for r in rules] == ["movement", "risky"]
        assert "tonight" in rules[1].terms
