"""Vocabulary, vectorization, training, scoring, and indicator rules."""

import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, vstack

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
    RiskModel,
    TrainConfig,
    Vocabulary,
    apply_indicators,
    build_vocabulary,
    feature_importance,
    load_model,
    load_rules,
    _penalized_objective,
    _smooth_objective,
    logistic_objective,
    ngrams,
    save_model,
    score,
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
        vec = vectorize_document(doc("2", "zzz qqq"), vocab)
        assert vec.shape == (1, len(vocab)) and vec.nnz == 0

    def test_single_token_unit_weight(self):
        vocab = build_vocabulary([doc("1", "a b")], orders=(1,))
        vec = vectorize_document(doc("2", "a"), vocab)
        assert isinstance(vec, csr_matrix) and vec.shape == (1, 2)
        assert vec.indices.tolist() == [vocab.index["a"]] and vec.data.tolist() == [1.0]

    def test_tf_normalization_hand_check(self):
        vocab = build_vocabulary([doc("1", "a b")], orders=(1,))
        vec = vectorize_document(doc("2", "a a b"), vocab).toarray()[0]
        assert vec[vocab.index["a"]] == pytest.approx(2 / math.sqrt(5))
        assert vec[vocab.index["b"]] == pytest.approx(1 / math.sqrt(5))

    def test_unit_norm(self):
        vocab = build_vocabulary([doc("1", "a b c d")], orders=(1,))
        vec = vectorize_document(doc("2", "a b b c c c"), vocab, "tfidf")
        assert math.sqrt(sum(w * w for w in vec.data)) == pytest.approx(1.0)

    def test_cluster_of_single_document(self):
        corpus = Corpus([doc("1", "a b c")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1"]))
        merged = vectorize_cluster(cluster, corpus, vocab)
        assert merged.shape == (1, len(vocab))
        assert merged.toarray().tolist() == vectorize_document(corpus.get("1"), vocab).toarray().tolist()

    def test_cluster_of_duplicates_equals_single(self):
        corpus = Corpus([doc("1", "a b c"), doc("2", "a b c"), doc("3", "a b c")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1", "2", "3"]))
        single = vectorize_document(corpus.get("1"), vocab).toarray()[0]
        merged = vectorize_cluster(cluster, corpus, vocab).toarray()[0]
        assert np.flatnonzero(merged).tolist() == np.flatnonzero(single).tolist()
        assert merged == pytest.approx(single)

    def test_cluster_of_orthogonal_documents(self):
        corpus = Corpus([doc("1", "a"), doc("2", "b")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1", "2"]))
        vec = vectorize_cluster(cluster, corpus, vocab)
        for w in vec.data:
            assert w == pytest.approx(1 / math.sqrt(2))

    def test_vocabulary_index_gives_the_column(self):
        # A loaded vocabulary need not number its grams in sorted order.
        vocab = Vocabulary(index={"b": 0, "a": 1}, df={"a": 1, "b": 1}, orders=(1,), n_docs=1)
        vec = vectorize_document(doc("1", "a a b zz"), vocab).toarray()[0]
        assert vec == pytest.approx([1 / math.sqrt(5), 2 / math.sqrt(5)])

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
                wrapped = vectorize_cluster(cluster, corpus, vocab, weighting).toarray()[0]
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

def sv(*vectors, dim=None):
    """CSR rows from {column: value} maps, over ``dim`` columns (by default
    one past the largest column used)."""
    if dim is None:
        dim = 1 + max((max(v) for v in vectors if v), default=-1)
    dense = np.zeros((len(vectors), dim))
    for i, vec in enumerate(vectors):
        for j, value in vec.items():
            dense[i, j] = value
    return csr_matrix(dense)


# Two one-hot examples, one per class, the smallest problem train accepts.
TWO_POINTS = (sv({0: 1.0}, {1: 1.0}), ["positive", "negative"])


class TestTrain:
    def test_separable_two_points(self):
        x, labels = TWO_POINTS
        model = train((x, labels), config=TrainConfig(epochs=200, learning_rate=1.0, lam=1e-6))
        scores = model.scores(x)
        assert scores[0] > 0.5
        assert scores[1] < 0.5

    def test_huge_penalty_shrinks_weights(self):
        x = sv(*[{0: 1.0}, {1: 1.0}] * 5)
        model = train((x, ["positive", "negative"] * 5), config=TrainConfig(epochs=100, lam=1e6))
        assert all(abs(w) < 1e-3 for w in model.weights)
        assert model.scores(sv({0: 1.0}, dim=2))[0] == pytest.approx(
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
            train((TWO_POINTS[0], ["positive", "positive"]))

    def test_objective_non_increasing(self):
        # Each run capped at k iterations is a prefix of the same
        # deterministic trajectory, so the final objectives for k = 1, 2, ...
        # follow the solver's own descent.  The large first step forces
        # backtracking.
        rng = random.Random(0)
        vectors, labels = [], []
        for i in range(40):
            labels.append("positive" if i % 2 == 0 else "negative")
            vectors.append({j: rng.random() for j in rng.sample(range(10), 3)})
        x = sv(*vectors, dim=10)
        history = []
        for epochs in range(1, 301):
            model = train((x, labels), config=TrainConfig(epochs=epochs, learning_rate=4.0))
            history.append(model.metadata["final_objective"])
            if model.metadata["converged"]:
                break
        assert model.metadata["converged"] and len(history) > 1
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_determinism_bit_for_bit(self):
        rng = random.Random(1)
        vectors, labels = [], []
        for i in range(30):
            labels.append("positive" if rng.random() < 0.5 else "negative")
            vectors.append({j: rng.random() for j in range(5)})
        if len(set(labels)) < 2:
            labels[0], labels[1] = "positive", "negative"
        x = sv(*vectors)
        a = train((x, labels), config=TrainConfig(epochs=80))
        b = train((x, labels), config=TrainConfig(epochs=80))
        assert a.weights.tobytes() == b.weights.tobytes() and a.intercept == b.intercept

    def test_hinge_loss_trains(self):
        x = sv(*[{0: 1.0}, {1: 1.0}] * 3)
        model = train(
            (x, ["positive", "negative"] * 3),
            config=TrainConfig(loss="hinge", epochs=150, learning_rate=0.5),
        )
        scores = model.scores(x)
        assert scores[0] > 0.5 > scores[1]

    def test_l1_penalty_trains(self):
        x = sv(*[{0: 1.0}, {1: 1.0}] * 3)
        model = train(
            (x, ["positive", "negative"] * 3),
            config=TrainConfig(penalty="l1", lam=1e-3, epochs=150),
        )
        assert model.scores(x)[0] > 0.5

    def test_empty_examples_rejected(self):
        with pytest.raises(EmptyInputError):
            train((csr_matrix((0, 2)), []))

    def test_one_weight_per_column(self):
        x = sv({0: 1.0}, {1: 1.0}, dim=5)
        model = train((x, ["positive", "negative"]))
        assert isinstance(model.weights, np.ndarray) and model.weights.shape == (5,)
        assert model.weights[2:].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "examples",
        [
            [({0: 1.0}, "positive"), ({1: 1.0}, "negative")],
            [(sv({0: 1.0}, dim=2), "positive"), (sv({1: 1.0}, dim=2), "negative")],
            (TWO_POINTS[0].toarray(), TWO_POINTS[1]),
            [],
        ],
        ids=["dict pairs", "row pairs", "dense matrix", "empty list"],
    )
    def test_anything_but_a_matrix_and_labels_rejected(self, examples):
        with pytest.raises(InputError, match="sparse feature matrix"):
            train(examples)

    def test_rows_and_labels_must_agree(self):
        with pytest.raises(InputError):
            train((TWO_POINTS[0], ["positive", "negative", "positive"]))


@st.composite
def small_problems(draw):
    """A random sparse problem with both classes, a loss, a penalty and a
    positive penalty strength."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 8))
    cells = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    dense = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    dense[np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))).reshape(n, d)] = 0.0
    labels = draw(st.lists(st.sampled_from(["positive", "negative"]), min_size=n, max_size=n))
    labels[0], labels[-1] = "positive", "negative"
    config = TrainConfig(
        loss=draw(st.sampled_from(["logistic", "hinge"])),
        penalty=draw(st.sampled_from(["l2", "l1"])),
        lam=draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0])),
        epochs=1000,
    )
    return csr_matrix(dense), labels, config


def assert_optimal(x, labels, config):
    """Train, then check the first-order optimality conditions of the
    penalized objective at the returned weights."""
    model = train((x, labels), config=config)
    assert model.metadata["converged"]
    assert model.metadata["grad_norm"] <= 1e-6
    w = model.weights
    y = np.array([1.0 if label == "positive" else -1.0 for label in labels])
    l2 = config.lam if config.penalty == "l2" else 0.0
    _, grad_w, grad_b = _smooth_objective(config.loss, w, model.intercept, x, y, l2)
    assert abs(grad_b) <= 1e-6
    if config.penalty == "l2":
        assert np.max(np.abs(grad_w)) <= 1e-6
    else:
        zero = w == 0.0
        assert np.all(np.abs(grad_w[zero]) <= config.lam + 1e-6)
        np.testing.assert_allclose(grad_w[~zero], -config.lam * np.sign(w[~zero]), rtol=0, atol=1e-6)
    full, _, _ = _penalized_objective(config.loss, w, model.intercept, x, y, config.penalty, config.lam)
    assert model.metadata["final_objective"] == pytest.approx(full, rel=1e-12, abs=1e-15)


# Squared hinge with L1 at lambda 1e-4.  The first problem stays unconverged
# after 300 iterations when the direction is also zeroed where it opposes a
# non-zero weight's pseudo-gradient (Andrew & Gao's constraint); the second
# starts with every margin above 1, where the loss is flat, and stays
# unconverged when the solver keeps its stale curvature pairs there.
HARD_L1_HINGE = {
    "ill-conditioned": (
        [[-1, 3, 0, 2, 0, 0, -1, 0, -2, 2], [-2, 0, -1, -2, -1, 0, 1, 2, -1, 1],
         [2, 1, 3, -6, -2, 3, 0, 0, -3, 1], [-1, -1, 0, 2, -1, 0, 0, 3, 2, 0],
         [2, 0, -4, 0, 0, 3, 0, -1, 0, 0], [1, 0, -2, -2, -1, 0, 0, 2, 2, 0],
         [-1, 4, 2, -3, 3, 1, -2, 0, 2, -1], [1, 0, 0, -1, 0, 0, 0, -3, 1, 1],
         [0, 2, 0, 3, -1, 1, 1, -1, 0, 0], [1, 0, -3, 0, 1, 0, 0, 0, -1, 0],
         [0, -1, 1, 2, 0, 2, 1, -1, -3, 1], [0, 0, 2, 1, 3, 1, 0, -1, 1, 0],
         [0, 0, 0, -3, 0, -2, 0, 1, -1, 1], [1, 2, 1, -2, 0, 0, 3, 0, -2, -2],
         [1, 0, 0, 2, 0, -1, 0, 0, 0, -3], [-3, 0, 4, 3, 0, 0, 0, 0, -1, 0]],
        "+-+-++--+-++--+-",
    ),
    "flat-region": (
        [[0, 0.875, 0, 0, -1.757, 1.616, -1.991, 0],
         [1.747, 0.282, -2.555, 0, 1.905, 3.59, -0.756, 1.515],
         [-1.185, -0.503, 0, 0, 0, 0, 2.773, 0],
         [-0.311, 0.195, -0.63, -3.004, 0, 0, 4.505, -0.674]],
        "++--",
    ),
}


class TestOptimality:
    """``train`` returns the minimizer of the objective it states."""

    @settings(max_examples=200, deadline=None)
    @given(small_problems())
    def test_first_order_conditions(self, problem):
        assert_optimal(*problem)

    @pytest.mark.parametrize("name", sorted(HARD_L1_HINGE))
    def test_hard_l1_hinge_problem_converges(self, name):
        rows, signs = HARD_L1_HINGE[name]
        labels = ["positive" if s == "+" else "negative" for s in signs]
        config = TrainConfig(loss="hinge", penalty="l1", lam=1e-4)
        assert_optimal(csr_matrix(np.array(rows, dtype=float)), labels, config)

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_l1_zeroes_irrelevant_columns(self, loss):
        # Column 0 decides the label; columns 1-4 are noise the L1 penalty removes.
        rng = np.random.default_rng(5)
        n = 60
        labels = ["positive" if i % 2 else "negative" for i in range(n)]
        signal = np.array([1.0 if label == "positive" else -1.0 for label in labels])
        dense = np.column_stack([signal + 0.3 * rng.normal(size=n), 0.1 * rng.normal(size=(n, 4))])
        model = train((csr_matrix(dense), labels), config=TrainConfig(loss=loss, penalty="l1", lam=0.05))
        assert model.metadata["converged"]
        assert np.flatnonzero(model.weights).tolist() == [0]
        assert model.weights[0] > 0.0

    def test_epochs_caps_iterations(self):
        examples = (sv(*[{0: 1.0, 1: 0.5}, {1: 1.0}] * 3), ["positive", "negative"] * 3)
        capped = train(examples, config=TrainConfig(epochs=1))
        assert capped.metadata["epochs"] == 1 and not capped.metadata["converged"]
        assert capped.metadata["grad_norm"] > 1e-6
        full = train(examples, config=TrainConfig())
        assert full.metadata["converged"] and 1 < full.metadata["epochs"] < 300

    def test_first_step_has_learning_rate_length(self):
        model = train(TWO_POINTS, config=TrainConfig(epochs=1, learning_rate=0.25, lam=0.0))
        step = np.array([model.weights[0], model.weights[1], model.intercept])
        assert np.linalg.norm(step) == pytest.approx(0.25)

    @pytest.mark.parametrize("field", ["lam", "learning_rate"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_hyperparameters_rejected(self, field, value):
        with pytest.raises(InputError):
            train(TWO_POINTS, config=TrainConfig(**{field: value}))


class TestGradientCheck:
    def test_squared_hinge_matches_central_finite_differences(self):
        rng = np.random.default_rng(21)
        step = 1e-6
        for trial in range(30):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 12))
            x = csr_matrix(rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.5))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            w = rng.normal(size=d)
            b = float(rng.normal())
            penalty = "l2" if trial % 2 == 0 else "l1"
            lam = float(rng.choice([0.0, 1e-3, 0.1]))

            def f(w, b):
                return _penalized_objective("hinge", w, b, x, y, penalty, lam)[0]

            value, grad_w, grad_b = _penalized_objective("hinge", w, b, x, y, penalty, lam)
            assert value == pytest.approx(
                np.mean(np.maximum(0.0, 1.0 - y * (x @ w + b)) ** 2)
                + lam * (np.dot(w, w) if penalty == "l2" else np.sum(np.abs(w)))
            )
            numeric = [
                (f(w + step * e, b) - f(w - step * e, b)) / (2 * step) for e in np.eye(d)
            ] + [(f(w, b + step) - f(w, b - step)) / (2 * step)]
            analytic = np.append(grad_w, grad_b)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
            assert rel < 1e-6


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


def fixed_model(weights, intercept=0.0):
    """A trained model with its weights and intercept replaced."""
    model = train(TWO_POINTS)
    model.weights = np.array(weights, dtype=float)
    model.intercept = intercept
    return model


class TestScoreAndImportance:
    def test_zero_vector_zero_intercept(self):
        model = fixed_model([0.0, 0.0])
        assert model.scores(csr_matrix((1, 2))).tolist() == [0.5]

    def test_sigmoid_limits(self):
        model = fixed_model([1000.0, 0.0])
        scores = model.scores(sv({0: 1.0}, {0: -1.0}, dim=2))
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.0)

    def test_margin_ln3_scores_three_quarters(self):
        model = fixed_model([1.0, 0.0])
        assert model.scores(sv({0: math.log(3)}, dim=2))[0] == pytest.approx(0.75)

    def test_score_monotone_in_margin(self):
        model = fixed_model([1.0, 0.0])
        scores = model.scores(sv(*[{0: m} for m in [-3, -1, 0, 1, 3]], dim=2)).tolist()
        assert scores == sorted(scores)

    def test_score_function_is_the_method(self):
        model = train(TWO_POINTS)
        x = sv({0: 0.5, 1: 0.25}, {1: 2.0})
        assert score(model, x).tolist() == model.scores(x).tolist()

    @pytest.mark.parametrize("columns", [2, 7])
    def test_wrong_width_rejected(self, columns):
        vocab = build_vocabulary([doc("1", "a b c d")], orders=(1,))
        model = train((sv({0: 1.0}, {1: 1.0}, dim=4), ["positive", "negative"]), vocab)
        with pytest.raises(InputError, match="4 weights"):
            model.scores(csr_matrix((1, columns)))
        with pytest.raises(InputError):
            score(model, csr_matrix((1, columns)))

    def make_model(self, weights):
        model = fixed_model(weights)
        model.vocabulary = build_vocabulary(
            [doc("1", " ".join(chr(ord("a") + i) for i in range(len(weights))))],
            orders=(1,),
        )
        return model

    def test_empty_ranking_for_zero_weights(self):
        model = self.make_model([0.0, 0.0, 0.0])
        assert feature_importance(model, 5) == []

    def test_rank_by_magnitude_signed(self):
        model = self.make_model([2.0, -3.0, 1.0])
        out = feature_importance(model, 2)
        assert out == [("b", -3.0), ("a", 2.0)]

    def test_top_k_clamped(self):
        model = self.make_model([2.0, -3.0, 1.0])
        assert len(feature_importance(model, 50)) == 3

    def test_ranking_invariant_under_positive_rescale(self):
        model = self.make_model([2.0, -3.0, 1.0])
        base = [t for t, _ in feature_importance(model, 3)]
        model.weights = 3.7 * model.weights
        rescaled = [t for t, _ in feature_importance(model, 3)]
        assert base == rescaled


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        docs = [doc("1", "alpha beta gamma"), doc("2", "alpha delta")]
        vocab = build_vocabulary(docs, orders=(1,))
        x = vstack([vectorize_document(d, vocab) for d in docs])
        model = train((x, ["positive", "negative"]), vocab, TrainConfig(epochs=60))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights.tolist() == model.weights.tolist()
        assert loaded.intercept == model.intercept
        assert loaded.vocabulary.index == dict(model.vocabulary.index)
        assert loaded.lam == model.lam
        vec = vectorize_document(doc("3", "alpha beta"), vocab)
        assert loaded.scores(vec).tolist() == model.scores(vec).tolist()

    @pytest.mark.parametrize(
        "fault",
        ["weight outside vocabulary", "negative weight index", "vocabulary index not a permutation"],
    )
    def test_inconsistent_model_file_rejected(self, tmp_path, fault):
        vocab = build_vocabulary([doc("1", "a b c d")], orders=(1,))
        model = train((sv({0: 1.0}, {1: 1.0}, dim=4), ["positive", "negative"]), vocab)
        if fault == "negative weight index":
            model.vocabulary = None
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = json.loads(path.read_text())
        if fault == "weight outside vocabulary":
            blob["weights"]["4"] = 1.5
        elif fault == "negative weight index":
            blob["weights"]["-1"] = 1.5
        else:
            blob["vocabulary"]["index"]["d"] = 0
        path.write_text(json.dumps(blob))
        with pytest.raises(InputError, match="model.json"):
            load_model(path)

    def test_round_trip_without_vocabulary_keeps_the_width(self, tmp_path):
        # The last column is all zeros, so its weight trains to exactly 0.
        x = csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
        model = train((x, ["positive", "negative", "positive"]), config=TrainConfig(penalty="l1"))
        assert model.vocabulary is None and model.weights[-1] == 0.0
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights.tolist() == model.weights.tolist()
        assert loaded.scores(x).tolist() == model.scores(x).tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=8),
        st.booleans(),
        st.data(),
    )
    def test_save_then_load_gives_the_same_model(self, tokens, with_vocabulary, data):
        floats = st.floats(allow_nan=False, allow_infinity=False)
        vocabulary = None
        if with_vocabulary:
            vocabulary = Vocabulary(
                index={t: i for i, t in enumerate(tokens)},
                df={t: data.draw(st.integers(1, 50)) for t in tokens},
                orders=tuple(sorted(data.draw(st.sets(st.sampled_from([1, 2, 3]), min_size=1)))),
                n_docs=data.draw(st.integers(1, 50)),
                max_size=data.draw(st.one_of(st.none(), st.integers(1, 500))),
            )
        n = len(tokens) if with_vocabulary else data.draw(st.integers(0, 8))
        weights = np.array(data.draw(st.lists(floats | st.just(0.0), min_size=n, max_size=n)))
        model = RiskModel(
            weights=weights,
            intercept=data.draw(floats),
            vocabulary=vocabulary,
            loss=data.draw(st.sampled_from(["logistic", "hinge"])),
            penalty=data.draw(st.sampled_from(["l1", "l2"])),
            lam=data.draw(st.floats(0, 10)),
            metadata={"epochs": data.draw(st.integers(1, 300)), "final_objective": data.draw(floats)},
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.weights.tolist() == weights.tolist()
        fields = ("intercept", "vocabulary", "loss", "penalty", "lam", "metadata")
        assert [getattr(loaded, f) for f in fields] == [getattr(model, f) for f in fields]


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
        rule = IndicatorRule(name="movement", kind="min_distinct_locations", k=2)
        assert apply_indicators(cluster, corpus, [rule]) == {"movement": True}

    def test_movement_rule_single_location(self):
        corpus = Corpus([doc("1", "x", locations=("springfield",))])
        cluster = Cluster(id="1", members=frozenset(["1"]))
        rule = IndicatorRule(name="movement", kind="min_distinct_locations", k=2)
        assert apply_indicators(cluster, corpus, [rule]) == {"movement": False}

    def test_empty_rule_list(self):
        corpus, cluster = self.cluster_world()
        assert apply_indicators(cluster, corpus, []) == {}

    def test_distinct_phones(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="contacts", kind="min_distinct_phones", k=2)
        assert apply_indicators(cluster, corpus, [rule])["contacts"] is True

    def test_lexicon_rule(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="travelwords", kind="lexicon", terms=("travel", "move"))
        assert apply_indicators(cluster, corpus, [rule])["travelwords"] is True

    def test_lexicon_hits_threshold(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="many", kind="min_lexicon_hits", terms=("tonight", "now"), k=2)
        assert apply_indicators(cluster, corpus, [rule])["many"] is True
        strict = IndicatorRule(name="many", kind="min_lexicon_hits", terms=("tonight",), k=2)
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
            IndicatorRule(name="r", kind="min_distinct_phones"),
            IndicatorRule(name="r", kind="min_distinct_locations"),
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
