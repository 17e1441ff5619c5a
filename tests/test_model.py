"""Vocabulary, vectorization, training, scoring, and indicator rules."""

import json
import math
import random
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse import random as sparse_random
from sparse_rows import canonical, csr, dense, membership_means

import caserisk.model
from caserisk._sparse import CSR
from caserisk.clustering import Cluster
from caserisk.corpus import Corpus, Document, Lexicon, remove_tokens, token_ids, tokenize
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
    indicator_flags,
    load_model,
    load_rules,
    _count_grams,
    _smooth_objective,
    _stacked,
    _unit_rows,
    logistic_objective,
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
        assert vocab.terms == ("a", "b", "c")
        assert vocab.df == (2, 1, 1)

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

    def test_index_built_on_first_lookup(self):
        vocab = build_vocabulary([doc("1", "c a b")], orders=(1,))
        assert "index" not in vars(vocab) and len(vocab) == 3
        assert "b" in vocab and vocab.index == {"a": 0, "b": 1, "c": 2}
        assert vars(vocab)["index"] is vocab.index

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
        assert isinstance(vec, CSR) and vec.shape == (1, 2)
        assert vec.indices.tolist() == [vocab.index["a"]] and vec.data.tolist() == [1.0]

    def test_tf_normalization_hand_check(self):
        vocab = build_vocabulary([doc("1", "a b")], orders=(1,))
        vec = dense(vectorize_document(doc("2", "a a b"), vocab))[0]
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
        assert dense(merged).tolist() == dense(vectorize_document(corpus.get("1"), vocab)).tolist()

    def test_cluster_of_duplicates_equals_single(self):
        corpus = Corpus([doc("1", "a b c"), doc("2", "a b c"), doc("3", "a b c")])
        vocab = build_vocabulary(list(corpus.documents), orders=(1,))
        cluster = Cluster(id="1", members=frozenset(["1", "2", "3"]))
        single = dense(vectorize_document(corpus.get("1"), vocab))[0]
        merged = dense(vectorize_cluster(cluster, corpus, vocab))[0]
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
        vocab = Vocabulary(terms=("b", "a"), df=(1, 1), orders=(1,), n_docs=1)
        row = vectorize_document(doc("1", "a a b zz"), vocab)
        assert canonical(row)
        assert dense(row)[0] == pytest.approx([1 / math.sqrt(5), 2 / math.sqrt(5)])

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
                idf = math.log((1 + vocab.n_docs) / (1 + vocab.df[vocab.index[gram]])) + 1.0
            vec[vocab.index[gram]] = c * idf
        for idx, w in unit(vec).items():
            total[idx] = total.get(idx, 0.0) + w
    dense = np.zeros(len(vocab))
    for idx, w in unit({i: w / len(cluster.members) for i, w in total.items()}).items():
        dense[idx] = w
    return dense


def ngrams(tokens, orders):
    """Every gram of each order as its tokens joined by spaces."""
    grams = []
    for order in sorted(orders):
        grams.extend(" ".join(tokens[i : i + order]) for i in range(len(tokens) - order + 1))
    return grams


def reference_count_grams(docs, orders):
    """The Counter-of-gram-strings loop that the packed-integer path replaced."""
    columns = {}
    rows = []
    for d in docs:
        counts = Counter(ngrams(tokenize(d.text), orders))
        rows.append({columns.setdefault(g, len(columns)): c for g, c in counts.items()})
    grams = sorted(columns)
    rank = {columns[g]: r for r, g in enumerate(grams)}
    dense = np.zeros((len(docs), len(grams)), dtype=np.int64)
    for i, row in enumerate(rows):
        for col, c in row.items():
            dense[i, rank[col]] = c
    return dense, grams


_GRAM_TEXTS = st.lists(
    st.lists(
        st.sampled_from(["a", "a0", "a b", "b", "ab", "0", "\u0130", "\u0130a", "-", "  ", "z9"]), max_size=10
    ).map(" ".join),
    max_size=6,
)


class TestCountGrams:
    @settings(max_examples=300, deadline=None)
    @given(_GRAM_TEXTS, st.sampled_from([(1,), (2,), (1, 2), (2, 3), (1, 2, 3)]))
    def test_matches_reference(self, texts, orders):
        docs = [doc(str(i), text) for i, text in enumerate(texts)]
        counts, columns = _count_grams(token_ids(d.text for d in docs), orders)
        expected, grams = reference_count_grams(docs, orders)
        assert canonical(counts)
        assert counts.shape == expected.shape
        np.testing.assert_array_equal(dense(counts), expected)
        assert columns.strings(np.arange(len(columns))) == grams

    def test_prefix_tokens_sort_before_extensions(self):
        counts, columns = _count_grams(token_ids(["a0 a b a a0"]), (1, 2))
        assert columns.strings(np.arange(len(columns))) == ["a", "a a0", "a b", "a0", "a0 a", "b", "b a"]
        assert dense(counts).tolist() == [[2, 1, 1, 2, 1, 1, 1]]


def reference_unit_rows(x):
    """The normalization that ``_unit_rows`` replaced: scipy's row sums of
    ``x.multiply(x)``."""
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    x.data /= np.repeat(norms, np.diff(x.indptr))
    return x


# Cluster means, as featurization normalizes them, may hold empty rows
# and many entries a row; blocks of 7 non-zeros cut most rows.
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([7, 1 << 17]))
def test_unit_rows_match_scipy_bit_for_bit(seed, means, block):
    rng = np.random.default_rng(seed)
    x = csr(sparse_random(int(rng.integers(1, 30)), 40, density=rng.uniform(0.05, 0.9), random_state=rng).toarray())
    if means:
        cuts = np.unique(rng.integers(1, x.shape[0] + 1, size=3))
        x = membership_means(x, np.concatenate(([0], cuts[cuts < x.shape[0]], [x.shape[0]])))
    expected = reference_unit_rows(sp.csr_matrix((x.data.copy(), x.indices, x.indptr), shape=x.shape))
    with mock.patch.object(caserisk.model, "_ROW_BLOCK", block):
        got = _unit_rows(CSR(x.indptr, x.indices, x.data.copy(), x.shape))
    np.testing.assert_array_equal(got.indices, expected.indices)
    assert got.data.tobytes() == expected.data.tobytes()


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

    # "z" is in no text; cutting "c" can join "a" and "b" into "a b".
    @settings(max_examples=200, deadline=None)
    @given(
        fold_worlds(),
        st.lists(st.sampled_from(["a b", "c", "b-C", "d e", "z", "a z", "f f", "e"]), max_size=4),
        st.booleans(),
    )
    def test_counts_equal_a_per_document_reference(self, world, entries, cut):
        """Rows gathered from the corpus's token stream and cut on its ids
        equal each member text tokenized by the regex, less what
        ``Lexicon.cuts`` gives, counted gram by gram."""
        corpus, clusters, _, orders, _, _, _ = world
        lexicon = Lexicon(entries) if cut else None
        terms = ClusterTerms(clusters, corpus, orders, lexicon)
        expected = []
        for cluster in clusters:
            for doc_id in sorted(cluster.members):
                tokens = re.findall(r"[a-z0-9]+", corpus.get(doc_id).text.lower())
                for start, stop in reversed(lexicon.cuts(tokens) if cut else []):
                    del tokens[start:stop]
                expected.append(Counter(ngrams(tokens, orders)))
        grams = terms.grams.strings(np.arange(len(terms.grams)))
        assert grams == sorted(set().union(*expected))
        assert canonical(terms.counts)
        rows = [{grams[j]: int(n) for j, n in enumerate(row) if n} for row in dense(terms.counts)]
        assert rows == [dict(counts) for counts in expected]

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
            assert vocab.terms == expected.terms
            assert vocab.df == expected.df
            assert vocab.n_docs == expected.n_docs
            # The fit clusters' rows first, then the held-out clusters'.
            order = np.concatenate((np.flatnonzero(fit), np.flatnonzero(~fit)))
            assert x.shape[0] == len(clusters)
            for row, i in zip(dense(x), order.tolist()):
                cluster = clusters[i]
                wrapped = dense(vectorize_cluster(cluster, corpus, vocab, weighting))[0]
                reference = reference_cluster_vector(cluster, corpus, vocab, weighting)
                assert row.tobytes() == wrapped.tobytes()  # one computation
                np.testing.assert_allclose(row, reference, rtol=0, atol=1e-12)
            seen_in_training = {
                g for d in train_docs for g in ngrams(tokenize(d.text), vocab.orders)
            }
            assert set(vocab.index) <= seen_in_training

    # Blocks of one non-zero put every cluster in a block of its own.
    @settings(max_examples=100, deadline=None)
    @given(fold_worlds())
    def test_blocks_do_not_change_rows(self, world):
        corpus, clusters, folds, orders, min_df, max_size, weighting = world
        terms = ClusterTerms(clusters, corpus, orders)
        try:
            _, whole = terms.featurize(1, max_size, weighting)
        except EmptyInputError:
            return
        with mock.patch.object(caserisk.model, "_ROW_BLOCK", 1):
            _, blocked = terms.featurize(1, max_size, weighting)
        np.testing.assert_array_equal(blocked.indptr, whole.indptr)
        np.testing.assert_array_equal(blocked.indices, whole.indices)
        assert blocked.data.tobytes() == whole.data.tobytes()

    def test_test_only_gram_never_a_column(self):
        corpus = Corpus([doc("1", "a b"), doc("2", "a c"), doc("3", "a zz")])
        clusters = [Cluster(id=i, members=frozenset([i])) for i in ("1", "2", "3")]
        terms = ClusterTerms(clusters, corpus)
        vocab, x = terms.featurize(fit=np.array([True, True, False]))
        assert "zz" not in vocab and x.shape == (3, len(vocab))
        assert dense(x)[2].tolist() == [1.0] + [0.0] * (len(vocab) - 1)

    def test_member_missing_from_corpus_rejected(self):
        corpus = Corpus([doc("1", "a b")])
        with pytest.raises(InputError):
            ClusterTerms([Cluster(id="1", members=frozenset(["1", "2"]))], corpus)

# Two one-hot examples, one per class, the smallest problem train accepts.
TWO_POINTS = (csr(np.eye(2)), ["positive", "negative"])
ALTERNATING = np.eye(2).tolist()  # one-hot rows of the two classes in turn


class TestTrain:
    def test_separable_two_points(self):
        x, labels = TWO_POINTS
        model = train((x, labels), config=TrainConfig(epochs=200, lam=1e-6))
        scores = model.scores(x)
        assert scores[0] > 0.5
        assert scores[1] < 0.5

    def test_huge_penalty_shrinks_weights(self):
        x = csr(ALTERNATING * 5)
        model = train((x, ["positive", "negative"] * 5), config=TrainConfig(epochs=100, lam=1e6))
        assert all(abs(w) < 1e-3 for w in model.weights)
        assert model.scores(csr([[1.0, 0.0]]))[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-model.intercept)), abs=1e-3
        )

    def test_gradient_at_zero_hand_check(self):
        x = csr([[1.0]])
        y = np.array([1.0])
        _, grad_w, grad_b = logistic_objective(np.zeros(1), 0.0, x, y, "l2", 0.0)
        assert grad_w[0] == pytest.approx(-0.5)
        assert grad_b == pytest.approx(-0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train((TWO_POINTS[0], ["positive", "positive"]))

    def test_objective_non_increasing(self, monkeypatch):
        # Each run capped at k iterations is a prefix of the same
        # deterministic trajectory, so the final objectives for k = 1, 2, ...
        # follow the solver's own descent.  The large first step forces
        # backtracking.
        monkeypatch.setattr(caserisk.model, "_FIRST_STEP", 4.0)
        rng = random.Random(0)
        rows, labels = np.zeros((40, 10)), []
        for i in range(40):
            labels.append("positive" if i % 2 == 0 else "negative")
            for j in rng.sample(range(10), 3):
                rows[i, j] = rng.random()
        x = csr(rows)
        history = []
        for epochs in range(1, 301):
            model = train((x, labels), config=TrainConfig(epochs=epochs))
            history.append(model.metadata["final_objective"])
            if model.metadata["converged"]:
                break
        assert model.metadata["converged"] and len(history) > 1
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_determinism_bit_for_bit(self):
        rng = random.Random(1)
        rows, labels = [], []
        for i in range(30):
            labels.append("positive" if rng.random() < 0.5 else "negative")
            rows.append([rng.random() for j in range(5)])
        if len(set(labels)) < 2:
            labels[0], labels[1] = "positive", "negative"
        x = csr(rows)
        a = train((x, labels), config=TrainConfig(epochs=80))
        b = train((x, labels), config=TrainConfig(epochs=80))
        assert a.weights.tobytes() == b.weights.tobytes() and a.intercept == b.intercept

    def test_hinge_loss_trains(self):
        x = csr(ALTERNATING * 3)
        model = train(
            (x, ["positive", "negative"] * 3),
            config=TrainConfig(loss="hinge", epochs=150),
        )
        scores = model.scores(x)
        assert scores[0] > 0.5 > scores[1]

    def test_l1_penalty_trains(self):
        x = csr(ALTERNATING * 3)
        model = train(
            (x, ["positive", "negative"] * 3),
            config=TrainConfig(penalty="l1", lam=1e-3, epochs=150),
        )
        assert model.scores(x)[0] > 0.5

    def test_empty_examples_rejected(self):
        with pytest.raises(EmptyInputError):
            train((csr(np.zeros((0, 2))), []))

    def test_one_weight_per_column(self):
        x = csr(np.eye(2, 5))
        model = train((x, ["positive", "negative"]))
        assert isinstance(model.weights, np.ndarray) and model.weights.shape == (5,)
        assert model.weights[2:].tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "examples",
        [
            [({0: 1.0}, "positive"), ({1: 1.0}, "negative")],
            [(csr([[1.0, 0.0]]), "positive"), (csr([[0.0, 1.0]]), "negative")],
            (np.eye(2), TWO_POINTS[1]),
            (sp.csr_matrix(np.eye(2)), TWO_POINTS[1]),
            [],
        ],
        ids=["dict pairs", "row pairs", "dense matrix", "scipy matrix", "empty list"],
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
    return csr(dense), labels, config


def penalized_objective(loss, w, b, x, y, penalty, lam):
    """The objective ``train`` states: the smooth part plus, under L1,
    ``lam * |w|_1`` and its subgradient ``lam * sign(w)``."""
    value, grad_w, grad_b = _smooth_objective(loss, w, b, x, y, lam if penalty == "l2" else 0.0)
    if penalty == "l1":
        value += lam * float(np.sum(np.abs(w)))
        grad_w = grad_w + lam * np.sign(w)
    return value, grad_w, grad_b


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
    full, _, _ = penalized_objective(config.loss, w, model.intercept, x, y, config.penalty, config.lam)
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
        assert_optimal(csr(np.array(rows, dtype=float)), labels, config)

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_l1_zeroes_irrelevant_columns(self, loss):
        # Column 0 decides the label; columns 1-4 are noise the L1 penalty removes.
        rng = np.random.default_rng(5)
        n = 60
        labels = ["positive" if i % 2 else "negative" for i in range(n)]
        signal = np.array([1.0 if label == "positive" else -1.0 for label in labels])
        dense = np.column_stack([signal + 0.3 * rng.normal(size=n), 0.1 * rng.normal(size=(n, 4))])
        model = train((csr(dense), labels), config=TrainConfig(loss=loss, penalty="l1", lam=0.05))
        assert model.metadata["converged"]
        assert np.flatnonzero(model.weights).tolist() == [0]
        assert model.weights[0] > 0.0

    def test_epochs_caps_iterations(self):
        examples = (csr([[1.0, 0.5], [0.0, 1.0]] * 3), ["positive", "negative"] * 3)
        capped = train(examples, config=TrainConfig(epochs=1))
        assert capped.metadata["epochs"] == 1 and not capped.metadata["converged"]
        assert capped.metadata["grad_norm"] > 1e-6
        full = train(examples, config=TrainConfig())
        assert full.metadata["converged"] and 1 < full.metadata["epochs"] < 300

    @pytest.mark.parametrize("field", ["lam"])
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
            values = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.5)
            x = csr(values)
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            w = rng.normal(size=d)
            b = float(rng.normal())
            penalty = "l2" if trial % 2 == 0 else "l1"
            lam = float(rng.choice([0.0, 1e-3, 0.1]))

            def f(w, b):
                return penalized_objective("hinge", w, b, x, y, penalty, lam)[0]

            value, grad_w, grad_b = penalized_objective("hinge", w, b, x, y, penalty, lam)
            assert value == pytest.approx(
                np.mean(np.maximum(0.0, 1.0 - y * (values @ w + b)) ** 2)
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
            x = csr(rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.4))
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
        assert model.scores(csr(np.zeros((1, 2)))).tolist() == [0.5]

    def test_sigmoid_limits(self):
        model = fixed_model([1000.0, 0.0])
        scores = model.scores(csr([[1.0, 0.0], [-1.0, 0.0]]))
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(0.0)

    def test_margin_ln3_scores_three_quarters(self):
        model = fixed_model([1.0, 0.0])
        assert model.scores(csr([[math.log(3), 0.0]]))[0] == pytest.approx(0.75)

    def test_score_monotone_in_margin(self):
        model = fixed_model([1.0, 0.0])
        scores = model.scores(csr([[m, 0.0] for m in [-3, -1, 0, 1, 3]])).tolist()
        assert scores == sorted(scores)

    def test_score_function_is_the_method(self):
        model = train(TWO_POINTS)
        x = csr([[0.5, 0.25], [0.0, 2.0]])
        assert score(model, x).tolist() == model.scores(x).tolist()

    @pytest.mark.parametrize("columns", [2, 7])
    def test_wrong_width_rejected(self, columns):
        vocab = build_vocabulary([doc("1", "a b c d")], orders=(1,))
        model = train((csr(np.eye(2, 4)), ["positive", "negative"]), vocab)
        with pytest.raises(InputError, match="4 weights"):
            model.scores(csr(np.zeros((1, columns))))
        with pytest.raises(InputError):
            score(model, csr(np.zeros((1, columns))))

    @pytest.mark.parametrize(
        "x", [np.eye(2), sp.csr_matrix(np.eye(2)), [[1.0, 0.0]], None], ids=["dense", "scipy", "list", "none"]
    )
    def test_anything_but_a_matrix_rejected(self, x):
        model = train(TWO_POINTS)
        with pytest.raises(InputError, match="sparse feature matrix"):
            model.scores(x)
        with pytest.raises(InputError, match="sparse feature matrix"):
            score(model, x)
        with pytest.raises(InputError, match="sparse feature matrix"):
            logistic_objective(np.zeros(2), 0.0, x, np.array([1.0, -1.0]), "l2", 0.0)

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


# A saved vocabulary's max_size is null or an integer of at least 1.
_BAD_MAX_SIZES = {
    "max_size a string": "abc",
    "max_size below 1": -5,
    "max_size an object": {},
    "max_size a float": 2.5,
    "max_size a boolean": True,
}


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        docs = [doc("1", "alpha beta gamma"), doc("2", "alpha delta")]
        vocab = build_vocabulary(docs, orders=(1,))
        x = _stacked([vectorize_document(d, vocab) for d in docs], len(vocab))
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
        [
            "weight outside vocabulary",
            "negative weight index",
            "vocabulary index not a permutation",
            "df lacks a term",
            "df has an extra term",
            "no orders",
            "order not an integer",
            "order beyond trigrams",
            *_BAD_MAX_SIZES,
        ],
    )
    def test_inconsistent_model_file_rejected(self, tmp_path, fault):
        vocab = build_vocabulary([doc("1", "a b c d")], orders=(1,))
        model = train((csr(np.eye(2, 4)), ["positive", "negative"]), vocab)
        if fault == "negative weight index":
            model.vocabulary = None
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = json.loads(path.read_text())
        vocab_blob = blob["vocabulary"]
        if fault == "weight outside vocabulary":
            blob["weights"]["4"] = 1.5
        elif fault == "negative weight index":
            blob["weights"]["-1"] = 1.5
        elif fault == "vocabulary index not a permutation":
            vocab_blob["index"]["d"] = 0
        elif fault == "df lacks a term":
            del vocab_blob["df"]["c"]
        elif fault == "df has an extra term":
            vocab_blob["df"]["e"] = 1
        elif fault == "no orders":
            vocab_blob["orders"] = []
        elif fault == "order not an integer":
            vocab_blob["orders"] = ["1"]
        elif fault in _BAD_MAX_SIZES:
            vocab_blob["max_size"] = _BAD_MAX_SIZES[fault]
        else:
            vocab_blob["orders"] = [4]
        path.write_text(json.dumps(blob))
        with pytest.raises(InputError, match="model.json"):
            load_model(path)

    def test_round_trip_without_vocabulary_keeps_the_width(self, tmp_path):
        # The last column is all zeros, so its weight trains to exactly 0.
        x = csr([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
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
                terms=tuple(tokens),
                df=tuple(data.draw(st.integers(1, 50)) for _ in tokens),
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


def reference_flags(cluster, corpus, rules):
    """The per-cluster evaluator that matched lexicon rules on each member
    text's own tokens: ``tokenize`` and ``Lexicon.occurrences``."""
    docs = corpus.members(cluster.members)
    tokens = [tokenize(d.text) for d in docs]
    out = {}
    for rule in rules:
        if rule.kind == "pattern":
            out[rule.name] = any(re.search(rule.pattern, d.text, re.IGNORECASE) for d in docs)
        elif rule.kind == "lexicon":
            out[rule.name] = any(Lexicon(rule.terms).occurrences(t) for t in tokens)
        elif rule.kind == "min_distinct_locations":
            out[rule.name] = len({p for d in docs for p in d.locations}) >= rule.k
        elif rule.kind == "min_distinct_phones":
            out[rule.name] = len({p for d in docs for p in d.phones}) >= rule.k
        else:
            out[rule.name] = sum(len(Lexicon(rule.terms).occurrences(t)) for t in tokens) >= rule.k
    return out


# Words whose tokens overlap the terms below; a KELVIN SIGN lowercases to
# "k", "Caf\u00e9" tokenizes to "caf" and a dotted capital I to "i".  No
# word gives the token "e".
_RULE_WORDS = ["a", "b", "A-b", "b.a", "c", "\u212a", "Caf\u00e9", "\u0130", "zz"]
_RULE_TERMS = ["a", "b", "a b", "A-B", "b a", "a a", "a b a", "k", "caf", "e", "a e", "i"]


@st.composite
def indicator_worlds(draw):
    n_docs = draw(st.integers(1, 6))
    documents = [
        doc(
            str(k),
            " ".join(draw(st.lists(st.sampled_from(_RULE_WORDS), max_size=8))),
            locations=tuple(sorted(draw(st.sets(st.sampled_from("xyz"))))),
            phones=tuple(sorted(draw(st.sets(st.sampled_from(["5550001", "5550002", "5550003"]))))),
        )
        for k in range(n_docs)
    ]
    ids = [d.id for d in documents]
    members = draw(st.lists(st.sets(st.sampled_from(ids), min_size=1), max_size=4))
    clusters = [Cluster(id=f"c{k}", members=frozenset(m)) for k, m in enumerate(members)]
    kinds = draw(st.lists(st.sampled_from(caserisk.model.RULE_KINDS), max_size=6))
    rules = []
    for number, kind in enumerate(kinds):
        k = draw(st.integers(1, 4))
        if kind == "pattern":
            rules.append(IndicatorRule(f"r{number}", kind, pattern=draw(st.sampled_from(["a", "b a", r"\bk\b", "caf", "e"]))))
        elif kind in ("lexicon", "min_lexicon_hits"):
            terms = tuple(draw(st.lists(st.sampled_from(_RULE_TERMS), min_size=1, max_size=4)))
            rules.append(IndicatorRule(f"r{number}", kind, terms=terms, k=k))
        else:
            rules.append(IndicatorRule(f"r{number}", kind, k=k))
    return Corpus(documents), clusters, rules


class TestIndicators:
    @settings(max_examples=300, deadline=None)
    @given(indicator_worlds())
    def test_flags_equal_the_per_member_reference(self, world):
        corpus, clusters, rules = world
        expected = [reference_flags(cluster, corpus, rules) for cluster in clusters]
        assert indicator_flags(clusters, corpus, rules) == expected
        assert [apply_indicators(cluster, corpus, rules) for cluster in clusters] == expected

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

    def test_lexicon_hits_count_each_distinct_term_once(self):
        corpus = Corpus([doc("1", "call site-alpha tonight")])
        cluster = Cluster(id="1", members=frozenset(["1"]))
        for terms in (("tonight", "tonight"), ("site alpha", "site-alpha"), ("TONIGHT", "tonight!")):
            rule = IndicatorRule(name="twice", kind="min_lexicon_hits", terms=terms, k=2)
            assert apply_indicators(cluster, corpus, [rule]) == {"twice": False}
        rule = IndicatorRule(name="twice", kind="min_lexicon_hits", terms=("tonight", "site alpha"), k=2)
        assert apply_indicators(cluster, corpus, [rule]) == {"twice": True}

    def test_lexicon_hits_count_overlapping_occurrences(self):
        corpus = Corpus([doc("1", "now now now")])
        cluster = Cluster(id="1", members=frozenset(["1"]))
        rule = IndicatorRule(name="urgent", kind="min_lexicon_hits", terms=("now now",), k=2)
        assert apply_indicators(cluster, corpus, [rule]) == {"urgent": True}

    def test_pattern_rule(self):
        corpus, cluster = self.cluster_world()
        rule = IndicatorRule(name="nightly", kind="pattern", pattern=r"to\w+ight")
        assert apply_indicators(cluster, corpus, [rule])["nightly"] is True

    def test_bad_pattern_names_rule(self):
        # A pattern is compiled when the rule is made, before any cluster.
        with pytest.raises(RuleCompilationError) as err:
            IndicatorRule(name="broken", kind="pattern", pattern="(unclosed")
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
            ' {"name": "risky", "kind": "lexicon", "lexicon_path": "risky.txt"},'
            ' {"name": "late", "kind": "lexicon", "terms": ["late"], "lexicon_path": null}]'
        )
        rules = load_rules(tmp_path / "rules.json")
        assert [r.name for r in rules] == ["movement", "risky", "late"]
        assert [r.k for r in rules] == [2, 1, 1]
        assert "tonight" in rules[1].terms
        assert rules[2].terms == ("late",)

    def test_rules_file_with_bad_pattern_names_rule(self, tmp_path):
        (tmp_path / "rules.json").write_text('[{"name": "nightly", "kind": "pattern", "pattern": "(unclosed"}]')
        with pytest.raises(RuleCompilationError) as err:
            load_rules(tmp_path / "rules.json")
        assert err.value.rule_name == "nightly"

    def test_rules_file_with_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "rules.json").write_text(
            '[{"name": "r", "kind": "min_distinct_phones"}, {"name": "r", "kind": "min_distinct_locations"}]'
        )
        with pytest.raises(InputError, match="duplicate rule name 'r'"):
            load_rules(tmp_path / "rules.json")

    @pytest.mark.parametrize("k", [2.9, 2.0, True, "2", None, [2]])
    def test_rules_file_with_a_k_that_is_not_an_integer_rejected(self, tmp_path, k):
        rule = {"name": "contacts", "kind": "min_distinct_phones", "k": k}
        (tmp_path / "rules.json").write_text(json.dumps([{"name": "ok", "kind": "min_distinct_phones"}, rule]))
        with pytest.raises(InputError, match=r"rules\.json: rule 1: k must be an integer"):
            load_rules(tmp_path / "rules.json")

    @pytest.mark.parametrize("lexicon_path", [5, 0, False, ["risky.txt"], {"path": "risky.txt"}])
    def test_rules_file_with_a_lexicon_path_that_is_not_a_string_rejected(self, tmp_path, lexicon_path):
        rule = {"name": "risky", "kind": "lexicon", "lexicon_path": lexicon_path}
        (tmp_path / "rules.json").write_text(json.dumps([{"name": "ok", "kind": "min_distinct_phones"}, rule]))
        with pytest.raises(InputError, match=r"rules\.json: rule 1: lexicon_path must be a string"):
            load_rules(tmp_path / "rules.json")

    @pytest.mark.parametrize("name", ["", 5, None])
    def test_rules_file_without_a_proper_name_rejected(self, tmp_path, name):
        # None stands for a rule with no "name" key at all.
        rule = {"kind": "min_distinct_phones"} if name is None else {"name": name, "kind": "min_distinct_phones"}
        (tmp_path / "rules.json").write_text(json.dumps([{"name": "ok", "kind": "min_distinct_phones"}, rule]))
        with pytest.raises(InputError, match=r"rules\.json: rule 1: name must be a non-empty string"):
            load_rules(tmp_path / "rules.json")
