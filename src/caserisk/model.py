"""Featurization and interpretable linear risk models.

One representation runs through the module: a feature vector is a row of a
CSR matrix whose columns are a vocabulary's, and a model's weights are one
dense array with a weight per column.  ``vectorize_document`` and
``vectorize_cluster`` return 1 x |V| rows, ``train`` takes a (feature
matrix, labels) pair, and ``RiskModel.scores`` scores the rows of a matrix.

Documents are tokenized once into a document x n-gram count matrix (CSR),
with columns in sorted gram order.  A vocabulary is the set of columns
kept by document frequency over the training rows; document rows are
L2-normalized, and a cluster row is the renormalized mean of its member
rows, computed as a row-normalized membership matrix times the document
rows.  Models are penalized linear classifiers: logistic or squared-hinge
(L2-SVM) loss, both smooth, with an L2 or L1 penalty on the weights and an
unpenalized intercept.  One quasi-Newton solver minimizes every
combination: L-BFGS, and under L1 its orthant-wise form OWL-QN, whose
weights come out exactly zero where the penalty wins.  It runs until the
(pseudo-)gradient inf-norm is at most 1e-6 or ``TrainConfig.epochs``
iterations have run, and is deterministic, so identical inputs always
reproduce identical weights.  Scores are sigmoid-calibrated margins in
[0, 1], and feature rankings come straight from the weight magnitudes.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix, issparse

from .clustering import Cluster
from .corpus import Corpus, Document, tokenize
from .errors import (
    DegenerateTrainingError,
    EmptyInputError,
    InputError,
    RuleCompilationError,
)


def ngrams(tokens: Sequence[str], orders: Iterable[int]) -> list[str]:
    grams = []
    for order in sorted(orders):
        if order == 1:
            grams.extend(tokens)
        else:
            grams.extend(
                " ".join(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
            )
    return grams


@dataclass(frozen=True)
class Vocabulary:
    index: Mapping[str, int]
    df: Mapping[str, int]
    orders: tuple[int, ...]
    n_docs: int
    max_size: Optional[int] = None

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def tokens_by_index(self) -> list[str]:
        out = [""] * len(self.index)
        for token, idx in self.index.items():
            out[idx] = token
        return out


def _check_orders(orders: Iterable[int]) -> tuple[int, ...]:
    orders = tuple(sorted(set(orders)))
    if not orders or any(o not in (1, 2, 3) for o in orders):
        raise InputError("orders must be a non-empty subset of {1, 2, 3}")
    return orders


def _count_grams(docs: Sequence[Document], orders: tuple[int, ...]) -> tuple[csr_matrix, list[str]]:
    """Tokenize each document once into a document x n-gram count matrix.

    Every gram seen gets a column, in sorted gram order, and the grams are
    returned by column.
    """
    columns: dict[str, int] = {}
    indptr = array("q", [0])
    indices = array("i")
    data = array("i")
    for doc in docs:
        counts = Counter(ngrams(tokenize(doc.text), orders))
        indices.extend([columns.setdefault(g, len(columns)) for g in counts])
        data.extend(counts.values())
        indptr.append(len(indices))
    # Renumber first-seen ids so that columns follow sorted gram order.
    grams = sorted(columns)
    rank = np.empty(len(grams), dtype=np.int32)
    rank[[columns[g] for g in grams]] = np.arange(len(grams))
    counts = csr_matrix(
        (np.asarray(data), rank[np.asarray(indices)], np.asarray(indptr)),
        shape=(len(docs), len(grams)),
    )
    counts.sort_indices()
    return counts, grams


def _fit_vocabulary(
    counts: csr_matrix,
    grams: Sequence[str],
    rows: np.ndarray,
    orders: tuple[int, ...],
    min_df: int,
    max_size: Optional[int],
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The vocabulary of the documents in ``rows``, its columns of ``counts``
    and their document frequencies.

    Keeps grams with document frequency >= min_df; beyond max_size the
    highest-df grams win, ties broken lexicographically, which is column
    order.  Vocabulary indices follow sorted gram order.
    """
    df = np.bincount(counts[rows].indices, minlength=counts.shape[1])
    cols = np.flatnonzero(df >= min_df)
    if max_size is not None and len(cols) > max_size:
        cols = np.sort(cols[np.lexsort((cols, -df[cols]))[:max_size]])
    kept = [grams[c] for c in cols.tolist()]
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(kept)},
        df=dict(zip(kept, df[cols].tolist())),
        orders=orders,
        n_docs=len(rows),
        max_size=max_size,
    )
    return vocab, cols, df[cols]


def build_vocabulary(
    docs: Sequence[Document],
    orders: Iterable[int] = (1,),
    min_df: int = 1,
    max_size: Optional[int] = None,
) -> Vocabulary:
    """Collect n-grams with document frequency >= min_df.

    When the result exceeds max_size, the highest-df grams are kept (ties
    broken lexicographically).  Indices follow sorted token order.
    """
    orders = _check_orders(orders)
    if min_df < 1:
        raise InputError("min_df must be >= 1")
    if not docs:
        raise EmptyInputError("no documents to build a vocabulary from")
    counts, grams = _count_grams(docs, orders)
    vocab, _, _ = _fit_vocabulary(counts, grams, np.arange(len(docs)), orders, min_df, max_size)
    return vocab


def _unit_rows(x: csr_matrix) -> csr_matrix:
    """Scale every non-zero row of x to unit L2 norm, in place."""
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    x.data /= np.repeat(norms, np.diff(x.indptr))
    return x


def _document_rows(counts: csr_matrix, idf: Optional[np.ndarray]) -> csr_matrix:
    """L2-normalized tf (or tf-idf, given idf by column) document rows."""
    x = counts.astype(np.float64)
    if idf is not None:
        x.data *= idf[x.indices]
    return _unit_rows(x)


def _cluster_rows(doc_rows: csr_matrix, doc_ptr: np.ndarray) -> csr_matrix:
    """Renormalized mean of each cluster's document rows.

    Cluster i owns document rows doc_ptr[i]:doc_ptr[i + 1], which must be
    non-empty.
    """
    sizes = np.diff(doc_ptr)
    membership = csr_matrix(
        (np.repeat(1.0 / sizes, sizes), np.arange(doc_ptr[-1]), doc_ptr),
        shape=(len(sizes), doc_rows.shape[0]),
    )
    return _unit_rows(membership @ doc_rows)


def _idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    return np.log((1 + n_docs) / (1 + df)) + 1.0


def _check_weighting(weighting: str) -> None:
    if weighting not in ("tf", "tfidf"):
        raise InputError(f"unknown weighting {weighting!r}")


class ClusterTerms:
    """The member documents of a cluster sequence, tokenized once.

    ``counts`` is their document x n-gram count matrix: rows grouped by
    cluster in sequence order, members in sorted id order, and columns in
    sorted gram order.  ``featurize`` selects a vocabulary's columns from
    it, so cross-validation folds never re-tokenize a document.
    """

    def __init__(self, clusters: Sequence[Cluster], corpus: Corpus, orders: Iterable[int] = (1,)):
        self.orders = _check_orders(orders)
        self.clusters = list(clusters)
        docs = []
        sizes = []
        for cluster in self.clusters:
            members = sorted(cluster.members)
            for doc_id in members:
                if doc_id not in corpus:
                    raise InputError(f"cluster member {doc_id!r} not in corpus")
                docs.append(corpus.get(doc_id))
            sizes.append(len(members))
        self.doc_ptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.counts, self.grams = _count_grams(docs, self.orders)

    def featurize(
        self,
        min_df: int = 1,
        max_size: Optional[int] = None,
        weighting: str = "tf",
        fit: Optional[np.ndarray] = None,
    ) -> tuple[Vocabulary, csr_matrix]:
        """Vocabulary of the clusters selected by the boolean mask ``fit``
        (all clusters when None) and every cluster's row against it.

        The rows equal ``vectorize_cluster`` of each cluster with that
        vocabulary, up to floating-point summation order.
        """
        _check_weighting(weighting)
        if min_df < 1:
            raise InputError("min_df must be >= 1")
        if fit is None:
            rows = np.arange(self.counts.shape[0])
        else:
            rows = np.flatnonzero(np.repeat(fit, np.diff(self.doc_ptr)))
        if len(rows) == 0:
            raise EmptyInputError("no documents to build a vocabulary from")
        vocab, cols, df = _fit_vocabulary(
            self.counts, self.grams, rows, self.orders, min_df, max_size
        )
        if len(vocab) == 0:
            raise EmptyInputError("empty vocabulary")
        idf = _idf(df, len(rows)) if weighting == "tfidf" else None
        doc_rows = _document_rows(self.counts[:, cols], idf)
        return vocab, _cluster_rows(doc_rows, self.doc_ptr)


def _rows_against(docs: Sequence[Document], vocab: Vocabulary, weighting: str) -> csr_matrix:
    """L2-normalized document rows over an existing vocabulary: every gram
    is counted, and the vocabulary's grams are moved to its columns."""
    _check_weighting(weighting)
    if len(vocab) == 0:
        raise EmptyInputError("empty vocabulary")
    counts, grams = _count_grams(docs, vocab.orders)
    kept = np.array([j for j, g in enumerate(grams) if g in vocab.index], dtype=np.int64)
    to_vocab = csr_matrix(
        (np.ones(len(kept)), (kept, [vocab.index[grams[j]] for j in kept.tolist()])),
        shape=(len(grams), len(vocab)),
    )
    counts = counts @ to_vocab
    counts.sort_indices()
    idf = None
    if weighting == "tfidf":
        idf = _idf(np.array([vocab.df[t] for t in vocab.tokens_by_index()]), vocab.n_docs)
    return _document_rows(counts, idf)


def vectorize_document(doc: Document, vocab: Vocabulary, weighting: str = "tf") -> csr_matrix:
    """The document's 1 x |V| bag-of-n-grams row, L2-normalized when non-zero."""
    return _rows_against([doc], vocab, weighting)


def vectorize_cluster(
    cluster: Cluster, corpus: Corpus, vocab: Vocabulary, weighting: str = "tf"
) -> csr_matrix:
    """The cluster's 1 x |V| row: the renormalized mean of its member
    document rows."""
    members = sorted(cluster.members)
    for doc_id in members:
        if doc_id not in corpus:
            raise InputError(f"cluster member {doc_id!r} not in corpus")
    doc_rows = _rows_against([corpus.get(d) for d in members], vocab, weighting)
    return _cluster_rows(doc_rows, np.array([0, len(members)]))


@dataclass
class TrainConfig:
    loss: str = "logistic"  # logistic | hinge (squared)
    penalty: str = "l2"  # l2 | l1
    lam: float = 1e-4
    epochs: int = 300  # solver iteration cap
    learning_rate: float = 0.5  # length of the first step

    def validate(self) -> None:
        if self.loss not in ("logistic", "hinge"):
            raise InputError(f"unknown loss {self.loss!r}")
        if self.penalty not in ("l2", "l1"):
            raise InputError(f"unknown penalty {self.penalty!r}")
        if not (math.isfinite(self.lam) and math.isfinite(self.learning_rate)):
            raise InputError("training hyperparameters must be finite")
        if self.lam < 0 or self.epochs < 1 or self.learning_rate <= 0:
            raise InputError("bad training hyperparameters")


@dataclass(eq=False)
class RiskModel:
    weights: np.ndarray  # dense, one weight per feature column
    intercept: float
    vocabulary: Optional[Vocabulary]
    loss: str
    penalty: str
    lam: float
    metadata: dict = field(default_factory=dict)

    def scores(self, x: csr_matrix) -> np.ndarray:
        """Risk scores in [0, 1] of the rows of a feature matrix: the
        sigmoid of the margins ``x @ weights + intercept``.

        Hinge-trained models use the same logistic link on the raw margin
        (identity-parameter calibration).
        """
        if x.shape[1] != len(self.weights):
            raise InputError(f"{x.shape[1]} feature columns for a model of {len(self.weights)} weights")
        return _stable_sigmoid(x @ self.weights + self.intercept)


def _as_sign(label) -> float:
    if label in (1, 1.0, True, "positive", "+", "pos"):
        return 1.0
    if label in (-1, -1.0, 0, False, "negative", "-", "neg"):
        return -1.0
    raise InputError(f"unrecognized label {label!r}")


def _smooth_objective(
    loss: str, w: np.ndarray, b: float, x: csr_matrix, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean logistic or squared-hinge loss plus ``l2 * w.w``, with its
    analytic gradient (objective, grad_w, grad_b)."""
    z = y * (x.dot(w) + b)
    # slope_i = -d loss_i / d z_i
    if loss == "logistic":
        losses, slope = np.logaddexp(0.0, -z), _stable_sigmoid(-z)
    else:
        gap = np.maximum(0.0, 1.0 - z)
        losses, slope = gap * gap, 2.0 * gap
    coef = -y * slope / len(y)
    value = float(np.mean(losses)) + l2 * float(np.dot(w, w))
    return value, x.T.dot(coef) + 2.0 * l2 * w, float(np.sum(coef))


def _penalized_objective(
    loss: str,
    w: np.ndarray,
    b: float,
    x: csr_matrix,
    y: np.ndarray,
    penalty: str,
    lam: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean logistic or squared-hinge loss with its analytic
    gradient (under L1, the subgradient ``lam * sign(w)``).

    Returns (objective, grad_w, grad_b).  The intercept is not penalized.
    """
    value, grad_w, grad_b = _smooth_objective(loss, w, b, x, y, lam if penalty == "l2" else 0.0)
    if penalty == "l1":
        value += lam * float(np.sum(np.abs(w)))
        grad_w = grad_w + lam * np.sign(w)
    return value, grad_w, grad_b


def logistic_objective(
    w: np.ndarray,
    b: float,
    x: csr_matrix,
    y: np.ndarray,
    penalty: str,
    lam: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean logistic loss with its analytic gradient.

    Returns (objective, grad_w, grad_b).  The intercept is not penalized.
    """
    return _penalized_objective("logistic", w, b, x, y, penalty, lam)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# The solver: L-BFGS (Liu & Nocedal 1989), in its orthant-wise form OWL-QN
# (Andrew & Gao 2007) under an L1 penalty.
_MEMORY = 10  # curvature pairs kept
_TOLERANCE = 1e-6  # converged at this (pseudo-)gradient inf-norm
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking search
_HALVINGS = 60  # backtracking steps before the search gives up


def _pseudo_gradient(theta: np.ndarray, grad: np.ndarray, l1: float) -> np.ndarray:
    """The gradient of ``f + l1 * |w|_1`` where it exists; at ``w_j = 0``
    the one-sided derivative of steepest descent, 0 when 0 is a
    subgradient.  ``theta`` is ``w`` then the unpenalized intercept."""
    if l1 == 0.0:
        return grad
    w, g = theta[:-1], grad[:-1]
    left, right = g - l1, g + l1
    pg = grad.copy()
    pg[:-1] = np.where(w > 0, right, np.where(w < 0, left, np.clip(0.0, left, right)))
    return pg


def _lbfgs_direction(grad: np.ndarray, pairs: Sequence[tuple]) -> np.ndarray:
    """``-H grad`` by the two-loop recursion, H the inverse-Hessian estimate
    from the (s, y, 1 / s.y) pairs, oldest first."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.dot(s, q))
        q -= alphas[-1] * y
    s, y, rho = pairs[-1]
    q /= rho * np.dot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.dot(y, q)) * s
    return -q


def _minimize(fun, n: int, l1: float, first_step: float, max_iter: int):
    """Minimize ``fun(theta) + l1 * |theta[:-1]|_1`` from zero.

    ``fun`` returns the smooth part and its gradient.  Each iteration steps
    along the L-BFGS direction of the pseudo-gradient, backtracking by
    halves to the Armijo condition from a step of 1 or, with no curvature
    pair yet, from a step of length ``first_step``.  Only pairs with
    ``s.y > 0`` are kept, so the direction descends.  A step that changes
    no gradient (the squared hinge is flat where every margin exceeds 1),
    or a search that finds no decrease, drops the pairs: steepest descent
    restarts the estimate instead of creeping on a stale one.

    With ``l1 > 0`` every trial point is projected onto the current orthant
    (for a zero weight, the side of minus its pseudo-gradient): a weight
    that would cross zero, or leave it the wrong way, is exactly zero.
    Andrew & Gao's OWL-QN also zeroes the direction where it opposes a
    non-zero weight's pseudo-gradient.  That constraint is left out: at
    zero weights the projection already enforces it, and elsewhere it left
    small ill-conditioned problems unconverged after thousands of
    iterations.

    Stops at a pseudo-gradient inf-norm of at most ``_TOLERANCE`` or after
    ``max_iter`` iterations.  Returns (theta, objective, iterations,
    pseudo-gradient inf-norm, converged).
    """
    theta = np.zeros(n)
    total, grad = fun(theta)  # the L1 term is 0 at zero
    pairs: deque = deque(maxlen=_MEMORY)
    iterations = 0
    while True:
        pg = _pseudo_gradient(theta, grad, l1)
        norm = float(np.max(np.abs(pg)))
        if norm <= _TOLERANCE or iterations == max_iter:
            break
        direction = _lbfgs_direction(pg, pairs) if pairs else -pg
        step = 1.0 if pairs else first_step / float(np.linalg.norm(pg))
        if l1:
            orthant = np.where(theta[:-1] != 0, np.sign(theta[:-1]), -np.sign(pg[:-1]))
        for _ in range(_HALVINGS):
            trial = theta + step * direction
            if l1:
                tw = trial[:-1]
                tw[np.sign(tw) != orthant] = 0.0
            trial_value, trial_grad = fun(trial)
            trial_total = trial_value + l1 * float(np.sum(np.abs(trial[:-1])))
            if trial_total <= total + _ARMIJO * float(np.dot(pg, trial - theta)):
                break
            step *= 0.5
        else:
            if not pairs:
                break  # not even a steepest-descent step decreases the objective
            pairs.clear()
            continue
        s, y = trial - theta, trial_grad - grad
        sy = float(np.dot(s, y))
        if sy > np.finfo(float).eps * float(np.dot(y, y)):
            pairs.append((s, y, 1.0 / sy))
        else:
            pairs.clear()
        theta, total, grad = trial, trial_total, trial_grad
        iterations += 1
    return theta, total, iterations, norm, norm <= _TOLERANCE


def train(
    examples: tuple[csr_matrix, Sequence[object]],
    vocabulary: Optional[Vocabulary] = None,
    config: Optional[TrainConfig] = None,
) -> RiskModel:
    """Minimize the penalized objective with ``_minimize``.

    ``examples`` is one (sparse feature matrix, labels) pair whose rows are
    the examples; anything else raises InputError.  The model has one
    weight per column of the matrix.

    ``config.epochs`` caps the solver's iterations and
    ``config.learning_rate`` is the length of its first step.  The metadata
    records the iterations run (``epochs``), the final (pseudo-)gradient
    inf-norm (``grad_norm``) and whether it reached the tolerance
    (``converged``).  Training is deterministic for identical inputs.
    """
    config = config or TrainConfig()
    config.validate()
    if not (isinstance(examples, (tuple, list)) and len(examples) == 2 and issparse(examples[0])):
        raise InputError("training examples must be one (sparse feature matrix, labels) pair")
    x, labels = csr_matrix(examples[0]), list(examples[1])
    if x.shape[0] != len(labels):
        raise InputError(f"{x.shape[0]} feature rows for {len(labels)} labels")
    if vocabulary is not None and x.shape[1] != len(vocabulary):
        raise InputError(f"{x.shape[1]} feature columns for a vocabulary of {len(vocabulary)}")
    if not labels:
        raise EmptyInputError("no training examples")
    y = np.asarray([_as_sign(label) for label in labels])
    if len(set(y.tolist())) < 2:
        raise DegenerateTrainingError("training data has a single class")

    l2, l1 = (config.lam, 0.0) if config.penalty == "l2" else (0.0, config.lam)

    def smooth(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_w, grad_b = _smooth_objective(config.loss, theta[:-1], theta[-1], x, y, l2)
        return value, np.append(grad_w, grad_b)

    theta, objective, iterations, grad_norm, converged = _minimize(
        smooth, x.shape[1] + 1, l1, config.learning_rate, config.epochs
    )
    return RiskModel(
        weights=theta[:-1],
        intercept=float(theta[-1]),
        vocabulary=vocabulary,
        loss=config.loss,
        penalty=config.penalty,
        lam=config.lam,
        metadata={
            "epochs": iterations,
            "final_objective": objective,
            "grad_norm": grad_norm,
            "converged": converged,
            "learning_rate": config.learning_rate,
            "examples": len(labels),
        },
    )


def score(model: RiskModel, x: csr_matrix) -> np.ndarray:
    """The risk scores of the rows of ``x``: ``model.scores(x)``."""
    return model.scores(x)


def _nonzero_weights(model: RiskModel) -> list[tuple[int, float]]:
    """(column, weight) of each non-zero weight, by column."""
    nonzero = np.flatnonzero(model.weights)
    return list(zip(nonzero.tolist(), model.weights[nonzero].tolist()))


def feature_importance(model: RiskModel, top_k: int) -> list[tuple[str, float]]:
    """Top-k tokens by absolute weight, descending; ties lexicographic."""
    if top_k < 0:
        raise InputError("top_k must be >= 0")
    entries = _nonzero_weights(model)
    if model.vocabulary is not None:
        names = model.vocabulary.tokens_by_index()
        entries = [(names[i], w) for i, w in entries]
    else:
        entries = [(str(i), w) for i, w in entries]
    entries.sort(key=lambda kv: (-abs(kv[1]), kv[0]))
    return entries[:top_k]


MODEL_FORMAT = "caserisk-model/1"


def save_model(model: RiskModel, path: str | Path) -> None:
    if model.vocabulary is None:
        vocab_blob = None
    else:
        vocab_blob = {
            "index": dict(sorted(model.vocabulary.index.items())),
            "df": dict(sorted(model.vocabulary.df.items())),
            "orders": list(model.vocabulary.orders),
            "n_docs": model.vocabulary.n_docs,
            "max_size": model.vocabulary.max_size,
        }
    entries = _nonzero_weights(model)
    if model.vocabulary is None and len(model.weights) and model.weights[-1] == 0.0:
        # With no vocabulary the last index written is the vector's width.
        entries.append((len(model.weights) - 1, 0.0))
    blob = {
        "format": MODEL_FORMAT,
        "loss": model.loss,
        "penalty": model.penalty,
        "lambda": model.lam,
        "intercept": model.intercept,
        "weights": {str(i): w for i, w in entries},
        "vocabulary": vocab_blob,
        "metadata": model.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> RiskModel:
    """Read a model written by ``save_model``; a file that is not one
    raises InputError naming it.

    The weight vector has one entry per vocabulary term, or with no
    vocabulary, up to the largest weight index, which ``save_model``
    always writes.  A vocabulary index that
    is not a permutation of 0..n-1, or a weight index outside the weight
    vector, makes the file malformed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not a JSON model file: {exc}") from exc
    if not isinstance(blob, dict) or blob.get("format") != MODEL_FORMAT:
        found = blob.get("format") if isinstance(blob, dict) else None
        raise InputError(f"{path}: unsupported model format {found!r}")
    try:
        vocab_blob = blob.get("vocabulary")
        vocabulary = None
        if vocab_blob is not None:
            vocabulary = Vocabulary(
                index={t: int(i) for t, i in vocab_blob["index"].items()},
                df={t: int(c) for t, c in vocab_blob["df"].items()},
                orders=tuple(vocab_blob["orders"]),
                n_docs=int(vocab_blob["n_docs"]),
                max_size=vocab_blob["max_size"],
            )
            if sorted(vocabulary.index.values()) != list(range(len(vocabulary))):
                raise InputError(
                    f"{path}: vocabulary index is not a permutation of 0..{len(vocabulary) - 1}"
                )
        entries = {int(i): float(w) for i, w in blob["weights"].items()}
        dim = len(vocabulary) if vocabulary is not None else max(entries, default=-1) + 1
        outside = sorted(i for i in entries if not 0 <= i < dim)
        if outside:
            raise InputError(f"{path}: weight index {outside[0]} outside a vocabulary of {dim} terms")
        weights = np.zeros(dim)
        weights[list(entries)] = list(entries.values())
        return RiskModel(
            weights=weights,
            intercept=float(blob["intercept"]),
            vocabulary=vocabulary,
            loss=blob["loss"],
            penalty=blob["penalty"],
            lam=float(blob["lambda"]),
            metadata=blob.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from exc


# --- indicator rules ---------------------------------------------------

RULE_KINDS = (
    "lexicon",
    "pattern",
    "min_distinct_locations",
    "min_distinct_phones",
    "min_lexicon_hits",
)


@dataclass(frozen=True)
class IndicatorRule:
    """A named boolean clue, evaluated over a whole cluster."""

    name: str
    kind: str
    terms: tuple[str, ...] = ()
    pattern: str = ""
    k: int = 1

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise RuleCompilationError(self.name, f"unknown kind {self.kind!r}")
        if self.kind in ("lexicon", "min_lexicon_hits") and not self.terms:
            raise RuleCompilationError(self.name, "lexicon rule needs terms")
        if self.kind == "pattern" and not self.pattern:
            raise RuleCompilationError(self.name, "pattern rule needs a pattern")
        if self.k < 1:
            raise RuleCompilationError(self.name, "threshold k must be >= 1")


def _lexicon_hits(text: str, terms: Sequence[str]) -> int:
    tokens = tokenize(text)
    counts = Counter(tokens)
    hits = 0
    for term in terms:
        parts = tokenize(term)
        if not parts:
            continue
        if len(parts) == 1:
            hits += counts.get(parts[0], 0)
        else:
            n = len(parts)
            hits += sum(
                1 for i in range(len(tokens) - n + 1) if tokens[i : i + n] == parts
            )
    return hits


def apply_indicators(
    cluster: Cluster,
    corpus: Corpus,
    rules: Sequence[IndicatorRule],
) -> dict[str, bool]:
    """Evaluate each rule over the cluster's member documents."""
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise InputError("duplicate rule names")
    docs = [corpus.get(d) for d in sorted(cluster.members)]
    out: dict[str, bool] = {}
    for rule in rules:
        if rule.kind == "pattern":
            try:
                compiled = re.compile(rule.pattern, re.IGNORECASE)
            except re.error as exc:
                raise RuleCompilationError(rule.name, f"bad pattern: {exc}") from exc
            out[rule.name] = any(compiled.search(d.text) for d in docs)
        elif rule.kind == "lexicon":
            out[rule.name] = any(_lexicon_hits(d.text, rule.terms) > 0 for d in docs)
        elif rule.kind == "min_distinct_locations":
            distinct = set()
            for d in docs:
                distinct.update(d.locations)
            out[rule.name] = len(distinct) >= rule.k
        elif rule.kind == "min_distinct_phones":
            distinct = set()
            for d in docs:
                distinct.update(d.phones)
            out[rule.name] = len(distinct) >= rule.k
        else:  # min_lexicon_hits
            hits = sum(_lexicon_hits(d.text, rule.terms) for d in docs)
            out[rule.name] = hits >= rule.k
    return out


def load_rules(path: str | Path) -> list[IndicatorRule]:
    """Read indicator rules from a JSON file.

    Each entry has name, kind, and optional terms / lexicon_path / pattern
    / k; lexicon_path is resolved relative to the rules file.  Other keys
    are ignored.  A file that is not such a list raises InputError naming
    it.
    """
    base = Path(path).parent
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not a JSON rules file: {exc}") from exc
    if not isinstance(raw, list):
        raise InputError(f"{path}: rules file must contain a JSON list")
    rules = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: rule {position} is not a JSON object")
        name = entry.get("name", "?")
        terms = entry.get("terms", [])
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise InputError(f"{path}: rule {position}: terms must be a list of strings")
        terms = tuple(terms)
        pattern = entry.get("pattern", "")
        if not isinstance(pattern, str):
            raise InputError(f"{path}: rule {position}: pattern must be a string")
        try:
            k = int(entry.get("k", 1))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: rule {position}: bad k: {exc}") from exc
        lexicon_path = entry.get("lexicon_path")
        if lexicon_path:
            with open(base / lexicon_path, "r", encoding="utf-8") as fh:
                terms = terms + tuple(
                    line.strip().lower() for line in fh if line.strip()
                )
        rules.append(
            IndicatorRule(
                name=name,
                kind=entry.get("kind", ""),
                terms=terms,
                pattern=pattern,
                k=k,
            )
        )
    return rules
