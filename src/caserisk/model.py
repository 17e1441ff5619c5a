"""Featurization and interpretable linear risk models.

Documents are tokenized once into a document x n-gram count matrix (CSR),
with columns in sorted gram order.  A vocabulary is the set of columns
kept by document frequency over the training rows; document rows are
L2-normalized, and a cluster row is the renormalized mean of its member
rows, computed as a row-normalized membership matrix times the document
rows.  Models are penalized linear classifiers (logistic or hinge loss, L1
or L2 penalty) trained by deterministic full-batch gradient descent, so
identical inputs always reproduce identical weights.  Scores are
sigmoid-calibrated margins in [0, 1], and feature rankings come straight
from the weight magnitudes.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
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

# A sparse vector is an index -> weight map with no explicit zeros.
SparseVector = dict[int, float]


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


def _count_grams(
    docs: Sequence[Document],
    orders: tuple[int, ...],
    index: Optional[Mapping[str, int]] = None,
) -> tuple[csr_matrix, list[str]]:
    """Tokenize each document once into a document x n-gram count matrix.

    Without ``index`` every gram seen gets a column, in sorted gram order,
    and the grams are returned by column.  With ``index`` the columns are
    that mapping's, grams outside it are dropped and no grams are returned.
    """
    grow = index is None
    columns = {} if grow else index
    indptr = array("q", [0])
    indices = array("i")
    data = array("i")
    for doc in docs:
        counts = Counter(ngrams(tokenize(doc.text), orders))
        if grow:
            indices.extend([columns.setdefault(g, len(columns)) for g in counts])
            data.extend(counts.values())
        else:
            for gram, count in counts.items():
                col = columns.get(gram)
                if col is not None:
                    indices.append(col)
                    data.append(count)
        indptr.append(len(indices))
    cols = np.asarray(indices)
    grams: list[str] = []
    if grow:
        # Renumber first-seen ids so that columns follow sorted gram order.
        grams = sorted(columns)
        rank = np.empty(len(grams), dtype=np.int32)
        rank[[columns[g] for g in grams]] = np.arange(len(grams))
        cols = rank[cols]
    counts = csr_matrix(
        (np.asarray(data), cols, np.asarray(indptr)), shape=(len(docs), len(columns))
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
        docs = []
        sizes = []
        for cluster in clusters:
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
    """L2-normalized document rows over an existing vocabulary."""
    _check_weighting(weighting)
    if len(vocab) == 0:
        raise EmptyInputError("empty vocabulary")
    counts, _ = _count_grams(docs, vocab.orders, vocab.index)
    idf = None
    if weighting == "tfidf":
        idf = _idf(np.array([vocab.df[t] for t in vocab.tokens_by_index()]), vocab.n_docs)
    return _document_rows(counts, idf)


def _as_vector(x: csr_matrix) -> SparseVector:
    """The first row of x as an index -> weight map."""
    end = x.indptr[1]
    return dict(zip(x.indices[:end].tolist(), x.data[:end].tolist()))


def vectorize_document(doc: Document, vocab: Vocabulary, weighting: str = "tf") -> SparseVector:
    """Sparse bag-of-n-grams vector, L2-normalized when non-zero."""
    return _as_vector(_rows_against([doc], vocab, weighting))


def vectorize_cluster(
    cluster: Cluster, corpus: Corpus, vocab: Vocabulary, weighting: str = "tf"
) -> SparseVector:
    """Renormalized mean of the member document vectors."""
    members = sorted(cluster.members)
    for doc_id in members:
        if doc_id not in corpus:
            raise InputError(f"cluster member {doc_id!r} not in corpus")
    doc_rows = _rows_against([corpus.get(d) for d in members], vocab, weighting)
    return _as_vector(_cluster_rows(doc_rows, np.array([0, len(members)])))


@dataclass
class TrainConfig:
    loss: str = "logistic"  # logistic | hinge
    penalty: str = "l2"  # l2 | l1
    lam: float = 1e-4
    epochs: int = 300
    learning_rate: float = 0.5

    def validate(self) -> None:
        if self.loss not in ("logistic", "hinge"):
            raise InputError(f"unknown loss {self.loss!r}")
        if self.penalty not in ("l2", "l1"):
            raise InputError(f"unknown penalty {self.penalty!r}")
        if self.lam < 0 or self.epochs < 1 or self.learning_rate <= 0:
            raise InputError("bad training hyperparameters")


@dataclass
class RiskModel:
    weights: SparseVector
    intercept: float
    vocabulary: Optional[Vocabulary]
    loss: str
    penalty: str
    lam: float
    metadata: dict = field(default_factory=dict)

    def margin(self, vec: SparseVector) -> float:
        return sum(self.weights.get(i, 0.0) * w for i, w in vec.items()) + self.intercept

    def score(self, vec: SparseVector) -> float:
        """Risk score in [0, 1]: the sigmoid of the linear margin.

        Hinge-trained models use the same logistic link on the raw margin
        (identity-parameter calibration).
        """
        return _sigmoid(self.margin(vec))

    def scores(self, x: csr_matrix) -> np.ndarray:
        """Risk scores of the rows of a feature matrix: ``x @ w + b``
        through the same sigmoid as ``score``."""
        w = np.zeros(x.shape[1])
        w[list(self.weights)] = list(self.weights.values())
        return _stable_sigmoid(x @ w + self.intercept)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _as_sign(label) -> float:
    if label in (1, 1.0, True, "positive", "+", "pos"):
        return 1.0
    if label in (-1, -1.0, 0, False, "negative", "-", "neg"):
        return -1.0
    raise InputError(f"unrecognized label {label!r}")


def _to_matrix(vectors: Sequence[SparseVector], dim: int) -> csr_matrix:
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for vec in vectors:
        for idx in sorted(vec):
            if idx >= dim:
                raise InputError(f"vector index {idx} outside dimension {dim}")
            indices.append(idx)
            data.append(vec[idx])
        indptr.append(len(indices))
    return csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(vectors), dim),
    )


def _penalized_objective(
    loss: str,
    w: np.ndarray,
    b: float,
    x: csr_matrix,
    y: np.ndarray,
    penalty: str,
    lam: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean logistic or hinge loss with its analytic gradient.

    Returns (objective, grad_w, grad_b).  The intercept is not penalized.
    """
    margins = x.dot(w) + b
    z = y * margins
    # slope_i = -d loss_i / d z_i
    if loss == "logistic":
        losses, slope = np.logaddexp(0.0, -z), _stable_sigmoid(-z)
    else:
        losses, slope = np.maximum(0.0, 1.0 - z), (z < 1.0).astype(np.float64)
    value = float(np.mean(losses))
    coef = -y * slope / len(y)
    grad_w = x.T.dot(coef)
    grad_b = float(np.sum(coef))
    if penalty == "l2":
        value += lam * float(np.dot(w, w))
        grad_w = grad_w + 2.0 * lam * w
    else:
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


def train(
    examples: Sequence[tuple[SparseVector, object]] | tuple[csr_matrix, Sequence[object]],
    vocabulary: Optional[Vocabulary] = None,
    config: Optional[TrainConfig] = None,
) -> RiskModel:
    """Full-batch gradient descent on the penalized objective.

    ``examples`` is either a sequence of (sparse vector, label) pairs or
    one (feature matrix, labels) pair whose rows are the examples.

    A proposed step that raises the objective is rejected and retried at
    half the rate, so the accepted objective sequence is non-increasing.
    Training is deterministic for identical inputs.
    """
    config = config or TrainConfig()
    config.validate()
    x = None
    if len(examples) == 2 and issparse(examples[0]):
        x, labels = csr_matrix(examples[0]), list(examples[1])
        if x.shape[0] != len(labels):
            raise InputError(f"{x.shape[0]} feature rows for {len(labels)} labels")
        if vocabulary is not None and x.shape[1] != len(vocabulary):
            raise InputError(f"{x.shape[1]} feature columns for a vocabulary of {len(vocabulary)}")
    else:
        labels = [label for _, label in examples]
    if not labels:
        raise EmptyInputError("no training examples")
    y = np.asarray([_as_sign(label) for label in labels])
    if len(set(y.tolist())) < 2:
        raise DegenerateTrainingError("training data has a single class")
    if x is None:
        if vocabulary is not None:
            dim = len(vocabulary)
        else:
            dim = 1 + max((max(v) for v, _ in examples if v), default=-1)
        x = _to_matrix([v for v, _ in examples], dim)
    dim = x.shape[1]

    objective = partial(_penalized_objective, config.loss)
    w = np.zeros(dim)
    b = 0.0
    lr = config.learning_rate
    obj, grad_w, grad_b = objective(w, b, x, y, config.penalty, config.lam)
    epochs_run = 0
    for _ in range(config.epochs):
        grad_max = abs(grad_b)
        if dim > 0:
            grad_max = max(grad_max, float(np.max(np.abs(grad_w))))
        if grad_max < 1e-12:
            break
        accepted = False
        while lr >= 1e-15:
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            obj_new, gw_new, gb_new = objective(w_new, b_new, x, y, config.penalty, config.lam)
            if obj_new <= obj:
                w, b, obj, grad_w, grad_b = w_new, b_new, obj_new, gw_new, gb_new
                accepted = True
                break
            lr *= 0.5
        epochs_run += 1
        if not accepted:
            break

    weights = {int(i): float(v) for i, v in enumerate(w) if v != 0.0}
    return RiskModel(
        weights=weights,
        intercept=float(b),
        vocabulary=vocabulary,
        loss=config.loss,
        penalty=config.penalty,
        lam=config.lam,
        metadata={
            "epochs": epochs_run,
            "final_objective": float(obj),
            "learning_rate": config.learning_rate,
            "final_learning_rate": lr,
            "examples": len(labels),
        },
    )


def score(model: RiskModel, vec: SparseVector) -> float:
    return model.score(vec)


def feature_importance(model: RiskModel, top_k: int) -> list[tuple[str, float]]:
    """Top-k tokens by absolute weight, descending; ties lexicographic."""
    if top_k < 0:
        raise InputError("top_k must be >= 0")
    if model.vocabulary is not None:
        names = model.vocabulary.tokens_by_index()
        entries = [(names[i], w) for i, w in model.weights.items() if w != 0.0]
    else:
        entries = [(str(i), w) for i, w in model.weights.items() if w != 0.0]
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
    blob = {
        "format": MODEL_FORMAT,
        "loss": model.loss,
        "penalty": model.penalty,
        "lambda": model.lam,
        "intercept": model.intercept,
        "weights": {str(i): w for i, w in sorted(model.weights.items())},
        "vocabulary": vocab_blob,
        "metadata": model.metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> RiskModel:
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if blob.get("format") != MODEL_FORMAT:
        raise InputError(f"unsupported model format {blob.get('format')!r}")
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
    return RiskModel(
        weights={int(i): float(w) for i, w in blob["weights"].items()},
        intercept=float(blob["intercept"]),
        vocabulary=vocabulary,
        loss=blob["loss"],
        penalty=blob["penalty"],
        lam=float(blob["lambda"]),
        metadata=blob.get("metadata", {}),
    )


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
    """A named boolean clue over a document or a whole cluster."""

    name: str
    kind: str
    scope: str = "document"  # document | cluster
    terms: tuple[str, ...] = ()
    pattern: str = ""
    k: int = 1

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise RuleCompilationError(self.name, f"unknown kind {self.kind!r}")
        if self.scope not in ("document", "cluster"):
            raise RuleCompilationError(self.name, f"unknown scope {self.scope!r}")
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

    Each entry has name, kind, and optional scope / terms / lexicon_path /
    pattern / k; lexicon_path is resolved relative to the rules file.
    """
    base = Path(path).parent
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise InputError("rules file must contain a JSON list")
    rules = []
    for entry in raw:
        name = entry.get("name", "?")
        terms = tuple(entry.get("terms", ()))
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
                scope=entry.get("scope", "document"),
                terms=terms,
                pattern=entry.get("pattern", ""),
                k=int(entry.get("k", 1)),
            )
        )
    return rules
