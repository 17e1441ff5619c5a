"""Featurization and interpretable linear risk models.

One representation runs through the module: a feature vector is a row of a
CSR matrix (``_sparse.CSR``, over numpy alone) whose columns are a
vocabulary's, and a model's weights are one dense array with a weight per
column.  Every feature row comes from ``ClusterTerms``: ``featurize``
fits a vocabulary, ``rows`` takes an existing one, and
``vectorize_document`` and ``vectorize_cluster`` are its 1 x |V| rows.
``train`` takes a (``CSR`` feature matrix, labels) pair, and
``RiskModel.scores`` scores the rows of a ``CSR`` matrix.  The solver's
products are the matrix's own (``CSR.matvec``, ``CSR.rmatvec``).  The
kernels live in ``_sparse``, and every loop here that walks rows, texts
or clusters a block at a time takes its blocks from ``_sparse.spans``,
under the one budget ``_sparse._BUDGET``.

A ``ClusterTerms`` gathers its documents' rows of the corpus's token
stream (``Corpus.token_stream``), cuts a removal lexicon's terms from
them (one-token terms by one mask over the ids; ``Lexicon.cuts`` runs
only on a text that holds the first token of a longer term), and counts
them once into a document x n-gram count matrix (CSR), with columns in
sorted gram order; it tokenizes no text.  Given the run's ``min_df``, it
gives no column to a gram that no vocabulary fitted at that ``min_df``
could keep.  A vocabulary is the set of columns kept by document
frequency over the training rows; document rows are L2-normalized, and a
cluster row is the renormalized mean of its member rows, summed by
``bincount`` into the cluster's merged row of grams, which is found once
per ``ClusterTerms``.  Models are
penalized linear classifiers: logistic or squared-hinge (L2-SVM) loss, both smooth, with an L2 or L1 penalty on the weights and an
unpenalized intercept.  One quasi-Newton solver minimizes every
combination: L-BFGS, and under L1 its orthant-wise form OWL-QN, whose
weights come out exactly zero where the penalty wins.  It runs until the
(pseudo-)gradient inf-norm is at most 1e-6 or ``TrainConfig.epochs``
iterations have run, and is deterministic, so identical inputs always
reproduce identical weights.  Scores are sigmoid-calibrated margins in
[0, 1], and feature rankings come straight from the weight magnitudes:
``np.partition`` finds the top-k-th, and only the weights that reach it
are sorted.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from ._sparse import CSR, columns_of, ranges, run_starts, segments, spans, summed, sums, take
from .clustering import Cluster
from .corpus import (
    Corpus,
    Document,
    Lexicon,
    gram_counts,
    gram_tokens,
    read_terms,
    text_lines,
    token_ids,
    write_json,
)
from .errors import (
    DegenerateTrainingError,
    EmptyInputError,
    InputError,
    RuleCompilationError,
)


@dataclass(frozen=True)
class Vocabulary:
    """The grams of a feature matrix's columns: column j is the gram
    ``terms[j]``, with document frequency ``df[j]`` over the ``n_docs``
    documents it was fitted on."""

    terms: tuple[str, ...]
    df: tuple[int, ...]
    orders: tuple[int, ...]
    n_docs: int
    max_size: Optional[int] = None

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @cached_property
    def index(self) -> dict[str, int]:
        """Each gram's column, built on the first lookup."""
        return {t: j for j, t in enumerate(self.terms)}


def _check_orders(orders: Iterable[int]) -> tuple[int, ...]:
    orders = tuple(sorted(set(orders)))
    if not orders or any(o not in (1, 2, 3) for o in orders):
        raise InputError("orders must be a non-empty subset of {1, 2, 3}")
    return orders


@dataclass(frozen=True)
class _GramColumns:
    """The grams of a count matrix's columns, joined into strings on demand.

    Row c of ``parts`` holds column c's token ids into the sorted ``tokens``,
    then -1 past the gram's last token.
    """

    tokens: list[str]
    parts: np.ndarray

    def __len__(self) -> int:
        return len(self.parts)

    def strings(self, cols: np.ndarray) -> list[str]:
        words = np.array(self.tokens + [""], dtype=object)  # id -1 reads ""
        parts = self.parts[cols]
        out = words[parts[:, 0]]
        for k in range(1, parts.shape[1]):
            out = out + np.where(parts[:, k] >= 0, " ", "").astype(object) + words[parts[:, k]]
        return out.tolist()


def _count_grams(
    stream: tuple[list[str], np.ndarray, np.ndarray], orders: tuple[int, ...], min_df: int = 1
) -> tuple[CSR, _GramColumns]:
    """The document x n-gram count matrix of a ``token_ids`` stream.

    Every gram seen in at least ``min_df`` texts gets a column, in sorted
    gram order, and the grams are returned by column; no vocabulary fitted
    at that ``min_df`` over some of the texts can keep any other.  Grams
    are counted as ``gram_counts`` rows of ``gram_ids`` integers, one order
    at a time; an order's ids follow its token-id tuples, and
    ``token_ids`` numbers tokens in sorted order.  A text holds each of its
    grams once, so a gram's run in the order's sorted ids is its document
    frequency, and the entries of a gram cut there are cut from the rows
    before the orders are merged.  Sorted gram strings are in the order of
    their token tuples, a gram first before its extensions, because the
    joining space sorts before every token character.  So one lexsort of
    the grams of every order, as token-id rows padded with -1 to the
    longest order, gives the columns.
    """
    tokens, ids, lengths = stream
    width = max(orders)
    per_order, parts = [], []
    base = 0
    for n in orders:
        indptr, grams, counts, keys = gram_counts(ids, lengths, n, len(tokens))
        values = np.sort(grams)
        first = run_starts(values)
        values = values[first]
        if min_df > 1:
            starts = np.flatnonzero(first)
            values = values[np.diff(starts, append=len(first)) >= min_df]
            del starts
        del first
        cols, found = columns_of(grams, values)
        del grams
        if not found.all():
            indptr, cols, counts = _cut(indptr, found, cols, counts)
        del found
        cols += base
        per_order.append((indptr, cols, counts))
        base += len(values)
        order_parts = np.full((len(values), width), -1, dtype=np.int32)
        order_parts[:, :n] = gram_tokens(values, n, len(tokens), keys)
        parts.append(order_parts)
        del values, cols, counts
    n_docs = len(lengths)
    parts = np.concatenate(parts)
    order = np.lexsort(parts.T[::-1])
    parts = parts[order]
    column = np.empty(len(parts), dtype=np.int32)
    column[order] = np.arange(len(parts))
    del order
    # Columns keep an order's own gram order, so each order's rows are
    # sorted, and a single order is its own sum.
    shape = (n_docs, len(parts))
    orders_counts = [CSR(indptr, column[cols], data, shape) for indptr, cols, data in per_order]
    del per_order
    counts = orders_counts[0] if len(orders_counts) == 1 else summed(orders_counts)
    return counts, _GramColumns(tokens, parts)


def _cut(indptr: np.ndarray, keep: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``indptr`` over the entry ``arrays`` less the entries where
    ``keep`` is False: the new ``indptr``, then each array cut in place, a
    block of rows at a time, and returned as a view of its kept prefix."""
    out = np.zeros_like(indptr)
    at = 0
    for start, stop in spans(np.diff(indptr) + 1):
        lo, hi = indptr[start], indptr[stop]
        held = keep[lo:hi]
        before = np.concatenate(([0], np.cumsum(held)))
        out[start + 1 : stop + 1] = at + before[indptr[start + 1 : stop + 1] - lo]
        for entries in arrays:
            entries[at : at + before[-1]] = entries[lo:hi][held]
        at += int(before[-1])
    return (out, *(entries[:at] for entries in arrays))


def _document_frequency(counts: CSR, rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Each column's document frequency over the rows of ``counts`` that
    the boolean mask ``rows`` selects (all rows when None).

    Counted a block of rows at a time, because ``np.bincount`` copies its
    int32 column indices to int64.
    """
    df = np.zeros(counts.shape[1], dtype=np.int64)
    for start, stop in spans(counts.lengths() + 1):
        block = counts.row_view(start, stop)
        cols = block.indices
        if rows is not None:
            cols = cols[np.repeat(rows[start:stop], block.lengths())]
        df += np.bincount(cols, minlength=len(df))
    return df


def _fit_vocabulary(
    df: np.ndarray,
    n_docs: int,
    grams: _GramColumns,
    orders: tuple[int, ...],
    min_df: int,
    max_size: Optional[int],
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    """The vocabulary of ``n_docs`` documents whose columns have document
    frequencies ``df``, its columns and their document frequencies.

    Keeps grams with document frequency >= min_df; beyond max_size the
    highest-df grams win, ties broken lexicographically, which is column
    order.  Vocabulary indices follow sorted gram order.
    """
    cols = np.flatnonzero(df >= min_df)
    if max_size is not None and len(cols) > max_size:
        cols = np.sort(cols[np.lexsort((cols, -df[cols]))[:max_size]])
    vocab = Vocabulary(tuple(grams.strings(cols)), tuple(df[cols].tolist()), orders, n_docs, max_size)
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
    counts, grams = _count_grams(token_ids(doc.text for doc in docs), orders, min_df)
    vocab, _, _ = _fit_vocabulary(_document_frequency(counts), len(docs), grams, orders, min_df, max_size)
    return vocab


def _unit_rows(x: CSR) -> CSR:
    """Scale every non-zero row of x to unit L2 norm, in place.

    A row's squares are summed by ``np.add.reduceat``, a block of rows at
    a time and without a copy of x.
    """
    for start, stop in spans(x.lengths() + 1):
        block = x.row_view(start, stop)
        lengths = block.lengths()
        rows = np.flatnonzero(lengths)
        squares = np.add.reduceat(np.square(block.data), block.indptr[rows])
        norms = np.zeros(stop - start)
        norms[rows] = np.sqrt(squares)
        np.divide(block.data, np.repeat(norms, lengths), out=block.data)  # block.data is a view of x.data
    return x


def _document_rows(counts: CSR, idf: Optional[np.ndarray]) -> CSR:
    """L2-normalized tf (or tf-idf, given idf by column) document rows."""
    data = counts.data.astype(np.float64)
    if idf is not None:
        data *= idf[counts.indices]
    return _unit_rows(CSR(counts.indptr, counts.indices, data, counts.shape))


def _stacked(blocks: list[CSR], width: int) -> CSR:
    """The blocks' rows in order as one CSR matrix; the list is emptied,
    so each block is freed once it is copied."""
    nnz = sum(block.nnz for block in blocks)
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=np.int32)
    indptr = [np.zeros(1, dtype=np.int64)]
    at = 0
    blocks.reverse()
    while blocks:
        block = blocks.pop()
        data[at : at + block.nnz] = block.data
        indices[at : at + block.nnz] = block.indices
        indptr.append(block.indptr[1:] + at)
        at += block.nnz
    indptr = np.concatenate(indptr)
    return CSR(indptr, indices, data, (len(indptr) - 1, width))


def _idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    return np.log((1 + n_docs) / (1 + df)) + 1.0


def _check_weighting(weighting: str) -> None:
    if weighting not in ("tf", "tfidf"):
        raise InputError(f"unknown weighting {weighting!r}")


def _gathered(
    stream: tuple[list[str], np.ndarray, np.ndarray], rows: np.ndarray, remove: Optional[Lexicon] = None
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Texts ``rows`` of a ``token_ids`` stream, in that order, as their own
    stream: what ``token_ids`` of those texts gives.  With ``remove``, a
    text keeps the tokens that ``remove.cuts`` keeps, which are the tokens
    of what ``remove_tokens`` leaves of it.

    A text that holds no first token of a term of several tokens never
    holds one, even once deletions join its neighbours, so it loses
    exactly the tokens of the one-token terms: one mask over every text.
    Only a text that holds such a first token is cut on its token strings.
    """
    tokens, stream_ids, lengths = stream
    starts = (np.cumsum(lengths) - lengths)[rows]
    lengths = lengths[rows]
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    ids = np.empty(ptr[-1], dtype=stream_ids.dtype)
    for start, stop in spans(lengths + 1):  # a block of texts at a time
        ids[ptr[start] : ptr[stop]] = stream_ids[ranges(starts[start:stop], lengths[start:stop])]
    if remove is not None:
        marked = np.searchsorted(ptr, np.flatnonzero(np.isin(ids, remove.first_ids(tokens, 2))), side="right") - 1
        # A token never holds a space, so it is a term only as a one-token term.
        one_token = np.zeros(len(tokens), dtype=bool)
        one_token[[at for at, token in enumerate(tokens) if token in remove.terms]] = True
        drop = take(one_token, ids, np.empty(len(ids), dtype=bool))
        for text in marked[run_starts(marked)].tolist():  # its cuts hold its masked tokens too
            lo = ptr[text]
            for start, stop in remove.cuts([tokens[i] for i in ids[lo : ptr[text + 1]].tolist()]):
                drop[lo + start : lo + stop] = True
        text_of = np.searchsorted(ptr, np.flatnonzero(drop), side="right") - 1
        lengths = lengths - np.bincount(text_of, minlength=len(lengths))
        del text_of
        ids = ids[np.logical_not(drop, out=drop)]
    # Renumbered over the tokens left, which keeps their sorted order.
    held = np.zeros(len(tokens), dtype=bool)
    held[ids] = True
    take(np.cumsum(held) - 1, ids, ids)
    return [tokens[i] for i in np.flatnonzero(held).tolist()], ids, lengths


class ClusterTerms:
    """The member documents of a cluster sequence, counted once.

    ``counts`` is their document x n-gram count matrix: rows grouped by
    cluster in sequence order, members in sorted id order, and columns in
    sorted gram order.  The rows are gathered from the corpus's
    ``token_stream``, so no document is tokenized again.  ``featurize``
    selects a fitted vocabulary's columns from it, so cross-validation
    folds never count a document again, and ``rows`` an existing
    vocabulary's, found by gram.  Tokens that ``remove`` cuts (see
    ``_gathered``) are not counted.  With ``min_df`` above 1, only grams in
    at least that many of the documents get a column (see
    ``_count_grams``): ``featurize`` then takes no lower ``min_df``, and
    ``rows`` takes no vocabulary, since either could need a gram that was
    cut.  Each cluster's document rows are also merged once into one row
    of its grams (``_sparse.segments``: ``merged_ptr`` and each entry's
    ``place``), so that a fold sums its means without sorting.
    """

    def __init__(
        self,
        clusters: Sequence[Cluster],
        corpus: Corpus,
        orders: Iterable[int] = (1,),
        remove: Optional[Lexicon] = None,
        min_df: int = 1,
    ):
        self.orders = _check_orders(orders)
        if min_df < 1:
            raise InputError("min_df must be >= 1")
        self.min_df = min_df
        self.clusters = list(clusters)
        rows, self.doc_ptr = corpus.cluster_rows(cluster.members for cluster in self.clusters)
        self.counts, self.grams = _count_grams(_gathered(corpus.token_stream, rows, remove), self.orders, min_df)
        self.merged_ptr, self.place = segments(self.counts, self.doc_ptr)

    @cached_property
    def df(self) -> np.ndarray:
        """Each column's document frequency over every cluster's documents."""
        return _document_frequency(self.counts)

    def featurize(
        self,
        min_df: int = 1,
        max_size: Optional[int] = None,
        weighting: str = "tf",
        fit: Optional[np.ndarray] = None,
    ) -> tuple[Vocabulary, CSR]:
        """Vocabulary of the clusters selected by the boolean mask ``fit``
        (all clusters when None) and every cluster's row against it.

        The fit clusters' rows come first and the others' after them, each
        in sequence order, so that each side is a ``CSR.row_view`` of one
        matrix.  The rows equal, bit for bit, ``vectorize_cluster`` of each
        cluster with that vocabulary.
        """
        _check_weighting(weighting)
        if min_df < self.min_df:
            raise InputError(f"min_df must be >= {self.min_df}, the min_df these terms were counted at")
        sizes = np.diff(self.doc_ptr)
        if fit is None:
            order = np.arange(len(sizes))
            df, n_docs = self.df, self.counts.shape[0]
        else:
            fit = np.asarray(fit, dtype=bool)
            order = np.concatenate((np.flatnonzero(fit), np.flatnonzero(~fit)))
            df = self.df - _document_frequency(self.counts, np.repeat(~fit, sizes))
            n_docs = int(sizes[fit].sum())
        if n_docs == 0:
            raise EmptyInputError("no documents to build a vocabulary from")
        vocab, cols, df = _fit_vocabulary(df, n_docs, self.grams, self.orders, min_df, max_size)
        if len(vocab) == 0:
            raise EmptyInputError("empty vocabulary")
        lookup = np.full(self.counts.shape[1], -1, dtype=np.int32)
        lookup[cols] = np.arange(len(cols))
        return vocab, self._rows(lookup, len(cols), _idf(df, n_docs) if weighting == "tfidf" else None, order)

    def rows(self, vocab: Vocabulary, weighting: str = "tf") -> CSR:
        """Every cluster's row against an existing vocabulary, in sequence
        order: a column's gram is looked up in ``vocab.index``, and idf
        comes from ``vocab.df`` and ``vocab.n_docs``."""
        _check_weighting(weighting)
        if self.min_df > 1:
            raise InputError(f"terms counted at min_df {self.min_df} may lack a vocabulary's grams")
        if len(vocab) == 0:
            raise EmptyInputError("empty vocabulary")
        grams = self.grams.strings(np.arange(len(self.grams)))
        lookup = np.array([vocab.index.get(gram, -1) for gram in grams], dtype=np.int32)
        idf = _idf(np.array(vocab.df), vocab.n_docs) if weighting == "tfidf" else None
        x = self._rows(lookup, len(vocab), idf, np.arange(len(self.clusters)))
        kept = lookup[lookup >= 0]  # out of gram order in a hand-built vocabulary
        return x if np.all(kept[1:] > kept[:-1]) else summed([x])

    def _rows(self, lookup: np.ndarray, width: int, idf: Optional[np.ndarray], order: np.ndarray) -> CSR:
        """The rows of clusters ``order``, in that order, over ``width``
        columns: count column c goes to column ``lookup[c]``, or is dropped
        where that is -1.  A cluster's row is the renormalized mean of its
        L2-normalized tf (or tf-idf, given idf by output column) document
        rows."""
        counts = self.counts
        sizes = np.diff(self.doc_ptr)
        entries, lengths = np.diff(counts.indptr[self.doc_ptr]), np.diff(self.merged_ptr)
        doc_lengths = counts.lengths()
        share = np.repeat(1.0 / sizes, sizes)  # a document's weight in its cluster's mean
        # A block of clusters at a time, so that a block's document rows
        # exist only while its means are summed; a row's values do not
        # depend on the block it is computed in.
        means = []
        for start, stop in spans(entries[order] + 1):
            block = order[start:stop]
            rows = ranges(self.doc_ptr[block], sizes[block])
            at = ranges(counts.indptr[self.doc_ptr[block]], entries[block])
            merged_ptr = np.concatenate(([0], np.cumsum(lengths[block])))
            positions = self.place[at] + np.repeat(merged_ptr[:-1], entries[block])
            # The output columns of the documents' grams, then of the
            # clusters' merged grams; -1 where a gram is dropped.
            mapped = np.take(lookup, counts.indices[at])
            kept = np.flatnonzero(mapped >= 0)
            doc_ptr = np.searchsorted(kept, np.concatenate(([0], np.cumsum(doc_lengths[rows]))))
            docs = _document_rows(CSR(doc_ptr, mapped[kept], counts.data[at[kept]], (len(rows), width)), idf)
            total = sums(positions[kept], docs.data * np.repeat(share[rows], docs.lengths()), merged_ptr[-1])
            column = np.empty(merged_ptr[-1], dtype=np.int32)
            column[positions] = mapped
            found = np.flatnonzero(column >= 0)
            means.append(CSR(np.searchsorted(found, merged_ptr), column[found], total[found], (len(block), width)))
        return _unit_rows(_stacked(means, width))


def vectorize_document(doc: Document, vocab: Vocabulary, weighting: str = "tf") -> CSR:
    """The document's 1 x |V| bag-of-n-grams row, L2-normalized when
    non-zero: its ``ClusterTerms`` row as a cluster of one."""
    cluster = Cluster(id=doc.id, members=frozenset([doc.id]))
    return ClusterTerms([cluster], Corpus([doc]), vocab.orders).rows(vocab, weighting)


def vectorize_cluster(cluster: Cluster, corpus: Corpus, vocab: Vocabulary, weighting: str = "tf") -> CSR:
    """The cluster's 1 x |V| row: the renormalized mean of its member
    document rows.  Only the members are tokenized."""
    return ClusterTerms([cluster], Corpus(corpus.members(cluster.members)), vocab.orders).rows(vocab, weighting)


@dataclass
class TrainConfig:
    loss: str = "logistic"  # logistic | hinge (squared)
    penalty: str = "l2"  # l2 | l1
    lam: float = 1e-4
    epochs: int = 300  # solver iteration cap

    def validate(self) -> None:
        if self.loss not in ("logistic", "hinge"):
            raise InputError(f"unknown loss {self.loss!r}")
        if self.penalty not in ("l2", "l1"):
            raise InputError(f"unknown penalty {self.penalty!r}")
        if not math.isfinite(self.lam):
            raise InputError("training hyperparameters must be finite")
        if self.lam < 0 or self.epochs < 1:
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

    def scores(self, x: CSR) -> np.ndarray:
        """Risk scores in [0, 1] of the ``CSR`` rows of a sparse feature
        matrix: the sigmoid of the margins ``x @ weights + intercept``.

        Hinge-trained models use the same logistic link on the raw margin
        (identity-parameter calibration).
        """
        if not isinstance(x, CSR):
            raise InputError("features must be a sparse feature matrix")
        if x.shape[1] != len(self.weights):
            raise InputError(f"{x.shape[1]} feature columns for a model of {len(self.weights)} weights")
        return _stable_sigmoid(x.matvec(self.weights) + self.intercept)


def _as_sign(label) -> float:
    if label in (1, 1.0, True, "positive", "+", "pos"):
        return 1.0
    if label in (-1, -1.0, 0, False, "negative", "-", "neg"):
        return -1.0
    raise InputError(f"unrecognized label {label!r}")


def _smooth_objective(
    loss: str, w: np.ndarray, b: float, x: CSR, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean logistic or squared-hinge loss plus ``l2 * w.w``, with its
    analytic gradient (objective, grad_w, grad_b)."""
    z = y * (x.matvec(w) + b)
    # slope_i = -d loss_i / d z_i
    if loss == "logistic":
        losses, slope = np.logaddexp(0.0, -z), _stable_sigmoid(-z)
    else:
        gap = np.maximum(0.0, 1.0 - z)
        losses, slope = gap * gap, 2.0 * gap
    coef = -y * slope / len(y)
    value = float(np.mean(losses)) + l2 * float(np.dot(w, w))
    return value, x.rmatvec(coef) + 2.0 * l2 * w, float(np.sum(coef))


def logistic_objective(
    w: np.ndarray,
    b: float,
    x: CSR,
    y: np.ndarray,
    penalty: str,
    lam: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean logistic loss with its analytic gradient (under L1,
    the subgradient ``lam * sign(w)``), over the ``CSR`` rows of a sparse
    feature matrix ``x``.

    Returns (objective, grad_w, grad_b).  The intercept is not penalized.
    """
    if not isinstance(x, CSR):
        raise InputError("features must be a sparse feature matrix")
    value, grad_w, grad_b = _smooth_objective("logistic", w, b, x, y, lam if penalty == "l2" else 0.0)
    if penalty == "l1":
        value += lam * float(np.sum(np.abs(w)))
        grad_w = grad_w + lam * np.sign(w)
    return value, grad_w, grad_b


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
_FIRST_STEP = 0.5  # length of the step taken before any curvature pair exists


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


def _minimize(fun, n: int, l1: float, max_iter: int):
    """Minimize ``fun(theta) + l1 * |theta[:-1]|_1`` from zero.

    ``fun`` returns the smooth part and its gradient.  Each iteration steps
    along the L-BFGS direction of the pseudo-gradient, backtracking by
    halves to the Armijo condition from a step of 1 or, with no curvature
    pair yet, from a step of length ``_FIRST_STEP``.  Only pairs with
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
        step = 1.0 if pairs else _FIRST_STEP / float(np.linalg.norm(pg))
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
    examples: tuple[object, Sequence[object]],
    vocabulary: Optional[Vocabulary] = None,
    config: Optional[TrainConfig] = None,
) -> RiskModel:
    """Minimize the penalized objective with ``_minimize``.

    ``examples`` is one (sparse feature matrix, labels) pair whose rows are
    the examples, the matrix ``CSR`` rows as ``ClusterTerms.featurize``
    gives them; anything else raises InputError.  The model has one weight
    per column of the matrix.

    ``config.epochs`` caps the solver's iterations.  The metadata records
    the iterations run (``epochs``), the final (pseudo-)gradient inf-norm
    (``grad_norm``) and whether it reached the tolerance (``converged``).
    Training is deterministic for identical inputs.
    """
    config = config or TrainConfig()
    config.validate()
    if not (isinstance(examples, (tuple, list)) and len(examples) == 2 and isinstance(examples[0], CSR)):
        raise InputError("training examples must be one (sparse feature matrix, labels) pair")
    x, labels = examples[0], list(examples[1])
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

    theta, objective, iterations, grad_norm, converged = _minimize(smooth, x.shape[1] + 1, l1, config.epochs)
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
            "examples": len(labels),
        },
    )


def score(model: RiskModel, x: CSR) -> np.ndarray:
    """The risk scores of the rows of ``x``: ``model.scores(x)``."""
    return model.scores(x)


def _nonzero_weights(model: RiskModel) -> list[tuple[int, float]]:
    """(column, weight) of each non-zero weight, by column."""
    nonzero = np.flatnonzero(model.weights)
    return list(zip(nonzero.tolist(), model.weights[nonzero].tolist()))


def feature_importance(model: RiskModel, top_k: int) -> list[tuple[str, float]]:
    """Top-k tokens by absolute weight, descending; ties lexicographic.

    Only the non-zero weights at least as large as the top_k-th largest,
    found by ``np.partition``, are sorted: ties with it included, so that
    the names break them as they would over every weight.
    """
    if top_k < 0:
        raise InputError("top_k must be >= 0")
    magnitude = np.abs(model.weights)
    cols = np.flatnonzero(magnitude)
    if top_k < len(cols):
        kth = len(cols) - top_k
        least = np.partition(magnitude[cols], kth)[kth] if top_k else np.inf
        cols = cols[magnitude[cols] >= least]
    ids = cols.tolist()
    names = [model.vocabulary.terms[i] for i in ids] if model.vocabulary is not None else [str(i) for i in ids]
    entries = sorted(zip(names, model.weights[cols].tolist()), key=lambda kv: (-abs(kv[1]), kv[0]))
    return entries[:top_k]


MODEL_FORMAT = "caserisk-model/1"


def save_model(model: RiskModel, path: str | Path) -> None:
    vocab = model.vocabulary
    vocab_blob = None
    if vocab is not None:
        vocab_blob = {
            "index": dict(sorted(zip(vocab.terms, range(len(vocab))))),
            "df": dict(sorted(zip(vocab.terms, vocab.df))),
            "orders": list(vocab.orders),
            "n_docs": vocab.n_docs,
            "max_size": vocab.max_size,
        }
    entries = _nonzero_weights(model)
    if vocab is None and len(model.weights) and model.weights[-1] == 0.0:
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
    write_json(path, blob)


def load_model(path: str | Path) -> RiskModel:
    """Read a model written by ``save_model``; a file that is not one
    raises InputError naming it.

    The weight vector has one entry per vocabulary term, or with no
    vocabulary, up to the largest weight index, which ``save_model``
    always writes.  A vocabulary index that is not a permutation of
    0..n-1, a df that names other terms than the index, n-gram orders
    outside {1, 2, 3}, a max_size that is neither null nor an integer of
    at least 1, a weight index outside the weight vector, a loss,
    penalty or lambda that ``TrainConfig.validate`` rejects, or metadata
    that is not an object, makes the file malformed.
    """
    try:
        blob = json.loads("".join(text_lines(path)))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not a JSON model file: {exc}") from exc
    if not isinstance(blob, dict) or blob.get("format") != MODEL_FORMAT:
        found = blob.get("format") if isinstance(blob, dict) else None
        raise InputError(f"{path}: unsupported model format {found!r}")
    try:
        solver = TrainConfig(loss=blob["loss"], penalty=blob["penalty"], lam=float(blob["lambda"]))
        try:
            solver.validate()
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from exc
        metadata = blob.get("metadata", {})
        if not isinstance(metadata, dict):
            raise InputError(f"{path}: metadata is not a JSON object")
        vocab_blob = blob.get("vocabulary")
        vocabulary = None
        if vocab_blob is not None:
            index, df = vocab_blob["index"], vocab_blob["df"]
            by_column = {int(j): t for t, j in index.items()}
            if sorted(by_column) != list(range(len(index))):
                raise InputError(f"{path}: vocabulary index is not a permutation of 0..{len(index) - 1}")
            if df.keys() != index.keys():
                raise InputError(f"{path}: vocabulary df and index name different terms")
            try:
                orders = _check_orders(vocab_blob["orders"])
            except InputError as exc:
                raise InputError(f"{path}: vocabulary {exc}") from exc
            max_size = vocab_blob["max_size"]
            if max_size is not None and (type(max_size) is not int or max_size < 1):
                raise InputError(f"{path}: vocabulary max_size {max_size!r} is neither null nor an integer >= 1")
            terms = tuple(by_column[j] for j in range(len(index)))
            vocabulary = Vocabulary(terms, tuple(int(df[t]) for t in terms), orders, int(vocab_blob["n_docs"]), max_size)
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
            loss=solver.loss,
            penalty=solver.penalty,
            lam=solver.lam,
            metadata=metadata,
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
_LEXICON_KINDS = ("lexicon", "min_lexicon_hits")


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
        if self.kind in _LEXICON_KINDS and not self.terms:
            raise RuleCompilationError(self.name, "lexicon rule needs terms")
        if self.k < 1:
            raise RuleCompilationError(self.name, "threshold k must be >= 1")
        if self.kind == "pattern":
            if not self.pattern:
                raise RuleCompilationError(self.name, "pattern rule needs a pattern")
            try:
                self._compiled
            except re.error as exc:
                raise RuleCompilationError(self.name, f"bad pattern: {exc}") from exc

    @cached_property
    def _lexicon(self) -> Lexicon:
        return Lexicon(self.terms)

    @cached_property
    def _compiled(self) -> re.Pattern:
        return re.compile(self.pattern, re.IGNORECASE)


def indicator_flags(clusters: Sequence[Cluster], corpus: Corpus, rules: Sequence[IndicatorRule]) -> list[dict[str, bool]]:
    """Evaluate each rule over each cluster's member documents, one dict
    of flags per cluster, in sequence order.

    A lexicon kind reads the corpus's ``token_stream``: ``Lexicon.find``
    gives each text's occurrences of each term, overlapping ones included,
    and a cluster's hits are its members' summed.
    """
    names = [r.name for r in rules]
    if len(set(names)) != len(names):
        raise InputError("duplicate rule names")
    rows, ptr = corpus.cluster_rows(cluster.members for cluster in clusters)
    found, bounds = rows.tolist(), ptr.tolist()
    members = [[corpus.documents[k] for k in found[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    columns: dict[str, list[bool]] = {}
    for rule in rules:
        if rule.kind == "pattern":
            columns[rule.name] = [any(rule._compiled.search(d.text) for d in docs) for docs in members]
        elif rule.kind == "min_distinct_locations":
            columns[rule.name] = [len({p for d in docs for p in d.locations}) >= rule.k for docs in members]
        elif rule.kind == "min_distinct_phones":
            columns[rule.name] = [len({p for d in docs for p in d.phones}) >= rule.k for docs in members]
        else:  # a lexicon kind: each member text's occurrences
            texts, _, counts = rule._lexicon.find(corpus.token_stream)
            per_text = np.bincount(texts, weights=counts, minlength=len(corpus))
            hits = np.add.reduceat(per_text[rows], ptr[:-1])
            columns[rule.name] = (hits >= (1 if rule.kind == "lexicon" else rule.k)).tolist()
    return [{name: flags[k] for name, flags in columns.items()} for k in range(len(members))]


def apply_indicators(cluster: Cluster, corpus: Corpus, rules: Sequence[IndicatorRule]) -> dict[str, bool]:
    """Evaluate each rule over the cluster's member documents: the
    ``indicator_flags`` of the cluster alone over a corpus of its members,
    so only the members are tokenized."""
    return indicator_flags([cluster], Corpus(corpus.members(cluster.members)), rules)[0]


def load_rules(path: str | Path) -> list[IndicatorRule]:
    """Read indicator rules from a JSON file.

    Each entry has name, kind, and optional terms / lexicon_path / pattern
    / k; lexicon_path is resolved relative to the rules file.  Other keys
    are ignored.  A file that is not such a list, that has a rule without a
    non-empty string name, with a k that is not a JSON integer or with a
    lexicon_path that is not a string, or that names two rules alike,
    raises InputError naming it; a rule that does not compile raises
    RuleCompilationError naming the rule.
    """
    base = Path(path).parent
    try:
        raw = json.loads("".join(text_lines(path)))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not a JSON rules file: {exc}") from exc
    if not isinstance(raw, list):
        raise InputError(f"{path}: rules file must contain a JSON list")
    rules = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: rule {position} is not a JSON object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise InputError(f"{path}: rule {position}: name must be a non-empty string")
        terms = entry.get("terms", [])
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise InputError(f"{path}: rule {position}: terms must be a list of strings")
        terms = tuple(terms)
        pattern = entry.get("pattern", "")
        if not isinstance(pattern, str):
            raise InputError(f"{path}: rule {position}: pattern must be a string")
        k = entry.get("k", 1)
        if not isinstance(k, int) or isinstance(k, bool):
            raise InputError(f"{path}: rule {position}: k must be an integer, got {k!r}")
        lexicon_path = entry.get("lexicon_path")
        if lexicon_path is not None and not isinstance(lexicon_path, str):
            raise InputError(f"{path}: rule {position}: lexicon_path must be a string")
        if lexicon_path:
            terms += tuple(read_terms(base / lexicon_path))
        if any(rule.name == name for rule in rules):
            raise InputError(f"{path}: duplicate rule name {name!r}")
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
