"""Similarity graph construction and correlation clustering.

Documents are linked by a disjunction of interpretable signals (shared
phone, high text-shingle overlap, shared location within a date window
with weaker text overlap), one rule at every corpus size.  Candidate
pairs are those that share a phone and those that prefix filtering finds
for the text thresholds, which miss no pair that reaches them, so large
corpora never pay an all-pairs comparison.  Partitions are produced by
random-pivot correlation clustering, optionally combined across seeds by
co-association consensus and polished by single-node local search on the
disagreement objective.

The graph's nodes are the corpus's rows ``0..n-1``, in ascending id
order, so every order over nodes is an order over ids.
Each document's phones, locations and word shingles become a row of a 0/1
sparse incidence matrix.  The shingles are counted from the corpus's
token stream (``Corpus.token_stream``), whose rows are in node order, so
the graph tokenizes no text itself.  A shingle is identified by its exact
``gram_ids`` id (its token ids packed into an int64, or ranked when they
do not fit), so distinct shingles never collide; ``gram_counts`` gives
each document's ids sorted, and one sort of all of them finds the shared
ones.  Only shingles that two or more documents share get a column,
numbered by ascending document frequency; the rest count toward their
row's size alone.  Candidate generation is integer-only: the candidate
pairs are the upper triangle of ``B @ B.T`` for the phone matrix and for
the matrix of each row's prefix, its rarest shingles, de-duplicated on a
packed ``i * n + j`` key.  Every candidate pair is then scored from
row-wise sparse intersections, each a merge of the pair's two rows.  The
triangle and the scoring
(``_sparse.upper_gram`` and ``row_intersections``, numpy alone) run a
block at a time, each block bounded by the entries it expands, so their
temporaries stay small beside the graph.  ``SimilarityGraph`` keeps the
edges as index arrays with provenance bitmasks plus CSR adjacency.
KwikCluster, consensus and refine run over those arrays on label arrays,
one label per node, and only the result becomes a ``Clustering``.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._sparse import CSR, columns_of, ones, row_intersections, run_starts, spans, steps, summed, upper_gram
from .corpus import Corpus, Document, gram_counts, shingles, text_lines
from .errors import InputError

SIGNAL_PHONE = "phone-match"
SIGNAL_TEXT = "text-shingle"
SIGNAL_LOCATION_DATE = "location-date"

# A provenance code is a bitmask over the signals; bit k is _SIGNALS[k].
_SIGNALS = (SIGNAL_PHONE, SIGNAL_TEXT, SIGNAL_LOCATION_DATE)
_PHONE, _TEXT, _LOCATION_DATE = 1, 2, 4
_PROVENANCE = tuple(
    frozenset(s for bit, s in enumerate(_SIGNALS) if code >> bit & 1) for code in range(8)
)


def text_similarity(a: Document, b: Document, shingle_len: int) -> float:
    """Jaccard similarity of the two documents' word-shingle sets."""
    sa = shingles(a.text, shingle_len)
    sb = shingles(b.text, shingle_len)
    if not sa and not sb:
        return 0.0
    inter = len(sa & sb)
    if inter == 0:
        return 0.0
    return inter / (len(sa) + len(sb) - inter)


@dataclass
class GraphConfig:
    tau_text: float = 0.5
    shingle_len: int = 2
    use_phones: bool = True
    use_text: bool = True
    use_location_date: bool = False
    date_window_days: int = 7


class SimilarityGraph:
    """Undirected positive-edge graph over document ids with edge provenance.

    ``node_ids`` holds the ids given, sorted, and node ``k`` is
    ``node_ids[k]``, the k-th smallest id.  Edge ``e`` joins nodes ``src[e]
    < dst[e]``, sorted by ``(src, dst)`` and so by id pair, and its
    provenance is ``provenances[codes[e]]``.  ``indptr`` and ``indices`` are the CSR
    adjacency, each row's neighbours ascending; node indices are int32.
    ``edges`` (id pair with the smaller id first -> provenance) and
    ``adjacency`` (id -> neighbour ids) are views built from the arrays on
    first use.
    """

    def __init__(self, node_ids: Iterable[str], edges: Mapping[tuple[str, str], Iterable[str]]):
        node_ids = tuple(sorted(node_ids))
        index = {node: k for k, node in enumerate(node_ids)}
        if len(index) != len(node_ids):
            raise InputError("duplicate node ids")
        by_pair: dict[tuple[int, int], frozenset[str]] = {}
        for (a, b), provenance in edges.items():
            if a == b:
                raise InputError(f"self-loop on {a!r}")
            if a not in index or b not in index:
                raise InputError(f"edge references unknown node: ({a!r}, {b!r})")
            i, j = index[a], index[b]
            by_pair[(i, j) if i < j else (j, i)] = frozenset(provenance)
        provenances = tuple(dict.fromkeys(by_pair.values()))
        code_of = {p: c for c, p in enumerate(provenances)}
        pairs = sorted(by_pair)
        self._store(
            node_ids,
            index,
            np.array([i for i, _ in pairs], dtype=np.int32),
            np.array([j for _, j in pairs], dtype=np.int32),
            np.array([code_of[by_pair[p]] for p in pairs], dtype=np.int64),
            provenances,
        )

    @classmethod
    def _from_arrays(cls, node_ids, src, dst, codes, provenances) -> "SimilarityGraph":
        """A graph from sorted ids and edge arrays that already hold: ``src
        < dst``, sorted by ``(src, dst)``, no pair twice."""
        graph = cls.__new__(cls)
        node_ids = tuple(node_ids)
        graph._store(node_ids, {node: k for k, node in enumerate(node_ids)}, src, dst, codes, provenances)
        return graph

    def _store(self, node_ids, index, src, dst, codes, provenances) -> None:
        self.node_ids: tuple[str, ...] = node_ids
        self.index: dict[str, int] = index
        self.src, self.dst, self.codes = src, dst, codes
        self.provenances: tuple[frozenset[str], ...] = provenances
        rows = np.concatenate([src, dst], dtype=np.int32)
        cols = np.concatenate([dst, src], dtype=np.int32)
        self.indices: np.ndarray = cols[np.lexsort((cols, rows))]
        self.indptr: np.ndarray = np.zeros(len(node_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(node_ids)), out=self.indptr[1:])

    @cached_property
    def edges(self) -> dict[tuple[str, str], frozenset[str]]:
        ids, provenances = self.node_ids, self.provenances
        out = {}
        for i, j, code in zip(self.src.tolist(), self.dst.tolist(), self.codes.tolist()):
            out[(ids[i], ids[j])] = provenances[code]
        return out

    @cached_property
    def adjacency(self) -> dict[str, set[str]]:
        return {node: self.neighbors(node) for node in self.node_ids}

    def __contains__(self, pair: tuple[str, str]) -> bool:
        a, b = pair
        key = (a, b) if a < b else (b, a)
        return key in self.edges

    def neighbors(self, node: str) -> set[str]:
        k = self.index[node]
        return {self.node_ids[v] for v in self.indices[self.indptr[k] : self.indptr[k + 1]].tolist()}

    def edge_count(self) -> int:
        return len(self.src)


def _value_incidence(values_per_doc: Sequence[Sequence[str]]) -> CSR:
    """Document x value 0/1 incidence (phones, locations); a value listed
    twice counts once."""
    ids: dict[str, int] = {}
    cols = np.fromiter((ids.setdefault(v, len(ids)) for values in values_per_doc for v in values), np.int32)
    indptr = np.zeros(len(values_per_doc) + 1, dtype=np.int64)
    np.cumsum([len(values) for values in values_per_doc], out=indptr[1:])
    merged = summed([ones(indptr, cols, len(ids))])  # sorted, a repeat summed into one entry
    return ones(merged.indptr, merged.indices, len(ids))


def _shingle_incidence(stream: tuple[list[str], np.ndarray, np.ndarray], shingle_len: int) -> tuple[CSR, np.ndarray]:
    """The shared-shingle incidence and each document's shingle count, from
    the documents' token stream (``Corpus.token_stream``).

    A document's shingles are the set ``shingles`` returns.  Row d of the
    0/1 matrix holds those of document d that some other document has too;
    a shingle no other document has adds to no intersection, so it only
    counts toward the row's size.  Columns are numbered by ascending
    document frequency, ties in ``gram_ids`` order, so each row lists its
    shingles rarest first.
    """
    vocab, ids, lengths = stream
    indptr, grams, _, _ = gram_counts(ids, lengths, shingle_len, len(vocab))
    ordered = np.sort(grams)
    repeat = ordered[1:] == ordered[:-1]
    shared = ordered[1:][repeat]
    shared = shared[run_starts(shared)]
    del ordered, repeat
    col, keep = columns_of(grams, shared)
    del grams
    col = col[keep]
    indptr, sizes = np.concatenate(([0], np.cumsum(keep)))[indptr], np.diff(indptr)
    del keep
    rank = np.empty(len(shared), dtype=np.int32)
    rank[np.argsort(np.bincount(col, minlength=len(shared)), kind="stable")] = np.arange(len(shared))
    return summed([ones(indptr, rank[col], len(shared))]), sizes


def _prefixes(text: CSR, sizes: np.ndarray, tau: float, scale: int) -> CSR:
    """Each row's prefix: of the shared shingles in ``text`` (rarest first),
    those that two documents must have one of in common when their
    Jaccard similarity J meets ``scale * J >= tau``.

    Prefix filtering (Bayardo, Ma & Srikant, WWW 2007): order every
    shingle by ascending document frequency.  A document of ``size``
    shingles that reaches the threshold with another shares at least t of
    them, the least t with ``scale * (t / size) >= tau`` in float, since
    ``t / size`` only grows with t and J is at most ``shared / size``.  Two
    such documents then share one of their first ``size - t + 1``
    shingles.  A document's unshared shingles, of frequency 1, come first
    there, so its prefix keeps the first ``shared - t + 1`` of its shared
    ones.  ``ceil(tau * size / scale)`` may miss that t by one either way
    (0.28 * 25 is 7.000000000000001), so it is corrected on the test.
    """
    counts = text.lengths()
    rows = np.flatnonzero(counts)
    size = sizes[rows]
    t = np.ceil(tau * size / scale)
    t -= scale * ((t - 1) / size) >= tau
    t += scale * (t / size) < tau
    keep = np.zeros(len(counts), dtype=np.int64)
    keep[rows] = np.maximum(counts[rows] - t.astype(np.int64) + 1, 0)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(keep, out=indptr[1:])
    at = np.arange(indptr[-1]) + np.repeat(text.indptr[:-1] - indptr[:-1], keep)
    return ones(indptr, text.indices[at], text.shape[1])


def _candidate_pairs(n: int, blocks: Sequence[CSR]) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``i < j``, sorted, whose rows in one of the 0/1
    ``blocks`` share a column."""
    keys = [np.empty(0, dtype=np.int64)]
    for block in blocks:
        keys.extend(pairs for pairs, _ in upper_gram(block))
    keys = np.concatenate(keys)
    keys.sort()
    i, j = np.divmod(keys[run_starts(keys)], n)
    return i.astype(np.int32), j.astype(np.int32)


def build_graph(corpus: Corpus, config: Optional[GraphConfig] = None) -> SimilarityGraph:
    """Link the pairs of documents whose enabled signals agree.

    A pair is linked iff its phone sets intersect, or the Jaccard
    similarity J of its shingle sets reaches ``tau_text``, or its location
    sets intersect, its posted dates lie within ``date_window_days`` and J
    reaches ``tau_text / 2`` (each signal subject to its toggle).  The
    rule is the same at every corpus size; J is ``shared / union`` in
    float, 0 for two empty sets, and "J reaches ``tau_text / 2``" is
    ``2 * J >= tau_text``.  The candidate pairs are those that share a
    phone and those whose prefixes (``_prefixes``) share a shingle, which
    hold every pair with J at the lower threshold in use; each candidate
    is scored.
    """
    config = config or GraphConfig()
    if not 0.0 < config.tau_text <= 1.0:
        raise InputError("tau_text must be in (0, 1]")
    use_shingles = config.use_text or config.use_location_date
    if use_shingles and config.shingle_len < 1:
        raise InputError("shingle_len must be >= 1")
    phones = _value_incidence([doc.phones for doc in corpus.documents]) if config.use_phones else None
    blocks = [phones] if phones is not None else []
    text = shingle_counts = None
    if use_shingles:
        text, shingle_counts = _shingle_incidence(corpus.token_stream, config.shingle_len)
        # One pass at the lower threshold finds the pairs of both.
        blocks.append(_prefixes(text, shingle_counts, config.tau_text, 2 if config.use_location_date else 1))
    locations = None
    if config.use_location_date:
        locations = _value_incidence([doc.locations for doc in corpus.documents])
        dated = np.array([doc.posted_date is not None for doc in corpus.documents], dtype=bool)
        ordinals = np.array(
            [doc.posted_date.toordinal() if doc.posted_date is not None else 0 for doc in corpus.documents],
            dtype=np.int64,
        )
    i, j = _candidate_pairs(len(corpus), blocks)
    del blocks

    # A pair's cost is the non-zeros its rows bring to the row products.
    cost = np.ones(len(i), dtype=np.int32)
    for matrix in (phones, text):
        if matrix is not None:
            row_nnz = matrix.lengths()
            cost += row_nnz[i]
            cost += row_nnz[j]
    codes = np.zeros(len(i), dtype=np.int8)
    for start, stop in spans(cost):
        a, b, code = i[start:stop], j[start:stop], codes[start:stop]
        if phones is not None:
            code[row_intersections(phones, a, b) > 0] |= _PHONE
        if text is not None:
            inter = row_intersections(text, a, b)
            union = shingle_counts[a] + shingle_counts[b] - inter
            similarity = np.zeros(len(a))
            np.divide(inter, union, out=similarity, where=union > 0)
            if config.use_text:
                code[similarity >= config.tau_text] |= _TEXT
        if locations is not None:
            near = dated[a] & dated[b] & (np.abs(ordinals[a] - ordinals[b]) <= config.date_window_days)
            near &= 2 * similarity >= config.tau_text
            near[near] = row_intersections(locations, a[near], b[near]) > 0
            code[near] |= _LOCATION_DATE
    # Only the edges are kept while the adjacency is built.
    del cost, phones, text, locations
    keep = np.flatnonzero(codes)
    i, j, codes = i[keep], j[keep], codes[keep]
    del keep
    return SimilarityGraph._from_arrays(corpus.ids(), i, j, codes, _PROVENANCE)


@dataclass(frozen=True)
class Cluster:
    id: str
    members: frozenset[str]

    def __post_init__(self):
        if not self.members:
            raise InputError("empty cluster")

    def size(self) -> int:
        return len(self.members)


class Clustering:
    """An exact partition of a set of document ids."""

    def __init__(self, clusters: Sequence[Cluster]):
        self.clusters: tuple[Cluster, ...] = tuple(sorted(clusters, key=lambda c: c.id))
        assignment: dict[str, str] = {}
        for cluster in self.clusters:
            for doc_id in cluster.members:
                if doc_id in assignment:
                    raise InputError(f"document {doc_id!r} in two clusters")
                assignment[doc_id] = cluster.id
        self.cluster_of: dict[str, str] = assignment
        self._by_id = {c.id: c for c in self.clusters}
        if len(self._by_id) != len(self.clusters):
            raise InputError("duplicate cluster ids")

    @classmethod
    def from_member_sets(cls, member_sets: Iterable[Iterable[str]]) -> "Clustering":
        """Build a partition; each cluster id is its smallest member id."""
        clusters = []
        for members in member_sets:
            members = frozenset(members)
            if members:
                clusters.append(Cluster(id=min(members), members=members))
        return cls(clusters)

    def get(self, cluster_id: str) -> Cluster:
        return self._by_id[cluster_id]

    def ids(self) -> set[str]:
        return set(self.cluster_of)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def sizes(self) -> list[int]:
        return [c.size() for c in self.clusters]


def _positions(clustering: Clustering, index: Mapping[str, int]) -> np.ndarray:
    """Index in ``clustering`` of each node's cluster, where ``index`` maps
    each id to its node and ``clustering`` must partition those ids."""
    if clustering.cluster_of.keys() != index.keys():
        raise InputError("clustering does not partition the node ids")
    position = np.empty(len(index), dtype=np.int64)
    for k, cluster in enumerate(clustering):
        position[[index[doc_id] for doc_id in cluster.members]] = k
    return position


def _group(node_ids: Sequence[str], labels: np.ndarray) -> Clustering:
    """The partition that puts nodes with equal labels together."""
    groups: dict[int, list[str]] = defaultdict(list)
    for node, label in zip(node_ids, labels.tolist()):
        groups[label].append(node)
    return Clustering.from_member_sets(groups.values())


# Partitions run as label arrays over node indices: nodes with equal labels
# share a cluster.  ``_numbered`` labels are the cluster's index in the
# ``Clustering`` that ``_group`` builds, which sorts clusters by their
# smallest member id; refine breaks ties by that number.


def _numbered(labels: np.ndarray) -> np.ndarray:
    """The labels renumbered 0, 1, ... in the order of each cluster's
    smallest member."""
    order = np.argsort(labels, kind="stable")
    first = run_starts(labels[order])
    values = labels[order[first]]
    smallest = order[first]  # first node per label
    number = np.empty(int(values[-1]) + 1 if len(values) else 0, dtype=np.int64)
    number[values[np.argsort(smallest)]] = np.arange(len(values))
    return number[labels]


def _kwik_labels(graph: SimilarityGraph, seed: int) -> np.ndarray:
    """KwikCluster's partition; a cluster's label is its pivot's turn."""
    order = list(range(len(graph.node_ids)))
    random.Random(seed).shuffle(order)
    indptr, indices = graph.indptr.tolist(), graph.indices
    label = [-1] * len(order)
    turn = 0
    for pivot in order:
        if label[pivot] >= 0:
            continue
        label[pivot] = turn
        for v in indices[indptr[pivot] : indptr[pivot + 1]].tolist():
            if label[v] < 0:
                label[v] = turn
        turn += 1
    return np.array(label, dtype=np.int64)


def _consensus_labels(runs: Sequence[np.ndarray], threshold: float) -> np.ndarray:
    """Components of the pairs that share a label in at least
    ceil(threshold * runs) of the label arrays; a component's label is its
    smallest node index."""
    if not 0.0 < threshold <= 1.0:
        raise InputError("threshold must be in (0, 1]")
    n = len(runs[0])
    needed = math.ceil(threshold * len(runs))
    # Node x (run, label) membership; its Gram matrix counts, per pair,
    # the runs that put the two nodes in one cluster.
    offsets = np.cumsum([0] + [int(run.max()) + 1 if n else 0 for run in runs])
    member = ones(
        np.arange(0, n * len(runs) + 1, len(runs)),
        np.stack([run + offset for run, offset in zip(runs, offsets)], axis=1).ravel(),
        int(offsets[-1]),
    )
    a, b = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for pairs, together in upper_gram(member):
        i, j = np.divmod(pairs[together >= needed], n)
        a.append(i)
        b.append(j)
    return _components(n, np.concatenate(a), np.concatenate(b))


def _first_movable(graph: SimilarityGraph, labels: np.ndarray, size: np.ndarray) -> int:
    """The first node that has an improving ``refine`` move under
    ``labels`` and cluster sizes ``size``, or the node count when none has
    one: the move deltas of ``_refine_labels``, from each node's edges into
    each cluster, counted over the adjacency a block of nodes at a time.

    Only the edges that leave a node's cluster are grouped by target
    cluster, so a block's temporaries are int32 per edge, beside the few
    edges that cross clusters.
    """
    indptr = graph.indptr
    for start, stop in spans(np.diff(indptr) + 1):
        node = np.repeat(np.arange(stop - start, dtype=np.int32), np.diff(indptr[start : stop + 1]))
        target = labels[graph.indices[indptr[start] : indptr[stop]]]
        home = labels[start:stop]
        at_home = target == home[node]
        base_gain = size[home] - 1 - 2 * np.bincount(node[at_home], minlength=stop - start)
        movable = (size[home] > 1) & (base_gain > 0)  # detaching gains
        away = np.logical_not(at_home, out=at_home)
        key = node[away] * np.int64(len(size)) + target[away]
        del node, target, away
        key.sort()
        first = np.flatnonzero(run_starts(key))
        edges = np.diff(first, append=len(key))
        node, target = np.divmod(key[first], len(size))
        movable[node[size[target] - 2 * edges < base_gain[node]]] = True  # joining gains
        found = np.flatnonzero(movable)
        if len(found):
            return start + int(found[0])
    return len(labels)


def _refine_labels(graph: SimilarityGraph, labels: np.ndarray, max_passes: int) -> np.ndarray:
    """``refine`` over ``_numbered`` labels.

    A pass starts at the first node that ``_first_movable`` finds: every
    node before it would keep its cluster.  Refine ends when no node can
    move.
    """
    # A cluster keeps its number; a detached node opens the next number.
    # A cluster that empties keeps its number at size 0.
    assign = labels.tolist()
    size = np.bincount(labels).tolist()
    indptr, indices = graph.indptr.tolist(), graph.indices
    for _ in range(max_passes):
        start = _first_movable(graph, np.array(assign, dtype=np.int32), np.array(size, dtype=np.int64))
        if start == len(assign):
            break
        for node in range(start, len(assign)):
            home = assign[node]
            edges_to = Counter(assign[v] for v in indices[indptr[node] : indptr[node + 1]].tolist())
            edges_home = edges_to.pop(home, 0)
            # Moving out of `home` removes (|home|-1 - e_home) within-pair
            # misses and adds e_home cut edges; joining B adds (|B| - e_B)
            # misses and removes e_B cuts.
            base_gain = (size[home] - 1 - edges_home) - edges_home
            best_delta = 0
            best_target = None
            for target in sorted(edges_to):
                delta = (size[target] - 2 * edges_to[target]) - base_gain
                if delta < best_delta:
                    best_delta = delta
                    best_target = target
            if size[home] > 1 and -base_gain < best_delta:
                best_delta = -base_gain
                best_target = len(size)
            if best_target is not None:
                if best_target == len(size):
                    size.append(0)
                size[home] -= 1
                size[best_target] += 1
                assign[node] = best_target
    return np.array(assign, dtype=np.int64)


def correlation_clustering(
    graph: SimilarityGraph, seed: int, runs: int = 1, threshold: float = 0.5, refine_passes: int = 0
) -> Clustering:
    """KwikCluster with seeds ``seed .. seed + runs - 1``, their consensus
    when ``runs > 1``, then ``refine_passes`` passes of refine.

    The same partition as ``refine(consensus([kwikcluster(graph, seed + i)
    for i in range(runs)], threshold), graph, refine_passes)``, run on
    label arrays, so only the result becomes a ``Clustering``.
    """
    if runs < 1:
        raise InputError("runs must be >= 1")
    kwik = [_kwik_labels(graph, seed + i) for i in range(runs)]
    labels = kwik[0] if runs == 1 else _consensus_labels(kwik, threshold)
    if refine_passes > 0:
        labels = _refine_labels(graph, _numbered(labels), refine_passes)
    return _group(graph.node_ids, labels)


def kwikcluster(graph: SimilarityGraph, seed: int) -> Clustering:
    """Random-pivot correlation clustering.

    Walks a seeded uniform permutation of the nodes; each not-yet-clustered
    node becomes a pivot and absorbs its not-yet-clustered neighbors.
    Identical (graph, seed) always yields the identical partition.
    """
    return _group(graph.node_ids, _kwik_labels(graph, seed))


def disagreement_cost(clustering: Clustering, graph: SimilarityGraph) -> int:
    """Correlation-clustering objective: cut positive edges plus missing
    within-cluster edges."""
    position = _positions(clustering, graph.index)
    within = int(np.count_nonzero(position[graph.src] == position[graph.dst]))
    cut = graph.edge_count() - within
    possible_within = sum(n * (n - 1) // 2 for n in clustering.sizes())
    return cut + (possible_within - within)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A root node index per node, shared exactly by the nodes that the
    edges ``a[k] -- b[k]`` connect: hook the larger root under the smaller,
    then jump pointers to the roots, until every edge joins equal roots."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def consensus(clusterings: Sequence[Clustering], threshold: float) -> Clustering:
    """Co-association consensus across runs.

    Two ids land in one cluster iff they co-occur in at least
    ceil(threshold * runs) input clusterings; the output is the connected
    components of that co-association graph.
    """
    if not clusterings:
        raise InputError("no clusterings to combine")
    ids = sorted(clusterings[0].ids())
    index = {doc_id: k for k, doc_id in enumerate(ids)}
    runs = [_positions(clustering, index) for clustering in clusterings]
    return _group(ids, _consensus_labels(runs, threshold))


def refine(clustering: Clustering, graph: SimilarityGraph, max_passes: int = 3) -> Clustering:
    """Single-node best-move local search on the disagreement objective.

    Each pass visits nodes in sorted order and applies the best improving
    move: re-assigning the node to a neighboring cluster or detaching it
    into a fresh singleton.  Stops when a pass makes no move or max_passes
    is reached; never increases the objective.
    """
    return _group(graph.node_ids, _refine_labels(graph, _positions(clustering, graph.index), max_passes))


def adjusted_rand(a: Clustering, b: Clustering) -> float:
    """Adjusted Rand index between two partitions of the same id set."""
    if a.ids() != b.ids():
        raise InputError("partitions cover different id sets")
    contingency: Counter[tuple[str, str]] = Counter()
    for doc_id, cluster_a in a.cluster_of.items():
        contingency[(cluster_a, b.cluster_of[doc_id])] += 1

    def comb2(n: int) -> int:
        return n * (n - 1) // 2

    sum_cells = sum(comb2(c) for c in contingency.values())
    sum_a = sum(comb2(c.size()) for c in a)
    sum_b = sum(comb2(c.size()) for c in b)
    total = comb2(len(a.cluster_of))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def write_clustering(clustering: Clustering, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "document_id"])
        for cluster in clustering:
            for doc_id in sorted(cluster.members):
                writer.writerow([cluster.id, doc_id])


def read_clustering(path: str | Path) -> Clustering:
    """Read a clustering written by ``write_clustering``; a missing header,
    a row with a missing or empty field or a document already in another
    cluster, or a byte that is not UTF-8, raises InputError naming the
    file and the line."""
    groups: dict[str, set[str]] = defaultdict(set)
    cluster_of: dict[str, str] = {}
    reader = csv.DictReader(text_lines(path, newline=""))
    if reader.fieldnames is None or not {"cluster_id", "document_id"} <= set(reader.fieldnames):
        raise InputError(f"{path}: expected header cluster_id,document_id")
    for row in reader:
        cluster_id, doc_id = row["cluster_id"], row["document_id"]
        if not (cluster_id and doc_id):
            raise InputError(f"{path}:{reader.line_num}: missing cluster_id or document_id")
        if cluster_of.setdefault(doc_id, cluster_id) != cluster_id:
            raise InputError(f"{path}:{reader.line_num}: document {doc_id!r} in two clusters")
        groups[cluster_id].add(doc_id)
    return Clustering.from_member_sets(groups.values())


def write_graph(graph: SimilarityGraph, path: str | Path) -> None:
    """One ``id_a,id_b,provenance`` row per edge, ``id_a < id_b``, rows
    sorted by id pair, signals joined by ``|`` in sorted order."""
    ids = graph.node_ids
    provenance = ["|".join(sorted(signals)) for signals in graph.provenances]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "provenance"])
        for rows in steps(graph.edge_count()):  # edges as Python strings a step at a time
            writer.writerows(
                zip(
                    map(ids.__getitem__, graph.src[rows].tolist()),
                    map(ids.__getitem__, graph.dst[rows].tolist()),
                    map(provenance.__getitem__, graph.codes[rows].tolist()),
                )
            )
