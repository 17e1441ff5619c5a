"""Compressed sparse rows over numpy alone: caserisk's one kernel module.

A ``CSR`` is the triple (``indptr``, ``indices``, ``data``) and a shape.
Every matrix the pipeline builds keeps its rows canonical: each row's
column indices ascending and distinct.  The kernels are the few sparse
operations caserisk needs, each a handful of numpy calls over Gustavson's
row expansion (ACM TOMS 4(3), 1978): a stable argsort of the column
indices is the transpose, and an entry expanded over a row or a column
gives the products.  ``segments`` merges groups of rows once, for the
cluster means of ``model.ClusterTerms``.  The solver's products ``x @ w``
and ``x.T @ c`` are one numpy expression each over the whole matrix.

Every per-occurrence loop in caserisk runs a block at a time under the
one budget ``_BUDGET``, read when a walker is called: ``spans`` cuts items
into blocks of at most that cost, ``steps`` cuts a range into slices of
that many items, and ``take`` maps ids through a table a step at a time.
Setting ``caserisk._sparse._BUDGET`` resizes every block.  The module
imports nothing from caserisk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

# Entries that one block of a blocked loop creates or reads: the only
# block size in caserisk.  It may be lowered but not raised, because
# ``corpus.gram_counts`` packs a block's row numbers into bits that are
# fixed at import (``corpus._ROW_BITS``).
_BUDGET = 1 << 16


def spans(cost: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive ``[start, stop)`` item ranges that cover ``cost``, each
    of total cost at most ``_BUDGET`` or a single item."""
    budget = _BUDGET
    total = np.cumsum(cost)
    start = 0
    while start < len(total):
        spent = int(total[start - 1]) if start else 0
        stop = max(int(np.searchsorted(total, spent + budget, side="right")), start + 1)
        yield start, stop
        start = stop


def steps(n: int) -> Iterator[slice]:
    """Consecutive slices of ``_BUDGET`` items that cover ``range(n)``."""
    budget = _BUDGET
    return (slice(start, start + budget) for start in range(0, n, budget))


def take(table: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = table[ids]``, a step at a time, so that no index
    temporary outgrows a step; ``out`` may be ``ids`` itself."""
    for step in steps(len(ids)):
        out[step] = table[ids[step]]
    return out


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lengths[i]``, end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in an ascending array, so
    ``ordered[run_starts(ordered)]`` is its distinct values.

    Every de-duplication of per-occurrence integers goes through a sort and
    this, never ``np.unique``: numpy 2.4's ``np.unique`` hashes int64 keys
    first, 2.1 s against 0.04 s for 2M keys on a 2-core machine, and the
    hash table's memory is not seen by tracemalloc and stays resident.
    """
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def columns_of(grams: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each gram's index into the ascending distinct ``values`` (int32), and
    whether it is there at all; searched a step at a time."""
    col = np.empty(len(grams), dtype=np.int32)
    found = np.empty(len(grams), dtype=bool)
    for block in steps(len(grams)):
        step = grams[block]
        at = np.searchsorted(values, step)
        hit = at < len(values)
        hit[hit] = values[at[hit]] == step[hit]
        col[block] = at
        found[block] = hit
    return col, found


@dataclass(frozen=True, eq=False)
class CSR:
    """Row i holds columns ``indices[indptr[i]:indptr[i + 1]]``, ascending
    and distinct, with values ``data`` at the same positions."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_of_entry(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), self.lengths())

    def row_view(self, start: int, stop: int) -> CSR:
        """Rows ``start:stop`` over slices of ``indices`` and ``data``."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSR(self.indptr[start : stop + 1] - lo, self.indices[lo:hi], self.data[lo:hi], (stop - start, self.shape[1]))

    @cached_property
    def columns(self) -> np.ndarray:
        """``indices`` widened to ``intp``, which indexing and ``bincount``
        would otherwise convert them to on every call."""
        return self.indices.astype(np.intp)

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``x @ w``: each non-empty row's products summed by
        ``np.add.reduceat`` (pairwise, so within rounding of a running
        sum)."""
        out = np.zeros(self.shape[0])
        rows = np.flatnonzero(self.lengths())
        if len(rows):
            products = np.take(w, self.columns)
            products *= self.data
            out[rows] = np.add.reduceat(products, self.indptr[rows])
        return out

    def rmatvec(self, c: np.ndarray) -> np.ndarray:
        """``x.T @ c``: ``data * repeat(c, row_lengths)`` summed into the
        columns by ``bincount`` in entry order."""
        products = np.repeat(c, self.lengths())
        products *= self.data
        return sums(self.columns, products, self.shape[1])


def ones(indptr: np.ndarray, indices: np.ndarray, ncols: int) -> CSR:
    """The 0/1 matrix with these rows."""
    return CSR(indptr, indices, np.ones(len(indices), dtype=np.int8), (len(indptr) - 1, ncols))


def summed(parts: Sequence[CSR]) -> CSR:
    """The sum of matrices of one shape, with canonical rows; a part's rows
    may be unsorted or repeat a column.  A block of rows at a time."""
    nrows, ncols = parts[0].shape
    lengths = sum(part.lengths() for part in parts)
    indices = np.empty(int(lengths.sum()), dtype=np.int32)
    data = np.empty(len(indices), dtype=np.result_type(*(part.data for part in parts)))
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    at = 0
    for start, stop in spans(lengths + 1):
        blocks = [part.row_view(start, stop) for part in parts]
        rows = [block.row_of_entry() for block in blocks]
        cols = [block.indices for block in blocks]
        values = [block.data for block in blocks]
        key = np.concatenate(rows) * ncols + np.concatenate(cols)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(run_starts(key))
        key = key[first]
        found = len(key)
        if found:
            data[at : at + found] = np.add.reduceat(np.concatenate(values)[order], first)
        row, indices[at : at + found] = np.divmod(key, ncols)
        indptr[start + 1 : stop + 1] = at + np.cumsum(np.bincount(row, minlength=stop - start))
        at += found
    return CSR(indptr, indices[:at], data[:at], (nrows, ncols))


def upper_gram(x: CSR) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``x @ x.T`` above the diagonal for a 0/1 ``x``, a block of rows at a
    time: the packed keys ``i * n + j`` (i < j, ascending) of the pairs
    of rows that share a column, and how many columns each shares.

    Each entry of row i is expanded over the later rows of its column,
    found in the column-major order of a stable argsort of ``indices``;
    sorting the block's keys and counting their runs sums the products.
    """
    n = x.shape[0]
    by_column = np.argsort(x.indices, kind="stable")
    position = np.empty(x.nnz, dtype=np.int64)
    position[by_column] = np.arange(x.nnz)
    column_rows = x.row_of_entry()[by_column].astype(np.int32)
    del by_column
    column_end = np.cumsum(np.bincount(x.indices, minlength=x.shape[1]))[x.indices]
    later = column_end - position - 1
    del column_end
    touched = np.zeros(x.nnz + 1, dtype=np.int64)
    np.cumsum(later, out=touched[1:])
    # A block slices the per-entry arrays by hand: a row view's rebased
    # indptr would stay alive through the block's peak.
    for start, stop in spans(np.diff(touched[x.indptr]) + 1):
        lo, hi = x.indptr[start], x.indptr[stop]
        count = later[lo:hi]
        rows = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(x.indptr[start : stop + 1]))
        keys = np.repeat(rows * n, count) + column_rows[ranges(position[lo:hi] + 1, count)]
        keys.sort()
        first = np.flatnonzero(run_starts(keys))
        yield keys[first], np.diff(first, append=len(keys))


def row_intersections(x: CSR, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|row a[k] & row b[k]|`` of a 0/1 ``x``, by merge: the entries of
    rows ``a`` and of rows ``b`` are packed as ``k * ncols + column``, two
    ascending runs that one stable sort merges, and a column both rows of
    pair k hold is a run of two equal keys."""
    lengths = x.lengths()
    pair = np.arange(len(a), dtype=np.int64) * x.shape[1]
    keys = np.concatenate(
        [np.repeat(pair, lengths[rows]) + x.indices[ranges(x.indptr[rows], lengths[rows])] for rows in (a, b)]
    )
    keys.sort(kind="stable")
    both = keys[1:][keys[1:] == keys[:-1]]
    return np.bincount(both // x.shape[1], minlength=len(a))


def segments(x: CSR, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each group of rows ``ptr[g]:ptr[g + 1]`` of ``x`` merged into one
    row of every column they hold: the merged rows' ``indptr``, and for
    each entry of ``x`` the place of its column in its group's merged row,
    so that ``place + repeat(indptr[:-1], entries)`` is its position among
    the merged entries.

    A block of groups at a time, keys ``g * ncols + column`` are sorted
    and their runs numbered; entries with one key share a place, so the
    sort need not be stable.
    """
    ncols = x.shape[1]
    entries = np.diff(x.indptr[ptr])
    # A merged row is no longer than its group's entries or a row's width.
    place = np.empty(x.nnz, dtype=np.min_scalar_type(max(min(int(entries.max(initial=0)), ncols) - 1, 0)))
    indptr = np.zeros(len(entries) + 1, dtype=np.int64)
    for start, stop in spans(entries + 1):
        lo, hi = x.indptr[ptr[start]], x.indptr[ptr[stop]]
        group = np.repeat(np.arange(stop - start, dtype=np.int64), entries[start:stop])
        key = group * ncols + x.indices[lo:hi]
        order = np.argsort(key)
        key = key[order]
        first = run_starts(key)
        merged_at = np.cumsum(first) - 1
        key = key[first]
        found = np.searchsorted(key, np.arange(stop - start + 1) * ncols)
        indptr[start + 1 : stop + 1] = indptr[start] + found[1:]
        place[lo + order] = merged_at - found[group[order]]
    return indptr, place


def sums(positions: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The ``values`` summed at their ``positions`` in entry order."""
    # bincount gives integers for no entries at all.
    return np.bincount(positions, values, minlength=size).astype(np.float64, copy=False)
