"""Compressed sparse rows over numpy alone.

A ``CSR`` is the triple (``indptr``, ``indices``, ``data``) and a shape.
Every matrix the pipeline builds keeps its rows canonical: each row's
column indices ascending and distinct.  The kernels are the few sparse
operations caserisk needs, each a handful of numpy calls over Gustavson's
row expansion (ACM TOMS 4(3), 1978): a stable argsort of the column
indices is the transpose, and an entry expanded over a row or a column
gives the products.  ``segments`` merges groups of rows once, for the
cluster means of ``model.ClusterTerms``.  Loops that expand entries run a
block of rows (or pairs) at a time, each block bounded by ``_BUDGET``
expanded entries, so their temporaries stay small beside the matrices.
The solver's products ``x @ w`` and ``x.T @ c`` are one numpy expression
each over the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .corpus import ranges, run_starts, spans

# Entries that one step of an expanding loop creates.
_BUDGET = 1 << 16


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
    for start, stop in spans(lengths + 1, _BUDGET):
        rows, cols, values = [], [], []
        for part in parts:
            lo, hi = part.indptr[start], part.indptr[stop]
            rows.append(np.repeat(np.arange(stop - start, dtype=np.int64), np.diff(part.indptr[start : stop + 1])))
            cols.append(part.indices[lo:hi])
            values.append(part.data[lo:hi])
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
    for start, stop in spans(np.diff(touched[x.indptr]) + 1, _BUDGET):
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
    for start, stop in spans(entries + 1, _BUDGET):
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
