"""The numpy sparse kernels against scipy.sparse as the oracle.

Every property draws random 0/1 or float matrices with empty rows and
empty columns, and runs the kernels at budgets small enough to cut them
into many blocks.  A kernel gets ``CSR`` rows, and scipy its own matrix
of the same dense array.
"""

import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sparse_rows import canonical, csr, dense

import caserisk._sparse
from caserisk._sparse import (
    CSR,
    row_intersections,
    segments,
    summed,
    spans,
    steps,
    sums,
    take,
    upper_gram,
)

BUDGETS = st.sampled_from([1, 7, 1 << 16])


def random_matrix(rng, shape, density, binary=False):
    """A dense array with some rows and columns left empty."""
    values = (rng.random(shape) < density).astype(float)
    if not binary:
        values *= rng.normal(size=shape)
    values[rng.random(shape[0]) < 0.2] = 0.0
    values[:, rng.random(shape[1]) < 0.2] = 0.0
    return values.astype(np.int8) if binary else values


@st.composite
def matrices(draw, binary=False, min_rows=0, count=None):
    """One matrix, or ``count`` of one shape."""
    shape = (draw(st.integers(min_rows, 30)), draw(st.integers(0, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    made = [random_matrix(rng, shape, draw(st.floats(0.0, 1.0)), binary) for _ in range(count or 1)]
    return made if count else made[0]


def assert_same(got: CSR, expected) -> None:
    """Equal shape, structure and values, bit for bit."""
    expected = expected.tocsr()
    expected.sort_indices()
    assert got.shape == expected.shape and canonical(got)
    np.testing.assert_array_equal(got.indptr, expected.indptr)
    np.testing.assert_array_equal(got.indices, expected.indices)
    assert np.asarray(got.data, dtype=float).tobytes() == expected.data.astype(float).tobytes()


@settings(max_examples=200, deadline=None)
@given(matrices(binary=True), BUDGETS)
def test_upper_gram_matches_the_triangle_of_the_product(b, budget):
    n = b.shape[0]
    with mock.patch.object(caserisk._sparse, "_BUDGET", budget):
        blocks = list(upper_gram(csr(b)))
    b = sp.csr_matrix(b)
    keys = np.concatenate([np.empty(0, dtype=np.int64)] + [k for k, _ in blocks])
    counts = np.concatenate([np.empty(0, dtype=np.int64)] + [c for _, c in blocks])
    assert np.all(np.diff(keys) > 0)
    expected = sp.triu(b.astype(np.int64) @ b.T.astype(np.int64), 1).tocoo()
    order = np.lexsort((expected.col, expected.row))
    np.testing.assert_array_equal(keys, expected.row[order].astype(np.int64) * n + expected.col[order])
    np.testing.assert_array_equal(counts, expected.data[order])


@settings(max_examples=200, deadline=None)
@given(matrices(binary=True, min_rows=1), st.data())
def test_row_intersections_match_the_elementwise_product(b, data):
    pairs = st.lists(st.integers(0, b.shape[0] - 1), max_size=40)
    a = np.array(data.draw(pairs), dtype=np.int32)
    c = np.array(data.draw(st.lists(st.integers(0, b.shape[0] - 1), min_size=len(a), max_size=len(a))), dtype=np.int32)
    got = row_intersections(csr(b), a, c)
    b = sp.csr_matrix(b)
    expected = np.asarray(b[a].multiply(b[c]).sum(axis=1)).ravel() if len(a) else np.zeros(0)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(matrices(min_rows=1), st.data(), BUDGETS)
def test_segments_merge_to_the_membership_product(x, data, budget):
    """Each group's mean, summed by ``bincount`` in row order at the
    positions ``segments`` gives, as ``ClusterTerms`` sums it, is the
    membership product bit for bit."""
    n = x.shape[0]
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=5)) if n > 1 else []))
    ptr = np.array([0, *cuts, n], dtype=np.int64)
    sizes = np.diff(ptr)
    membership = sp.csr_matrix((np.repeat(1.0 / sizes, sizes), np.arange(n), ptr), shape=(len(sizes), n))
    rows = csr(x)
    with mock.patch.object(caserisk._sparse, "_BUDGET", budget):
        indptr, place = segments(rows, ptr)
    entries = np.diff(rows.indptr[ptr])
    positions = place + np.repeat(indptr[:-1], entries)
    indices = np.full(indptr[-1], -1, dtype=np.int32)
    indices[positions] = rows.indices
    values = sums(positions, rows.data * np.repeat(1.0 / sizes, entries), len(indices))
    assert_same(CSR(indptr, indices, values, (len(sizes), x.shape[1])), membership @ sp.csr_matrix(x))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda count: matrices(count=count)), BUDGETS)
def test_summed_matches_the_sum(parts, budget):
    with mock.patch.object(caserisk._sparse, "_BUDGET", budget):
        got = summed([csr(part) for part in parts])
    expected = sum(map(sp.csr_matrix, parts[1:]), sp.csr_matrix(parts[0])).toarray()
    assert got.shape == parts[0].shape and canonical(got)
    np.testing.assert_allclose(dense(got), expected, rtol=0, atol=1e-12)


def test_summed_sorts_and_merges_unsorted_rows():
    x = CSR(np.array([0, 3, 3, 5]), np.array([4, 1, 4, 0, 2], dtype=np.int32), np.array([1, 2, 3, 4, 5]), (3, 6))
    got = summed([x])
    assert got.indptr.tolist() == [0, 2, 2, 4]
    assert got.indices.tolist() == [1, 4, 0, 2] and got.data.tolist() == [2, 4, 4, 5]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_products_match_scipy(x, seed):
    rng = np.random.default_rng(seed)
    w, c = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[0])
    rows, oracle = csr(x), sp.csr_matrix(x)
    np.testing.assert_allclose(rows.matvec(w), oracle @ w, rtol=1e-12, atol=1e-12)
    assert rows.rmatvec(c).tobytes() == (oracle.T @ c).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 20), max_size=30), BUDGETS, st.data())
def test_blocks_cover_in_order_within_the_budget(cost, budget, data):
    """``spans`` and ``steps`` cover their items in order, each block
    within the budget or a single item, and ``take`` maps ids in place."""
    cost = np.array(cost, dtype=np.int64)
    with mock.patch.object(caserisk._sparse, "_BUDGET", budget):
        cut = list(spans(cost))
        sliced = [range(len(cost))[step] for step in steps(len(cost))]
        ids = np.array(data.draw(st.lists(st.integers(0, 9), max_size=30)), dtype=np.int64)
        table = np.arange(10)[::-1] * 3
        expected = table[ids]
        assert take(table, ids, ids) is ids
    assert [i for start, stop in cut for i in range(start, stop)] == list(range(len(cost)))
    assert all(stop - start == 1 or cost[start:stop].sum() <= budget for start, stop in cut)
    assert [i for block in sliced for i in block] == list(range(len(cost)))
    assert all(len(block) <= budget for block in sliced)
    np.testing.assert_array_equal(ids, expected)


def test_imports_no_other_caserisk_module():
    """The kernels sit below every other module: loading ``_sparse`` loads
    no other caserisk module.  The package's ``__init__`` imports every
    public name, so a bare package of the same path stands in for it."""
    code = textwrap.dedent(
        """
        import sys, types
        package = types.ModuleType("caserisk")
        package.__path__ = [sys.argv[1]]
        sys.modules["caserisk"] = package
        import caserisk._sparse
        print(sorted(name for name in sys.modules if name.split(".")[0] == "caserisk"))
        """
    )
    package = Path(caserisk._sparse.__file__).parent
    loaded = subprocess.run([sys.executable, "-c", code, str(package)], capture_output=True, text=True, check=True)
    assert loaded.stdout.split("\n")[0] == "['caserisk', 'caserisk._sparse']"
