"""``CSR`` rows for the tests, built from and read back into dense arrays.

Tests hand the library ``CSR`` rows only; where scipy checks a result, it
builds its own matrix from the same dense array, or from the same triple
(``scipy_rows``).
"""

import numpy as np
import scipy.sparse as sp

from caserisk._sparse import CSR


def csr(dense) -> CSR:
    """The rows of a 2-d array without its zeros, in the array's dtype."""
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    indptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1)).astype(np.int64)
    return CSR(indptr, cols.astype(np.int32), dense[rows, cols], dense.shape)


def dense(x: CSR) -> np.ndarray:
    """The rows of ``x`` as a float array."""
    out = np.zeros(x.shape)
    out[x.row_of_entry(), x.indices] = x.data
    return out


def canonical(x: CSR) -> bool:
    """Every row's columns ascending and distinct."""
    rows = x.row_of_entry()
    step = np.diff(x.indices.astype(np.int64))
    return bool(np.all((step > 0) | (rows[1:] != rows[:-1])))


def scipy_rows(x: CSR) -> sp.csr_matrix:
    """scipy's matrix over the same triple."""
    return sp.csr_matrix((x.data, x.indices, x.indptr), shape=x.shape)


def from_scipy(x: sp.csr_matrix) -> CSR:
    """``CSR`` rows of a scipy matrix, each row's columns sorted."""
    x = x.tocsr()
    x.sort_indices()
    return CSR(x.indptr.astype(np.int64), x.indices.astype(np.int32), x.data, x.shape)


def membership_means(x: CSR, ptr: np.ndarray) -> CSR:
    """Row g is the mean of rows ``ptr[g]:ptr[g + 1]`` of ``x``: scipy's
    product of the 1/size membership matrix and ``x``."""
    sizes = np.diff(ptr)
    membership = sp.csr_matrix(
        (np.repeat(1.0 / sizes, sizes), np.arange(x.shape[0]), ptr), shape=(len(sizes), x.shape[0])
    )
    return from_scipy(membership @ scipy_rows(x))
