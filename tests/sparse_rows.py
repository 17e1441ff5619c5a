"""``CSR`` rows for the tests, built from and read back into dense arrays.

Tests hand the library ``CSR`` rows only; where scipy checks a result, it
builds its own matrix from the same dense array.
"""

import numpy as np

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
