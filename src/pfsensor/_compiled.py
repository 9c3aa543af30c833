"""Everything pfsensor takes from scipy: two of its compiled extension
modules, loaded from their files, and the CSR record they work on.

`find_spec` locates scipy's directory without importing it, and each
extension module is executed from its file, so no scipy package runs its
__init__. `scipy.sparse` alone would add about 20 MB of RSS and 0.18 s to
start-up, mostly the numpy submodules its array-API layer imports (f2py,
testing, ma, random), for a dozen routines. These modules are private to
scipy: their names and signatures are those of scipy 1.17.

Each helper calls the routines `scipy.sparse` calls for the same operation,
in the same order and on index arrays of the dtype it would pick, so every
result holds the bytes `scipy.sparse` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


def _load(package: str, name: str):
    """The extension module `name` of scipy's subpackage `package`, executed
    from its file; ImportError names the file when it is missing."""
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    where = Path(scipy.submodule_search_locations[0]) / package
    spec = PathFinder.find_spec(name, [str(where)])
    if spec is None:
        raise ImportError(f"scipy's compiled {package}/{name} not found in {where}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load("sparse", "_sparsetools")
# dqagse, the routine scipy.integrate.quad runs on a finite interval
qagse = _load("integrate", "_quadpack")._qagse


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix in compressed sparse row form: row i holds the column
    indices indices[indptr[i]:indptr[i + 1]] and, at the same positions,
    their values in data. The CSR record of a matrix's transpose is that
    matrix's compressed sparse column form. The record is frozen but its
    arrays are not: `build_markov` rescales rows in place through `data[:]`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])


def index_dtype(*arrays, maxval: int = 0):
    """The index dtype of a routine's output: that of its index inputs,
    widened to int64 when `maxval` exceeds int32, as scipy.sparse picks it."""
    return np.int64 if maxval > _INT32_MAX else np.result_type(np.int32, *arrays)


def _record(indptr, indices, data, shape) -> CSR:
    """The record over the first indptr[-1] entries of a routine's output
    buffers, copied when shorter so the rest is freed."""
    nnz = int(indptr[-1])
    if nnz < indices.size:
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return CSR(indptr, indices, data, shape)


def from_coo(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape) -> CSR:
    """The CSR record of the triplets (rows, cols, data), each row's indices
    sorted and duplicates summed."""
    n_rows, n_cols = shape
    nnz = data.size
    dtype = index_dtype(rows, cols, maxval=max(nnz, n_cols))
    indptr = np.empty(n_rows + 1, dtype=dtype)
    indices = np.empty(nnz, dtype=dtype)
    values = np.empty_like(data)
    rows, cols = rows.astype(dtype, copy=False), cols.astype(dtype, copy=False)
    _sparsetools.coo_tocsr(n_rows, n_cols, nnz, rows, cols, data, indptr, indices, values)
    if not _sparsetools.csr_has_canonical_format(n_rows, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(n_rows, indptr, indices):
            _sparsetools.csr_sort_indices(n_rows, indptr, indices, values)
        _sparsetools.csr_sum_duplicates(n_rows, n_cols, indptr, indices, values)
    return _record(indptr, indices, values, (n_rows, n_cols))


def diagonal(values: np.ndarray) -> CSR:
    """The square diagonal matrix of `values`, its zero entries not stored."""
    kept = np.flatnonzero(values)
    dtype = index_dtype(maxval=values.size)
    indptr = np.r_[0, np.cumsum(values != 0.0)].astype(dtype)
    return CSR(indptr, kept.astype(dtype), values[kept], (values.size, values.size))


def row_sums(matrix: CSR) -> np.ndarray:
    """Each row's sum of stored entries, by np.add.reduceat over the rows
    that store any, as scipy.sparse sums over axis 1."""
    sums = np.zeros(matrix.shape[0])
    stored = np.flatnonzero(np.diff(matrix.indptr))
    sums[stored] = np.add.reduceat(matrix.data, matrix.indptr[stored])
    return sums


def add(a: CSR, b: CSR) -> CSR:
    """a + b by csr_plus_csr, zero sums not stored. Both records come from
    `from_coo` or `diagonal`, each row's indices sorted and unique, so the
    routine merges rows in order: the sum's indices are sorted too."""
    size = a.nnz + b.nnz
    dtype = index_dtype(a.indptr, a.indices, b.indptr, b.indices, maxval=size)
    a_ptr, a_ind, b_ptr, b_ind = (
        array.astype(dtype, copy=False) for array in (a.indptr, a.indices, b.indptr, b.indices)
    )
    indptr = np.empty(a.shape[0] + 1, dtype=dtype)
    indices = np.empty(size, dtype=dtype)
    data = np.empty(size, dtype=np.result_type(a.data, b.data))
    _sparsetools.csr_plus_csr(
        *a.shape, a_ptr, a_ind, a.data, b_ptr, b_ind, b.data, indptr, indices, data
    )
    return _record(indptr, indices, data, a.shape)


def transpose(matrix: CSR) -> CSR:
    """The CSR record of the matrix's transpose, each row's indices sorted.
    Reads only the record's fields and `nnz`, so it takes a scipy CSR array
    as well."""
    n_rows, n_cols = matrix.shape
    nnz = matrix.nnz
    dtype = index_dtype(matrix.indptr, matrix.indices, maxval=max(nnz, n_rows))
    indptr = np.empty(n_cols + 1, dtype=dtype)
    indices = np.empty(nnz, dtype=dtype)
    data = np.empty(nnz, dtype=matrix.data.dtype)
    transpose_into(matrix, indptr, indices, data)
    return CSR(indptr, indices, data, (n_cols, n_rows))


def transpose_into(matrix: CSR, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
    """Write the transpose's record into indptr (n_cols + 1 entries), indices
    and data (nnz entries each), which may be views of larger arrays. The
    matrix's index arrays are cast to indptr's dtype, which indices shares."""
    dtype = indptr.dtype
    _sparsetools.csr_tocsc(
        *matrix.shape,
        matrix.indptr.astype(dtype, copy=False), matrix.indices.astype(dtype, copy=False),
        matrix.data, indptr, indices, data,
    )


def submatrix(matrix: CSR, lo: int, hi: int) -> CSR:
    """The square block of rows and columns [lo, hi)."""
    if lo == 0 and hi == matrix.shape[0]:
        return matrix
    arrays = _sparsetools.get_csr_submatrix(
        *matrix.shape, matrix.indptr, matrix.indices, matrix.data, lo, hi, lo, hi
    )
    return CSR(*arrays, (hi - lo, hi - lo))


def matvec(matrix: CSR, x: np.ndarray) -> np.ndarray:
    """matrix @ x for a vector x."""
    y = np.zeros(matrix.shape[0], dtype=np.result_type(matrix.data, x))
    _sparsetools.csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, y)
    return y


def matvecs(matrix: CSR, a: int, b: int, x: np.ndarray, y: np.ndarray) -> None:
    """Rows [a, b) of matrix @ x into y[a:b], for C-ordered blocks x and y
    of column vectors, through the view indptr[a : b + 1]: no row is copied."""
    y[a:b] = 0.0
    _sparsetools.csr_matvecs(
        b - a, matrix.shape[1], x.shape[1],
        matrix.indptr[a : b + 1], matrix.indices, matrix.data, x.ravel(), y[a:b].ravel(),
    )


def dia_matvec(offsets: np.ndarray, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the square matrix S whose diagonal at offsets[d] holds
    data[d], column k of data in column k of S."""
    y = np.zeros(x.size, dtype=np.result_type(data, x))
    _sparsetools.dia_matvec(x.size, x.size, len(offsets), data.shape[1], offsets, data, x, y)
    return y
