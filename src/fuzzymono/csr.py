"""The one sparse-matrix type of fuzzymono: CSR arrays driven by scipy's kernels.

Every matrix the engine computes with is a CSR: the Fock ladder matrices,
the fuzzy coordinates and every sector block of a superoperator.  A CSR
holds int32 indptr and indices, and data that stand for the values
1j**phase * data; its arrays are never mutated once made.  No constructor
or operation here makes two entries at one position (canonical() sums those
of a CSR built by hand from such arrays).

Every operator of the model is built from the real matrix elements of the
ladder operators and from real radial functions; i enters only as a scalar.
So nearly every matrix is all real or all imaginary, and keeps float64 data
with a phase p in {0, 1, 2, 3}.  Only a matrix that is neither keeps
complex128 data, with p = 0.  Constructors split their values (split).  On
float64 data, @ adds the phases (mod 4); + and - run the float64 kernel
when the phases agree and swap the two kernels when they differ by 2;
scaling by a real or imaginary scalar scales the data and turns the phase,
and a unit scalar (+-1, +-i) only turns the phase, sharing the arrays; the
transpose keeps the phase and the adjoint negates it.  Phases that differ
by 1, or complex data, take the complex kernels, and their result is split
again.  Readers get complex128: values() and tocsr().

The result is bit for bit what the complex kernels give.  With the
imaginary parts zero they do the same float64 operations on the real parts
(x*y - 0*0, x + y), in the same order, and drop an entry exactly when it is
0; multiplying by a unit and negating are exact, and rounding is symmetric,
so a sum of negated terms is the negated sum.  Only the sign of a zero
imaginary or real part can differ, which no value or norm sees.

The default run does tens of thousands of small block products and sums,
and scipy's csr_matrix spends about three times as long in its Python
layer (format checks, index-dtype choice, pruning) as in the C kernels
that do the arithmetic.  So CSR calls those kernels itself:
csr_matmat_maxnnz/csr_matmat, csr_plus_csr, csr_minus_csr and csr_tocsc
are the functions csr_matrix's own @, +, - and transpose-to-CSR call,
coo_tocsr the one its COO conversion calls, csr_sort_indices and
csr_sum_duplicates the ones its sum_duplicates calls, and csr_diagonal the
one its diagonal calls.  Every result is trimmed as csr_matrix trims it, so
a matrix comes out bit for bit as the scipy expression would give it.
tests/test_liouville.py holds them to that over random real, imaginary and
complex matrices, which also guards against the kernels' signatures
drifting between scipy releases.  Indices stay int32, as scipy picks them
at these sizes; a dimension or a result size past the int32 limit raises
ValueError instead of overflowing.

@, + and - allocate their output and call their kernel in the operator's
own frame, so the Python around a kernel call is a few attribute reads and
three np.empty calls.  The kernels are looked up on the module at each
call, so a caller that wraps _sparsetools sees every call.  A product with
a diagonal factor (is_diagonal, set by diags) skips csr_matmat_maxnnz: it
has at most the other factor's entries, and csr_matmat fills the same
first entries of the larger arrays.

The kernels live in the compiled module scipy/sparse/_sparsetools, which
is loaded here by its file path, so that the scipy.sparse package itself
is never imported; importlib.util.find_spec finds the scipy folder
without running scipy/__init__.py either (10 ms of imports that would only
locate the install).  Importing scipy.sparse costs about 0.2 s and 20 MB
that a run never uses: per `python -X importtime`, scipy.sparse._base takes
201 ms, of which 184 ms go to array_api_compat.numpy, scipy's clone of
numpy for the array API, which alone loads numpy.f2py (98 ms) and
numpy.testing (28 ms).  numpy plus _sparsetools cost 0.16 s and 28 MB.
The module is registered as scipy.sparse._sparsetools, so a later
`import scipy.sparse` (a reader's tocsr(), or the caller's own code)
reuses this module object instead of loading a second copy; only the
attribute scipy.sparse._sparsetools stays unset on the package, while
`from scipy.sparse import _sparsetools` finds the module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_sparsetools():
    """scipy.sparse._sparsetools, without running scipy/sparse/__init__.py."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("fuzzymono needs scipy, which is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.exists(path):
            break
    else:
        raise ImportError(f"no compiled _sparsetools module in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()

# Largest dimension or stored-entry count the int32 indices can hold.
_INDEX_MAX = int(np.iinfo(np.int32).max)
_F64 = np.dtype(np.float64)


def _check_index(n: int) -> None:
    if n > _INDEX_MAX:
        raise ValueError(f"a matrix of {n} rows, columns or entries passes "
                         f"the int32 index limit {_INDEX_MAX}")


# 1j**phase, for turning (phase, float64 data) back into complex values.
_UNITS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def split(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(data, phase) with values == 1j**phase * data: float64 data when the
    values are all real (phase 0) or all imaginary (phase 1), else the
    complex128 values themselves."""
    values = np.asarray(values)
    if values.dtype.kind != "c":
        return values.astype(np.float64, copy=False), 0
    values = values.astype(np.complex128, copy=False)
    if not values.imag.any():
        return values.real.copy(), 0
    if not values.real.any():
        return values.imag.copy(), 1
    return values, 0


def _trimmed(indptr, indices, data, size: int, shape: tuple[int, int], phase: int,
             is_diagonal: bool = False) -> "CSR":
    """The CSR of the first indptr[-1] entries of arrays of size entries,
    trimmed as csr_matrix.prune trims them: the slice is copied when it is
    under half of the array, and a full array is kept whole.  Complex
    results are split again, so a matrix stays float64 whenever its values
    allow."""
    nnz = int(indptr[-1])
    if nnz < size:
        indices, data = indices[:nnz], data[:nnz]
        if nnz < size // 2:
            indices, data = indices.copy(), data.copy()
    if data.dtype.kind == "c":
        data, phase = split(data)
    return CSR(indptr, indices, data, shape, phase, is_diagonal)


class CSR:
    """A sparse matrix, 1j**phase times its data; its arrays are never
    mutated.  is_diagonal marks a square matrix whose stored entries all
    lie on the main diagonal (set by diags and kept by scale, the
    transposes and products of two such matrices); False claims nothing."""

    __slots__ = ("indptr", "indices", "data", "shape", "phase", "is_diagonal")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int], phase: int = 0, is_diagonal: bool = False):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape
        self.phase = phase
        self.is_diagonal = is_diagonal

    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int], phase: int = 0) -> "CSR":
        """The CSR form of distinct (row, col, 1j**phase * value) entries.

        Entries keep their given order within a row, so they come out with
        sorted indices when each row's entries are given by ascending column.
        """
        m, n = shape
        data, turn = split(data)
        phase = (phase + turn) % 4
        _check_index(max(m, n, data.size))
        indptr = np.empty(m + 1, dtype=np.int32)
        indices = np.empty(data.size, dtype=np.int32)
        values = np.empty(data.size, dtype=data.dtype)
        _sparsetools.coo_tocsr(m, n, data.size, rows.astype(np.int32, copy=False),
                               cols.astype(np.int32, copy=False), data, indptr, indices, values)
        return cls(indptr, indices, values, shape, phase)

    @classmethod
    def diags(cls, values: np.ndarray, phase: int = 0) -> "CSR":
        """diag(1j**phase * values), without the zero entries (as
        sparse.diags(values).tocsr() drops them)."""
        data, turn = split(values)
        phase = (phase + turn) % 4
        n = data.size
        _check_index(n)
        keep = data != 0
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(keep, out=indptr[1:])
        return cls(indptr, np.flatnonzero(keep).astype(np.int32), data[keep], (n, n), phase, True)

    @classmethod
    def identity(cls, n: int) -> "CSR":
        return cls.diags(np.ones(n))

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "CSR":
        """The matrix with no stored entry."""
        return cls(np.zeros(shape[0] + 1, dtype=np.int32), np.zeros(0, dtype=np.int32),
                   np.zeros(0), shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def is_float(self) -> bool:
        """Whether data is float64 (the matrix is 1j**phase times it)."""
        return self.data.dtype == np.float64

    def values(self) -> np.ndarray:
        """The complex128 values of the stored entries, in a new array."""
        if self.is_float:
            return self.data * _UNITS[self.phase]
        return self.data.copy()

    def _complex_data(self) -> np.ndarray:
        """The data as complex128 values, for the complex kernels."""
        return self.values() if self.is_float else self.data

    def tocsr(self):
        """A scipy csr_matrix copy with complex128 values, free for the
        reader to change.  Only readers call it: it imports scipy.sparse."""
        from scipy import sparse

        return sparse.csr_matrix((self.values(), self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)

    def diagonal(self) -> np.ndarray:
        """The complex128 main diagonal, as csr_matrix.diagonal() gives it."""
        m, n = self.shape
        out = np.empty(min(m, n), dtype=np.complex128)
        _sparsetools.csr_diagonal(0, m, n, self.indptr, self.indices, self._complex_data(), out)
        return out

    def canonical(self) -> "CSR":
        """The same matrix with sorted indices and duplicates summed, by the
        steps and kernels of csr_matrix.sum_duplicates; self when it is
        canonical already."""
        m = self.shape[0]
        if _sparsetools.csr_has_canonical_format(m, self.indptr, self.indices):
            return self
        indptr, indices, data = self.indptr.copy(), self.indices.copy(), self.data.copy()
        if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
            _sparsetools.csr_sort_indices(m, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(m, self.shape[1], indptr, indices, data)
        return _trimmed(indptr, indices, data, data.size, self.shape, self.phase)

    # @, + and - allocate and call their kernel in their own frame: a run
    # makes tens of thousands of them, so every Python call around a kernel
    # shows in its time.
    # A float64 operand is told by dtype identity (_F64); an array whose
    # float64 dtype is another instance only takes the complex kernels.

    def __matmul__(self, other: "CSR") -> "CSR":
        (m, inner), (inner_b, n) = self.shape, other.shape
        if inner != inner_b:
            raise ValueError(f"block shapes {self.shape} and {other.shape} do not chain")
        a, b = self.data, other.data
        if a.dtype is _F64 and b.dtype is _F64:
            phase = (self.phase + other.phase) % 4
        else:
            a, b, phase = self._complex_data(), other._complex_data(), 0
        # a diagonal factor scales the other one's rows or columns: the
        # product has at most the other factor's entries
        if self.is_diagonal:
            maxnnz = int(other.indptr[-1])
        elif other.is_diagonal:
            maxnnz = int(self.indptr[-1])
        else:
            maxnnz = _sparsetools.csr_matmat_maxnnz(m, n, self.indptr, self.indices,
                                                    other.indptr, other.indices)
        _check_index(maxnnz)
        indptr = np.empty(m + 1, dtype=np.int32)
        indices = np.empty(maxnnz, dtype=np.int32)
        data = np.empty(maxnnz, dtype=b.dtype)
        _sparsetools.csr_matmat(m, n, self.indptr, self.indices, a, other.indptr, other.indices,
                                b, indptr, indices, data)
        return _trimmed(indptr, indices, data, maxnnz, (m, n), phase,
                        self.is_diagonal and other.is_diagonal)

    def _binop(self, other: "CSR", minus: bool) -> "CSR":
        shape = self.shape
        if shape != other.shape:
            raise ValueError(f"block shapes {shape} and {other.shape} differ")
        shift = (other.phase - self.phase) % 4
        a, b = self.data, other.data
        if a.dtype is _F64 and b.dtype is _F64 and shift % 2 == 0:
            # at a shift of 2, other is -1 times its data relative to self
            phase = self.phase
            minus ^= shift == 2
        else:
            a, b, phase = self._complex_data(), other._complex_data(), 0
        size = int(self.indptr[-1]) + int(other.indptr[-1])
        _check_index(size)
        indptr = np.empty(shape[0] + 1, dtype=np.int32)
        indices = np.empty(size, dtype=np.int32)
        data = np.empty(size, dtype=b.dtype)
        kernel = _sparsetools.csr_minus_csr if minus else _sparsetools.csr_plus_csr
        kernel(shape[0], shape[1], self.indptr, self.indices, a, other.indptr, other.indices, b,
               indptr, indices, data)
        return _trimmed(indptr, indices, data, size, shape, phase)

    def __add__(self, other: "CSR") -> "CSR":
        return self._binop(other, minus=False)

    def __sub__(self, other: "CSR") -> "CSR":
        return self._binop(other, minus=True)

    def scale(self, scalar: complex) -> "CSR":
        """scalar times the matrix; a unit scalar (+-1, +-1j) on float64 data
        changes the phase only and shares the arrays."""
        c = complex(scalar)
        if self.is_float and (c.imag == 0 or c.real == 0):
            # c = 1j**turn * factor with a positive or zero factor
            turn, factor = (0, c.real) if c.imag == 0 else (1, c.imag)
            if factor < 0:
                turn, factor = turn + 2, -factor
            data = self.data if factor == 1.0 else self.data * factor
            return CSR(self.indptr, self.indices, data, self.shape, (self.phase + turn) % 4,
                       self.is_diagonal)
        data, phase = split(self.values() * c)
        return CSR(self.indptr, self.indices, data, self.shape, phase, self.is_diagonal)

    __rmul__ = scale  # scalar * matrix, as ncspace.contract builds its terms

    def transpose(self) -> "CSR":
        return self._transposed(self.data, self.phase)

    def adjoint(self) -> "CSR":
        """The conjugate transpose: on float64 data, the transpose with the
        phase negated."""
        if self.is_float:
            return self._transposed(self.data, -self.phase % 4)
        return self._transposed(np.conj(self.data), 0)

    def _transposed(self, data: np.ndarray, phase: int) -> "CSR":
        """The transpose of the matrix with these data, 1j**phase times them."""
        m, n = self.shape
        nnz = self.nnz
        indptr = np.empty(n + 1, dtype=np.int32)
        indices = np.empty(nnz, dtype=np.int32)
        out = np.empty(nnz, dtype=data.dtype)
        _sparsetools.csr_tocsc(m, n, self.indptr, self.indices, data, indptr, indices, out)
        return _trimmed(indptr, indices, out, nnz, (n, m), phase, self.is_diagonal)
