"""The engine's CSR block kernels against scipy's public sparse operators.

Every block operation must give exactly the indptr, indices and data of the
scipy expression it stands for, on matrices with unsorted indices, explicit
zeros, empty rows, zero-size shapes and no nonzero entry at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fuzzymono import liouville
from fuzzymono.liouville import Space, _Block

# Exact binary fractions, so explicit zeros also arise from cancellation.
_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1j, -0.25j, 1.5 - 2j, 0.75 + 0.5j])


@st.composite
def _csr(draw, shape):
    """A complex CSR matrix of the given shape, as scipy and as a _Block."""
    m, n = shape
    all_zero = draw(st.booleans()) and draw(st.booleans())
    indptr, indices, data = [0], [], []
    for _ in range(m):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
        indices += cols  # in drawn order: unsorted
        data += [0.0 if all_zero else draw(_VALUES) for _ in cols]
        indptr.append(len(indices))
    arrays = (np.array(data, dtype=np.complex128), np.array(indices, dtype=np.int32),
              np.array(indptr, dtype=np.int32))
    mat = sparse.csr_matrix(tuple(a.copy() for a in arrays), shape=shape)
    return mat, _Block(arrays[2], arrays[1], arrays[0], shape)


_DIMS = st.integers(0, 5)


def _same(blk, mat):
    mat = sparse.csr_matrix(mat)
    assert blk.shape == mat.shape
    assert blk.indptr.dtype == np.int32 and blk.indices.dtype == np.int32
    assert blk.data.dtype == np.complex128
    for got, want in ((blk.indptr, mat.indptr), (blk.indices, mat.indices),
                      (blk.data, mat.data)):
        assert got.shape == want.shape and np.array_equal(got, want), (got, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=_DIMS, k=_DIMS, n=_DIMS)
def test_block_product_matches_scipy(data, m, k, n):
    a, ablk = data.draw(_csr((m, k)))
    b, bblk = data.draw(_csr((k, n)))
    _same(ablk @ bblk, a @ b)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=_DIMS, n=_DIMS)
def test_block_sum_difference_scale_adjoint_match_scipy(data, m, n):
    a, ablk = data.draw(_csr((m, n)))
    b, bblk = data.draw(_csr((m, n)))
    _same(ablk + bblk, a + b)
    _same(ablk - bblk, a - b)
    c = complex(data.draw(_VALUES))
    _same(ablk.scale(c), c * a)
    _same(ablk.adjoint(), a.conj().T.tocsr())
    _same(ablk, ablk.tocsr())
    assert ablk.tocsr().indices is not ablk.indices  # readers get a copy
    # the weighted adjoint's form: diagonal products on both sides
    left = np.array([data.draw(_VALUES) for _ in range(n)], dtype=np.complex128)
    right = np.array([data.draw(_VALUES) for _ in range(m)], dtype=np.complex128)
    _same(_Block.diagonal(left), sparse.diags(left, format="csr"))
    want = sparse.diags(left, format="csr") @ a.conj().T.tocsr() @ sparse.diags(right, format="csr")
    _same(_Block.diagonal(left) @ ablk.adjoint() @ _Block.diagonal(right), want)


def test_block_shapes_must_agree():
    blk = _Block.diagonal(np.ones(3, dtype=np.complex128))
    other = _Block.diagonal(np.ones(2, dtype=np.complex128))
    with pytest.raises(ValueError, match="chain"):
        blk @ other
    with pytest.raises(ValueError, match="differ"):
        blk + other


def test_int32_guard(monkeypatch):
    """Sizes past the index limit raise instead of wrapping around."""
    ones = _Block.diagonal(np.ones(3, dtype=np.complex128))
    full = _Block.from_csr(sparse.csr_matrix(np.ones((3, 3), dtype=np.complex128)))
    monkeypatch.setattr(liouville, "_INDEX_MAX", 9)
    full @ full  # maxnnz 9 is at the limit
    with pytest.raises(ValueError, match="int32"):
        _Block.diagonal(np.ones(10, dtype=np.complex128))
    with pytest.raises(ValueError, match="int32"):
        ones + full  # 3 + 9 stored entries
    monkeypatch.setattr(liouville, "_INDEX_MAX", 5)
    with pytest.raises(ValueError, match="int32"):
        full @ ones  # maxnnz 9
    with pytest.raises(ValueError, match="int32"):
        _Block.from_csr(sparse.csr_matrix(np.ones((2, 3), dtype=np.complex128)))
    # a superoperator's leaf block is converted through the same check
    sp = Space(3)
    with pytest.raises(ValueError, match="int32"):
        sp.lmul_adag(1).raw_block(0)
