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
from fuzzymono.algebra import RF_INV_R_MINUS_2L, RF_MONOPOLE
from fuzzymono.fock import number_operator
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
    rows, cols = np.divmod(np.arange(9), 3)
    full = _Block.from_coo(rows, cols, np.ones(9), (3, 3))
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
        _Block.from_coo(*np.divmod(np.arange(6), 3), np.ones(6), (2, 3))
    # a superoperator's leaf block is converted through the same check
    sp = Space(3)
    with pytest.raises(ValueError, match="int32"):
        sp.lmul_adag(1).raw_block(0)


def _reference_leaves(sp):
    """(name, superoperator, full D^2 x D^2 matrix) of every kind of leaf.

    The full matrices are built the direct way: kron products of the Fock
    matrices, and diags of the value on every pair.
    """
    eye = sparse.identity(sp.dim, dtype=np.complex128, format="csr")
    r_mat = sp.lam * sparse.diags((sp.level + 1).astype(np.complex128)).tocsr()
    out = []
    for alpha in (1, 2):
        a, adag = sp._a[alpha - 1], sp._adag[alpha - 1]
        out += [(f"la{alpha}", sp.lmul_a(alpha), sparse.kron(a, eye, format="csr")),
                (f"lad{alpha}", sp.lmul_adag(alpha), sparse.kron(adag, eye, format="csr")),
                (f"ra{alpha}", sp.rmul_a(alpha), sparse.kron(eye, a.T, format="csr")),
                (f"rad{alpha}", sp.rmul_adag(alpha), sparse.kron(eye, adag.T, format="csr"))]
    num = number_operator(sp.basis)
    out += [("left r", sp.left_mul(r_mat, 0), sparse.kron(r_mat, eye, format="csr")),
            ("right number", sp.right_mul(num, 0), sparse.kron(eye, num.T, format="csr"))]
    w, grade = sp.pair_w, sp.pair_grade

    def on_grid(f):
        vals = np.zeros(w.shape, dtype=np.complex128)
        keep = np.ones(w.shape, dtype=bool)
        for p in f.poles:
            keep &= ~(np.abs(w / sp.lam - p) < liouville.POLE_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals[keep] = f.fn(w[keep], sp.lam)
        return vals

    values = {
        "identity": (sp.identity(), np.ones(w.shape)),
        "radius": (sp.radius_op(), w),
        "radius_inv": (sp.radius_inv(), 1.0 / w),
        "phase": (sp.radial_phase(0.7), np.exp(1j * 0.7 * w / sp.lam)),
        "twist": (sp.grading_twist(1.3), np.exp(-1j * 1.3 * grade)),
        "central grade": (sp.radial_values(sp.level_grade), grade),
    }
    for f in (RF_INV_R_MINUS_2L, RF_MONOPOLE):
        values[f.name] = (f.to_superop(sp), on_grid(f))
    for name, (op, vals) in values.items():
        out.append((name, op, sparse.diags(np.asarray(vals, dtype=np.complex128), format="csr")))
    return out


@pytest.mark.parametrize("lam", [1.0, 0.5, 3.0])
@pytest.mark.parametrize("n_max", range(7))
def test_leaf_blocks_match_kron_and_diags(n_max, lam):
    """Every leaf block is, array for array, the slice of its full matrix."""
    sp = Space(n_max, lam)
    for name, op, full in _reference_leaves(sp):
        for k in range(-n_max - 1, n_max + 2):
            want = full[sp.packed(k + op.grade)][:, sp.packed(k)]
            assert want.has_sorted_indices, name
            _same(op.raw_block(k), want)
