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

from dense import packed, pair_levels
from fuzzymono import liouville
from fuzzymono.algebra import RF_INV_R_MINUS_2L, RF_MONOPOLE
from fuzzymono.fock import number_operator
from fuzzymono.liouville import Space, _Block

# Exact binary fractions, so explicit zeros also arise from cancellation.
_REALS = [0.0, 1.0, -1.0, 0.5, 2.0, -0.25]
_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1j, -0.25j, 1.5 - 2j, 0.75 + 0.5j])
# unit, real, imaginary and general scalars
_SCALARS = st.sampled_from([1.0, -1.0, 1j, -1j, 2.0, -0.5, 0.0, 0.25j, -3j, 1.5 - 2j])


@st.composite
def _csr(draw, shape):
    """A CSR matrix of the given shape, as scipy (complex) and as a _Block.

    The block is float64 data times 1j**phase (all real or all imaginary
    values), or complex128 data for a general block.
    """
    m, n = shape
    phase = draw(st.sampled_from([0, 1, 2, 3, None]))  # None: complex data
    all_zero = draw(st.booleans()) and draw(st.booleans())
    values = _VALUES if phase is None else st.sampled_from(_REALS)
    indptr, indices, data = [0], [], []
    for _ in range(m):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
        indices += cols  # in drawn order: unsorted
        data += [0.0 if all_zero else draw(values) for _ in cols]
        indptr.append(len(indices))
    data = np.array(data, dtype=np.float64 if phase is not None else np.complex128)
    indices, indptr = np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)
    unit = 1.0 if phase is None else 1j ** phase
    mat = sparse.csr_matrix((data * unit, indices.copy(), indptr.copy()), shape=shape)
    return mat, _Block(indptr, indices, data, shape, phase or 0)


_DIMS = st.integers(0, 5)


def _same(blk, mat):
    """blk holds the indptr, indices and complex values of mat."""
    mat = sparse.csr_matrix(mat)
    assert blk.shape == mat.shape
    assert blk.indptr.dtype == np.int32 and blk.indices.dtype == np.int32
    assert blk.data.dtype in (np.float64, np.complex128) and blk.phase in range(4)
    values = blk.values()
    assert values.dtype == np.complex128
    for got, want in ((blk.indptr, mat.indptr), (blk.indices, mat.indices),
                      (values, mat.data)):
        assert got.shape == want.shape and np.array_equal(got, want), (got, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=_DIMS, k=_DIMS, n=_DIMS)
def test_block_product_matches_scipy(data, m, k, n):
    a, ablk = data.draw(_csr((m, k)))
    b, bblk = data.draw(_csr((k, n)))
    prod = ablk @ bblk
    _same(prod, a @ b)
    if ablk.is_float and bblk.is_float:  # float64 in, float64 out
        assert prod.is_float and prod.phase == (ablk.phase + bblk.phase) % 4


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=_DIMS, n=_DIMS)
def test_block_sum_difference_scale_adjoint_match_scipy(data, m, n):
    a, ablk = data.draw(_csr((m, n)))
    b, bblk = data.draw(_csr((m, n)))
    _same(ablk + bblk, a + b)
    _same(ablk - bblk, a - b)
    if ablk.is_float and bblk.is_float and (ablk.phase - bblk.phase) % 2 == 0:
        assert (ablk + bblk).is_float and (ablk - bblk).is_float
    c = complex(data.draw(_SCALARS))
    scaled = ablk.scale(c)
    _same(scaled, c * a)
    if ablk.is_float and c in (1, -1, 1j, -1j):  # a unit turns the phase only
        assert scaled.data is ablk.data and scaled.indices is ablk.indices
    elif ablk.is_float and (c.real == 0 or c.imag == 0):
        assert scaled.is_float
    _same(ablk.adjoint(), a.conj().T.tocsr())
    assert ablk.adjoint().is_float or not ablk.is_float
    _same(ablk, ablk.tocsr())
    csr = ablk.tocsr()
    assert csr.dtype == np.complex128
    assert csr.indices is not ablk.indices and csr.data is not ablk.data  # a copy
    # the weighted adjoint's form: diagonal products on both sides
    left = np.array([data.draw(_VALUES) for _ in range(n)], dtype=np.complex128)
    right = np.array([data.draw(_VALUES) for _ in range(m)], dtype=np.complex128)
    _same(_Block.diagonal(left), sparse.diags(left, format="csr"))
    want = sparse.diags(left, format="csr") @ a.conj().T.tocsr() @ sparse.diags(right, format="csr")
    _same(_Block.diagonal(left) @ ablk.adjoint() @ _Block.diagonal(right), want)


@pytest.mark.parametrize("values, phase", [([0.5, 0.0, -2.0], 0), ([0.5j, 0.0, -2j], 1),
                                           ([0.5, 1j, 0.0], 0)])
def test_leaf_values_split_into_float_data_and_a_phase(values, phase):
    """All-real and all-imaginary leaf values are stored as float64 data."""
    values = np.array(values, dtype=np.complex128)
    splits = not (values.real.any() and values.imag.any())
    rows, cols = np.arange(3), np.array([2, 0, 1])
    for blk, want in ((_Block.diagonal(values), sparse.diags(values, format="csr")),
                      (_Block.from_coo(rows, cols, values, (3, 3)),
                       sparse.csr_matrix((values, (rows, cols)), shape=(3, 3)))):
        assert blk.is_float == splits and blk.phase == phase
        _same(blk, want)


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
    row, col = pair_levels(sp)
    w, grade = sp.lam * (row + col + 2) / 2.0, row - col

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
            want = full[packed(sp, k + op.grade)][:, packed(sp, k)]
            assert want.has_sorted_indices, name
            _same(op.raw_block(k), want)


def test_run_path_blocks_are_float64():
    """The operators a run builds are all real or all imaginary, and their
    blocks stay float64: a slide back onto the complex kernels fails here."""
    from fuzzymono.verify.registry import get_context

    ctx = get_context(6, 1.0)
    sp = ctx.space
    ops = {"radius_inv": sp.radius_inv(), "generator S_05": ctx.alg.generator(0, 5),
           "generator S_12": ctx.alg.generator(1, 2), "velocity 2": ctx.vel.velocity(2),
           "dual velocity 4": ctx.vel.dual_velocity(4)}
    for alpha in (1, 2):
        ops.update({f"la{alpha}": sp.lmul_a(alpha), f"lad{alpha}": sp.lmul_adag(alpha),
                    f"ra{alpha}": sp.rmul_a(alpha), f"rad{alpha}": sp.rmul_adag(alpha)})
    for name, op in ops.items():
        for k in range(-6, 7):
            assert op.raw_block(k).data.dtype == np.float64, (name, k)
    assert sp.radius_inv() is sp.radius_inv() and sp.radius_op() is sp.radius_op()


def test_identity_and_radius_are_the_radial_multipliers():
    """1, r and 1/r are built the one way every radial function is, and the
    space caches each once, under its RadialFunction name."""
    from fuzzymono.liouville import RF_INV_R, RF_ONE, RF_R

    sp = Space(4, 0.5)
    assert sp.identity() is RF_ONE.to_superop(sp)
    assert sp.radius_op() is RF_R.to_superop(sp)
    assert sp.radius_inv() is RF_INV_R.to_superop(sp)
    assert set(sp._cache) == {("rf", f.name) for f in (RF_ONE, RF_R, RF_INV_R)}
