"""The engine's CSR kernels against scipy's public sparse operators.

Every block operation must give exactly the indptr, indices and data of the
scipy expression it stands for, on matrices with unsorted indices, explicit
zeros, empty rows, zero-size shapes and no nonzero entry at all.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from dense import (RF_INV_R_MINUS_2L, Injected, kron_leaf_block, packed, pair_levels,
                   radial_leaf_block)
from fuzzymono import csr, liouville
from fuzzymono.algebra import RF_MONOPOLE
from fuzzymono.csr import CSR
from fuzzymono.fock import number_operator
from fuzzymono.liouville import Space

# Exact binary fractions, so explicit zeros also arise from cancellation.
_REALS = [0.0, 1.0, -1.0, 0.5, 2.0, -0.25]
_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1j, -0.25j, 1.5 - 2j, 0.75 + 0.5j])
# unit, real, imaginary and general scalars
_SCALARS = st.sampled_from([1.0, -1.0, 1j, -1j, 2.0, -0.5, 0.0, 0.25j, -3j, 1.5 - 2j])


@st.composite
def _csr(draw, shape, unique=True):
    """A CSR matrix of the given shape, as scipy (complex) and as a CSR.

    The block is float64 data times 1j**phase (all real or all imaginary
    values), or complex128 data for a general block.  unique=False lets a
    row hold several entries in one column (only scipy's sum_duplicates
    and the engine's canonical form accept that).
    """
    m, n = shape
    phase = draw(st.sampled_from([0, 1, 2, 3, None]))  # None: complex data
    all_zero = draw(st.booleans()) and draw(st.booleans())
    values = _VALUES if phase is None else st.sampled_from(_REALS)
    indptr, indices, data = [0], [], []
    for _ in range(m):
        cols = draw(st.lists(st.integers(0, n - 1), unique=unique, max_size=n)) if n else []
        indices += cols  # in drawn order: unsorted
        data += [0.0 if all_zero else draw(values) for _ in cols]
        indptr.append(len(indices))
    data = np.array(data, dtype=np.float64 if phase is not None else np.complex128)
    indices, indptr = np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)
    unit = 1.0 if phase is None else 1j ** phase
    mat = sparse.csr_matrix((data * unit, indices.copy(), indptr.copy()), shape=shape)
    return mat, CSR(indptr, indices, data, shape, phase or 0)


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
    _same(CSR.diags(left), sparse.diags(left, format="csr"))
    want = sparse.diags(left, format="csr") @ a.conj().T.tocsr() @ sparse.diags(right, format="csr")
    _same(CSR.diags(left) @ ablk.adjoint() @ CSR.diags(right), want)


def test_a_leaf_needs_data_and_a_composed_node_has_none():
    """A leaf is a node of a leaf kind with data and no operands; a composed
    node has operands and no data.  Each kind's blocks map sector k into
    sector k + grade by construction."""
    space = Space(3)
    one = space.identity()
    for kind in ("fock", "radial"):
        with pytest.raises(TypeError, match="data"):
            liouville.SuperOp(space, 0, kind=kind)
        with pytest.raises(TypeError, match="data"):
            liouville.SuperOp(space, 0, kind=kind, args=(one,), data=one.data)
    with pytest.raises(TypeError, match="data"):
        liouville.SuperOp(space, 0, kind="scale", args=(one,), data=one.data)
    with pytest.raises(TypeError, match="data"):
        liouville.SuperOp(space, 0, kind="matmul", data=one.data)
    assert (space.lmul_a(1).kind, one.kind, (one @ one).data) == ("fock", "radial", ())
    assert (space.lmul_a(1) @ space.lmul_adag(1)).raw_block(0).shape == (30, 30)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_difference_node_matches_sum_of_negated_node(data):
    """a - b is one "sub" node, whose blocks equal those of a + (-1.0) * b
    in indptr, indices and values."""
    space = Space(1)
    k = data.draw(st.sampled_from([-1, 0, 1]))
    dim = int(space.sector_levels(k)[1][-1])
    _, ablk = data.draw(_csr((dim, dim)))
    _, bblk = data.draw(_csr((dim, dim)))
    a = Injected(space, lambda s: ablk)
    b = Injected(space, lambda s: bblk)
    diff = a - b
    assert diff.kind == "sub" and diff.args == (a, b)
    got, want = diff.raw_block(k), (a + (-1.0) * b).raw_block(k)
    for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.values(), want.values())):
        assert x.shape == y.shape and np.array_equal(x, y), (x, y)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=_DIMS, n=_DIMS)
def test_transpose_canonical_form_and_diagonal_match_scipy(data, m, n):
    a, ablk = data.draw(_csr((m, n), unique=False))
    _same(ablk.transpose(), a.T.tocsr())
    assert ablk.transpose().is_float or not ablk.is_float
    want = a.copy()
    want.sum_duplicates()
    _same(ablk.canonical(), want)
    if a.has_canonical_format:
        assert ablk.canonical() is ablk
    assert np.array_equal(ablk.diagonal(), a.diagonal())


@pytest.mark.parametrize("values, phase", [([0.5, 0.0, -2.0], 0), ([0.5j, 0.0, -2j], 1),
                                           ([0.5, 1j, 0.0], 0)])
def test_leaf_values_split_into_float_data_and_a_phase(values, phase):
    """All-real and all-imaginary leaf values are stored as float64 data."""
    values = np.array(values, dtype=np.complex128)
    splits = not (values.real.any() and values.imag.any())
    rows, cols = np.arange(3), np.array([2, 0, 1])
    for blk, want in ((CSR.diags(values), sparse.diags(values, format="csr")),
                      (CSR.from_coo(rows, cols, values, (3, 3)),
                       sparse.csr_matrix((values, (rows, cols)), shape=(3, 3)))):
        assert blk.is_float == splits and blk.phase == phase
        _same(blk, want)


def test_block_shapes_must_agree():
    blk = CSR.diags(np.ones(3, dtype=np.complex128))
    other = CSR.diags(np.ones(2, dtype=np.complex128))
    with pytest.raises(ValueError, match="chain"):
        blk @ other
    with pytest.raises(ValueError, match="differ"):
        blk + other


@pytest.mark.parametrize("n_max", range(8))
def test_a_ladder_leaf_block_keeps_the_level_by_level_entry_order(n_max):
    """Each leaf block has the indptr, indices, data and phase of the kron
    built level by level, at every grade, empty sectors and a grade beyond
    int64 included: the stored order of each row's entries sets the
    summation order of every later product.  A ladder matrix has one entry
    per row; the full matrices from each level to the next, to the one
    before and to itself put several into a row of a block."""
    sp = Space(n_max)
    leaves = []
    for alpha in (1, 2):
        a, adag = sp.a[alpha - 1], sp.adag[alpha - 1]
        leaves += [(sp.lmul_a(alpha), a, -1, True), (sp.lmul_adag(alpha), adag, 1, True),
                   (sp.rmul_a(alpha), a.transpose(), 1, False),
                   (sp.rmul_adag(alpha), adag.transpose(), -1, False)]
    i, j = np.divmod(np.arange(sp.basis.dim ** 2), sp.basis.dim)
    for shift in (-1, 0, 1):
        hit = sp.level[i] - sp.level[j] == shift
        full = CSR.from_coo(i[hit], j[hit], 1.0 + np.arange(hit.sum()) * 1j,
                            (sp.basis.dim,) * 2)  # complex entries, all distinct
        leaves += [(sp.left_mul(full, shift), full, shift, True),
                   (sp.right_mul(full, -shift), full.transpose(), -shift, False)]
    for op, factor, shift, rows in leaves:
        for k in [*range(-n_max - 2, n_max + 3), 2**70, -2**70]:
            got, want = op.raw_block(k), kron_leaf_block(sp, factor, shift, rows, k)
            assert got.shape == want.shape and got.phase == want.phase
            for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert x.dtype == y.dtype and np.array_equal(x, y), (k, x, y)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=_DIMS, m=_DIMS)
def test_a_product_with_a_diagonal_factor_matches_scipy(data, n, m):
    """A diags factor is marked diagonal, and a product with it, sized by
    the other factor's entries instead of csr_matmat_maxnnz, still gives
    scipy's arrays; the mark stays through scale, the transposes and a
    product of two diagonal factors, and holds."""
    values = np.array(data.draw(st.lists(_VALUES, min_size=n, max_size=n)), dtype=np.complex128)
    diag, dblk = sparse.diags(values, format="csr"), CSR.diags(values)
    a, ablk = data.draw(_csr((n, m)))
    b, bblk = data.draw(_csr((m, n)))
    _same(dblk @ ablk, diag @ a)
    _same(bblk @ dblk, b @ diag)
    other = CSR.diags(values[::-1])
    for blk in (dblk, dblk.scale(data.draw(_SCALARS)), dblk.transpose(), dblk.adjoint(),
                dblk @ other):
        assert blk.is_diagonal
        assert np.array_equal(blk.indices, np.repeat(np.arange(n), np.diff(blk.indptr)))
    assert not (dblk @ ablk).is_diagonal and not (dblk + other).is_diagonal


def test_float_data_of_another_dtype_instance_give_the_same_blocks():
    """@, + and - tell float64 data by dtype identity; an unpickled array's
    float64 dtype is another instance, and its operations (through the
    complex kernels) still give scipy's arrays."""
    rows, cols = np.divmod(np.arange(9), 3)
    a = CSR.from_coo(rows, cols, np.arange(1.0, 10.0), (3, 3), 1)
    b = CSR(*(pickle.loads(pickle.dumps(x)) for x in (a.indptr, a.indices, a.data)), a.shape, 1)
    assert b.data.dtype is not np.dtype(np.float64) and b.is_float
    for got, want in ((b @ a, a.tocsr() @ a.tocsr()), (a @ b, a.tocsr() @ a.tocsr()),
                      (b + a, 2 * a.tocsr()), (a - b, a.tocsr() - a.tocsr())):
        _same(got, want)


def test_int32_guard(monkeypatch):
    """Sizes past the index limit raise instead of wrapping around."""
    sp = Space(3)
    ones = CSR.diags(np.ones(3, dtype=np.complex128))
    rows, cols = np.divmod(np.arange(9), 3)
    full = CSR.from_coo(rows, cols, np.ones(9), (3, 3))
    monkeypatch.setattr(csr, "_INDEX_MAX", 9)
    full @ full  # maxnnz 9 is at the limit
    with pytest.raises(ValueError, match="int32"):
        CSR.diags(np.ones(10, dtype=np.complex128))
    with pytest.raises(ValueError, match="int32"):
        ones + full  # 3 + 9 stored entries
    with pytest.raises(ValueError, match="int32"):
        full - ones
    monkeypatch.setattr(csr, "_INDEX_MAX", 5)
    with pytest.raises(ValueError, match="int32"):
        full @ ones  # maxnnz 9
    with pytest.raises(ValueError, match="int32"):
        CSR.from_coo(*np.divmod(np.arange(6), 3), np.ones(6), (2, 3))
    # a superoperator's leaf block is converted through the same check
    with pytest.raises(ValueError, match="int32"):
        sp.lmul_adag(1).raw_block(0)


def _reference_leaves(sp):
    """(name, superoperator, full D^2 x D^2 matrix) of every kind of leaf.

    The full matrices are built the direct way: kron products of the Fock
    matrices, and diags of the value on every pair.
    """
    eye = sparse.identity(sp.basis.dim, dtype=np.complex128, format="csr")
    r_mat = CSR.diags(sp.lam * (sp.level + 1))
    out = []
    for alpha in (1, 2):
        a, adag = sp.a[alpha - 1].tocsr(), sp.adag[alpha - 1].tocsr()
        out += [(f"la{alpha}", sp.lmul_a(alpha), sparse.kron(a, eye, format="csr")),
                (f"lad{alpha}", sp.lmul_adag(alpha), sparse.kron(adag, eye, format="csr")),
                (f"ra{alpha}", sp.rmul_a(alpha), sparse.kron(eye, a.T, format="csr")),
                (f"rad{alpha}", sp.rmul_adag(alpha), sparse.kron(eye, adag.T, format="csr"))]
    num = number_operator(sp.basis)
    out += [("left r", sp.left_mul(r_mat, 0), sparse.kron(r_mat.tocsr(), eye, format="csr")),
            ("right number", sp.right_mul(num, 0),
             sparse.kron(eye, num.tocsr().T, format="csr"))]
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


def test_a_leaf_is_rebuilt_from_its_data():
    """Every leaf of the pair trees of --suite all at n_max 5 is a fock or
    a radial node, and its data alone give its blocks bit for bit: a fock
    leaf's (factor, shift, rows) through the level-by-level kron, a radial
    leaf's (table, phase) through the table repeated over each input-level
    block."""
    from fuzzymono.verify.registry import get_context, records_for_suite

    ctx = get_context(5, 1.0)
    sp = ctx.space
    todo = [op for rec in records_for_suite("all") if rec.pairs
            for pair in rec.pairs(ctx) for op in pair]
    leaves, seen = {}, set()
    while todo:
        op = todo.pop()
        if id(op) not in seen:
            seen.add(id(op))
            todo += op.args
            if not op.args:
                leaves[id(op)] = op
    assert {op.kind for op in leaves.values()} == {"fock", "radial"}
    for op in leaves.values():
        for k in range(-5, 6):
            got = op.raw_block(k)
            if op.kind == "fock":
                want = kron_leaf_block(sp, *op.data[:3], k)
            else:
                want = radial_leaf_block(sp, *op.data, k)
            assert got.shape == want.shape and got.phase == want.phase, (op, k)
            for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert x.dtype == y.dtype and np.array_equal(x, y), (op, k)


def test_an_operator_prints_as_its_word():
    """A kept operator prints as its cache key, a leaf as its kind and a
    composed node as its expression."""
    from fuzzymono.verify.registry import get_context

    ctx = get_context(4, 1.0)
    v1, v2 = ctx.vel.velocity(1), ctx.vel.velocity(2)
    assert str(liouville.commutator(v1, v2)) == "((v(1) @ v(2)) - (v(2) @ v(1)))"
    assert str(v1.weighted_adjoint()) == "((rf(1/r) @ v(1)^H) @ rf(r))"
    assert str(ctx.alg.center()) == "center"
    sp = ctx.space
    assert str(sp.radial_phase(0.5)) == "radial"
    assert str(sp.left_mul(sp.a[0], -1)) == "fock"
    assert str(0.5j * (2 * sp.lmul_a(1) + sp.rmul_a(2))) == "(0.5j * ((2.0 * la(1)) + ra(2)))"
