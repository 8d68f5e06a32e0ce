import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from dense import from_matrix, packed, pair_levels, to_csr, to_matrix
from fuzzymono.csr import CSR
from fuzzymono.fock import annihilator, build_basis, creator
from fuzzymono.liouville import SuperOp, get_space
from fuzzymono.sector import (
    MonopoleSector,
    SectorVector,
    _window_norm,
    apply_superop,
    build_sector,
    graded_residual,
    inner_product,
    sector_matrix,
    window_inner,
)
from fuzzymono.verify.registry import BY_ID, get_context


def brute_dim(kappa, n_max):
    """Count matrix entries (out, in) with level(out) - level(in) = kappa."""
    basis = build_basis(n_max)
    count = 0
    for r in basis.states:
        for c in basis.states:
            if sum(r) - sum(c) == kappa:
                count += 1
    return count


@pytest.mark.parametrize("kappa,n_max", [(0, 1), (1, 2), (-2, 5), (3, 7), (0, 6)])
def test_dimension_against_brute_force(kappa, n_max):
    sec = build_sector(kappa, n_max)
    assert sec.dim == brute_dim(kappa, n_max)
    assert sec.dim == sum(sec.block_dim(n) for n in sec.blocks)


@pytest.mark.parametrize("n_max", range(7))
def test_reference_packing_is_the_sector_order(n_max):
    """The dense reference's packed(space, k) is the engine's packed order:
    the sectors partition the D^2 vec indices, each by grade and with the
    sector's dimension, block-major by input level n, and within block n
    the columns (level n) outer and the rows (level n + k) inner."""
    sp = get_space(n_max, 1.0)
    basis = build_basis(n_max)
    d = basis.dim
    level = [sum(state) for state in basis.states]
    row, col = pair_levels(sp)
    parts = []
    for k in range(-n_max, n_max + 1):
        idx = packed(sp, k)
        assert np.all(row[idx] - col[idx] == k)
        assert idx.size == sp.sector_dims[k] == build_sector(k, n_max).block_offsets[-1]
        brute = [r * d + c for n in range(n_max + 1)
                 for c in range(d) if level[c] == n
                 for r in range(d) if level[r] == n + k]
        assert idx.tolist() == brute
        parts.append(idx)
    np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(d * d))


def test_known_dimensions():
    assert build_sector(0, 1).dim == 5
    assert build_sector(0, 1).blocks == (0, 1)
    assert build_sector(1, 2).dim == 8
    assert build_sector(1, 2).blocks == (0, 1)


def test_empty_sector_flagged():
    sec = build_sector(5, 3)
    assert sec.dim == 0
    assert sec.blocks == ()


def test_monopole_charge_value():
    assert build_sector(3, 5).mu == -1.5
    assert build_sector(-4, 6).mu == 2.0


def test_radius_eigenvalues_against_direct_symmetrization():
    """Oracle: apply (r Psi + Psi r)/2 built from left/right multiplication."""
    for kappa, lam in [(0, 1.0), (1, 0.5), (-2, 2.0)]:
        n_max = 6
        sec = build_sector(kappa, n_max, lam)
        sp = sec.space
        r_mat = CSR.diags(lam * (sp.level + 1))
        direct = 0.5 * (sp.left_mul(r_mat, 0) + sp.right_mul(r_mat, 0))
        for pos, n in enumerate(sec.blocks):
            i = int(sec.block_offsets[pos])
            psi = SectorVector.basis_element(sec, i)
            out = apply_superop(direct, psi)
            np.testing.assert_allclose(
                out.data, sec.r_hat_eigen[pos] * psi.data, atol=1e-14)
        np.testing.assert_allclose(
            sec.r_hat_eigen, lam * (np.array(sec.blocks) + 1 + kappa / 2.0), atol=0)


def test_vacuum_radius_eigenvalue():
    sec = build_sector(0, 4, lam=1.0)
    assert sec.r_hat_eigen[0] == pytest.approx(1.0)


def test_grading_phase():
    """Phase substitution multiplies every sector element by e^{-i tau kappa}."""
    for kappa in (-3, 0, 2):
        sec = build_sector(kappa, 6)
        for tau in (np.pi / 7, 1.0, 2.5):
            vals = sec.space.grading_twist(tau).block(kappa).diagonal()
            np.testing.assert_allclose(vals, np.exp(-1j * tau * kappa), atol=1e-13)


def test_vacuum_norm():
    lam = 1.7
    sec = build_sector(0, 3, lam)
    psi = SectorVector.basis_element(sec, 0)
    assert inner_product(psi, psi) == pytest.approx(4 * np.pi * lam**3)


def test_basis_orthogonality():
    sec = build_sector(1, 4)
    u = SectorVector.basis_element(sec, 0)
    v = SectorVector.basis_element(sec, 3)
    assert inner_product(u, v) == 0.0


def test_inner_product_conjugate_symmetric(rng):
    sec = build_sector(-1, 5)
    u = SectorVector.random(sec, rng)
    v = SectorVector.random(sec, rng)
    assert inner_product(u, v) == pytest.approx(np.conj(inner_product(v, u)))
    assert inner_product(u, u).real > 0
    assert abs(inner_product(u, u).imag) <= 1e-12 * inner_product(u, u).real


def test_sector_mismatch_rejected(rng):
    u = SectorVector.random(build_sector(0, 4), rng)
    v = SectorVector.random(build_sector(1, 4), rng)
    with pytest.raises(ValueError):
        inner_product(u, v)


def test_full_gram_diagonal_positive():
    """Whole Gram matrix at a small truncation: diagonal with weights."""
    lam = 0.8
    sec = build_sector(1, 4, lam)
    vecs = [SectorVector.basis_element(sec, i) for i in range(sec.dim)]
    gram = np.array([[inner_product(u, v) for v in vecs] for u in vecs])
    expected = np.diag(4 * np.pi * lam**2 * sec.packed_weights())
    np.testing.assert_allclose(gram, expected, atol=1e-13)
    assert np.linalg.eigvalsh(gram).min() > 0


def test_matrix_roundtrip(rng):
    sec = build_sector(2, 5)
    v = SectorVector.random(sec, rng)
    again = from_matrix(sec, to_matrix(v))
    np.testing.assert_allclose(again.data, v.data, atol=0)
    # the dense matrix is supported exactly on the graded entries
    mat = to_matrix(v)
    levels = sec.space.level
    for r in range(sec.space.basis.dim):
        for c in range(sec.space.basis.dim):
            if levels[r] - levels[c] != 2:
                assert mat[r, c] == 0


def test_apply_shifts_grade(rng):
    sp = get_space(5, 1.0)
    sec = build_sector(0, 5)
    psi = SectorVector.random(sec, rng)
    out = apply_superop(sp.lmul_adag(1), psi)
    assert out.sector.kappa == 1
    # oracle: dense matrix multiplication
    from fuzzymono.fock import creator

    direct = creator(sp.basis, 1).tocsr().toarray() @ to_matrix(psi)
    np.testing.assert_allclose(to_matrix(out), direct, atol=1e-14)


def test_weighted_adjoint_properties(rng):
    sp = get_space(6, 1.0)
    sec = build_sector(1, 6)
    # adjoint of the radius is the radius
    r = sp.radius_op()
    assert (to_csr(r.weighted_adjoint()) - to_csr(r)).nnz == 0
    # involution on a composite
    op = sp.lmul_adag(1) @ sp.rmul_a(2) + 0.3j * sp.radius_inv()
    delta = to_csr(op.weighted_adjoint().weighted_adjoint()) - to_csr(op)
    assert abs(delta.toarray()).max() <= 1e-14
    # defining property against the weighted inner product, on random vectors
    op2 = sp.radius_inv() @ (sp.lmul_adag(1) @ sp.rmul_a(1))
    adj = op2.weighted_adjoint()
    for _ in range(5):
        u = SectorVector.random(sec, rng)
        v = SectorVector.random(sec, rng)
        lhs = inner_product(u, apply_superop(op2, v))
        rhs = inner_product(apply_superop(adj, u), v)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_creation_adjoint_is_not_annihilation():
    """The radius weight twists the adjoint of the bare ladder superoperators."""
    from fuzzymono.sector import graded_residual

    sp = get_space(8, 1.0)
    sec = build_sector(1, 8)
    out = graded_residual(sp.lmul_adag(1).weighted_adjoint(), sp.lmul_a(1), sec, 1)
    assert out is not None and out[0] > 1e-2


def test_materialized_matches_apply(rng):
    sp = get_space(6, 1.0)
    from fuzzymono.verify.registry import get_context

    ctx = get_context(6, 1.0)
    sec = build_sector(1, 6)
    ops = [ctx.alg.generator(0, 3), ctx.vel.u(1, 2), ctx.vel.velocity(4)]
    for op in ops:
        mat = sector_matrix(op, sec, dense=True)
        out_sec = build_sector(1 + op.grade, 6)
        for _ in range(100):
            v = SectorVector.random(sec, rng)
            direct = apply_superop(op, v)
            product = mat @ v.data
            scale = max(1.0, np.linalg.norm(product))
            assert np.linalg.norm(direct.data - product) / scale <= 1e-13
            assert direct.sector.kappa == out_sec.kappa


def _sliced_residual(full_l, full_r, sector, guard, exclude_ws, floor):
    """Reference: the windowed norms from CSC copies sliced to the window columns."""
    mask, excluded = sector.guard_window(guard, exclude_ws)
    cols = packed(sector.space, sector.kappa)[mask]
    if cols.size == 0:
        return None

    def norm(mat):
        sub = mat.tocsc()[:, cols]
        return float(np.sqrt(np.sum(np.abs(sub.data) ** 2))) if sub.nnz else 0.0

    nl, nr, nd = norm(full_l), norm(full_r), norm((full_l - full_r).tocsr())
    den = max(floor, nl, nr)
    if den == 0.0:
        return (0.0 if nd == 0.0 else float("inf")), excluded
    return nd / den, excluded


def _messy_csr(rng, sp, grade, density, scale):
    """Random complex CSR of one grade with unsorted column indices and explicit zeros."""
    n = sp.basis.dim ** 2
    row_level, col_level = pair_levels(sp)
    pair_grade = row_level - col_level
    indptr, indices = [0], []
    for row in range(n):
        allowed = np.flatnonzero(pair_grade == pair_grade[row] - grade)
        cols = rng.choice(allowed, size=rng.binomial(allowed.size, density),
                          replace=False)  # unsorted
        indices.extend(cols.tolist())
        indptr.append(len(indices))
    nnz = len(indices)
    data = scale * (rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz))
    data[rng.random(nnz) < 0.2] = 0.0
    return sparse.csr_matrix((data, np.array(indices, dtype=np.int32), np.array(indptr)),
                             shape=(n, n))


def _injected(sp, full, grade):
    """A superoperator whose block(k) is the slice of full from sector k to k + grade,
    messy indices and explicit zeros included."""
    def rule(k):
        sub = full[packed(sp, k + grade)][:, packed(sp, k)]
        return CSR(sub.indptr.astype(np.int32), sub.indices.astype(np.int32),
                      sub.data.astype(np.complex128), sub.shape)

    return SuperOp(sp, grade, rule=rule)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_max=st.integers(1, 3),
       kappa=st.integers(-4, 4),
       grade=st.integers(-2, 2),
       guard=st.integers(0, 3),
       exclude_ws=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), max_size=3),
       floor=st.sampled_from([0.0, 1e-3, 1.0, 10.0]),
       density=st.floats(0.0, 0.5),
       log_scale=st.integers(-3, 3),
       same=st.booleans())
def test_masked_residual_matches_sliced_columns(seed, n_max, kappa, grade, guard, exclude_ws,
                                                floor, density, log_scale, same):
    sp = get_space(n_max, 1.0)
    sec = build_sector(kappa, n_max)
    rng = np.random.default_rng(seed)
    full_l = _messy_csr(rng, sp, grade, density, 10.0 ** log_scale)
    full_r = full_l if same else _messy_csr(rng, sp, grade, density, 10.0 ** log_scale)
    lhs = _injected(sp, full_l, grade)
    rhs = lhs if same else _injected(sp, full_r, grade)
    got = graded_residual(lhs, rhs, sec, guard, tuple(exclude_ws), floor=floor)
    want = _sliced_residual(full_l, full_r, sec, guard, tuple(exclude_ws), floor)
    # the packed window is the per-block window spread over each block; a
    # block is kept when at least guard blocks lie on either side of it and
    # its radius n + 1 + kappa/2 (lam = 1) is no excluded pole
    mask, excluded = sec.guard_window(guard, tuple(exclude_ws))
    keep = sec.block_window(guard, tuple(exclude_ws))
    np.testing.assert_array_equal(mask, keep[sec.block_of])
    assert excluded == [n for n in sec.blocks
                        if any(abs(n + 1 + kappa / 2 - p) < 1e-9 for p in exclude_ws)]
    size = len(sec.blocks)
    assert keep.tolist() == [guard <= pos < size - guard and n not in excluded
                             for pos, n in enumerate(sec.blocks)]
    if want is None:
        assert got is None
        return
    assert got is not None and got[1] == want[1]
    if np.isinf(want[0]):
        assert got[0] == want[0]
    else:
        assert abs(got[0] - want[0]) <= 1e-15 * abs(want[0])


def test_superop_refuses_support_of_another_grade():
    """A block must map sector k into sector k + grade.

    The check reads the block's shape, so it misses a grade whose target
    sector has the same dimension (sectors k and -k do).
    """
    sp = get_space(3, 1.0)
    raising = sp.lmul_adag(1)
    assert SuperOp(sp, 1, rule=raising.raw_block).block(0).shape == raising.block(0).shape
    with pytest.raises(ValueError, match="grade"):
        SuperOp(sp, 0, rule=raising.raw_block).block(0)
    with pytest.raises(ValueError, match="grade"):
        SuperOp(sp, 2, rule=raising.raw_block).block(-1)
    with pytest.raises(ValueError, match="grade"):
        raising + sp.lmul_a(1)


def test_fock_leaves_refuse_another_level_shift():
    """left_mul/right_mul refuse a Fock matrix whose support shifts the level otherwise."""
    sp = get_space(3, 1.0)
    up, down = creator(sp.basis, 1), annihilator(sp.basis, 2)
    assert sp.left_mul(up, drow=1).grade == 1
    assert sp.right_mul(up, dcol=-1).grade == 1
    for bad in (lambda: sp.left_mul(up, drow=0), lambda: sp.left_mul(up, drow=-1),
                lambda: sp.right_mul(up, dcol=1), lambda: sp.left_mul(up + down, drow=1),
                lambda: sp.right_mul(up + down, dcol=1)):
        with pytest.raises(ValueError, match="shift the level"):
            bad()


# ---------------------------------------------------------------------------
# blocks against the eager formula: random words, each built twice, once as
# a lazy superoperator and once from full kron/diags matrices
# ---------------------------------------------------------------------------

def _pair_w(sp):
    """Symmetrized radius eigenvalue of every vec index."""
    row, col = pair_levels(sp)
    return sp.lam * (row + col + 2) / 2.0


def _leaf(data, sp):
    """(superoperator, full matrix, full matrix of absolute values) of one leaf."""
    d = sp.basis.dim
    eye = sparse.identity(d, dtype=np.complex128, format="csr")
    kind = data.draw(st.sampled_from(["la", "lad", "ra", "rad", "radial", "inv_r", "one"]))
    mode = data.draw(st.sampled_from([1, 2]))
    if kind in ("la", "lad", "ra", "rad"):
        ladder = (annihilator if kind in ("la", "ra") else creator)(sp.basis, mode).tocsr()
        prim = {"la": sp.lmul_a, "lad": sp.lmul_adag, "ra": sp.rmul_a, "rad": sp.rmul_adag}
        op = prim[kind](mode)
        full = sparse.kron(ladder, eye) if kind[0] == "l" else sparse.kron(eye, ladder.T)
    elif kind == "radial":
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        shape = (sp.n_max + 1, sp.n_max + 1)
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        table[rng.random(shape) < 0.1] = 0.0
        op, full = sp.radial_values(table), sparse.diags(table[pair_levels(sp)])
    elif kind == "inv_r":
        op, full = sp.radius_inv(), sparse.diags(1.0 / _pair_w(sp))
    else:
        op, full = sp.identity(), sparse.identity(d * d)
    full = sparse.csr_matrix(full, dtype=np.complex128)
    return op, full, abs(full)


def _regrade(sp, word, grade):
    """Left-multiply by a_1 or a+_1 until the word has the given grade."""
    op, full, mag = word
    eye = sparse.identity(sp.basis.dim, dtype=np.complex128, format="csr")
    while op.grade != grade:
        step = sp.lmul_adag if op.grade < grade else sp.lmul_a
        ladder = (creator if op.grade < grade else annihilator)(sp.basis, 1).tocsr()
        k = sparse.kron(ladder, eye, format="csr")
        op, full, mag = step(1) @ op, k @ full, abs(k) @ mag
    return op, full, mag


def _word(data, sp, depth):
    """A random word of primitives, radial multipliers and the identity."""
    if depth == 0 or data.draw(st.booleans()):
        return _leaf(data, sp)
    kind = data.draw(st.sampled_from(["matmul", "add", "sub", "scale", "plain", "weighted"]))
    a, fa, ma = _word(data, sp, depth - 1)
    if kind in ("matmul", "add", "sub"):
        b, fb, mb = _word(data, sp, depth - 1)
        if kind == "matmul":
            return a @ b, fa @ fb, ma @ mb
        b, fb, mb = _regrade(sp, (b, fb, mb), a.grade)
        if kind == "add":
            return a + b, fa + fb, ma + mb
        return a - b, fa - fb, ma + mb
    if kind == "scale":
        c = complex(data.draw(st.sampled_from([2.0, -0.5, 1j, 0.3 - 1.2j, 0.0])))
        return c * a, c * fa, abs(c) * ma
    if kind == "plain":
        return a.plain_adjoint(), fa.conj().T.tocsr(), ma.T.tocsr()
    w = sparse.diags(_pair_w(sp).astype(np.complex128))
    winv = sparse.diags((1.0 / _pair_w(sp)).astype(np.complex128))
    return a.weighted_adjoint(), winv @ fa.conj().T @ w, abs(winv) @ ma.T @ abs(w)


def _fro(mat):
    return float(np.sqrt(np.sum(np.abs(mat.data) ** 2)))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n_max=st.integers(1, 4), lam=st.sampled_from([1.0, 0.5, 3.0]))
def test_blocks_match_the_eager_formula(data, n_max, lam):
    sp = get_space(n_max, lam)
    op, full, mag = _word(data, sp, depth=3)
    scale = max(1.0, _fro(mag))

    # every block, assembled, is the eager full matrix
    assert _fro(to_csr(op) - full) <= 1e-15 * scale

    # applying a block is multiplying by the full matrix
    kappa = data.draw(st.integers(-n_max, n_max))
    sec = build_sector(kappa, n_max, lam)
    psi = SectorVector.random(sec, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    got = apply_superop(op, psi)
    assert got.sector.kappa == kappa + op.grade
    want = full @ to_matrix(psi).reshape(-1)
    bound = np.linalg.norm(mag @ np.abs(to_matrix(psi).reshape(-1)))
    assert np.linalg.norm(to_matrix(got).reshape(-1) - want) <= 1e-14 * max(1.0, bound)

    # the weighted adjoint is an involution
    twice = op.weighted_adjoint().weighted_adjoint()
    assert twice.grade == op.grade
    assert _fro(to_csr(twice) - to_csr(op)) <= 1e-15 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 6), n=st.integers(0, 6))
def test_window_inner_is_the_masked_elementwise_sum(seed, m, n):
    """window_inner(a, b, mask) is scipy's (a[:, mask].conj().multiply(b[:, mask])).sum()
    on real, imaginary and complex blocks."""
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < 0.6
    mats = [sparse.random(m, n, density=0.5, format="coo", random_state=rng) * unit
            for unit in (1.0, 1j, 0.5 - 2j)]
    for a in mats:
        for b in mats:
            want = (a.tocsr()[:, mask].conj().multiply(b.tocsr()[:, mask])).sum()
            got = window_inner(*(CSR.from_coo(x.row, x.col, x.data, x.shape) for x in (a, b)),
                               mask)
            assert np.isclose(got, want, rtol=1e-13, atol=0), (got, want)


_ENTRY = st.floats(-1e160, 1e160, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(0, 6), n=st.integers(0, 6), data=st.data())
def test_window_norm_equals_the_abs_square_formula(m, n, data):
    """_window_norm gives, by repr, sqrt(sum(abs(x) ** 2)) over the window's
    stored entries, on real, imaginary and complex blocks, for any mask and
    an empty window, overflow included."""
    re = data.draw(arrays(np.float64, (m, n), elements=_ENTRY))
    im = data.draw(arrays(np.float64, (m, n), elements=_ENTRY))
    mask = data.draw(arrays(np.bool_, n))
    for dense in (re, 1j * re, re + 1j * im):
        rows, cols = np.nonzero(dense)
        mat = CSR.from_coo(rows, cols, dense[rows, cols], (m, n))
        for in_window in (mask, np.zeros(n, dtype=bool)):
            with np.errstate(over="ignore"):
                want = float(np.sqrt(np.sum(np.abs(mat.data[in_window[mat.indices]]) ** 2)))
                got = _window_norm(mat, in_window)
            assert repr(got) == repr(want)


def _gram_from_inner_products(ctx, sector, guard):
    """The sector-gram residual of full-length basis vectors paired by
    inner_product, as the check computed it before pairing on the sample."""
    picked = set()
    for pos in np.flatnonzero(sector.block_window(guard)):
        lo, hi = int(sector.block_offsets[pos]), int(sector.block_offsets[pos + 1])
        picked.update({lo, (lo + hi) // 2, hi - 1})
    sample = sorted(picked)
    vecs = [SectorVector.basis_element(sector, i) for i in sample]
    gram = np.array([[inner_product(u, v) for v in vecs] for u in vecs])
    expected = np.diag(4.0 * np.pi * ctx.lam**2 * sector.packed_weights()[sample])
    rel = float(np.linalg.norm(gram - expected) / np.linalg.norm(expected))
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return max(rel, max(0.0, -float(eigs.min()) / float(eigs.max())))


@pytest.mark.parametrize("n_max, lam", [(1, 1.0), (5, 0.7), (12, 3.0)])
def test_sector_gram_equals_the_inner_product_gram(n_max, lam):
    """Pairing on the sample's support gives the residual of the full
    pairings exactly: 0.0 on every sector and guard."""
    rec, ctx = BY_ID["sector-gram"], get_context(n_max, lam)
    for kappa in range(-4, 5):
        for guard in (0, 1, 2):
            out = rec.evaluate(ctx, kappa, guard)
            if out is not None:
                assert out[0] == _gram_from_inner_products(ctx, ctx.sector(kappa), guard) == 0.0


def test_sector_gram_fails_on_a_negative_weight(monkeypatch):
    """The check reads the sector's weights: one negative weight in the
    sample makes the Gram matrix indefinite, and the row fails."""
    rec, ctx = BY_ID["sector-gram"], get_context(6, 1.0)
    sector = ctx.sector(2)
    bad = sector.packed_weights().copy()
    bad[int(sector.block_offsets[3])] *= -1.0  # first entry of the fourth block, sampled
    monkeypatch.setattr(MonopoleSector, "packed_weights", lambda self: bad)
    residual, _ = rec.evaluate(ctx, 2, rec.guard)
    assert residual > 0.1 > rec.tol
