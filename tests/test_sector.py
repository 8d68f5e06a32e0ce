import numpy as np
import pytest

from fuzzymono.fock import build_basis
from fuzzymono.liouville import get_space
from fuzzymono.sector import (
    SectorVector,
    apply_superop,
    build_sector,
    inner_product,
    sector_matrix,
    weighted_adjoint,
)


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


def test_known_dimensions():
    assert build_sector(0, 1).dim == 5
    assert build_sector(0, 1).blocks == (0, 1)
    assert build_sector(1, 2).dim == 8
    assert build_sector(1, 2).blocks == (0, 1)


def test_empty_sector_flagged():
    sec = build_sector(5, 3)
    assert sec.is_empty
    assert sec.dim == 0
    assert sec.blocks == ()


def test_monopole_charge_value():
    assert build_sector(3, 5).mu == -1.5
    assert build_sector(-4, 6).mu == 2.0


def test_radius_eigenvalues_against_direct_symmetrization():
    """Oracle: apply (r Psi + Psi r)/2 built from left/right multiplication."""
    from scipy import sparse

    for kappa, lam in [(0, 1.0), (1, 0.5), (-2, 2.0)]:
        n_max = 6
        sec = build_sector(kappa, n_max, lam)
        sp = sec.space
        r_mat = lam * sparse.diags((sp.level + 1).astype(np.complex128)).tocsr()
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
            vals = sec.space.grading_twist(tau).mat.diagonal()[sec.packed]
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
    again = SectorVector.from_matrix(sec, v.to_matrix())
    np.testing.assert_allclose(again.data, v.data, atol=0)
    # the dense matrix is supported exactly on the graded entries
    mat = v.to_matrix()
    levels = sec.space.level
    for r in range(sec.space.dim):
        for c in range(sec.space.dim):
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

    direct = creator(sp.basis, 1).toarray() @ psi.to_matrix()
    np.testing.assert_allclose(out.to_matrix(), direct, atol=1e-14)


def test_weighted_adjoint_properties(rng):
    sp = get_space(6, 1.0)
    sec = build_sector(1, 6)
    # adjoint of the radius is the radius
    r = sp.radius_op()
    assert (r.weighted_adjoint().mat - r.mat).nnz == 0
    # involution on a composite
    op = sp.lmul_adag(1) @ sp.rmul_a(2) + 0.3j * sp.radius_inv()
    delta = op.weighted_adjoint().weighted_adjoint().mat - op.mat
    assert abs(delta.toarray()).max() <= 1e-14
    # defining property against the weighted inner product, on random vectors
    op2 = sp.radius_inv() @ (sp.lmul_adag(1) @ sp.rmul_a(1))
    adj = weighted_adjoint(op2)
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
            packed = mat @ v.data
            scale = max(1.0, np.linalg.norm(packed))
            assert np.linalg.norm(direct.data - packed) / scale <= 1e-13
            assert direct.sector.kappa == out_sec.kappa
