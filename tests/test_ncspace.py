import numpy as np
import pytest

from dense import coords_residuals, fock_residuals, level_slice
from fuzzymono.fock import build_basis
from fuzzymono.ncspace import PAULI, build_coordinates, verify_coordinate_algebra
from fuzzymono.verify.registry import BY_ID, get_context


@pytest.fixture(scope="module")
def nc():
    return build_coordinates(build_basis(10), lam=1.0)


def test_lambda_must_be_positive():
    basis = build_basis(2)
    with pytest.raises(ValueError):
        build_coordinates(basis, 0.0)
    with pytest.raises(ValueError):
        build_coordinates(basis, -1.5)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_lambda_must_be_finite(lam):
    with pytest.raises(ValueError, match="lam must be a positive finite number"):
        build_coordinates(build_basis(2), lam)


def test_pauli_algebra():
    for k in range(3):
        np.testing.assert_array_equal(PAULI[k], PAULI[k].conj().T)
    np.testing.assert_allclose(PAULI[0] @ PAULI[1], 1j * PAULI[2], atol=0)


def test_vacuum_block():
    basis = build_basis(3)
    nc = build_coordinates(basis, lam=0.7)
    i0 = basis.index[(0, 0)]
    for k in range(3):
        assert abs(nc.x[k].tocsr().toarray()[i0, i0]) == 0.0
    assert nc.r.tocsr().toarray()[i0, i0] == pytest.approx(0.7)


def test_x3_on_level_one():
    basis = build_basis(2)
    lam = 1.3
    nc = build_coordinates(basis, lam)
    block = level_slice(basis, 1)
    x3 = nc.x[2].tocsr().toarray()[block, block]
    np.testing.assert_allclose(x3, np.diag([lam, -lam]), atol=1e-15)


def test_coordinates_hermitian(nc):
    for k in range(3):
        xk = nc.x[k].tocsr().toarray()
        np.testing.assert_allclose(xk, xk.conj().T, atol=0)


def test_defining_relations(nc):
    res = verify_coordinate_algebra(nc)
    assert res["coord-comm"] <= 1e-13
    assert res["coord-radius-comm"] == 0.0  # level-diagonal, exactly zero
    assert res["coord-radius-square"] <= 1e-13


def test_radius_eigenvalue_scaling():
    basis = build_basis(5)
    nc = build_coordinates(basis, lam=2.0)
    block = level_slice(basis, 3)
    np.testing.assert_allclose(nc.r.tocsr().toarray()[block, block], 8.0 * np.eye(4), atol=0)


def test_x_squared_spectrum(nc):
    """x^2 on level n has the single eigenvalue lam^2 * n * (n+2)."""
    x2 = (nc.x[0] @ nc.x[0] + nc.x[1] @ nc.x[1] + nc.x[2] @ nc.x[2]).tocsr().toarray()
    basis = build_basis(10)
    for n in range(11):
        block = level_slice(basis, n)
        eigs = np.linalg.eigvalsh(x2[block, block])
        np.testing.assert_allclose(eigs, n * (n + 2.0), atol=1e-12 * max(1, n * n))


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n_max", [0, 1, 5, 12, 20])
def test_fock_and_coords_residuals_equal_the_scipy_reference(n_max, lam):
    """The six matrix-level checks, computed on the engine's CSR type, give
    bit for bit the residuals of the same checks on scipy.sparse matrices."""
    ctx = get_context(n_max, lam)
    basis = ctx.space.basis
    want = {**fock_residuals(basis, BY_ID["ladder-canonical"].guard),
            **coords_residuals(basis, lam)}
    for rid, residual in want.items():
        rec = BY_ID[rid]
        out = rec.evaluate(ctx, None, rec.guard)
        got = None if out is None else out[0]
        assert repr(got) == repr(residual), (rid, got, residual)
