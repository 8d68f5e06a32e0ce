import sys

import numpy as np
import pytest

from dense import coords_residuals, fock_residuals, level_slice
from fuzzymono import fock, liouville
from fuzzymono.fock import build_basis
from fuzzymono.liouville import Space
from fuzzymono.ncspace import PAULI, build_coordinates, verify_coordinate_algebra
from fuzzymono.verify import registry
from fuzzymono.verify.registry import BY_ID, get_context
from fuzzymono.verify.runner import RunConfig, run_suite


@pytest.fixture(scope="module")
def nc():
    return build_coordinates(Space(10, 1.0))


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        build_coordinates(Space(2, 0.0))
    with pytest.raises(ValueError):
        build_coordinates(Space(2, -1.5))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_lambda_must_be_finite(lam):
    with pytest.raises(ValueError, match="lam must be a positive finite number"):
        build_coordinates(Space(2, lam))


def test_pauli_algebra():
    for k in range(3):
        np.testing.assert_array_equal(PAULI[k], PAULI[k].conj().T)
    np.testing.assert_allclose(PAULI[0] @ PAULI[1], 1j * PAULI[2], atol=0)


def test_vacuum_block():
    sp = Space(3, 0.7)
    nc = build_coordinates(sp)
    i0 = sp.basis.index[(0, 0)]
    for k in range(3):
        assert abs(nc.x[k].tocsr().toarray()[i0, i0]) == 0.0
    assert nc.r.tocsr().toarray()[i0, i0] == pytest.approx(0.7)


def test_x3_on_level_one():
    lam = 1.3
    nc = build_coordinates(Space(2, lam))
    block = level_slice(build_basis(2), 1)
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
    nc = build_coordinates(Space(5, 2.0))
    block = level_slice(build_basis(5), 3)
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


def test_the_fock_and_coords_suites_read_the_ladder_matrices_of_the_space(monkeypatch):
    """Once a Space is built, no fuzzymono module builds a ladder matrix
    again: the fock checks and the coordinates read space.a and space.adag,
    the matrices that the engine's fock leaves are made from."""
    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})  # no coordinates cached yet
    get_context(6, 1.0)

    def refused(*args):
        raise AssertionError("a ladder matrix was built again")

    builders = {name: getattr(fock, name) for name in ("annihilator", "creator")}
    for mod in [m for name, m in sys.modules.items() if name.startswith("fuzzymono")]:
        for name, fn in builders.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, refused)
    for suite, rows in (("fock", 3), ("coords", 3)):
        report = run_suite(RunConfig(suite=suite, n_max=6, jobs=1))
        assert len(report.results) == rows and report.all_passed, suite
