import numpy as np
import pytest

from dense import level_slice
from fuzzymono.fock import (
    annihilator,
    build_basis,
    check_n_max,
    creator,
    interior_projector,
    ladder,
    number_operator,
)


def brute_states(n_max):
    """Independent enumeration oracle for the truncated two-mode basis."""
    return {(n1, n2) for n1 in range(n_max + 1) for n2 in range(n_max + 1)
            if n1 + n2 <= n_max}


@pytest.mark.parametrize("n_max", [0, 1, 5, 12, 20])
def test_dimension_matches_brute_force(n_max):
    basis = build_basis(n_max)
    assert set(basis.states) == brute_states(n_max)
    assert basis.dim == (n_max + 1) * (n_max + 2) // 2


def test_known_dimensions():
    assert build_basis(0).dim == 1
    assert build_basis(0).states == ((0, 0),)
    assert build_basis(1).dim == 3
    assert build_basis(1).states == ((0, 0), (1, 0), (0, 1))
    assert build_basis(20).dim == 231


def test_level_major_ordering():
    basis = build_basis(6)
    levels = basis.levels
    assert (np.diff(levels) >= 0).all()  # level-major
    for n in range(7):
        block = level_slice(basis, n)
        assert block.stop - block.start == n + 1
        assert all(sum(basis.states[i]) == n for i in range(block.start, block.stop))
        # first mode decreasing within a level
        firsts = [basis.states[i][0] for i in range(block.start, block.stop)]
        assert firsts == list(range(n, -1, -1))


def test_negative_n_max_rejected():
    with pytest.raises(ValueError):
        build_basis(-1)


def test_an_n_max_past_the_index_limit_is_refused_before_any_state():
    """n_max 65534 is the largest whose dimension (n+1)(n+2)/2 fits int32
    indices; a larger one is refused at once, naming the limit."""
    check_n_max(65534)
    for n_max in (65535, 99999999999999999999):
        with pytest.raises(ValueError, match="int32 index limit 2147483647"):
            build_basis(n_max)


def test_ladder_matrix_elements():
    basis = build_basis(4)
    a1 = annihilator(basis, 1)
    ad2 = creator(basis, 2)
    # a_1 |1,0> = |0,0>
    col = basis.index[(1, 0)]
    vec = np.zeros(basis.dim)
    vec[col] = 1.0
    out = a1.tocsr() @ vec
    expected = np.zeros(basis.dim)
    expected[basis.index[(0, 0)]] = 1.0
    np.testing.assert_allclose(out, expected, atol=0)
    # a+_2 |0,1> = sqrt(2) |0,2>
    vec = np.zeros(basis.dim)
    vec[basis.index[(0, 1)]] = 1.0
    out = ad2.tocsr() @ vec
    expected = np.zeros(basis.dim)
    expected[basis.index[(0, 2)]] = np.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=0)


def test_ladder_validation():
    basis = build_basis(2)
    with pytest.raises(ValueError):
        ladder(basis, 3, "annihilate")
    with pytest.raises(ValueError):
        ladder(basis, 1, "lower")


def test_creation_truncated_to_zero():
    basis = build_basis(3)
    ad1 = creator(basis, 1).tocsr().toarray()
    for n1, n2 in basis.states:
        if n1 + n2 == 3:
            col = basis.index[(n1, n2)]
            assert np.all(ad1[:, col] == 0)


def test_creator_is_plain_adjoint():
    basis = build_basis(7)
    for mode in (1, 2):
        a = annihilator(basis, mode).tocsr().toarray()
        ad = creator(basis, mode).tocsr().toarray()
        np.testing.assert_array_equal(ad, a.conj().T)


def test_like_ladders_commute_exactly():
    basis = build_basis(6)
    ops = [annihilator(basis, 1), annihilator(basis, 2)]
    dags = [creator(basis, 1), creator(basis, 2)]
    for fam in (ops, dags):
        for x in fam:
            for y in fam:
                assert (x @ y - y @ x).nnz == 0


def test_canonical_commutator_on_interior():
    basis = build_basis(8)
    proj = interior_projector(basis, 1)
    eye = np.eye(basis.dim)
    for i, mode_i in enumerate((1, 2)):
        for j, mode_j in enumerate((1, 2)):
            a = annihilator(basis, mode_i)
            ad = creator(basis, mode_j)
            comm = (a @ ad - ad @ a).tocsr().toarray()
            delta = (comm - (1.0 if i == j else 0.0) * eye) @ proj.tocsr().toarray()
            assert np.abs(delta).max() <= 1e-13


def test_number_operator_diagonal():
    basis = build_basis(6)
    total = (creator(basis, 1) @ annihilator(basis, 1)
             + creator(basis, 2) @ annihilator(basis, 2)).tocsr().toarray()
    np.testing.assert_allclose(total, number_operator(basis).tocsr().toarray(), atol=1e-13)
    np.testing.assert_allclose(np.diag(total).real, basis.levels, atol=1e-13)


def test_interior_projector_ranks():
    basis = build_basis(2)
    assert np.allclose(interior_projector(basis, 0).tocsr().toarray(), np.eye(basis.dim))
    assert interior_projector(basis, 1).diagonal().sum() == 3  # levels 0,1

    basis12 = build_basis(12)
    proj = interior_projector(basis12, 4)
    rank_oracle = sum(n + 1 for n in range(0, 12 - 4 + 1))
    assert rank_oracle == 45
    assert int(proj.diagonal().sum().real) == rank_oracle

    # guard beyond the truncation: empty but valid
    assert interior_projector(basis, 5).nnz == 0
    with pytest.raises(ValueError):
        interior_projector(basis, -1)
