import itertools

import numpy as np
import pytest

from dense import (RF_INV_R_MINUS_2L, basis_vector, lower_word, measured_grades, pair_levels,
                   raise_word, random_vector, to_csr, to_matrix)
from fuzzymono.algebra import (
    RF_INV_R,
    RF_ONE,
    RF_R,
    RF_R2,
    first_difference,
    radial_annihilator,
    second_difference,
    su22_bracket_rhs,
)
from fuzzymono.liouville import commutator
from fuzzymono.sector import apply_superop, graded_residual


def res(ctx, lhs, rhs, kappa, guard, excl=()):
    out = graded_residual(lhs, rhs, ctx.sector(kappa), guard, tuple(excl))
    assert out is not None
    return out[0]


def test_ladder_superop_commutators(ctx9):
    sp = ctx9.space
    ident = sp.identity()
    for al in (1, 2):
        for be in (1, 2):
            delta = 1.0 if al == be else 0.0
            lhs = commutator(sp.lmul_a(al), sp.lmul_adag(be))
            assert res(ctx9, lhs, delta * ident, 0, 1) <= 1e-13
            lhs = commutator(sp.rmul_a(al), sp.rmul_adag(be))
            assert res(ctx9, lhs, -delta * ident, 0, 1) <= 1e-13


def test_left_right_multiplications_commute(ctx9):
    sp = ctx9.space
    for left in (sp.lmul_a(1), sp.lmul_adag(2)):
        for right in (sp.rmul_a(2), sp.rmul_adag(1)):
            assert to_csr(left @ right - right @ left).nnz == 0


def test_canonical_pairing_values(ctx9):
    from fuzzymono.su22 import GAMMA

    sp = ctx9.space
    ident = sp.identity()
    # the twisted pairing is +1 on the right-multiplication block too
    b1 = sp.rmul_a(1)
    twisted = complex(GAMMA[2, 2]) * sp.rmul_adag(1)
    assert res(ctx9, commutator(b1, twisted), 1.0 * ident, 0, 1) <= 1e-13
    a1 = sp.lmul_a(1)
    assert res(ctx9, commutator(a1, sp.lmul_adag(1)), 1.0 * ident, 0, 1) <= 1e-13
    assert res(ctx9, commutator(a1, complex(GAMMA[2, 2]) * sp.rmul_adag(1)),
               0.0 * ident, 0, 1) <= 1e-15
    assert ctx9.alg.canonical_pairing_residual(ctx9.sector(1).window(1)) <= 1e-13


def test_canonical_pairing_skips_an_empty_window():
    """At n_max 2, kappa 2 has the one block n = 0, so the guard-1 window is
    empty: the pairing checks nothing and must say so, as the guard-1 pair
    identities of that sector do."""
    from fuzzymono.verify.registry import BY_ID, get_context

    ctx = get_context(2, 1.0)
    assert not ctx.sector(2).window(1).block_mask.any()
    assert BY_ID["canonical-pairing"].evaluate(ctx, 2, 1) is None
    assert BY_ID["central-ordering"].evaluate(ctx, 2, 1) is None
    # guard 0 keeps that block, the top one, where the truncation breaks the pairing
    assert ctx.alg.canonical_pairing_residual(ctx.sector(2).window(0)) > 1e-3


def test_canonical_pairing_row_is_the_helper(ctx9):
    """The canonical-pairing row, streamed with the other su22 pair
    identities, equals canonical_pairing_residual on its window bit for bit
    (an empty window is skipped)."""
    from fuzzymono.verify.registry import evaluate_batch, records_for_suite

    su22 = [r for r in records_for_suite("su22") if r.pairs is not None]
    at = [r.id for r in su22].index("canonical-pairing")
    checked = 0
    for kappa in range(-4, 5):
        for guard in (0, 1, 2):
            out = evaluate_batch(ctx9, kappa, [(r, guard) for r in su22])[at][0]
            win = ctx9.sector(kappa).window(guard)
            if not win.block_mask.any():
                assert out is None
                continue
            want = ctx9.alg.canonical_pairing_residual(win)
            assert (repr(out[0]), out[1]) == (repr(want), list(win.excluded))
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("kappa", [0, 2, -3])
def test_operator_closure_sampled(ctx9, kappa):
    samples = [((1, 2), (2, 3)), ((0, 4), (4, 5)), ((0, 1), (0, 2)),
               ((1, 5), (2, 5)), ((0, 5), (1, 2)), ((3, 4), (0, 3))]
    for (a, b), (c, d) in samples:
        lhs = commutator(ctx9.alg.generator(a, b), ctx9.alg.generator(c, d))
        rhs = su22_bracket_rhs(ctx9.alg, a, b, c, d)
        assert res(ctx9, lhs, rhs, kappa, 2) <= 1e-12


def test_disjoint_indices_commute_exactly(ctx9):
    lhs = commutator(ctx9.alg.generator(0, 5), ctx9.alg.generator(1, 2))
    assert res(ctx9, lhs, 0.0 * ctx9.space.identity(), 1, 2) <= 1e-14


def test_rotation_subalgebra_closes_without_radial_factors(ctx9):
    """Brackets of the radius-commuting generators stay in their own span,
    with constant coefficients: the u(2)+u(2) block."""
    from fuzzymono.su22 import generator_matrix

    rotations = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (0, 5)]
    basis = np.stack([generator_matrix(a, b).reshape(-1) for a, b in rotations])
    for (a, b), (c, d) in itertools.combinations(rotations, 2):
        s1, s2 = generator_matrix(a, b), generator_matrix(c, d)
        comm = (s1 @ s2 - s2 @ s1).reshape(-1)
        coeff, residual, _, _ = np.linalg.lstsq(basis.T, comm, rcond=None)
        recon = basis.T @ coeff
        assert np.abs(recon - comm).max() <= 1e-14  # closes inside the block
        # and the operator bracket still commutes with the radius
        op = commutator(ctx9.alg.generator(a, b), ctx9.alg.generator(c, d))
        comm_r = commutator(op, ctx9.space.radius_op())
        assert to_csr(comm_r).nnz == 0 or abs(to_csr(comm_r).data).max() <= 1e-14


@pytest.mark.parametrize("kappa", [-2, -1, 0, 1, 2, 3])
def test_central_element_every_basis_element(ctx9, kappa):
    """(C+2) reads the grade exactly, block by block, no guard."""
    sec = ctx9.sector(kappa)
    c2 = ctx9.alg.center() + 2.0 * ctx9.space.identity()
    from fuzzymono.sector import sector_matrix

    mat = sector_matrix(c2, sec, dense=True)
    delta = mat - kappa * np.eye(sec.dim)
    per_element = np.abs(delta).sum(axis=0).max()  # worst column
    assert per_element <= 1e-14


def test_central_ordering_defect(ctx9):
    """The literal ordering disagrees exactly on the top block for kappa <= 0."""
    naive = ctx9.alg.center_naive()
    exact = ctx9.alg.center()
    assert res(ctx9, naive, exact, 0, 1) <= 1e-13  # interior: same operator
    out = graded_residual(naive, exact, ctx9.sector(0), 0)
    assert out is not None and out[0] > 0.1  # top block defect
    assert res(ctx9, naive, exact, 1, 0) <= 1e-13  # kappa >= 1 never sees it


def test_rotations_commute_with_radius(ctx9):
    r = ctx9.space.radius_op()
    for a, b in [(1, 2), (2, 3), (1, 4), (3, 4), (0, 5)]:
        comm = commutator(ctx9.alg.generator(a, b), r)
        assert to_csr(comm).nnz == 0 or abs(to_csr(comm).data).max() <= 1e-15


def test_rotation_annihilates_vacuum_block(ctx9):
    """The spatial rotation combination kills the rotation-invariant state."""
    sec = ctx9.sector(0)
    vac = basis_vector(sec, 0)
    eps = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    for _, (j, k, _i) in zip(range(3), eps):
        out = apply_superop(ctx9.alg.generator(j, k), vac)
        assert np.linalg.norm(out.data) <= 1e-14


def test_radius_generator_relations(ctx9):
    sp = ctx9.space
    lam = ctx9.lam
    assert res(ctx9, sp.radius_op(), lam * ctx9.alg.generator(0, 5), 0, 1) <= 1e-13
    assert res(ctx9, sp.radius_op(), lam * ctx9.alg.generator(0, 5), 2, 0) <= 1e-13
    # composed ordering needs the guard when the top block is admissible
    out = graded_residual(sp.radius_op(), lam * ctx9.alg.generator(0, 5),
                          ctx9.sector(0), 0)
    assert out is not None and out[0] > 0.1


def test_zeta_w_resolved_signs(ctx9):
    r = ctx9.space.radius_op()
    lam = ctx9.lam
    for a in (1, 2, 3, 4):
        w, z = ctx9.alg.w_op(a), ctx9.alg.zeta(a)
        assert res(ctx9, commutator(w, r), lam * z, 0, 1) <= 1e-12
        assert res(ctx9, commutator(z, r), lam * w, 0, 1) <= 1e-12
        # the flipped convention is excluded numerically
        assert res(ctx9, commutator(-1.0 * w, r), lam * z, 0, 1) > 0.5


def test_zeta_w_are_one_sided_words(ctx9):
    for a in (1, 2, 3, 4):
        z_direct = raise_word(ctx9.space, a) + lower_word(ctx9.space, a)
        w_direct = lower_word(ctx9.space, a) - raise_word(ctx9.space, a)
        assert (to_csr(ctx9.alg.zeta(a)) - to_csr(z_direct)).nnz == 0
        assert abs((to_csr(ctx9.alg.w_op(a)) - to_csr(w_direct)).toarray()).max() <= 1e-15


@pytest.mark.parametrize("f", [RF_R, RF_R2, RF_INV_R, RF_ONE])
def test_shift_rules(ctx9, f):
    sp = ctx9.space
    fr = f.to_superop(sp)
    frp = f.shifted(+1).to_superop(sp)
    frm = f.shifted(-1).to_superop(sp)
    excl = (0.0, 1.0)
    for al, be in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        u, ud = ctx9.vel.u(al, be), ctx9.vel.u_dag(al, be)
        for kappa in (0, 1, -2):
            assert res(ctx9, fr @ u, u @ frp, kappa, 1, excl) <= 1e-12
            assert res(ctx9, fr @ ud, ud @ frm, kappa, 1, excl) <= 1e-12


@pytest.mark.parametrize("f", [RF_R, RF_R2, RF_INV_R])
def test_twin_shift_commutators(ctx9, f):
    sp, lam = ctx9.space, ctx9.lam
    dd = second_difference(f).to_superop(sp)
    d1 = first_difference(f).to_superop(sp)
    fop = f.to_superop(sp)
    excl = (0.0, 1.0, 2.0)
    for kappa in (0, 1):
        for a in (1, 2, 3, 4):
            w, z = ctx9.alg.w_op(a), ctx9.alg.zeta(a)
            assert res(ctx9, commutator(w, fop),
                       0.5 * (dd @ w) + lam * (d1 @ z), kappa, 1, excl) <= 1e-11
            assert res(ctx9, commutator(z, fop),
                       0.5 * (dd @ z) + lam * (d1 @ w), kappa, 1, excl) <= 1e-11


def test_twin_commutator_reports_pole_blocks(ctx9):
    fop = RF_INV_R.to_superop(ctx9.space)
    w = ctx9.alg.w_op(1)
    dd = second_difference(RF_INV_R).to_superop(ctx9.space)
    d1 = first_difference(RF_INV_R).to_superop(ctx9.space)
    rhs = 0.5 * (dd @ w) + ctx9.lam * (d1 @ ctx9.alg.zeta(1))
    out = graded_residual(commutator(w, fop), rhs, ctx9.sector(0), 1, (0.0, 1.0, 2.0))
    assert out is not None
    _, excluded = out
    assert excluded == [0, 1]  # radii lam and 2*lam


def test_radial_annihilator_kills_inverse_radius(ctx9):
    d_inv = radial_annihilator(RF_INV_R)
    for kappa in (0, 1, -2, 3):
        sec = ctx9.sector(kappa)
        w = sec.r_hat_eigen
        keep = np.abs(w / ctx9.lam - 1.0) > 1e-9
        vals = d_inv.fn(w[keep], ctx9.lam)
        assert np.abs(vals).max() <= 1e-14


def test_radial_multiplier_eigenvalue_oracle(ctx9):
    """f = identity on the (kappa=0, n=2) block acts as 3*lam."""
    sec = ctx9.sector(0)
    pos = sec.blocks.index(2)
    i = int(sec.block_offsets[pos])
    psi = basis_vector(sec, i)
    out = apply_superop(ctx9.space.radius_op(), psi)
    np.testing.assert_allclose(out.data, 3.0 * ctx9.lam * psi.data, atol=1e-14)


def test_inverse_radius_defined_everywhere(ctx9):
    for kappa in range(-4, 5):
        sec = ctx9.sector(kappa)
        assert (sec.r_hat_eigen > 0).all()
        _, excluded = sec.guard_window(0, RF_INV_R.poles)
        assert excluded == []


def test_pole_scan_excludes_resonant_block(ctx9):
    sec = ctx9.sector(0)
    _, excluded = sec.guard_window(0, RF_INV_R_MINUS_2L.poles)
    assert excluded == [1]  # r = 2*lam sits exactly on the n=1 block


def test_pole_zeroing_in_multiplier(ctx9):
    op = RF_INV_R_MINUS_2L.to_superop(ctx9.space)
    diag = to_csr(op).diagonal()
    row, col = pair_levels(ctx9.space)
    on_pole = np.abs((row + col + 2) / 2.0 - 2.0) < 1e-9
    assert np.all(diag[on_pole] == 0)
    assert np.all(np.isfinite(diag))


def test_master_pair_commutator_f_one(ctx9):
    """With no radial dressing the pair commutator closes on rotations alone."""
    lam = ctx9.lam
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for k in range(3):
        lhs = None
        rhs = None
        for i in range(3):
            for j in range(3):
                if eps[i, j, k]:
                    t = eps[i, j, k] * commutator(ctx9.alg.w_op(i + 1), ctx9.alg.w_op(j + 1))
                    lhs = t if lhs is None else lhs + t
                    s = eps[i, j, k] * 4j * ctx9.alg.generator(i + 1, j + 1)
                    rhs = s if rhs is None else rhs + s
        assert res(ctx9, lhs, rhs, 1, 2) <= 1e-12


def test_boosts_not_weighted_hermitian(ctx9):
    rotations = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (0, 5)]
    boosts = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)]
    for kappa in (0, 2):
        for a, b in rotations:
            g = ctx9.alg.generator(a, b)
            assert res(ctx9, g, g.weighted_adjoint(), kappa, 1) <= 1e-12
        for a, b in boosts:
            g = ctx9.alg.generator(a, b)
            assert res(ctx9, g, g.weighted_adjoint(), kappa, 1) > 1e-3


def _col_shifts(op) -> set[int]:
    """Column-level shifts present in the sparse support of op."""
    coo = to_csr(op).tocoo()
    _, lc = pair_levels(op.space)
    return set((lc[coo.row] - lc[coo.col]).tolist())


def test_shift_bookkeeping_matches_support(ctx9):
    sp = ctx9.space
    cases = [
        (sp.lmul_adag(1), {1}, {0}),
        (sp.rmul_a(2), {-1}, {1}),
        (raise_word(ctx9.space, 2), {0}, {1}),
        (lower_word(ctx9.space, 4), {0}, {-1}),
        (ctx9.vel.u(1, 1), {0}, {1}),
        (ctx9.alg.generator(1, 2), {0}, {0}),
    ]
    for op, grades, shifts in cases:
        assert measured_grades(op) <= grades
        assert _col_shifts(op) <= shifts
        assert op.grade in grades or not measured_grades(op)
    mixed = ctx9.alg.generator(0, 1)  # sum of raising and lowering words
    assert _col_shifts(mixed) == {-1, 1}
    assert mixed.grade == 0


def test_grade_mismatch_rejected(ctx9):
    sp = ctx9.space
    with pytest.raises(ValueError):
        _ = sp.lmul_a(1) + sp.lmul_adag(1)


def test_linear_combination_is_the_pairwise_fold(ctx9):
    """Bit for bit the + fold, also of a sum started from the zero operator,
    for superoperator, CSR-matrix, 4x4-array and scalar terms; an empty sum
    is its zero, and an error without one."""
    from fuzzymono.ncspace import PAULI, linear_combination

    sp = ctx9.space
    terms = [(1 - 2j) * (sp.lmul_adag(1) @ sp.rmul_a(2)), sp.lmul_adag(2) @ sp.rmul_a(1),
             0.5j * (sp.lmul_adag(1) @ sp.rmul_a(1))]
    got = linear_combination(iter(terms))
    for expected in (terms[0] + terms[1] + terms[2],
                     0.0 * sp.identity() + terms[0] + terms[1] + terms[2]):
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(to_csr(got), attr),
                                          getattr(to_csr(expected), attr))
    assert linear_combination([terms[1]]) is terms[1]
    zero = 0.0 * sp.identity()
    assert linear_combination([], zero) is zero
    assert to_csr(zero).count_nonzero() == 0
    with pytest.raises(ValueError, match="needs a zero"):
        linear_combination([])
    with pytest.raises(ValueError):
        linear_combination([terms[0], sp.lmul_a(1)])

    mats = [(0.25 - 1j) * (sp.adag[0] @ sp.a[1]), sp.adag[1] @ sp.a[0],
            3.0 * (sp.a[0] @ sp.adag[0])]
    got = linear_combination(mats)
    want = mats[0] + mats[1] + mats[2]
    assert got.phase == want.phase
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    blocks = [PAULI[0], 1j * PAULI[1], PAULI[2] @ PAULI[0]]
    np.testing.assert_array_equal(linear_combination(blocks), blocks[0] + blocks[1] + blocks[2])
    assert linear_combination([1, 2.5j, -3.0]) == 1 + 2.5j - 3.0
    assert linear_combination((), 0.0) == 0.0
    for empty in ((), iter([])):
        with pytest.raises(ValueError):
            linear_combination(empty)


def test_contract_is_the_hand_fold():
    """contract gives, block for block, the indptr, indices, data and phase
    of the 1-based fold c * term(i + 1, ...) it replaces, scaled tensors
    included; on CSR matrices, 4x4 arrays and scalars it gives the hand
    sum, and on an all-zero tensor its zero."""
    from fuzzymono.csr import CSR
    from fuzzymono.ncspace import (EPS3, PAULI, contract, levi_civita, linear_combination,
                                   nonzero_entries)
    from fuzzymono.su22 import GAMMA
    from fuzzymono.verify.registry import get_context

    ctx = get_context(4, 1.0)
    sp, alg, vel = ctx.space, ctx.alg, ctx.vel
    eps4 = levi_civita(4)
    sigma_sigma = np.multiply.outer(PAULI[0], np.conj(PAULI[2]))
    cases = [
        (contract(PAULI[1], lambda al, be: sp.lmul_adag(al) @ sp.rmul_a(be)),
         linear_combination(complex(c) * (sp.lmul_adag(al + 1) @ sp.rmul_a(be + 1))
                            for (al, be), c in nonzero_entries(PAULI[1]))),
        (contract(EPS3[:, :, 2], lambda i, j: commutator(alg.generator(0, i),
                                                         alg.generator(0, j))),
         linear_combination(e * commutator(alg.generator(0, i + 1), alg.generator(0, j + 1))
                            for (i, j), e in nonzero_entries(EPS3[:, :, 2]))),
        (contract(0.5 * np.triu(eps4[0, 3], 1), lambda c, d: alg.generator(c, d)),
         linear_combination(2.0 * e * 0.25 * alg.generator(c + 1, d + 1)
                            for (c, d), e in nonzero_entries(eps4[0, 3]) if c < d)),
        (contract(sigma_sigma, lambda al, be, ga, de: commutator(vel.u(al, be),
                                                                 vel.u_dag(ga, de))),
         linear_combination(complex(c) * commutator(vel.u(al + 1, be + 1),
                                                    vel.u_dag(ga + 1, de + 1))
                            for (al, be, ga, de), c in nonzero_entries(sigma_sigma))),
    ]
    for got, want in cases:
        assert got.grade == want.grade
        for k in range(-4, 5):
            g, w = got.raw_block(k), want.raw_block(k)
            assert g.phase == w.phase and g.data.dtype == w.data.dtype
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(g, attr), getattr(w, attr))

    a, adag = sp.a, sp.adag
    got = contract(PAULI[1], lambda al, be: adag[al - 1] @ a[be - 1])
    want = (adag[0] @ a[1]).scale(-1j) + (adag[1] @ a[0]).scale(1j)
    assert isinstance(got, CSR) and got.phase == want.phase
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    np.testing.assert_array_equal(contract(GAMMA[2], lambda c: PAULI[c - 2]),
                                  -PAULI[1])
    np.testing.assert_array_equal(contract(EPS3[0], lambda j, k: PAULI[j - 1] @ PAULI[k - 1]),
                                  PAULI[1] @ PAULI[2] - PAULI[2] @ PAULI[1])
    assert contract(EPS3[:, :, 0], lambda i, j: 10 * i + j) == 23 - 32
    zero = np.zeros((4, 4))
    assert contract(EPS3[0, 0], lambda k: np.eye(4), zero) is zero
    with pytest.raises(ValueError):
        contract(EPS3[0, 0], lambda k: np.eye(4))


def test_word_actions(ctx9, rng):
    """Left words apply in order; right words reverse composition order."""
    from fuzzymono.algebra import left_action, right_action
    from fuzzymono.fock import annihilator, creator
    from fuzzymono.sector import apply_superop, build_sector

    sp = ctx9.space
    word = [(1, "create"), (2, "annihilate"), (1, "annihilate")]
    a1 = annihilator(sp.basis, 1).tocsr().toarray()
    a2 = annihilator(sp.basis, 2).tocsr().toarray()
    ad1 = creator(sp.basis, 1).tocsr().toarray()
    word_matrix = ad1 @ a2 @ a1

    sec = build_sector(0, sp.n_max, sp.lam)
    psi = random_vector(sec, rng)
    mat = to_matrix(psi)

    left = apply_superop(left_action(sp, word), psi)
    np.testing.assert_allclose(to_matrix(left), word_matrix @ mat, atol=1e-12)
    assert left.sector.kappa == -1

    right = apply_superop(right_action(sp, word), psi)
    np.testing.assert_allclose(to_matrix(right), mat @ word_matrix, atol=1e-12)
    assert right.sector.kappa == -1

    # level shift equals creations minus annihilations on the acting side
    assert left_action(sp, word).grade == -1
    assert _col_shifts(right_action(sp, word)) == {1}

    with pytest.raises(ValueError):
        left_action(sp, [(1, "lower")])

    # pure left words commute with pure right words exactly
    lw = left_action(sp, [(2, "create"), (1, "annihilate")])
    rw = right_action(sp, [(1, "create"), (1, "annihilate")])
    assert to_csr(lw @ rw - rw @ lw).nnz == 0
