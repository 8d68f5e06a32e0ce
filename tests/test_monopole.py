import itertools

import numpy as np
import pytest

from dense import lower_word, packed, raise_word, to_csr
from fuzzymono.algebra import RF_MONOPOLE
from fuzzymono.liouville import anticommutator, commutator
from fuzzymono.monopole import (
    FLOW_SIGNS,
    build_field_strength,
    charge_fit,
    monopole_profile_op,
    rotation_flow_residual,
)
from fuzzymono.ncspace import PAULI
from fuzzymono.sector import graded_residual
from fuzzymono.verify.registry import EPS3


def res(ctx, lhs, rhs, kappa, guard, excl=()):
    out = graded_residual(lhs, rhs, ctx.sector(kappa), guard, tuple(excl))
    assert out is not None
    return out[0]


# -- weighted Hermitian structure ------------------------------------------


@pytest.mark.parametrize("kappa", [0, 1, -2])
def test_u_dagger_is_weighted_adjoint(ctx9, kappa):
    for al, be in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        u = ctx9.vel.u(al, be)
        ud = ctx9.vel.u_dag(al, be)
        assert res(ctx9, ud, u.weighted_adjoint(), kappa, 1) <= 1e-12


@pytest.mark.parametrize("kappa", [0, 1, -2])
def test_velocities_weighted_selfadjoint(ctx9, kappa):
    for a in (1, 2, 3, 4):
        v = ctx9.vel.velocity(a)
        vt = ctx9.vel.dual_velocity(a)
        assert res(ctx9, v, v.weighted_adjoint(), kappa, 1) <= 1e-12
        assert res(ctx9, vt, vt.weighted_adjoint(), kappa, 1) <= 1e-12


def test_velocity_generator_map_and_factor(ctx9):
    """V_a = (1/r) S_0a with unit factor; the dual 4-slot is S_54."""
    rinv = ctx9.space.radius_inv()
    for a in (1, 2, 3, 4):
        v = ctx9.vel.velocity(a)
        assert res(ctx9, v, rinv @ ctx9.alg.generator(0, a), 1, 1) <= 1e-13
        assert res(ctx9, v, 2.0 * (rinv @ ctx9.alg.generator(0, a)), 1, 1) > 0.3
    for k in (1, 2, 3):
        assert res(ctx9, ctx9.vel.dual_velocity(k),
                   rinv @ ctx9.alg.generator(k, 5), 1, 1) <= 1e-13
    assert res(ctx9, ctx9.vel.dual_velocity(4),
               rinv @ ctx9.alg.generator(5, 4), 1, 1) <= 1e-13
    assert res(ctx9, ctx9.vel.dual_velocity(4),
               rinv @ ctx9.alg.generator(4, 5), 1, 1) > 1.0


def test_v4_reconstruction_from_words(ctx9):
    rinv = ctx9.space.radius_inv()
    v4_direct = 0.5 * (rinv @ (raise_word(ctx9.space, 4) + lower_word(ctx9.space, 4)))
    assert res(ctx9, ctx9.vel.velocity(4), v4_direct, 0, 1) <= 1e-13
    u_route = 0.5 * (ctx9.vel.trace_u() + ctx9.vel.trace_u_dag())
    assert res(ctx9, ctx9.vel.velocity(4), u_route, 0, 1) <= 1e-13


# -- bi-spinor exchange structure ------------------------------------------


@pytest.mark.parametrize("kappa", [0, 1, -2])
def test_u_commutators_vanish(ctx9, kappa):
    zero = 0.0 * ctx9.space.identity()
    idx = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for x, y in itertools.combinations(idx, 2):
        assert res(ctx9, commutator(ctx9.vel.u(*x), ctx9.vel.u(*y)), zero, kappa, 2) <= 1e-13
        assert res(ctx9, commutator(ctx9.vel.u_dag(*x), ctx9.vel.u_dag(*y)),
                   zero, kappa, 2) <= 1e-13


def test_bare_word_commutator(ctx9):
    """[a+_a () a_b, () a+_d a_g-type] closes on one-sided number words."""
    sp = ctx9.space
    for al, be, ga, de in itertools.product((1, 2), repeat=4):
        raise_w = sp.lmul_adag(al) @ sp.rmul_a(be)
        lower_w = sp.rmul_adag(de) @ sp.lmul_a(ga)
        rhs = 0.0 * sp.identity()
        if be == de:
            rhs = rhs - (sp.lmul_adag(al) @ sp.lmul_a(ga))
        if ga == al:
            rhs = rhs - (sp.rmul_adag(de) @ sp.rmul_a(be))
        assert res(ctx9, commutator(raise_w, lower_w), rhs, 1, 2) <= 1e-12


def test_closed_commutator_sample(ctx9):
    """All-ones index tuple at kappa = 2, the closed exchange form."""
    sp = ctx9.space
    rinv = sp.radius_inv()
    rinv2 = sp.radial(lambda w: 1.0 / w**2)
    u, ud = ctx9.vel.u(1, 1), ctx9.vel.u_dag(1, 1)
    x = sp.lmul_adag(1) @ sp.lmul_a(1) + sp.rmul_adag(1) @ sp.rmul_a(1)
    rhs = -1.0 * (rinv2 @ x) + ctx9.lam * (rinv @ anticommutator(u, ud))
    assert res(ctx9, commutator(u, ud), rhs, 2, 2) <= 1e-11


@pytest.mark.parametrize("kappa", [0, 1, -2, 3])
def test_q_ordering_all_indices(ctx9, kappa):
    sp = ctx9.space
    q = ctx9.vel.q_factor()
    corr = sp.radial(lambda w: 1.0 / (w * (w + ctx9.lam)))
    for al, be, ga, de in itertools.product((1, 2), repeat=4):
        u, ud = ctx9.vel.u(al, be), ctx9.vel.u_dag(ga, de)
        x = 0.0 * sp.identity()
        if be == de:
            x = x + (sp.lmul_adag(al) @ sp.lmul_a(ga))
        if ga == al:
            x = x + (sp.rmul_adag(de) @ sp.rmul_a(be))
        assert res(ctx9, ud @ u, q @ (u @ ud) + corr @ x, kappa, 2) <= 1e-11


def test_q_ordering_requires_engine_correction_term(ctx9):
    """The correction enters as +X/(r(r+lam)); the -X/(r^2(r+lam)) variant fails."""
    sp = ctx9.space
    q = ctx9.vel.q_factor()
    bad = sp.radial(lambda w: 1.0 / (w * w * (w + ctx9.lam)))
    u, ud = ctx9.vel.u(1, 1), ctx9.vel.u_dag(1, 1)
    x = sp.lmul_adag(1) @ sp.lmul_a(1) + sp.rmul_adag(1) @ sp.rmul_a(1)
    assert res(ctx9, ud @ u, q @ (u @ ud) - bad @ x, 1, 2) > 0.1


def test_q_block_values(ctx9):
    sec = ctx9.sector(0)
    w = sec.r_hat_eigen
    q = (w - ctx9.lam) / (w + ctx9.lam)
    pos = sec.blocks.index(2)  # r = 3*lam
    assert q[pos] == pytest.approx(0.5)
    assert np.all(np.abs(q - 1.0) <= 2 * ctx9.lam / w)
    # the factor vanishes exactly on the r = lam block (vacuum of kappa = 0)
    # and is strictly inside (0, 1) everywhere else
    assert q[0] == 0.0
    assert np.all((0 < q[1:]) & (q[1:] < 1))
    assert np.all(np.diff(q) > 0)  # approaches 1 with the block level
    for kappa in (1, -1, 3):
        wk = ctx9.sector(kappa).r_hat_eigen
        qk = (wk - ctx9.lam) / (wk + ctx9.lam)
        assert np.all((0 < qk) & (qk < 1))


# -- rotation flow -----------------------------------------------------------


@pytest.mark.parametrize("kappa", [0, 1])
def test_rotation_flow(ctx9, kappa):
    win = ctx9.sector(kappa).window(1)
    assert rotation_flow_residual(ctx9.vel, win, 0.0) <= 1e-14
    assert rotation_flow_residual(ctx9.vel, win, np.pi / 2) <= 1e-11
    assert rotation_flow_residual(ctx9.vel, win, 0.37) <= 1e-11


def test_rotation_flow_signs_are_unique(ctx9):
    sp = ctx9.space
    omega = 0.37
    phase, phase_inv = sp.radial_phase(omega), sp.radial_phase(-omega)
    for a in (1, 2, 3, 4):
        v, vt = ctx9.vel.velocity(a), ctx9.vel.dual_velocity(a)
        lhs = phase @ v @ phase_inv
        good = float(np.cos(omega)) * v + float(np.sin(omega) * FLOW_SIGNS[a]) * vt
        bad = float(np.cos(omega)) * v - float(np.sin(omega) * FLOW_SIGNS[a]) * vt
        assert res(ctx9, lhs, good, 0, 1) <= 1e-11
        assert res(ctx9, lhs, bad, 0, 1) > 0.1


# -- velocity commutator family ----------------------------------------------


def test_vv_spatial_closed_form(ctx9):
    sp = ctx9.space
    rinv, rinv2 = sp.radius_inv(), sp.radial(lambda w: 1.0 / w**2)
    for kappa in (0, 3):
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            v_i, v_j = ctx9.vel.velocity(i), ctx9.vel.velocity(j)
            vt_i, vt_j = ctx9.vel.dual_velocity(i), ctx9.vel.dual_velocity(j)
            rhs = (-1j * (rinv2 @ ctx9.alg.generator(i, j))
                   + 0.5j * ctx9.lam * (rinv @ (anticommutator(vt_i, v_j)
                                                - anticommutator(vt_j, v_i))))
            assert res(ctx9, commutator(v_i, v_j), rhs, kappa, 2) <= 1e-11
            assert res(ctx9, commutator(vt_i, vt_j), rhs, kappa, 2) <= 1e-11


def test_vv_cross_diagonal_dominated_by_delta(ctx9):
    sp = ctx9.space
    rinv = sp.radius_inv()
    for i in (1, 2, 3):
        v_i, vt_i = ctx9.vel.velocity(i), ctx9.vel.dual_velocity(i)
        rhs = (0.5j * ctx9.lam * (rinv @ (anticommutator(vt_i, vt_i)
                                          + anticommutator(v_i, v_i)))
               - (1j / ctx9.lam) * rinv)
        assert res(ctx9, commutator(v_i, vt_i), rhs, 1, 2) <= 1e-11


def test_vv_dual_scalar_pair(ctx9):
    sp = ctx9.space
    rinv = sp.radius_inv()
    v4, vt4 = ctx9.vel.velocity(4), ctx9.vel.dual_velocity(4)
    rhs = (1j / ctx9.lam) * rinv - 1j * ctx9.lam * (rinv @ (v4 @ v4 + vt4 @ vt4))
    assert res(ctx9, commutator(v4, vt4), rhs, 0, 2) <= 1e-11


def test_vv_cross_4_sign_resolution(ctx9):
    """The mixed cross commutator carries a plus sign; minus is excluded."""
    sp = ctx9.space
    rinv = sp.radius_inv()
    for k in (1, 2, 3):
        v_k, v4 = ctx9.vel.velocity(k), ctx9.vel.velocity(4)
        vt_k, vt4 = ctx9.vel.dual_velocity(k), ctx9.vel.dual_velocity(4)
        rhs = 0.5j * ctx9.lam * (rinv @ (anticommutator(vt_k, vt4)
                                         - anticommutator(v_k, v4)))
        assert res(ctx9, commutator(v_k, vt4), rhs, 0, 2) <= 1e-11
        assert res(ctx9, commutator(vt_k, v4), rhs, 0, 2) <= 1e-11
        assert res(ctx9, commutator(v_k, vt4), -1.0 * rhs, 0, 2) > 0.5


def test_vv_duality(ctx9):
    for kappa in (0, 2):
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            lhs = commutator(ctx9.vel.dual_velocity(i), ctx9.vel.dual_velocity(j))
            rhs = commutator(ctx9.vel.velocity(i), ctx9.vel.velocity(j))
            assert res(ctx9, lhs, rhs, kappa, 2) <= 1e-11


# -- monopole field ------------------------------------------------------------


def test_field_closed_form_and_zero_charge(ctx9):
    c2 = ctx9.alg.center() + 2.0 * ctx9.space.identity()
    for kappa in (0, 2, -3):
        lhs = commutator(ctx9.vel.velocity(1), ctx9.vel.velocity(2))
        rhs = 0.5 * (monopole_profile_op(ctx9.vel, (3, 4)) @ c2)
        assert res(ctx9, lhs, rhs, kappa, 2, (0.0, 1.0)) <= 1e-11
    # kappa = 0: no monopole, the commutator itself vanishes
    out = graded_residual(commutator(ctx9.vel.velocity(1), ctx9.vel.velocity(2)),
                          0.0 * ctx9.space.identity(), ctx9.sector(0), 2)
    assert out is not None and out[0] <= 1e-11


def fit_charge(ctx, win):
    """charge_fit of [V_1, V_2] against the unit-charge closed form with S_34."""
    return charge_fit(win, commutator(ctx.vel.velocity(1), ctx.vel.velocity(2)),
                      monopole_profile_op(ctx.vel, (3, 4)))


@pytest.mark.parametrize("kappa", [-4, -2, 0, 1, 2, 4])
def test_charge_fit(ctx9, kappa):
    fit = fit_charge(ctx9, ctx9.sector(kappa).window(2, RF_MONOPOLE.poles))
    assert fit is not None
    assert fit == pytest.approx(kappa / 2.0, abs=1e-9)


def test_charge_fit_on_an_empty_window_is_none(ctx9):
    """At guard 9 no block of sector 1 at n_max 9 is left to fit."""
    win = ctx9.sector(1).window(9, RF_MONOPOLE.poles)
    assert not win.block_mask.any()
    assert fit_charge(ctx9, win) is None


def test_so4_extension_coefficient_is_quarter(ctx9):
    """The antisymmetric 4-index extension carries (C+2)/4, not (C+2)/2."""
    sec = ctx9.sector(2)
    mask, _ = sec.guard_window(2, (0.0, 1.0))
    cols = packed(sec.space, sec.kappa)[mask]
    lhs = to_csr(commutator(ctx9.vel.velocity(1), ctx9.vel.velocity(4))).tocsc()[:, cols]
    base = (monopole_profile_op(ctx9.vel, (2, 3)) @ (2.0 * ctx9.space.identity()))
    k = to_csr(base).tocsc()[:, cols]
    coeff = np.real((k.conj().multiply(lhs)).sum() / (k.conj().multiply(k)).sum())
    assert coeff == pytest.approx(2.0 / 4.0, abs=1e-10)


def test_center_sign_resolution(ctx9):
    """The field closed form carries (C+2); the (C-2) variant fails."""
    rho = RF_MONOPOLE.to_superop(ctx9.space)
    for kappa, ok in [(1, True), (2, True)]:
        for shift, expect_pass in [(+2.0, True), (-2.0, False)]:
            cc = ctx9.alg.center() + shift * ctx9.space.identity()
            for k in (1, 2, 3):
                lhs = None
                for i in range(3):
                    for j in range(3):
                        if EPS3[i, j, k - 1]:
                            t = EPS3[i, j, k - 1] * commutator(
                                ctx9.vel.velocity(i + 1), ctx9.vel.velocity(j + 1))
                            lhs = t if lhs is None else lhs + t
                rhs = -1j * ctx9.lam * (rho @ ctx9.alg.generator(k, 4) @ cc)
                r = res(ctx9, lhs, rhs, kappa, 2, (0.0, 1.0))
                if expect_pass:
                    assert r <= 1e-10
                else:
                    assert r > 0.1


def test_field_strength_tensors(ctx9):
    fs = build_field_strength(ctx9.vel, 2)
    # antisymmetry of the field tensor is exact by construction
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            delta = fs.f[(a, b)] + fs.f[(b, a)]
            assert to_csr(delta).nnz == 0 or abs(to_csr(delta).data).max() == 0.0
    # spatial block of the symmetric tensor
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        assert res(ctx9, fs.g[(i, j)], fs.g[(j, i)], 2, 2) <= 1e-11


def test_g_mixed_components_antisymmetric(ctx9):
    """[V_k, Vt_4] = [Vt_k, V_4] forces G_k4 = -G_4k; both are nonzero.

    This is the engine-resolved structure of the mixed block: the symmetric
    extension holds on the spatial block only.
    """
    for k in (1, 2, 3):
        g_k4 = -1j * commutator(ctx9.vel.velocity(k), ctx9.vel.dual_velocity(4))
        g_4k = -1j * commutator(ctx9.vel.velocity(4), ctx9.vel.dual_velocity(k))
        assert res(ctx9, g_k4, -1.0 * g_4k, 1, 2) <= 1e-11  # antisymmetric
        assert res(ctx9, g_k4, g_4k, 1, 2) > 0.5  # not symmetric
        out = graded_residual(g_k4, 0.0 * ctx9.space.identity(), ctx9.sector(1), 2)
        assert out is not None and out[0] > 1e-2  # and not zero
        # the exchange identity behind it
        lhs = commutator(ctx9.vel.velocity(k), ctx9.vel.dual_velocity(4))
        rhs = commutator(ctx9.vel.dual_velocity(k), ctx9.vel.velocity(4))
        assert res(ctx9, lhs, rhs, 1, 2) <= 1e-11


def test_field_trend_profile_slope(ctx12):
    from fuzzymono.verify.registry import BY_ID

    out = BY_ID["field-trend"].builder(ctx12, 2, 2)
    assert out is not None
    slope_dev, _ = out
    assert slope_dev <= 0.1


# -- associator and its pieces ---------------------------------------------


@pytest.mark.parametrize("kappa", [0, 1, 2, -3])
def test_associator_vanishes(ctx9, kappa):
    lhs = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if EPS3[i, j, k]:
                    t = EPS3[i, j, k] * commutator(
                        ctx9.vel.velocity(i + 1),
                        commutator(ctx9.vel.velocity(j + 1), ctx9.vel.velocity(k + 1)))
                    lhs = t if lhs is None else lhs + t
    assert res(ctx9, lhs, 0.0 * ctx9.space.identity(), kappa, 3) <= 1e-10


def test_associator_baseline(ctx9):
    lhs = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if EPS3[i, j, k]:
                    t = EPS3[i, j, k] * commutator(
                        ctx9.alg.generator(0, i + 1),
                        commutator(ctx9.alg.generator(0, j + 1),
                                   ctx9.alg.generator(0, k + 1)))
                    lhs = t if lhs is None else lhs + t
    assert res(ctx9, lhs, 0.0 * ctx9.space.identity(), 0, 3) <= 1e-12


@pytest.mark.parametrize("kappa", [0, 2, -2])
def test_profile_shift_piece(ctx9, kappa):
    rho = RF_MONOPOLE.to_superop(ctx9.space)
    lhs = None
    for i in (1, 2, 3):
        t = commutator(ctx9.vel.velocity(i), rho) @ ctx9.alg.generator(i, 4)
        lhs = t if lhs is None else lhs + t
    rhs = 3j * (rho @ ctx9.vel.velocity(4))
    assert res(ctx9, lhs, rhs, kappa, 2, (0.0, 1.0, 2.0)) <= 1e-10


@pytest.mark.parametrize("kappa", [0, 2, -2])
def test_rotation_piece(ctx9, kappa):
    rho = RF_MONOPOLE.to_superop(ctx9.space)
    lhs = None
    for i in (1, 2, 3):
        t = rho @ commutator(ctx9.vel.velocity(i), ctx9.alg.generator(i, 4))
        lhs = t if lhs is None else lhs + t
    rhs = -3j * (rho @ ctx9.vel.velocity(4))
    assert res(ctx9, lhs, rhs, kappa, 2, (0.0, 1.0)) <= 1e-11


def test_a_chain_pole_windows(ctx9):
    """The shift piece excludes radii {lam, 2lam}; kappa odd hits neither."""
    sec0, sec1 = ctx9.sector(0), ctx9.sector(1)
    _, excl0 = sec0.guard_window(2, (0.0, 1.0, 2.0))
    _, excl1 = sec1.guard_window(2, (0.0, 1.0, 2.0))
    assert excl0 == [0, 1]
    assert excl1 == []


def test_sigma_contractions(ctx9):
    rho = RF_MONOPOLE.to_superop(ctx9.space)
    c2 = ctx9.alg.center() + 2.0 * ctx9.space.identity()
    for kappa in (1, -2):
        for k in (1, 2, 3):
            left = None
            right = None
            for al, be, de in itertools.product((1, 2), repeat=3):
                c = PAULI[k - 1, al - 1, be - 1]
                if c == 0:
                    continue
                t = complex(c) * commutator(ctx9.vel.u(al, de), ctx9.vel.u_dag(be, de))
                left = t if left is None else left + t
                s = complex(c) * commutator(ctx9.vel.u(de, be), ctx9.vel.u_dag(de, al))
                right = s if right is None else right + s
            assert res(ctx9, left,
                       -ctx9.lam * (rho @ ctx9.one_sided_sigma(k, "left") @ c2),
                       kappa, 2, (0.0, 1.0)) <= 1e-11
            assert res(ctx9, right,
                       ctx9.lam * (rho @ ctx9.one_sided_sigma(k, "right") @ c2),
                       kappa, 2, (0.0, 1.0)) <= 1e-11


def test_fierz_identity_corrected_pairing():
    """The two-point contraction pairs (alpha,gamma)(delta,beta); the
    (alpha,delta)(gamma,beta) pairing fails at order one."""
    worst_good, worst_bad = 0.0, 0.0
    for k in range(3):
        for al, be, de, ga in itertools.product(range(2), repeat=4):
            lhs = sum(EPS3[i, j, k] * PAULI[i, al, be] * PAULI[j, de, ga]
                      for i in range(3) for j in range(3))
            good = 1j * (PAULI[k, al, ga] * (de == be) - PAULI[k, de, be] * (al == ga))
            bad = 1j * (PAULI[k, al, de] * (ga == be) - PAULI[k, ga, be] * (al == de))
            worst_good = max(worst_good, abs(lhs - good))
            worst_bad = max(worst_bad, abs(lhs - bad))
    assert worst_good <= 1e-15
    assert worst_bad > 1.0


def test_fierz_sample_component():
    k, al, be, de, ga = 2, 0, 0, 0, 0
    lhs = sum(EPS3[i, j, k] * PAULI[i, al, be] * PAULI[j, de, ga]
              for i in range(3) for j in range(3))
    rhs = 1j * (PAULI[k, al, ga] * (de == be) - PAULI[k, de, be] * (al == ga))
    assert lhs == rhs
