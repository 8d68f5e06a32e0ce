"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The engine resolves several sign/ordering conventions numerically (see the
README conventions table); criteria are asserted in the resolved form.  The
one structurally unattainable clause, symmetry of the mixed components of
the cross tensor, is kept as a faithful assertion marked as an expected
failure: the mixed components are exactly antisymmetric (forced by the
exchange identity [V_k, Vt_4] = [Vt_k, V_4]).
"""

import json
import time

import numpy as np
import pytest

from fuzzymono.algebra import RF_MONOPOLE
from fuzzymono.liouville import Space, commutator
from fuzzymono.monopole import charge_fit, monopole_profile_op
from fuzzymono.ncspace import build_coordinates, verify_coordinate_algebra
from fuzzymono.sector import graded_residual, sector_matrix
from fuzzymono.su22 import matrix_closure_residual, matrix_gamma_residual
from fuzzymono.verify.registry import get_context
from fuzzymono.verify.runner import RunConfig, run_suite

KAPPAS = tuple(range(-4, 5))
N_MAX = 12


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")


@pytest.fixture(scope="module")
def full_runs():
    """Two identical full-suite runs; also the criterion-12 payload."""
    cfg = RunConfig(suite="all", kappas=KAPPAS, n_max=N_MAX, lam=1.0, jobs=2)
    t0 = time.perf_counter()
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    return rep1, rep2, elapsed


def rows(report, ident):
    out = [r for r in report.results if r.id == ident]
    assert out, f"no rows for {ident}"
    return out


def worst_residual(report, idents):
    worst = 0.0
    for ident in idents:
        for r in rows(report, ident):
            if r.residual is not None:
                worst = max(worst, r.residual)
    return worst


def test_criterion_01_coordinate_algebra():
    t0 = time.perf_counter()
    nc = build_coordinates(Space(15, 1.0))
    res = verify_coordinate_algebra(nc)
    elapsed = time.perf_counter() - t0
    worst = max(res.values())
    ok = worst <= 1e-13 and elapsed < 5.0
    announce(1, "coordinate-algebra", ok, f"worst={worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-13
    assert elapsed < 5.0


def test_criterion_02_matrix_su22():
    t0 = time.perf_counter()
    g = matrix_gamma_residual()
    c = matrix_closure_residual()
    elapsed = time.perf_counter() - t0
    ok = g <= 1e-15 and c <= 1e-15 and elapsed < 1.0
    announce(2, "matrix-su22", ok, f"gamma={g:.1e}, closure={c:.1e}, {elapsed:.2f}s")
    assert g <= 1e-15
    assert c <= 1e-15
    assert elapsed < 1.0


def test_criterion_03_operator_su22(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(rep, ["su22-op-closure"])
    done = [r.kappa for r in rows(rep, "su22-op-closure") if r.residual is not None]
    ok = worst <= 1e-12 and sorted(done) == list(KAPPAS)
    announce(3, "operator-su22", ok, f"worst={worst:.2e} over kappa {min(done)}..{max(done)}")
    assert sorted(done) == list(KAPPAS)
    assert worst <= 1e-12


def test_criterion_04_central_element():
    ctx = get_context(N_MAX, 1.0)
    c2 = ctx.alg.center() + 2.0 * ctx.space.identity()
    worst = 0.0
    for kappa in KAPPAS:
        sec = ctx.sector(kappa)
        mat = sector_matrix(c2, sec, dense=True)
        delta = np.abs(mat - kappa * np.eye(sec.dim)).sum(axis=0).max()
        worst = max(worst, float(delta))
    ok = worst <= 1e-14
    announce(4, "central-element", ok, f"worst per-element={worst:.2e}")
    assert worst <= 1e-14


def test_criterion_05_weighted_hermiticity(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(rep, ["velocity-selfadjoint", "u-weighted-adjoint"])
    ok = worst <= 1e-12
    announce(5, "weighted-hermiticity", ok, f"worst={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_06_q_ordering(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(rep, ["q-order"])
    envelope = worst_residual(rep, ["q-limit"])
    ok = worst <= 1e-10 and envelope == 0.0
    announce(6, "q-ordering", ok, f"worst={worst:.2e}, envelope overshoot={envelope:.1e}")
    assert worst <= 1e-10
    assert envelope == 0.0  # |Q-1| <= 2 lam/r holds exactly


def test_criterion_07_velocity_commutators(full_runs):
    rep, _, _ = full_runs
    closed = ["vv-spatial", "vv-mixed-4", "vv-cross", "vv-cross-4", "vv-dual-4"]
    contracted = ["vv-u-spatial", "vv-u-mixed", "vv-u-cross", "vv-u-cross-4", "vv-u-dual"]
    worst = worst_residual(rep, closed + contracted)
    ok = worst <= 1e-10
    announce(7, "velocity-commutators", ok, f"worst={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_08_monopole_charge(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(rep, ["monopole-charge"])
    ctx = get_context(N_MAX, 1.0)
    field = commutator(ctx.vel.velocity(1), ctx.vel.velocity(2))
    profile = monopole_profile_op(ctx.vel, (3, 4))
    fits = {kappa: charge_fit(ctx.sector(kappa).window(2, RF_MONOPOLE.poles), field, profile)
            for kappa in KAPPAS}
    slope, intercept = np.polyfit(list(fits.keys()), list(fits.values()), 1)
    slope_dev = abs(abs(slope) - 0.5)
    zero_row = [r for r in rows(rep, "field-closed-spatial") if r.kappa == 0][0]
    ok = worst <= 1e-8 and slope_dev <= 1e-8 and zero_row.residual <= 1e-11
    announce(8, "monopole-charge", ok,
             f"fit dev={worst:.1e}, |slope|-1/2={slope_dev:.1e}, "
             f"kappa=0 field={zero_row.residual:.1e}, engine sign: fit=+kappa/2")
    assert worst <= 1e-8
    assert slope_dev <= 1e-8
    assert abs(intercept) <= 1e-8
    assert zero_row.residual <= 1e-11  # no monopole at kappa = 0


def test_criterion_09_associator(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(rep, ["associator"])
    base = worst_residual(rep, ["associator-baseline"])
    ok = worst <= 1e-10 and base <= 1e-12
    announce(9, "associator", ok, f"worst={worst:.2e}, baseline={base:.2e}")
    assert worst <= 1e-10
    assert base <= 1e-12


def test_criterion_10_g_symmetry_spatial(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(rep, ["g-symmetric-spatial"])
    exchange = worst_residual(rep, ["g-exchange-mixed"])
    ok = worst <= 1e-11
    announce(10, "g-symmetry (spatial block)", ok,
             f"worst={worst:.2e}; mixed exchange identity={exchange:.2e}")
    assert worst <= 1e-11
    assert exchange <= 1e-11


@pytest.mark.xfail(
    strict=True,
    reason="structurally unattainable: [V_k,Vt_4] = [Vt_k,V_4] plus bracket "
    "antisymmetry force G_k4 = -G_4k with nonzero norm, so the mixed "
    "components of the cross tensor cannot be symmetric; see the decisions "
    "ledger and README conventions table",
)
def test_criterion_10_g_symmetry_mixed():
    ctx = get_context(N_MAX, 1.0)
    worst = 0.0
    for k in (1, 2, 3):
        g_k4 = -1j * commutator(ctx.vel.velocity(k), ctx.vel.dual_velocity(4))
        g_4k = -1j * commutator(ctx.vel.velocity(4), ctx.vel.dual_velocity(k))
        out = graded_residual(g_k4, g_4k, ctx.sector(2), 2)
        assert out is not None
        worst = max(worst, out[0])
    announce(10, "g-symmetry (mixed block, as stated)", worst <= 1e-11,
             f"worst={worst:.2e}: antisymmetric, not symmetric")
    assert worst <= 1e-11


def test_criterion_11_shift_calculus(full_runs):
    rep, _, _ = full_runs
    worst = worst_residual(
        rep, ["shift-rule", "w-shift-comm", "zeta-shift-comm",
              "zeta-w-radius", "radial-annihilator"])
    # pole exclusions are reported, never silently dropped: the shifted
    # inverse-radius formulas exclude the admissible blocks whose radius is
    # lam or 2*lam (n = -kappa/2 and 1 - kappa/2, integers iff kappa is even)
    for ident in ("w-shift-comm", "zeta-shift-comm"):
        for r in rows(rep, ident):
            if r.residual is None:
                continue
            lo, hi = max(0, -r.kappa), N_MAX - max(0, r.kappa)
            expected = [n for n in (-r.kappa // 2, 1 - r.kappa // 2)
                        if r.kappa % 2 == 0 and lo <= n <= hi]
            assert r.excluded_blocks == expected
    ok = worst <= 1e-11
    announce(11, "shift-calculus", ok, f"worst={worst:.2e}, exclusions reported")
    assert worst <= 1e-11


def test_criterion_12_determinism_and_runtime(full_runs):
    rep1, rep2, elapsed = full_runs

    def stripped(rep):
        raw = json.loads(rep.to_json())
        for row in raw["results"]:
            row["wall_time_ms"] = None
        return json.dumps(raw, sort_keys=True)

    identical = stripped(rep1) == stripped(rep2)
    no_failures = rep1.all_passed
    ok = identical and elapsed < 180.0 and no_failures
    p, f, s = rep1.counts
    announce(12, "determinism-and-runtime", ok,
             f"two runs {elapsed:.1f}s (< 180s), byte-identical={identical}, "
             f"passed={p} failed={f} skipped={s}")
    assert identical
    assert elapsed < 180.0
    assert no_failures
