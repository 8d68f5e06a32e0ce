"""Velocity operators, their duals, the bi-spinor ladder pair and the field
tensors built from their commutators.

The velocity 4-vector and its dual are radius-normalized combinations of the
one-sided bilinears; both are self-adjoint for the weighted inner product.
Their building blocks U (left-create/right-annihilate over the inverse
radius) and U+ obey a q-type exchange relation with block-dependent factor
(r-l)/(r+l), and the commutator family closes on anticommutator forms.

All identity right-hand sides keep radial multipliers on the left, matching
the derivations; pole exclusions apply to those closed forms only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .algebra import OperatorAlgebra, RF_MONOPOLE, RF_Q
from .liouville import Space, SuperOp, cache_get, commutator
from .ncspace import PAULI, contract
from .sector import Window, block_entries, pair_residual, window_inner


class VelocityFamily:
    """The radius-normalized velocity/dual pair and the bi-spinor ladder."""

    def __init__(self, alg: OperatorAlgebra):
        self.alg = alg
        self.space: Space = alg.space
        self._cache = self.space._cache

    def _get(self, key: tuple, builder: Callable[[], SuperOp]) -> SuperOp:
        return cache_get(self._cache, key, builder)

    def u(self, alpha: int, beta: int) -> SuperOp:
        """(1/r) a+_alpha (.) a_beta : raises every block by one."""
        sp = self.space
        return self._get(
            ("u", alpha, beta),
            lambda: sp.radius_inv() @ (sp.lmul_adag(alpha) @ sp.rmul_a(beta)),
        )

    def u_dag(self, alpha: int, beta: int) -> SuperOp:
        """(1/r) a_alpha (.) a+_beta : lowers every block by one."""
        sp = self.space
        return self._get(
            ("udag", alpha, beta),
            lambda: sp.radius_inv() @ (sp.lmul_a(alpha) @ sp.rmul_adag(beta)),
        )

    def sigma_u(self, k: int) -> SuperOp:
        """sigma^k_{ab} U_ab."""
        return self._get(("sigu", k), lambda: contract(PAULI[k - 1], self.u))

    def sigma_u_dag(self, k: int) -> SuperOp:
        """conj(sigma^k)_{ab} U+_ab."""
        return self._get(("sigud", k), lambda: contract(np.conj(PAULI[k - 1]), self.u_dag))

    def trace_u(self) -> SuperOp:
        return self._get(("tru",), lambda: self.u(1, 1) + self.u(2, 2))

    def trace_u_dag(self) -> SuperOp:
        return self._get(("trud",), lambda: self.u_dag(1, 1) + self.u_dag(2, 2))

    def velocity(self, a: int) -> SuperOp:
        """Velocity components; a = 4 is the scalar (free-Hamiltonian) one."""
        if a == 4:
            return self._get(("v", 4), lambda: 0.5 * (self.trace_u() + self.trace_u_dag()))
        return self._get(("v", a), lambda: 0.5j * (self.sigma_u(a) - self.sigma_u_dag(a)))

    def dual_velocity(self, a: int) -> SuperOp:
        if a == 4:
            return self._get(("vt", 4), lambda: 0.5j * (self.trace_u() - self.trace_u_dag()))
        return self._get(("vt", a), lambda: 0.5 * (self.sigma_u(a) + self.sigma_u_dag(a)))

    def q_factor(self) -> SuperOp:
        """Block-diagonal exchange factor (r-l)/(r+l)."""
        return RF_Q.to_superop(self.space)


# rotation-flow signs: exp(i w S_05) conjugation sends velocity(a) to
# cos(w)*velocity(a) + sin(w)*FLOW_SIGN[a]*dual_velocity(a); the spatial and
# scalar components rotate with opposite orientation (fixed numerically).
FLOW_SIGNS = {1: -1.0, 2: -1.0, 3: -1.0, 4: +1.0}


def rotation_flow_pairs(vel: VelocityFamily, omega: float) -> Iterator[tuple[SuperOp, SuperOp]]:
    """The four (lhs, rhs) pairs of the compact-rotation flow at angle omega."""
    sp = vel.space
    phase = sp.radial_phase(omega)
    phase_inv = sp.radial_phase(-omega)
    for a in (1, 2, 3, 4):
        v, vt = vel.velocity(a), vel.dual_velocity(a)
        lhs = phase @ v @ phase_inv
        yield lhs, float(np.cos(omega)) * v + float(np.sin(omega) * FLOW_SIGNS[a]) * vt


def rotation_flow_residual(vel: VelocityFamily, win: Window, omega: float) -> float:
    """Residual of the compact-rotation flow of the velocity 4-vector on a
    nonempty window."""
    return float(np.max([pair_residual(win, *pair) for pair in rotation_flow_pairs(vel, omega)]))


@dataclass
class FieldStrength:
    """Field tensors from velocity commutators on one sector.

    f[a][b] = -i [V_a, V_b] (antisymmetric); g[a][b] = -i [V_a, Vt_b]
    (symmetric on the spatial block; the mixed components pair by exchange).
    """

    kappa: int
    f: dict[tuple[int, int], SuperOp]
    g: dict[tuple[int, int], SuperOp]
    q: SuperOp


def build_field_strength(vel: VelocityFamily, kappa: int) -> FieldStrength:
    f: dict[tuple[int, int], SuperOp] = {}
    g: dict[tuple[int, int], SuperOp] = {}
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            if a < b:
                f[(a, b)] = -1j * commutator(vel.velocity(a), vel.velocity(b))
            g[(a, b)] = -1j * commutator(vel.velocity(a), vel.dual_velocity(b))
    for a in (1, 2, 3, 4):
        for b in (1, 2, 3, 4):
            if a > b:
                f[(a, b)] = -1.0 * f[(b, a)]
        f[(a, a)] = 0.0 * vel.space.identity()
    return FieldStrength(kappa=kappa, f=f, g=g, q=vel.q_factor())


def monopole_profile_op(vel: VelocityFamily, k4: tuple[int, int]) -> SuperOp:
    """-i*lam * [1/(r(r^2-l^2))] S_k4, the unit-charge closed-form field."""
    sp = vel.space
    return -1j * sp.lam * (RF_MONOPOLE.to_superop(sp) @ vel.alg.generator(*k4))


def charge_fit(win: Window, lhs: SuperOp, profile: SuperOp) -> float | None:
    """Least-squares coefficient of lhs against profile on a window of the
    sector: of [V_1, V_2] against monopole_profile_op(vel, (3, 4)), the
    unit-charge closed form with S_34, it equals kappa/2 in the frozen
    conventions.  It reads each word's block once (a reducer's rule).

    The window of the monopole-charge row leaves out the blocks at the
    poles of the monopole profile.  None when the closed form vanishes on
    the window, as it reads when its norm underflows."""
    kappa = win.sector.kappa
    lhs, k = block_entries(lhs.raw_block(kappa)), block_entries(profile.raw_block(kappa))
    denom = window_inner(k, k, win.column_mask)
    if denom == 0:
        return None
    num = window_inner(k, lhs, win.column_mask)
    return float(np.real(num / denom))
