"""The fifteen 4x4 conformal-block generator matrices and their metric.

Index ranges: A, B = 0..5 for the full antisymmetric family, a, b = 1..4 for
the rotation block, i, j, k = 1..3 for the spatial block.  Conventions are
fixed once by self-consistency and frozen here:

  * metric eta = diag(-1, 1, 1, 1, 1, -1): directions 0 and 5 are the
    compact pair, so the seven Hermitian generators {S_ab, S_05} span the
    maximal compact subalgebra and the eight anti-Hermitian ones
    {S_0a, S_a5} are boosts;
  * the sign of S_45 is the unique choice for which all 105 commutators
    close onto i*(eta.S - ...) with this eta (tests enforce uniqueness);
  * the adjoint relation reads S+_AB = +Gamma S_AB Gamma, the sign being
    forced by the Hermiticity split above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ncspace import EPS3, PAULI, contract, linear_combination

GAMMA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(np.complex128)
ETA = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
GAMMA_ADJOINT_SIGN = +1.0
_ZERO = np.zeros((4, 4), dtype=np.complex128)
_ZERO.flags.writeable = False  # the empty bracket, returned to every caller


def _block(tl, tr, bl, br) -> np.ndarray:
    return np.block([[tl, tr], [bl, br]]).astype(np.complex128)


def _build_upper() -> dict[tuple[int, int], np.ndarray]:
    z = np.zeros((2, 2), dtype=np.complex128)
    e = np.eye(2, dtype=np.complex128)
    s: dict[tuple[int, int], np.ndarray] = {}
    for i, j in itertools.combinations(range(3), 2):
        s[(i + 1, j + 1)] = contract(0.5 * EPS3[i, j],
                                     lambda k: _block(PAULI[k - 1], z, z, PAULI[k - 1]))
    for k in range(3):
        s[(k + 1, 4)] = 0.5 * _block(PAULI[k], z, z, -PAULI[k])
        s[(0, k + 1)] = 0.5j * _block(z, PAULI[k], PAULI[k], z)
        s[(k + 1, 5)] = 0.5 * _block(z, PAULI[k], -PAULI[k], z)
    s[(0, 4)] = 0.5 * _block(z, e, -e, z)
    s[(0, 5)] = 0.5 * _block(e, z, z, -e)
    # closure under the bracket with ETA above fixes this sign
    s[(4, 5)] = -0.5j * _block(z, e, e, z)
    return s


_UPPER = _build_upper()
PAIRS: tuple[tuple[int, int], ...] = tuple(sorted(_UPPER.keys()))


def generator_matrix(a: int, b: int) -> np.ndarray:
    """S_AB, extended antisymmetrically to all index orders."""
    if a == b:
        return np.zeros((4, 4), dtype=np.complex128)
    if (a, b) in _UPPER:
        return _UPPER[(a, b)].copy()
    return -_UPPER[(b, a)].copy()


@dataclass(frozen=True)
class Su22Matrix:
    A: int
    B: int
    matrix: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray


def build_su22_matrices() -> list[Su22Matrix]:
    return [Su22Matrix(a, b, generator_matrix(a, b), GAMMA, ETA) for a, b in PAIRS]


def bracket_terms(a: int, b: int, c: int, d: int) -> tuple[tuple[float, tuple[int, int]], ...]:
    """The (coefficient, (x, y)) terms of [S_AB, S_CD] = i * sum coefficient * S_xy:
    eta_AC S_BD - eta_BC S_AD - eta_AD S_BC + eta_BD S_AC."""
    return ((ETA[a, c], (b, d)), (-ETA[b, c], (a, d)), (-ETA[a, d], (b, c)), (ETA[b, d], (a, c)))


def bracket_rhs(a: int, b: int, c: int, d: int, generator=generator_matrix, zero=_ZERO):
    """i*(eta_AC S_BD - eta_BC S_AD - eta_AD S_BC + eta_BD S_AC), S_xy =
    generator(x, y): 4x4 matrices, or superoperators (algebra.su22_bracket_rhs).
    Zero terms are skipped; a bracket with none left is zero."""
    return linear_combination((complex(1j * coeff) * generator(x, y)
                               for coeff, (x, y) in bracket_terms(a, b, c, d)
                               if coeff != 0 and x != y), zero)


def matrix_gamma_residual() -> float:
    """Max deviation of S+ = GAMMA_ADJOINT_SIGN * Gamma S Gamma over all generators."""
    res = 0.0
    for a, b in PAIRS:
        s = generator_matrix(a, b)
        delta = s.conj().T - GAMMA_ADJOINT_SIGN * (GAMMA @ s @ GAMMA)
        res = max(res, float(np.max(np.abs(delta))))
    return res


def matrix_closure_residual() -> float:
    """Max deviation of the 105 independent commutators from the bracket."""
    res = 0.0
    for idx1 in range(len(PAIRS)):
        for idx2 in range(idx1 + 1, len(PAIRS)):
            a, b = PAIRS[idx1]
            c, d = PAIRS[idx2]
            s1, s2 = generator_matrix(a, b), generator_matrix(c, d)
            delta = (s1 @ s2 - s2 @ s1) - bracket_rhs(a, b, c, d)
            res = max(res, float(np.max(np.abs(delta))))
    return res


def hermitian_split() -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Partition the pairs into Hermitian (rotations) and anti-Hermitian (boosts)."""
    herm, anti = [], []
    for a, b in PAIRS:
        s = generator_matrix(a, b)
        if np.allclose(s, s.conj().T, atol=1e-15):
            herm.append((a, b))
        elif np.allclose(s, -s.conj().T, atol=1e-15):
            anti.append((a, b))
        else:
            raise AssertionError(f"generator ({a},{b}) neither Hermitian nor anti-Hermitian")
    return herm, anti
