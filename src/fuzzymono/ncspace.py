"""Fuzzy coordinates of the noncommutative 3-space.

Coordinates are the Pauli-contracted one-body bilinears x_i = lam * sigma^i_{ab} a+_a a_b
together with the radius r = lam * (a+_a a_a + 1).  The radius uses the
index-contracted form: it is the only one for which x commutes with r and
x^2 = r^2 - lam^2 holds, which the verification suite checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .csr import CSR
from .fock import FockBasis, annihilator, creator

# sigma^1, sigma^2, sigma^3 with sigma^3 = diag(1, -1)
PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)


def levi_civita(n: int) -> np.ndarray:
    """The rank-n Levi-Civita tensor, +1 on the identity permutation."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


EPS3 = levi_civita(3)


def nonzero_entries(t: np.ndarray):
    """(index tuple, value) of every nonzero entry of t, in row-major order."""
    for idx in zip(*np.nonzero(t)):
        idx = tuple(int(i) for i in idx)
        yield idx, t[idx]


@dataclass(frozen=True)
class NcCoordinates:
    """The three fuzzy coordinates and the radius on a truncated Fock basis."""

    lam: float
    x: tuple[CSR, CSR, CSR]
    r: CSR


def build_coordinates(basis: FockBasis, lam: float) -> NcCoordinates:
    if not 0 < lam < np.inf:  # NaN fails both comparisons
        raise ValueError(f"lam must be a positive finite number, got {lam}")
    a = [annihilator(basis, 1), annihilator(basis, 2)]
    adag = [creator(basis, 1), creator(basis, 2)]
    xs = []
    for k in range(3):
        xk = CSR.zeros((basis.dim, basis.dim))
        for al in range(2):
            for be in range(2):
                c = PAULI[k, al, be]
                if c != 0:
                    xk = xk + (adag[al] @ a[be]).scale(c)
        xs.append(xk.scale(lam))
    r = CSR.diags(lam * (basis.levels + 1))
    return NcCoordinates(lam=lam, x=(xs[0], xs[1], xs[2]), r=r)


def frobenius_norm(mat: CSR) -> float:
    """||mat||_F as scipy.sparse.linalg.norm computes it: duplicates summed,
    then the norm of the stored complex values."""
    return float(np.linalg.norm(mat.canonical().values()))


def relative_norm(delta: CSR, *sides: CSR) -> float:
    """||delta||_F / max(1, ||side||_F for each side)."""
    num = frobenius_norm(delta) if delta.nnz else 0.0
    den = max([1.0] + [frobenius_norm(s) for s in sides if s.nnz])
    return float(num / den)


def verify_coordinate_algebra(nc: NcCoordinates) -> dict[str, float]:
    """Residuals of the three defining relations: the Frobenius norm of
    each difference over max(1, the Frobenius norm of each side)
    (relative_norm), the largest over i, j for coord-comm and over i for
    coord-radius.

    All three operators are level-preserving, so the relations hold on the
    whole truncated space with no guard.
    """
    x, r, lam = nc.x, nc.r, nc.lam

    res_comm = 0.0
    for i in range(3):
        for j in range(3):
            lhs = x[i] @ x[j] - x[j] @ x[i]
            rhs = CSR.zeros(x[0].shape)
            for k in range(3):
                if EPS3[i, j, k] != 0:
                    rhs = rhs + x[k].scale(2j * lam * EPS3[i, j, k])
            res_comm = max(res_comm, relative_norm(lhs - rhs, lhs, rhs))

    res_radius = max(relative_norm(x[i] @ r - r @ x[i], x[i] @ r) for i in range(3))

    x2 = x[0] @ x[0] + x[1] @ x[1] + x[2] @ x[2]
    r2 = r @ r
    res_square = relative_norm(x2 - r2 + CSR.identity(r.shape[0]).scale(lam**2), x2, r2)

    return {
        "coord-comm": res_comm,
        "coord-radius-comm": res_radius,
        "coord-radius-square": res_square,
    }
