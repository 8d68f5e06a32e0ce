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
from scipy import sparse

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
    x: tuple[sparse.csr_matrix, sparse.csr_matrix, sparse.csr_matrix]
    r: sparse.csr_matrix
    pauli: np.ndarray


def build_coordinates(basis: FockBasis, lam: float) -> NcCoordinates:
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    a = [annihilator(basis, 1), annihilator(basis, 2)]
    adag = [creator(basis, 1), creator(basis, 2)]
    xs = []
    for k in range(3):
        xk = sparse.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
        for al in range(2):
            for be in range(2):
                c = PAULI[k, al, be]
                if c != 0:
                    xk = xk + c * (adag[al] @ a[be])
        xs.append((lam * xk).tocsr())
    r = (lam * sparse.diags((basis.levels + 1).astype(np.complex128))).tocsr()
    return NcCoordinates(lam=lam, x=(xs[0], xs[1], xs[2]), r=r, pauli=PAULI)


def frobenius_norm(mat: sparse.spmatrix) -> float:
    """||mat||_F as scipy.sparse.linalg.norm computes it (duplicates summed,
    then the norm of the stored values), without importing scipy.linalg."""
    mat = sparse.csr_matrix(mat, copy=True)
    mat.sum_duplicates()
    return float(np.linalg.norm(mat.data))


def relative_norm(delta: sparse.spmatrix, *sides: sparse.spmatrix) -> float:
    """||delta||_F / max(1, ||side||_F for each side)."""
    num = frobenius_norm(delta) if delta.nnz else 0.0
    den = max([1.0] + [frobenius_norm(s) for s in sides if s.nnz])
    return float(num / den)


def verify_coordinate_algebra(nc: NcCoordinates) -> dict[str, float]:
    """Max-norm residuals of the three defining relations.

    All three operators are level-preserving, so the relations hold on the
    whole truncated space with no guard.
    """
    x, r, lam = nc.x, nc.r, nc.lam

    res_comm = 0.0
    for i in range(3):
        for j in range(3):
            lhs = x[i] @ x[j] - x[j] @ x[i]
            rhs = sparse.csr_matrix(x[0].shape, dtype=np.complex128)
            for k in range(3):
                if EPS3[i, j, k] != 0:
                    rhs = rhs + 2j * lam * EPS3[i, j, k] * x[k]
            res_comm = max(res_comm, relative_norm((lhs - rhs).tocsr(), lhs.tocsr(), rhs.tocsr()))

    res_radius = max(relative_norm((x[i] @ r - r @ x[i]).tocsr(), (x[i] @ r).tocsr())
                     for i in range(3))

    x2 = sum(x[i] @ x[i] for i in range(3))
    r2 = r @ r
    ident = sparse.identity(r.shape[0], dtype=np.complex128, format="csr")
    res_square = relative_norm((x2 - r2 + lam**2 * ident).tocsr(), x2.tocsr(), r2.tocsr())

    return {
        "coord-comm": res_comm,
        "coord-radius-comm": res_radius,
        "coord-radius-square": res_square,
    }
