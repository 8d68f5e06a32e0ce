"""Sparse superoperator engine on the vectorized truncated Fock space.

States of the graded Hilbert spaces are D x D complex matrices on the
truncated Fock basis (D = dim F).  Superoperators are sparse matrices on the
D^2-dimensional vectorization (row-major: matrix entry (r, c) sits at index
r*D + c).  The three primitive families are

  * left multiplication by a ladder matrix,
  * right multiplication by a ladder matrix,
  * radial multipliers: diagonal in the pair basis with value
    f(lam*(level_r + level_c + 2)/2), the functional calculus of the
    symmetrized radius.

Every superoperator carries its net row/col level shift so grading and
truncation bookkeeping can be checked against the sparse support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from scipy import sparse

from .fock import FockBasis, annihilator, build_basis, creator

# Pole proximity tolerance, in units of lam (radial multipliers refuse blocks
# whose eigenvalue sits this close to a pole).
POLE_TOL = 1e-9


def _merge_shift(x: Optional[int], y: Optional[int]) -> Optional[int]:
    if x is None or y is None:
        return None
    return x + y


@dataclass
class SuperOp:
    """A linear map on vectorized operator-valued states.

    grade : net change of (row level - col level); shifts which graded
        subspace the output lives in.  All sums must be grade-homogeneous.
    drow, dcol : net row/col level shifts (None once a sum mixes shifts).
    """

    space: "Space"
    mat: sparse.csr_matrix
    grade: int = 0
    drow: Optional[int] = 0
    dcol: Optional[int] = 0

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        if self.space is not other.space:
            raise ValueError("superoperators live on different spaces")
        return SuperOp(
            self.space,
            (self.mat @ other.mat).tocsr(),
            grade=self.grade + other.grade,
            drow=_merge_shift(self.drow, other.drow),
            dcol=_merge_shift(self.dcol, other.dcol),
        )

    def __add__(self, other: "SuperOp") -> "SuperOp":
        if self.space is not other.space:
            raise ValueError("superoperators live on different spaces")
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch in sum: {self.grade} vs {other.grade}")
        return SuperOp(
            self.space,
            (self.mat + other.mat).tocsr(),
            grade=self.grade,
            drow=self.drow if self.drow == other.drow else None,
            dcol=self.dcol if self.dcol == other.dcol else None,
        )

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return self + (-1.0) * other

    def __neg__(self) -> "SuperOp":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "SuperOp":
        return SuperOp(self.space, (scalar * self.mat).tocsr(),
                       self.grade, self.drow, self.dcol)

    __rmul__ = __mul__

    def plain_adjoint(self) -> "SuperOp":
        """Adjoint for the unweighted Frobenius pairing."""
        return SuperOp(
            self.space,
            self.mat.conj().T.tocsr(),
            grade=-self.grade,
            drow=None if self.drow is None else -self.drow,
            dcol=None if self.dcol is None else -self.dcol,
        )

    def weighted_adjoint(self) -> "SuperOp":
        """Adjoint for the radius-weighted trace inner product: W^-1 M^H W."""
        sp = self.space
        adj = self.plain_adjoint()
        mat = (sp._winv_diag @ adj.mat @ sp._w_diag).tocsr()
        return SuperOp(sp, mat, adj.grade, adj.drow, adj.dcol)

    def apply_matrix(self, psi: np.ndarray) -> np.ndarray:
        """Apply to a D x D state given as a dense matrix."""
        d = self.space.dim
        return (self.mat @ psi.reshape(d * d)).reshape(d, d)

    def measured_grades(self) -> set[int]:
        """Grade shifts actually present in the sparse support."""
        coo = self.mat.tocoo()
        g = self.space.pair_grade
        return set((g[coo.row] - g[coo.col]).tolist())

    def measured_col_shifts(self) -> set[int]:
        coo = self.mat.tocoo()
        lc = self.space.col_level
        return set((lc[coo.row] - lc[coo.col]).tolist())


class Space:
    """Shared context: Fock basis, primitive superoperators, radial calculus."""

    def __init__(self, n_max: int, lam: float = 1.0):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.n_max = n_max
        self.lam = float(lam)
        self.basis: FockBasis = build_basis(n_max)
        self.dim = self.basis.dim
        d = self.dim
        self.level = self.basis.levels

        # row/col levels of each vectorized pair index (row-major)
        self.row_level = np.repeat(self.level, d)
        self.col_level = np.tile(self.level, d)
        self.pair_grade = self.row_level - self.col_level
        # symmetrized radius eigenvalue on each pair
        self.pair_w = self.lam * (self.row_level + self.col_level + 2) / 2.0

        self._w_diag = sparse.diags(self.pair_w.astype(np.complex128)).tocsr()
        self._winv_diag = sparse.diags((1.0 / self.pair_w).astype(np.complex128)).tocsr()

        self._a = [annihilator(self.basis, 1), annihilator(self.basis, 2)]
        self._adag = [creator(self.basis, 1), creator(self.basis, 2)]
        self._eye = sparse.identity(d, dtype=np.complex128, format="csr")
        self._cache: dict[tuple, SuperOp] = {}

    # -- primitives ---------------------------------------------------------

    def identity(self) -> SuperOp:
        return SuperOp(self, sparse.identity(self.dim**2, dtype=np.complex128, format="csr"))

    def left_mul(self, mat: sparse.spmatrix, drow: int) -> SuperOp:
        return SuperOp(self, sparse.kron(mat, self._eye, format="csr"),
                       grade=drow, drow=drow, dcol=0)

    def right_mul(self, mat: sparse.spmatrix, dcol: int) -> SuperOp:
        return SuperOp(self, sparse.kron(self._eye, mat.T, format="csr"),
                       grade=-dcol, drow=0, dcol=dcol)

    def lmul_a(self, alpha: int) -> SuperOp:
        """Left multiplication by a_alpha (grade -1)."""
        return self._cached(("la", alpha), lambda: self.left_mul(self._a[alpha - 1], drow=-1))

    def lmul_adag(self, alpha: int) -> SuperOp:
        """Left multiplication by a+_alpha (grade +1)."""
        return self._cached(("lad", alpha), lambda: self.left_mul(self._adag[alpha - 1], drow=+1))

    def rmul_a(self, alpha: int) -> SuperOp:
        """Right multiplication by a_alpha (grade -1, col level +1)."""
        return self._cached(("ra", alpha), lambda: self.right_mul(self._a[alpha - 1], dcol=+1))

    def rmul_adag(self, alpha: int) -> SuperOp:
        """Right multiplication by a+_alpha (grade +1, col level -1)."""
        return self._cached(("rad", alpha), lambda: self.right_mul(self._adag[alpha - 1], dcol=-1))

    def _cached(self, key: tuple, builder: Callable[[], SuperOp]) -> SuperOp:
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- radial calculus ----------------------------------------------------

    def radial_values(self, values: np.ndarray) -> SuperOp:
        return SuperOp(self, sparse.diags(values.astype(np.complex128)).tocsr())

    def radial(self, fn: Callable[[np.ndarray], np.ndarray],
               poles: tuple[float, ...] = ()) -> SuperOp:
        """Diagonal multiplier f(r_hat); pole-adjacent pairs are zeroed.

        poles are given in units of lam.  Zeroed pairs must be excluded from
        any comparison window by the caller (the registry tracks this).
        """
        w = self.pair_w
        mask = np.zeros(w.shape, dtype=bool)
        for p in poles:
            mask |= np.abs(w / self.lam - p) < POLE_TOL
        vals = np.zeros(w.shape, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals[~mask] = fn(w[~mask])
        return self.radial_values(vals)

    def radius_op(self) -> SuperOp:
        """Multiplication by the symmetrized radius."""
        return self.radial_values(self.pair_w)

    def radius_inv(self) -> SuperOp:
        return self.radial_values(1.0 / self.pair_w)

    def radial_phase(self, omega: float) -> SuperOp:
        """exp(i*omega*r_hat/lam): exponential of the diagonal radius generator."""
        return self.radial_values(np.exp(1j * omega * self.pair_w / self.lam))

    def grading_twist(self, tau: float) -> SuperOp:
        """Phase substitution a -> e^{i tau} a, a+ -> e^{-i tau} a+ on states."""
        return self.radial_values(np.exp(-1j * tau * self.pair_grade))


def commutator(a: SuperOp, b: SuperOp) -> SuperOp:
    return a @ b - b @ a


def anticommutator(a: SuperOp, b: SuperOp) -> SuperOp:
    return a @ b + b @ a


def linear_combination(terms: Iterable[SuperOp], space: Optional[Space] = None) -> SuperOp:
    """Sum of grade-homogeneous terms, folded left to right with +.

    An empty sum is the zero superoperator on space; without a space it is
    an error.
    """
    it = iter(terms)
    total = next(it, None)
    if total is None:
        if space is None:
            raise ValueError("empty linear combination needs a space")
        return 0.0 * space.identity()
    for t in it:
        total = total + t
    return total


_SPACES: dict[tuple[int, float], Space] = {}


def get_space(n_max: int, lam: float = 1.0) -> Space:
    key = (n_max, float(lam))
    if key not in _SPACES:
        _SPACES[key] = Space(n_max, lam)
    return _SPACES[key]
