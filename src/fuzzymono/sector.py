"""Graded monopole sectors: block-matrix state spaces with the weighted norm.

A sector of charge grade kappa holds operator-valued states whose level-n
input block maps to the level-(n+kappa) output block.  The grading is a
structural invariant: states are stored as packed coefficient vectors over
the admissible blocks, ordered block-major.

The inner product is the radius-weighted trace pairing; on the block of
input level n the weight is the symmetrized-radius eigenvalue
lam*(n + 1 + kappa/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .liouville import POLE_TOL, Space, SuperOp, get_space


@dataclass(frozen=True)
class MonopoleSector:
    """Truncated graded sector: admissible blocks and their radial weights."""

    kappa: int
    n_max: int
    lam: float
    blocks: tuple[int, ...]  # admissible input levels, ascending
    packed: np.ndarray = field(compare=False)  # vec indices, block-major
    block_offsets: np.ndarray = field(compare=False)
    block_of: np.ndarray = field(compare=False)  # packed idx -> position in blocks
    space: Space = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return int(self.packed.size)

    @property
    def is_empty(self) -> bool:
        return self.dim == 0

    @property
    def mu(self) -> float:
        """Monopole charge carried by the sector."""
        return -self.kappa / 2.0

    @property
    def r_hat_eigen(self) -> np.ndarray:
        """Symmetrized-radius eigenvalue per admissible block."""
        n = np.array(self.blocks, dtype=np.float64)
        return self.lam * (n + 1.0 + self.kappa / 2.0)

    def block_dim(self, n: int) -> int:
        return (n + 1) * (n + self.kappa + 1)

    def packed_weights(self) -> np.ndarray:
        """Radial weight per packed coefficient."""
        return self.r_hat_eigen[self.block_of]

    def guard_window(self, guard: int, exclude_ws: tuple[float, ...] = ()) -> tuple[np.ndarray, list[int]]:
        """Boolean mask over packed indices for the guarded window.

        Blocks within guard of either end of the admissible range are
        dropped, as are blocks whose radius sits within POLE_TOL*lam of a
        pole given in exclude_ws (units of lam).  Returns the mask together
        with the sorted input levels excluded for pole proximity.
        """
        if self.is_empty:
            return np.zeros(0, dtype=bool), []
        lo, hi = self.blocks[0], self.blocks[-1]
        keep_block = np.array([(lo + guard <= n <= hi - guard) for n in self.blocks])
        pole_hit = np.zeros(len(self.blocks), dtype=bool)
        w_over_lam = self.r_hat_eigen / self.lam
        for p in exclude_ws:
            pole_hit |= np.abs(w_over_lam - p) < POLE_TOL
        excluded = [int(n) for n, h in zip(self.blocks, pole_hit) if h]
        keep_block &= ~pole_hit
        return keep_block[self.block_of], excluded


_SECTORS: dict[tuple[int, int, float], MonopoleSector] = {}


def build_sector(kappa: int, n_max: int, lam: float = 1.0) -> MonopoleSector:
    """Enumerate the admissible blocks of a charge-grade-kappa sector."""
    key = (kappa, n_max, float(lam))
    if key in _SECTORS:
        return _SECTORS[key]
    space = get_space(n_max, lam)
    d = space.dim
    blocks = [n for n in range(n_max + 1) if 0 <= n + kappa <= n_max]
    packed: list[int] = []
    offsets = [0]
    block_of: list[int] = []
    for pos, n in enumerate(blocks):
        cols = space.basis.level_slice(n)
        rows = space.basis.level_slice(n + kappa)
        for c in range(cols.start, cols.stop):
            for r in range(rows.start, rows.stop):
                packed.append(r * d + c)
                block_of.append(pos)
        offsets.append(len(packed))
    sector = MonopoleSector(
        kappa=kappa,
        n_max=n_max,
        lam=float(lam),
        blocks=tuple(blocks),
        packed=np.array(packed, dtype=np.int64),
        block_offsets=np.array(offsets, dtype=np.int64),
        block_of=np.array(block_of, dtype=np.int64),
        space=space,
    )
    _SECTORS[key] = sector
    return sector


@dataclass
class SectorVector:
    """A state of one sector: packed complex coefficients, block-major."""

    sector: MonopoleSector
    data: np.ndarray

    @classmethod
    def zero(cls, sector: MonopoleSector) -> "SectorVector":
        return cls(sector, np.zeros(sector.dim, dtype=np.complex128))

    @classmethod
    def basis_element(cls, sector: MonopoleSector, i: int) -> "SectorVector":
        v = cls.zero(sector)
        v.data[i] = 1.0
        return v

    @classmethod
    def random(cls, sector: MonopoleSector, rng: np.random.Generator) -> "SectorVector":
        z = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
        return cls(sector, z)

    @classmethod
    def from_matrix(cls, sector: MonopoleSector, psi: np.ndarray) -> "SectorVector":
        return cls(sector, psi.reshape(-1)[sector.packed].astype(np.complex128))

    def to_matrix(self) -> np.ndarray:
        d = self.sector.space.dim
        out = np.zeros(d * d, dtype=np.complex128)
        out[self.sector.packed] = self.data
        return out.reshape(d, d)


def inner_product(phi: SectorVector, psi: SectorVector) -> complex:
    """Radius-weighted trace pairing, 4*pi*lam^2 Tr[phi+ r_hat psi]."""
    if phi.sector is not psi.sector and phi.sector != psi.sector:
        raise ValueError("vectors belong to different sectors")
    w = phi.sector.packed_weights()
    lam = phi.sector.lam
    return complex(4.0 * np.pi * lam**2 * np.sum(np.conj(phi.data) * w * psi.data))


def weighted_adjoint(op: SuperOp) -> SuperOp:
    """Adjoint with respect to the weighted inner product."""
    return op.weighted_adjoint()


def apply_superop(op: SuperOp, psi: SectorVector) -> SectorVector:
    """Apply a superoperator; the result lives in the grade-shifted sector."""
    sec = psi.sector
    out_sector = build_sector(sec.kappa + op.grade, sec.n_max, sec.lam)
    d = sec.space.dim
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[sec.packed] = psi.data
    out = op.mat @ vec
    return SectorVector(out_sector, out[out_sector.packed])


def sector_matrix(op: SuperOp, sector: MonopoleSector, dense: bool = False):
    """Materialize a superoperator as a matrix on the packed sector basis."""
    out_sector = build_sector(sector.kappa + op.grade, sector.n_max, sector.lam)
    sub = op.mat.tocsc()[:, sector.packed].tocsr()[out_sector.packed, :]
    return sub.toarray() if dense else sub.tocsr()


def _window_norm(mat: sparse.csr_matrix, in_window: np.ndarray) -> float:
    """Frobenius norm of the columns of a CSR matrix that in_window marks."""
    return float(np.sqrt(np.sum(np.abs(mat.data[in_window[mat.indices]]) ** 2)))


def graded_residual(
    lhs: SuperOp,
    rhs: SuperOp,
    sector: MonopoleSector,
    guard: int,
    exclude_ws: tuple[float, ...] = (),
    floor: float = 1.0,
) -> tuple[float, list[int]] | None:
    """Scale-free residual of lhs == rhs on the guarded window of a sector.

    ||L - R||_F / max(floor, ||L||_F, ||R||_F), with columns restricted to
    the guarded, pole-free input blocks and all rows kept (grading leakage
    would show up as extra rows).  Each norm sums the stored CSR entries
    whose column is in the window, read through a boolean mask over the D^2
    columns, so no matrix is copied or sliced.  The default floor of 1
    keeps the ratio defined for vanishing sides; floor=0 gives the purely
    relative metric, which is exactly invariant under power-of-two
    rescalings of lam.  Returns None when the window is empty (the identity
    is skipped at this truncation).
    """
    if sector.is_empty:
        return None
    mask, excluded = sector.guard_window(guard, exclude_ws)
    if not mask.any():
        return None
    in_window = np.zeros(lhs.mat.shape[1], dtype=bool)
    in_window[sector.packed[mask]] = True
    nl = _window_norm(lhs.mat, in_window)
    nr = _window_norm(rhs.mat, in_window)
    nd = _window_norm(lhs.mat - rhs.mat, in_window)
    den = max(floor, nl, nr)
    if den == 0.0:
        return (0.0 if nd == 0.0 else float("inf")), excluded
    return nd / den, excluded
