"""Graded monopole sectors: block-matrix state spaces with the weighted norm.

A sector of charge grade kappa holds operator-valued states whose level-n
input block maps to the level-(n+kappa) output block.  The grading is a
structural invariant: a state is stored only as its packed coefficient
vector over the admissible blocks, in the packed order of the liouville
module (block-major by input level), and never as a D x D matrix.

The inner product is the radius-weighted trace pairing; on the block of
input level n the weight is the symmetrized-radius eigenvalue
lam*(n + 1 + kappa/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .csr import CSR
from .liouville import Space, SuperOp, get_space


@dataclass(frozen=True)
class MonopoleSector:
    """Truncated graded sector: admissible blocks and their radial weights.

    The arrays are read-only: build_sector hands the same sector to every
    caller.
    """

    kappa: int
    n_max: int
    lam: float
    blocks: tuple[int, ...]  # admissible input levels, ascending
    # start of each block in the packed order, and the dimension last
    block_offsets: np.ndarray = field(compare=False)
    block_of: np.ndarray = field(compare=False)  # packed index -> position in blocks
    r_hat_eigen: np.ndarray = field(compare=False)  # symmetrized radius per block
    space: Space = field(compare=False, repr=False)
    # a dataclasses.replace copy gets windows of its own
    _windows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return int(self.block_offsets[-1])

    def packed_weights(self) -> np.ndarray:
        """Radial weight per packed coefficient (read-only)."""
        return self._packed_weights

    @cached_property
    def _packed_weights(self) -> np.ndarray:
        return _read_only(self.r_hat_eigen[self.block_of])

    def window(self, guard: int, exclude_ws: tuple[float, ...] = ()) -> Window:
        """The guarded window of this sector, computed once per (guard,
        exclude_ws).

        The window drops the guard blocks at either end of the admissible
        range (the blocks are consecutive levels) and the blocks whose
        radius sits within POLE_TOL*lam of a pole given in exclude_ws (units
        of lam), which are the excluded levels.  Its masks are read-only.
        """
        key = (guard, tuple(exclude_ws))
        if key not in self._windows:
            levels = np.array(self.blocks, dtype=np.int64)
            pos = np.arange(levels.size)
            pole_hit = self.space.near_pole(key[1], self.r_hat_eigen)
            keep = (pos >= guard) & (pos < levels.size - guard) & ~pole_hit
            self._windows[key] = Window(self, guard, key[1], _read_only(keep),
                                        _read_only(keep[self.block_of]),
                                        tuple(levels[pole_hit].tolist()))
        return self._windows[key]

    def guard_window(self, guard: int,
                     exclude_ws: tuple[float, ...] = ()) -> tuple[np.ndarray, list[int]]:
        """The packed mask of the guarded window and its excluded levels."""
        win = self.window(guard, exclude_ws)
        return win.column_mask, list(win.excluded)


@dataclass(frozen=True, eq=False)
class Window:
    """Where one report row is checked: a sector's guarded window.

    A kappa-independent row has Window(sector=None, guard=...) and no masks.
    block_mask marks the kept blocks of the sector, column_mask the kept
    packed coefficients, and excluded lists the input levels dropped for
    pole proximity.
    """

    sector: MonopoleSector | None
    guard: int
    exclude_ws: tuple[float, ...] = ()
    block_mask: np.ndarray | None = None
    column_mask: np.ndarray | None = None
    excluded: tuple[int, ...] = ()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_SECTORS: dict[tuple[int, int, float], MonopoleSector] = {}


def build_sector(kappa: int, n_max: int, lam: float = 1.0) -> MonopoleSector:
    """Enumerate the admissible blocks of a charge-grade-kappa sector."""
    key = (kappa, n_max, float(lam))
    if key in _SECTORS:
        return _SECTORS[key]
    space = get_space(n_max, lam)
    levels, offsets = space.sector_levels(kappa)
    # the output levels; an empty sector's grade may be too large for int64
    out_levels = levels + kappa if levels.size else levels
    sector = MonopoleSector(
        kappa=kappa,
        n_max=n_max,
        lam=float(lam),
        blocks=tuple(levels.tolist()),
        block_offsets=_read_only(offsets),
        block_of=_read_only(np.repeat(np.arange(levels.size, dtype=np.int64), np.diff(offsets))),
        r_hat_eigen=_read_only(space.level_w[out_levels, levels]),
        space=space,
    )
    _SECTORS[key] = sector
    return sector


@dataclass
class SectorVector:
    """A state of one sector: packed complex coefficients, block-major."""

    sector: MonopoleSector
    data: np.ndarray


def inner_product(phi: SectorVector, psi: SectorVector) -> complex:
    """Radius-weighted trace pairing, 4*pi*lam^2 Tr[phi+ r_hat psi]."""
    if phi.sector is not psi.sector and phi.sector != psi.sector:
        raise ValueError("vectors belong to different sectors")
    w = phi.sector.packed_weights()
    lam = phi.sector.lam
    return complex(4.0 * np.pi * lam**2 * np.sum(np.conj(phi.data) * w * psi.data))


def apply_superop(op: SuperOp, psi: SectorVector) -> SectorVector:
    """Apply a superoperator; the result lives in the grade-shifted sector."""
    sec = psi.sector
    out_sector = build_sector(sec.kappa + op.grade, sec.n_max, sec.lam)
    return SectorVector(out_sector, op.block(sec.kappa) @ psi.data)


def sector_matrix(op: SuperOp, sector: MonopoleSector, dense: bool = False):
    """Materialize a superoperator as a matrix on the packed sector basis."""
    sub = op.block(sector.kappa)
    return sub.toarray() if dense else sub.copy()


def _window_norm(mat: CSR, in_window: np.ndarray) -> float:
    """Frobenius norm of the columns of a CSR block that in_window marks.

    The window's entries are gathered by take and compress, which skip
    the dispatch of fancy indexing into the same compressed copy.  Float64
    data (a real or imaginary block) are squared in place in that copy, so
    the norm makes no further temporary; the result is bit for bit
    sqrt(sum(abs(x) ** 2)), the formula complex data keep.
    """
    x = mat.data.compress(in_window.take(mat.indices))
    if x.dtype != np.float64:
        return float(np.sqrt(np.sum(np.abs(x) ** 2)))
    np.square(x, out=x)
    return math.sqrt(np.add.reduce(x))


def block_entries(mat: CSR) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored entries of a block, for window_inner: their keys
    row * n_cols + col in ascending order, their columns and their complex
    values.  No CSR operation makes two entries at one position, so the
    keys are unique.  A check that pairs one block with several windows
    builds its entries once."""
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    keys = rows * mat.shape[1] + mat.indices
    order = np.argsort(keys)
    return keys[order], mat.indices[order], mat.values()[order]


def window_inner(a: tuple, b: tuple, in_window: np.ndarray) -> complex:
    """Sum of conj(a[i, j]) * b[i, j] over the columns j that in_window
    marks, of two equally shaped blocks given by their block_entries; the
    terms are summed in ascending order of their key."""
    (ka, ca, va), (kb, cb, vb) = a, b
    keep_a, keep_b = in_window[ca], in_window[cb]
    ka, va, kb, vb = ka[keep_a], va[keep_a], kb[keep_b], vb[keep_b]
    pos = np.searchsorted(kb, ka)  # where each key of a would sit among those of b
    common = pos < kb.size
    common[common] = kb[pos[common]] == ka[common]
    return complex(np.sum(np.conj(va[common]) * vb[pos[common]]))


def graded_residual(
    lhs: SuperOp,
    rhs: SuperOp,
    sector: MonopoleSector,
    guard: int,
    exclude_ws: tuple[float, ...] = (),
    floor: float = 1.0,
) -> tuple[float, list[int]] | None:
    """Scale-free residual of lhs == rhs on the guarded window of a sector.

    ||L - R||_F / max(floor, ||L||_F, ||R||_F) over the blocks of lhs and
    rhs out of this sector, with columns restricted to the guarded,
    pole-free input blocks.  Each norm sums the stored CSR entries whose
    column the packed guard_window mask keeps, so no block is copied or
    sliced.  Both sides must have the same grade.  The default floor of 1
    keeps the ratio defined for vanishing sides; floor=0 gives the purely
    relative metric, which is exactly invariant under power-of-two
    rescalings of lam.  The residual is NaN, a failure, when either side's
    norm is not finite (it overflowed).  Returns None when the window is
    empty, as it is on an empty sector (the identity is skipped at this
    truncation).
    """
    if lhs.grade != rhs.grade:
        raise ValueError(f"grade mismatch: {lhs.grade} vs {rhs.grade}")
    mask, excluded = sector.guard_window(guard, exclude_ws)
    if not mask.any():
        return None
    left, right = lhs.raw_block(sector.kappa), rhs.raw_block(sector.kappa)
    nl = _window_norm(left, mask)
    nr = _window_norm(right, mask)
    nd = _window_norm(left - right, mask)
    if not (math.isfinite(nl) and math.isfinite(nr)):
        return float("nan"), excluded  # an overflowed side: nd / inf would read 0.0
    den = max(floor, nl, nr)
    if den == 0.0:
        return (0.0 if nd == 0.0 else float("inf")), excluded
    return nd / den, excluded


def pair_residual(win: Window, lhs: SuperOp, rhs: SuperOp, floor: float = 1.0) -> float:
    """A pair row's default reducer: graded_residual on its nonempty window."""
    return graded_residual(lhs, rhs, win.sector, win.guard, win.exclude_ws, floor)[0]
