"""The dense reference for the tests: the D^2 picture of states and operators.

The engine holds a superoperator only as its sector blocks and a state only
as its packed coefficients.  The tests compare both against the textbook
picture, in which a state is a D x D matrix vectorized row-major (entry
(r, c) at index r*D + c) and a superoperator a D^2 x D^2 matrix.  These
functions build that picture from the engine's objects; src/ never imports
this module.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from fuzzymono.liouville import Space, SuperOp
from fuzzymono.sector import MonopoleSector, SectorVector


def packed(space: Space, k: int) -> np.ndarray:
    """Vec indices of sector k in the packed order: block-major by input
    level n, and within block n the columns (level n) outer and the rows
    (level n + k) inner.  Empty when no level pair has grade k."""
    d = space.dim
    parts = [np.zeros(0, dtype=np.int64)]
    for n in space.sector_levels(k)[0]:
        cols, rows = space.basis.level_slice(n), space.basis.level_slice(n + k)
        parts.append((np.arange(rows.start, rows.stop)[None, :] * d
                      + np.arange(cols.start, cols.stop)[:, None]).ravel())
    return np.concatenate(parts)


def pair_levels(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """(row level, col level) of every vec index."""
    return np.repeat(space.level, space.dim), np.tile(space.level, space.dim)


def to_csr(op: SuperOp) -> sparse.csr_matrix:
    """The full D^2 x D^2 matrix, assembled from the blocks of every sector."""
    sp = op.space
    rows, cols, data = [], [], []
    for k in range(-sp.n_max, sp.n_max + 1):
        blk = op.block(k).tocoo()
        rows.append(packed(sp, k + op.grade)[blk.row])
        cols.append(packed(sp, k)[blk.col])
        data.append(blk.data)
    n = sp.dim ** 2
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def measured_grades(op: SuperOp) -> set[int]:
    """Grade shifts present in the sparse support of op."""
    coo = to_csr(op).tocoo()
    row, col = pair_levels(op.space)
    grade = row - col
    return set((grade[coo.row] - grade[coo.col]).tolist())


def to_matrix(vec: SectorVector) -> np.ndarray:
    """The D x D matrix of a sector state."""
    sec = vec.sector
    d = sec.space.dim
    out = np.zeros(d * d, dtype=np.complex128)
    out[packed(sec.space, sec.kappa)] = vec.data
    return out.reshape(d, d)


def from_matrix(sector: MonopoleSector, psi: np.ndarray) -> SectorVector:
    """The sector state of the grade-kappa entries of a D x D matrix."""
    return SectorVector(sector, psi.reshape(-1)[packed(sector.space, sector.kappa)]
                        .astype(np.complex128))
