"""The references the tests compare the engine against.

The engine holds a superoperator only as its sector blocks and a state only
as its packed coefficients.  The tests compare both against the textbook
picture, in which a state is a D x D matrix vectorized row-major (entry
(r, c) at index r*D + c) and a superoperator a D^2 x D^2 matrix.  The
first functions below build that picture from the engine's objects.

The engine computes with its own CSR type (fuzzymono.csr).  The last
functions are the matrix-level checks of the fock and coords suites written
with scipy.sparse matrices, as scipy users would write them; the engine's
residuals must equal theirs bit for bit.  evaluate_alone is a row's outcome
with each pair compared on its own (or each tuple of words reduced on its
own by the record's reducer), no block shared between pairs, as
IdentityRecord.evaluate computed it before its row memo.  The helpers in
between (level slices, sector states, a ladder or radial leaf's block
built level by level from the leaf's data, a leaf that injects arbitrary
blocks, the sigma-contracted one-sided words and the 1/(r-2l) multiplier)
are what only the tests read.  src/ never imports this module.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from fuzzymono.algebra import RadialFunction, contract
from fuzzymono.csr import CSR
from fuzzymono.fock import FockBasis
from fuzzymono.liouville import Space, SuperOp, linear_combination
from fuzzymono.ncspace import EPS3, PAULI
from fuzzymono.sector import MonopoleSector, SectorVector, graded_residual


def packed(space: Space, k: int) -> np.ndarray:
    """Vec indices of sector k in the packed order: block-major by input
    level n, and within block n the columns (level n) outer and the rows
    (level n + k) inner.  Empty when no level pair has grade k."""
    d = space.basis.dim
    parts = [np.zeros(0, dtype=np.int64)]
    for n in space.sector_levels(k)[0]:
        cols, rows = level_slice(space.basis, n), level_slice(space.basis, n + k)
        parts.append((np.arange(rows.start, rows.stop)[None, :] * d
                      + np.arange(cols.start, cols.stop)[:, None]).ravel())
    return np.concatenate(parts)


def pair_levels(space: Space) -> tuple[np.ndarray, np.ndarray]:
    """(row level, col level) of every vec index."""
    d = space.basis.dim
    return np.repeat(space.level, d), np.tile(space.level, d)


def to_csr(op: SuperOp) -> sparse.csr_matrix:
    """The full D^2 x D^2 matrix, assembled from the blocks of every sector."""
    sp = op.space
    rows, cols, data = [], [], []
    for k in range(-sp.n_max, sp.n_max + 1):
        blk = op.block(k).tocoo()
        rows.append(packed(sp, k + op.grade)[blk.row])
        cols.append(packed(sp, k)[blk.col])
        data.append(blk.data)
    n = sp.basis.dim ** 2
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
    d = sec.space.basis.dim
    out = np.zeros(d * d, dtype=np.complex128)
    out[packed(sec.space, sec.kappa)] = vec.data
    return out.reshape(d, d)


def from_matrix(sector: MonopoleSector, psi: np.ndarray) -> SectorVector:
    """The sector state of the grade-kappa entries of a D x D matrix."""
    return SectorVector(sector, psi.reshape(-1)[packed(sector.space, sector.kappa)]
                        .astype(np.complex128))


# ---------------------------------------------------------------------------
# level slices, sector states, leaf blocks, one-sided words and a shifted
# multiplier
# ---------------------------------------------------------------------------

def level_slice(basis: FockBasis, n: int) -> slice:
    """Contiguous index range of the level-n block."""
    if not 0 <= n <= basis.n_max:
        return slice(0, 0)
    start = int(basis.level_offsets[n])
    return slice(start, start + n + 1)


def basis_vector(sector: MonopoleSector, i: int) -> SectorVector:
    v = SectorVector(sector, np.zeros(sector.dim, dtype=np.complex128))
    v.data[i] = 1.0
    return v


def random_vector(sector: MonopoleSector, rng: np.random.Generator) -> SectorVector:
    z = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
    return SectorVector(sector, z)


def _sigma_word(a: int, first, second) -> SuperOp:
    """sigma^a_{al be} first(al) @ second(be); a = 4 is the trace."""
    if a == 4:
        return linear_combination(first(al) @ second(al) for al in (1, 2))
    return contract(PAULI[a - 1], lambda al, be: first(al) @ second(be))


def raise_word(space: Space, a: int) -> SuperOp:
    """Left-create/right-annihilate bilinear; shifts every block up one."""
    return _sigma_word(a, space.lmul_adag, space.rmul_a)


def lower_word(space: Space, a: int) -> SuperOp:
    """Right-create/left-annihilate bilinear; shifts every block down one."""
    return _sigma_word(a, space.rmul_adag, space.lmul_a)


def kron_leaf_block(space: Space, factor: CSR, shift: int, rows: bool, k: int) -> CSR:
    """Block k of Space._fock_leaf(factor, shift, rows), built level by
    level: on each input-level block n a kron of the level slice of factor
    with an identity, entries appended in the order of the block's copies
    and, within a copy, in the slice's row-major order.  The entry order
    sets the stored order of the block's rows, and with it the summation
    order of every later product."""
    f = factor.canonical()
    keep = f.data != 0
    f_row = np.repeat(np.arange(f.shape[0]), np.diff(f.indptr))[keep]
    f_col, fdata = f.indices[keep], f.data[keep]
    lo, li = space.level[f_row], space.level[f_col]
    offs = space.basis.level_offsets
    out_rel, in_rel = f_row - offs[lo], f_col - offs[li]
    grade = shift if rows else -shift
    ns, in_offs = space.sector_levels(k)
    out_ns, out_offs = space.sector_levels(k + grade)
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty)]
    for pos, n in enumerate(ns.tolist()):
        lvl, out_n = (n + k, n) if rows else (n, n + shift)
        if not 0 <= lvl + shift <= space.n_max:
            continue
        if rows:  # kron(I_{n+1}, slice) on the rows of the block
            step, copies, out_copy, in_copy = 1, n + 1, lvl + shift + 1, lvl + 1
        else:  # kron(slice, I_{n+k+1}) on its columns
            step = copies = n + k + 1
            out_copy = in_copy = 1
        e, i = np.flatnonzero(li == lvl), np.arange(copies)[:, None]
        parts.append((out_offs[out_n - out_ns[0]] + out_rel[e] * step + i * out_copy,
                      in_offs[pos] + in_rel[e] * step + i * in_copy,
                      np.broadcast_to(fdata[e], (copies, e.size))))
    return CSR.from_coo(*(np.concatenate([a.ravel() for a in arrays]) for arrays in zip(*parts)),
                        (int(out_offs[-1]), int(in_offs[-1])), f.phase)


def radial_leaf_block(space: Space, table: np.ndarray, phase: int, k: int) -> CSR:
    """Block k of a radial leaf's (table, phase): the diagonal that holds
    table[n + k, n] on each of the (n+1)(n+k+1) pairs of input-level block
    n, block by block."""
    ns = space.sector_levels(k)[0].tolist()
    values = [np.full((n + 1) * (n + k + 1), table[n + k, n]) for n in ns]
    return CSR.diags(np.concatenate([np.zeros(0, dtype=table.dtype), *values]), phase)


class Injected(SuperOp):
    """A leaf whose block(k) is rule(k), whatever rule returns or raises:
    entries that no leaf kind makes, or a read that fails.  It is a leaf
    as far as the engine knows; only its _compute differs."""

    __slots__ = ()

    def __init__(self, space: Space, rule, grade: int = 0):
        super().__init__(space, grade, kind="radial", data=(rule,))
        self.kind = "injected"

    def _compute(self, k: int) -> CSR:
        return self.data[0](k)


RF_INV_R_MINUS_2L = RadialFunction(
    "1/(r-2l)", lambda w, lam: 1.0 / (w - 2 * lam), poles=(2.0,)
)


# ---------------------------------------------------------------------------
# the fock and coords checks on scipy.sparse matrices
# ---------------------------------------------------------------------------

def ladder(basis: FockBasis, mode: int, kind: str) -> sparse.csr_matrix:
    """Ladder matrix with the standard sqrt factors; creation past n_max is cut to zero."""
    rows, cols, vals = [], [], []
    for i, (n1, n2) in enumerate(basis.states):
        occ = [n1, n2]
        if kind == "annihilate":
            if occ[mode - 1] == 0:
                continue
            amp = np.sqrt(occ[mode - 1])
            occ[mode - 1] -= 1
        else:
            if n1 + n2 + 1 > basis.n_max:
                continue
            amp = np.sqrt(occ[mode - 1] + 1)
            occ[mode - 1] += 1
        rows.append(basis.index[tuple(occ)])
        cols.append(i)
        vals.append(amp)
    return sparse.csr_matrix((np.array(vals, dtype=np.complex128), (rows, cols)),
                             shape=(basis.dim, basis.dim))


def frobenius_norm(mat: sparse.spmatrix) -> float:
    mat = sparse.csr_matrix(mat, copy=True)
    mat.sum_duplicates()
    return float(np.linalg.norm(mat.data))


def relative_norm(delta: sparse.spmatrix, *sides: sparse.spmatrix) -> float:
    num = frobenius_norm(delta) if delta.nnz else 0.0
    den = max([1.0] + [frobenius_norm(s) for s in sides if s.nnz])
    return float(num / den)


def fock_residuals(basis: FockBasis, guard: int) -> dict:
    """Residuals of the three fock-suite checks; ladder-canonical on the
    levels n <= n_max - guard (None when that leaves no level)."""
    a = [ladder(basis, m, "annihilate") for m in (1, 2)]
    ad = [ladder(basis, m, "create") for m in (1, 2)]
    null = 0.0
    for x, y in ((0, 0), (0, 1), (1, 1)):
        null = max(null, relative_norm((a[x] @ a[y] - a[y] @ a[x]).tocsr()))
        null = max(null, relative_norm((ad[x] @ ad[y] - ad[y] @ ad[x]).tocsr()))
    canonical = None
    if guard <= basis.n_max:
        keep = (basis.levels <= basis.n_max - guard).astype(np.complex128)
        proj = sparse.diags(keep).tocsr()
        eye = sparse.identity(basis.dim, dtype=np.complex128, format="csr")
        canonical = 0.0
        for x in range(2):
            for y in range(2):
                comm = a[x] @ ad[y] - ad[y] @ a[x]
                delta = (comm - (1.0 if x == y else 0.0) * eye) @ proj
                canonical = max(canonical, relative_norm(delta.tocsr(), (comm @ proj).tocsr()))
    total = sum(ad[m] @ a[m] for m in range(2))
    number = sparse.diags(basis.levels.astype(np.complex128)).tocsr()
    level = relative_norm((total - number).tocsr(), total.tocsr())
    return {"ladder-null-comm": null, "ladder-canonical": canonical, "number-level": level}


def coords_residuals(basis: FockBasis, lam: float) -> dict:
    """Residuals of the three coords-suite checks."""
    a = [ladder(basis, m, "annihilate") for m in (1, 2)]
    adag = [ladder(basis, m, "create") for m in (1, 2)]
    x = []
    for k in range(3):
        xk = sparse.csr_matrix((basis.dim, basis.dim), dtype=np.complex128)
        for al in range(2):
            for be in range(2):
                c = PAULI[k, al, be]
                if c != 0:
                    xk = xk + c * (adag[al] @ a[be])
        x.append((lam * xk).tocsr())
    r = (lam * sparse.diags((basis.levels + 1).astype(np.complex128))).tocsr()

    comm = 0.0
    for i in range(3):
        for j in range(3):
            lhs = x[i] @ x[j] - x[j] @ x[i]
            rhs = sparse.csr_matrix(x[0].shape, dtype=np.complex128)
            for k in range(3):
                if EPS3[i, j, k] != 0:
                    rhs = rhs + 2j * lam * EPS3[i, j, k] * x[k]
            comm = max(comm, relative_norm((lhs - rhs).tocsr(), lhs.tocsr(), rhs.tocsr()))
    radius = max(relative_norm((x[i] @ r - r @ x[i]).tocsr(), (x[i] @ r).tocsr())
                 for i in range(3))
    x2 = sum(x[i] @ x[i] for i in range(3))
    r2 = r @ r
    ident = sparse.identity(r.shape[0], dtype=np.complex128, format="csr")
    square = relative_norm((x2 - r2 + lam**2 * ident).tocsr(), x2.tocsr(), r2.tocsr())
    return {"coord-comm": comm, "coord-radius-comm": radius, "coord-radius-square": square}


def evaluate_alone(rec, ctx, kappa: int, guard: int, floor: float = 1.0):
    """rec.evaluate(ctx, kappa, guard, floor) of a pair identity, with every
    pair built and compared alone (or every tuple of words built and given
    to the record's reducer alone), outside any stream of the block memo."""
    memo = ctx.space.memo
    assert not (memo.shared or memo._reads or memo._ahead)  # no stream: blocks are computed
    win = ctx.sector(kappa).window(guard, rec.exclude_ws)
    if not win.block_mask.any():
        return None
    if rec.reduce is not None:
        residuals = [rec.reduce(win, *words) for words in rec.pairs(ctx)]
    else:
        residuals = [graded_residual(lhs, rhs, win.sector, win.guard, win.exclude_ws, floor)[0]
                     for lhs, rhs in rec.pairs(ctx)]
    if None in residuals:
        return None
    return float(np.max(residuals)), list(win.excluded)
