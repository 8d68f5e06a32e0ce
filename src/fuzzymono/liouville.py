"""Sparse superoperator engine on the vectorized truncated Fock space.

States of the graded Hilbert spaces are D x D complex matrices on the
truncated Fock basis (D = dim F), vectorized row-major: matrix entry (r, c)
sits at index r*D + c of a D^2 vector.  The three primitive families are

  * left multiplication by a ladder matrix,
  * right multiplication by a ladder matrix,
  * radial multipliers: diagonal in the pair basis with value
    f(lam*(level_r + level_c + 2)/2), the functional calculus of the
    symmetrized radius.

Every superoperator is grade-homogeneous: it maps the charge-grade sector
k (entries with row level - col level = k) into sector k + grade.  So it is
read one block at a time: block(k) is the |S_{k+grade}| x |S_k| CSR matrix
from sector k into sector k + grade, on the packed sector bases
(Space.packed, the order of MonopoleSector.packed).

  * Leaves.  A ladder primitive keeps its D^2 x D^2 kron matrix `mat` and
    slices its blocks out of it; the identity and the radial multipliers
    keep their value per pair, `values`.
  * Composed nodes.  @, +, -, scalar *, plain_adjoint and weighted_adjoint
    build a node that computes its blocks from its operands' blocks on
    demand: (A @ B).block(k) = A.block(k + B.grade) @ B.block(k).  A
    composed node has no `mat`.
  * Memoisation.  Only an operator that enters a cache through cache_get
    keeps the blocks it has computed: the ladder primitives of a Space, the
    named operators of OperatorAlgebra and VelocityFamily, and what the
    registry's EngineContext caches.  A transient operator keeps nothing
    once it is dropped.

Inside the engine a block is a _Block: CSR arrays with int32 indptr and
indices and complex128 data, which are never mutated once made.  A leaf
converts its block once; every rule and every memo then holds _Blocks, and
block(k) wraps one as a scipy csr_matrix for readers outside the engine.
The default run does tens of thousands of small block products and sums,
and scipy's csr_matrix spends about three times as long in its Python
layer (format checks, index-dtype choice, pruning) as in the C kernels
that do the arithmetic.  So _Block calls those kernels itself, from the
private scipy.sparse._sparsetools module: csr_matmat_maxnnz/csr_matmat,
csr_plus_csr, csr_minus_csr and csr_tocsc are the functions csr_matrix's
own @, +, - and transpose-to-CSR call, and every result is trimmed as
csr_matrix trims it, so a block comes out bit for bit as the scipy
expression would give it.  tests/test_liouville.py holds them to that over
random matrices, which also guards against the kernels' signatures
drifting between scipy releases.  Indices stay int32, as scipy picks them
at these sizes; a block dimension or a result size past the int32 limit
raises ValueError instead of overflowing.

to_csr() assembles the full D^2 x D^2 matrix from the blocks of every
sector.  The engine never needs it; tests and the support checks
(measured_grades, measured_col_shifts) do.  Every superoperator also
carries its net row/col level shift so the truncation bookkeeping can be
checked against that support.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .fock import FockBasis, annihilator, build_basis, creator

# Pole proximity tolerance, in units of lam (radial multipliers refuse blocks
# whose eigenvalue sits this close to a pole).
POLE_TOL = 1e-9

# Largest block dimension or stored-entry count the int32 indices can hold.
_INDEX_MAX = int(np.iinfo(np.int32).max)


def _merge_shift(x: Optional[int], y: Optional[int]) -> Optional[int]:
    if x is None or y is None:
        return None
    return x + y


def _check_index(n: int) -> None:
    if n > _INDEX_MAX:
        raise ValueError(f"a block of {n} rows, columns or entries passes "
                         f"the int32 index limit {_INDEX_MAX}")


def _run_kernel(kernel, dims: tuple[int, int], operands: tuple, shape: tuple[int, int],
                maxnnz: int) -> "_Block":
    """kernel(*dims, *operands, indptr, indices, data) into fresh arrays.

    The arrays are sized for maxnnz entries, as csr_matrix sizes them, and
    trimmed to the entries the kernel stored as csr_matrix.prune trims them:
    the slice is copied when it is under half of the array.
    """
    _check_index(maxnnz)
    indptr = np.empty(shape[0] + 1, dtype=np.int32)
    indices = np.empty(maxnnz, dtype=np.int32)
    data = np.empty(maxnnz, dtype=np.complex128)
    kernel(*dims, *operands, indptr, indices, data)
    nnz = int(indptr[-1])
    indices, data = indices[:nnz], data[:nnz]
    if nnz < maxnnz // 2:
        indices, data = indices.copy(), data.copy()
    return _Block(indptr, indices, data, shape)


class _Block:
    """One CSR block of a superoperator; its arrays are never mutated."""

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape

    @classmethod
    def from_csr(cls, mat: sparse.csr_matrix) -> "_Block":
        _check_index(max(*mat.shape, mat.nnz))
        return cls(mat.indptr.astype(np.int32, copy=False),
                   mat.indices.astype(np.int32, copy=False),
                   mat.data.astype(np.complex128, copy=False), mat.shape)

    @classmethod
    def diagonal(cls, values: np.ndarray) -> "_Block":
        """diag(values), without the zero entries (as sparse.diags drops them)."""
        n = values.size
        _check_index(n)
        keep = values != 0
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(keep, out=indptr[1:])
        return cls(indptr, np.flatnonzero(keep).astype(np.int32),
                   values[keep].astype(np.complex128), (n, n))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def _arrays(self) -> tuple:
        return self.indptr, self.indices, self.data

    def tocsr(self) -> sparse.csr_matrix:
        """A scipy copy, free for the reader to change."""
        return sparse.csr_matrix((self.data.copy(), self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)

    def __matmul__(self, other: "_Block") -> "_Block":
        (m, inner), (inner_b, n) = self.shape, other.shape
        if inner != inner_b:
            raise ValueError(f"block shapes {self.shape} and {other.shape} do not chain")
        maxnnz = _sparsetools.csr_matmat_maxnnz(m, n, self.indptr, self.indices,
                                                other.indptr, other.indices)
        return _run_kernel(_sparsetools.csr_matmat, (m, n),
                           self._arrays() + other._arrays(), (m, n), maxnnz)

    def _binop(self, other: "_Block", kernel) -> "_Block":
        if self.shape != other.shape:
            raise ValueError(f"block shapes {self.shape} and {other.shape} differ")
        return _run_kernel(kernel, self.shape, self._arrays() + other._arrays(),
                           self.shape, self.nnz + other.nnz)

    def __add__(self, other: "_Block") -> "_Block":
        return self._binop(other, _sparsetools.csr_plus_csr)

    def __sub__(self, other: "_Block") -> "_Block":
        return self._binop(other, _sparsetools.csr_minus_csr)

    def scale(self, scalar: complex) -> "_Block":
        return _Block(self.indptr, self.indices, self.data * scalar, self.shape)

    def adjoint(self) -> "_Block":
        """The conjugate transpose."""
        m, n = self.shape
        out = _run_kernel(_sparsetools.csr_tocsc, (m, n), self._arrays(), (n, m), self.nnz)
        np.conj(out.data, out=out.data)
        return out


BlockRule = Callable[[int], _Block]


class SuperOp:
    """A grade-homogeneous linear map on vectorized operator-valued states.

    SuperOp(space, mat, grade) is a leaf given by its full sparse matrix,
    whose support must have grade `grade`; SuperOp(space, values=v) is the
    diagonal leaf with value v[i] on pair i.  Compositions are made with the
    operators below, never by hand.

    grade : net change of (row level - col level); shifts which graded
        subspace the output lives in.  All sums must be grade-homogeneous.
    drow, dcol : net row/col level shifts (None once a sum mixes shifts).
    """

    def __init__(self, space: "Space", mat: Optional[sparse.spmatrix] = None,
                 grade: int = 0, drow: Optional[int] = 0, dcol: Optional[int] = 0, *,
                 values: Optional[np.ndarray] = None, rule: Optional[BlockRule] = None):
        if (mat is None) + (values is None) + (rule is None) != 2:
            raise ValueError("give exactly one of mat, values and rule")
        self.space = space
        self.mat = mat
        self.values = values
        self.grade = grade
        self.drow = drow
        self.dcol = dcol
        self._rule = rule
        self._blocks: Optional[dict[int, _Block]] = None
        if mat is not None:
            coo = mat.tocoo()
            nz = coo.data != 0
            g = space.pair_grade
            found = set((g[coo.row[nz]] - g[coo.col[nz]]).tolist())
            if found - {grade}:
                raise ValueError(f"support has grades {sorted(found)}, not {grade}")

    def _check_space(self, other: "SuperOp") -> None:
        if self.space is not other.space:
            raise ValueError("superoperators live on different spaces")

    # -- blocks ---------------------------------------------------------------

    def memoise(self) -> None:
        """Keep every block computed from now on (for cached operators)."""
        if self._blocks is None:
            self._blocks = {}

    def block(self, k: int) -> sparse.csr_matrix:
        """The map from sector k into sector k + grade, on packed bases."""
        return self.raw_block(k).tocsr()

    def raw_block(self, k: int) -> _Block:
        """block(k) as the engine holds it; its arrays must not be changed."""
        memo = self._blocks
        if memo is not None and k in memo:
            return memo[k]
        sp = self.space
        if self._rule is not None:
            blk = self._rule(k)
        elif self.values is not None:
            blk = _Block.diagonal(self.values[sp.packed(k)])
        else:
            blk = _Block.from_csr(self.mat[sp.packed(k + self.grade)][:, sp.packed(k)])
        if memo is not None:
            memo[k] = blk
        return blk

    def to_csr(self) -> sparse.csr_matrix:
        """The full D^2 x D^2 matrix, assembled from the blocks of every sector."""
        if self.mat is not None:
            return self.mat.tocsr()
        sp = self.space
        if self.values is not None:
            return _Block.diagonal(self.values).tocsr()
        rows, cols, data = [], [], []
        for k in range(-sp.n_max, sp.n_max + 1):
            blk = self.block(k).tocoo()
            rows.append(sp.packed(k + self.grade)[blk.row])
            cols.append(sp.packed(k)[blk.col])
            data.append(blk.data)
        n = sp.dim ** 2
        return sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))

    # -- composition ----------------------------------------------------------

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        self._check_space(other)
        a, b = self, other
        return SuperOp(self.space, grade=a.grade + b.grade, drow=_merge_shift(a.drow, b.drow),
                       dcol=_merge_shift(a.dcol, b.dcol),
                       rule=lambda k: a.raw_block(k + b.grade) @ b.raw_block(k))

    def __add__(self, other: "SuperOp") -> "SuperOp":
        self._check_space(other)
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch in sum: {self.grade} vs {other.grade}")
        a, b = self, other
        return SuperOp(self.space, grade=a.grade, drow=a.drow if a.drow == b.drow else None,
                       dcol=a.dcol if a.dcol == b.dcol else None,
                       rule=lambda k: a.raw_block(k) + b.raw_block(k))

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return self + (-1.0) * other

    def __neg__(self) -> "SuperOp":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "SuperOp":
        return SuperOp(self.space, grade=self.grade, drow=self.drow, dcol=self.dcol,
                       rule=lambda k: self.raw_block(k).scale(scalar))

    __rmul__ = __mul__

    def plain_adjoint(self) -> "SuperOp":
        """Adjoint for the unweighted Frobenius pairing."""
        return SuperOp(self.space, grade=-self.grade,
                       drow=None if self.drow is None else -self.drow,
                       dcol=None if self.dcol is None else -self.dcol,
                       rule=lambda k: self.raw_block(k - self.grade).adjoint())

    def weighted_adjoint(self) -> "SuperOp":
        """Adjoint for the radius-weighted trace inner product: W^-1 M^H W."""
        adj = self.plain_adjoint()
        sp = self.space
        w = sp.pair_w

        def rule(k: int) -> _Block:
            w_out, w_in = w[sp.packed(k + adj.grade)], w[sp.packed(k)]
            return _Block.diagonal(1.0 / w_out) @ adj.raw_block(k) @ _Block.diagonal(w_in)

        return SuperOp(sp, grade=adj.grade, drow=adj.drow, dcol=adj.dcol, rule=rule)

    # -- support checks -------------------------------------------------------

    def measured_grades(self) -> set[int]:
        """Grade shifts actually present in the sparse support."""
        coo = self.to_csr().tocoo()
        g = self.space.pair_grade
        return set((g[coo.row] - g[coo.col]).tolist())

    def measured_col_shifts(self) -> set[int]:
        coo = self.to_csr().tocoo()
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

        self._a = [annihilator(self.basis, 1), annihilator(self.basis, 2)]
        self._adag = [creator(self.basis, 1), creator(self.basis, 2)]
        self._eye = sparse.identity(d, dtype=np.complex128, format="csr")
        self._cache: dict[tuple, SuperOp] = {}
        self._packed: dict[int, np.ndarray] = {}

    def packed(self, kappa: int) -> np.ndarray:
        """Vec indices of the grade-kappa sector, block-major by input level.

        Within the block of input level n, columns (level n) run outer and
        rows (level n + kappa) inner.  Empty when no level pair has grade
        kappa.
        """
        if kappa not in self._packed:
            d = self.dim
            parts = [np.zeros(0, dtype=np.int64)]
            for n in range(max(0, -kappa), min(self.n_max, self.n_max - kappa) + 1):
                cols, rows = self.basis.level_slice(n), self.basis.level_slice(n + kappa)
                parts.append((np.arange(rows.start, rows.stop)[None, :] * d
                              + np.arange(cols.start, cols.stop)[:, None]).ravel())
            self._packed[kappa] = np.concatenate(parts)
        return self._packed[kappa]

    # -- primitives ---------------------------------------------------------

    def identity(self) -> SuperOp:
        return SuperOp(self, values=np.ones(self.dim**2, dtype=np.complex128))

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
        return cache_get(self._cache, key, builder)

    # -- radial calculus ----------------------------------------------------

    def radial_values(self, values: np.ndarray) -> SuperOp:
        return SuperOp(self, values=values.astype(np.complex128))

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


def cache_get(cache: dict, key, builder: Callable[[], object]):
    """cache[key], built on first use.

    A superoperator that enters a cache memoises its blocks; this is the
    only place that turns memoisation on.
    """
    if key not in cache:
        value = builder()
        if isinstance(value, SuperOp):
            value.memoise()
        cache[key] = value
    return cache[key]


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
