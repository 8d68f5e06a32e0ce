"""Sparse superoperator engine on the graded, truncated Fock space.

A state is a D x D complex matrix on the truncated Fock basis (D = dim F).
The three primitive families of linear maps on states are

  * left multiplication by a ladder matrix,
  * right multiplication by a ladder matrix,
  * radial multipliers, which multiply the entry of row level r and column
    level c by f(lam*(r + c + 2)/2), the functional calculus of the
    symmetrized radius.

Every superoperator is grade-homogeneous: it maps the charge-grade sector
k (entries with row level - col level = k) into sector k + grade.  So it is
read one block at a time: block(k) is the |S_{k+grade}| x |S_k| CSR matrix
from sector k into sector k + grade, on the packed sector bases.  The
packed basis of sector k is block-major by input level: the blocks of the
input levels n that Space.sector_levels(k) lists follow in ascending order, and
within the block of input level n the columns (the states of level n) run
outer and the rows (the states of level n + k) inner, each in Fock-basis
order.  So the entry of the i-th state of level n + k and the j-th state of
level n sits at j*(n + k + 1) + i past the block's offset.  No operator is
ever held as a D^2 x D^2 matrix, and no state as a D^2 vector; the grade is
the only support fact a superoperator carries.

  * Leaves.  In the fuzzy space the radius is a function of the Fock level,
    so no leaf needs anything D^2 long.  A radial multiplier (and the
    identity) is constant on each (row level, col level) block of pairs: it
    keeps an (n_max+1) x (n_max+1) table, and block(k) repeats table[n+k, n]
    over the (n+1)(n+k+1) pairs of input-level block n.  Left or right
    multiplication keeps its D x D Fock matrix M, which must shift the level
    by a fixed step, and block(k) is a kron of its level slices on each
    input-level block n: left multiplication acts on the rows of the block,
    kron(I_{n+1}, M[level n+k+drow, level n+k]) into block n of sector
    k+drow; right multiplication on its columns,
    kron(M[level n, level n+dcol]^T, I_{n+k+1}) into block n+dcol of sector
    k-dcol.
  * Composed nodes.  @, +, -, scalar * and plain_adjoint build a node that
    computes its blocks from its operands' blocks on demand:
    (A @ B).block(k) = A.block(k + B.grade) @ B.block(k).  weighted_adjoint
    is the product radius_inv() @ plain_adjoint() @ radius_op().
  * Radial multipliers.  RadialFunction.to_superop builds a function of the
    radius once per space; identity(), radius_op() and radius_inv() are
    those of RF_ONE, RF_R and RF_INV_R.
  * Memoisation.  Each Space holds one operator cache, a dict keyed by
    tuples: its ladder primitives, the radial multipliers (keyed by
    RadialFunction.name), the named operators of OperatorAlgebra and
    VelocityFamily, and the contractions the registry's EngineContext
    caches all enter it through cache_get, and only such an operator keeps
    the blocks it has computed.  An operator that one identity reads once
    per sector is not cached.  A transient operator keeps nothing once it
    is dropped.
    forget_blocks() walks that cache and empties every block memo while the
    operators stay cached.  The runner calls it whenever a process moves on
    to another sector kappa.  So memoised blocks live for one kappa, and a
    process that serves many kappas holds the blocks of one at a time.  Few
    blocks are read at more than one kappa, so little is recomputed.

Inside the engine a block is a _Block: CSR arrays with int32 indptr and
indices, and data that stand for the values 1j**phase * data, never mutated
once made.  Every operator of the model is built from the real matrix
elements of the ladder operators and from real radial functions; i enters
only as a scalar.  So nearly every block is all real or all imaginary, and
keeps float64 data with a phase p in {0, 1, 2, 3}.  Only a block that is
neither keeps complex128 data, with p = 0.  Leaves split their values when
they are built.  On float64 data, @ adds the phases (mod 4); + and - run
the float64 kernel when the phases agree and swap the two kernels when they
differ by 2; scaling by a real or imaginary scalar scales the data and
turns the phase, and a unit scalar (+-1, +-i) only turns the phase, sharing
the arrays; the adjoint is the transpose with the phase negated.  Phases
that differ by 1, or complex data, take the complex kernels, and their
result is split again.  Readers get complex128: block(k) wraps the values
as a scipy csr_matrix.

The result is bit for bit what the complex kernels give.  With the
imaginary parts zero they do the same float64 operations on the real parts
(x*y - 0*0, x + y), in the same order, and drop an entry exactly when it is
0; multiplying by a unit and negating are exact, and rounding is symmetric,
so a sum of negated terms is the negated sum.  Only the sign of a zero
imaginary or real part can differ, which no value or norm sees.

The default run does tens of thousands of small block products and sums,
and scipy's csr_matrix spends about three times as long in its Python
layer (format checks, index-dtype choice, pruning) as in the C kernels
that do the arithmetic.  So _Block calls those kernels itself, from the
private scipy.sparse._sparsetools module: csr_matmat_maxnnz/csr_matmat,
csr_plus_csr, csr_minus_csr and csr_tocsc are the functions csr_matrix's
own @, +, - and transpose-to-CSR call, and coo_tocsr the one its COO
conversion calls (for the Fock leaves).  Every result is trimmed as
csr_matrix trims it, so a block comes out bit for bit as the scipy
expression would give it.  tests/test_liouville.py holds them to that over
random real, imaginary and complex matrices, which also guards against the
kernels' signatures drifting between scipy releases.  Indices stay int32,
as scipy picks them at these sizes; a block dimension or a result size
past the int32 limit raises ValueError instead of overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _check_index(n: int) -> None:
    if n > _INDEX_MAX:
        raise ValueError(f"a block of {n} rows, columns or entries passes "
                         f"the int32 index limit {_INDEX_MAX}")


# 1j**phase, for turning (phase, float64 data) back into complex values.
_UNITS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _split(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(data, phase) with values == 1j**phase * data: float64 data when the
    values are all real (phase 0) or all imaginary (phase 1), else the
    complex128 values themselves."""
    values = np.asarray(values)
    if values.dtype.kind != "c":
        return values.astype(np.float64, copy=False), 0
    values = values.astype(np.complex128, copy=False)
    if not values.imag.any():
        return values.real.copy(), 0
    if not values.real.any():
        return values.imag.copy(), 1
    return values, 0


def _run_kernel(kernel, dims: tuple[int, int], operands: tuple, shape: tuple[int, int],
                maxnnz: int, phase: int = 0) -> "_Block":
    """kernel(*dims, *operands, indptr, indices, data) into fresh arrays.

    The data array has the dtype of the operands' data.  The arrays are
    sized for maxnnz entries, as csr_matrix sizes them, and trimmed to the
    entries the kernel stored as csr_matrix.prune trims them: the slice is
    copied when it is under half of the array.  Complex results are split
    again, so a block stays float64 whenever its values allow.
    """
    _check_index(maxnnz)
    indptr = np.empty(shape[0] + 1, dtype=np.int32)
    indices = np.empty(maxnnz, dtype=np.int32)
    data = np.empty(maxnnz, dtype=operands[-1].dtype)
    kernel(*dims, *operands, indptr, indices, data)
    nnz = int(indptr[-1])
    indices, data = indices[:nnz], data[:nnz]
    if nnz < maxnnz // 2:
        indices, data = indices.copy(), data.copy()
    if data.dtype == np.complex128:
        data, phase = _split(data)
    return _Block(indptr, indices, data, shape, phase)


class _Block:
    """One CSR block of a superoperator, 1j**phase times its data; its
    arrays are never mutated."""

    __slots__ = ("indptr", "indices", "data", "shape", "phase")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int], phase: int = 0):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = shape
        self.phase = phase

    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int], phase: int = 0) -> "_Block":
        """The CSR form of distinct (row, col, 1j**phase * value) entries.

        Entries keep their given order within a row, so they come out with
        sorted indices when each row's entries are given by ascending column.
        """
        m, n = shape
        data, turn = _split(data)
        phase = (phase + turn) % 4
        _check_index(max(m, n, data.size))
        indptr = np.empty(m + 1, dtype=np.int32)
        indices = np.empty(data.size, dtype=np.int32)
        values = np.empty(data.size, dtype=data.dtype)
        _sparsetools.coo_tocsr(m, n, data.size, rows.astype(np.int32, copy=False),
                               cols.astype(np.int32, copy=False), data, indptr, indices, values)
        return cls(indptr, indices, values, shape, phase)

    @classmethod
    def diagonal(cls, values: np.ndarray, phase: int = 0) -> "_Block":
        """diag(1j**phase * values), without the zero entries (as sparse.diags
        drops them)."""
        data, turn = _split(values)
        phase = (phase + turn) % 4
        n = data.size
        _check_index(n)
        keep = data != 0
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(keep, out=indptr[1:])
        return cls(indptr, np.flatnonzero(keep).astype(np.int32), data[keep], (n, n), phase)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def is_float(self) -> bool:
        """Whether data is float64 (the block is 1j**phase times it)."""
        return self.data.dtype == np.float64

    def values(self) -> np.ndarray:
        """The complex128 values of the stored entries, in a new array."""
        if self.is_float:
            return self.data * _UNITS[self.phase]
        return self.data.copy()

    def _arrays(self) -> tuple:
        return self.indptr, self.indices, self.data

    def _complex_arrays(self) -> tuple:
        """_arrays() with complex128 values, for the complex kernels."""
        return self.indptr, self.indices, self.values() if self.is_float else self.data

    def tocsr(self) -> sparse.csr_matrix:
        """A scipy copy with complex128 values, free for the reader to change."""
        return sparse.csr_matrix((self.values(), self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)

    def __matmul__(self, other: "_Block") -> "_Block":
        (m, inner), (inner_b, n) = self.shape, other.shape
        if inner != inner_b:
            raise ValueError(f"block shapes {self.shape} and {other.shape} do not chain")
        maxnnz = _sparsetools.csr_matmat_maxnnz(m, n, self.indptr, self.indices,
                                                other.indptr, other.indices)
        if self.is_float and other.is_float:
            operands, phase = self._arrays() + other._arrays(), self.phase + other.phase
        else:
            operands, phase = self._complex_arrays() + other._complex_arrays(), 0
        return _run_kernel(_sparsetools.csr_matmat, (m, n), operands, (m, n), maxnnz, phase % 4)

    def _binop(self, other: "_Block", minus: bool) -> "_Block":
        if self.shape != other.shape:
            raise ValueError(f"block shapes {self.shape} and {other.shape} differ")
        shift = (other.phase - self.phase) % 4
        if self.is_float and other.is_float and shift % 2 == 0:
            # at a shift of 2, other is -1 times its data relative to self
            operands, phase = self._arrays() + other._arrays(), self.phase
            minus ^= shift == 2
        else:
            operands, phase = self._complex_arrays() + other._complex_arrays(), 0
        kernel = _sparsetools.csr_minus_csr if minus else _sparsetools.csr_plus_csr
        return _run_kernel(kernel, self.shape, operands, self.shape, self.nnz + other.nnz, phase)

    def __add__(self, other: "_Block") -> "_Block":
        return self._binop(other, minus=False)

    def __sub__(self, other: "_Block") -> "_Block":
        return self._binop(other, minus=True)

    def scale(self, scalar: complex) -> "_Block":
        """scalar times the block; a unit scalar (+-1, +-1j) on float64 data
        changes the phase only and shares the arrays."""
        c = complex(scalar)
        if self.is_float and (c.imag == 0 or c.real == 0):
            # c = 1j**turn * factor with a positive or zero factor
            turn, factor = (0, c.real) if c.imag == 0 else (1, c.imag)
            if factor < 0:
                turn, factor = turn + 2, -factor
            data = self.data if factor == 1.0 else self.data * factor
            return _Block(self.indptr, self.indices, data, self.shape, (self.phase + turn) % 4)
        data, phase = _split(self.values() * c)
        return _Block(self.indptr, self.indices, data, self.shape, phase)

    def adjoint(self) -> "_Block":
        """The conjugate transpose: on float64 data, the transpose with the
        phase negated."""
        m, n = self.shape
        data, phase = ((self.data, -self.phase % 4) if self.is_float
                       else (np.conj(self.data), 0))
        return _run_kernel(_sparsetools.csr_tocsc, (m, n), (self.indptr, self.indices, data),
                           (n, m), self.nnz, phase)


BlockRule = Callable[[int], _Block]


class SuperOp:
    """A grade-homogeneous linear map on operator-valued states.

    SuperOp(space, grade, rule=rule) reads block(k) as rule(k), which must
    map sector k into sector k + grade.  Leaves come from Space and
    compositions from the operators below, never by hand.

    grade : net change of (row level - col level); shifts which graded
        subspace the output lives in.  All sums must be grade-homogeneous.
    """

    def __init__(self, space: "Space", grade: int = 0, *, rule: BlockRule):
        self.space = space
        self.grade = grade
        self._rule = rule
        self._blocks: Optional[dict[int, _Block]] = None

    def _check_space(self, other: "SuperOp") -> None:
        if self.space is not other.space:
            raise ValueError("superoperators live on different spaces")

    # -- blocks ---------------------------------------------------------------

    def memoise(self) -> None:
        """Keep every block computed from now on (for cached operators),
        until forget_blocks()."""
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
        blk = self._rule(k)
        dims = self.space.sector_dims
        if blk.shape != (dims.get(k + self.grade, 0), dims.get(k, 0)):
            raise ValueError(f"a {blk.shape} block does not map sector {k} into sector "
                             f"{k + self.grade}: its support has another grade")
        if memo is not None:
            memo[k] = blk
        return blk

    # -- composition ----------------------------------------------------------

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        self._check_space(other)
        a, b = self, other
        return SuperOp(self.space, grade=a.grade + b.grade,
                       rule=lambda k: a.raw_block(k + b.grade) @ b.raw_block(k))

    def __add__(self, other: "SuperOp") -> "SuperOp":
        self._check_space(other)
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch in sum: {self.grade} vs {other.grade}")
        a, b = self, other
        return SuperOp(self.space, grade=a.grade, rule=lambda k: a.raw_block(k) + b.raw_block(k))

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return self + (-1.0) * other

    def __neg__(self) -> "SuperOp":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "SuperOp":
        return SuperOp(self.space, grade=self.grade, rule=lambda k: self.raw_block(k).scale(scalar))

    __rmul__ = __mul__

    def plain_adjoint(self) -> "SuperOp":
        """Adjoint for the unweighted Frobenius pairing."""
        return SuperOp(self.space, grade=-self.grade,
                       rule=lambda k: self.raw_block(k - self.grade).adjoint())

    def weighted_adjoint(self) -> "SuperOp":
        """Adjoint for the radius-weighted trace inner product: W^-1 M^H W."""
        return self.space.radius_inv() @ self.plain_adjoint() @ self.space.radius_op()


class Space:
    """Shared context: Fock basis, primitive superoperators, radial calculus."""

    def __init__(self, n_max: int, lam: float = 1.0):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.n_max = n_max
        self.lam = float(lam)
        self.basis: FockBasis = build_basis(n_max)
        self.dim = self.basis.dim
        self.level = self.basis.levels

        # (row level, col level) tables: symmetrized radius and grade
        n = np.arange(n_max + 1)
        self.level_w = self.lam * (n[:, None] + n[None, :] + 2) / 2.0
        self.level_grade = n[:, None] - n[None, :]

        self._a = [annihilator(self.basis, 1), annihilator(self.basis, 2)]
        self._adag = [creator(self.basis, 1), creator(self.basis, 2)]
        # the one operator cache of this truncation (see Memoisation above)
        self._cache: dict[tuple, object] = {}
        self._sectors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # dimension of every nonempty sector
        self.sector_dims = {k: int(self.sector_levels(k)[1][-1])
                            for k in range(-n_max, n_max + 1)}

    # -- sectors --------------------------------------------------------------

    def sector_levels(self, kappa: int) -> tuple[np.ndarray, np.ndarray]:
        """Input levels of the grade-kappa sector, ascending, and the offsets
        of their blocks in the packed order (one entry more than levels)."""
        if kappa not in self._sectors:
            n = np.arange(max(0, -kappa), min(self.n_max, self.n_max - kappa) + 1)
            offsets = np.zeros(n.size + 1, dtype=np.int64)
            np.cumsum((n + 1) * (n + kappa + 1), out=offsets[1:])
            self._sectors[kappa] = (n, offsets)
        return self._sectors[kappa]

    # -- primitives ---------------------------------------------------------

    def identity(self) -> SuperOp:
        return RF_ONE.to_superop(self)

    def left_mul(self, mat: sparse.spmatrix, drow: int) -> SuperOp:
        """Psi -> mat Psi; every nonzero entry of mat raises the level by drow."""
        return self._fock_leaf(mat, drow, rows=True)

    def right_mul(self, mat: sparse.spmatrix, dcol: int) -> SuperOp:
        """Psi -> Psi mat; every nonzero entry of mat raises the level by dcol
        from its row to its column."""
        return self._fock_leaf(mat.T, dcol, rows=False)

    def _fock_leaf(self, factor: sparse.spmatrix, shift: int, rows: bool) -> SuperOp:
        """Multiplication of each input-level block by level slices of factor.

        factor maps level L to level L + shift.  It acts on the rows of the
        block (left multiplication, factor = mat) or on its columns (right
        multiplication, factor = mat^T).
        """
        f = sparse.csr_matrix(factor, dtype=np.complex128, copy=True)
        f.sum_duplicates()
        f.eliminate_zeros()
        f = f.tocoo()  # row-major, ascending columns within a row
        fdata, phase = _split(f.data)
        lo, li = self.level[f.row], self.level[f.col]
        if np.any(lo - li != shift):
            raise ValueError(f"the matrix has entries that do not shift the level by {shift}")
        offs = self.basis.level_offsets
        out_rel, in_rel = f.row - offs[lo], f.col - offs[li]
        # the entries of each input level, in row-major order
        order = np.argsort(li, kind="stable")
        bounds = np.searchsorted(li[order], np.arange(self.n_max + 2))
        slices = [order[bounds[lvl]:bounds[lvl + 1]] for lvl in range(self.n_max + 1)]
        grade = shift if rows else -shift
        empty = np.zeros(0, dtype=np.int64)

        def rule(k: int) -> _Block:
            ns, in_offs = self.sector_levels(k)
            out_ns, out_offs = self.sector_levels(k + grade)
            parts = [(empty, empty, empty)]
            for pos, n in enumerate(ns.tolist()):
                # the level the factor reads, and the output block's input level
                lvl, out_n = (n + k, n) if rows else (n, n + shift)
                if not 0 <= lvl + shift <= self.n_max:
                    continue
                # kron(I_{n+1}, slice) on the rows of the block: slice entries
                # step 1, copies step by the slice's size; kron(slice,
                # I_{n+k+1}) on its columns: entries step n+k+1, copies 1.
                # Each output row gets the entries of one copy, in order.
                if rows:
                    step, copies, out_copy, in_copy = 1, n + 1, lvl + shift + 1, lvl + 1
                else:
                    step = copies = n + k + 1
                    out_copy = in_copy = 1
                e, i = slices[lvl], np.arange(copies)[:, None]
                parts.append((out_offs[out_n - out_ns[0]] + out_rel[e] * step + i * out_copy,
                              in_offs[pos] + in_rel[e] * step + i * in_copy,
                              np.broadcast_to(fdata[e], (copies, e.size))))
            return _Block.from_coo(*(np.concatenate([a.ravel() for a in arrays])
                                     for arrays in zip(*parts)),
                                   (int(out_offs[-1]), int(in_offs[-1])), phase)

        return SuperOp(self, grade=grade, rule=rule)

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

    def radial_values(self, table: np.ndarray) -> SuperOp:
        """The diagonal multiplier with value table[row level, col level] on
        every pair of those levels."""
        table, phase = _split(np.array(table))
        if table.shape != self.level_w.shape:
            raise ValueError(f"a radial table has shape {self.level_w.shape}, not {table.shape}")

        def rule(k: int) -> _Block:
            ns, offsets = self.sector_levels(k)
            return _Block.diagonal(np.repeat(table[ns + k, ns], np.diff(offsets)), phase)

        return SuperOp(self, rule=rule)

    def radial(self, fn: Callable[[np.ndarray], np.ndarray],
               poles: tuple[float, ...] = ()) -> SuperOp:
        """Diagonal multiplier f(r_hat); pole-adjacent pairs are zeroed.

        poles are given in units of lam.  Zeroed pairs must be excluded from
        any comparison window by the caller (the registry tracks this).
        """
        w = self.level_w
        mask = self.near_pole(poles)
        vals = np.zeros(w.shape, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals[~mask] = fn(w[~mask])
        return self.radial_values(vals)

    def near_pole(self, poles: Iterable[float], rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Whether the radius level_w[rows, cols] of each (row level, col
        level) pair lies within POLE_TOL*lam of a pole (poles in units of
        lam)."""
        w_over_lam = self.level_w[rows, cols] / self.lam
        hit = np.zeros(w_over_lam.shape, dtype=bool)
        for p in poles:
            hit |= np.abs(w_over_lam - p) < POLE_TOL
        return hit

    def radius_op(self) -> SuperOp:
        """Multiplication by the symmetrized radius."""
        return RF_R.to_superop(self)

    def radius_inv(self) -> SuperOp:
        return RF_INV_R.to_superop(self)

    def radial_phase(self, omega: float) -> SuperOp:
        """exp(i*omega*r_hat/lam): exponential of the diagonal radius generator."""
        return self.radial_values(np.exp(1j * omega * self.level_w / self.lam))

    def grading_twist(self, tau: float) -> SuperOp:
        """Phase substitution a -> e^{i tau} a, a+ -> e^{-i tau} a+ on states."""
        return self.radial_values(np.exp(-1j * tau * self.level_grade))


@dataclass(frozen=True)
class RadialFunction:
    """A function of the radius with its pole positions (in units of lam).

    fn maps (w, lam) -> values; evaluation on a Space zeroes pole-adjacent
    pairs, which callers must exclude from comparison windows.
    """

    name: str
    fn: Callable[[np.ndarray, float], np.ndarray]
    poles: tuple[float, ...] = ()

    def shifted(self, steps: int) -> "RadialFunction":
        """f(r + steps*lam) as a new descriptor; poles move by -steps."""
        base = self.fn
        return RadialFunction(
            name=f"{self.name}(r{steps:+d}l)",
            fn=lambda w, lam: base(w + steps * lam, lam),
            poles=tuple(p - steps for p in self.poles),
        )

    def to_superop(self, space: Space) -> SuperOp:
        """The multiplier f(r_hat) on space, built once per space (keyed by name)."""
        return space._cached(("rf", self.name),
                             lambda: space.radial(lambda w: self.fn(w, space.lam), self.poles))


# the identity, the radius and its inverse are these multipliers
RF_ONE = RadialFunction("1", lambda w, lam: np.ones_like(w))
RF_R = RadialFunction("r", lambda w, lam: w)
RF_INV_R = RadialFunction("1/r", lambda w, lam: 1.0 / w, poles=(0.0,))


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


def forget_blocks() -> None:
    """Empty the block memo of every cached operator on a space that
    get_space has made; the operators stay cached."""
    for space in _SPACES.values():
        for op in space._cache.values():
            if isinstance(op, SuperOp):
                op._blocks.clear()
