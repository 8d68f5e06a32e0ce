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
    so no leaf needs anything D^2 long; a leaf is data of one of two kinds.
    A "radial" leaf (a radial multiplier, and the identity) is constant on
    each (row level, col level) block of pairs: it keeps an (n_max+1) x
    (n_max+1) table, and block(k) repeats table[n+k, n] over the
    (n+1)(n+k+1) pairs of input-level block n.  A "fock" leaf (left or
    right multiplication) keeps its D x D Fock factor M, which must shift
    the level by a fixed step, and block(k) is a kron of its level slices
    on each input-level block n: left multiplication acts on the rows of
    the block, kron(I_{n+1}, M[level n+k+drow, level n+k]) into block n of
    sector k+drow; right multiplication on its columns,
    kron(M[level n, level n+dcol]^T, I_{n+k+1}) into block n+dcol of sector
    k-dcol.  So each kind gets its block shapes from its sectors.
  * Composed nodes.  @, +, -, scalar * and plain_adjoint build a node that
    keeps its expression (SuperOp.kind, args, scalar).  SuperOp._compute,
    the one interpreter of every kind, computes blocks on demand:
    (A @ B).block(k) = A.block(k + B.grade) @ B.block(k).  weighted_adjoint
    is radius_inv() @ plain_adjoint() @ radius_op().
  * Radial multipliers.  RadialFunction.to_superop builds a function of the
    radius once per space; identity(), radius_op() and radius_inv() are
    those of RF_ONE, RF_R and RF_INV_R.
  * Memoisation.  Each Space holds one operator cache and one block memo
    (Space.memo, a BlockMemo) that every block read goes through, keyed by
    sector and SuperOp.sid, a structure id fixed when the node is built.
    Ladder primitives, radial multipliers (keyed by RadialFunction.name)
    and the named operators of OperatorAlgebra, VelocityFamily and the
    registry's EngineContext enter the cache through cache_get, named by
    their keys in str(op), and the memo keeps their blocks until a stream
    at another kappa starts, or the next stream once a read outside a
    stream has kept a block; reading a sector or a window leaves the memo
    as it is.  Any other operator computes its blocks on each read, except
    while BlockMemo.stream replays the stream_plan of a batch of pairs: then
    the nodes of equal sid share each block while the current or the next
    pair reads it.  A plan does not depend on kappa (shared blocks are
    keyed by sector - kappa), so the registry makes it, as it builds the
    batch's pairs, once per context.

Inside the engine a block is a CSR (the csr module): CSR arrays whose
data stand for 1j**phase * data, float64 whenever the values are all real
or all imaginary, computed by scipy's compiled sparse kernels.  Readers
get complex128: block(k) wraps the values as a scipy csr_matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Container, Iterable, Iterator, Sequence

import numpy as np

from .csr import CSR, split
from .fock import FockBasis, annihilator, build_basis, creator

# Pole proximity tolerance, in units of lam (radial multipliers refuse blocks
# whose eigenvalue sits this close to a pole).
POLE_TOL = 1e-9


StreamPlan = tuple[list[int], list[dict]]  # order, and reads of the next pair at each turn
_FORMS = {"matmul": "({} @ {})", "add": "({} + {})", "sub": "({} - {})",  # str of each kind
          "scale": "({c} * {})", "adjoint": "{}^H"}

_FRESH_IDS = itertools.count()  # ids that match no other node, never reused


class SuperOp:
    """A grade-homogeneous linear map on operator-valued states, held as data.

    A leaf has no operands, only data: a "fock" leaf (Space.left_mul,
    right_mul) keeps (factor, shift, rows, out_rel, in_rel, fdata, bounds)
    and a "radial" leaf (Space.radial_values) keeps (table, phase).  A
    composed node's kind is "matmul", "add", "sub", "scale" (by scalar) or
    "adjoint" (plain_adjoint); it reads its operands args at the sectors
    k + shifts.  _compute is the one interpreter that turns any node into
    a block.  Nodes come from Space and from the operators below, never by
    hand.

    grade : net change of (row level - col level); shifts which graded
        subspace the output lives in.  All sums must be grade-homogeneous.
    sid : the structure id by which space.memo keys its blocks (BlockMemo).
    name : the key under which cache_get keeps it, else None.
    """

    __slots__ = ("space", "grade", "kind", "args", "shifts", "scalar", "data", "sid",
                 "kept", "name", "__weakref__")

    def __init__(self, space: "Space", grade: int = 0, *, kind: str,
                 args: tuple["SuperOp", ...] = (), scalar: complex = 1.0, data: tuple = ()):
        if (kind in ("fock", "radial")) != bool(data) or bool(data) == bool(args):
            raise TypeError(f"a leaf has data and no operands, a composed node the reverse: {kind}")
        self.space = space
        self.grade = grade
        self.kind = kind
        self.args = args
        self.shifts = ((args[1].grade, 0) if kind == "matmul" else
                       (-args[0].grade,) if kind == "adjoint" else (0,) * len(args))
        self.scalar = scalar
        self.data = data
        self.sid = space.memo.structure_id(self)
        self.kept = False  # whether space.memo keeps its blocks (set by cache_get)
        self.name = None

    def __str__(self) -> str:
        """The node's word: a kept operator's cache key, a leaf's kind, or
        a composed node's expression."""
        if self.kept:
            head, *rest = self.name
            return head + (f"({', '.join(map(str, rest))})" if rest else "")
        c = self.scalar.real if not self.scalar.imag else self.scalar
        return _FORMS[self.kind].format(*self.args, c=c) if self.args else self.kind

    def _check_space(self, other: "SuperOp") -> None:
        if self.space is not other.space:
            raise ValueError("superoperators live on different spaces")

    # -- blocks ---------------------------------------------------------------

    def block(self, k: int) -> "scipy.sparse.csr_matrix":
        """The map from sector k into sector k + grade, on packed bases, as
        a scipy matrix for readers (the run reads raw_block)."""
        return self.raw_block(k).tocsr()

    def raw_block(self, k: int) -> CSR:
        """block(k) as the engine holds it; its arrays must not be changed."""
        return self.space.memo.read(self, k)

    def _compute(self, k: int) -> CSR:
        """block(k): a leaf's from its data, a composed node's from its
        operands' blocks."""
        kind, args, read = self.kind, self.args, self.space.memo.read
        if kind == "fock":  # entries in the order that Space._fock_leaf states
            factor, shift, rows, out_rel, in_rel, fdata, bounds = self.data
            ns, in_offs = self.space.sector_levels(k)
            out_ns, out_offs = self.space.sector_levels(k + self.grade)
            shape = (int(out_offs[-1]), int(in_offs[-1]))
            if not (ns.size and out_ns.size):  # no entry; k may be too large for int64
                return CSR.from_coo(ns[:0], ns[:0], fdata[:0], shape, factor.phase)
            # the input-level blocks whose level slice of the factor is not
            # cut off by the truncation, the level the slice reads, and the
            # input level of the output block
            lvl = ns + k if rows else ns
            pos = np.flatnonzero((lvl + shift >= 0) & (lvl + shift <= self.space.n_max))
            n, lvl = ns[pos], lvl[pos]
            # kron(I_{n+1}, slice) on the rows of the block: slice entries
            # step 1, copies step by the slice's size; kron(slice, I_{n+k+1})
            # on its columns: entries step n+k+1, copies 1.  Each block's
            # entries run copy by copy, each copy's in slice order, so each
            # output row gets the entries of one copy, in order.
            one = np.ones_like(n)
            if rows:
                out_n, step, copies, out_copy, in_copy = n, one, n + 1, lvl + shift + 1, lvl + 1
            else:
                out_n, step, copies, out_copy, in_copy = n + shift, n + k + 1, n + k + 1, one, one
            per_copy = bounds[lvl + 1] - bounds[lvl]
            sizes = copies * per_copy
            # the block, the copy and the slice entry of every entry
            blk = np.repeat(np.arange(n.size), sizes)
            copy, e = np.divmod(np.arange(blk.size) - (np.cumsum(sizes) - sizes)[blk],
                                per_copy[blk])
            e += bounds[lvl][blk]
            step = step[blk]
            return CSR.from_coo(out_offs[out_n - out_ns[0]][blk] + out_rel[e] * step
                                + copy * out_copy[blk],
                                in_offs[pos][blk] + in_rel[e] * step + copy * in_copy[blk],
                                fdata[e], shape, factor.phase)
        if kind == "radial":  # table[n + k, n] on every pair of input-level block n
            table, phase = self.data
            ns, offsets = self.space.sector_levels(k)
            return CSR.diags(np.repeat(table[ns + k, ns], np.diff(offsets)), phase)
        if kind == "scale":
            return read(args[0], k).scale(self.scalar)
        if kind == "adjoint":
            return read(args[0], k + self.shifts[0]).adjoint()
        # the second operand of @, + and - is read at sector k
        a, b = read(args[0], k + self.shifts[0]), read(args[1], k)
        return a @ b if kind == "matmul" else a + b if kind == "add" else a - b

    # -- composition ----------------------------------------------------------

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        self._check_space(other)
        return SuperOp(self.space, self.grade + other.grade, kind="matmul", args=(self, other))

    def _sum(self, other: "SuperOp", kind: str) -> "SuperOp":
        self._check_space(other)
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch in sum: {self.grade} vs {other.grade}")
        return SuperOp(self.space, self.grade, kind=kind, args=(self, other))

    def __add__(self, other: "SuperOp") -> "SuperOp":
        return self._sum(other, "add")

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        return self._sum(other, "sub")

    def __mul__(self, scalar: complex) -> "SuperOp":
        return SuperOp(self.space, self.grade, kind="scale", args=(self,), scalar=complex(scalar))

    __rmul__ = __mul__

    def plain_adjoint(self) -> "SuperOp":
        """Adjoint for the unweighted Frobenius pairing."""
        return SuperOp(self.space, -self.grade, kind="adjoint", args=(self,))

    def weighted_adjoint(self) -> "SuperOp":
        """Adjoint for the radius-weighted trace inner product: W^-1 M^H W."""
        return self.space.radius_inv() @ self.plain_adjoint() @ self.space.radius_op()


class BlockMemo:
    """Every block that a Space keeps: each raw_block read goes through read().

    Blocks are keyed by SuperOp.sid and sector.  A node's sid is fixed when
    it is built (structure_id) and when cache_get keeps it.  A leaf, a kept
    operator and a scale node with a NaN scalar match no other node; a
    composed node matches the nodes of equal kind and operands, and a scale
    node also needs equal scalar bits (0.0 and -0.0 differ).  The structure
    table lasts as long as the space.  A kept operator's blocks, keyed by
    (sid, sector), stay until stream() starts at another kappa, so the
    streams of several parts of one kappa reuse them; once a read outside a
    stream has kept a block, the next stream starts with none.  A transient
    operator computes its blocks on each read, except while stream()
    replays the plan of a batch of pairs, read at sector kappa: then the
    nodes of equal sid share them, keyed by (sid, sector - kappa), so that
    no plan depends on kappa.  The caller keeps the plans.
    """

    def __init__(self):
        self.kappa = 0  # the sector the memo is at
        self.kept: dict[tuple[int, int], CSR] = {}  # (sid, sector) -> block of a kept operator
        self._table: dict[tuple, int] = {}  # (kind, operand sids[, scalar bits]) -> sid
        self._drop_stream()

    def _drop_stream(self) -> None:
        self._kept_after = len(self.kept)  # kept blocks once no stream runs; only reads add more
        self.shared: dict[tuple[int, int], CSR] = {}  # (sid, sector - kappa) -> block
        self._reads: dict[tuple[int, int], int] = {}  # reads left in the current pair
        self._ahead: dict[tuple[int, int], int] = {}  # reads of the next pair

    def structure_id(self, op: SuperOp) -> int:
        """The sid of a node being built, from its kind, operands and scalar."""
        kind, c = op.kind, op.scalar  # only a scale node has a scalar other than 1.0
        if not op.args or c != c:  # a leaf, or a NaN scale
            return next(_FRESH_IDS)
        key = (kind, *(a.sid for a in op.args))
        if kind == "scale":
            key += (c.real.hex(), c.imag.hex())
        return self._table.setdefault(key, -1 - len(self._table))

    def stream(self, plan: StreamPlan, kappa: int) -> Iterator[int]:
        """Replay plan (stream_plan) at sector kappa, first dropping the
        kept blocks of another kappa, or all of them once a read outside a
        stream has kept one: yield the position of each pair in
        its order, once the memo has counted the reads of the pair after
        it.  A shared block stays while the current or the next pair reads
        it, and nothing once the stream ends, also when the caller or a
        block raises, or the caller stops iterating."""
        if kappa != self.kappa or len(self.kept) != self._kept_after:
            self.kept.clear()
            self.kappa = kappa
        order, steps = plan
        try:
            self._turn(steps[0])
            for pos, ahead in zip(order, steps[1:]):
                self._turn(ahead)
                yield pos
        finally:
            self._drop_stream()

    def _turn(self, ahead: dict[tuple[int, int], int]) -> None:
        """Start the pair that was ahead; ahead counts the reads of the
        next one ({} after the last).  Drop each shared block that neither
        reads."""
        self._reads, self._ahead = dict(self._ahead), ahead
        self.shared = {key: blk for key, blk in self.shared.items()
                       if key in ahead or key in self._reads}

    def read(self, op: SuperOp, k: int) -> CSR:
        """op.raw_block(k)."""
        if op.kept:
            key = (op.sid, k)
            blk = self.kept.get(key)
            if blk is None:
                blk = self.kept[key] = op._compute(k)
            return blk
        key = (op.sid, k - self.kappa)
        left = self._reads.pop(key, 0) - 1
        blk = self.shared.pop(key, None)
        if blk is None:
            blk = op._compute(k)
        if left > 0:
            self._reads[key] = left
        if left > 0 or key in self._ahead:
            self.shared[key] = blk
        return blk


def stream_order(reads: list[Collection]) -> list[int]:
    """The order in which to compare pairs, given the keys each one reads:
    the first pair, then each time the unvisited pair that shares the most
    keys with the current one, the earliest on a tie or when none shares."""
    holders: dict = {}  # key -> the unvisited pairs that read it
    for i, keys in enumerate(reads):
        for key in keys:
            holders.setdefault(key, set()).add(i)
    order, unvisited, cur = [], dict.fromkeys(range(len(reads))), 0  # in index order
    while unvisited:
        order.append(cur)
        del unvisited[cur]
        shared: dict[int, int] = {}  # unvisited pair -> keys it shares with cur
        for key in reads[cur]:
            holders[key].discard(cur)
            for j in holders[key]:
                shared[j] = shared.get(j, 0) + 1
        cur = min(shared, key=lambda j: (-shared[j], j)) if shared else next(iter(unvisited), 0)
    return order


def _walk(ops: Iterable[SuperOp], held: Container = ()) -> dict[tuple[int, int], int]:
    """How often ops, read at sector kappa, read each transient (structure,
    sector - kappa); a read of a key in held finds its block and reads
    nothing below it."""
    reads = {}
    todo = [(op, 0) for op in ops if not op.kept]
    while todo:
        op, k = todo.pop()
        key = (op.sid, k)
        reads[key] = reads.get(key, 0) + 1
        if reads[key] == 1 and key not in held:
            todo += [(a, k + d) for a, d in zip(op.args, op.shifts) if not a.kept]
    return reads


def stream_plan(pairs: Sequence[tuple[SuperOp, ...]]) -> StreamPlan:
    """The plan that BlockMemo.stream replays for pairs, at any kappa: the
    stream_order of the pairs' full walks, and the reads of each pair in
    that order, walked with the blocks of the pair before it held, then {}
    for the turn after the last.  It computes no block."""
    order = stream_order([_walk(pair).keys() for pair in pairs])
    steps = [{}]
    for pair in [pairs[pos] for pos in order] + [()]:
        steps.append(_walk(pair, steps[-1]))
    return order, steps[1:]


class Space:
    """Shared context of one truncation: Fock basis, its one copy of the
    ladder matrices a and adag, primitive superoperators, radial calculus."""

    def __init__(self, n_max: int, lam: float = 1.0):
        if not 0 < lam < np.inf:  # NaN fails both comparisons
            raise ValueError(f"lam must be a positive finite number, got {lam}")
        self.n_max = n_max
        self.lam = float(lam)
        self.basis: FockBasis = build_basis(n_max)
        self.level = self.basis.levels

        # (row level, col level) tables: symmetrized radius and grade
        n = np.arange(n_max + 1)
        self.level_w = self.lam * (n[:, None] + n[None, :] + 2) / 2.0
        self.level_grade = n[:, None] - n[None, :]

        self.a = [annihilator(self.basis, 1), annihilator(self.basis, 2)]
        self.adag = [creator(self.basis, 1), creator(self.basis, 2)]
        # the one operator cache of this truncation (see Memoisation above)
        self._cache: dict[tuple, object] = {}
        self.memo = BlockMemo()  # every block this space keeps
        self._sectors: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- sectors --------------------------------------------------------------

    def sector_levels(self, kappa: int) -> tuple[np.ndarray, np.ndarray]:
        """Input levels of the grade-kappa sector, ascending, and the offsets
        of their blocks in the packed order (one entry more than levels).
        Every grade beyond +-n_max has the empty sector of n_max + 1, also
        one too large for int64."""
        if kappa not in self._sectors:
            k = min(max(kappa, -self.n_max - 1), self.n_max + 1)
            n = np.arange(max(0, -k), min(self.n_max, self.n_max - k) + 1)
            offsets = np.zeros(n.size + 1, dtype=np.int64)
            np.cumsum((n + 1) * (n + k + 1), out=offsets[1:])
            self._sectors[kappa] = (n, offsets)
        return self._sectors[kappa]

    # -- primitives ---------------------------------------------------------

    def identity(self) -> SuperOp:
        return RF_ONE.to_superop(self)

    def left_mul(self, mat: CSR, drow: int) -> SuperOp:
        """Psi -> mat Psi; every nonzero entry of mat raises the level by drow."""
        return self._fock_leaf(mat, drow, rows=True)

    def right_mul(self, mat: CSR, dcol: int) -> SuperOp:
        """Psi -> Psi mat; every nonzero entry of mat raises the level by dcol
        from its row to its column."""
        return self._fock_leaf(mat.transpose(), dcol, rows=False)

    def _fock_leaf(self, factor: CSR, shift: int, rows: bool) -> SuperOp:
        """Multiplication of each input-level block by level slices of factor.

        factor maps level L to level L + shift.  It acts on the rows of the
        block (left multiplication, factor = mat) or on its columns (right
        multiplication, factor = mat^T).  The leaf keeps factor's entries
        by input level, row-major within a level, and where each level's
        start.  From them SuperOp._compute builds a block's entries in one
        set of array operations over all its input levels, in the order of
        a level-by-level kron: input level by input level, copy by copy of
        the level slice, and within a copy in the slice's row-major order.
        That order is the stored order of each row's entries.
        """
        f = factor.canonical()  # row-major, ascending columns within a row
        keep = f.data != 0
        f_row = np.repeat(np.arange(f.shape[0]), np.diff(f.indptr))[keep]
        f_col, fdata = f.indices[keep], f.data[keep]
        lo, li = self.level[f_row], self.level[f_col]
        if np.any(lo - li != shift):
            raise ValueError(f"the matrix has entries that do not shift the level by {shift}")
        order = np.argsort(li, kind="stable")
        f_row, f_col, lo, li, fdata = (a[order] for a in (f_row, f_col, lo, li, fdata))
        offs, bounds = self.basis.level_offsets, np.searchsorted(li, np.arange(self.n_max + 2))
        return SuperOp(self, shift if rows else -shift, kind="fock", data=(
            factor, shift, rows, f_row - offs[lo], f_col - offs[li], fdata, bounds))

    def lmul_a(self, alpha: int) -> SuperOp:
        """Left multiplication by a_alpha (grade -1)."""
        return self._cached(("la", alpha), lambda: self.left_mul(self.a[alpha - 1], drow=-1))

    def lmul_adag(self, alpha: int) -> SuperOp:
        """Left multiplication by a+_alpha (grade +1)."""
        return self._cached(("lad", alpha), lambda: self.left_mul(self.adag[alpha - 1], drow=+1))

    def rmul_a(self, alpha: int) -> SuperOp:
        """Right multiplication by a_alpha (grade -1, col level +1)."""
        return self._cached(("ra", alpha), lambda: self.right_mul(self.a[alpha - 1], dcol=+1))

    def rmul_adag(self, alpha: int) -> SuperOp:
        """Right multiplication by a+_alpha (grade +1, col level -1)."""
        return self._cached(("rad", alpha), lambda: self.right_mul(self.adag[alpha - 1], dcol=-1))

    def _cached(self, key: tuple, builder: Callable[[], SuperOp]) -> SuperOp:
        return cache_get(self._cache, key, builder)

    # -- radial calculus ----------------------------------------------------

    def radial_values(self, table: np.ndarray) -> SuperOp:
        """The diagonal multiplier with value table[row level, col level] on
        every pair of those levels."""
        table, phase = split(np.array(table))
        if table.shape != self.level_w.shape:
            raise ValueError(f"a radial table has shape {self.level_w.shape}, not {table.shape}")
        return SuperOp(self, kind="radial", data=(table, phase))

    def radial(self, fn: Callable[[np.ndarray], np.ndarray],
               poles: tuple[float, ...] = ()) -> SuperOp:
        """Diagonal multiplier f(r_hat); pole-adjacent pairs are zeroed.

        poles are given in units of lam.  Zeroed pairs must be excluded from
        any comparison window by the caller (the registry tracks this).
        """
        w = self.level_w
        mask = self.near_pole(poles, w)
        vals = np.zeros(w.shape, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals[~mask] = fn(w[~mask])
        return self.radial_values(vals)

    def near_pole(self, poles: Iterable[float], w: np.ndarray) -> np.ndarray:
        """Whether each radius of w (values of level_w) lies within
        POLE_TOL*lam of a pole (poles in units of lam)."""
        w_over_lam = w / self.lam
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

    A superoperator that enters a cache is kept: its space's memo keeps
    its blocks (BlockMemo), and its key, a tuple (name, *args), names it;
    this is the only place that keeps an operator.
    """
    if key not in cache:
        value = builder()
        if isinstance(value, SuperOp):
            value.kept = True
            value.name = key  # what str(value) prints
            value.sid = next(_FRESH_IDS)  # a kept operator matches no other node
        cache[key] = value
    return cache[key]


def commutator(a: SuperOp, b: SuperOp) -> SuperOp:
    return a @ b - b @ a


def anticommutator(a: SuperOp, b: SuperOp) -> SuperOp:
    return a @ b + b @ a


_SPACES: dict[tuple[int, float], Space] = {}


def get_space(n_max: int, lam: float = 1.0) -> Space:
    key = (n_max, float(lam))
    if key not in _SPACES:
        _SPACES[key] = Space(n_max, lam)
    return _SPACES[key]

