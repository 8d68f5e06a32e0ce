"""Identity registry: every relation the engine verifies, with its window.

Each record gives the identity a stable id, the suite it belongs to, the
relation it checks (in engine notation), a default guard (the word length of
the deeper side), the block radii its closed form must exclude (in units of
lam, already expanded by the word's shifts), and an optional tolerance
override for round-off-exact relations.

An identity is one of two kinds:

  * a pair function, ctx -> (lhs, rhs), ...: a generator of the pairs
    whose equality the identity states, or of other tuples of words, built
    from the context alone. Pair rows always reduce: reduce(win, *words)
    turns each tuple into a number or None (default sector.pair_residual).
  * a scalar check, (ctx, win) -> outcome, which reads no block itself:
    matrix-level Fock and coordinate relations, table-level bounds on the
    sector's radii and weights, and the scaling suite, which evaluates
    its base row.

evaluate_batch evaluates every row of one batch (the rows of one kappa, or
an interleaved part of them): each scalar check through its record's
builder, then the pairs of all pair rows, built and planned once per
context (liouville.stream_plan) and compared in the order in which the
space's block memo streams them (liouville.BlockMemo.stream), each on the
guarded window of the requested sector without its record's pole blocks.
IdentityRecord.evaluate of one pair identity is its one-row case. That
stream is the only code of a run that reads a superoperator block:
canonical-pairing streams OperatorAlgebra.canonical_pairs(), and only
tests and the benchmark's tracer reach canonical_pairing_residual.

Both give (residual, excluded_blocks); a check or a reducer may give None
when it has nothing to fit (reported as skipped). IdentityRecord.window is
the one place that decides a row's window (sector.Window): for a per-kappa
identity the guarded window of sector kappa, with the guard of the row
(the record's, or the run's --guard override) and without the blocks at
exclude_ws; for a kappa-independent one Window(sector=None, guard=...).
When a sector's window is empty the identity is skipped without calling
it, so no pair function or check sees an empty window, and every per-block
check computes on exactly that window. The checks of the fock, coords and
su22 matrix rows and fierz are matrix-level: they read at most the guard.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from ..algebra import (
    OperatorAlgebra,
    RF_INV_R,
    RF_INV_R2,
    RF_MONOPOLE,
    RF_ONE,
    RF_Q,
    RF_R,
    RF_R2,
    RadialFunction,
    first_difference,
    radial_annihilator,
    second_difference,
    su22_bracket_rhs,
)
from ..csr import CSR
from ..fock import interior_projector, number_operator
from ..liouville import (
    SuperOp,
    anticommutator,
    cache_get,
    commutator,
    get_space,
    stream_plan,
)
from ..monopole import (
    VelocityFamily,
    charge_fit,
    monopole_profile_op,
    rotation_flow_pairs,
)
from ..ncspace import (
    EPS3,
    PAULI,
    build_coordinates,
    contract,
    levi_civita,
    linear_combination,
    relative_norm,
    verify_coordinate_algebra,
)
from ..sector import (MonopoleSector, Window, block_entries, build_sector, pair_residual,
                      window_inner)
from ..su22 import (
    PAIRS,
    matrix_closure_residual,
    matrix_gamma_residual,
)

Outcome = Optional[tuple[float, list[int]]]
Pair = tuple[SuperOp, SuperOp]

U_INDEX = [(1, 1), (1, 2), (2, 1), (2, 2)]
_TWIST_TAUS = (np.pi / 7, 1.0, 2.5)  # the angles of sector-grading's twists

# radial coefficients of the [U, U+] rewrites
RF_INV_R2ML = RadialFunction(
    "1/(r^2-l^2)", lambda w, lam: 1.0 / (w * w - lam**2), poles=(1.0, -1.0))
RF_RHO_L = RadialFunction(
    "l/(r(r^2-l^2))", lambda w, lam: lam / (w * (w * w - lam**2)), poles=(0.0, 1.0, -1.0))
RF_MUL_M = RadialFunction(
    "l(r-l)/(r^2-l^2)", lambda w, lam: lam * (w - lam) / (w * w - lam**2), poles=(1.0, -1.0))
RF_MUL_P = RadialFunction(
    "l(r+l)/(r^2-l^2)", lambda w, lam: lam * (w + lam) / (w * w - lam**2), poles=(1.0, -1.0))
RF_C_L2 = RadialFunction(
    "l^2/(r^2-l^2)", lambda w, lam: lam**2 / (w * w - lam**2), poles=(1.0, -1.0))
RF_C_LR = RadialFunction(
    "lr/(r^2-l^2)", lambda w, lam: lam * w / (w * w - lam**2), poles=(1.0, -1.0))
RF_Q_CORR = RadialFunction(
    "1/(r(r+l))", lambda w, lam: 1.0 / (w * (w + lam)), poles=(0.0, -1.0))


class EngineContext:
    """Per-(n_max, lam) operator workspace shared by all identity builders."""

    def __init__(self, n_max: int, lam: float):
        self.n_max = n_max
        self.lam = lam
        self.space = get_space(n_max, lam)
        self.alg = OperatorAlgebra(self.space)
        self.vel = VelocityFamily(self.alg)
        self._cache = self.space._cache

    def cached(self, key: tuple, builder: Callable[[], object]):
        """Whatever builder makes, kept in the space's operator cache."""
        return cache_get(self._cache, key, builder)

    def radial(self, f: RadialFunction) -> SuperOp:
        """The multiplier f(r_hat), cached on the space (RadialFunction.to_superop)."""
        return f.to_superop(self.space)

    def sector(self, kappa: int) -> MonopoleSector:
        """Sector kappa; the space's block memo is left as it is."""
        return build_sector(kappa, self.n_max, self.lam)

    def one_sided_sigma(self, k: int, side: str) -> SuperOp:
        """sigma^k-contracted number bilinear on one multiplication side."""
        sp = self.space
        adag, a = (sp.lmul_adag, sp.lmul_a) if side == "left" else (sp.rmul_adag, sp.rmul_a)
        return contract(PAULI[k - 1], lambda al, be: adag(al) @ a(be))


_CONTEXTS: dict[tuple[int, float], EngineContext] = {}


def get_context(n_max: int, lam: float) -> EngineContext:
    key = (n_max, float(lam))
    if key not in _CONTEXTS:
        _CONTEXTS[key] = EngineContext(n_max, lam)
    return _CONTEXTS[key]


PairFunction = Callable[[EngineContext], Iterator[Pair]]
Check = Callable[[EngineContext, Window], Outcome]


@dataclass(frozen=True)
class IdentityRecord:
    """One identity: a pair function (pairs) with its reducer (reduce, by
    default pair_residual), or a scalar check (check), which reads no block.

    builder(ctx, kappa, guard) is what evaluate_batch calls for a scalar
    check; it evaluates the pair identities of a batch together. builder
    defaults to evaluate, also on a copy made by dataclasses.replace; a
    tool that wraps each check (a tracer) passes its wrapper through
    dataclasses.replace.
    """

    id: str
    suite: str
    formula: str  # relation in engine notation, or "plumbing"
    pairs: Optional[PairFunction] = field(default=None, compare=False)
    check: Optional[Check] = field(default=None, compare=False)
    reduce: Optional[Callable[..., Optional[float]]] = field(default=None, compare=False)
    guard: int = 0
    tol: Optional[float] = None  # None: use the run's global tolerance
    exclude_ws: tuple[float, ...] = ()
    per_kappa: bool = True
    builder: Optional[Callable[[EngineContext, Optional[int], int], Outcome]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if (self.pairs is None) == (self.check is None) or (self.reduce and self.check):
            raise ValueError(f"{self.id}: give exactly one of pairs and check, reduce with pairs")
        if self.pairs is not None and self.reduce is None:
            object.__setattr__(self, "reduce", pair_residual)
        # a copy (dataclasses.replace) evaluates itself, not the record it copies
        if (self.builder is None
                or getattr(self.builder, "__func__", None) is IdentityRecord.evaluate):
            object.__setattr__(self, "builder", self.evaluate)

    def window(self, ctx: EngineContext, kappa: Optional[int], guard: int) -> Optional[Window]:
        """The row's window: on sector kappa the guarded window (guard,
        without the blocks at exclude_ws), or None when it is empty; for a
        kappa-independent check (kappa None) Window(sector=None, guard).

        This is the one place that decides a row's Window; the reducers
        and the checks read it."""
        if kappa is None:
            return Window(sector=None, guard=guard)
        win = ctx.sector(kappa).window(guard, self.exclude_ws)
        return win if win.block_mask.any() else None

    def evaluate(self, ctx: EngineContext, kappa: Optional[int], guard: int) -> Outcome:
        """Outcome on sector kappa (None: a kappa-independent check), or None
        when the row's window is empty. A pair identity is the one-row case
        of evaluate_batch."""
        if self.pairs is not None:
            return evaluate_batch(ctx, kappa, [(self, guard)])[0][0]
        win = self.window(ctx, kappa, guard)
        return None if win is None else self.check(ctx, win)


def evaluate_batch(ctx: EngineContext, kappa: Optional[int],
                   rows: list[tuple[IdentityRecord, int]]) -> list[tuple[Outcome, float]]:
    """The outcome of each (record, guard) row of one batch on sector kappa
    (None: a batch of kappa-independent checks), and the seconds it took.

    The scalar checks run first, in row order, each through its record's
    builder; they read no block. Then the pairs of the pair rows are compared
    in the order that the space's block memo streams them at kappa
    (BlockMemo.stream), each by its row's reducer, which reads every block of
    its words before it returns. A pair function runs once per context: its
    pairs, trees of lazy nodes that hold no block, are kept in the context's
    cache under the function itself, so a dataclasses.replace copy with pairs
    of its own builds its own. The batch's stream_plan is kept there under the
    pair functions of its live rows, those with a window. A pair row's seconds
    are those of building (when the batch does) and comparing its own pairs;
    the row compared first also gets the planning. A row whose window is empty
    is skipped (None), and nothing of it is called. A pair row's residual is
    the largest over its own pairs (np.max, unlike max, keeps a NaN residual of
    any pair), or None when its reducer gives None."""
    out: list[Outcome] = [None] * len(rows)
    seconds = [0.0] * len(rows)
    for i, (rec, guard) in enumerate(rows):
        if rec.pairs is None:
            t0 = time.perf_counter()
            out[i] = rec.builder(ctx, kappa, guard)
            seconds[i] = time.perf_counter() - t0
    wins = {i: rec.window(ctx, kappa, guard)
            for i, (rec, guard) in enumerate(rows) if rec.pairs is not None}
    residuals: dict[int, list[float]] = {i: [] for i, win in wins.items() if win is not None}
    pairs: list[tuple[SuperOp, ...]] = []
    owners: list[int] = []  # the row of each pair
    for i in residuals:
        fn = rows[i][0].pairs
        t0 = time.perf_counter()
        built = cache_get(ctx._cache, ("pairs", fn), lambda: list(fn(ctx)))
        seconds[i] += time.perf_counter() - t0
        if not built:
            raise ValueError(f"{rows[i][0].id}: its pair function yields no pair")
        pairs += built
        owners += [i] * len(built)
    if pairs:
        t0 = time.perf_counter()
        plan = cache_get(ctx._cache, ("plan", *(rows[i][0].pairs for i in residuals)),
                         lambda: stream_plan(pairs))
        for pos in ctx.space.memo.stream(plan, kappa):
            i = owners[pos]
            residuals[i].append(rows[i][0].reduce(wins[i], *pairs[pos]))
            t1 = time.perf_counter()
            seconds[i] += t1 - t0
            t0 = t1
    for i, vals in residuals.items():
        out[i] = None if None in vals else (float(np.max(vals)), list(wins[i].excluded))
    return list(zip(out, seconds))


# ---------------------------------------------------------------------------
# fock / coords (kappa-independent, matrix level)
# ---------------------------------------------------------------------------

def _fock_null_comm(ctx: EngineContext, win: Window) -> Outcome:
    a, ad = ctx.space.a, ctx.space.adag
    worst = 0.0
    for x, y in itertools.combinations_with_replacement(range(2), 2):
        worst = max(worst, relative_norm(a[x] @ a[y] - a[y] @ a[x]))
        worst = max(worst, relative_norm(ad[x] @ ad[y] - ad[y] @ ad[x]))
    return worst, []


def _fock_canonical(ctx: EngineContext, win: Window) -> Outcome:
    """[a_x, a+_y] = delta_xy on the levels n <= n_max - guard; None (a
    skip) when the guard leaves no level."""
    basis, guard = ctx.space.basis, win.guard
    if guard > basis.n_max:
        return None
    proj = interior_projector(basis, guard)
    eye = CSR.identity(basis.dim)
    a, ad = ctx.space.a, ctx.space.adag
    worst = 0.0
    for x in range(2):
        for y in range(2):
            comm = a[x] @ ad[y] - ad[y] @ a[x]
            delta = (comm - eye if x == y else comm) @ proj
            worst = max(worst, relative_norm(delta, comm @ proj))
    return worst, list(range(basis.n_max - guard + 1, basis.n_max + 1))


def _fock_number(ctx: EngineContext, win: Window) -> Outcome:
    a, ad = ctx.space.a, ctx.space.adag
    total = ad[0] @ a[0] + ad[1] @ a[1]
    return relative_norm(total - number_operator(ctx.space.basis), total), []


def _coords(which: str) -> Check:
    def check(ctx: EngineContext, win: Window) -> Outcome:
        res = ctx.cached(("coords",),
                         lambda: verify_coordinate_algebra(build_coordinates(ctx.space)))
        return res[which], []

    return check


# ---------------------------------------------------------------------------
# su22 suite
# ---------------------------------------------------------------------------

def _matrix_gamma(ctx, win) -> Outcome:
    return matrix_gamma_residual(), []


def _matrix_closure(ctx, win) -> Outcome:
    return matrix_closure_residual(), []


def _cross_side(ctx: EngineContext) -> Iterator[Pair]:
    sp = ctx.space
    for al in (1, 2):
        for be in (1, 2):
            for left in (sp.lmul_a(al), sp.lmul_adag(al)):
                for right in (sp.rmul_a(be), sp.rmul_adag(be)):
                    yield left @ right, right @ left


def _op_closure(ctx: EngineContext) -> Iterator[Pair]:
    for (a, b), (c, d) in itertools.combinations(PAIRS, 2):
        lhs = commutator(ctx.alg.generator(a, b), ctx.alg.generator(c, d))
        rhs = su22_bracket_rhs(ctx.alg, a, b, c, d)
        yield lhs, rhs


def _central(ctx: EngineContext) -> Iterator[Pair]:
    """C + 2 against the grade operator, which is kappa on sector kappa."""
    sp = ctx.space
    yield ctx.alg.center_plus_two(), sp.radial_values(sp.level_grade)


def _central_ordering(ctx: EngineContext) -> Iterator[Pair]:
    """Literal-ordered central element agrees away from the top block."""
    yield ctx.alg.center_naive(), ctx.alg.center()


def _radius_s05(ctx: EngineContext) -> Iterator[Pair]:
    yield ctx.space.radius_op(), ctx.lam * ctx.alg.generator(0, 5)


def _radius_s05_ordered(ctx: EngineContext) -> Iterator[Pair]:
    sp = ctx.space
    left = sp.lmul_adag(1) @ sp.lmul_a(1) + sp.lmul_adag(2) @ sp.lmul_a(2)
    right = sp.rmul_a(1) @ sp.rmul_adag(1) + sp.rmul_a(2) @ sp.rmul_adag(2)
    s05_alt = 0.5 * (left + right)
    yield sp.radius_op(), ctx.lam * (s05_alt + sp.identity())


# ---------------------------------------------------------------------------
# radial suite: sector structure and shift calculus
# ---------------------------------------------------------------------------

def _sector_grading(win: Window, *twists: SuperOp) -> float:
    kappa = win.sector.kappa
    worst = 0.0
    for tau, twist in zip(_TWIST_TAUS, twists):
        vals = twist.raw_block(kappa).diagonal()[win.column_mask]
        worst = max(worst, float(np.max(np.abs(vals - np.exp(-1j * tau * kappa)))))
    return worst


def _sector_gram(ctx: EngineContext, win: Window) -> Outcome:
    """The basis Gram matrix is diagonal and positive on the window.

    The radius-weighted pairing (sector.inner_product) of basis elements j
    and k is 4 pi lam^2 w[j] delta_jk, so the Gram matrix is diagonal by
    construction and its eigenvalues are those pairings: the check reads
    them for every column of the window, NaN when one overflows, otherwise
    the most negative against the largest in magnitude."""
    gram = 4.0 * np.pi * ctx.lam**2 * win.sector.packed_weights()[win.column_mask]
    excluded = list(win.excluded)
    if not np.isfinite(gram).all():
        return float("nan"), excluded
    return max(0.0, -float(gram.min())) / float(np.abs(gram).max()), excluded


def _radius_def(ctx: EngineContext) -> Iterator[Pair]:
    sp = ctx.space
    r_mat = CSR.diags(sp.lam * (sp.level + 1))
    direct = 0.5 * (sp.left_mul(r_mat, drow=0) + sp.right_mul(r_mat, dcol=0))
    yield sp.radius_op(), direct


_SHIFT_FAMILY = (RF_R, RF_R2, RF_INV_R)


def _shift_rule(ctx: EngineContext) -> Iterator[Pair]:
    for f in _SHIFT_FAMILY:
        fr, frp, frm = ctx.radial(f), ctx.radial(f.shifted(+1)), ctx.radial(f.shifted(-1))
        for al, be in U_INDEX:
            u, ud = ctx.vel.u(al, be), ctx.vel.u_dag(al, be)
            yield fr @ u, u @ frp
            yield fr @ ud, ud @ frm


def _twin(which: str) -> PairFunction:
    def pair_function(ctx: EngineContext) -> Iterator[Pair]:
        for f in _SHIFT_FAMILY:
            dd = ctx.radial(second_difference(f))
            d1 = ctx.radial(first_difference(f))
            fop = ctx.radial(f)
            for a in (1, 2, 3, 4):
                w, z = ctx.alg.w_op(a), ctx.alg.zeta(a)
                if which == "w":
                    yield commutator(w, fop), 0.5 * (dd @ w) + ctx.lam * (d1 @ z)
                else:
                    yield commutator(z, fop), 0.5 * (dd @ z) + ctx.lam * (d1 @ w)

    return pair_function


def _zeta_w_radius(ctx: EngineContext) -> Iterator[Pair]:
    r = ctx.space.radius_op()
    for a in (1, 2, 3, 4):
        w, z = ctx.alg.w_op(a), ctx.alg.zeta(a)
        yield commutator(w, r), ctx.lam * z
        yield commutator(z, r), ctx.lam * w


def _radial_annihilator_blocks(ctx: EngineContext, win: Window) -> Outcome:
    """The first-order radial combination annihilates 1/r on every block of
    the window (its default guard is 0: the check is per block)."""
    wv = win.sector.r_hat_eigen[win.block_mask]
    vals = radial_annihilator(RF_INV_R).fn(wv, ctx.lam)
    scale = max(1.0, float(np.max(np.abs(RF_INV_R.fn(wv, ctx.lam)))))
    return float(np.max(np.abs(vals)) / scale), list(win.excluded)


def _master_pair_comm(ctx: EngineContext) -> Iterator[Pair]:
    """epsilon-contracted commutator of radial-dressed antisymmetric boosts."""
    c2 = ctx.alg.center_plus_two()
    for f in (RF_ONE, RF_INV_R, RF_INV_R2):
        fop = ctx.radial(f)
        dfop = ctx.radial(radial_annihilator(f))
        d1op = ctx.radial(first_difference(f))
        for k in range(3):
            lhs = contract(EPS3[:, :, k], lambda i, j: commutator(fop @ ctx.alg.w_op(i),
                                                                  fop @ ctx.alg.w_op(j)))
            rot = contract(4j * EPS3[:, :, k],
                           lambda i, j: fop @ dfop @ ctx.alg.generator(i, j))
            rhs = rot + 4j * ctx.lam * (fop @ d1op @ ctx.alg.generator(4, k + 1) @ c2)
            yield lhs, rhs


# ---------------------------------------------------------------------------
# velocity suite
# ---------------------------------------------------------------------------

def _u_weighted_adjoint(ctx: EngineContext) -> Iterator[Pair]:
    for al, be in U_INDEX:
        yield ctx.vel.u_dag(al, be), ctx.vel.u(al, be).weighted_adjoint()


def _velocity_selfadjoint(ctx: EngineContext) -> Iterator[Pair]:
    for a in (1, 2, 3, 4):
        v, vt = ctx.vel.velocity(a), ctx.vel.dual_velocity(a)
        yield v, v.weighted_adjoint()
        yield vt, vt.weighted_adjoint()


def _velocity_from_generators(ctx: EngineContext) -> Iterator[Pair]:
    rinv = ctx.space.radius_inv()
    for a in (1, 2, 3, 4):
        yield ctx.vel.velocity(a), rinv @ ctx.alg.generator(0, a)
        dual_slot = (a, 5) if a < 4 else (5, 4)
        yield ctx.vel.dual_velocity(a), rinv @ ctx.alg.generator(*dual_slot)


def _u_null_comm(ctx: EngineContext) -> Iterator[Pair]:
    zero = 0.0 * ctx.space.identity()
    for (x, y) in itertools.combinations(U_INDEX, 2):
        yield commutator(ctx.vel.u(*x), ctx.vel.u(*y)), zero
        yield commutator(ctx.vel.u_dag(*x), ctx.vel.u_dag(*y)), zero


def _ladder_quads(ctx: EngineContext) -> Iterator[tuple[SuperOp, ...]]:
    """For each (al, be, ga, de) in {1, 2}^4: the bare raise and lower words
    a+_al (.) a_be and a_ga (.) a+_de, the part X of their commutator that
    survives (-[raise, lower] = X), and U_{al be}, U+_{ga de}."""
    sp, vel = ctx.space, ctx.vel
    zero = 0.0 * sp.identity()
    for al, be, ga, de in itertools.product((1, 2), repeat=4):
        raise_w = sp.lmul_adag(al) @ sp.rmul_a(be)
        lower_w = sp.rmul_adag(de) @ sp.lmul_a(ga)
        x = []
        if be == de:
            x.append(sp.lmul_adag(al) @ sp.lmul_a(ga))
        if ga == al:
            x.append(sp.rmul_adag(de) @ sp.rmul_a(be))
        yield raise_w, lower_w, linear_combination(x, zero), vel.u(al, be), vel.u_dag(ga, de)


def _u_ladder_comm(ctx: EngineContext) -> Iterator[Pair]:
    for raise_w, lower_w, x, _, _ in _ladder_quads(ctx):
        yield commutator(raise_w, lower_w), -1.0 * x


def _u_split(ctx: EngineContext) -> Iterator[Pair]:
    inv_sq, rho_l = ctx.radial(RF_INV_R2ML), ctx.radial(RF_RHO_L)
    for raise_w, lower_w, _, u, ud in _ladder_quads(ctx):
        rhs = inv_sq @ commutator(raise_w, lower_w) + rho_l @ anticommutator(raise_w, lower_w)
        yield commutator(u, ud), rhs


def _u_anticomm_rewrite(ctx: EngineContext) -> Iterator[Pair]:
    rho_l, mul_m, mul_p = ctx.radial(RF_RHO_L), ctx.radial(RF_MUL_M), ctx.radial(RF_MUL_P)
    for raise_w, lower_w, _, u, ud in _ladder_quads(ctx):
        yield rho_l @ anticommutator(raise_w, lower_w), mul_m @ (u @ ud) + mul_p @ (ud @ u)


def _u_pre_extraction(ctx: EngineContext) -> Iterator[Pair]:
    inv_sq, c_l2, c_lr = ctx.radial(RF_INV_R2ML), ctx.radial(RF_C_L2), ctx.radial(RF_C_LR)
    for _, _, x, u, ud in _ladder_quads(ctx):
        comm = commutator(u, ud)
        rhs = -1.0 * (inv_sq @ x) - c_l2 @ comm + c_lr @ anticommutator(u, ud)
        yield comm, rhs


def _u_closed_comm(ctx: EngineContext) -> Iterator[Pair]:
    sp = ctx.space
    rinv, rinv2 = sp.radius_inv(), ctx.radial(RF_INV_R2)
    for _, _, x, u, ud in _ladder_quads(ctx):
        rhs = -1.0 * (rinv2 @ x) + sp.lam * (rinv @ anticommutator(u, ud))
        yield commutator(u, ud), rhs


def _q_order(ctx: EngineContext) -> Iterator[Pair]:
    q, corr = ctx.vel.q_factor(), ctx.radial(RF_Q_CORR)
    for _, _, x, u, ud in _ladder_quads(ctx):
        yield ud @ u, q @ (u @ ud) + corr @ x


def _q_limit(ctx: EngineContext, win: Window) -> Outcome:
    """Block-wise |Q - 1| <= 2*lam/r, the commutative-limit envelope."""
    wv = win.sector.r_hat_eigen[win.block_mask]
    overshoot = np.abs(RF_Q.fn(wv, ctx.lam) - 1.0) - 2.0 * ctx.lam / wv
    return max(0.0, float(overshoot.max())), list(win.excluded)


def _rotation_flow(ctx: EngineContext) -> Iterator[Pair]:
    for omega in (0.0, np.pi / 2, 0.37):
        yield from rotation_flow_pairs(ctx.vel, omega)


def _sig_sig_comm(ctx: EngineContext, i: int, j: int):
    coeffs = np.multiply.outer(PAULI[i - 1], np.conj(PAULI[j - 1]))  # [al, be, ga, de]
    return ctx.cached(("sig_sig_comm", i, j), lambda: contract(
        coeffs, lambda al, be, ga, de: commutator(ctx.vel.u(al, be), ctx.vel.u_dag(ga, de))))


def _sig_trace_comm(ctx: EngineContext, k: int):
    return ctx.cached(("sig_trace_comm", k), lambda: contract(
        PAULI[k - 1], lambda al, be: commutator(ctx.vel.u(al, be), ctx.vel.trace_u_dag())))


def _vv_u_spatial(ctx: EngineContext) -> Iterator[Pair]:
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        t = _sig_sig_comm(ctx, i, j)
        rhs = 0.25 * (t - t.weighted_adjoint())
        yield commutator(ctx.vel.velocity(i), ctx.vel.velocity(j)), rhs
        yield commutator(ctx.vel.dual_velocity(i), ctx.vel.dual_velocity(j)), rhs


def _vv_u_mixed(ctx: EngineContext) -> Iterator[Pair]:
    for k in (1, 2, 3):
        d = _sig_trace_comm(ctx, k)
        rhs = 0.25j * (d + d.weighted_adjoint())
        yield commutator(ctx.vel.velocity(k), ctx.vel.velocity(4)), rhs
        yield -1.0 * commutator(ctx.vel.dual_velocity(k), ctx.vel.dual_velocity(4)), rhs


def _vv_u_cross(ctx: EngineContext) -> Iterator[Pair]:
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            t = _sig_sig_comm(ctx, i, j)
            rhs = 0.25j * (t + t.weighted_adjoint())
            yield commutator(ctx.vel.velocity(i), ctx.vel.dual_velocity(j)), rhs
            yield -1.0 * commutator(ctx.vel.dual_velocity(i), ctx.vel.velocity(j)), rhs


def _vv_u_cross_4(ctx: EngineContext) -> Iterator[Pair]:
    for k in (1, 2, 3):
        d = _sig_trace_comm(ctx, k)
        rhs = 0.25 * (d - d.weighted_adjoint())
        yield commutator(ctx.vel.velocity(k), ctx.vel.dual_velocity(4)), rhs
        yield commutator(ctx.vel.dual_velocity(k), ctx.vel.velocity(4)), rhs


def _vv_u_dual(ctx: EngineContext) -> Iterator[Pair]:
    t = commutator(ctx.vel.trace_u(), ctx.vel.trace_u_dag())
    lhs = commutator(ctx.vel.velocity(4), ctx.vel.dual_velocity(4))
    yield lhs, -0.5j * t


def _u_contract_spatial(ctx: EngineContext) -> Iterator[Pair]:
    """sigma-sigma contraction of the mixed ladder commutator, closed form."""
    sp = ctx.space
    rinv, rinv2 = sp.radius_inv(), ctx.radial(RF_INV_R2)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            v_i, v_j = ctx.vel.velocity(i), ctx.vel.velocity(j)
            vt_i, vt_j = ctx.vel.dual_velocity(i), ctx.vel.dual_velocity(j)
            rhs = (ctx.lam * (rinv @ (anticommutator(vt_i, vt_j) + anticommutator(v_i, v_j)))
                   + 1j * ctx.lam * (rinv @ (anticommutator(vt_i, v_j) - anticommutator(vt_j, v_i)))
                   - 2j * (rinv2 @ ctx.alg.generator(i, j)))
            if i == j:
                rhs = rhs - (2.0 / ctx.lam) * rinv
            yield _sig_sig_comm(ctx, i, j), rhs


def _vv_spatial(ctx: EngineContext) -> Iterator[Pair]:
    sp = ctx.space
    rinv, rinv2 = sp.radius_inv(), ctx.radial(RF_INV_R2)
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        v_i, v_j = ctx.vel.velocity(i), ctx.vel.velocity(j)
        vt_i, vt_j = ctx.vel.dual_velocity(i), ctx.vel.dual_velocity(j)
        rhs = (-1j * (rinv2 @ ctx.alg.generator(i, j))
               + 0.5j * ctx.lam * (rinv @ (anticommutator(vt_i, v_j) - anticommutator(vt_j, v_i))))
        yield commutator(v_i, v_j), rhs
        yield commutator(vt_i, vt_j), rhs


def _vv_mixed_4(ctx: EngineContext) -> Iterator[Pair]:
    sp = ctx.space
    rinv, rinv2 = sp.radius_inv(), ctx.radial(RF_INV_R2)
    for k in (1, 2, 3):
        v_k, v4 = ctx.vel.velocity(k), ctx.vel.velocity(4)
        vt_k, vt4 = ctx.vel.dual_velocity(k), ctx.vel.dual_velocity(4)
        rhs = (-1j * (rinv2 @ ctx.alg.generator(k, 4))
               + 0.5j * ctx.lam * (rinv @ (anticommutator(vt_k, v4) + anticommutator(v_k, vt4))))
        yield commutator(v_k, v4), rhs
        yield -1.0 * commutator(vt_k, vt4), rhs


def _vv_cross(ctx: EngineContext) -> Iterator[Pair]:
    rinv = ctx.space.radius_inv()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            v_i, v_j = ctx.vel.velocity(i), ctx.vel.velocity(j)
            vt_i, vt_j = ctx.vel.dual_velocity(i), ctx.vel.dual_velocity(j)
            rhs = 0.5j * ctx.lam * (rinv @ (anticommutator(vt_i, vt_j) + anticommutator(v_i, v_j)))
            if i == j:
                rhs = rhs - (1j / ctx.lam) * rinv
            yield commutator(v_i, vt_j), rhs
            yield -1.0 * commutator(vt_i, v_j), rhs


def _vv_cross_4(ctx: EngineContext) -> Iterator[Pair]:
    """Mixed scalar-spatial cross commutator; overall sign fixed numerically."""
    rinv = ctx.space.radius_inv()
    for k in (1, 2, 3):
        v_k, v4 = ctx.vel.velocity(k), ctx.vel.velocity(4)
        vt_k, vt4 = ctx.vel.dual_velocity(k), ctx.vel.dual_velocity(4)
        rhs = 0.5j * ctx.lam * (rinv @ (anticommutator(vt_k, vt4) - anticommutator(v_k, v4)))
        yield commutator(v_k, vt4), rhs
        yield commutator(vt_k, v4), rhs


def _vv_dual_4(ctx: EngineContext) -> Iterator[Pair]:
    rinv = ctx.space.radius_inv()
    v4, vt4 = ctx.vel.velocity(4), ctx.vel.dual_velocity(4)
    rhs = (1j / ctx.lam) * rinv - 1j * ctx.lam * (rinv @ (v4 @ v4 + vt4 @ vt4))
    yield commutator(v4, vt4), rhs


def _vv_duality(ctx: EngineContext) -> Iterator[Pair]:
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        yield (commutator(ctx.vel.dual_velocity(i), ctx.vel.dual_velocity(j)),
               commutator(ctx.vel.velocity(i), ctx.vel.velocity(j)))


# ---------------------------------------------------------------------------
# monopole suite
# ---------------------------------------------------------------------------

def _field_closed_spatial(ctx: EngineContext) -> Iterator[Pair]:
    c2 = ctx.alg.center_plus_two()
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        lhs = commutator(ctx.vel.velocity(i), ctx.vel.velocity(j))
        rhs = contract(0.5 * EPS3[i - 1, j - 1],
                       lambda k: monopole_profile_op(ctx.vel, (k, 4)) @ c2)
        yield lhs, rhs


def _field_so4(ctx: EngineContext) -> Iterator[Pair]:
    """Antisymmetric extension over all six index pairs; coefficient (C+2)/4."""
    eps4 = levi_civita(4)
    c2 = ctx.alg.center_plus_two()
    for a, b in itertools.combinations((1, 2, 3, 4), 2):
        lhs = commutator(ctx.vel.velocity(a), ctx.vel.velocity(b))
        # each c < d term stands for itself and its c > d twin: 2 * 1/4
        rhs = contract(0.5 * np.triu(eps4[a - 1, b - 1], 1),
                       lambda c, d: monopole_profile_op(ctx.vel, (c, d)) @ c2)
        yield lhs, rhs


def _monopole_charge(win: Window, lhs: SuperOp, profile: SuperOp) -> float:
    """|fit - kappa/2|; NaN, a failure, when the closed form reads zero on
    the nonempty window (its norm underflowed), so the fit is unchecked."""
    fit = charge_fit(win, lhs, profile)
    return float("nan") if fit is None else abs(fit - win.sector.kappa / 2.0)


def _g_symmetric_spatial(ctx: EngineContext) -> Iterator[Pair]:
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        g_ij = -1j * commutator(ctx.vel.velocity(i), ctx.vel.dual_velocity(j))
        g_ji = -1j * commutator(ctx.vel.velocity(j), ctx.vel.dual_velocity(i))
        yield g_ij, g_ji


def _g_exchange_mixed(ctx: EngineContext) -> Iterator[Pair]:
    """Mixed components pair by swapping which vector carries the dual."""
    for k in (1, 2, 3):
        yield (commutator(ctx.vel.velocity(k), ctx.vel.dual_velocity(4)),
               commutator(ctx.vel.dual_velocity(k), ctx.vel.velocity(4)))


def _sigma_contract(side: str) -> PairFunction:
    def pair_function(ctx: EngineContext) -> Iterator[Pair]:
        vel = ctx.vel
        if side == "left":
            def comm(al, be, de):
                return commutator(vel.u(al, de), vel.u_dag(be, de))
        else:
            def comm(al, be, de):
                return commutator(vel.u(de, be), vel.u_dag(de, al))
        rho = ctx.radial(RF_MONOPOLE)
        c2 = ctx.alg.center_plus_two()
        sign = -1.0 if side == "left" else 1.0
        for k in (1, 2, 3):
            # sigma^k_{al be} once for each de in (1, 2), de running innermost
            lhs = contract(np.repeat(PAULI[k - 1][:, :, None], 2, axis=2), comm)
            rhs = sign * ctx.lam * (rho @ ctx.one_sided_sigma(k, side) @ c2)
            yield lhs, rhs

    return pair_function


def _field_from_center(ctx: EngineContext) -> Iterator[Pair]:
    rho = ctx.radial(RF_MONOPOLE)
    c2 = ctx.alg.center_plus_two()
    for k in (1, 2, 3):
        lhs = contract(EPS3[:, :, k - 1],
                       lambda i, j: commutator(ctx.vel.velocity(i), ctx.vel.velocity(j)))
        rhs = -1j * ctx.lam * (rho @ ctx.alg.generator(k, 4) @ c2)
        yield lhs, rhs


def _associator(ctx: EngineContext) -> Iterator[Pair]:
    v = ctx.vel.velocity
    lhs = contract(EPS3, lambda i, j, k: commutator(v(i), commutator(v(j), v(k))))
    yield lhs, 0.0 * ctx.space.identity()


def _associator_baseline(ctx: EngineContext) -> Iterator[Pair]:
    g = ctx.alg.generator
    lhs = contract(EPS3, lambda i, j, k: commutator(g(0, i), commutator(g(0, j), g(0, k))))
    yield lhs, 0.0 * ctx.space.identity()


def _radial_shift_piece(ctx: EngineContext) -> Iterator[Pair]:
    """Commuting the monopole profile through the velocities (A-chain piece)."""
    rho = ctx.radial(RF_MONOPOLE)
    lhs = linear_combination(commutator(ctx.vel.velocity(i), rho) @ ctx.alg.generator(i, 4)
                             for i in (1, 2, 3))
    yield lhs, 3j * (rho @ ctx.vel.velocity(4))


def _rotation_piece(ctx: EngineContext) -> Iterator[Pair]:
    rho = ctx.radial(RF_MONOPOLE)
    lhs = linear_combination(rho @ commutator(ctx.vel.velocity(i), ctx.alg.generator(i, 4))
                             for i in (1, 2, 3))
    yield lhs, -3j * (rho @ ctx.vel.velocity(4))


def _fierz(ctx, win) -> Outcome:
    """Two-point epsilon-sigma contraction over all 48 components."""
    worst = 0.0
    for k in range(3):
        for al, be, de, ga in itertools.product(range(2), repeat=4):
            lhs = contract(EPS3[:, :, k], lambda i, j: PAULI[i - 1, al, be] * PAULI[j - 1, de, ga])
            rhs = 1j * (PAULI[k, al, ga] * (1.0 if de == be else 0.0)
                        - PAULI[k, de, be] * (1.0 if al == ga else 0.0))
            worst = max(worst, abs(lhs - rhs))
    return float(worst), []


def _field_trend(win: Window, lhs: SuperOp, gen: SuperOp) -> Optional[float]:
    """Fitted radial profile of the spatial field lhs against gen decays like 1/r^3."""
    sector = win.sector
    # both blocks are read, also at kappa 0, as the stream's walk counted them
    lhs, gen = (block_entries(op.raw_block(sector.kappa)) for op in (lhs, gen))
    if sector.kappa == 0:
        return None  # no field to fit
    ws, cs = [], []
    for pos, n in enumerate(sector.blocks):
        if not win.block_mask[pos] or n < sector.n_max / 2:
            continue
        cols = sector.block_of == pos
        den = window_inner(gen, gen, cols)
        if den == 0:
            continue
        num = window_inner(gen, lhs, cols)
        coef = abs(num / den)
        if coef > 0:
            ws.append(sector.r_hat_eigen[pos])
            cs.append(coef)
    if len(ws) < 3:
        return None
    slope = float(np.polyfit(np.log(ws), np.log(cs), 1)[0])
    return abs(slope + 3.0)


# ---------------------------------------------------------------------------
# scaling suite: residuals of homogeneous identities are invariant under
# power-of-two rescalings of lam (bit-identical in floating point)
# ---------------------------------------------------------------------------

def _scaling(base: IdentityRecord) -> Check:
    # floor 0 for a pair base: the purely relative metric, exact under 2^k rescaling
    base = replace(base, reduce=partial(pair_residual, floor=0.0)) if base.pairs else base

    def check(ctx: EngineContext, win: Window) -> Outcome:
        kappa = None if win.sector is None else win.sector.kappa
        vals = []
        for lam in (0.5, 1.0, 2.0):
            out = base.evaluate(get_context(ctx.n_max, lam), kappa, win.guard)
            if out is None:
                return None
            vals.append(out[0])
        return max(vals) - min(vals), []

    return check


REGISTRY: list[IdentityRecord] = [
    # fock
    IdentityRecord("ladder-null-comm", "fock", "[a_a,a_b]=0=[a+_a,a+_b]",
                   check=_fock_null_comm, tol=1e-15, per_kappa=False),
    IdentityRecord("ladder-canonical", "fock", "[a_a,a+_b]=delta_ab on interior",
                   check=_fock_canonical, guard=1, tol=1e-13, per_kappa=False),
    IdentityRecord("number-level", "fock", "sum_a a+_a a_a = n per level",
                   check=_fock_number, tol=1e-13, per_kappa=False),
    # coords
    IdentityRecord("coord-comm", "coords", "[x_i,x_j] = 2i*lam*eps_ijk x_k",
                   check=_coords("coord-comm"), tol=1e-13, per_kappa=False),
    IdentityRecord("coord-radius-comm", "coords", "[x_i,r] = 0",
                   check=_coords("coord-radius-comm"), tol=1e-14, per_kappa=False),
    IdentityRecord("coord-radius-square", "coords", "x^2 = r^2 - lam^2",
                   check=_coords("coord-radius-square"), tol=1e-13, per_kappa=False),
    # su22
    IdentityRecord("su22-matrix-adjoint", "su22", "S+_AB = Gamma S_AB Gamma",
                   check=_matrix_gamma, tol=1e-15, per_kappa=False),
    IdentityRecord("su22-matrix-closure", "su22", "[S_AB,S_CD] = i(eta.S - ...)",
                   check=_matrix_closure, tol=1e-15, per_kappa=False),
    IdentityRecord("canonical-pairing", "su22", "[A_a, Gamma_bc A+_c] = delta_ab",
                   pairs=lambda ctx: ctx.alg.canonical_pairs(), guard=1, tol=1e-13),
    IdentityRecord("cross-side-comm", "su22", "left and right multiplications commute",
                   pairs=_cross_side, guard=0, tol=1e-15),
    IdentityRecord("su22-op-closure", "su22", "[S_AB,S_CD] = i(eta.S - ...) as superoperators",
                   pairs=_op_closure, guard=2, tol=1e-12),
    IdentityRecord("central-element", "su22", "(C+2) Psi = kappa Psi",
                   pairs=_central, guard=0, tol=1e-13),
    IdentityRecord("central-ordering", "su22", "literal-order C agrees on the interior",
                   pairs=_central_ordering, guard=1, tol=1e-13),
    IdentityRecord("radius-s05", "su22", "r = lam*S_05",
                   pairs=_radius_s05, guard=1, tol=1e-13),
    IdentityRecord("radius-s05-ordered", "su22", "r = lam*(S_05+1), normal-ordered right factor",
                   pairs=_radius_s05_ordered, guard=0, tol=1e-13),
    # radial
    IdentityRecord("sector-grading", "radial", "Psi(e^{-it}a+, e^{it}a) = e^{-it*kappa} Psi",
                   pairs=lambda ctx: [tuple(map(ctx.space.grading_twist, _TWIST_TAUS))],
                   reduce=_sector_grading, guard=0, tol=1e-13),
    IdentityRecord("sector-gram", "radial", "basis Gram is diagonal positive",
                   check=_sector_gram, guard=0, tol=1e-13),
    IdentityRecord("radius-def", "radial", "r_hat Psi = (r Psi + Psi r)/2",
                   pairs=_radius_def, guard=0, tol=1e-14),
    IdentityRecord("shift-rule", "radial", "f(r) U = U f(r+lam); f(r) U+ = U+ f(r-lam)",
                   pairs=_shift_rule, guard=1, tol=1e-12, exclude_ws=(0.0, 1.0)),
    IdentityRecord("w-shift-comm", "radial", "[w_a,f(r)] = dd(f)/2 w_a + d(f) lam zeta_a",
                   pairs=_twin("w"), guard=1, tol=1e-11, exclude_ws=(0.0, 1.0, 2.0)),
    IdentityRecord("zeta-shift-comm", "radial", "[zeta_a,f(r)] = dd(f)/2 zeta_a + d(f) lam w_a",
                   pairs=_twin("zeta"), guard=1, tol=1e-11, exclude_ws=(0.0, 1.0, 2.0)),
    IdentityRecord("zeta-w-radius", "radial", "[w_a,r] = lam zeta_a; [zeta_a,r] = lam w_a",
                   pairs=_zeta_w_radius, guard=1, tol=1e-12),
    IdentityRecord("radial-annihilator", "radial", "(1 + dd/2 + r d)(1/r) = 0 per block",
                   check=_radial_annihilator_blocks, guard=0, tol=1e-14, exclude_ws=(1.0,)),
    IdentityRecord("w-pair-master", "radial",
                   "eps[fw,fw] = 4i f D(f) eps S + 4i lam f d(f) S_4k (C+2)",
                   pairs=_master_pair_comm, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    # velocity
    IdentityRecord("u-weighted-adjoint", "velocity", "U+_ab is the weighted adjoint of U_ab",
                   pairs=_u_weighted_adjoint, guard=1, tol=1e-12),
    IdentityRecord("velocity-selfadjoint", "velocity", "V_a, Vt_a weighted-self-adjoint",
                   pairs=_velocity_selfadjoint, guard=1, tol=1e-12),
    IdentityRecord("velocity-from-generators", "velocity",
                   "V_a = (1/r) S_0a; Vt = (1/r)(S_k5, S_54)",
                   pairs=_velocity_from_generators, guard=1, tol=1e-13),
    IdentityRecord("u-null-comm", "velocity", "[U,U] = 0 = [U+,U+]",
                   pairs=_u_null_comm, guard=2, tol=1e-13),
    IdentityRecord("u-ladder-comm", "velocity", "[a+() a, a()+ a] bare-word commutator",
                   pairs=_u_ladder_comm, guard=2, tol=1e-12),
    IdentityRecord("u-split", "velocity", "[U,U+] split into commutator + anticommutator parts",
                   pairs=_u_split, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("u-anticomm-rewrite", "velocity", "bare anticommutator to UU+ ordering",
                   pairs=_u_anticomm_rewrite, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("u-pre-extraction", "velocity", "[U,U+] with the commutator on both sides",
                   pairs=_u_pre_extraction, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("u-closed-comm", "velocity", "[U,U+] = -(1/r^2)(...) + (lam/r){U,U+}",
                   pairs=_u_closed_comm, guard=2, tol=1e-11),
    IdentityRecord("q-order", "velocity", "U+U = Q UU+ + (1/(r(r+lam)))(...)",
                   pairs=_q_order, guard=2),
    IdentityRecord("q-limit", "velocity", "|Q-1| <= 2 lam / r per block",
                   check=_q_limit, guard=0, tol=0.0),
    IdentityRecord("rotation-flow", "velocity",
                   "exp(iwS05) V exp(-iwS05) = cos(w)V + sin(w)s_a Vt",
                   pairs=_rotation_flow, guard=1, tol=1e-11),
    IdentityRecord("vv-u-spatial", "velocity", "[V_i,V_j] = (ss*[U,U+] - h.c.)/4",
                   pairs=_vv_u_spatial, guard=2),
    IdentityRecord("vv-u-mixed", "velocity", "[V_k,V_4] = i(s[U,trU+] + h.c.)/4",
                   pairs=_vv_u_mixed, guard=2),
    IdentityRecord("vv-u-cross", "velocity", "[V_i,Vt_j] = i(ss*[U,U+] + h.c.)/4",
                   pairs=_vv_u_cross, guard=2),
    IdentityRecord("vv-u-cross-4", "velocity", "[V_k,Vt_4] = (s[U,trU+] - h.c.)/4",
                   pairs=_vv_u_cross_4, guard=2),
    IdentityRecord("vv-u-dual", "velocity", "[V_4,Vt_4] = -i[trU,trU+]/2",
                   pairs=_vv_u_dual, guard=2),
    IdentityRecord("u-contract-spatial", "velocity", "sigma-sigma contraction closed form",
                   pairs=_u_contract_spatial, guard=2, tol=1e-11),
    IdentityRecord("vv-spatial", "velocity",
                   "[V_i,V_j] = -(i/r^2)S_ij + (i lam/2r)({Vt,V} - ...)",
                   pairs=_vv_spatial, guard=2),
    IdentityRecord("vv-mixed-4", "velocity",
                   "[V_k,V_4] = -(i/r^2)S_k4 + (i lam/2r)({Vt_k,V_4}+{V_k,Vt_4})",
                   pairs=_vv_mixed_4, guard=2),
    IdentityRecord("vv-cross", "velocity",
                   "[V_i,Vt_j] = -(i/lam r)d_ij + (i lam/2r)({Vt,Vt}+{V,V})",
                   pairs=_vv_cross, guard=2),
    IdentityRecord("vv-cross-4", "velocity", "[V_k,Vt_4] = +(i lam/2r)({Vt_k,Vt_4}-{V_k,V_4})",
                   pairs=_vv_cross_4, guard=2),
    IdentityRecord("vv-dual-4", "velocity", "[V_4,Vt_4] = i/(lam r) - (i lam/r)(V_4^2+Vt_4^2)",
                   pairs=_vv_dual_4, guard=2),
    IdentityRecord("vv-duality", "velocity", "[Vt_i,Vt_j] = [V_i,V_j]",
                   pairs=_vv_duality, guard=2, tol=1e-11),
    # monopole
    IdentityRecord("field-closed-spatial", "monopole",
                   "[V_i,V_j] = -(i lam (C+2)/2) rho eps_ijk S_k4",
                   pairs=_field_closed_spatial, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("field-so4", "monopole", "[V_a,V_b] = -(i lam (C+2)/4) rho eps_abcd S_cd",
                   pairs=_field_so4, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("monopole-charge", "monopole", "fitted field coefficient equals kappa/2",
                   pairs=lambda ctx: [(commutator(ctx.vel.velocity(1), ctx.vel.velocity(2)),
                                       monopole_profile_op(ctx.vel, (3, 4)))],
                   reduce=_monopole_charge, guard=2, tol=1e-8, exclude_ws=(0.0, 1.0)),
    IdentityRecord("g-symmetric-spatial", "monopole", "G_ij = G_ji on the spatial block",
                   pairs=_g_symmetric_spatial, guard=2, tol=1e-11),
    IdentityRecord("g-exchange-mixed", "monopole", "[V_k,Vt_4] = [Vt_k,V_4]",
                   pairs=_g_exchange_mixed, guard=2, tol=1e-11),
    IdentityRecord("sigma-contract-left", "monopole",
                   "sigma[U_ad,U+_bd] = -lam rho sigma(a+a) (C+2)",
                   pairs=_sigma_contract("left"), guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("sigma-contract-right", "monopole",
                   "sigma[U_db,U+_da] = +lam rho sigma(b+b) (C+2)",
                   pairs=_sigma_contract("right"), guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("field-from-center", "monopole", "eps_ijk[V_i,V_j] = -i lam rho S_k4 (C+2)",
                   pairs=_field_from_center, guard=2, exclude_ws=(0.0, 1.0)),
    IdentityRecord("associator", "monopole",
                   "eps_ijk[V_i,[V_j,V_k]] = 0 (the Jacobi identity of the engine's "
                   "commutators, true of any matrices: round-off only, not the model's "
                   "nonassociativity)",
                   pairs=_associator, guard=3),
    IdentityRecord("associator-baseline", "monopole",
                   "eps_ijk[S_0i,[S_0j,S_0k]] = 0 (the Jacobi identity of the engine's "
                   "commutators, true of any matrices: round-off only, not the model's "
                   "nonassociativity)",
                   pairs=_associator_baseline, guard=3, tol=1e-12),
    IdentityRecord("radial-shift-piece", "monopole", "sum_i [V_i, rho] S_i4 = 3i rho V_4",
                   pairs=_radial_shift_piece, guard=2, exclude_ws=(0.0, 1.0, 2.0)),
    IdentityRecord("rotation-piece", "monopole", "rho sum_i [V_i, S_i4] = -3i rho V_4",
                   pairs=_rotation_piece, guard=2, tol=1e-11, exclude_ws=(0.0, 1.0)),
    IdentityRecord("fierz", "monopole",
                   "eps_ijk s^i_ab s^j_dg = i(s^k_ag d_db - s^k_db d_ag)",
                   check=_fierz, tol=1e-15, per_kappa=False),
    IdentityRecord("field-trend", "monopole", "fitted field profile decays as 1/r^3",
                   pairs=lambda ctx: [(commutator(ctx.vel.velocity(1), ctx.vel.velocity(2)),
                                       ctx.alg.generator(3, 4))],
                   reduce=_field_trend, guard=2, tol=0.1),
]

# scaling suite assembled from homogeneous base identities
_SCALING_BASES = ["coord-comm", "radius-s05", "u-closed-comm",
                  "field-closed-spatial", "g-exchange-mixed"]

BY_ID: dict[str, IdentityRecord] = {r.id: r for r in REGISTRY}

for _base in _SCALING_BASES:
    _b = BY_ID[_base]
    REGISTRY.append(
        IdentityRecord(f"scale:{_base}", "scaling",
                       "residual invariance under power-of-two lam rescaling",
                       check=_scaling(_b), guard=_b.guard, tol=1e-15, per_kappa=_b.per_kappa)
    )

BY_ID = {r.id: r for r in REGISTRY}

SUITES = ("fock", "coords", "su22", "radial", "velocity", "monopole", "scaling")


def records_for_suite(suite: str) -> list[IdentityRecord]:
    if suite == "all":
        return [r for r in REGISTRY if r.suite != "scaling"]
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return [r for r in REGISTRY if r.suite == suite]
