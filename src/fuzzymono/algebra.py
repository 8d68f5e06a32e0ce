"""Operator layer: quadratic superoperator bilinears and the shift calculus.

The four left/right ladder superoperators assemble into an 8-component pair
(A, A+) with the twisted canonical relation [A_a, Gamma_bc A+_c] = delta_ab.
Generators are the bilinears A+ Gamma S_AB A; products compose left to
right, so right-multiplication words reverse order (this ordering is what
makes the central element read the sector grade as C + 2 = kappa).

Radial multipliers move through level-shifting words by lam-shifts of their
argument; the second/first difference operators built from those shifts
replace radial derivatives everywhere in the commutator formulas.

contract(tensor, term) is the one Pauli, epsilon or sigma-sigma contraction
of superoperator terms, folded over the tensor's nonzero entries.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .liouville import (RF_INV_R, RF_ONE, RF_R, RadialFunction, Space, SuperOp, cache_get,
                        commutator, linear_combination)
from .ncspace import nonzero_entries
from .sector import Window, pair_residual
from .su22 import GAMMA, PAIRS, bracket_terms, generator_matrix


# ---------------------------------------------------------------------------
# radial function descriptors (RF_ONE, RF_R and RF_INV_R are liouville's)
# ---------------------------------------------------------------------------

RF_R2 = RadialFunction("r^2", lambda w, lam: w * w)
RF_INV_R2 = RadialFunction("1/r^2", lambda w, lam: 1.0 / (w * w), poles=(0.0,))
# radial profile of the monopole field strength, 1/(r(r^2-l^2))
RF_MONOPOLE = RadialFunction(
    "1/(r(r^2-l^2))",
    lambda w, lam: 1.0 / (w * (w * w - lam * lam)),
    poles=(0.0, 1.0, -1.0),
)
RF_Q = RadialFunction("(r-l)/(r+l)", lambda w, lam: (w - lam) / (w + lam), poles=(-1.0,))


def second_difference(f: RadialFunction) -> RadialFunction:
    """(D+ + D- - 2) f, the discrete second difference (no 1/lam^2)."""
    base = f.fn
    return RadialFunction(
        name=f"dd[{f.name}]",
        fn=lambda w, lam: base(w + lam, lam) + base(w - lam, lam) - 2 * base(w, lam),
        poles=tuple(set(f.poles) | {p - 1 for p in f.poles} | {p + 1 for p in f.poles}),
    )


def first_difference(f: RadialFunction) -> RadialFunction:
    """(D+ - D-) f / (2 lam), the symmetric first difference."""
    base = f.fn
    return RadialFunction(
        name=f"d[{f.name}]",
        fn=lambda w, lam: (base(w + lam, lam) - base(w - lam, lam)) / (2 * lam),
        poles=tuple({p - 1 for p in f.poles} | {p + 1 for p in f.poles}),
    )


def radial_annihilator(f: RadialFunction) -> RadialFunction:
    """(1 + (D+ + D- - 2)/2 + r (D+ - D-)/(2 lam)) f; kills 1/r identically."""
    base = f.fn

    def val(w: np.ndarray, lam: float) -> np.ndarray:
        fp, fm, f0 = base(w + lam, lam), base(w - lam, lam), base(w, lam)
        return f0 + 0.5 * (fp + fm - 2 * f0) + w * (fp - fm) / (2 * lam)

    return RadialFunction(
        name=f"D[{f.name}]",
        fn=val,
        poles=tuple(set(f.poles) | {p - 1 for p in f.poles} | {p + 1 for p in f.poles}),
    )


# ---------------------------------------------------------------------------
# word builders
# ---------------------------------------------------------------------------

def contract(tensor: np.ndarray, term: Callable[..., SuperOp]) -> SuperOp:
    """Sum of c * term(i + 1, j + 1, ...) over the nonzero entries c at
    (i, j, ...) of tensor, in row-major order (term takes 1-based indices)."""
    return linear_combination(complex(c) * term(*(i + 1 for i in idx))
                              for idx, c in nonzero_entries(tensor))


Letter = tuple[int, str]  # (mode, "create" | "annihilate")


def _letter_op(space: Space, mode: int, kind: str, side: str) -> SuperOp:
    if kind == "create":
        return space.lmul_adag(mode) if side == "left" else space.rmul_adag(mode)
    if kind == "annihilate":
        return space.lmul_a(mode) if side == "left" else space.rmul_a(mode)
    raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")


def left_action(space: Space, word: list[Letter]) -> SuperOp:
    """Left multiplication by the ladder word, letters applied in order."""
    out = space.identity()
    for mode, kind in word:
        out = out @ _letter_op(space, mode, kind, "left")
    return out


def right_action(space: Space, word: list[Letter]) -> SuperOp:
    """Right multiplication by the ladder word; composition order reverses."""
    out = space.identity()
    for mode, kind in word:
        out = _letter_op(space, mode, kind, "right") @ out
    return out


# ---------------------------------------------------------------------------
# the operator algebra
# ---------------------------------------------------------------------------

class OperatorAlgebra:
    """Named quadratic superoperators on one space, built lazily and cached
    in the space's operator cache."""

    def __init__(self, space: Space):
        self.space = space
        self._cache = space._cache

    def _get(self, key: tuple, builder: Callable[[], SuperOp]) -> SuperOp:
        return cache_get(self._cache, key, builder)

    # the 8-component ladder pair: (a1, a2, b1, b2) and daggers
    def avec(self, a: int) -> SuperOp:
        sp = self.space
        return sp.lmul_a(a + 1) if a < 2 else sp.rmul_a(a - 1)

    def avec_dag(self, a: int) -> SuperOp:
        sp = self.space
        return sp.lmul_adag(a + 1) if a < 2 else sp.rmul_adag(a - 1)

    # -- generators ---------------------------------------------------------

    def generator(self, A: int, B: int) -> SuperOp:
        """Bilinear generator: A+ Gamma S_AB A with composed ordering."""
        return self._get(("gen", A, B), lambda: self._bilinear(GAMMA @ generator_matrix(A, B)))

    def _bilinear(self, m: np.ndarray) -> SuperOp:
        return linear_combination(
            (complex(c) * (self.avec_dag(a) @ self.avec(b)) for (a, b), c in nonzero_entries(m)),
            self.space)

    def center(self) -> SuperOp:
        """Central element, in the ordering exact on every admissible block.

        The literal bilinear form differs by right-side operator ordering,
        which the hard truncation corrupts on the top block; commuting the
        right-side pair once gives an equivalent word with no such defect.
        """
        def build() -> SuperOp:
            sp = self.space
            left = self.avec_dag(0) @ self.avec(0) + self.avec_dag(1) @ self.avec(1)
            right = sp.rmul_a(1) @ sp.rmul_adag(1) + sp.rmul_a(2) @ sp.rmul_adag(2)
            return left - right - 2.0 * sp.identity()

        return self._get(("center",), build)

    def center_plus_two(self) -> SuperOp:
        """C + 2, which is kappa on sector kappa."""
        return self._get(("center+2",), lambda: self.center() + 2.0 * self.space.identity())

    def center_naive(self) -> SuperOp:
        """Literal bilinear ordering (top-block defect retained); read once, not cached."""
        return self._bilinear(GAMMA)

    # -- shift-calculus vectors ----------------------------------------------

    def zeta(self, a: int) -> SuperOp:
        """Symmetric boost combination: 2*(S_k5, S_04) componentwise."""
        if a == 4:
            return 2.0 * self.generator(0, 4)
        return 2.0 * self.generator(a, 5)

    def w_op(self, a: int) -> SuperOp:
        """Antisymmetric boost combination: 2i*(S_0k, S_54) componentwise.

        Signs are the unique ones satisfying [w_a, r] = lam*zeta_a, fixed
        numerically and frozen (see conventions).
        """
        if a == 4:
            return 2j * self.generator(5, 4)
        return 2j * self.generator(0, a)

    # -- canonical pairing ----------------------------------------------------

    def canonical_pairs(self) -> Iterator[tuple[SuperOp, SuperOp]]:
        """The 16 pairs ([A_a, Gamma_bc A+_c], delta_ab), a = 0..3 outer."""
        ident = self.space.identity()
        for a in range(4):
            for b in range(4):
                twisted = linear_combination(complex(g) * self.avec_dag(c)
                                             for (c,), g in nonzero_entries(GAMMA[b]))
                yield commutator(self.avec(a), twisted), (1.0 if a == b else 0.0) * ident

    def canonical_pairing_residual(self, win: Window) -> float:
        """Max residual over canonical_pairs() on a nonempty window.

        A run compares canonical_pairs() in the pair stream, as the
        registry's canonical-pairing identity; only tests call this helper,
        and the benchmark's tracer (bench/tracing.py) wraps it."""
        return float(np.max([pair_residual(win, *pair) for pair in self.canonical_pairs()]))


def su22_bracket_rhs(alg: OperatorAlgebra, a: int, b: int, c: int, d: int) -> SuperOp:
    """Operator-level bracket target i*(eta.S - ...) for [S_AB, S_CD]."""
    return linear_combination(
        (complex(1j * coeff) * alg.generator(x, y) for coeff, (x, y) in bracket_terms(a, b, c, d)
         if coeff != 0 and x != y),
        alg.space)


__all__ = [
    "OperatorAlgebra",
    "contract",
    "left_action",
    "right_action",
    "RadialFunction",
    "RF_ONE",
    "RF_R",
    "RF_R2",
    "RF_INV_R",
    "RF_INV_R2",
    "RF_MONOPOLE",
    "RF_Q",
    "first_difference",
    "second_difference",
    "radial_annihilator",
    "su22_bracket_rhs",
    "PAIRS",
]
