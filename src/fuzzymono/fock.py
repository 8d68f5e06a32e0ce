"""Truncated two-mode bosonic Fock space and its ladder matrices.

The space is spanned by occupation states |n1, n2> with n1 + n2 <= n_max,
ordered level-major so every fixed-level block is a contiguous index range.
Creation beyond the truncation level maps to the zero vector (hard cutoff);
identity checks that can leak through the boundary are therefore restricted
with interior projectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import _INDEX_MAX, CSR


@dataclass(frozen=True)
class FockBasis:
    """Enumeration of |n1, n2> states up to total level n_max."""

    n_max: int
    states: tuple[tuple[int, int], ...]
    level_offsets: np.ndarray = field(compare=False)  # offsets[n] = first index of level n
    index: dict[tuple[int, int], int] = field(compare=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def levels(self) -> np.ndarray:
        """Level n1 + n2 of every basis state, in basis order."""
        return np.array([n1 + n2 for n1, n2 in self.states], dtype=np.int64)


def check_n_max(n_max: int) -> None:
    """Refuse an n_max < 0, or > 65534: its dimension passes the int32 index limit."""
    if n_max < 0 or (n_max + 1) * (n_max + 2) // 2 > _INDEX_MAX:
        raise ValueError(f"n_max must be >= 0 and give a Fock dimension within the int32 "
                         f"index limit {_INDEX_MAX}, got {n_max}")


def build_basis(n_max: int) -> FockBasis:
    """Enumerate the truncated basis, level-major, n1 descending within a level."""
    check_n_max(n_max)
    states: list[tuple[int, int]] = []
    offsets = np.zeros(n_max + 1, dtype=np.int64)
    for n in range(n_max + 1):
        offsets[n] = len(states)
        for n1 in range(n, -1, -1):
            states.append((n1, n - n1))
    basis = FockBasis(
        n_max=n_max,
        states=tuple(states),
        level_offsets=offsets,
        index={s: i for i, s in enumerate(states)},
    )
    assert basis.dim == (n_max + 1) * (n_max + 2) // 2
    return basis


def ladder(basis: FockBasis, mode: int, kind: str) -> CSR:
    """Ladder matrix with the standard sqrt factors; creation past n_max is cut to zero."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if kind not in ("annihilate", "create"):
        raise ValueError(f"kind must be 'annihilate' or 'create', got {kind}")
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
                continue  # hard truncation
            amp = np.sqrt(occ[mode - 1] + 1)
            occ[mode - 1] += 1
        rows.append(basis.index[tuple(occ)])
        cols.append(i)
        vals.append(amp)
    return CSR.from_coo(np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32),
                        np.array(vals, dtype=np.float64), (basis.dim, basis.dim))


def annihilator(basis: FockBasis, mode: int) -> CSR:
    return ladder(basis, mode, "annihilate")


def creator(basis: FockBasis, mode: int) -> CSR:
    return ladder(basis, mode, "create")


def number_operator(basis: FockBasis) -> CSR:
    """Total number operator, diagonal with eigenvalue n on the level-n block."""
    return CSR.diags(basis.levels)


def interior_projector(basis: FockBasis, guard: int) -> CSR:
    """Orthogonal projector onto levels n <= n_max - guard.

    guard > n_max yields the zero projector (empty but valid).
    """
    if guard < 0:
        raise ValueError(f"guard must be >= 0, got {guard}")
    return CSR.diags((basis.levels <= basis.n_max - guard).astype(np.float64))
