"""The row memo: the pairs of one row share the blocks of equal structure.

Sharing must change no residual, must save sparse-kernel work, must compute
no structure twice within a pair or over two consecutive pairs, and must
keep nothing once the row is done.
"""

import collections
import dataclasses

import numpy as np
import pytest

from dense import evaluate_alone
from fuzzymono import csr, liouville, sector
from fuzzymono.liouville import RowMemo, Space
from fuzzymono.verify import registry
from fuzzymono.verify.registry import BY_ID, REGISTRY, get_context, records_for_suite

PAIR_RECORDS = [r for r in REGISTRY if r.pairs is not None]


@pytest.fixture()
def fresh(monkeypatch):
    """Empty space, sector and context caches, so no cached block is left
    over from another test."""
    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})


@pytest.mark.parametrize("kappa", range(-2, 3))
def test_sharing_changes_no_residual(kappa):
    ctx = get_context(6, 1.0)
    for rec in PAIR_RECORDS:
        got = rec.evaluate(ctx, kappa, rec.guard)
        assert repr(got) == repr(evaluate_alone(rec, ctx, kappa, rec.guard)), rec.id
        assert ctx.space._row is None


def test_sharing_changes_no_scaling_residual():
    rec, base = BY_ID["scale:associator"], BY_ID["associator"]
    checked = 0
    for kappa in range(-2, 3):
        outs = [evaluate_alone(base, get_context(6, lam), kappa, base.guard, floor=0.0)
                for lam in (0.5, 1.0, 2.0)]
        vals = [out[0] for out in outs if out is not None]
        want = (max(vals) - min(vals), []) if len(vals) == 3 else None
        assert repr(rec.evaluate(get_context(6, 1.0), kappa, rec.guard)) == repr(want)
        checked += want is not None
    assert checked


class _Counting:
    """csr._sparsetools with a count of the kernel calls."""

    def __init__(self, module):
        self.module, self.calls = module, 0

    def __getattr__(self, name):
        kernel = getattr(self.module, name)

        def counted(*args):
            self.calls += 1
            return kernel(*args)

        return counted


def _kernel_calls(monkeypatch, evaluate) -> int:
    """Kernel calls of the velocity suite at n_max 6, kappa 1, on fresh caches."""
    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})
    counting = _Counting(csr._sparsetools)
    monkeypatch.setattr(csr, "_sparsetools", counting)
    ctx = get_context(6, 1.0)
    for rec in records_for_suite("velocity"):
        if rec.pairs is not None:
            evaluate(rec, ctx, 1, rec.guard)
    monkeypatch.setattr(csr, "_sparsetools", counting.module)
    return counting.calls


def test_sharing_saves_kernel_calls(monkeypatch):
    shared = _kernel_calls(monkeypatch, lambda rec, *args: rec.evaluate(*args))
    alone = _kernel_calls(monkeypatch, evaluate_alone)
    assert 0 < shared < alone


def test_no_structure_computed_twice_in_a_pair_or_the_next(monkeypatch, fresh):
    """Every (structure, sector) that a walked pair computes is computed at
    most once over the pair and the one after it, and a pair starts with no
    block that neither it nor the next pair reads."""
    turns: dict[int, int] = {}  # row serial -> turns so far
    rows: list[RowMemo] = []  # keeps every row alive, so no id is reused
    computed = collections.defaultdict(list)  # (row, structure, sector) -> turn
    turn, compute = RowMemo.turn, liouville.SuperOp._compute

    def counted_turn(row, ahead):
        if row not in rows:
            rows.append(row)
        turns[id(row)] = turns.get(id(row), 0) + 1
        turn(row, ahead)
        assert set(row.blocks) <= set(row._reads) | set(row._ahead)

    def recorded_compute(op, k):
        row = op.space._row
        if row is not None and op._blocks is None and op.serial in row._sids:
            computed[id(row), row._sids[op.serial], k].append(turns[id(row)])
        return compute(op, k)

    monkeypatch.setattr(RowMemo, "turn", counted_turn)
    monkeypatch.setattr(liouville.SuperOp, "_compute", recorded_compute)
    ctx = get_context(6, 1.0)
    for rec in records_for_suite("velocity") + [BY_ID["su22-op-closure"]]:
        if rec.pairs is not None:
            rec.evaluate(ctx, 1, rec.guard)
    assert computed and rows
    for key, at in computed.items():
        assert all(b - a > 1 for a, b in zip(at, at[1:])), (key, at)


def test_no_block_outlives_its_row():
    ctx = get_context(6, 1.0)
    rec = BY_ID["su22-op-closure"]
    rows = []

    def failing(ctx):
        for i, pair in enumerate(rec.pairs(ctx)):
            if i == 5:
                rows.append(ctx.space._row)
                raise RuntimeError("a pair function fails in the middle of a row")
            yield pair

    assert rec.evaluate(ctx, 0, rec.guard) is not None
    assert ctx.space._row is None
    with pytest.raises(RuntimeError, match="middle of a row"):
        dataclasses.replace(rec, pairs=failing).evaluate(ctx, 0, rec.guard)
    assert isinstance(rows[0], RowMemo) and ctx.space._row is None


def test_structure_ids_match_equal_words_only():
    space = Space(2)
    a, b = space.lmul_a(1), space.rmul_a(2)
    row = RowMemo(space, 0)
    assert row._sid(a @ b) == row._sid(a @ b) != row._sid(b @ a)
    assert row._sid(a - b) == row._sid(a - b) != row._sid(a + b)
    assert row._sid(2.0 * a) == row._sid(2 * a) != row._sid(2j * a)
    # equal floats with other bits, and NaN, never match
    assert row._sid(0.0 * a) != row._sid(-0.0 * a)
    nan = float("nan")
    assert row._sid(nan * a) != row._sid(nan * a)
    # a transient leaf is itself only, however it was built
    assert row._sid(space.identity()) == space.identity().serial
    fresh = [space.radial_values(np.ones((3, 3))) for _ in range(2)]
    assert row._sid(fresh[0]) != row._sid(fresh[1])
