"""The block memo's stream: the pairs of one batch share the blocks of
equal structure.

Sharing must change no residual, must save sparse-kernel work, must compute
no structure twice within a pair or over two consecutive pairs, and must
keep nothing once the batch is done. A batch (registry.evaluate_batch)
runs the scalar checks of one kappa and compares its pair identities as one
stream; a single pair row is its one-row case.
"""

import collections
import dataclasses
import itertools
import time

import numpy as np
import pytest

from dense import Injected, evaluate_alone
from fuzzymono import csr, liouville, sector
from fuzzymono.liouville import (BlockMemo, Space, SuperOp, cache_get, commutator, stream_order,
                                 stream_plan)
from fuzzymono.sector import graded_residual
from fuzzymono.verify import registry
from fuzzymono.verify.registry import (BY_ID, REGISTRY, evaluate_batch, get_context,
                                       records_for_suite)
from fuzzymono.verify.runner import RunConfig, run_suite

PAIR_RECORDS = [r for r in REGISTRY if r.pairs is not None]


def assert_no_stream(space):
    """The block memo of space keeps nothing of a stream."""
    memo = space.memo
    assert not (memo.shared or memo._reads or memo._ahead)


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
        assert_no_stream(ctx.space)


@pytest.mark.parametrize("kappa", [*range(-2, 3), None])
def test_a_batch_changes_no_residual(kappa):
    """Every row of a whole batch gives the outcome it has alone: a pair
    identity that of its pairs compared alone, a scalar check that of
    IdentityRecord.evaluate, skips included. kappa None is the batch of
    the kappa-independent checks."""
    ctx = get_context(6, 1.0)
    records = [rec for rec in records_for_suite("all") if rec.per_kappa == (kappa is not None)]
    outs = evaluate_batch(ctx, kappa, [(rec, rec.guard) for rec in records])
    assert_no_stream(ctx.space)
    for rec, (out, _) in zip(records, outs):
        alone = (rec.evaluate(ctx, kappa, rec.guard) if rec.pairs is None
                 else evaluate_alone(rec, ctx, kappa, rec.guard))
        assert repr(out) == repr(alone), rec.id


def test_sharing_changes_no_scaling_residual():
    checked = 0
    for rec in (r for r in REGISTRY if r.suite == "scaling" and r.per_kappa):
        base = BY_ID[rec.id.removeprefix("scale:")]
        for kappa in range(-2, 3):
            outs = [evaluate_alone(base, get_context(6, lam), kappa, base.guard, floor=0.0)
                    for lam in (0.5, 1.0, 2.0)]
            vals = [out[0] for out in outs if out is not None]
            want = (max(vals) - min(vals), []) if len(vals) == 3 else None
            assert repr(rec.evaluate(get_context(6, 1.0), kappa, rec.guard)) == repr(want), rec.id
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


def _kernel_calls(monkeypatch, run) -> int:
    """Kernel calls of run(ctx, pair records) on the velocity suite at
    n_max 6, kappa 1, on fresh caches."""
    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})
    counting = _Counting(csr._sparsetools)
    monkeypatch.setattr(csr, "_sparsetools", counting)
    run(get_context(6, 1.0), [rec for rec in records_for_suite("velocity") if rec.pairs])
    monkeypatch.setattr(csr, "_sparsetools", counting.module)
    return counting.calls


def _each(evaluate):
    def run(ctx, records):
        for rec in records:
            evaluate(rec, ctx, 1, rec.guard)

    return run


def test_sharing_saves_kernel_calls(monkeypatch):
    shared = _kernel_calls(monkeypatch, _each(lambda rec, *args: rec.evaluate(*args)))
    alone = _kernel_calls(monkeypatch, _each(evaluate_alone))
    assert 0 < shared < alone


def test_a_batch_saves_kernel_calls_over_its_rows(monkeypatch):
    rows = _kernel_calls(monkeypatch, _each(lambda rec, *args: rec.evaluate(*args)))
    batch = _kernel_calls(monkeypatch, lambda ctx, records: evaluate_batch(
        ctx, 1, [(rec, rec.guard) for rec in records]))
    assert 0 < batch < rows


def test_stream_order_follows_the_most_shared_keys():
    # from pair 0, pair 2 shares the most keys; pairs 3 and 4 share one
    # with it, and the earlier wins; none shares with pair 3, so the
    # earliest unvisited follows
    assert stream_order([{"a", "b"}, {"z"}, {"a", "b", "c"}, {"c"}, {"a"}]) == [0, 2, 3, 1, 4]
    assert stream_order([set(), {"x"}, {"x"}]) == [0, 1, 2]
    assert stream_order([]) == []


def _plan_keys(ctx) -> list[tuple]:
    """The keys of the stream plans that the context's cache keeps."""
    return [key for key in ctx._cache if key[0] == "plan"]


def test_the_stream_order_is_kept_per_space_and_key(monkeypatch, fresh):
    """evaluate_batch keeps one stream plan per context and per tuple of
    live pair functions: a second kappa with the same live rows reuses the
    first one's, and other rows, a row with a pair function of its own or
    another space get a plan of their own."""
    orders = []
    monkeypatch.setattr(liouville, "stream_order",
                        lambda reads: orders.append(len(reads)) or stream_order(reads))
    ctx = get_context(6, 1.0)
    rows = [(rec, rec.guard) for rec in records_for_suite("velocity") if rec.pairs]
    for kappa in (1, -1):
        evaluate_batch(ctx, kappa, rows)
    assert len(orders) == 1 and orders[0] > len(rows)
    evaluate_batch(ctx, 1, rows[1:])
    assert len(orders) == 2
    evaluate_batch(get_context(5, 1.0), 1, rows)
    assert len(orders) == 3
    rec = BY_ID["radius-def"]
    same = dataclasses.replace(rec, id="same-pairs")
    own = dataclasses.replace(rec, id="own-pairs", pairs=lambda ctx: rec.pairs(ctx))
    for copy in (rec, same, own, rec):
        evaluate_batch(ctx, 1, [(copy, rec.guard)])
    assert len(orders) == 5
    assert _plan_keys(ctx) == [("plan", *(r.pairs for r, _ in rows)),
                               ("plan", *(r.pairs for r, _ in rows[1:])),
                               ("plan", rec.pairs), ("plan", own.pairs)]


def test_a_stream_yields_every_position_once(fresh):
    """The positions a stream yields are a permutation of the pairs', on
    the first stream of their plan and on a replay of it."""
    ctx = get_context(6, 1.0)
    ctx.sector(1)
    pairs = [pair for rec in records_for_suite("velocity") if rec.pairs
             for pair in rec.pairs(ctx)]
    plan = stream_plan(pairs)
    for _ in range(2):
        positions = list(ctx.space.memo.stream(plan))
        assert sorted(positions) == list(range(len(pairs))) and positions != sorted(positions)
        assert_no_stream(ctx.space)
    assert list(ctx.space.memo.stream(stream_plan([]))) == []


def test_a_stream_left_early_keeps_nothing(fresh):
    """A caller that stops iterating after the first position, or raises
    between two positions while every block reads, leaves nothing of the
    stream in the memo."""
    ctx = get_context(6, 1.0)
    ctx.sector(0)
    memo = ctx.space.memo
    pairs = list(BY_ID["su22-op-closure"].pairs(ctx))
    plan = stream_plan(pairs)
    for pos in memo.stream(plan):
        graded_residual(*pairs[pos], ctx.sector(0), 2)
        assert memo._ahead
        break
    assert_no_stream(ctx.space)
    with pytest.raises(RuntimeError, match="between"):
        for n, pos in enumerate(memo.stream(plan)):
            graded_residual(*pairs[pos], ctx.sector(0), 2)
            if n == 3:
                assert memo.shared
                raise RuntimeError("the caller fails between two positions")
    assert_no_stream(ctx.space)


def _counted_turns(monkeypatch) -> list[int]:
    """A list that grows by one at each BlockMemo._turn."""
    turns, turn = [], BlockMemo._turn
    monkeypatch.setattr(BlockMemo, "_turn",
                        lambda memo, ahead: turns.append(len(ahead)) or turn(memo, ahead))
    return turns


def test_a_failing_batch_leaves_no_memo(monkeypatch):
    """A pair function that raises while the batch is built, before the
    memo streams it, or a block that fails while the memo streams it,
    leaves nothing of the stream in the memo."""
    ctx = get_context(6, 1.0)
    rec = BY_ID["su22-op-closure"]
    others = [(r, r.guard) for r in records_for_suite("velocity") if r.pairs]
    turns = _counted_turns(monkeypatch)
    turns_at_failure = []

    def failing(ctx):
        yield from itertools.islice(rec.pairs(ctx), 5)
        raise RuntimeError("a pair function fails while the batch is built")

    def unreadable(k):
        turns_at_failure.append(len(turns))
        raise RuntimeError("a block fails while the batch is compared")

    def failing_block(ctx):
        yield from rec.pairs(ctx)
        leaf = Injected(ctx.space, unreadable)
        yield leaf, leaf

    for pairs, match in ((failing, "built"), (failing_block, "compared")):
        with pytest.raises(RuntimeError, match=match):
            failing_rec = dataclasses.replace(rec, id="failing", pairs=pairs)
            evaluate_batch(ctx, 0, others + [(failing_rec, rec.guard)])
        assert_no_stream(ctx.space)
    assert turns_at_failure and turns_at_failure[0] > 0


def test_a_pair_function_without_pairs_is_named():
    rec = dataclasses.replace(BY_ID["radius-def"], id="no-pairs", pairs=lambda ctx: iter(()))
    with pytest.raises(ValueError, match="no-pairs"):
        rec.evaluate(get_context(6, 1.0), 0, rec.guard)


def test_a_record_has_pairs_or_a_check_and_a_reducer_only_with_pairs():
    """A record gives exactly one of pairs and check, and a reducer reduces
    the words of its pairs: a check with a reducer, or a reducer alone, is
    refused by name."""
    charge, gram = BY_ID["monopole-charge"], BY_ID["sector-gram"]
    with pytest.raises(ValueError, match="both: give exactly one of pairs and check"):
        dataclasses.replace(charge, id="both", check=gram.check)
    with pytest.raises(ValueError, match="neither: give exactly one of pairs and check"):
        dataclasses.replace(charge, id="neither", pairs=None)
    with pytest.raises(ValueError, match="check-reducer: .* reduce with pairs"):
        dataclasses.replace(gram, id="check-reducer", reduce=charge.reduce)


def test_each_row_of_a_batch_is_timed_by_its_own_pairs():
    """A row's seconds are those of building and comparing its own pairs:
    a row whose pair function sleeps gets the sleep, no other row does."""
    ctx = get_context(6, 1.0)
    slow = BY_ID["u-weighted-adjoint"]

    def sleepy(ctx):
        time.sleep(0.05)
        yield from slow.pairs(ctx)

    rows = [(rec, rec.guard) for rec in records_for_suite("velocity") if rec.pairs]
    rows = [(dataclasses.replace(rec, pairs=sleepy) if rec is slow else rec, guard)
            for rec, guard in rows]
    outs = evaluate_batch(ctx, 1, rows)
    assert all(out is not None for out, _ in outs)
    for (rec, _), (_, seconds) in zip(rows, outs):
        assert (seconds >= 0.05) if rec.id == slow.id else (0 < seconds < 0.05), rec.id
    # in a run, every checked pair row reports a positive wall time
    report = run_suite(RunConfig(suite="all", n_max=6, kappas=(1,), jobs=1))
    checked = [r for r in report.results if r.residual is not None and BY_ID[r.id].pairs]
    assert checked and all(r.wall_time_ms > 0 for r in checked)


def test_no_structure_computed_twice_in_a_pair_or_the_next(monkeypatch, fresh):
    """Every (structure, sector) that a walked pair computes is computed at
    most once over the pair and the one after it, and a pair starts with no
    block that neither it nor the next pair reads."""
    turns: list[int] = []  # turns so far of each stream
    computed = collections.defaultdict(list)  # (stream, structure, sector) -> turn
    walked: set[int] = set()  # id() of each transient node the plans' walks reached
    stream, turn, walk = BlockMemo.stream, BlockMemo._turn, liouville._walk
    compute = SuperOp._compute

    def numbered_stream(memo, plan):
        turns.append(0)
        yield from stream(memo, plan)

    def recorded_walk(ops, held=()):
        todo = [op for op in ops if not op.kept]
        while todo:
            op = todo.pop()
            walked.add(id(op))
            todo += [a for a in op.args if not a.kept]
        return walk(ops, held)

    def counted_turn(memo, ahead):
        turns[-1] += 1
        turn(memo, ahead)
        assert set(memo.shared) <= set(memo._reads) | set(memo._ahead)

    def recorded_compute(op, k):
        if id(op) in walked:
            computed[len(turns), op.sid, k].append(turns[-1])
        return compute(op, k)

    monkeypatch.setattr(BlockMemo, "stream", numbered_stream)
    monkeypatch.setattr(BlockMemo, "_turn", counted_turn)
    monkeypatch.setattr(liouville, "_walk", recorded_walk)
    monkeypatch.setattr(SuperOp, "_compute", recorded_compute)
    ctx = get_context(6, 1.0)
    for rec in records_for_suite("velocity") + [BY_ID["su22-op-closure"]]:
        if rec.pairs is not None:
            rec.evaluate(ctx, 1, rec.guard)
    assert computed and len(turns) > 1
    for key, at in computed.items():
        assert all(b - a > 1 for a, b in zip(at, at[1:])), (key, at)


def test_no_block_outlives_its_row(monkeypatch):
    """A row's stream leaves nothing in the memo, also when a block of its
    pairs fails after the memo has walked some of them."""
    ctx = get_context(6, 1.0)
    rec = BY_ID["su22-op-closure"]
    turns = _counted_turns(monkeypatch)
    walked = []

    def unreadable(k):
        walked.append(len(turns))
        raise RuntimeError("a block fails in the middle of a row")

    def failing(ctx):
        for i, pair in enumerate(rec.pairs(ctx)):
            if i == 5:
                leaf = Injected(ctx.space, unreadable)
                pair = (pair[0] @ leaf, pair[1])
            yield pair

    assert rec.evaluate(ctx, 0, rec.guard) is not None
    assert_no_stream(ctx.space)
    with pytest.raises(RuntimeError, match="middle of a row"):
        dataclasses.replace(rec, pairs=failing).evaluate(ctx, 0, rec.guard)
    assert walked[0] > 0
    assert_no_stream(ctx.space)


def test_structure_ids_match_equal_words_only():
    space = Space(2)
    a, b = space.lmul_a(1), space.rmul_a(2)
    assert (a @ b).sid == (a @ b).sid != (b @ a).sid
    assert (a - b).sid == (a - b).sid != (a + b).sid
    assert (2.0 * a).sid == (2 * a).sid != (2j * a).sid
    assert a.plain_adjoint().sid == a.plain_adjoint().sid != b.plain_adjoint().sid
    # equal floats with other bits, and NaN, never match
    assert (0.0 * a).sid != (-0.0 * a).sid
    nan = float("nan")
    assert (nan * a).sid != (nan * a).sid
    # a leaf is itself only, however it was built
    fresh = [space.radial_values(np.ones((3, 3))) for _ in range(2)]
    assert fresh[0].sid != fresh[1].sid
    assert (fresh[0] @ a).sid != (fresh[1] @ a).sid


def test_equal_words_of_two_streams_have_equal_ids(fresh):
    """A word's id is fixed when it is built: the pairs built for a stream
    at one kappa and again for a stream at another have equal ids, node for
    node, and the memo's structure table stays."""
    ctx = get_context(6, 1.0)
    memo = ctx.space.memo
    rec = BY_ID["su22-op-closure"]
    built = []
    for kappa in (1, -2):
        ctx.sector(kappa)
        pairs = list(rec.pairs(ctx))
        for pos in memo.stream(stream_plan(pairs)):
            graded_residual(*pairs[pos], ctx.sector(kappa), rec.guard)
        assert_no_stream(ctx.space)
        built.append(pairs)
    first, second = built
    assert len(first) == len(second) and memo._table
    for p, q in zip(first, second):
        assert [op.sid for op in p] == [op.sid for op in q]
        assert all(x is not y or x.kept for x, y in zip(p, q))


def test_a_kept_operator_matches_no_transient_word():
    """cache_get gives the operator it keeps an id of its own, which no
    word of equal structure shares; its blocks are kept by that id."""
    space = Space(3)
    def word():
        return space.radius_inv() @ (space.lmul_adag(1) @ space.rmul_a(1))

    kept = cache_get(space._cache, ("test-word",), word)
    assert kept.kept and not word().kept
    assert word().sid == word().sid != kept.sid
    assert kept is cache_get(space._cache, ("test-word",), word)
    space.memo.at(0)
    kept.raw_block(0)
    assert (kept.sid, 0) in space.memo.kept
    assert (word().sid, 0) not in space.memo.kept


def test_a_transient_block_read_outside_a_stream_keeps_nothing():
    space = Space(3)
    a, b = space.lmul_a(1), space.rmul_adag(2)
    word = (a @ b - b @ a) @ (2.0 * a.plain_adjoint())
    dims = {k: space.sector_levels(k)[1][-1] for k in (-1, 0, 1, 2)}
    for k in (0, 1, -1):
        assert word.raw_block(k).shape == (dims[k + 1], dims[k])
        assert_no_stream(space)


def _live(ctx, kappa, rows) -> tuple[str, ...]:
    """The ids of the rows whose window on sector kappa is not empty."""
    return tuple(rec.id for rec, guard in rows if rec.window(ctx, kappa, guard) is not None)


def test_a_stream_reads_the_same_blocks_at_every_kappa(monkeypatch, fresh):
    """The shift claim that a replayed plan relies on. At n_max 6, the
    stream of each kappa's pair rows of --suite all, walked afresh, walks
    every pair alike and reads the same transient (structure, sector -
    kappa) blocks in the same order at every kappa with the same live rows,
    and each pair reads exactly what the walk counted for it."""
    ctx = get_context(6, 1.0)
    rows = [(rec, rec.guard) for rec in records_for_suite("all") if rec.pairs]
    walks, reads = [], []
    walk, read, turn = liouville._walk, BlockMemo.read, BlockMemo._turn

    def recorded_walk(ops, held=()):
        walks.append(walk(ops, held))
        return walks[-1]

    def recorded_read(memo, op, k):
        if not op.kept:
            reads.append((op.sid, k - memo.kappa))
        return read(memo, op, k)

    def checked_turn(memo, ahead):
        assert not memo._reads  # the pair that ends read all its walk counted
        turn(memo, ahead)

    monkeypatch.setattr(liouville, "_walk", recorded_walk)
    monkeypatch.setattr(BlockMemo, "read", recorded_read)
    monkeypatch.setattr(BlockMemo, "_turn", checked_turn)
    seen: dict[tuple[str, ...], tuple] = {}  # live rows -> (first kappa, walks, reads)
    for kappa in range(-4, 5):
        live = _live(ctx, kappa, rows)
        for key in _plan_keys(ctx):
            del ctx._cache[key]
        walks.clear()
        reads.clear()
        evaluate_batch(ctx, kappa, rows)
        first = seen.setdefault(live, (kappa, list(walks), list(reads)))
        assert first[1:] == (walks, reads), (first[0], kappa)
    assert reads and len(seen) < 9  # some kappas share their live rows


def test_a_replayed_kappa_computes_what_a_fresh_walk_does(monkeypatch, fresh):
    """At n_max 6, the pair rows of --suite all streamed at a kappa with
    the plan kept from an earlier kappa of the same live rows walk nothing,
    and compute the same (structure, sector - kappa) blocks, in the same
    order and with the same outcomes, as a stream that walks that kappa
    afresh."""
    ctx = get_context(6, 1.0)
    memo = ctx.space.memo
    rows = [(rec, rec.guard) for rec in records_for_suite("all") if rec.pairs]
    computed, walked = [], []
    compute, walk = SuperOp._compute, liouville._walk
    monkeypatch.setattr(SuperOp, "_compute", lambda op, k: computed.append(
        (op.sid, k - op.space.memo.kappa)) or compute(op, k))
    monkeypatch.setattr(liouville, "_walk", lambda ops, held=(): walked.append(
        len(ops)) or walk(ops, held))

    def run(kappa):
        computed.clear()
        walked.clear()
        memo.kept.clear()  # each run computes the kept blocks of kappa anew
        outs = evaluate_batch(ctx, kappa, rows)
        return repr([out for out, _ in outs]), list(computed), bool(walked)

    planned, replayed = set(), 0
    for kappa in range(-4, 5):
        live = _live(ctx, kappa, rows)
        if live in planned:
            replay = run(kappa)
            plans = {key: ctx._cache.pop(key) for key in _plan_keys(ctx)}
            walked_afresh = run(kappa)
            ctx._cache.update(plans)
            assert not replay[2] and walked_afresh[2], kappa
            assert replay[:2] == walked_afresh[:2], kappa
            replayed += 1
        else:
            run(kappa)
            planned.add(live)
    assert replayed >= 4


def test_a_plan_made_ahead_holds_what_the_walking_stream_held(monkeypatch, fresh):
    """What stream_plan rests on. It walks each pair with the keys of the
    pair before it held, where a stream that walked while it read held the
    keys of its next pair and its shared blocks. The two agree because, in
    every batch of --suite all at n_max 6 over kappa -2..2, each turn finds
    the pair before it read in full (no reads left) and every shared block
    among the next pair's keys."""
    turns, turn = [], BlockMemo._turn

    def checked_turn(memo, ahead):
        assert not memo._reads and memo.shared.keys() <= memo._ahead.keys()
        turns.append(len(memo.shared))
        turn(memo, ahead)

    monkeypatch.setattr(BlockMemo, "_turn", checked_turn)
    report = run_suite(RunConfig(suite="all", n_max=6, kappas=tuple(range(-2, 3)), jobs=1))
    assert report.results and len(turns) > 100 and max(turns) > 0


def test_a_plan_computes_and_drops_no_block(monkeypatch, fresh):
    """stream_plan, called in the middle of a stream, computes no block and
    leaves the memo's kept and shared blocks as they are."""
    ctx = get_context(6, 1.0)
    memo = ctx.space.memo
    pairs = list(BY_ID["su22-op-closure"].pairs(ctx))
    plan = stream_plan(pairs)
    compute = SuperOp._compute

    def no_compute(op, k):
        raise AssertionError("stream_plan computed a block")

    for n, pos in enumerate(memo.stream(plan)):
        graded_residual(*pairs[pos], ctx.sector(0), 2)
        if n == 3:
            kept, shared = dict(memo.kept), dict(memo.shared)
            assert kept and shared
            monkeypatch.setattr(SuperOp, "_compute", no_compute)
            assert stream_plan(pairs) == plan
            monkeypatch.setattr(SuperOp, "_compute", compute)
            for before, after in ((kept, memo.kept), (shared, memo.shared)):
                assert before.keys() == after.keys()
                assert all(after[key] is blk for key, blk in before.items())
    assert_no_stream(ctx.space)


def test_each_pair_function_runs_once_per_context(fresh):
    """Over kappa -4..4 a pair function is called once per context: the
    later kappas stream the pairs that the first one built."""
    calls = collections.Counter()

    def counted(rec):
        def pairs(ctx):
            calls[rec.id] += 1
            return rec.pairs(ctx)

        return dataclasses.replace(rec, pairs=pairs)

    rows = [(counted(rec), rec.guard) for rec in records_for_suite("all") if rec.pairs]
    for kappa in range(-4, 5):
        evaluate_batch(get_context(6, 1.0), kappa, rows)
    assert len(calls) == len(rows) and set(calls.values()) == {1}
    other = get_context(5, 1.0)
    for kappa in (1, -1):
        evaluate_batch(other, kappa, rows)
    live = set(_live(other, 1, rows)) | set(_live(other, -1, rows))
    assert live and all(calls[rid] == 1 + (rid in live) for rid in calls)


def test_the_structure_table_stops_growing_with_kappa_visits(fresh):
    """The words of a run get their structure ids on the first kappa: after
    --suite all at kappa 0, where every pair row has a window at n_max 6
    (so its words are built and streamed; field-trend then reads its blocks
    and skips, as kappa 0 has no field), a run over kappa -4..4 adds no
    entry to the memo's structure table."""
    report = run_suite(RunConfig(suite="all", n_max=6, kappas=(0,), jobs=1))
    ctx = get_context(6, 1.0)
    assert all(BY_ID[row.id].window(ctx, 0, row.guard) is not None
               for row in report.results if BY_ID[row.id].pairs)
    table = ctx.space.memo._table
    size = len(table)
    run_suite(RunConfig(suite="all", n_max=6, kappas=tuple(range(-4, 5)), jobs=1))
    assert size > 0 and len(table) == size


def test_no_scalar_check_reads_a_block(monkeypatch, fresh):
    """The batch's stream is the only reader of blocks: over --suite all
    at n_max 6, kappa -2..2 and the kappa-independent batch, no scalar
    check reads a block while evaluate_batch runs it, and the pair rows,
    the three reducer rows among them, do."""
    read, in_check, reads = BlockMemo.read, [], []

    def guarded_read(memo, op, k):
        if in_check:
            raise AssertionError(f"the scalar check {in_check[-1]} reads a block")
        reads.append(op.sid)
        return read(memo, op, k)

    def guarded(rec):
        def builder(*args):
            in_check.append(rec.id)
            try:
                return rec.builder(*args)
            finally:
                in_check.pop()

        return dataclasses.replace(rec, builder=builder)

    monkeypatch.setattr(BlockMemo, "read", guarded_read)
    ctx = get_context(6, 1.0)
    records = [rec if rec.pairs else guarded(rec) for rec in records_for_suite("all")]
    checked = set()
    for kappa in [*range(-2, 3), None]:
        rows = [(rec, rec.guard) for rec in records if rec.per_kappa == (kappa is not None)]
        for (rec, _), (out, _) in zip(rows, evaluate_batch(ctx, kappa, rows)):
            if out is not None:
                checked.add(rec.id)
    reducers = {"monopole-charge", "field-trend", "sector-grading"}
    assert {rec.id for rec in REGISTRY if rec.reduce} == reducers
    assert reads and not in_check
    # field-trend has too few blocks to fit at n_max 6; it reads them and skips
    assert {rec.id for rec in records if rec.check} | reducers - {"field-trend"} <= checked


def test_a_batch_computes_the_field_commutator_at_most_four_times(monkeypatch, fresh):
    """One evaluate_batch of every per-kappa row at n_max 12, kappa 2
    computes the block of [V_1, V_2] at most 4 times: monopole-charge and
    field-trend read it in the stream, which shares it with the pairs
    next to theirs, instead of computing it once more each outside it."""
    ctx = get_context(12, 1.0)
    field = commutator(ctx.vel.velocity(1), ctx.vel.velocity(2))
    compute, computed = SuperOp._compute, []
    monkeypatch.setattr(SuperOp, "_compute", lambda op, k: computed.append(
        (op.sid, k)) or compute(op, k))
    rows = [(rec, rec.guard) for rec in records_for_suite("all") if rec.per_kappa]
    outs = evaluate_batch(ctx, 2, rows)
    assert all(out is not None for out, _ in outs)
    assert 0 < computed.count((field.sid, 2)) <= 4
