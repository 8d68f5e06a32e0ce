import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import types
import weakref

import pytest

from fuzzymono.verify import cli
from fuzzymono.verify.cli import keep_freed_memory, main, parse_kappas
from fuzzymono.liouville import commutator
from fuzzymono.monopole import charge_fit, monopole_profile_op
from fuzzymono.sector import _window_norm, graded_residual
from fuzzymono.verify.registry import BY_ID, REGISTRY, get_context, records_for_suite
from fuzzymono.verify.runner import RunConfig, exit_code, plan_batches, run_suite


def strip_wall_times(payload: str) -> str:
    raw = json.loads(payload)
    for row in raw["results"]:
        row["wall_time_ms"] = None
    return json.dumps(raw, sort_keys=True)


def test_registry_ids_unique_and_mapped():
    ids = [r.id for r in REGISTRY]
    assert len(ids) == len(set(ids))
    assert len(records_for_suite("all")) >= 40
    for rec in REGISTRY:
        assert rec.formula  # every identity states its relation or "plumbing"
        assert rec.suite in {"fock", "coords", "su22", "radial", "velocity",
                             "monopole", "scaling"}


def test_a_copied_record_builds_with_its_own_check():
    """dataclasses.replace gives a record whose builder evaluates the copy,
    while a wrapper passed as builder (a tracer's) is kept."""
    calls = []

    def spy(ctx, win):
        calls.append(win.sector.kappa)
        return 0.5, []

    ctx = get_context(6, 1.0)
    copy = dataclasses.replace(BY_ID["q-limit"], check=spy)
    assert copy.builder(ctx, 1, 0) == (0.5, []) and calls == [1]
    assert BY_ID["q-limit"].builder(ctx, 1, 0) != (0.5, []) and calls == [1]

    def wrapper(*args):
        return copy.builder(*args)

    traced = dataclasses.replace(copy, builder=wrapper)
    assert traced.builder is wrapper
    assert dataclasses.replace(traced, id="renamed").builder is wrapper


def test_a_copied_record_evaluates_its_own_pairs():
    """dataclasses.replace gives a pair record whose pairs are its own, not
    those the original record built on the same context, and a later kappa
    streams them without calling its pair function again."""
    calls = []

    def spy(ctx):
        calls.append(ctx)
        r = ctx.space.radius_op()
        yield r, 2.0 * r  # residual |r - 2r| / |2r| = 0.5 exactly

    ctx = get_context(6, 1.0)
    rec = BY_ID["radius-def"]
    assert rec.evaluate(ctx, 1, rec.guard)[0] < 1e-14
    copy = dataclasses.replace(rec, pairs=spy)
    assert copy.evaluate(ctx, 1, rec.guard) == (0.5, []) and calls == [ctx]
    assert copy.evaluate(ctx, -2, rec.guard) == (0.5, []) and calls == [ctx]
    assert rec.evaluate(ctx, -2, rec.guard)[0] < 1e-14


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        records_for_suite("bogus")


def test_coords_suite_all_pass():
    rep = run_suite(RunConfig(suite="coords", kappas=(0,), n_max=10, jobs=1))
    assert len(rep.results) == 3
    assert rep.all_passed
    assert exit_code(rep) == 0


def test_monopole_zero_charge_branch():
    rep = run_suite(RunConfig(suite="monopole", kappas=(0,), n_max=8, jobs=1))
    assert exit_code(rep) == 0
    by_id = {r.id: r for r in rep.results}
    assert by_id["field-closed-spatial"].passed is True
    assert by_id["field-trend"].passed is None  # nothing to fit at kappa 0


def test_skipped_when_sector_empty():
    rep = run_suite(RunConfig(suite="velocity", kappas=(9,), n_max=3, jobs=1))
    per_kappa = [r for r in rep.results if r.kappa == 9]
    assert per_kappa and all(r.passed is None for r in per_kappa)
    assert exit_code(rep) == 0  # skipped never fails the run


def test_empty_sector_skips_before_the_check():
    """evaluate builds the sector and returns None on an empty one; the
    scalar check is never called."""
    calls = []

    def spy(ctx, win):
        calls.append(win.sector)
        return 0.0, []

    rec = dataclasses.replace(BY_ID["q-limit"], check=spy)
    ctx = get_context(3, 1.0)
    assert ctx.sector(5).dim == 0
    assert rec.evaluate(ctx, 5, rec.guard) is None
    assert calls == []
    assert rec.evaluate(ctx, 1, rec.guard) == (0.0, [])
    assert calls == [ctx.sector(1)]
    # a kappa-independent check gets no sector
    fock = dataclasses.replace(BY_ID["number-level"], check=spy)
    assert fock.evaluate(ctx, None, fock.guard) == (0.0, [])
    assert calls[-1] is None


def test_scaling_suite_is_exact():
    """Power-of-two rescalings of lam leave every checked residual bit for
    bit the same (floor 0), so each row's spread is exactly 0."""
    report = run_suite(RunConfig(suite="scaling", n_max=6, jobs=1))
    checked = [r for r in report.results if r.residual is not None]
    assert all(r.residual == 0.0 for r in checked), [(r.id, r.kappa, r.residual)
                                                      for r in checked]
    assert (len(checked), len(report.results) - len(checked)) == (25, 12)
    assert exit_code(report) == 0


def test_every_scaling_base_checks_something():
    """Under floor 0 a pair whose right side is 0 reads ||L|| / ||L|| = 1.0
    for any L, so a scaling row over such a base compares 1.0 with 1.0 and
    cannot fail. Each base has a checked row at n_max 6 whose floor-0
    residual is far from that."""
    ctx = get_context(6, 1.0)
    for rec in records_for_suite("scaling"):
        base = BY_ID[rec.id.removeprefix("scale:")]
        outs = [base.evaluate(ctx, kappa, base.guard, floor=0.0)
                for kappa in (range(-4, 5) if base.per_kappa else (None,))]
        assert any(out is not None and out[0] < 0.5 for out in outs), base.id


def test_failure_drives_exit_code():
    # the global tolerance governs identities without per-identity overrides
    cfg = RunConfig(suite="velocity", kappas=(1,), n_max=6, jobs=1, tol=1e-30)
    rep = run_suite(cfg)
    assert any(r.passed is False for r in rep.results)
    assert exit_code(rep) == 1
    # identities with their own override are untouched by the global knob
    by_id = {r.id: r for r in rep.results}
    assert by_id["u-weighted-adjoint"].tolerance == 1e-12
    assert by_id["q-order"].tolerance == 1e-30
    # a guard override can also expose the truncation boundary
    bad = RunConfig(suite="su22", kappas=(0,), n_max=6, jobs=1, guard=0)
    rep2 = run_suite(bad)
    by_id2 = {(r.id, r.kappa): r for r in rep2.results}
    assert by_id2[("radius-s05", 0)].passed is False
    assert exit_code(rep2) == 1


def test_guard_override_reported():
    rep = run_suite(RunConfig(suite="su22", kappas=(1,), n_max=6, jobs=1, guard=3))
    assert all(r.guard == 3 for r in rep.results)


def test_per_block_checks_skip_an_empty_guarded_window():
    """Under --guard 3 the six blocks of kappa 1 at n_max 6 leave no window,
    so the per-block checks skip like the pair identities of the suite."""
    rep = run_suite(RunConfig(suite="radial", n_max=6, kappas=(1,), guard=3, jobs=1))
    by_id = {r.id: r for r in rep.results}
    for rid in ("radial-annihilator", "sector-grading", "sector-gram"):
        assert by_id[rid].guard == 3
        assert by_id[rid].skipped, (rid, by_id[rid].residual)
    assert all(r.skipped for r in rep.results)


def test_per_block_checks_read_only_the_window():
    """q-limit and sector-gram see only the blocks of the guarded window: a
    radius that breaks both checks on the two end blocks shows at guard 0
    and not at guard 1."""
    ctx = get_context(6, 1.0)
    sec = ctx.sector(1)
    w = sec.r_hat_eigen.copy()
    w[[0, -1]] = -0.5 * ctx.lam  # |Q - 1| = 4 > 2 lam / r, negative weights
    w.setflags(write=False)
    poisoned = dataclasses.replace(sec, r_hat_eigen=w)
    for rid in ("q-limit", "sector-gram"):
        check = BY_ID[rid].check
        assert check(ctx, poisoned.window(0))[0] > 0.0, rid
        assert check(ctx, poisoned.window(1)) == check(ctx, sec.window(1)) == (0.0, []), rid


def test_one_operator_cache_per_space():
    ctx = get_context(5, 1.0)
    cache = ctx.space._cache
    assert ctx.alg._cache is cache and ctx.vel._cache is cache and ctx._cache is cache
    # a radial multiplier is cached once, by name, whoever asks for it
    from fuzzymono.algebra import RF_MONOPOLE, RF_Q
    assert ctx.radial(RF_MONOPOLE) is RF_MONOPOLE.to_superop(ctx.space) \
        is cache[("rf", RF_MONOPOLE.name)]
    assert ctx.vel.q_factor() is ctx.radial(RF_Q)


def test_monopole_suite_builds_its_radial_profile_once(monkeypatch):
    """Every monopole identity reads the one cached 1/(r(r^2-l^2)) multiplier,
    and each radial function the suite uses (1, 1/r and rho) is built once."""
    from fuzzymono import liouville, sector
    from fuzzymono.verify import registry

    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})
    calls = []
    radial = liouville.Space.radial

    def counted(self, fn, poles=()):
        calls.append((self.n_max, poles))
        return radial(self, fn, poles)

    monkeypatch.setattr(liouville.Space, "radial", counted)
    rep = run_suite(RunConfig(suite="monopole", n_max=12, kappas=(3,), jobs=1))
    assert rep.all_passed
    # the poles tell the three apart: RF_ONE, RF_INV_R and RF_MONOPOLE
    from fuzzymono.algebra import RF_INV_R, RF_MONOPOLE, RF_ONE
    assert sorted(calls) == sorted((12, f.poles) for f in (RF_ONE, RF_INV_R, RF_MONOPOLE))


@pytest.mark.parametrize("guard, passed, excluded", [(0, False, []), (1, True, [6]),
                                                     (3, True, [4, 5, 6]), (7, None, [])])
def test_ladder_canonical_honours_the_guard(guard, passed, excluded):
    """[a, a+] = 1 fails at order one on the top level, which only guard 0
    keeps; a guard past n_max leaves no level, and the row is a skip."""
    rep = run_suite(RunConfig(suite="fock", n_max=6, guard=guard, jobs=1))
    row = {r.id: r for r in rep.results}["ladder-canonical"]
    assert (row.guard, row.passed, row.excluded_blocks) == (guard, passed, excluded)
    if passed is None:
        assert row.residual is None
    else:
        assert row.residual > 0.5 if guard == 0 else row.residual < 1e-15


def test_deterministic_order_and_bytes():
    cfg = RunConfig(suite="radial", kappas=(-2, 0, 1), n_max=7, jobs=2)
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    assert strip_wall_times(a) == strip_wall_times(b)
    keys = [(row["id"], row["kappa"] is not None, row["kappa"] or 0)
            for row in json.loads(a)["results"]]
    assert keys == sorted(keys)


def test_parallel_matches_serial():
    for suite, kappas in (("velocity", (0, 2)), ("all", (2,)), ("all", tuple(range(-2, 3)))):
        cfg1 = RunConfig(suite=suite, kappas=kappas, n_max=6, jobs=1)
        cfg2 = RunConfig(suite=suite, kappas=kappas, n_max=6, jobs=2)
        assert strip_wall_times(run_suite(cfg1).to_json()) == \
            strip_wall_times(run_suite(cfg2).to_json()), (suite, kappas)


def _job_kappas(kappas):
    """The sector of every job of an --suite all run, in job order."""
    return [kappa for rec in records_for_suite("all")
            for kappa in (kappas if rec.per_kappa else (None,))]


def test_plan_batches_one_kappa_per_batch_largest_sector_first():
    job_kappas = _job_kappas(tuple(range(-4, 5)))
    batches = plan_batches(job_kappas, 2)
    assert [{job_kappas[i] for i in b} for b in batches] == \
        [{0}, {-1}, {1}, {-2}, {2}, {-3}, {3}, {-4}, {4}, {None}]
    # every job once; the kappa-independent jobs are one batch, dispatched last
    assert sorted(i for b in batches for i in b) == list(range(len(job_kappas)))
    assert batches[-1] == [i for i, k in enumerate(job_kappas) if k is None]
    # one worker: the same batches, in the same order
    assert plan_batches(job_kappas, 1) == batches


def test_plan_batches_splits_few_kappas_into_interleaved_parts():
    job_kappas = _job_kappas((2,))
    mine = [i for i, k in enumerate(job_kappas) if k == 2]
    batches = plan_batches(job_kappas, 2)
    parts = [b for b in batches if job_kappas[b[0]] == 2]
    assert len(parts) >= 4
    assert parts == [mine[i::len(parts)] for i in range(len(parts))]
    assert plan_batches(job_kappas, 1) == [mine, batches[-1]]

    # three kappas on two workers: two parts each, still largest sector first
    job_kappas = _job_kappas((-1, 0, 3))
    batches = plan_batches(job_kappas, 2)
    assert all(len({job_kappas[i] for i in b}) == 1 for b in batches)
    assert [job_kappas[b[0]] for b in batches] == [0, 0, -1, -1, 3, 3, None]
    # fewer jobs than parts: no empty batch
    assert plan_batches([5, 5], 4) == [[0], [1]]


def _memoised_sectors(spaces) -> set[int]:
    """The sectors whose blocks the block memos of spaces keep for cached
    operators."""
    return {k for space in spaces for _, k in space.memo.kept}


def test_memoised_blocks_live_for_one_kappa(monkeypatch):
    """A serial run holds the blocks of one kappa at a time: once a kappa 4
    job has run, no memoised block of a negative sector is left."""
    from fuzzymono import liouville, sector
    from fuzzymono.verify import registry, runner

    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})
    seen: dict[int, set[int]] = {}
    eval_job = runner._eval_job

    def observed(job):
        outcome = eval_job(job)
        seen.setdefault(job[1], set()).update(_memoised_sectors(liouville._SPACES.values()))
        return outcome

    monkeypatch.setattr(runner, "_eval_job", observed)
    run_suite(RunConfig(suite="all", kappas=(-4, 4), n_max=6, jobs=1))
    assert min(seen[-4]) < 0
    assert seen[4] and min(seen[4]) >= 0


def test_cached_blocks_are_computed_once_per_kappa_visit(monkeypatch):
    """Within one kappa, each (cached operator, sector) block is computed
    once, however the kappa's pair rows are split into batches and whatever
    scalar check reads it; a visit to another kappa and back computes each
    of them exactly once more."""
    from fuzzymono import liouville, sector
    from fuzzymono.liouville import SuperOp
    from fuzzymono.verify import registry
    from fuzzymono.verify.registry import evaluate_batch

    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})
    computed: list[tuple[int, int]] = []  # (sid, sector) of every computed block
    compute = SuperOp._compute

    def recorded(op, k):
        computed.append((op.sid, k))
        return compute(op, k)

    monkeypatch.setattr(SuperOp, "_compute", recorded)
    ctx = get_context(6, 1.0)
    rows = [(rec, rec.guard) for rec in REGISTRY if rec.pairs is not None]
    charge = BY_ID["monopole-charge"]

    def visit(kappa) -> dict[tuple[int, int], int]:
        start = len(computed)
        for part in (rows[0::2], rows[1::2]):  # as plan_batches' interleaved parts
            evaluate_batch(ctx, kappa, part)
        assert charge.evaluate(ctx, kappa, charge.guard) is not None
        cached = {op.sid for op in ctx.space._cache.values() if isinstance(op, SuperOp)}
        counts: dict[tuple[int, int], int] = {}
        for key in computed[start:]:
            if key[0] in cached:
                counts[key] = counts.get(key, 0) + 1
        return counts

    first = visit(2)
    assert first and set(first.values()) == {1}
    visit(-1)
    assert visit(2) == first


def test_evaluate_alone_keeps_one_kappa_of_blocks(monkeypatch):
    """The engine context, not the runner, keeps the memos to one kappa:
    rows evaluated directly at kappa -4 and then at kappa 4 leave no
    memoised block of a negative sector."""
    from fuzzymono import liouville, sector
    from fuzzymono.verify import registry

    monkeypatch.setattr(liouville, "_SPACES", {})
    monkeypatch.setattr(sector, "_SECTORS", {})
    monkeypatch.setattr(registry, "_CONTEXTS", {})
    ctx = get_context(6, 1.0)
    held = {}
    for kappa in (-4, 4):
        for rec in records_for_suite("velocity"):
            rec.evaluate(ctx, kappa, rec.guard)
        held[kappa] = _memoised_sectors([ctx.space])
    assert min(held[-4]) < 0
    assert held[4] and min(held[4]) >= 0


def test_single_kappa_pool_run_uses_every_worker(monkeypatch, tmp_path):
    """Both workers, and not the main process, run rows of kappa 2; every
    one of the 62 rows runs once. A job (job[1] its kappa) is one batch, an
    interleaved part of the kappa's rows, so rows are counted, not
    calls."""
    from fuzzymono.verify import runner

    pids = tmp_path / "pids"
    eval_job = runner._eval_job

    def observed(job):
        time.sleep(0.005)  # let the second worker start before the batches run out
        with open(pids, "a", encoding="utf-8") as fh:
            fh.writelines(f"{os.getpid()} {job[1]} {rid}\n" for rid in job[0])
        return eval_job(job)

    monkeypatch.setattr(runner, "_eval_job", observed)
    run_suite(RunConfig(suite="all", kappas=(2,), n_max=6, jobs=2))
    lines = [line.split() for line in pids.read_text().splitlines()]
    assert len(lines) == 62 and len({rid for *_, rid in lines}) == 62
    assert str(os.getpid()) not in {pid for pid, *_ in lines}
    assert len({pid for pid, kappa, _ in lines if kappa == "2"}) == 2


def test_parse_kappas():
    assert parse_kappas("-4..4") == tuple(range(-4, 5))
    assert parse_kappas("0,2,-3") == (0, 2, -3)
    assert parse_kappas("5") == (5,)
    with pytest.raises(ValueError):
        parse_kappas("4..-4")
    for bad in ("", ",", "1,1", "abc", "2..2x"):
        with pytest.raises(ValueError, match="--kappa"):
            parse_kappas(bad)


def test_cli_accepts_leading_dash_kappa(tmp_path):
    """'--kappa -2..0' must parse even though the value starts with a dash."""
    out = tmp_path / "r.json"
    code = main(["--suite", "coords", "--kappa", "-2..0", "--n-max", "6",
                 "--format", "json", "--out", str(out), "--jobs", "1"])
    assert code == 0
    code = main(["--suite", "coords", "--kappa=-1,0", "--n-max", "6",
                 "--format", "json", "--out", str(out), "--jobs", "1"])
    assert code == 0


def test_jobs_resolution(monkeypatch):
    cfg = RunConfig(jobs=3)
    assert cfg.resolved_jobs() == 3
    cfg = RunConfig(jobs=0)
    monkeypatch.setenv("FUZZYMONO_JOBS", "2")
    assert cfg.resolved_jobs() == 2
    monkeypatch.setenv("FUZZYMONO_JOBS", "7")
    assert RunConfig(jobs=3).resolved_jobs() == 3  # --jobs wins over the variable
    monkeypatch.delenv("FUZZYMONO_JOBS")
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert cfg.resolved_jobs() == usable
    # a 0 in the variable means the default, as --jobs 0 does
    for zero in ("0", " 0 "):
        monkeypatch.setenv("FUZZYMONO_JOBS", zero)
        assert cfg.resolved_jobs() == usable
    # the default counts the CPUs the process may run on, not the host's
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cfg.resolved_jobs() == 1
    # without an affinity call, the CPU count, and 1 when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cfg.resolved_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cfg.resolved_jobs() == 1


def test_negative_jobs_refused(monkeypatch):
    """A negative worker count is refused, not replaced by the default."""
    monkeypatch.setenv("FUZZYMONO_JOBS", "2")
    with pytest.raises(ValueError, match=re.escape("jobs must be >= 0, got -3")):
        RunConfig(jobs=-3).resolved_jobs()


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_lam_refused_by_the_engine(lam):
    from fuzzymono.liouville import Space

    with pytest.raises(ValueError, match="lam must be a positive finite number"):
        Space(3, lam)
    with pytest.raises(ValueError, match="lam must be a positive finite number"):
        run_suite(RunConfig(suite="radial", kappas=(1,), n_max=3, lam=lam, jobs=1))


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--suite", "coords", "--kappa", "0", "--n-max", "8",
                 "--format", "json", "--out", str(out), "--jobs", "1"])
    assert code == 0
    raw = json.loads(out.read_text())
    assert raw["suite"] == "coords" and raw["n_max"] == 8
    assert all(row["pass"] for row in raw["results"])


def test_cli_text_to_stdout(capsys):
    code = main(["--suite", "fock", "--n-max", "6", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ladder-canonical" in captured.out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_cli_usage_errors_exit_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--kappa", "4..-4"])
    assert exc.value.code == 2
    # no grade, a repeated grade, and tokens that are not integers: each
    # message names --kappa and what is wrong with the value
    for value, named in ((",", "names no grade"), ("1,1", "repeats 1"),
                         ("0,2,-1,2,0", "repeats 0, 2"), ("abc", "'abc'"),
                         ("2..2x", "'2x'"), ("x..3", "'x'")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([f"--kappa={value}"])
        assert exc.value.code == 2, value
        err = capsys.readouterr().err
        assert "--kappa" in err and named in err and "base 10" not in err, (value, err)
    # a negative n_max, and one whose Fock dimension passes the int32 index
    # limit (refused before its basis is built)
    for n_max in ("-3", "99999999999999999999"):
        with pytest.raises(SystemExit) as exc:
            main(["--n-max", n_max, "--suite", "fock"])
        assert exc.value.code == 2, n_max
    with pytest.raises(SystemExit) as exc:
        main(["--lambda", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "-3"])
    assert exc.value.code == 2
    for bad in ("nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["--lambda", bad])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--tol", "nan"])
    assert exc.value.code == 2
    capsys.readouterr()
    # an overflow (1e200) or an underflow to zero (1e-200) inside the run
    for extreme in ("1e200", "1e-200"):
        code = main(["--suite", "all", "--n-max", "3", "--kappa", "0",
                     "--lambda", extreme, "--jobs", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        ours = [line for line in captured.err.splitlines() if line.startswith("fuzzymono:")]
        assert len(ours) == 1 and "--lambda" in ours[0] and "Traceback" not in captured.err
        # the same run as a command: that line is all of stderr, also when
        # pool workers raised numpy warnings before the run failed
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "fuzzymono.verify.cli", "--suite", "all", "--n-max", "3",
                 "--kappa", "0", "--lambda", extreme, "--jobs", jobs],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 2 and proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("fuzzymono: --lambda"), proc.stderr
    for junk in ("abc", "-3"):
        monkeypatch.setenv("FUZZYMONO_JOBS", junk)
        assert main(["--suite", "fock", "--n-max", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("fuzzymono: FUZZYMONO_JOBS"), err


@pytest.mark.parametrize("n_max", [0, 1, 2, 4, 8])
def test_truncation_sweep_passes_or_skips(n_max):
    """Small truncations give empty sectors and zero-size blocks; nothing
    may crash and nothing may fail.  (associator-baseline fails from n_max
    14 on, a known defect of its scale, so the sweep stops below that.)"""
    report = run_suite(RunConfig(n_max=n_max, kappas=tuple(range(-4, 5)), jobs=1))
    assert report.results
    failed = [(r.id, r.kappa, r.residual) for r in report.results if r.passed is False]
    assert not failed


def test_excluded_blocks_are_the_record_pole_window():
    """Every windowed per-kappa row reports exactly its record's pole blocks."""
    from fuzzymono.sector import build_sector

    rep = run_suite(RunConfig(suite="all", kappas=tuple(range(-3, 4)), n_max=8, jobs=2))
    checked = 0
    for row in rep.results:
        rec = BY_ID[row.id]
        if not (rec.per_kappa and rec.exclude_ws) or row.residual is None:
            continue
        expected = build_sector(row.kappa, 8).guard_window(row.guard, rec.exclude_ws)[1]
        assert row.excluded_blocks == expected, (row.id, row.kappa)
        checked += bool(expected)
    assert checked > 20


def test_cli_unwritable_output(tmp_path):
    code = main(["--suite", "fock", "--n-max", "5", "--jobs", "1",
                 "--out", str(tmp_path / "missing" / "report.json")])
    assert code == 2


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzymono.verify.cli", "--suite", "coords",
         "--kappa", "0", "--n-max", "6", "--jobs", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert re.search(r"coord-comm\s+", proc.stdout)


def test_all_skipped_warns_and_exits_0(capsys):
    assert main(["--suite", "velocity", "--n-max", "3", "--kappa", "40", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    assert "passed 0  failed 0  skipped 24" in captured.out
    assert captured.err.count("\n") == 1 and "warning" in captured.err
    assert main(["--suite", "fock", "--n-max", "3", "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_grade_too_large_for_int64_is_an_empty_sector(capsys, jobs):
    """A grade beyond int64, of either sign, is skipped as --kappa 40 is:
    every row is skipped with the warning, and the run exits 0."""
    huge = 10**20 - 1
    assert main(["--suite", "velocity", "--n-max", "3", "--kappa", f"{huge},-{huge}",
                 "--format", "json", "--jobs", jobs]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["results"]
    assert len(rows) == 2 * 24 and all(row["pass"] is None for row in rows)
    assert {row["kappa"] for row in rows} == {huge, -huge}
    assert captured.err.count("\n") == 1 and "all 48 rows were skipped" in captured.err
    assert get_context(3, 1.0).sector(-2**70).dim == 0


def test_identities_skipped_at_every_kappa_are_named(capsys):
    assert main(["--n-max", "4", "--jobs", "1"]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "warning" in err
    assert err.rstrip().endswith(": associator, associator-baseline, field-trend"), err
    assert main(["--n-max", "8", "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_nonfinite_residual_is_strict_json_failure(capsys):
    """An overflowing residual is a failure, written as null, not NaN."""
    code = main(["--suite", "su22", "--n-max", "3", "--lambda", "1e200",
                 "--format", "json", "--jobs", "1"])
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    raw = json.loads(capsys.readouterr().out, parse_constant=reject)
    failed = [row for row in raw["results"] if row["pass"] is False]
    assert failed and all(row["residual"] is None for row in failed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_an_overflowed_side_fails(capsys):
    """At lam 1e160 both window norms of radius-s05 overflow at kappa 0 while
    ||L - R|| stays finite; such a row fails with a null residual instead of
    passing with ||L - R|| / inf = 0.0."""
    code = main(["--suite", "su22", "--n-max", "3", "--lambda", "1e160",
                 "--format", "json", "--jobs", "1"])
    assert code == 1
    rows = {(r["id"], r["kappa"]): r for r in json.loads(capsys.readouterr().out)["results"]}
    ctx = get_context(3, 1e160)
    overflowed = set()
    for rec in records_for_suite("su22"):
        if rec.pairs is None:
            continue
        for kappa in range(-4, 5):
            mask, _ = ctx.sector(kappa).guard_window(rec.guard, rec.exclude_ws)
            if mask.any() and not all(math.isfinite(_window_norm(op.raw_block(kappa), mask))
                                      for pair in rec.pairs(ctx) for op in pair):
                overflowed.add((rec.id, kappa))
    assert {("radius-s05", 0), ("radius-s05-ordered", 0)} <= overflowed
    assert all(rows[key]["pass"] is False and rows[key]["residual"] is None
               for key in overflowed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_an_overflowed_gram_fails_without_a_traceback(capsys):
    """At lam 1e140 the sector-gram pairings overflow to inf; the row fails
    with a null residual instead of raising."""
    code = main(["--suite", "radial", "--n-max", "3", "--lambda", "1e140",
                 "--format", "json", "--jobs", "1"])
    assert code == 1
    gram = [r for r in json.loads(capsys.readouterr().out)["results"]
            if r["id"] == "sector-gram" and r["pass"] is not None]
    assert len(gram) == 7 and all(r["pass"] is False and r["residual"] is None for r in gram)


def test_an_underflowed_charge_fit_fails(capsys):
    """At lam 1e90 the windowed norm of the monopole closed form underflows
    to 0, so charge_fit has nothing to fit on a nonempty window; the
    monopole-charge row fails with a null residual instead of being skipped."""
    code = main(["--suite", "monopole", "--n-max", "8", "--kappa", "-2..2",
                 "--lambda", "1e90", "--format", "json", "--jobs", "1"])
    assert code == 1
    charge = [r for r in json.loads(capsys.readouterr().out)["results"]
              if r["id"] == "monopole-charge"]
    assert len(charge) == 5 and all(r["pass"] is False and r["residual"] is None
                                    for r in charge)
    ctx, rec = get_context(8, 1e90), BY_ID["monopole-charge"]
    win = ctx.sector(2).window(rec.guard, rec.exclude_ws)
    field = commutator(ctx.vel.velocity(1), ctx.vel.velocity(2))
    assert win.block_mask.any()
    assert charge_fit(win, field, monopole_profile_op(ctx.vel, (3, 4))) is None


def test_warnings_of_a_finished_run_reach_stderr():
    """A run that ends still shows the warnings its pool workers raised, once each."""
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzymono.verify.cli", "--suite", "su22", "--n-max", "3",
         "--lambda", "1e200", "--format", "json", "--jobs", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.count("RuntimeWarning: overflow encountered in square") == 1


def test_op_closure_pairs_stream(monkeypatch):
    """Evaluating su22-op-closure keeps a shared block in the memo only
    while the current or the next pair still reads it, at each of the
    stream's turns and reads. Its 105 pairs are built once per context and
    live with it, holding no block: another kappa streams them again
    without building them, and no block of theirs outlives a stream."""
    from fuzzymono.liouville import BlockMemo

    rec = BY_ID["su22-op-closure"]
    ctx = get_context(6, 1.0)
    refs: list[weakref.ref] = []
    peak = 0
    checks = 0
    turn, read = BlockMemo._turn, BlockMemo.read

    def held_for_current_or_next(memo):
        nonlocal checks
        checks += 1
        assert all(memo._reads.get(key, 0) > 0 or key in memo._ahead for key in memo.shared)

    def checked_turn(memo, ahead):
        turn(memo, ahead)
        held_for_current_or_next(memo)

    def checked_read(memo, op, k):
        blk = read(memo, op, k)
        held_for_current_or_next(memo)
        return blk

    def counted(ctx):
        nonlocal peak
        for lhs, rhs in rec.pairs(ctx):
            refs.extend((weakref.ref(lhs), weakref.ref(rhs)))
            alive = sum(1 for i in range(0, len(refs), 2)
                        if refs[i]() is not None or refs[i + 1]() is not None)
            peak = max(peak, alive)
            yield lhs, rhs

    monkeypatch.setattr(BlockMemo, "_turn", checked_turn)
    monkeypatch.setattr(BlockMemo, "read", checked_read)
    copy = dataclasses.replace(rec, pairs=counted)
    out = copy.evaluate(ctx, 0, rec.guard)
    assert len(refs) == 2 * 105 and peak == 105 and checks > 106
    assert copy.evaluate(ctx, 1, rec.guard) is not None and len(refs) == 2 * 105
    assert all(ref() is not None for ref in refs)
    memo = ctx.space.memo
    assert not (memo.shared or memo._reads or memo._ahead)

    # the same fold over a materialised list: equal outcome
    refs.clear()
    pairs = list(counted(ctx))
    outs = [graded_residual(lhs, rhs, ctx.sector(0), rec.guard, rec.exclude_ws)
            for lhs, rhs in pairs]
    assert out == (max(r for r, _ in outs), outs[0][1])


def test_run_does_not_import_scipy_linalg(tmp_path):
    """A run loads neither scipy.sparse.linalg nor scipy.linalg, which cost
    every process (and every pool worker) a fraction of a second and ~10 MB."""
    script = ("import sys\n"
              "from fuzzymono.verify.cli import main\n"
              f"code = main(['--suite', 'all', '--n-max', '3', '--jobs', '1', "
              f"'--out', {str(tmp_path / 'report.txt')!r}])\n"
              "print(code, [m for m in ('scipy.sparse.linalg', 'scipy.linalg') "
              "if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_does_not_import_scipy_sparse(tmp_path, jobs):
    """A run reaches scipy's sparse kernels through fuzzymono.csr alone: the
    scipy.sparse package (about 0.2 s and 20 MB of imports) stays unloaded,
    and a later import of it shares the engine's kernel module."""
    script = ("import sys\n"
              "from fuzzymono.verify.cli import main\n"
              f"code = main(['--suite', 'all', '--n-max', '3', '--jobs', {jobs!r}, "
              f"'--out', {str(tmp_path / 'report.txt')!r}])\n"
              "print(code, 'scipy.sparse' in sys.modules, flush=True)\n"
              "import scipy.sparse\n"
              "from scipy.sparse import _compressed, _sparsetools\n"
              "from fuzzymono import csr\n"
              "print(_sparsetools is csr._sparsetools, _compressed._sparsetools is "
              "csr._sparsetools, _compressed.csr_matmat is csr._sparsetools.csr_matmat)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.stdout.split()[:2] == ["0", "False"], proc.stdout + proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[2:] == ["True"] * 3


def test_importing_the_verifier_loads_neither_scipy_nor_the_pool():
    """fuzzymono.verify finds scipy's kernels without running scipy's
    __init__.py, and imports concurrent.futures only for a pool run."""
    script = ("import sys\n"
              "import fuzzymono.verify\n"
              "print(*(m in sys.modules for m in ('scipy', 'concurrent.futures', "
              "'multiprocessing')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_only_a_pool_run_imports_concurrent_futures(tmp_path, jobs):
    """--jobs 1 runs without concurrent.futures; --jobs 2 still runs its
    batches on a process pool."""
    script = ("import sys\n"
              "from fuzzymono.verify.cli import main\n"
              f"code = main(['--suite', 'radial', '--n-max', '3', '--jobs', {jobs!r}, "
              f"'--out', {str(tmp_path / 'report.txt')!r}])\n"
              "print(code, 'concurrent.futures.process' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(jobs == "2")]


def test_keep_freed_memory_sets_the_trim_and_mmap_thresholds(monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    keep_freed_memory()
    # M_TRIM_THRESHOLD 256 MB, M_MMAP_THRESHOLD 4 MB
    assert calls == [(-1, 256 * 2**20), (-3, 4 * 2**20)]


def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    """A C library without mallopt (macOS), or none that opens (Windows),
    is left alone."""
    def unloadable(name):
        raise OSError("cannot load the running program")

    for cdll in (lambda name: object(), unloadable):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        keep_freed_memory()


def test_main_keeps_freed_memory_before_the_run(monkeypatch, capsys):
    """The setting precedes run_suite, so the pool's forked workers inherit it."""
    order = []
    monkeypatch.setattr(cli, "keep_freed_memory", lambda: order.append("keep"))
    run = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda config: order.append("run") or run(config))
    assert main(["--suite", "fock", "--n-max", "2", "--jobs", "1"]) == 0
    assert order == ["keep", "run"]
    capsys.readouterr()


def test_a_repeated_grade_is_refused_before_any_row_is_planned(monkeypatch):
    """A grade named twice would give each of its rows twice: run_suite
    refuses it, naming the grade, before it plans a batch."""
    from fuzzymono.verify import runner

    planned = []
    monkeypatch.setattr(runner, "plan_batches", lambda *args: planned.append(args) or [])
    for kappas, named in (((2, 2), "repeat 2$"), ((-1, 3, -1, 0, 3), "repeat -1, 3$")):
        with pytest.raises(ValueError, match=named):
            run_suite(RunConfig(suite="su22", kappas=kappas, n_max=4, jobs=1))
    assert not planned


def test_the_benchmark_tracer_fits_the_package(tmp_path):
    """bench/tracing.py wraps named functions and methods of the package:
    installed in a fresh process, it must find each of them, and a small
    traced run must record calls in every layer it reports."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{os.path.join(root, 'bench')!r}, {os.path.join(root, 'src')!r}]\n"
        "import tracing\n"
        f"tracer = tracing.install({str(tmp_path)!r})\n"
        "from fuzzymono.verify import cli\n"
        "code = cli.main(['--suite', 'all', '--n-max', '5', '--kappa', '1', '--jobs', '1',\n"
        f"                 '--out', {str(tmp_path / 'report.txt')!r}])\n"
        "tracer.flush()\n"
        f"_, details = tracing.layer_metrics(tracing.read_chunks({str(tmp_path)!r}))\n"
        "print(json.dumps([code, details['layer_calls'], list(tracing.LAYERS)]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, calls, layers = json.loads(proc.stdout)
    assert code == 0 and layers
    assert all(calls[layer] > 0 for layer in layers), calls
