"""Suite runner: dispatches (identity, kappa) jobs and assembles the report.

The sector kappa is the unit of work. run_suite groups its jobs into one
batch per kappa and one batch of the kappa-independent jobs, and runs the
batches largest sector first: by |kappa|, negative before positive, and
the kappa-independent batch last (plan_batches). With one worker the main
process runs them in that order; with several, a process pool hands each
free worker the next batch. When there are fewer kappa batches than twice
the workers, each kappa's jobs are dealt into interleaved parts, so that a
run of one or two kappas still keeps every worker busy. Only a pool run
imports concurrent.futures (and with it multiprocessing): a serial run,
and importing this module, load neither.

Each job carries the guard of its row, resolved once here: the record's
guard, or the --guard override. IdentityRecord.evaluate decides from it
(and the record's pole blocks) whether the row has a window at all.

A process that starts a batch of another kappa than its previous one first
empties the block memos of the cached operators (liouville.forget_blocks),
so a pool worker, like a serial run, holds the blocks of one kappa at a
time. Results are placed back in a deterministic (suite, id, kappa) order
regardless of completion order, so repeated runs emit byte-identical
reports (wall times aside).

Each job records the warnings it raises instead of printing them, in a pool
worker as in the main process. run_suite re-issues them, each distinct one
once, only after every job has returned: a run that ends in an exception
(an overflowing --lambda) leaves that exception as its only message.
"""

from __future__ import annotations

import os
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from ..liouville import forget_blocks
from .registry import BY_ID, SUITES, get_context, records_for_suite
from .report import IdentityResult, VerificationReport

JOBS_ENV = "FUZZYMONO_JOBS"
_SUITE_ORDER = {name: i for i, name in enumerate(SUITES)}


@dataclass
class RunConfig:
    suite: str = "all"
    kappas: tuple[int, ...] = tuple(range(-4, 5))
    n_max: int = 12
    lam: float = 1.0
    tol: float = 1e-10
    guard: int | None = None  # None: per-identity default (its word length)
    jobs: int = 0  # 0: FUZZYMONO_JOBS env var if positive, then cpu count

    def resolved_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        env = os.environ.get(JOBS_ENV, "")
        if env.strip():
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{JOBS_ENV} must be an integer, got {env!r}") from None
            if jobs < 0:
                raise ValueError(f"{JOBS_ENV} must be >= 0, got {env!r}")
            if jobs > 0:
                return jobs
        return os.cpu_count() or 1


def _eval_job(args: tuple) -> tuple[float | None, list[int], float, list[tuple]]:
    """(residual, excluded blocks, wall ms, warnings as warn_explicit arguments)."""
    record_id, kappa, n_max, lam, guard = args
    rec = BY_ID[record_id]
    with warnings.catch_warnings(record=True) as caught:
        ctx = get_context(n_max, lam)
        t0 = time.perf_counter()
        out = rec.builder(ctx, kappa, guard)
        wall_ms = (time.perf_counter() - t0) * 1e3
    raised = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    if out is None:
        return None, [], wall_ms, raised
    residual, excluded = out
    return float(residual), [int(b) for b in excluded], wall_ms, raised


def plan_batches(kappas: Sequence[int | None], workers: int) -> list[list[int]]:
    """Job indices grouped into batches, in dispatch order.

    kappas[i] is the sector of job i, or None for a kappa-independent job.
    Each kappa gives one batch, ordered by (|kappa|, kappa); the
    kappa-independent jobs come last as one batch. With several workers and
    fewer kappas than 2 * workers, each kappa's jobs are split into p
    interleaved parts (jobs[i::p]), the smallest p that gives at least
    2 * workers kappa batches.
    """
    by_kappa: dict[int | None, list[int]] = {}
    for i, kappa in enumerate(kappas):
        by_kappa.setdefault(kappa, []).append(i)
    independent = by_kappa.pop(None, [])
    order = sorted(by_kappa, key=lambda k: (abs(k), k))
    parts = -(-2 * workers // len(order)) if workers > 1 and order else 1
    batches = [by_kappa[k][i::parts] for k in order
               for i in range(min(parts, len(by_kappa[k])))]
    if independent:
        batches.append(independent)
    return batches


# The (n_max, lam, kappa) whose blocks this process's memos may hold. The
# memos are process-wide caches, and a pool worker keeps them from one batch
# to the next, so this is process-wide state too.
_held_sector: tuple | None = None


def _run_batch(batch: list[tuple]) -> list[tuple]:
    """The outcomes of one batch's jobs, which share (n_max, lam, kappa).

    Calls _eval_job through the module global, which a tracer may rebind.
    """
    global _held_sector
    _, kappa, n_max, lam, _ = batch[0]
    if (n_max, lam, kappa) != _held_sector:
        forget_blocks()
        _held_sector = (n_max, lam, kappa)
    return [_eval_job(job) for job in batch]


def run_suite(config: RunConfig) -> VerificationReport:
    records = records_for_suite(config.suite)
    records = sorted(records, key=lambda r: (_SUITE_ORDER[r.suite], r.id))
    jobs: list[tuple] = []
    meta: list[tuple] = []  # (record, kappa, guard)
    for rec in records:
        kappas: tuple[int | None, ...] = config.kappas if rec.per_kappa else (None,)
        guard = rec.guard if config.guard is None else config.guard
        for kappa in kappas:
            jobs.append((rec.id, kappa, config.n_max, config.lam, guard))
            meta.append((rec, kappa, guard))

    n_workers = min(config.resolved_jobs(), len(jobs))
    batches = plan_batches([kappa for _, kappa, _ in meta], n_workers)
    work = [[jobs[i] for i in batch] for batch in batches]
    n_workers = min(n_workers, len(batches))
    if n_workers <= 1:
        done = [_run_batch(batch) for batch in work]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for it

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(_run_batch, work, chunksize=1))
    outcomes: list = [None] * len(jobs)
    for batch, batch_outcomes in zip(batches, done):
        for i, outcome in zip(batch, batch_outcomes):
            outcomes[i] = outcome

    for raised in dict.fromkeys(w for *_, job_warnings in outcomes for w in job_warnings):
        warnings.warn_explicit(*raised)

    report = VerificationReport(suite=config.suite, lam=config.lam, n_max=config.n_max)
    for (rec, kappa, guard), (residual, excluded, wall_ms, _) in zip(meta, outcomes):
        report.results.append(
            IdentityResult(
                id=rec.id,
                paper_ref=rec.formula,
                kappa=kappa,
                guard=guard,
                residual=residual,
                tolerance=rec.tol if rec.tol is not None else config.tol,
                excluded_blocks=excluded,
                wall_time_ms=wall_ms,
            )
        )
    return report


def exit_code(report: VerificationReport) -> int:
    """0 when every identity passed or was skipped, 1 otherwise."""
    return 0 if report.all_passed else 1
