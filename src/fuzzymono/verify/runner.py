"""Suite runner: dispatches (identity, kappa) rows and assembles the report.

The sector kappa is the unit of work. run_suite groups its rows into one
batch per kappa and one batch of the kappa-independent rows, and runs the
batches largest sector first: by |kappa|, negative before positive, and
the kappa-independent batch last (plan_batches). With one worker the main
process runs them in that order; with several, a process pool hands each
free worker the next batch. When there are fewer kappa batches than twice
the workers, each kappa's rows are dealt into interleaved parts, so that a
run of one or two kappas still keeps every worker busy. Only a pool run
imports concurrent.futures (and with it multiprocessing): a serial run,
and importing this module, load neither.

Each row carries its guard, resolved once here: the record's guard, or
the --guard override. IdentityRecord.window decides from it (and the
record's pole blocks) whether the row has a window at all. A job is one
batch, which registry.evaluate_batch evaluates in one call: its scalar
checks, then its pair identities. A process builds each identity's pairs
and each batch's stream plan once, and its space's block memo replays
that plan at each later kappa with the same live pair rows. The
runner only plans the batches and dispatches them; it does not look at
what kind of identity a row is.

The engine context moves its space's block memo (liouville.BlockMemo) to
each kappa whose sector it reads (EngineContext.sector), so a pool worker,
like a serial run, keeps the blocks of one kappa at a time.
Results are placed back in a deterministic (suite, id, kappa) order
regardless of completion order, so repeated runs emit byte-identical
reports (wall times aside), however the rows of a kappa are split. A pair
row's wall time is that of comparing its own pairs, plus building them on
the first kappa at which a process checks the row (evaluate_batch).

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

from .registry import BY_ID, SUITES, evaluate_batch, get_context, records_for_suite
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
    jobs: int = 0  # 0: FUZZYMONO_JOBS env var if positive, then the usable CPUs

    def resolved_jobs(self) -> int:
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
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
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def _eval_job(job: tuple) -> tuple[list[tuple[float | None, list[int], float]], list[tuple]]:
    """The outcome (residual, excluded blocks, wall ms) of each row of a job,
    and the warnings it raised, as warn_explicit arguments.

    A job is one batch, (record ids, kappa, n_max, lam, guards), which
    registry.evaluate_batch evaluates.
    """
    ids, kappa, n_max, lam, guards = job
    with warnings.catch_warnings(record=True) as caught:
        timed = evaluate_batch(get_context(n_max, lam), kappa,
                               [(BY_ID[record_id], guard) for record_id, guard in zip(ids, guards)])
    raised = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return [(None, [], s * 1e3) if out is None else
             (float(out[0]), [int(b) for b in out[1]], s * 1e3) for out, s in timed], raised


def _run_job(job: tuple) -> tuple[list[tuple], list[tuple]]:
    """_eval_job(job), looked up as a module global when called, so that a
    rebound _eval_job (a tracer's wrapper, a test's local function) runs
    also in a pool worker, which receives this function pickled by name."""
    return _eval_job(job)


def plan_batches(kappas: Sequence[int | None], workers: int) -> list[list[int]]:
    """Row indices grouped into batches, in dispatch order.

    kappas[i] is the sector of row i, or None for a kappa-independent row.
    Each kappa gives one batch, ordered by (|kappa|, kappa); the
    kappa-independent rows come last as one batch. With several workers and
    fewer kappas than 2 * workers, each kappa's rows are split into p
    interleaved parts (rows[i::p]), the smallest p that gives at least
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


def run_suite(config: RunConfig) -> VerificationReport:
    twice = sorted({k for k in config.kappas if config.kappas.count(k) > 1})
    if twice:  # each of their rows would be reported twice
        raise ValueError(f"kappas repeat {', '.join(map(str, twice))}")
    records = records_for_suite(config.suite)
    records = sorted(records, key=lambda r: (_SUITE_ORDER[r.suite], r.id))
    rows: list[tuple] = []  # (record, kappa, guard)
    for rec in records:
        kappas: tuple[int | None, ...] = config.kappas if rec.per_kappa else (None,)
        guard = rec.guard if config.guard is None else config.guard
        rows += [(rec, kappa, guard) for kappa in kappas]

    n_workers = min(config.resolved_jobs(), len(rows))
    batches = plan_batches([kappa for _, kappa, _ in rows], n_workers)
    jobs = [(tuple(rows[i][0].id for i in batch), rows[batch[0]][1], config.n_max,
             config.lam, tuple(rows[i][2] for i in batch)) for batch in batches]
    n_workers = min(n_workers, len(batches))
    if n_workers <= 1:
        done = list(map(_run_job, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays for it

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(_run_job, jobs, chunksize=1))
    outcomes: list = [None] * len(rows)
    raised: list[tuple] = []
    for batch, (batch_outcomes, batch_raised) in zip(batches, done):
        raised += batch_raised
        for i, outcome in zip(batch, batch_outcomes):
            outcomes[i] = outcome

    for w in dict.fromkeys(raised):
        warnings.warn_explicit(*w)

    report = VerificationReport(suite=config.suite, lam=config.lam, n_max=config.n_max)
    for (rec, kappa, guard), (residual, excluded, wall_ms) in zip(rows, outcomes):
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
