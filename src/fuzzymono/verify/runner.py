"""Suite runner: dispatches (identity, kappa) jobs and assembles the report.

Jobs are independent and may run in a process pool; results are placed back
in a deterministic (suite, id, kappa) order regardless of completion order,
so repeated runs emit byte-identical reports (wall times aside).

Each job records the warnings it raises instead of printing them, in a pool
worker as in the main process. run_suite re-issues them, each distinct one
once, only after every job has returned: a run that ends in an exception
(an overflowing --lambda) leaves that exception as its only message.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
    fmt: str = "text"
    out: str | None = None
    jobs: int = 0  # 0: FUZZYMONO_JOBS env var, then cpu count

    def resolved_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        env = os.environ.get(JOBS_ENV, "")
        if env.strip():
            try:
                return max(1, int(env))
            except ValueError:
                raise ValueError(f"{JOBS_ENV} must be an integer, got {env!r}") from None
        return os.cpu_count() or 1


def _eval_job(args: tuple) -> tuple[float | None, list[int], float, list[tuple]]:
    """(residual, excluded blocks, wall ms, warnings as warn_explicit arguments)."""
    record_id, kappa, n_max, lam, guard_override = args
    rec = BY_ID[record_id]
    with warnings.catch_warnings(record=True) as caught:
        ctx = get_context(n_max, lam)
        guard = rec.guard if guard_override is None else guard_override
        t0 = time.perf_counter()
        out = rec.builder(ctx, kappa, guard)
        wall_ms = (time.perf_counter() - t0) * 1e3
    raised = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    if out is None:
        return None, [], wall_ms, raised
    residual, excluded = out
    return float(residual), [int(b) for b in excluded], wall_ms, raised


def run_suite(config: RunConfig) -> VerificationReport:
    records = records_for_suite(config.suite)
    records = sorted(records, key=lambda r: (_SUITE_ORDER[r.suite], r.id))
    jobs: list[tuple] = []
    meta: list[tuple] = []  # (record, kappa)
    for rec in records:
        kappas: tuple[int | None, ...] = config.kappas if rec.per_kappa else (None,)
        for kappa in kappas:
            jobs.append((rec.id, kappa, config.n_max, config.lam, config.guard))
            meta.append((rec, kappa))

    n_workers = min(config.resolved_jobs(), max(1, len(jobs)))
    if n_workers <= 1:
        outcomes = [_eval_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_eval_job, jobs, chunksize=4))

    for raised in dict.fromkeys(w for *_, job_warnings in outcomes for w in job_warnings):
        warnings.warn_explicit(*raised)

    report = VerificationReport(suite=config.suite, lam=config.lam, n_max=config.n_max)
    for (rec, kappa), (residual, excluded, wall_ms, _) in zip(meta, outcomes):
        guard = rec.guard if config.guard is None else config.guard
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
