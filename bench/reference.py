"""Committed reference reports and the check of each run against them.

A reference holds, for every row of a workload variant keyed by
(n_max, id, kappa), the row's guard, tolerance, excluded_blocks and status
(pass, fail or skip) as the verifier reported them when the benchmark was
defined. A run departs from its reference, and is not correct, when a row
differs in guard, tolerance or excluded_blocks, when a row is missing or
unexpected, or when a report is missing.

Status changes are not departures; they are counted. A row is attempted
unless it is skipped now and was skipped in the reference. An attempted
row fails when it did not pass: it failed, it is missing, or it is skipped
now although the reference checked it.

The digest hashes every (n_max, id, kappa, repr(residual)). It is recorded,
not checked, so that a refactor can show bit-identical residuals.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")


def ref_path(workload: str, variant: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.{variant}.json")


def status(row: dict) -> str:
    return {True: "pass", False: "fail", None: "skip"}[row["pass"]]


def read_rows(reports: list[dict]) -> dict[tuple, dict]:
    rows: dict[tuple, dict] = {}
    for rep in reports:
        for row in rep["results"]:
            rows[(rep["n_max"], row["id"], row["kappa"])] = row
    return rows


def digest(rows: dict[tuple, dict]) -> str:
    h = hashlib.sha256()
    for key in sorted(rows, key=repr):
        n_max, rid, kappa = key
        h.update(f"{n_max}|{rid}|{kappa}|{rows[key]['residual']!r}\n".encode())
    return h.hexdigest()


def make_reference(workload: str, variant: str, rows: dict[tuple, dict]) -> dict:
    return {
        "workload": workload,
        "variant": variant,
        "digest": digest(rows),
        "rows": [[*key, r["guard"], r["tolerance"], r["excluded_blocks"], status(r)]
                 for key, r in sorted(rows.items(), key=lambda kv: repr(kv[0]))],
    }


def load(workload: str, variant: str) -> dict:
    with open(ref_path(workload, variant), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    worst_margin: float = 0.0
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    statuses: dict[str, str] = field(default_factory=dict)


def check(ref: dict, rows: dict[tuple, dict], complete: bool) -> Check:
    """Compare one run's rows with the reference; complete is False when a
    report is missing (a crash or a timeout)."""
    out = Check(digest=digest(rows))
    if not complete:
        out.errors.append("a report is missing")
    expected = {}
    for n_max, rid, kappa, guard, tol, excluded, ref_status in ref["rows"]:
        key = (n_max, rid, kappa)
        expected[key] = ref_status
        row = rows.get(key)
        now = "lost" if row is None else status(row)
        out.statuses[repr(key)] = now
        if now == "lost":
            out.errors.append(f"missing row {key}")
        elif (row["guard"], row["tolerance"], row["excluded_blocks"]) != (guard, tol, excluded):
            out.errors.append(
                f"row {key}: guard/tolerance/excluded_blocks "
                f"{row['guard']}/{row['tolerance']}/{row['excluded_blocks']} "
                f"!= reference {guard}/{tol}/{excluded}")
        if now == "skip" and ref_status == "skip":
            continue
        out.attempted += 1
        if now != "pass":
            out.failed += 1
    for key in rows.keys() - expected.keys():
        out.errors.append(f"unexpected row {key}")
        out.attempted += status(rows[key]) != "skip"
        out.failed += status(rows[key]) == "fail"
    margins = [r["residual"] / r["tolerance"] for r in rows.values()
               if r["residual"] is not None and r["tolerance"] > 0]
    out.worst_margin = max(margins, default=0.0)
    return out
