"""Verification report: per-identity results and their serialized forms.

The JSON layout is stable and part of the tool's interface:

    {"suite": ..., "lambda": ..., "n_max": ...,
     "results": [{"id", "paper_ref", "kappa", "guard", "residual",
                  "tolerance", "pass", "excluded_blocks", "wall_time_ms"}]}

Skipped identities (empty sector or empty window at this truncation) carry
residual = null and pass = null; they never affect the exit code.  A
residual that is not a finite number (an overflow at an extreme lambda) is a
failure: it carries residual = null and pass = false, so the JSON stays
strict.  CSV flattens the same fields; excluded_blocks is a semicolon-joined
list there.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field


@dataclass
class IdentityResult:
    id: str
    paper_ref: str
    kappa: int | None
    guard: int
    residual: float | None
    tolerance: float
    excluded_blocks: list[int] = field(default_factory=list)
    wall_time_ms: float = 0.0

    @property
    def skipped(self) -> bool:
        return self.residual is None

    @property
    def passed(self) -> bool | None:
        if self.residual is None:
            return None
        return self.residual <= self.tolerance


@dataclass
class VerificationReport:
    suite: str
    lam: float
    n_max: int
    results: list[IdentityResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.results)

    @property
    def counts(self) -> tuple[int, int, int]:
        """(passed, failed, skipped)."""
        p = sum(1 for r in self.results if r.passed is True)
        f = sum(1 for r in self.results if r.passed is False)
        s = sum(1 for r in self.results if r.passed is None)
        return p, f, s

    @property
    def unchecked(self) -> list[str]:
        """Ids of the identities skipped on every row, in report order."""
        checked = {r.id for r in self.results if not r.skipped}
        return list(dict.fromkeys(r.id for r in self.results if r.id not in checked))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "lambda": self.lam,
            "n_max": self.n_max,
            "results": [
                {
                    "id": r.id,
                    "paper_ref": r.paper_ref,
                    "kappa": r.kappa,
                    "guard": r.guard,
                    "residual": (r.residual if r.residual is None or math.isfinite(r.residual)
                                 else None),
                    "tolerance": r.tolerance,
                    "pass": r.passed,
                    "excluded_blocks": list(r.excluded_blocks),
                    "wall_time_ms": r.wall_time_ms,
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["suite", "lambda", "n_max", "id", "paper_ref", "kappa", "guard",
             "residual", "tolerance", "pass", "excluded_blocks", "wall_time_ms"]
        )
        for r in self.results:
            writer.writerow(
                [self.suite, self.lam, self.n_max, r.id, r.paper_ref,
                 "" if r.kappa is None else r.kappa, r.guard,
                 "" if r.residual is None else repr(r.residual), repr(r.tolerance),
                 "" if r.passed is None else str(r.passed).lower(),
                 ";".join(str(b) for b in r.excluded_blocks), r.wall_time_ms]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [
            f"suite={self.suite}  lambda={self.lam}  n_max={self.n_max}",
            f"{'id':32s} {'kappa':>5s} {'guard':>5s} {'residual':>12s} "
            f"{'tol':>9s} {'status':>7s}  excluded",
        ]
        for r in self.results:
            kap = "-" if r.kappa is None else str(r.kappa)
            if r.skipped:
                status, res = "skip", "-"
            else:
                status = "pass" if r.passed else "FAIL"
                res = f"{r.residual:.3e}"
            excl = ",".join(str(b) for b in r.excluded_blocks) or "-"
            lines.append(
                f"{r.id:32s} {kap:>5s} {r.guard:>5d} {res:>12s} "
                f"{r.tolerance:>9.1e} {status:>7s}  {excl}"
            )
        p, f, s = self.counts
        lines.append(f"passed {p}  failed {f}  skipped {s}")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")
