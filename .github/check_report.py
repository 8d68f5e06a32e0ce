"""Run fuzzymono with --format json and check its report.

    python .github/check_report.py [--exit 0,1] [--rows N] [--max-rss-mb MB]
                                   [--zero-residuals] [--same-as-jobs N]
                                   [--reference PATH] -- FUZZYMONO-ARGS...

runs `fuzzymono FUZZYMONO-ARGS... --format json` and exits 1 with a message
unless
  * its exit code is one of --exit (default 0);
  * the report is strict JSON: no NaN or Infinity;
  * it has result rows, and its n_max is the --n-max asked for, if any;
  * it has exactly --rows rows, when given;
  * the peak RSS of the run, pool workers included, is under --max-rss-mb,
    when given;
  * with --zero-residuals, some row was checked and every checked row's
    residual is exactly 0.0 (the scaling suite);
  * with --same-as-jobs N, a second run with `--jobs N` appended gives an
    equal report, wall times aside (results do not depend on how the runner
    splits the rows of a kappa);
  * with --reference PATH, every row has the guard, tolerance,
    excluded_blocks and status (pass, fail or skip) that the committed
    benchmark reference at PATH gives it, and no row is missing or
    unexpected.  The comparison is bench/reference.py's read_rows and
    check, plus the status of each row.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
import reference  # noqa: E402  (bench/reference.py)


def run(args: list[str], allowed: set[int]) -> tuple[int, dict]:
    """The exit code and the strict-JSON report of fuzzymono ARGS."""
    proc = subprocess.run(["fuzzymono", *args, "--format", "json"],
                          stdout=subprocess.PIPE, text=True)
    assert proc.returncode in allowed, f"exit {proc.returncode}, allowed {sorted(allowed)}"

    def reject(constant):
        raise SystemExit(f"the report is not strict JSON: {constant}")

    return proc.returncode, json.loads(proc.stdout, parse_constant=reject)


def without_wall_times(report: dict) -> dict:
    return {**report, "results": [{**row, "wall_time_ms": None} for row in report["results"]]}


def reference_departures(report: dict, path: str) -> list[str]:
    """How the rows of report depart from the benchmark reference at path."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    rows = reference.read_rows([report])
    check = reference.check(ref, rows, complete=True)
    departures = list(check.errors)
    for n_max, rid, kappa, *_, ref_status in ref["rows"]:
        now = check.statuses[repr((n_max, rid, kappa))]
        if now not in ("lost", ref_status):
            departures.append(f"row {(n_max, rid, kappa)}: {now} != reference {ref_status}")
    return departures


def main(argv: list[str]) -> None:
    if "--" not in argv:
        raise SystemExit("usage: check_report.py [options] -- FUZZYMONO-ARGS...")
    split = argv.index("--")
    p = argparse.ArgumentParser(prog="check_report.py")
    p.add_argument("--exit", default="0", help="allowed exit codes, comma separated")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--max-rss-mb", type=float, default=None)
    p.add_argument("--zero-residuals", action="store_true")
    p.add_argument("--same-as-jobs", type=int, default=None)
    p.add_argument("--reference", default=None, help="a committed bench/reference/*.json")
    opts = p.parse_args(argv[:split])
    args = argv[split + 1:]

    allowed = {int(code) for code in opts.exit.split(",")}
    code, report = run(args, allowed)
    rows = report["results"]
    assert rows, "the report has no rows"
    if "--n-max" in args:
        n_max = int(args[args.index("--n-max") + 1])
        assert report["n_max"] == n_max, (report["n_max"], n_max)
    if opts.rows is not None:
        assert len(rows) == opts.rows, (len(rows), opts.rows)
    # the largest process of the run, pool workers included
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{len(rows)} rows, exit {code}, peak RSS {peak_mb:.0f} MB")
    if opts.max_rss_mb is not None:
        assert peak_mb < opts.max_rss_mb, f"peak RSS {peak_mb:.0f} MB"
    if opts.zero_residuals:
        checked = [row for row in rows if row["residual"] is not None]
        assert checked and all(row["residual"] == 0.0 for row in checked), checked
        print(f"{len(checked)} of {len(rows)} rows checked, every residual 0.0")
    if opts.same_as_jobs is not None:
        jobs = str(opts.same_as_jobs)
        _, other = run([*args, "--jobs", jobs], allowed)
        assert without_wall_times(other) == without_wall_times(report), f"--jobs {jobs} differs"
        print(f"the report at --jobs {jobs} is the same, wall times aside")
    if opts.reference is not None:
        departures = reference_departures(report, opts.reference)
        assert not departures, "\n".join(departures[:20])
        print(f"every row matches {opts.reference}")


if __name__ == "__main__":
    main(sys.argv[1:])
