"""Command-line entry point for the verification suites.

Exit status: 0 when every identity passes (skips allowed), 1 when any
fails, 2 for usage or configuration errors.

Before it runs a suite, main keeps the memory the run frees in the process
(keep_freed_memory).  A run makes and drops thousands of transient sector
blocks.  By default glibc returns the free memory at the top of its heap to
the kernel once more than its trim threshold is free there, and serves each
block above its mmap threshold with a fresh mmap; both start at 128 kB.  So
the next blocks fault the same pages in again, zeroed: one `--n-max 20
--kappa 2` process took about 46,000 minor page faults and 0.11 s of system
time.  main raises the trim threshold to 256 MB and the mmap threshold to
4 MB.  That process then takes about 8,000 faults and a quarter of the
system time, and runs at n_max 20 to 56 were 12-19 % faster, with peak RSS
within -8 and +3 MB.  Both settings are needed: setting one stops glibc
from raising the other, and the trim threshold alone left every block over
128 kB mmapped, which made n_max 32 and 48 runs 8 % and 18 % slower.  A
32 MB mmap threshold was no faster and peaked up to 24 MB higher.  The
settings are made in main, before the pool forks, so its workers inherit
them; importing the package changes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys

from ..fock import check_n_max
from .registry import SUITES
from .runner import RunConfig, exit_code, run_suite


def parse_kappas(text: str) -> tuple[int, ...]:
    """Parse '-4..4' ranges or comma lists like '0,2,-3' into distinct grades.

    Raises ValueError, naming --kappa, for a token that is no integer, an
    empty range or list, and a grade given twice.
    """
    def grade(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"--kappa: {token.strip()!r} is not an integer") from None

    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = grade(lo_s), grade(hi_s)
        if hi < lo:
            raise ValueError(f"--kappa: empty range {text!r}")
        return tuple(range(lo, hi + 1))
    kappas = tuple(grade(part) for part in text.split(",") if part.strip())
    if not kappas:
        raise ValueError(f"--kappa: {text!r} names no grade")
    repeated = sorted({k for k in kappas if kappas.count(k) > 1})
    if repeated:
        raise ValueError(f"--kappa: {text!r} repeats {', '.join(map(str, repeated))}")
    return kappas


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fuzzymono",
        description="Verify the graded operator-algebra identities numerically.",
    )
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--kappa", default="-4..4", metavar="LIST|A..B",
                   help="sector grades, e.g. '0,2,-1' or '-4..4'")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--lambda", type=float, default=1.0, dest="lam",
                   help="length scale (default 1.0)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="global tolerance; round-off-exact identities override it")
    p.add_argument("--guard", type=int, default=None,
                   help="override the per-identity guard (default: its word length)")
    p.add_argument("--format", default="text", choices=["json", "csv", "text"],
                   dest="fmt")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes; 0 (the default) takes FUZZYMONO_JOBS when it is "
                        "set and positive, else the CPUs this process may run on")
    return p


def _join_kappa_value(argv: list[str]) -> list[str]:
    """Let '--kappa -4..4' parse: glue a leading-dash value onto the flag."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--kappa" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--kappa={argv[i + 1]}")
            i += 2
            continue
        out.append(argv[i])
        i += 1
    return out


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, with
# the values main gives them.
_ALLOCATOR_SETTINGS = ((-1, 256 << 20), (-3, 4 << 20))


def keep_freed_memory() -> None:
    """Let the C heap keep up to 256 MB of freed memory at its top instead
    of returning it to the kernel, and serve blocks of up to 4 MB from it.
    Does nothing where the C library has no mallopt (macOS, Windows)."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # Windows cannot open the running program
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        for param, value in _ALLOCATOR_SETTINGS:
            mallopt(param, value)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_kappa_value(
        list(sys.argv[1:]) if argv is None else list(argv)))
    try:
        kappas = parse_kappas(args.kappa)
        check_n_max(args.n_max)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if not (math.isfinite(args.lam) and args.lam > 0):
        parser.error(f"--lambda must be a positive finite number, got {args.lam}")
    if args.guard is not None and args.guard < 0:
        parser.error(f"--guard must be >= 0, got {args.guard}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        parser.error(f"--tol must be a finite number >= 0, got {args.tol}")
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")

    config = RunConfig(
        suite=args.suite,
        kappas=kappas,
        n_max=args.n_max,
        lam=args.lam,
        tol=args.tol,
        guard=args.guard,
        jobs=args.jobs,
    )
    try:
        config.resolved_jobs()
    except ValueError as exc:
        print(f"fuzzymono: {exc}", file=sys.stderr)
        return 2
    keep_freed_memory()
    try:
        report = run_suite(config)
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"fuzzymono: --lambda {args.lam!r} is out of range at n_max {args.n_max} "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2
    passed, failed, skipped = report.counts
    if passed == failed == 0:
        print(f"fuzzymono: warning: all {skipped} rows were skipped at n_max {args.n_max}, "
              f"--kappa {args.kappa}; nothing was checked", file=sys.stderr)
    elif report.unchecked:
        total = len({r.id for r in report.results})
        print(f"fuzzymono: warning: {len(report.unchecked)} of {total} identities were skipped "
              f"at every kappa at n_max {args.n_max}, --kappa {args.kappa}: "
              f"{', '.join(report.unchecked)}", file=sys.stderr)
    payload = report.emit(args.fmt)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"fuzzymono: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
