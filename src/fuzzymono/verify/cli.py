"""Command-line entry point for the verification suites.

Exit status: 0 when every identity passes (skips allowed), 1 when any
fails, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .runner import RunConfig, exit_code, run_suite


def parse_kappas(text: str) -> tuple[int, ...]:
    """Parse '-4..4' ranges or comma lists like '0,2,-3'."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty kappa range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fuzzymono",
        description="Verify the graded operator-algebra identities numerically.",
    )
    p.add_argument("--suite", default="all",
                   choices=["fock", "coords", "su22", "radial", "velocity",
                            "monopole", "scaling", "all"])
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
                   help="worker processes (default: FUZZYMONO_JOBS env or cpu count)")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_kappa_value(
        list(sys.argv[1:]) if argv is None else list(argv)))
    try:
        kappas = parse_kappas(args.kappa)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    if args.n_max < 0:
        parser.error(f"--n-max must be >= 0, got {args.n_max}")
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
        fmt=args.fmt,
        out=args.out,
        jobs=args.jobs,
    )
    try:
        config.resolved_jobs()
    except ValueError as exc:
        print(f"fuzzymono: {exc}", file=sys.stderr)
        return 2
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
    payload = report.emit(config.fmt)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"fuzzymono: cannot write {config.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
