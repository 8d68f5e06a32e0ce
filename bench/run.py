"""fuzzymono benchmark: time to a verified report, memory and accuracy.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                         [--save DIR]
    python3 bench/run.py --workload all --seed N      # every workload in turn
    python3 bench/run.py --workload NAME --write-reference

Run from the root of a checkout. Every run of the verifier is a fresh
interpreter (bench/child.py), so module-level caches never carry over from
one run to the next, as for a user who runs the command. Its CPU time and
peak RSS come from os.wait4 on that process; they include its pool workers.
Children get one BLAS/OpenMP thread each and no FUZZYMONO_JOBS, so a run
uses no more threads than the workload asks for.

--trace 0 (the timed run) first starts SETUP_PROBES interpreters that only
import fuzzymono.verify, then runs each input of the seed's plan once
(bench/workloads.py) and repeats them while another repetition is expected
to end within --seconds of the start. Before the set-up interpreters, after
them and after every repetition it times a burst of calls of the fixed
kernel of bench/calibrate.py, in as many processes at once as a repetition
computes in, and scales the run's times by NOMINAL_S over the typical call
of all bursts: the times are seconds on the nominal machine, so that the
speed steps of a shared host mostly cancel. It reports the medians over the
repetitions of:

  wall_s        launch of the run's process to its exit, report written (scaled)
  cpu_s         user + system CPU of that process and its pool workers (scaled)
  peak_rss_mb   largest resident set of any process of the run
  setup_s       interpreter start to fuzzymono.verify imported, over the
                setup interpreters and the repetitions (scaled)
  worst_margin  largest residual / tolerance over the checked rows with a
                positive tolerance; deterministic, so its bound is an
                accuracy allowance rather than a noise bound

The result record keeps the measured times, the scale and every call time
of the probe as well.

--trace 1 runs the plan's first input once untraced and once with spans
around every layer (bench/tracing.py); it reports the per-layer metrics and
trace.overhead, traced wall over untraced wall. End-to-end metrics come only
from untraced runs.

Every report is checked against the committed reference of its workload
variant (bench/reference.py). `attempted` and `failed` count rows as defined
there, summed over the repetitions; failed / attempted is the fail_share.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 7
# Every child is killed at this many seconds after the benchmark started,
# so that one invocation always ends within three minutes.
TIME_LIMIT_S = 170.0


@dataclass
class Run:
    """One verifier process: its resources and its checked reports."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    exit_code: int
    versions: dict = field(default_factory=dict)
    variant: str = ""
    rows: dict = field(default_factory=dict)
    complete: bool = False
    check: reference.Check | None = None
    out: str = ""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FUZZYMONO_JOBS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"  # same set and dict order in every run
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(out: str, args: list[str], traced: bool, deadline: float) -> Run:
    """Run child.py once in its own process group and wait for it."""
    os.makedirs(out)
    cmd = [sys.executable, CHILD, out, *(["--trace"] if traced else []), *args]
    with open(os.path.join(out, "stderr.txt"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - t0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(wstatus)
        finally:
            timer.cancel()
            _kill_group(proc.pid)  # leftover workers, if any
            if proc.returncode is None:
                proc.wait()
    run = Run(wall_s=t1 - t0, cpu_s=usage.ru_utime + usage.ru_stime,
              peak_rss_mb=usage.ru_maxrss / 1024.0, setup_s=None,
              exit_code=proc.returncode, out=out)
    try:
        with open(os.path.join(out, "ready.json"), encoding="utf-8") as fh:
            ready = json.load(fh)
    except (OSError, ValueError):
        return run
    if not ready["module"].startswith(os.path.join(ROOT, "src") + os.sep):
        fail(f"the verifier was imported from {ready['module']}, not this checkout")
    run.setup_s = ready.pop("ready") - t0
    run.versions = ready
    return run


def read_reports(out: str) -> tuple[list[dict], bool]:
    try:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return [json.load(fh)], True
    except (OSError, ValueError):
        return [], False


def run_input(args: list[str], out: str, traced: bool, deadline: float) -> Run:
    """One repetition: child.py on one input, with its report read back."""
    args = [*args, "--out", os.path.join(out, "report.json")]
    run = launch(out, args, traced, deadline)
    reports, run.complete = read_reports(out)
    if run.exit_code not in (0, 1):  # 1: the verifier reports a failing identity
        run.complete = False
        with open(os.path.join(out, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
    run.rows = reference.read_rows(reports)
    return run


def environment(seed: int, versions: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {**versions, "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed}


def measure(workload: str, seed: int, seconds: int, traced: bool, work: str,
            spec: dict) -> dict:
    """One benchmark invocation; returns the full result record."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    inputs = workloads.plan(workload, seed)
    refs = {variant: reference.load(workload, variant) for variant, _ in inputs}
    runs: list[Run] = []
    probes: list[Run] = []
    metrics: dict[str, float] = {}
    details: dict = {}
    errors: list[str] = []

    def rep(i: int, name: str, traced_rep: bool = False) -> Run:
        variant, args = inputs[i % len(inputs)]
        run = run_input(args, os.path.join(work, name), traced_rep, deadline)
        run.variant = variant
        run.check = reference.check(refs[variant], run.rows, run.complete)
        return run

    if not traced:
        n_probes = max(workloads.processes(args) for _, args in inputs)
        with calibrate.ProbePool(n_probes, child_env()) as speed:
            cal = [speed.burst()]
            for i in range(SETUP_PROBES):
                probe = launch(os.path.join(work, f"setup{i}"), ["setup"], False, deadline)
                if probe.setup_s is None:
                    errors.append("a setup probe did not import fuzzymono.verify")
                probes.append(probe)
            cal.append(speed.burst())
            while True:
                runs.append(rep(len(runs), f"rep{len(runs)}"))
                cal.append(speed.burst())
                # Measure every input of the plan once; then start another
                # repetition only if it should end within --seconds, so that a
                # slower machine makes fewer repetitions, not longer runs.
                now = time.monotonic()
                if not runs[-1].complete or now + 1.5 * max(r.wall_s for r in runs) > deadline:
                    break
                if len(runs) >= len(inputs) and \
                        now - start + statistics.fmean(r.wall_s for r in runs) > seconds:
                    break
        scale = calibrate.NOMINAL_S / calibrate.typical([t for b in cal for t in b])
        setups = [r.setup_s for r in probes + runs if r.setup_s is not None]
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in runs) * scale,
            "cpu_s": statistics.median(r.cpu_s for r in runs) * scale,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(setups) * scale if setups else 0.0,
            "worst_margin": statistics.median(r.check.worst_margin for r in runs),
        }
        details["scale"] = scale
        details["speed_probe_s"] = cal
    else:
        plain, traced_run = rep(0, "plain"), rep(0, "traced", traced_rep=True)
        runs = [plain, traced_run]
        metrics, details = tracing.layer_metrics(tracing.read_chunks(traced_run.out))
        metrics["trace.overhead"] = traced_run.wall_s / plain.wall_s
        if plain.check.statuses != traced_run.check.statuses:
            errors.append("traced and untraced reports differ in statuses")
        details["digests_agree"] = plain.check.digest == traced_run.check.digest
        if not details["digests_agree"]:
            errors.append("traced and untraced reports differ in residuals")

    for r in runs:
        errors.extend(r.check.errors)
    attempted = sum(r.check.attempted for r in runs)
    failed = sum(r.check.failed for r in runs)
    kind = "per_layer" if traced else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(set(metrics) ^ set(expected))} disagree with BENCHMARK.json")
    versions = next((r.versions for r in probes + runs if r.versions), {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "environment": environment(seed, versions),
        "correct": not errors,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 0.0,
        "digests": {r.variant: r.check.digest for r in runs},
        "digests_match_reference": all(r.check.digest == refs[r.variant]["digest"]
                                       for r in runs),
        "runs": [{"variant": r.variant, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                  "peak_rss_mb": r.peak_rss_mb, "setup_s": r.setup_s,
                  "exit_code": r.exit_code, "worst_margin": r.check.worst_margin,
                  "attempted": r.check.attempted, "failed": r.check.failed,
                  "digest": r.check.digest} for r in runs],
        "setup_probes_s": [p.setup_s for p in probes],
        "details": details,
        "metrics": {name: {"value": metrics[name], "unit": expected[name]}
                    for name in expected},
    }


def describe(res: dict) -> str:
    variants = ",".join(r["variant"] for r in res["runs"])
    lines = [f"{res['workload']}  seed {res['seed']}  trace {res['trace']}  "
             f"{len(res['runs'])} run(s) ({variants})  "
             f"{len(res['setup_probes_s'])} setup probe(s)  correct {res['correct']}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  {'fail_share':30s} {res['fail_share']:14.6g} ratio "
                 f"({res['failed']}/{res['attempted']} rows)")
    if "scale" in res["details"]:
        lines.append(f"  {'times scaled by':30s} {res['details']['scale']:14.6g} "
                     f"(nominal probe {calibrate.NOMINAL_S} s / measured)")
    lines.extend(f"  error: {e}" for e in res["errors"])
    return "\n".join(lines)


def write_reference(workload: str, work: str) -> None:
    for variant, args in workloads.plan(workload, 0):
        run = run_input(args, os.path.join(work, variant), False,
                        time.monotonic() + TIME_LIMIT_S)
        if not run.complete:
            fail(f"{workload} {variant}: no complete report (exit code {run.exit_code})")
        ref = reference.make_reference(workload, variant, run.rows)
        os.makedirs(reference.REF_DIR, exist_ok=True)
        with open(reference.ref_path(workload, variant), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=0)
            fh.write("\n")
        print(f"wrote {reference.ref_path(workload, variant)}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per invocation (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", default=None, help="directory for the result record")
    p.add_argument("--write-reference", action="store_true",
                   help="record the reference reports of every variant of the workload")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fuzzymono", "verify", "cli.py")):
        fail(f"no fuzzymono sources under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    # Byte-compile first, so that no timed interpreter start pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work)
    try:
        if args.write_reference:
            for w in chosen:
                write_reference(w, os.path.join(work, w))
            return 0
        results = [measure(w, args.seed, seconds, bool(args.trace), os.path.join(work, w), spec)
                   for w in chosen]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for res in results:
        print(describe(res))
        if args.save:
            os.makedirs(args.save, exist_ok=True)
            tag = "-trace" if res["trace"] else ""
            path = os.path.join(args.save, f"{res['workload']}-seed{res['seed']}{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(res, fh, indent=1)
                fh.write("\n")
    if len(results) == 1:
        res = results[0]
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": res["metrics"]}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through launch(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
