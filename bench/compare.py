"""Compare the benchmark results of a parent and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result records written by `bench/run.py --save DIR`,
one per invocation (traced records are ignored). Runs are paired by
workload and seed. Make each pair's two runs back to back, alternating
which side goes first: the times are scaled to a nominal machine speed
(bench/calibrate.py), but the scale does not follow every step of a shared
machine's speed. For every workload and end-to-end metric this prints
both sides' median and quartiles, the share of pairs the change won (ties
count for neither side) and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the parent's interquartile range, as a share of its median,
              is wider than the metric's bound, and not every change run
              beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound (a share of the parent's median, from BENCHMARK.json)
  unchanged   otherwise

It also prints each side's fail_share and whether the residual digests are
identical, which a pure refactor should keep. Exit status is 1 when any
verdict is regressed or any record is not correct.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result record (untraced records only)."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec["trace"]:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    share = wins / len(pairs) if pairs else 0.0
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if share >= 0.9 and abs(cm - pm) > p3 - p1 and worse < 0:
        return "improved", share
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", share
    if worse > bound:
        return "regressed", share
    return "unchanged", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    status = 0
    for w in (w["name"] for w in spec["workloads"]):
        a, b = parent.get(w, {}), change.get(w, {})
        if not a or not b:
            print(f"{w}: no runs on {'parent' if not a else 'change'} side")
            continue
        seeds = sorted(a.keys() & b.keys())
        print(f"{w}: {len(a)} parent runs, {len(b)} change runs, {len(seeds)} pairs")
        print(f"  {'metric':14s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s}"
              f" {'won':>5s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in a.values()]
            cv = [r["metrics"][name]["value"] for r in b.values()]
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in seeds]
            v, share = verdict(pv, cv, pairs, m["better"], m["bound"])
            status |= v == "regressed"
            fmt = "{:10.4g}/{:10.4g}/{:10.4g}"
            print(f"  {name:14s} {fmt.format(*quartiles(pv)):>32s} "
                  f"{fmt.format(*quartiles(cv)):>32s} {share:5.0%}  {v}  ({m['unit']})")
        for side, recs in (("parent", a), ("change", b)):
            att = sum(r["attempted"] for r in recs.values())
            fl = sum(r["failed"] for r in recs.values())
            bad = sum(not r["correct"] for r in recs.values())
            status |= bad > 0
            print(f"  {side}: fail_share {fl}/{att} rows, {bad} incorrect record(s)")
        same = all(a[s]["digests"] == b[s]["digests"] for s in seeds)
        print(f"  residual digests {'identical' if same else 'differ'} on paired seeds")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
