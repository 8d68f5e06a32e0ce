"""The benchmark's workloads and how a seed picks their inputs.

Each repetition is one run of fuzzymono in a fresh interpreter. A *variant*
names an input up to what changes the report rows; each variant has its
own committed reference report under reference/.

plan() gives the inputs of one timed run, one repetition each, in order.
The two signs of kappa are not equal work (measured on a 2-core machine:
deep 17 s for +2 against 18.8 s for -2), so a run of deep-n20-k2 measures
both signs and the seed picks which goes first; a seed that picked one sign
would make the spread over seeds mostly the difference between the signs.
For default-k9 the seed rotates the order of the kappa list, which changes
which kappa warms each worker's caches, not the rows.
"""

from __future__ import annotations

import random

WORKLOADS = ("default-k9", "deep-n20-k2")

KAPPAS_K9 = tuple(range(-4, 5))


def _cli(n_max: int, kappas: str, jobs: int) -> list[str]:
    return ["cli", "--suite", "all", "--n-max", str(n_max), "--kappa", kappas,
            "--jobs", str(jobs), "--format", "json"]


def plan(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """[(variant, arguments of child.py after the output directory)]."""
    rng = random.Random(seed)
    if workload == "default-k9":
        r = rng.randrange(len(KAPPAS_K9))
        kappas = KAPPAS_K9[r:] + KAPPAS_K9[:r]
        return [("k-4..4", _cli(12, ",".join(str(k) for k in kappas), 2))]
    if workload == "deep-n20-k2":
        return [(f"k{k:+d}", _cli(20, str(k), 1)) for k in rng.sample((-2, 2), 2)]
    raise KeyError(f"unknown workload {workload!r}")


def processes(args: list[str]) -> int:
    """How many processes compute at once in a repetition with these arguments."""
    return int(args[args.index("--jobs") + 1])
