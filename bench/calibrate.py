"""The machine-speed probe that the benchmark's times are scaled by.

On a shared machine the speed of a core steps by 20-60 % for minutes at a
time (other tenants, not this program), so two sets of runs of the same
code made ten minutes apart can differ by more than any useful bound. The
benchmark therefore times this fixed kernel between the repetitions of the
verifier, in as many processes at once as a repetition runs (a workload
with --jobs 2 gains or loses the speed of both cores), and reports every
time scaled to a nominal machine:

    scaled = measured * NOMINAL_S / typical(all kernel calls of the run)

A single burst of calls varies by up to 20 % from one second to the next,
so the scale pools every burst of the run rather than pairing each process
with its neighbouring bursts. The kernel does what the verifier spends its
time on, as far as a few lines can: products, sums and scalings of complex
CSR matrices in scipy, and interpreted Python. It never changes, so a
change of the program moves the scaled times and a change of the machine's
speed mostly does not.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp

# One kernel call on the machine the scaled times refer to: a round value
# near the typical call on a shared 2-vCPU Xeon VM, with one or two probe
# processes. Scaled times are seconds on that machine.
NOMINAL_S = 0.060
ITERATIONS = 30


def typical(times: list[float]) -> float:
    """Mean of the middle half of the call times: the machine's speed over
    the probes, without the slowest and fastest calls."""
    times = sorted(times)
    k = len(times) // 4
    return statistics.fmean(times[k:len(times) - k])


class Probe:
    """A fixed kernel; build once, then burst() as often as needed."""

    def __init__(self) -> None:
        n = 4000
        rng = np.random.default_rng(20180219)
        rows = rng.integers(0, n, 4 * n)
        cols = rng.integers(0, n, 4 * n)
        vals = rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)
        self.a = (sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
                  + sp.identity(n, dtype=complex, format="csr"))
        self.keys = [(i % 97, i % 89, i % 83) for i in range(20000)]

    def _kernel(self) -> float:
        b = (self.a @ self.a) * 0.5 - self.a
        c = b.conj().T.tocsr() @ self.a + b
        table: dict[tuple, float] = {}
        for k in self.keys:
            table[k] = table.get(k, 0.0) + k[0] * 0.5 - k[1]
        return float(abs(c.sum())) + len(table)

    def burst(self) -> list[float]:
        """Seconds of each of ITERATIONS back-to-back calls of the kernel."""
        times = []
        for _ in range(ITERATIONS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return times


class ProbePool:
    """`processes` interpreters that each run a burst of the kernel at the
    same moment, on every call of burst(). Close it to end them."""

    def __init__(self, processes: int, env: dict[str, str]) -> None:
        self.procs: list[subprocess.Popen] = []
        try:
            for _ in range(processes):
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--serve"], env=env, text=True,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        except BaseException:
            self.close()
            raise

    def burst(self) -> list[float]:
        """The call times of one burst in every process, pooled."""
        for p in self.procs:
            p.stdin.write("\n")
            p.stdin.flush()
        times = []
        for p in self.procs:
            line = p.stdout.readline()
            if not line:
                raise RuntimeError(f"the speed probe exited with code {p.wait()}")
            times.extend(json.loads(line))
        return times

    def close(self) -> None:
        for p in self.procs:
            p.kill()
            p.wait()
            p.stdin.close()
            p.stdout.close()

    def __enter__(self) -> "ProbePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    probe = Probe()
    if sys.argv[1:] == ["--serve"]:
        for _ in sys.stdin:  # one burst per line, its call times back as JSON
            print(json.dumps(probe.burst()), flush=True)
    else:
        print(f"probe {typical(probe.burst()):.4f} s (nominal {NOMINAL_S} s)")
