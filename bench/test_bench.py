"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

The traced-run tests start the verifier twice per workload and take about
two minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Result record of one traced run per workload, made on first use."""
    out = tmp_path_factory.mktemp("traced")
    records: dict[str, dict] = {}

    def get(workload: str) -> dict:
        if workload not in records:
            proc = _run(["--workload", workload, "--seed", "0", "--trace", "1",
                         "--save", str(out)], ROOT)
            assert proc.returncode == 0, proc.stderr[-2000:]
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert last["correct"] and last["attempted"] > 0
            with open(out / f"{workload}-seed0-trace.json", encoding="utf-8") as fh:
                records[workload] = json.load(fh)
        return records[workload]

    return get


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reaches_every_layer_and_keeps_the_report(workload, traced):
    res = traced(workload)
    plain, traced_run = res["runs"]
    assert (plain["attempted"], plain["failed"]) == (traced_run["attempted"], traced_run["failed"])
    assert res["details"]["digests_agree"]
    calls = res["details"]["layer_calls"]
    for layer in tracing.LAYERS:
        assert calls[layer] > 0, f"{workload}: no calls into {layer}"


def test_cross_kappa_repetition_shows_in_matmul_calls(traced):
    def calls(workload: str) -> float:
        return traced(workload)["metrics"]["liouville.matmul.calls"]["value"]

    assert calls("default-k9") > 5 * calls("deep-n20-k2") > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(["--workload", "deep-n20-k2", "--seed", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _row(rid, kappa, residual, guard=1, tol=1e-12):
    return {"id": rid, "kappa": kappa, "guard": guard, "tolerance": tol,
            "residual": residual, "excluded_blocks": [],
            "pass": None if residual is None else residual <= tol}


def _report(*rows):
    return [{"n_max": 8, "results": list(rows)}]


def test_status_changes_count_and_departures_are_errors():
    ref = reference.make_reference("w", "v", reference.read_rows(_report(
        _row("a", 0, 1e-13), _row("b", 0, 1e-13), _row("c", 0, None), _row("d", 0, 5e-12))))

    same = reference.check(ref, reference.read_rows(_report(
        _row("a", 0, 1e-13), _row("b", 0, 1e-13), _row("c", 0, None), _row("d", 0, 5e-12))),
        complete=True)
    assert (same.attempted, same.failed, same.errors) == (3, 1, [])
    assert same.digest == ref["digest"]
    assert same.worst_margin == pytest.approx(5.0)

    # a pass that is now skipped and a lost row both fail; the known failure
    # still counts; a fix of it is no departure
    changed = reference.check(ref, reference.read_rows(_report(
        _row("a", 0, None), _row("c", 0, None), _row("d", 0, 1e-13))), complete=False)
    assert (changed.attempted, changed.failed) == (3, 2)
    assert any("missing row" in e for e in changed.errors)

    moved = reference.check(ref, reference.read_rows(_report(
        _row("a", 0, 1e-13, guard=2), _row("b", 0, 1e-13), _row("c", 0, None),
        _row("d", 0, 5e-12))), complete=True)
    assert len(moved.errors) == 1 and "guard" in moved.errors[0]


def test_speed_scale_ignores_the_slowest_and_fastest_probe_calls():
    assert calibrate.typical([0.001, 2, 2, 2, 2, 2, 2, 100]) == 2
