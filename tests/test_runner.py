import json
import re
import subprocess
import sys

import pytest

from fuzzymono.verify.cli import main, parse_kappas
from fuzzymono.verify.registry import REGISTRY, records_for_suite
from fuzzymono.verify.runner import RunConfig, exit_code, run_suite


def strip_wall_times(payload: str) -> str:
    raw = json.loads(payload)
    for row in raw["results"]:
        row["wall_time_ms"] = None
    return json.dumps(raw, sort_keys=True)


def test_registry_ids_unique_and_mapped():
    ids = [r.id for r in REGISTRY]
    assert len(ids) == len(set(ids))
    assert len(records_for_suite("all")) >= 40
    for rec in REGISTRY:
        assert rec.formula  # every identity states its relation or "plumbing"
        assert rec.suite in {"fock", "coords", "su22", "radial", "velocity",
                             "monopole", "scaling"}


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        records_for_suite("bogus")


def test_coords_suite_all_pass():
    rep = run_suite(RunConfig(suite="coords", kappas=(0,), n_max=10, jobs=1))
    assert len(rep.results) == 3
    assert rep.all_passed
    assert exit_code(rep) == 0


def test_monopole_zero_charge_branch():
    rep = run_suite(RunConfig(suite="monopole", kappas=(0,), n_max=8, jobs=1))
    assert exit_code(rep) == 0
    by_id = {r.id: r for r in rep.results}
    assert by_id["field-closed-spatial"].passed is True
    assert by_id["field-trend"].passed is None  # nothing to fit at kappa 0


def test_skipped_when_sector_empty():
    rep = run_suite(RunConfig(suite="velocity", kappas=(9,), n_max=3, jobs=1))
    per_kappa = [r for r in rep.results if r.kappa == 9]
    assert per_kappa and all(r.passed is None for r in per_kappa)
    assert exit_code(rep) == 0  # skipped never fails the run


def test_failure_drives_exit_code():
    # the global tolerance governs identities without per-identity overrides
    cfg = RunConfig(suite="velocity", kappas=(1,), n_max=6, jobs=1, tol=1e-30)
    rep = run_suite(cfg)
    assert any(r.passed is False for r in rep.results)
    assert exit_code(rep) == 1
    # identities with their own override are untouched by the global knob
    by_id = {r.id: r for r in rep.results}
    assert by_id["u-weighted-adjoint"].tolerance == 1e-12
    assert by_id["q-order"].tolerance == 1e-30
    # a guard override can also expose the truncation boundary
    bad = RunConfig(suite="su22", kappas=(0,), n_max=6, jobs=1, guard=0)
    rep2 = run_suite(bad)
    by_id2 = {(r.id, r.kappa): r for r in rep2.results}
    assert by_id2[("radius-s05", 0)].passed is False
    assert exit_code(rep2) == 1


def test_guard_override_reported():
    rep = run_suite(RunConfig(suite="su22", kappas=(1,), n_max=6, jobs=1, guard=3))
    assert all(r.guard == 3 for r in rep.results)


def test_deterministic_order_and_bytes():
    cfg = RunConfig(suite="radial", kappas=(-2, 0, 1), n_max=7, jobs=2, fmt="json")
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    assert strip_wall_times(a) == strip_wall_times(b)
    keys = [(row["id"], row["kappa"] is not None, row["kappa"] or 0)
            for row in json.loads(a)["results"]]
    assert keys == sorted(keys)


def test_parallel_matches_serial():
    cfg1 = RunConfig(suite="velocity", kappas=(0, 2), n_max=6, jobs=1)
    cfg2 = RunConfig(suite="velocity", kappas=(0, 2), n_max=6, jobs=2)
    assert strip_wall_times(run_suite(cfg1).to_json()) == \
        strip_wall_times(run_suite(cfg2).to_json())


def test_parse_kappas():
    assert parse_kappas("-4..4") == tuple(range(-4, 5))
    assert parse_kappas("0,2,-3") == (0, 2, -3)
    assert parse_kappas("5") == (5,)
    with pytest.raises(ValueError):
        parse_kappas("4..-4")


def test_cli_accepts_leading_dash_kappa(tmp_path):
    """'--kappa -2..0' must parse even though the value starts with a dash."""
    out = tmp_path / "r.json"
    code = main(["--suite", "coords", "--kappa", "-2..0", "--n-max", "6",
                 "--format", "json", "--out", str(out), "--jobs", "1"])
    assert code == 0
    code = main(["--suite", "coords", "--kappa=-1,0", "--n-max", "6",
                 "--format", "json", "--out", str(out), "--jobs", "1"])
    assert code == 0


def test_jobs_resolution(monkeypatch):
    cfg = RunConfig(jobs=3)
    assert cfg.resolved_jobs() == 3
    cfg = RunConfig(jobs=0)
    monkeypatch.setenv("FUZZYMONO_JOBS", "2")
    assert cfg.resolved_jobs() == 2
    monkeypatch.delenv("FUZZYMONO_JOBS")
    assert cfg.resolved_jobs() >= 1


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--suite", "coords", "--kappa", "0", "--n-max", "8",
                 "--format", "json", "--out", str(out), "--jobs", "1"])
    assert code == 0
    raw = json.loads(out.read_text())
    assert raw["suite"] == "coords" and raw["n_max"] == 8
    assert all(row["pass"] for row in raw["results"])


def test_cli_text_to_stdout(capsys):
    code = main(["--suite", "fock", "--n-max", "6", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ladder-canonical" in captured.out


def test_cli_usage_errors_exit_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--kappa", "4..-4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--n-max", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--lambda", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("FUZZYMONO_JOBS", "abc")
    assert main(["--suite", "fock", "--n-max", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "FUZZYMONO_JOBS" in err


def test_excluded_blocks_are_the_record_pole_window():
    """Every windowed per-kappa row reports exactly its record's pole blocks."""
    from fuzzymono.sector import build_sector
    from fuzzymono.verify.registry import BY_ID

    rep = run_suite(RunConfig(suite="all", kappas=tuple(range(-3, 4)), n_max=8, jobs=2))
    checked = 0
    for row in rep.results:
        rec = BY_ID[row.id]
        if not (rec.per_kappa and rec.exclude_ws) or row.residual is None:
            continue
        expected = build_sector(row.kappa, 8).guard_window(row.guard, rec.exclude_ws)[1]
        assert row.excluded_blocks == expected, (row.id, row.kappa)
        checked += bool(expected)
    assert checked > 20


def test_cli_unwritable_output(tmp_path):
    code = main(["--suite", "fock", "--n-max", "5", "--jobs", "1",
                 "--out", str(tmp_path / "missing" / "report.json")])
    assert code == 2


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzymono.verify.cli", "--suite", "coords",
         "--kappa", "0", "--n-max", "6", "--jobs", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert re.search(r"coord-comm\s+", proc.stdout)
