import json
import math

import pytest

from dense import report_from_json
from fuzzymono.verify.report import IdentityResult, VerificationReport

SCHEMA_ROW_KEYS = {"id", "paper_ref", "kappa", "guard", "residual",
                   "tolerance", "pass", "excluded_blocks", "wall_time_ms"}


def sample_report():
    rep = VerificationReport(suite="velocity", lam=1.0, n_max=8)
    rep.results.append(IdentityResult(
        id="q-order", paper_ref="U+U = Q UU+ + (1/(r(r+lam)))(...)", kappa=2,
        guard=2, residual=3.5e-16, tolerance=1e-10,
        excluded_blocks=[0, 1], wall_time_ms=12.5))
    rep.results.append(IdentityResult(
        id="q-order", paper_ref="U+U = Q UU+ + (1/(r(r+lam)))(...)", kappa=9,
        guard=2, residual=None, tolerance=1e-10,
        excluded_blocks=[], wall_time_ms=0.1))
    rep.results.append(IdentityResult(
        id="vv-duality", paper_ref="[Vt_i,Vt_j] = [V_i,V_j]", kappa=0,
        guard=2, residual=2.0e-3, tolerance=1e-11,
        excluded_blocks=[], wall_time_ms=4.0))
    return rep


def test_pass_flag_semantics():
    rep = sample_report()
    assert rep.results[0].passed is True
    assert rep.results[1].passed is None  # skipped
    assert rep.results[2].passed is False
    assert not rep.all_passed
    assert rep.counts == (1, 1, 1)


def test_json_schema_field_names():
    raw = json.loads(sample_report().to_json())
    assert set(raw.keys()) == {"suite", "lambda", "n_max", "results"}
    for row in raw["results"]:
        assert set(row.keys()) == SCHEMA_ROW_KEYS
    # skipped rows carry nulls, never affect schema
    skipped = raw["results"][1]
    assert skipped["residual"] is None and skipped["pass"] is None


def test_empty_results_json():
    rep = VerificationReport(suite="fock", lam=1.0, n_max=4)
    raw = json.loads(rep.to_json())
    assert raw["results"] == []
    assert rep.all_passed
    assert rep.counts == (0, 0, 0)


def test_json_round_trip_exact():
    rep = sample_report()
    again = report_from_json(rep.to_json())
    assert again == rep
    assert again.to_json() == rep.to_json()


def test_pass_iff_residual_within_tolerance():
    row = IdentityResult(id="x", paper_ref="plumbing", kappa=None, guard=0,
                         residual=1e-10, tolerance=1e-10)
    assert row.passed is True  # boundary included
    row.residual = 1.0000001e-10
    assert row.passed is False


def test_csv_layout():
    text = sample_report().to_csv()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:4] == ["suite", "lambda", "n_max", "id"]
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[3] == "q-order"
    assert first[10] == "0;1"  # excluded blocks flattened
    skipped = lines[2].split(",")
    assert skipped[7] == "" and skipped[9] == ""


def test_text_table():
    text = sample_report().to_text()
    assert "q-order" in text
    assert "FAIL" in text and "pass" in text and "skip" in text
    assert "passed 1  failed 1  skipped 1" in text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        sample_report().emit("yaml")


def test_nonfinite_residual_round_trip():
    """A non-finite residual is written as null with pass false (strict JSON)
    and read back as a failure, distinct from a skip."""
    rep = sample_report()
    for residual in (math.nan, math.inf):
        rep.results.append(IdentityResult(
            id="su22-op-closure", paper_ref="[S_AB,S_CD] = i(eta.S - ...) as superoperators",
            kappa=0, guard=2, residual=residual, tolerance=1e-12,
            excluded_blocks=[], wall_time_ms=1.0))

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    text = rep.to_json()
    raw = json.loads(text, parse_constant=reject)
    for row in raw["results"]:
        assert set(row.keys()) == SCHEMA_ROW_KEYS
    assert [(row["residual"], row["pass"]) for row in raw["results"][3:]] == [(None, False)] * 2
    assert raw["results"][1]["residual"] is None and raw["results"][1]["pass"] is None

    again = report_from_json(text)
    assert [r.passed for r in again.results] == [True, None, False, False, False]
    assert all(math.isnan(r.residual) for r in again.results[3:])
    assert again.counts == (1, 3, 1) and not again.all_passed
    assert again.to_json() == text


def test_to_json_refuses_nonfinite_fields():
    rep = VerificationReport(suite="fock", lam=math.inf, n_max=4)
    with pytest.raises(ValueError):
        rep.to_json()
