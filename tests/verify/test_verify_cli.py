"""The ``repro verify`` subcommand end to end."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.verify


def test_list_describes_the_registry(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "invariants (" in out
    assert "permutation-invariance" in out
    assert "differential cases (" in out
    assert "no-normalize" in out


def test_green_run_exits_zero_and_writes_reports(capsys, tmp_path):
    assert main(["verify", "--seed", "0", "--skip-differential",
                 "--report-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: OK" in out

    payload = json.loads((tmp_path / "verify_seed0.json").read_text())
    assert payload["passed"] is True
    assert len(payload["invariants"]) >= 6
    assert all(r["passed"] for r in payload["invariants"])

    text = (tmp_path / "verify_seed0.txt").read_text()
    assert text.count("[PASS]") >= 6


def test_injected_defect_exits_nonzero_and_names_it(capsys, tmp_path):
    assert main(["verify", "--seed", "0", "--break", "no-normalize",
                 "--skip-differential",
                 "--report-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED (1: normalized-features)" in out

    stem = tmp_path / "verify_seed0_break-no-normalize.json"
    payload = json.loads(stem.read_text())
    assert payload["passed"] is False
    assert payload["breakage"] == "no-normalize"
    failed = [r["name"] for r in payload["invariants"]
              if not r["passed"]]
    assert failed == ["normalized-features"]


def test_full_run_including_differential_cases(capsys, tmp_path):
    assert main(["verify", "--seed", "1",
                 "--report-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify_seed1.json").read_text())
    assert len(payload["differentials"]) == 2
    assert all(r["passed"] for r in payload["differentials"])
