"""CLI error paths: bad flags must exit non-zero with a clear message."""

import pytest

from repro.cli import main

pytestmark = pytest.mark.verify


def test_cache_dir_must_be_a_directory(capsys, tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("plain file")
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(not_a_dir), "suites"])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--suite", "spec"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["abc", "0", "-3"])
def test_invalid_k_is_a_usage_error(capsys, k):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--suite", "nr", "--k", k])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --k: must be 'elbow' or an integer >= 1" in err
    assert "Traceback" not in err


def test_unknown_verify_breakage_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--break", "gamma-rays"])
    assert "unknown defect 'gamma-rays'" in str(exc.value.code)
