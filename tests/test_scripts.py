"""Smoke tests for the scripts under scripts/."""

import hashlib
import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "cli_snapshot.sha256"


def test_survey_catalog_prints_one_row_per_name(capsys):
    survey = runpy.run_path(str(SCRIPTS / "survey_catalog.py"))
    assert survey["main"](["--names", "sl2,heisenberg3"]) == 0
    cells = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [row for row in cells if row[:1] in (["sl2"], ["heisenberg3"])]
    assert [row[0] for row in rows] == ["sl2", "heisenberg3"]
    assert [row[5] for row in rows] == ["yes", "no"]  # the complete column


def test_cli_snapshot_matches_pinned_digests(tmp_path):
    """Every output of scripts/cli_snapshot.py, error paths included, is
    byte-identical to the pinned one; its docstring says how to regenerate
    the digest file after an intended change of output."""
    snapshot = runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))
    snapshot["write_snapshot"](tmp_path)
    expected = {}
    for line in DIGESTS.read_text().splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert actual == expected
