"""Smoke tests for the scripts under scripts/."""

import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_survey_catalog_prints_one_row_per_name(capsys):
    survey = runpy.run_path(str(SCRIPTS / "survey_catalog.py"))
    assert survey["main"](["--names", "sl2,heisenberg3"]) == 0
    cells = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [row for row in cells if row[:1] in (["sl2"], ["heisenberg3"])]
    assert [row[0] for row in rows] == ["sl2", "heisenberg3"]
    assert [row[5] for row in rows] == ["yes", "no"]  # the complete column
