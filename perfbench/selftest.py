#!/usr/bin/env python3
"""Self-test of the answer checks: a wrong answer counts as a failed operation.

    python3 perfbench/selftest.py

Runs a few genuine operations on sl(2) in-process and confirms that their
answers pass.  Then it corrupts one answer at a time the way a faulty
program could (a wrong dimension, a perturbed basis element, a wrong
first-violation triple, a wrong exit code, an escaped exception) and
confirms that the benchmark's counting marks exactly that operation as
failed, and the run as incorrect whenever an answer was given.  Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import algebra as A  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from run import check_rounds  # noqa: E402


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _run(cli, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    return {"t": 0.0, "code": code, "out": out.getvalue(), "err": "", "exc": None}


def _edit_json(record: dict, edit) -> dict:
    doc = json.loads(record["out"])
    edit(doc["results"])
    return {**record, "out": json.dumps(doc)}


def _edit_text(record: dict, old: str, new: str) -> dict:
    if old not in record["out"]:
        raise AssertionError(f"{old!r} not in the report")
    return {**record, "out": record["out"].replace(old, new, 1)}


def _perturb_entry(results: dict) -> None:
    row = results["basis"][0][0][0]
    row[1] = str(Fraction(row[1]) + 7)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liebider.cli as cli

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        rng = random.Random("selftest")
        sl2 = A.sl(2)
        doc = _write(workdir, "sl2.json", A.to_document(sl2, "sl2"))
        broken = _write(workdir, "broken.json",
                        A.to_document(workloads.perturbed_table(sl2, rng), "broken"))
        cand = workloads.failing_candidate(sl2, rng, [Fraction(1)])
        bider = _write(workdir, "cand.json", A.bider_document(cand))
        ops = [
            {"argv": ["biderivations", doc, "--json"],
             "check": {"kind": "biderivations", "doc": doc, "mode": "all", "dim": 1}},
            {"argv": ["check-bider", doc, bider],
             "check": {"kind": "check-bider", "doc": doc, "bider": bider, "expect": "reject"}},
            {"argv": ["validate", broken, "--json"],
             "check": {"kind": "validate", "doc": broken}},
            {"argv": ["derivations", doc],
             "check": {"kind": "derivations", "doc": doc, "dim": 3, "inner": 3}},
        ]
        records = [_run(cli, op["argv"]) for op in ops]
        _, failed, wrong, problems = check_rounds(ops, [{"ops": records}], Checker())
        if failed:
            print("selftest: genuine answers were rejected:", *problems, sep="\n  ")
            return 1

        own = A.bider_first_violation(sl2, cand)
        triple = list(own[1])
        moved = [triple[0], triple[1], (triple[2] + 1) % sl2.n]
        jacobi = json.loads(records[2]["out"])["results"]["violation"]["triple"]
        corruptions = [
            ("wrong biderivation dimension", 0,
             _edit_json(records[0], lambda r: r.update(dim=0, basis=[])), True),
            ("dimension that disagrees with the basis", 0,
             _edit_json(records[0], lambda r: r.update(dim=2)), True),
            ("perturbed basis element", 0, _edit_json(records[0], _perturb_entry), True),
            ("wrong first-violation triple", 1,
             _edit_text(records[1], f"triple: [{', '.join(map(str, triple))}]",
                        f"triple: [{', '.join(map(str, moved))}]"), True),
            ("wrong Jacobi triple", 2,
             _edit_json(records[2], lambda r: r["violation"].update(triple=jacobi[::-1])), True),
            ("wrong derivation dimension", 3,
             _edit_text(records[3], "derivation_dim: 3", "derivation_dim: 4"), True),
            ("accepting a failing candidate", 1, {**records[1], "code": 0}, True),
            ("escaped exception", 0, {**records[0], "out": "", "code": None,
                                      "exc": "ValueError: boom"}, False),
        ]
        caught = 0
        for label, index, record, answered in corruptions:
            corrupted = copy.deepcopy(records)
            corrupted[index] = record
            _, failed, wrong, problems = check_rounds(ops, [{"ops": corrupted}], Checker())
            if failed != 1 or wrong != int(answered):
                print(f"selftest: {label} not caught (failed {failed}, wrong {wrong})")
                return 1
            caught += 1
            print(f"  caught {label}: {problems[0]}")
        print(f"selftest: {caught} corruptions counted as failed operations")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
