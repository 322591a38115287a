#!/usr/bin/env python3
"""Write the output of every CLI command on a fixed set of algebras.

Each command runs in-process through ``liebider.cli.run_command``; its
stdout, a line ``exit=N`` and, when the command wrote to stderr, a line
``stderr:`` followed by that text go to one file in OUTDIR per command,
flag and output format.  The ``error.*`` files pin the input and usage
errors (exit 2); the directory of the input files reads ``TMP`` in them,
and argparse wraps its usage lines at 80 columns.  Snapshots of two
versions of the package are byte-identical exactly when ``diff -r`` between
their directories is empty.

``tests/data/cli_snapshot.sha256`` holds the digest of every file, and
``tests/test_scripts.py`` compares a fresh snapshot against it.  After an
intended change of output, regenerate it with

    python3 scripts/cli_snapshot.py OUT
    (cd OUT && sha256sum *.txt) > tests/data/cli_snapshot.sha256

Usage:
    python3 scripts/cli_snapshot.py OUTDIR
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile
from fractions import Fraction
from unittest import mock

from liebider.biderivations import Biderivation, inner_biderivation
from liebider.catalog import catalog
from liebider.cli import run_command
from liebider.documents import (
    algebra_to_document,
    biderivation_to_document,
    serialize_document,
)
from liebider.liealg import lie_algebra

ALGEBRAS = [
    ("sl2", 0),
    ("so3", 0),
    ("L22", 0),
    ("heisenberg3", 0),
    ("sl2_plus_sl2", 0),
    ("sl3", 0),
    ("abelian(3)", 0),
    ("twostep(6,1)", 0),
    ("twostep(7,2)", 0),
    ("twostep(6,1)", 3),
    ("abelian(0)", 0),
]

# sl2 on the basis (e/2, f/3, h/5): every constant is a proper fraction, so
# the solvers' integer scaling of Der(L) and of the bracket table is covered.
SCALED_SL2 = lie_algebra(
    3,
    {
        (0, 1, 2): Fraction(5, 6),
        (0, 2, 0): Fraction(-2, 5),
        (1, 2, 1): Fraction(2, 5),
    },
)

# A table that breaks the Jacobi identity at (0, 1, 2), built with
# `lie_algebra`, which does not validate.  Every command must refuse it;
# phi-psi and check-bider run on a zero candidate.
JACOBI_BROKEN = lie_algebra(3, {(0, 1, 2): 1, (0, 2, 0): 1, (1, 2, 1): 1})

# sl2 + sl2 without its ``factors``: one declared factor, while dim V- = 2.
# Only vdecomp runs on it (UNFACTORED_COMMANDS).
_SL22 = catalog("sl2_plus_sl2")
UNFACTORED = lie_algebra(_SL22.dim, dict(_SL22.constants), _SL22.basis_names)
UNFACTORED_COMMANDS = [["vdecomp"]]

# The complete algebras above; phi-psi and check-bider run on lambda = 2.
COMPLETE = {"sl2", "so3", "L22", "sl2_plus_sl2", "sl3", "sl2_scaled"}


def _entry_changed(alg):
    """The inner biderivation with lambda = 2 and b_01^0 raised by 1: it
    fails condition (1)."""
    flat = list(inner_biderivation(alg, [2]).flatten())
    flat[1] += 1
    return Biderivation.from_flat(flat, alg.dim)


def _projected(alg):
    """B(x, y) = [x, P(y)] with P the projection onto the first coordinate:
    every B(-, z) is a derivation, so it satisfies condition (1) and fails
    condition (2)."""
    n = alg.dim
    flat = [0] * n**3
    for i in range(n):
        for k, c in alg.pair_terms(i, 0):
            flat[k * n * n + i * n] = c
    return Biderivation.from_flat(flat, n)


# Candidates that check-bider and phi-psi must reject, by algebra: each file
# is labelled with the algebra's stem and the suffix.
REJECTED = {"sl3": [("entry_changed", _entry_changed), ("projected", _projected)]}

ALGEBRA_COMMANDS = [
    ["validate"],
    ["info"],
    ["derivations"],
    ["biderivations"],
    ["biderivations", "--symmetric"],
    ["biderivations", "--skew"],
    ["vdecomp"],
    ["bracket-closure"],
]

BIDER_COMMANDS = [["phi-psi"], ["check-bider"]]

# Every coefficient of this table prints, but its Jacobi residual 1/(a b) at
# (0, 1, 2) has more digits than the interpreter converts to a string.
A, B = "1" + "3" * 3000, "7" * 3000 + "1"
LONG_RESIDUAL = {"dim": 3, "brackets": [
    {"left": 0, "right": 1, "result": [
        {"index": 0, "coeff": "1/" + A}, {"index": 1, "coeff": B},
    ]},
    {"left": 0, "right": 2, "result": [{"index": 2, "coeff": "1/" + B}]},
]}

# Malformed input files, written next to the algebra files.
ERROR_FILES = {
    "garbage.json": b"{oops",
    "latin.json": b"\xff\xfe{",
    "no_dim.json": b'{"brackets": []}',
    "bad_coeff.json": json.dumps({"dim": 2, "brackets": [
        {"left": 0, "right": 1, "result": [{"index": 0, "coeff": "1/0"}]}
    ]}).encode(),
    "long_residual.json": json.dumps(LONG_RESIDUAL).encode(),
    "dim2.bider.json": json.dumps({"dim": 2, "mats": [[["0"] * 2] * 2] * 2}).encode(),
    "bad_entry.bider.json": json.dumps({"dim": 3, "mats": [[["x"] * 3] * 3] * 3}).encode(),
}

# label: argv; an argument ending in .json names a file in the input directory.
ERROR_COMMANDS = {
    "missing_algebra": ["info", "missing.json"],
    "garbage_algebra": ["info", "garbage.json"],
    "latin_algebra": ["info", "latin.json"],
    "no_dim_algebra": ["info", "no_dim.json"],
    "bad_coeff_algebra": ["info", "bad_coeff.json"],
    "long_residual_algebra": ["validate", "long_residual.json"],
    "long_residual_algebra_json": ["validate", "long_residual.json", "--json"],
    "missing_candidate": ["check-bider", "sl2.json", "missing.json"],
    "garbage_candidate": ["phi-psi", "sl2.json", "garbage.json"],
    "latin_candidate": ["check-bider", "sl2.json", "latin.json"],
    "dim_mismatch_candidate": ["check-bider", "sl2.json", "dim2.bider.json"],
    "bad_entry_candidate": ["check-bider", "sl2.json", "bad_entry.bider.json"],
    "unknown_catalog_name": ["catalog", "not_a_name"],
    "usage_no_command": [],
    "usage_no_file": ["info"],
    "usage_no_candidate": ["check-bider", "sl2.json"],
    "usage_unknown_option": ["info", "sl2.json", "--bogus"],
    "usage_bad_seed": ["info", "sl2.json", "--seed", "x"],
    "usage_two_modes": ["biderivations", "sl2.json", "--symmetric", "--skew"],
}


def _stem(name: str, seed: int) -> str:
    stem = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")
    return f"{stem}_seed{seed}" if seed else stem


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    text = f"{out.getvalue()}exit={code}\n"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue()}"
    return text


def write_snapshot(outdir: pathlib.Path) -> int:
    """Write every output file into ``outdir``; returns the number written."""
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
        os.environ, {"COLUMNS": "80"}
    ):
        tables = [
            (name, _stem(name, seed), catalog(name, seed=seed))
            for name, seed in ALGEBRAS
        ]
        tables.append(("sl2_scaled", "sl2_scaled", SCALED_SL2))
        tables.append(("jacobi_broken", "jacobi_broken", JACOBI_BROKEN))
        tables.append(("sl2_plus_sl2_unfactored", "sl2_plus_sl2_unfactored", UNFACTORED))
        for name, stem, alg in tables:
            alg_file = pathlib.Path(tmp, f"{stem}.json")
            alg_file.write_text(serialize_document(algebra_to_document(alg, name)))
            commands = UNFACTORED_COMMANDS if alg is UNFACTORED else ALGEBRA_COMMANDS
            jobs = [(stem, cmd, [str(alg_file)]) for cmd in commands]
            cands = []
            if name in COMPLETE:
                factors = alg.factors if alg.factors is not None else (alg.dim,)
                cands.append((stem, inner_biderivation(alg, [2] * len(factors))))
            elif alg is JACOBI_BROKEN:
                cands.append((stem, Biderivation.from_flat([0] * alg.dim**3, alg.dim)))
            cands += [(f"{stem}_{suffix}", make(alg)) for suffix, make in REJECTED.get(name, ())]
            for cand_stem, cand in cands:
                bider_file = pathlib.Path(tmp, f"{cand_stem}.bider.json")
                bider_file.write_text(
                    serialize_document(biderivation_to_document(cand))
                )
                jobs += [
                    (cand_stem, cmd, [str(alg_file), str(bider_file)])
                    for cmd in BIDER_COMMANDS
                ]
            for label_stem, cmd, files in jobs:
                for fmt in ("text", "json"):
                    flags = [*cmd[1:], *(["--json"] if fmt == "json" else [])]
                    label = ".".join([label_stem, *(c.lstrip("-") for c in cmd), fmt])
                    out = _run([cmd[0], *files, *flags])
                    (outdir / f"{label}.txt").write_text(out)
                    count += 1
        for name, content in ERROR_FILES.items():
            pathlib.Path(tmp, name).write_bytes(content)
        for label, argv in ERROR_COMMANDS.items():
            argv = [str(pathlib.Path(tmp, a)) if a.endswith(".json") else a for a in argv]
            out = _run(argv).replace(tmp, "TMP")
            (outdir / f"error.{label}.txt").write_text(out)
            count += 1
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the output files")
    args = parser.parse_args(argv)
    count = write_snapshot(pathlib.Path(args.outdir))
    print(f"{count} outputs written to {args.outdir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
