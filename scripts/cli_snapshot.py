#!/usr/bin/env python3
"""Write the output of every CLI command on a fixed set of algebras.

Each command runs in-process through ``liebider.cli.run_command``; its
stdout, followed by a line ``exit=N``, goes to one file in OUTDIR per
command, flag and output format.  Snapshots of two versions of the package
are byte-identical exactly when ``diff -r`` between their directories is
empty.

Usage:
    python3 scripts/cli_snapshot.py OUTDIR
"""

import argparse
import contextlib
import io
import pathlib
import re
import sys
import tempfile
from fractions import Fraction

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

# The complete algebras above; phi-psi and check-bider run on lambda = 2.
COMPLETE = {"sl2", "so3", "L22", "sl2_plus_sl2", "sl3", "sl2_scaled"}

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


def _stem(name: str, seed: int) -> str:
    stem = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")
    return f"{stem}_seed{seed}" if seed else stem


def _run(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run_command(argv)
    return f"{buffer.getvalue()}exit={code}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the output files")
    args = parser.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        tables = [
            (name, _stem(name, seed), catalog(name, seed=seed))
            for name, seed in ALGEBRAS
        ]
        tables.append(("sl2_scaled", "sl2_scaled", SCALED_SL2))
        tables.append(("jacobi_broken", "jacobi_broken", JACOBI_BROKEN))
        for name, stem, alg in tables:
            alg_file = pathlib.Path(tmp, f"{stem}.json")
            alg_file.write_text(serialize_document(algebra_to_document(alg, name)))
            jobs = [(cmd, [str(alg_file)]) for cmd in ALGEBRA_COMMANDS]
            cand = None
            if name in COMPLETE:
                factors = alg.factors if alg.factors is not None else (alg.dim,)
                cand = inner_biderivation(alg, [2] * len(factors))
            elif alg is JACOBI_BROKEN:
                cand = Biderivation.from_flat([0] * alg.dim**3, alg.dim)
            if cand is not None:
                bider_file = pathlib.Path(tmp, f"{stem}.bider.json")
                bider_file.write_text(
                    serialize_document(biderivation_to_document(cand))
                )
                jobs += [
                    (cmd, [str(alg_file), str(bider_file)]) for cmd in BIDER_COMMANDS
                ]
            for cmd, files in jobs:
                for fmt in ("text", "json"):
                    flags = [*cmd[1:], *(["--json"] if fmt == "json" else [])]
                    label = ".".join([stem, *(c.lstrip("-") for c in cmd), fmt])
                    out = _run([cmd[0], *files, *flags])
                    (outdir / f"{label}.txt").write_text(out)
                    count += 1
    print(f"{count} outputs written to {outdir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
