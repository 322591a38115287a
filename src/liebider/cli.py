"""Command-line front end.

Commands read AlgebraDocument / BiderivationDocument JSON files, run the
exact solvers, and emit either a human-readable text report or (with
``--json``) a machine-readable ReportDocument.  Identical inputs always
produce byte-identical output.

`_COMMANDS` names each algebra command once, for the parser and the
dispatch.  Each passes one Jacobi gate first: a broken table gets
`validate`'s report under the command's name before any candidate is read.

Exit codes: 0 on success/pass, 1 on a mathematical failure (a violated
condition, a Jacobi-invalid table, a failed direct sum, non-closure), 2 on
input errors (malformed documents, unknown names, usage problems).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .biderivations import (
    BiderViolation,
    NotBiderivation,
    NotComplete,
    bider_bracket_closure,
    biderivation_space,
    biderivation_violation,
    classify_symmetry,
    constrained_biderivation_space,
    extract_phi_psi,
)
from .catalog import CATALOG_NAMES, UnknownName, catalog
from .derivations import derivation_space, inner_derivation_space, is_complete
from .documents import (
    DimMismatch,
    ParseError,
    algebra_to_document,
    biderivation_to_document,
    matrix_strs,
    serialize_document,
    vector_strs,
    load_algebra_document,
    parse_biderivation,
)
from .liealg import (
    JacobiViolation,
    LieAlgebra,
    killing_form,
    lower_central_series,
    validate,
)
from .vdecomp import verify_direct_sum


class _InputError(Exception):
    """Internal: wraps any input problem destined for exit code 2."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def _violation_fields(v: JacobiViolation) -> dict:
    return {"triple": [v.i, v.j, v.k], "residual": vector_strs(v.residual)}


def _bider_violation_fields(v: BiderViolation) -> dict:
    return {
        "condition": v.condition,
        "triple": list(v.triple),
        "residual": vector_strs(v.residual),
    }


# ---------------------------------------------------------------------------
# Text rendering


def _aligned_matrix(mat: list[list[str]], indent: str) -> list[str]:
    if not mat or not mat[0]:
        return [f"{indent}[]"]
    widths = [
        max(len(mat[r][c]) for r in range(len(mat)))
        for c in range(len(mat[0]))
    ]
    return [
        indent + "[ " + "  ".join(e.rjust(w) for e, w in zip(row, widths)) + " ]"
        for row in mat
    ]


def _list_depth(value) -> int:
    """Nesting depth down to the first non-list leaf (0 for a scalar)."""
    depth = 0
    while isinstance(value, list):
        depth += 1
        if not value:
            break
        value = value[0]
    return depth


def _render_value(key: str, value, indent: str, out: list[str]) -> None:
    if isinstance(value, dict):
        out.append(f"{indent}{key}:")
        for sub, sval in value.items():
            _render_value(sub, sval, indent + "  ", out)
        return
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            out.append(f"{indent}{key}:")
            for i, entry in enumerate(value):
                _render_value(f"[{i}]", entry, indent + "  ", out)
            return
        depth = _list_depth(value)
        if depth == 2 and value:  # one matrix
            out.append(f"{indent}{key}:")
            out.extend(_aligned_matrix(value, indent + "  "))
            return
        if depth == 3:  # list of matrices
            out.append(f"{indent}{key}:")
            for i, mat in enumerate(value):
                out.append(f"{indent}  [{i}]:")
                out.extend(_aligned_matrix(mat, indent + "    "))
            return
        if depth == 4:  # list of matrix tuples (biderivation basis)
            out.append(f"{indent}{key}:")
            for i, tup in enumerate(value):
                out.append(f"{indent}  element {i}:")
                for k, mat in enumerate(tup):
                    out.append(f"{indent}    B{k + 1}:")
                    out.extend(_aligned_matrix(mat, indent + "      "))
            return
        rendered = "[" + ", ".join(str(v) for v in value) + "]"
        out.append(f"{indent}{key}: {rendered}")
        return
    if isinstance(value, bool):
        value = "true" if value else "false"
    elif value is None:
        value = "none"
    out.append(f"{indent}{key}: {value}")


def emit_report(report: dict, mode: str) -> str:
    """Render a ReportDocument as canonical JSON or aligned text."""
    if mode == "json":
        return serialize_document(report)
    out: list[str] = [f"command: {report['command']}"]
    for key, value in report.get("results", {}).items():
        _render_value(key, value, "", out)
    return "\n".join(out) + "\n"


def _report(
    command: str, inputs: dict, results: dict
) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Command implementations: each takes the validated algebra and the parsed
# arguments and returns (results, exit_code)


def _cmd_info(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    series = lower_central_series(alg)
    kf = killing_form(alg)
    comp = is_complete(alg)
    results = {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "center_dim": comp.center_dim,
        "lower_central_dims": [t.dim for t in series.terms],
        "nilpotent": series.nilpotent,
        "nilpotency_class": series.nilpotency_class
        if series.nilpotent
        else "not nilpotent",
        "killing_rank": kf.rank,
        "semisimple": kf.semisimple,
        "derivation_dim": comp.derivation_dim,
        "inner_dim": comp.inner_dim,
        "complete": comp.complete,
    }
    if alg.factors is not None:
        results["factors"] = list(alg.factors)
    return results, 0


def _cmd_derivations(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    der = derivation_space(alg)
    inner = inner_derivation_space(alg)
    n = alg.dim
    basis = [[vector_strs(v[r : r + n]) for r in range(0, n * n, n)] for v in der.basis]
    return {
        "derivation_dim": der.dim,
        "inner_dim": inner.dim,
        "basis": basis,
    }, 0


def _cmd_biderivations(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    if args.mode == "all":
        space = biderivation_space(alg)
    else:
        space = constrained_biderivation_space(alg, args.mode)
    basis = [[matrix_strs(m) for m in b.mats] for b in space.basis_elements()]
    return {"dim": space.dim, "mode": args.mode, "basis": basis}, 0


def _cmd_check_bider(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    violation = biderivation_violation(alg, args.candidate)
    if violation is None:
        return {"ok": True, "violation": None}, 0
    return {"ok": False, "violation": _bider_violation_fields(violation)}, 1


def _cmd_phi_psi(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    try:
        pair = extract_phi_psi(alg, args.candidate)
    except NotComplete as exc:
        return {"error": str(exc)}, 1
    except NotBiderivation as exc:
        return {
            "error": "candidate is not a biderivation",
            "violation": _bider_violation_fields(exc.violation),
        }, 1
    return {
        "phi": matrix_strs(pair.phi),
        "psi": matrix_strs(pair.psi),
        "classification": classify_symmetry(args.candidate),
    }, 0


def _cmd_vdecomp(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    report = verify_direct_sum(alg)
    results = {
        "m_convention": "M = transpose of phi-matrix",
        "v_dim": report.v_dim,
        "vplus_dim": report.vplus_dim,
        "vminus_dim": report.vminus_dim,
        "intersection_dim": report.intersection_dim,
        "direct_sum": report.is_direct_sum,
        "complete": report.complete,
        "correspondence": None,
    }
    code = 0 if report.is_direct_sum else 1
    corr = report.correspondence
    if corr is not None:
        # V+ and V- are reported once, at the top level
        fields = corr._asdict()
        del fields["vplus_dim"], fields["vminus_dim"]
        results["correspondence"] = fields
        if not corr.ok:
            code = 1
    return results, code


def _cmd_bracket_closure(alg: LieAlgebra, args: argparse.Namespace) -> tuple[dict, int]:
    report = bider_bracket_closure(alg)
    if report.closed:
        brackets: list[dict] = []
        for (a, b, k), c in sorted(report.constants.items()):
            if not brackets or (brackets[-1]["left"], brackets[-1]["right"]) != (a, b):
                brackets.append({"left": a, "right": b, "result": []})
            brackets[-1]["result"].append({"coeff": str(c), "index": k})
        return {
            "closed": True,
            "bider_dim": report.bider_dim,
            "induced_brackets": brackets,
            "witness_pair": None,
        }, 0
    a, b, _comm = report.witness
    return {
        "closed": False,
        "bider_dim": report.bider_dim,
        "induced_brackets": None,
        "witness_pair": [a, b],
    }, 1


def _cmd_catalog(name: Optional[str], seed: int, json_mode: bool) -> tuple[str, int]:
    if name is None:
        if json_mode:
            report = _report(
                "catalog", {}, {"names": list(CATALOG_NAMES)}
            )
            return emit_report(report, "json"), 0
        lines = [f"{entry}" for entry in CATALOG_NAMES]
        return "\n".join(lines) + "\n", 0
    try:
        alg = catalog(name, seed=seed)
    except UnknownName as exc:
        raise _InputError(str(exc)) from None
    return serialize_document(algebra_to_document(alg, name)), 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

# name: (help text, handler, whether a candidate file follows).  Handlers run
# only on tables that passed the Jacobi gate, so `validate` has nothing left.
_COMMANDS = {
    "validate": (
        "check the Jacobi identity of an algebra file",
        lambda alg, args: ({"valid": True, "violation": None}, 0),
        False,
    ),
    "info": ("dimensions, series, Killing rank, completeness", _cmd_info, False),
    "derivations": (
        "derivation and inner-derivation spaces", _cmd_derivations, False
    ),
    "biderivations": ("the space of biderivations", _cmd_biderivations, False),
    "check-bider": ("verify a candidate biderivation", _cmd_check_bider, True),
    "phi-psi": ("factor a biderivation through phi and psi", _cmd_phi_psi, True),
    "vdecomp": (
        "V = V+ (+) V- decomposition and correspondence", _cmd_vdecomp, False
    ),
    "bracket-closure": (
        "closure of biderivations under the matrix bracket",
        _cmd_bracket_closure,
        False,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liebider",
        description=(
            "Exact derivation and biderivation computations for Lie "
            "algebras given by rational structure constants."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for parameterized catalog entries"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (help_text, handler, reads_candidate) in _COMMANDS.items():
        p = sub.add_parser(cmd, parents=[common], help=help_text)
        p.add_argument("file", help="AlgebraDocument JSON file")
        if reads_candidate:
            p.add_argument("bfile", help="BiderivationDocument JSON file")
        if handler is _cmd_biderivations:
            group = p.add_mutually_exclusive_group()
            for mode in ("symmetric", "skew"):
                group.add_argument(
                    f"--{mode}", dest="mode", action="store_const", const=mode,
                    default="all", help=f"restrict to {mode} biderivations",
                )
    p = sub.add_parser(
        "catalog", parents=[common], help="list catalog names or emit one entry"
    )
    p.add_argument("name", nargs="?", help="catalog entry to emit")
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Run one CLI invocation; prints the report and returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    mode = "json" if args.json else "text"
    try:
        if args.command == "catalog":
            output, code = _cmd_catalog(args.name, args.seed, args.json)
            sys.stdout.write(output)
            return code
        _help, handler, reads_candidate = _COMMANDS[args.command]
        # Parsed without the Jacobi check: this is the one gate for every command.
        alg, name = load_algebra_document(_read_file(args.file))
        # only a JSON report prints the inputs
        inputs = {"algebra": algebra_to_document(alg, name)} if args.json else {}
        violation = validate(alg)
        if violation is not None:
            results = {"valid": False, "violation": _violation_fields(violation)}
            code = 1
        else:
            if reads_candidate:
                args.candidate = parse_biderivation(_read_file(args.bfile), alg)
                if args.json:
                    inputs["biderivation"] = biderivation_to_document(args.candidate)
            results, code = handler(alg, args)
        sys.stdout.write(emit_report(_report(args.command, inputs, results), mode))
        return code
    except (_InputError, ParseError, DimMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
