"""JSON document formats for algebras, biderivation candidates, and reports.

Three document kinds exist: AlgebraDocument (a named structure-constant
table), BiderivationDocument (a candidate matrix tuple), and ReportDocument
(command output).  All rational values travel as strings in lowest terms
("p" or "p/q" with positive q); nothing is ever a float.  Serialization is
canonical: sorted keys, two-space indent, trailing newline, so identical
inputs yield byte-identical documents.  `serialize_document` is the one
serializer; it writes that text itself, the same bytes as `json.dumps` with
``indent=2, sort_keys=True``.  `rational_str` prints every rational value,
or raises TooManyDigits past the interpreter's digit limit (CLI exit 2).
`load_algebra_document` checks the shape of a table but not the Jacobi
identity (a coefficient, or a sum of coefficients of one index, must also
print); `parse_algebra` alone raises JacobiError, and the CLI reports a
broken table through `validate`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Iterable

from .biderivations import Biderivation
from .liealg import InvalidStructure, JacobiViolation, LieAlgebra, lie_algebra, validate
from .linalg import Matrix, Vector


class ParseError(ValueError):
    """Malformed document; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class DocumentIndexError(ParseError):
    """Bad basis index in a document: out of range, left >= right, or a
    duplicate (left, right) pair.  (Named to avoid clashing with the
    built-in IndexError.)"""


class JacobiError(ValueError):
    """Parsed table is not a Lie algebra; carries the failing triple."""

    def __init__(self, violation: JacobiViolation) -> None:
        super().__init__(
            f"Jacobi identity fails on basis triple "
            f"({violation.i}, {violation.j}, {violation.k})"
        )
        self.violation = violation


class DimMismatch(ValueError):
    """Biderivation document shape is inconsistent with the algebra."""


class TooManyDigits(ValueError):
    """A value too long for the interpreter's int/str conversion to print."""


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: Any, path: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(path, f"not a rational string: {text!r}")
    try:
        parts = [int(part) for part in text.split("/")]
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(
            path, f"rational string of {len(text)} characters is too long"
        ) from None
    if len(parts) == 2:
        if parts[1] == 0:
            raise ParseError(path, "zero denominator")
        return Fraction(parts[0], parts[1])
    return Fraction(parts[0])


def rational_str(value: Fraction) -> str:
    """Lowest-terms "p" or "p/q" with q > 0; TooManyDigits if too long to print."""
    try:
        return str(value) if value else "0"
    except ValueError:  # past sys.get_int_max_str_digits()
        raise TooManyDigits("a value has more digits than the interpreter prints") from None


def vector_strs(vec: Vector) -> list[str]:
    return [rational_str(v) for v in vec]


def matrix_strs(mat: Matrix) -> list[list[str]]:
    return [[rational_str(v) for v in row] for row in mat.data]


def biderivation_strs(cand: Biderivation) -> list[list[list[str]]]:
    """(B_1, ..., B_n) as strings, read off the row: "0" where it holds nothing."""
    n, nn = cand.dim, cand.dim * cand.dim
    flat = ["0"] * n * nn
    for p, v in cand.row:
        flat[p] = rational_str(Fraction(v, cand.den))
    return [[flat[r : r + n] for r in range(k, k + nn, n)] for k in range(0, n * nn, nn)]


_quote = json.encoder.encode_basestring_ascii


def serialize_document(doc: dict) -> str:
    """The canonical text of ``doc``, byte for byte
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, written without
    `json`'s pure-Python indenting encoder.  Values are dicts with string
    keys, lists, tuples, strings, ints, bools and None; any other type
    (a float, a Fraction) raises TypeError."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON of ``value``; ``newline`` breaks a line to the
    indent of the line that ``value`` starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        if not value:
            out.append("[]")
            return
        try:  # a list of strings: every rational vector and matrix row
            out.append("[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        inner = newline + "  "
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key in sorted(value):  # `_quote` raises TypeError on a key not a str
            out.append(sep + _quote(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# AlgebraDocument


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ParseError(path, message)


def load_algebra_document(text: str) -> tuple[LieAlgebra, str]:
    """Parse an AlgebraDocument; returns the algebra and its name.  The
    Jacobi identity is left to `validate` and `parse_algebra`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge number, deep nesting
        raise ParseError("$", f"invalid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "$", "document must be an object")
    name = doc.get("name", "")
    _expect(isinstance(name, str), "name", "must be a string")
    dim = doc.get("dim")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
            "dim", "must be a nonnegative integer")
    basis = doc["basis"] if "basis" in doc else [f"e{t + 1}" for t in range(dim)]
    _expect(
        isinstance(basis, list) and all(isinstance(b, str) for b in basis),
        "basis", "must be a list of strings",
    )
    _expect(len(basis) == dim, "basis", f"expected {dim} names, got {len(basis)}")
    brackets = doc.get("brackets", [])
    _expect(isinstance(brackets, list), "brackets", "must be a list")
    constants: dict[tuple[int, int, int], Fraction] = {}
    seen_pairs: set[tuple[int, int]] = set()
    for pos, entry in enumerate(brackets):
        path = f"brackets[{pos}]"
        _expect(isinstance(entry, dict), path, "must be an object")
        left = entry.get("left")
        right = entry.get("right")
        for field, value in (("left", left), ("right", right)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"{path}.{field}", "must be an integer index")
        if not (0 <= left < dim and 0 <= right < dim):
            raise DocumentIndexError(path, f"index out of range for dim {dim}")
        if left >= right:
            raise DocumentIndexError(
                path, f"left must be < right, got ({left}, {right})"
            )
        if (left, right) in seen_pairs:
            raise DocumentIndexError(path, f"duplicate pair ({left}, {right})")
        seen_pairs.add((left, right))
        result = entry.get("result", [])
        _expect(isinstance(result, list), f"{path}.result", "must be a list")
        for rpos, term in enumerate(result):
            tpath = f"{path}.result[{rpos}]"
            _expect(isinstance(term, dict), tpath, "must be an object")
            index = term.get("index")
            if not isinstance(index, int) or isinstance(index, bool):
                raise ParseError(f"{tpath}.index", "must be an integer index")
            if not 0 <= index < dim:
                raise DocumentIndexError(
                    f"{tpath}.index", f"index {index} out of range for dim {dim}"
                )
            coeff = parse_rational(term.get("coeff"), f"{tpath}.coeff")
            key = (left, right, index)
            if key in constants:  # a repeated index: the sum must print too
                coeff += constants[key]
                try:
                    rational_str(coeff)
                except TooManyDigits as exc:
                    raise ParseError(
                        f"{tpath}.coeff", f"sum with an earlier term: {exc}"
                    ) from None
            constants[key] = coeff
    factors = doc.get("factors")
    if factors is not None:
        _expect(
            isinstance(factors, list)
            and all(isinstance(f, int) and not isinstance(f, bool) for f in factors),
            "factors", "must be a list of integers",
        )
    try:
        alg = lie_algebra(dim, constants, basis, factors)
    except InvalidStructure as exc:
        raise ParseError("$", str(exc)) from None
    return alg, name


def parse_algebra(text: str) -> LieAlgebra:
    """Parse an AlgebraDocument; JacobiError unless the Jacobi identity holds."""
    alg = load_algebra_document(text)[0]
    violation = validate(alg)
    if violation is not None:
        raise JacobiError(violation)
    return alg


def _bracket_entries(constants: Iterable) -> list[dict]:
    """The ``brackets`` list of a document from sorted ((i, j, k), c) entries."""
    brackets: list[dict] = []
    for (i, j, k), c in constants:
        if not brackets or (brackets[-1]["left"], brackets[-1]["right"]) != (i, j):
            brackets.append({"left": i, "right": j, "result": []})
        brackets[-1]["result"].append({"coeff": rational_str(c), "index": k})
    return brackets


def algebra_to_document(alg: LieAlgebra, name: str = "") -> dict:
    """Canonical AlgebraDocument of an algebra (sorted bracket entries)."""
    doc: dict = {
        "basis": list(alg.basis_names),
        "brackets": _bracket_entries(alg.constants),
        "dim": alg.dim,
        "name": name,
    }
    if alg.factors is not None:
        doc["factors"] = list(alg.factors)
    return doc


# ---------------------------------------------------------------------------
# BiderivationDocument


def parse_biderivation(text: str, alg: LieAlgebra) -> Biderivation:
    """Parse a BiderivationDocument as an unverified candidate for ``alg``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, huge number, deep nesting
        raise ParseError("$", f"invalid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "$", "document must be an object")
    dim = doc.get("dim")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
            "dim", "must be a nonnegative integer")
    mats = doc.get("mats")
    _expect(isinstance(mats, list), "mats", "must be a list of matrices")
    if dim != alg.dim:
        raise DimMismatch(f"document dim {dim} does not match algebra dim {alg.dim}")
    if len(mats) != alg.dim:
        raise DimMismatch(f"{len(mats)} matrices for a dim-{alg.dim} algebra")
    flat = []
    for k, mat in enumerate(mats):
        path = f"mats[{k}]"
        _expect(isinstance(mat, list), path, "must be a list of rows")
        if len(mat) != dim:
            raise DimMismatch(f"{path} has {len(mat)} rows, expected {dim}")
        for r, row in enumerate(mat):
            _expect(isinstance(row, list), f"{path}[{r}]", "must be a list")
            if len(row) != dim:
                raise DimMismatch(f"{path}[{r}] has {len(row)} entries, expected {dim}")
            flat.extend(parse_rational(v, f"{path}[{r}][{c}]") for c, v in enumerate(row))
    return Biderivation.from_flat(flat, dim)


def biderivation_to_document(cand: Biderivation) -> dict:
    return {"dim": cand.dim, "mats": biderivation_strs(cand)}
