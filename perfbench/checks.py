"""Independent checks of every operation's answer.

Each check reads the program's report (text or ``--json``), the input
documents, and the facts the generator recorded, and recomputes what the
answer must be with the benchmark's own arithmetic in ``algebra.py``:
exact identity scans, canonical-form and independence tests, modular rank
upper bounds, and theorem values.  No check compares with a stored copy of
an earlier output.

``Checker.check(op, result, dependency)`` returns ``(verdict, reason)``
where verdict is ``"ok"``, ``"error"`` (no answer: an exception escaped)
or ``"wrong"`` (an answer that the check rejects).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import algebra as A

_INT_RE = re.compile(r"^-?\d+$")
_LIST_ITEM_RE = re.compile(r"^\[\d+\]:$")
_ELEMENT_RE = re.compile(r"^element \d+:$")


class Mismatch(Exception):
    """An answer that disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Reading reports


def _scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "none":
        return None
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [t.strip() for t in inner.split(",")] if inner else []
    if _INT_RE.match(text):
        return int(text)
    return text


def _is_row(content: str) -> bool:
    return content.startswith("[") and not content.endswith(":")


def parse_text_report(text: str) -> tuple[str, dict]:
    """Inverse of the program's aligned text rendering."""
    lines = text.rstrip("\n").split("\n")
    expect(lines[0].startswith("command: "), "text report has no command line")
    command = lines[0][len("command: "):]
    items = [(len(line) - len(line.lstrip(" ")), line.strip()) for line in lines[1:]]
    pos = 0

    def children(level: int):
        nonlocal pos
        if pos >= len(items) or items[pos][0] <= level:
            return {}
        child = items[pos][0]
        content = items[pos][1]
        if _is_row(content):
            rows = []
            while pos < len(items) and items[pos][0] == child and _is_row(items[pos][1]):
                rows.append(items[pos][1][1:-1].split())
                pos += 1
            return rows
        if _LIST_ITEM_RE.match(content) or _ELEMENT_RE.match(content):
            out = []
            while pos < len(items) and items[pos][0] == child:
                element = _ELEMENT_RE.match(items[pos][1])
                pos += 1
                value = children(child)
                out.append(list(value.values()) if element else value)
            return out
        return block(child)

    def block(level: int) -> dict:
        nonlocal pos
        out = {}
        while pos < len(items) and items[pos][0] == level:
            content = items[pos][1]
            if content.endswith(":") and ": " not in content:
                pos += 1
                out[content[:-1]] = children(level)
            else:
                key, _, value = content.partition(": ")
                out[key] = _scalar(value)
                pos += 1
        return out

    results = block(0)
    expect(pos == len(items), "unparsed lines in text report")
    return command, results


def parse_report(text: str, json_mode: bool) -> tuple[str, dict]:
    if json_mode:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise Mismatch(f"report is not JSON: {exc}") from None
        expect(set(doc) == {"command", "inputs", "results", "version"}, "report keys")
        return doc["command"], doc["results"]
    return parse_text_report(text)


def fracs(values) -> list[Fraction]:
    return [Fraction(str(v)) for v in values]


def matrix(rows) -> list[list[Fraction]]:
    return [fracs(row) for row in rows]


def ints(values) -> list[int]:
    return [int(v) for v in values]


# ---------------------------------------------------------------------------
# Shared facts


def rref_pivots(vectors: list[list[Fraction]]) -> list[int]:
    """Pivot columns of a basis in reduced row-echelon form.

    A basis in this form is linearly independent; raises Mismatch if the
    vectors are not in reduced row-echelon form.
    """
    pivots = []
    for vec in vectors:
        lead = next((c for c, v in enumerate(vec) if v), None)
        expect(lead is not None, "zero vector in a basis")
        expect(vec[lead] == 1, "pivot entry is not 1")
        expect(not pivots or lead > pivots[-1], "pivots do not increase")
        pivots.append(lead)
    for c in pivots:
        expect(sum(1 for vec in vectors if vec[c]) == 1, "pivot column not reduced")
    return pivots


def bider_flat(mats) -> list[Fraction]:
    """k-outermost flattening: b_ij^k at k*n^2 + i*n + j."""
    return [v for mat in mats for row in mat for v in row]


class Checker:
    def __init__(self):
        self._algs: dict[str, A.Alg] = {}
        self._biders: dict[str, list] = {}
        self._facts: dict[tuple, object] = {}

    def alg(self, path: str) -> A.Alg:
        if path not in self._algs:
            with open(path, encoding="utf-8") as handle:
                self._algs[path] = A.from_document(json.load(handle))
        return self._algs[path]

    def bider(self, path: str) -> list:
        if path not in self._biders:
            with open(path, encoding="utf-8") as handle:
                self._biders[path] = [matrix(m) for m in json.load(handle)["mats"]]
        return self._biders[path]

    def fact(self, name: str, path: str, compute):
        key = (name, path)
        if key not in self._facts:
            self._facts[key] = compute(self.alg(path))
        return self._facts[key]

    # -----------------------------------------------------------------------

    def check(self, op: dict, result: dict, dependency=None) -> tuple[str, str]:
        spec = op["check"]
        if result.get("exc"):
            return "error", f"exception escaped: {result['exc']}"
        try:
            getattr(self, "_" + spec["kind"].replace("-", "_"))(op, spec, result, dependency)
        except Mismatch as exc:
            return "wrong", str(exc)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return "wrong", f"malformed answer: {type(exc).__name__}: {exc}"
        return "ok", ""

    @staticmethod
    def _report(op, result, command):
        got, results = parse_report(result["out"], "--json" in op.get("argv", ()))
        expect(got == command, f"command {got!r}")
        return results

    # -- validate -------------------------------------------------------------

    def _validate(self, op, spec, result, _dep):
        own = A.jacobi_first_violation(self.alg(spec["doc"]))
        res = self._report(op, result, "validate")
        if own is None:
            expect(result["code"] == 0, f"exit {result['code']} on a Lie algebra")
            expect(res["valid"] is True and res["violation"] is None, "valid table reported invalid")
            return
        expect(result["code"] == 1, f"exit {result['code']} on a Jacobi-broken table")
        expect(res["valid"] is False, "broken table reported valid")
        triple, residual = own
        expect(tuple(ints(res["violation"]["triple"])) == triple,
               f"first violation {res['violation']['triple']}, expected {list(triple)}")
        expect(fracs(res["violation"]["residual"]) == residual, "Jacobi residual differs")

    # -- info -----------------------------------------------------------------

    def _info(self, op, spec, result, _dep):
        alg = self.alg(spec["doc"])
        n = alg.n
        expect(result["code"] == 0, f"exit {result['code']}")
        res = self._report(op, result, "info")
        center = self.fact("center", spec["doc"], A.center_dim_mod_p)
        der = self.fact("der", spec["doc"], A.derivation_dim_mod_p)
        series = self.fact("series", spec["doc"], A.lower_central_dims_mod_p)
        killing = self.fact("killing", spec["doc"], A.killing_rank_mod_p)
        nilpotent = series[-1] == 0
        expected = {
            "dim": n,
            "basis": list(alg.names),
            "center_dim": center,
            "lower_central_dims": series,
            "nilpotent": nilpotent,
            "nilpotency_class": len(series) if nilpotent else "not nilpotent",
            "killing_rank": killing,
            "semisimple": killing == n,
            "derivation_dim": der,
            "inner_dim": n - center,
            "complete": center == 0 and der == n - center,
        }
        if alg.factors:
            expected["factors"] = list(alg.factors)
        got = dict(res)
        expect(set(got) == set(expected), f"info keys {sorted(got)}")
        got["lower_central_dims"] = ints(got["lower_central_dims"])
        if "factors" in got:
            got["factors"] = ints(got["factors"])
        for key, value in expected.items():
            expect(got[key] == value, f"{key} = {got[key]!r}, expected {value!r}")

    def _input_error(self, op, spec, result, _dep):
        expect(result["code"] == 2, f"exit {result['code']} on a malformed document, expected 2")

    # -- derivations ----------------------------------------------------------

    def _derivations(self, op, spec, result, _dep):
        alg = self.alg(spec["doc"])
        n = alg.n
        expect(result["code"] == 0, f"exit {result['code']}")
        res = self._report(op, result, "derivations")
        basis = [matrix(m) for m in res["basis"]]
        expect(res["derivation_dim"] == len(basis), "derivation_dim differs from basis size")
        dim = spec["dim"]
        if dim is None:
            dim = self.fact("der", spec["doc"], A.derivation_dim_mod_p)
        inner = spec["inner"]
        if inner is None:
            inner = n - self.fact("center", spec["doc"], A.center_dim_mod_p)
        expect(len(basis) == dim, f"dim Der = {len(basis)}, expected {dim}")
        expect(res["inner_dim"] == inner, f"inner_dim = {res['inner_dim']}, expected {inner}")
        for idx, d in enumerate(basis):
            expect(A.is_derivation(alg, d), f"basis element {idx} is not a derivation")
        rref_pivots([[v for row in d for v in row] for d in basis])

    # -- biderivations --------------------------------------------------------

    def _biderivations(self, op, spec, result, _dep):
        alg = self.alg(spec["doc"])
        expect(result["code"] == 0, f"exit {result['code']}")
        res = self._report(op, result, "biderivations")
        mode = spec["mode"]
        expect(res["mode"] == mode, f"mode {res['mode']!r}")
        basis = [[matrix(m) for m in element] for element in res["basis"]]
        expect(res["dim"] == len(basis), "dim differs from basis size")
        dim = spec["dim"]
        if dim is None:
            dim = self.fact(f"bider-{mode}", spec["doc"],
                            lambda a: A.bider_kernel_dim_mod_p(a, mode))
        expect(len(basis) == dim, f"dim = {len(basis)}, expected {dim}")
        for idx, mats in enumerate(basis):
            expect(len(mats) == alg.n, f"element {idx} has {len(mats)} matrices")
            expect(A.bider_first_violation(alg, mats) is None,
                   f"basis element {idx} is not a biderivation")
            for m in mats:
                if mode == "symmetric":
                    expect(all(m[i][j] == m[j][i] for i in range(alg.n) for j in range(alg.n)),
                           f"element {idx} is not symmetric")
                elif mode == "skew":
                    expect(all(m[i][j] == -m[j][i] for i in range(alg.n) for j in range(alg.n)),
                           f"element {idx} is not skew")
        rref_pivots([bider_flat(mats) for mats in basis])

    # -- check-bider and the two-step library call ----------------------------

    def _check_bider(self, op, spec, result, _dep):
        own = A.bider_first_violation(self.alg(spec["doc"]), self.bider(spec["bider"]))
        res = self._report(op, result, "check-bider")
        if spec["expect"] == "ok":
            expect(own is None, "generated candidate is not a biderivation")
            expect(result["code"] == 0, f"exit {result['code']} on a biderivation")
            expect(res["ok"] is True and res["violation"] is None, "biderivation rejected")
            return
        expect(own is not None, "generated failing candidate is a biderivation")
        expect(result["code"] == 1, f"exit {result['code']} on a failing candidate")
        expect(res["ok"] is False, "failing candidate accepted")
        condition, triple, residual = own
        v = res["violation"]
        got = (int(v["condition"]), tuple(ints(v["triple"])))
        expect(got == (condition, triple),
               f"first violation {got}, expected {(condition, triple)}")
        expect(fracs(v["residual"]) == residual, "violation residual differs")

    def _two_step(self, op, spec, result, _dep):
        alg = self.alg(spec["doc"])
        expect(result["code"] == 0, "library call did not return")
        report = json.loads(result["out"])
        d = self.fact("derived", spec["doc"], A.derived_dim)
        expect(report["passed"] is True, "two-step properties failed on a biderivation")
        expect(report["failures"] == [], "failures reported")
        expect(report["checks"] == 2 * alg.n * d + d * d,
               f"checks = {report['checks']}, expected {2 * alg.n * d + d * d}")

    # -- bracket-closure --------------------------------------------------------

    def _bracket_closure(self, op, spec, result, dependency):
        alg = self.alg(spec["doc"])
        n = alg.n
        res = self._report(op, result, "bracket-closure")
        expect(dependency is not None and dependency.get("out") is not None,
               "the biderivation basis operation gave no answer")
        _, bres = parse_report(dependency["out"], True)
        basis = [bider_flat([matrix(m) for m in element]) for element in bres["basis"]]
        pivots = rref_pivots(basis)
        expect(res["bider_dim"] == len(basis), "bider_dim differs from the basis")
        sparse = [
            [{(i, j): m[k * n * n + i * n + j] for i in range(n) for j in range(n)
              if m[k * n * n + i * n + j]} for k in range(n)]
            for m in basis
        ]

        def commutator(a: int, b: int) -> dict:
            out: dict[int, Fraction] = {}
            for k in range(n):
                left, right = sparse[a][k], sparse[b][k]
                for (i, s), x in left.items():
                    for (s2, j), y in right.items():
                        if s == s2:
                            key = k * n * n + i * n + j
                            out[key] = out.get(key, 0) + x * y
                for (i, s), x in right.items():
                    for (s2, j), y in left.items():
                        if s == s2:
                            key = k * n * n + i * n + j
                            out[key] = out.get(key, 0) - x * y
            return {c: v for c, v in out.items() if v}

        def coordinates(vec: dict):
            """Coordinates in the RREF basis, or None outside its span."""
            coeffs = [vec.get(p, Fraction(0)) for p in pivots]
            rest = dict(vec)
            for c, coeff in enumerate(coeffs):
                if coeff:
                    for col, v in enumerate(basis[c]):
                        if v:
                            w = rest.get(col, 0) - coeff * v
                            if w:
                                rest[col] = w
                            else:
                                rest.pop(col, None)
            return None if rest else coeffs

        pairs = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
        if res["closed"] is True:
            expect(result["code"] == 0, f"exit {result['code']} on a closed space")
            expect(res["witness_pair"] is None, "closed space with a witness")
            table: dict[tuple[int, int], dict[int, Fraction]] = {}
            for entry in res["induced_brackets"]:
                terms = table.setdefault((int(entry["left"]), int(entry["right"])), {})
                for term in entry["result"]:
                    terms[int(term["index"])] = Fraction(str(term["coeff"]))
            for a, b in pairs:
                coeffs = coordinates(commutator(a, b))
                expect(coeffs is not None, f"pair ({a}, {b}) leaves the space")
                got = table.pop((a, b), {})
                want = {c: v for c, v in enumerate(coeffs) if v}
                expect(got == want, f"induced constant of pair ({a}, {b}) differs")
            expect(not table, "induced constants on pairs that do not exist")
            return
        expect(result["code"] == 1, f"exit {result['code']} on a non-closed space")
        expect(res["induced_brackets"] is None, "constants reported for a non-closed space")
        witness = tuple(ints(res["witness_pair"]))
        for a, b in pairs:
            inside = coordinates(commutator(a, b)) is not None
            if (a, b) == witness:
                expect(not inside, f"witness pair {witness} stays in the space")
                return
            expect(inside, f"pair ({a}, {b}) leaves the space before the witness {witness}")
        raise Mismatch(f"witness pair {witness} is not a basis pair")

    # -- vdecomp and phi-psi (complete inputs) --------------------------------

    def _vdecomp(self, op, spec, result, _dep):
        alg = self.alg(spec["doc"])
        expect(result["code"] == 0, f"exit {result['code']} on a complete algebra")
        res = self._report(op, result, "vdecomp")
        factors = spec["factors"]
        if spec["semisimple"]:
            # Scalar biderivations on semisimple algebras: BiDer and V have
            # one dimension per simple factor, V+ = 0 and V- = V.
            bider = v = vminus = factors
            vplus = 0
        else:
            v, vplus, vminus = self.fact("v", spec["doc"], A.v_dims_mod_p)
            bider = self.fact("bider-all", spec["doc"], A.bider_kernel_dim_mod_p)
            # On a complete algebra dim V = dim BiDer and V = V+ (+) V-.
            expect(v == bider and vplus + vminus == v, "benchmark's own V dimensions disagree")
        expected = {"v_dim": v, "vplus_dim": vplus, "vminus_dim": vminus,
                    "intersection_dim": 0, "direct_sum": True, "complete": True}
        for key, value in expected.items():
            expect(res[key] == value, f"{key} = {res[key]!r}, expected {value!r}")
        corr = res["correspondence"]
        expected_corr = {
            "bider_dim": bider, "v_dim": v, "dims_equal": True,
            "transposed_phis_in_v": True, "semisimple": spec["semisimple"],
            "factor_count": factors,
            "semisimple_shape_ok": True if spec["semisimple"] else None, "ok": True,
        }
        expect(set(corr) == set(expected_corr), f"correspondence keys {sorted(corr)}")
        for key, value in expected_corr.items():
            expect(corr[key] == value, f"correspondence {key} = {corr[key]!r}, expected {value!r}")

    def _phi_psi(self, op, spec, result, _dep):
        alg = self.alg(spec["doc"])
        n = alg.n
        mats = self.bider(spec["bider"])
        expect(result["code"] == 0, f"exit {result['code']} on an inner biderivation")
        res = self._report(op, result, "phi-psi")
        phi, psi = matrix(res["phi"]), matrix(res["psi"])
        scalars = fracs(spec["scalars"])
        blocks = alg.blocks()
        diagonal = [[scalars[blocks[i]] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)]
        expect(phi == diagonal and psi == diagonal,
               "phi = psi is not the blockwise scalar of the inner biderivation")
        expect(res["classification"] == "skew", f"classification {res['classification']!r}")
        values = A.bider_values(mats)
        for i in range(n):
            phi_i = {a: phi[a][i] for a in range(n) if phi[a][i]}
            for j in range(n):
                psi_j = {a: psi[a][j] for a in range(n) if psi[a][j]}
                expect(A.bracket(alg, phi_i, A.unit(j)) == values[i][j]
                       and A.bracket(alg, A.unit(i), psi_j) == values[i][j],
                       f"B(e_{i}, e_{j}) does not factor")
