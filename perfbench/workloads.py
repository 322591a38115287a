"""Seeded inputs and the fixed operation sequence of each workload.

``build(workload, seed, workdir, catalog_doc)`` writes every input document
into ``workdir`` and returns the manifest: the catalog calls a workload
process makes at set-up, and the ordered operations of one round.  An
operation is a ``liebider`` command line (run in-process) or, for
``two_step_properties``, a library call.  Each operation carries the facts
its answer is checked against; the checks themselves live in ``checks.py``.

``catalog_doc(name, seed)`` returns the program's own catalog document for
a name, so the generator reads the catalog only through its JSON.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import algebra as A

WORKLOADS = ("solve", "verify", "query")

# Catalog entries each workload process builds at set-up (timed as setup_s).
CATALOG_CALLS = {
    "solve": ["sl3", "sl2_plus_sl2"],
    "verify": ["twostep(6,1)", "twostep(6,2)", "twostep(7,2)", "abelian(4)"],
    "query": ["sl2", "so3", "L22", "heisenberg3", "sl2_plus_sl2", "sl3"],
}

# Untraced rounds a run makes at least, however soon --seconds is reached.
# A solve round takes about 9 s, and its op_p50_ms and op_p90_ms each rest
# on two operations that run back to back, so solve needs more rounds than
# the others to give each of them a steady median.
LEAST_ROUNDS = {"solve": 5, "verify": 3, "query": 3}

# A coefficient longer than Python's default 4,300-digit int/str limit.
HUGE_DIGITS = 4400


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, doc: dict, stem: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:04d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
        return path


def _rng(workload: str, seed: int, label: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


def _signed_columns(p, rng: random.Random):
    signs = [rng.choice((-1, 1)) for _ in range(len(p))]
    return [[v * s for v, s in zip(row, signs)] for row in p]


def _ones_upper(n: int):
    return [[Fraction(int(a <= b)) for b in range(n)] for a in range(n)]


def _ones_lu(n: int):
    """(all-ones lower unitriangular) x (all-ones upper unitriangular)."""
    return [[Fraction(min(a, b) + 1) for b in range(n)] for a in range(n)]


def _cli(argv, check) -> dict:
    return {"argv": argv, "check": check}


# ---------------------------------------------------------------------------
# solve: semisimple and complete inputs whose kernels are tiny


def _solve(seed, w: _Writer, catalog_doc) -> list[dict]:
    sl3 = A.from_document(catalog_doc("sl3", 0))
    sl22 = A.from_document(catalog_doc("sl2_plus_sl2", 0))
    rng = _rng("solve", seed, "basis")
    # The dense pattern is fixed and the seed flips column signs, so every
    # seed eliminates numbers of the same size: constants only change sign.
    inputs = [
        ("sl3", sl3, 1),
        ("sl2_plus_sl2", sl22, 2),
        ("sl4", A.sl(4), 1),
        ("sl3_dense", A.change_basis(sl3, _signed_columns(_ones_upper(8), rng)), 1),
        ("sl2_plus_sl2_dense", A.change_basis(sl22, _signed_columns(_ones_lu(6), rng)), 2),
    ]
    ops = []
    for stem, alg, factors in inputs:
        path = w.write(A.to_document(alg, stem), stem)
        # Semisimple theory: BiDer is spanned by the blockwise scalars
        # lambda_b [x, y] (skew), and every derivation is inner.
        for mode, flag, dim in (("all", [], factors), ("symmetric", ["--symmetric"], 0),
                                ("skew", ["--skew"], factors)):
            ops.append(_cli(["biderivations", path, "--json", *flag],
                            {"kind": "biderivations", "doc": path, "mode": mode, "dim": dim}))
        ops.append(_cli(["derivations", path],
                        {"kind": "derivations", "doc": path, "dim": alg.n, "inner": alg.n}))
    return ops


# ---------------------------------------------------------------------------
# verify: nilpotent inputs whose kernels are large


def _central_candidate(alg: A.Alg, rng: random.Random, generators: int):
    """Random bilinear map L/L' x L/L' -> span(z).

    With L' = [L, L] inside the central block, B([x,y],z) and both bracket
    terms of each defining condition vanish, so B is a biderivation.
    """
    n = alg.n
    mats = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(generators, n):
        for i in range(generators):
            for j in range(generators):
                mats[k][i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return mats


def _verify(seed, w: _Writer, catalog_doc) -> list[dict]:
    rng = _rng("verify", seed, "candidates")
    ops = []
    lib_ops = []
    closure_ops = []  # (operation, the biderivations operation it reads)
    for name, central in (("twostep(6,1)", 1), ("twostep(6,2)", 2), ("twostep(7,2)", 2)):
        doc = catalog_doc(name, seed)
        alg = A.from_document(doc)
        path = w.write(doc, name.replace(",", "_").strip(")").replace("(", ""))
        bider = _cli(["biderivations", path, "--json"],
                     {"kind": "biderivations", "doc": path, "mode": "all", "dim": None})
        ops.append(bider)
        for _ in range(5):
            cand = _central_candidate(alg, rng, alg.n - central)
            cpath = w.write(A.bider_document(cand), "central-bider")
            ops.append(_cli(["check-bider", path, cpath],
                            {"kind": "check-bider", "doc": path, "bider": cpath, "expect": "ok"}))
            lib_ops.append({"lib": "two_step_properties", "doc": path, "bider": cpath,
                            "check": {"kind": "two-step", "doc": path, "bider": cpath}})
        if name == "twostep(6,2)":
            closure_ops.append((_cli(["bracket-closure", path],
                                     {"kind": "bracket-closure", "doc": path}), bider))
    n = 4
    doc = catalog_doc(f"abelian({n})", seed)
    path = w.write(doc, "abelian4")
    bider = _cli(["biderivations", path, "--json"],
                 {"kind": "biderivations", "doc": path, "mode": "all", "dim": n ** 3})
    ops.append(bider)
    closure_ops.insert(0, (_cli(["bracket-closure", path, "--json"],
                                {"kind": "bracket-closure", "doc": path}), bider))
    # Every bilinear map of an abelian algebra is a biderivation.  These
    # checks cost the same for every seed and are more than half of the
    # operations, so op_p50_ms does not jump between kinds of operation.
    checks = []
    for _ in range(50):
        cand = [[[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)] for _ in range(n)]
        cpath = w.write(A.bider_document(cand), "abelian-bider")
        checks.append(_cli(["check-bider", path, cpath],
                           {"kind": "check-bider", "doc": path, "bider": cpath, "expect": "ok"}))
    # The checks are spread evenly over the round: run back to back they
    # would all see the host in the same fraction of a second, and
    # op_p50_ms would move with that moment.
    others = ops + lib_ops + [op for op, _ in closure_ops]
    order = []
    for i, op in enumerate(others):
        order.append(op)
        order += checks[len(checks) * i // len(others):len(checks) * (i + 1) // len(others)]
    for op, bider in closure_ops:
        op["check"]["basis_op"] = next(i for i, other in enumerate(order) if other is bider)
    return order


# ---------------------------------------------------------------------------
# query: many short requests, each on its own document


def perturbed_table(alg: A.Alg, rng: random.Random) -> A.Alg:
    """A copy with one constant changed so that the Jacobi identity fails."""
    while True:
        constants = alg.constants()
        n = alg.n
        i, j = sorted(rng.sample(range(n), 2))
        k = rng.randrange(n)
        constants[(i, j, k)] = constants.get((i, j, k), 0) + rng.choice((-2, -1, 1, 2))
        # The factor record is dropped: a changed constant may cross blocks.
        broken = A.Alg(n, constants, alg.names)
        if A.jacobi_first_violation(broken) is not None:
            return broken


def failing_candidate(alg: A.Alg, rng: random.Random, scalars):
    """An inner biderivation with one entry changed so that it fails."""
    while True:
        mats = A.inner_bider(alg, scalars)
        n = alg.n
        k, i, j = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        mats[k][i][j] += rng.choice((-1, 1, 2))
        if A.bider_first_violation(alg, mats) is not None:
            return mats


def _scalars(alg: A.Alg, rng: random.Random):
    return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for _ in (alg.factors or (alg.n,))]


def _query(seed, w: _Writer, catalog_doc) -> list[dict]:
    base = {name: A.from_document(catalog_doc(name, 0))
            for name in ("sl2", "so3", "L22", "heisenberg3", "sl2_plus_sl2", "sl3")}
    rng = _rng("query", seed, "inputs")
    fmt = _rng("query", seed, "format")
    semisimple = {"sl2", "so3", "sl2_plus_sl2", "sl3"}

    seen: set[str] = set()

    def variant(name: str, change=None) -> A.Alg:
        # Rescaling the basis gives every request its own document while
        # keeping the sparsity, so the cost of a request does not depend
        # on the seed.  A document that repeats an earlier one is redrawn.
        while True:
            alg = A.monomial_change(base[name], rng)
            if change is not None:
                alg = change(alg)
            key = json.dumps(A.to_document(alg, name), sort_keys=True)
            if key not in seen:
                seen.add(key)
                return alg

    def json_flag() -> list[str]:
        return ["--json"] if fmt.random() < 0.5 else []

    def theory(name: str, alg: A.Alg) -> dict:
        return {"semisimple": name in semisimple, "factors": len(alg.factors or (alg.n,))}

    plan = []  # (command, base name); shuffled into one fixed request order
    plan += [("validate", name) for name in ("sl2", "so3", "heisenberg3") for _ in range(12)]
    plan += [("validate-broken", name) for name in ("sl2", "so3", "heisenberg3") for _ in range(12)]
    plan += [("validate-broken", "sl2_plus_sl2")] * 4
    plan += [("info", name) for name in ("sl2", "so3", "L22", "heisenberg3") for _ in range(6)]
    plan += [("info", "sl2_plus_sl2")] * 2 + [("info", "sl3")]
    plan += [("derivations", name) for name in ("sl2", "so3", "L22", "heisenberg3") for _ in range(5)]
    plan += [("derivations", "sl2_plus_sl2")] * 2
    for command in ("vdecomp", "phi-psi"):
        plan += [(command, name) for name in ("sl2", "so3", "L22") for _ in range(12)]
        plan += [(command, "sl2_plus_sl2")] * 2 + [(command, "sl3")]
    plan += [("check-bider", name) for name in ("sl2", "so3", "L22") for _ in range(24)]
    plan += [("check-bider", "sl2_plus_sl2")] * 3 + [("check-bider", "sl3")]
    _rng("query", seed, "order").shuffle(plan)

    ops = []
    for command, name in plan:
        broken = command == "validate-broken"
        alg = variant(name, (lambda a: perturbed_table(a, rng)) if broken else None)
        path = w.write(A.to_document(alg, name), name)
        if command in ("validate", "validate-broken", "info"):
            kind = "info" if command == "info" else "validate"
            ops.append(_cli([kind, path, *json_flag()], {"kind": kind, "doc": path}))
        elif command == "derivations":
            ops.append(_cli(["derivations", path, *json_flag()],
                            {"kind": "derivations", "doc": path, "dim": None, "inner": None}))
        elif command == "vdecomp":
            ops.append(_cli(["vdecomp", path, *json_flag()],
                            {"kind": "vdecomp", "doc": path, **theory(name, alg)}))
        elif command == "phi-psi":
            scalars = _scalars(alg, rng)
            cpath = w.write(A.bider_document(A.inner_bider(alg, scalars)), "inner-bider")
            ops.append(_cli(["phi-psi", path, cpath, *json_flag()],
                            {"kind": "phi-psi", "doc": path, "bider": cpath,
                             "scalars": [str(s) for s in scalars]}))
        else:
            cand = failing_candidate(alg, rng, _scalars(alg, rng))
            cpath = w.write(A.bider_document(cand), "failing-bider")
            ops.append(_cli(["check-bider", path, cpath, *json_flag()],
                            {"kind": "check-bider", "doc": path, "bider": cpath, "expect": "reject"}))
    # The one operation kept although it fails today: the coefficient string
    # is longer than Python's int/str conversion limit.  Its input does not
    # depend on the seed.
    huge = {"name": "huge", "dim": 2, "basis": ["e1", "e2"],
            "brackets": [{"left": 0, "right": 1,
                          "result": [{"index": 0, "coeff": "1" + "0" * (HUGE_DIGITS - 1)}]}]}
    path = w.write(huge, "huge-coefficient")
    ops.insert(len(ops) // 2, _cli(["info", path], {"kind": "input-error", "doc": path}))
    return ops


def build(workload: str, seed: int, workdir: str, catalog_doc) -> dict:
    writer = _Writer(workdir)
    make = {"solve": _solve, "verify": _verify, "query": _query}[workload]
    ops = make(seed, writer, catalog_doc)
    return {
        "workload": workload,
        "seed": seed,
        "catalog_calls": [[name, seed] for name in CATALOG_CALLS[workload]],
        "ops": ops,
    }
