"""Oracles for the exact solvers.

The sympy oracles are built straight from the textbook definitions with
sympy symbols and nullspace computations — no code paths are shared with
the package beyond reading structure-constant data — so agreement between
the two is genuine cross-validation.  They are slow; tests run them live
only on small algebras and rely on frozen values elsewhere.

`constraint_rows` is the direct n^4 biderivation system in sparse rows.
The tests feed it to the package's `kernel_of_rows`, so it checks the
derivation-first reduction of the solvers, not the elimination itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import sympy as sp

from liebider.liealg import LieAlgebra


def _constant_fn(alg: LieAlgebra):
    table = {key: sp.Rational(c.numerator, c.denominator) for key, c in alg.constants}

    def c(i: int, j: int, k: int):
        if i < j:
            return table.get((i, j, k), sp.Integer(0))
        if i > j:
            return -table.get((j, i, k), sp.Integer(0))
        return sp.Integer(0)

    return c


def _bracket_fn(alg: LieAlgebra):
    n = alg.dim
    c = _constant_fn(alg)

    def brk(x, y):
        return [
            sp.expand(
                sum(
                    x[i] * y[j] * c(i, j, k)
                    for i in range(n)
                    for j in range(n)
                )
            )
            for k in range(n)
        ]

    return brk


def _basis(n: int):
    return [
        [sp.Integer(1) if t == i else sp.Integer(0) for t in range(n)]
        for i in range(n)
    ]


def _nullspace_dim(equations, unknowns) -> int:
    if not unknowns:
        return 0
    a, _ = sp.linear_eq_to_matrix(equations, unknowns)
    return len(a.nullspace())


def bider_dims(alg: LieAlgebra) -> tuple[int, int, int]:
    """(dim BiDer, dim symmetric part, dim skew part) from the definition."""
    n = alg.dim
    brk = _bracket_fn(alg)
    basis = _basis(n)
    b = [
        [[sp.Symbol(f"b_{k}_{i}_{j}") for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    unknowns = [b[k][i][j] for k in range(n) for i in range(n) for j in range(n)]

    def bider(x, y):
        return [
            sp.expand(
                sum(
                    x[i] * y[j] * b[k][i][j]
                    for i in range(n)
                    for j in range(n)
                )
            )
            for k in range(n)
        ]

    equations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bider(brk(basis[i], basis[j]), basis[k])
                r1 = brk(basis[i], bider(basis[j], basis[k]))
                r2 = brk(bider(basis[i], basis[k]), basis[j])
                equations.extend(
                    sp.expand(a - p - q) for a, p, q in zip(lhs, r1, r2)
                )
                lhs = bider(basis[i], brk(basis[j], basis[k]))
                r1 = brk(bider(basis[i], basis[j]), basis[k])
                r2 = brk(basis[j], bider(basis[i], basis[k]))
                equations.extend(
                    sp.expand(a - p - q) for a, p, q in zip(lhs, r1, r2)
                )
    full = _nullspace_dim(equations, unknowns)
    sym_eqs = list(equations)
    skew_eqs = list(equations)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                sym_eqs.append(b[k][i][j] - b[k][j][i])
                skew_eqs.append(b[k][i][j] + b[k][j][i])
    return full, _nullspace_dim(sym_eqs, unknowns), _nullspace_dim(skew_eqs, unknowns)


def der_dim(alg: LieAlgebra) -> int:
    """dim of {D : D[x,y] = [Dx,y] + [x,Dy]} from the definition."""
    n = alg.dim
    brk = _bracket_fn(alg)
    basis = _basis(n)
    d = [[sp.Symbol(f"d_{a}_{b}") for b in range(n)] for a in range(n)]
    unknowns = [d[a][b] for a in range(n) for b in range(n)]

    def apply(x):
        return [
            sp.expand(sum(d[a][t] * x[t] for t in range(n))) for a in range(n)
        ]

    equations = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = apply(brk(basis[i], basis[j]))
            r1 = brk(apply(basis[i]), basis[j])
            r2 = brk(basis[i], apply(basis[j]))
            equations.extend(sp.expand(a - p - q) for a, p, q in zip(lhs, r1, r2))
    return _nullspace_dim(equations, unknowns)


def commuting_dims(alg: LieAlgebra) -> tuple[int, int]:
    """(dim commuting maps, dim skew-commuting maps) from the definitions.

    Commuting: [f(x), y] = [x, f(y)] — the defect is symmetric, so all
    pairs i <= j carry constraints.  Skew-commuting: [f(x), y] = -[x, f(y)].
    """
    n = alg.dim
    brk = _bracket_fn(alg)
    basis = _basis(n)
    f = [[sp.Symbol(f"f_{a}_{b}") for b in range(n)] for a in range(n)]
    unknowns = [f[a][b] for a in range(n) for b in range(n)]

    def apply(x):
        return [
            sp.expand(sum(f[a][t] * x[t] for t in range(n))) for a in range(n)
        ]

    comm_eqs = []
    skew_eqs = []
    for i in range(n):
        for j in range(i, n):
            left = brk(apply(basis[i]), basis[j])
            right = brk(basis[i], apply(basis[j]))
            comm_eqs.extend(sp.expand(a - b) for a, b in zip(left, right))
            skew_eqs.extend(sp.expand(a + b) for a, b in zip(left, right))
    return _nullspace_dim(comm_eqs, unknowns), _nullspace_dim(skew_eqs, unknowns)


def v_dims(alg: LieAlgebra) -> tuple[int, int, int]:
    """(dim V, dim V+, dim V-) from the matrix definitions.

    V is computed from the joint (M, Q) kernel projected to M; V+ and V-
    are the pure symmetry conditions on the products M A_i, which land in V
    automatically because the A_i are skew-symmetric.
    """
    n = alg.dim
    c = _constant_fn(alg)
    mats = [
        sp.Matrix([[c(i, j, k) for j in range(n)] for i in range(n)])
        for k in range(n)
    ]
    m_syms = sp.Matrix([[sp.Symbol(f"m_{a}_{b}") for b in range(n)] for a in range(n)])
    q_syms = sp.Matrix([[sp.Symbol(f"q_{a}_{b}") for b in range(n)] for a in range(n)])
    unknowns = list(m_syms) + list(q_syms)
    equations = []
    for ak in mats:
        diff = m_syms * ak - ak * q_syms
        equations.extend(diff)
    if unknowns:
        a, _ = sp.linear_eq_to_matrix(equations, unknowns)
        null = a.nullspace()
    else:
        null = []
    nn = n * n
    projected = [vec[:nn, :] for vec in null]
    v = sp.Matrix.hstack(*projected).rank() if projected else 0
    plus_eqs = []
    minus_eqs = []
    for ak in mats:
        prod = m_syms * ak
        plus_eqs.extend(prod - prod.T)
        minus_eqs.extend(prod + prod.T)
    m_unknowns = list(m_syms)
    return (
        v,
        _nullspace_dim(plus_eqs, m_unknowns),
        _nullspace_dim(minus_eqs, m_unknowns),
    )


def constraint_rows(alg: LieAlgebra) -> Iterator[dict[int, Fraction]]:
    """Sparse rows of the direct system, one per (condition, i, j, k, r).

    Both conditions on all basis triples, 2*n^4 rows in the n^3 unknowns
    b_ij^k.  The solvers do not use it; the tests compare them against its
    kernel.  Condition (1) rows come first, each block ordered
    lexicographically by (i, j, k, r).  Zero rows and duplicates are kept so
    the row order is a pure function of the structure constants.
    """
    n = alg.dim
    nn = n * n
    for i in range(n):
        for j in range(n):
            pair_ij = alg.pair_terms(i, j)
            for k in range(n):
                for r in range(n):
                    row: dict[int, Fraction] = {}
                    # B([e_i, e_j], e_k)_r = sum_t c_ij^t b_tk^r
                    for t, c in pair_ij:
                        col = r * nn + t * n + k
                        row[col] = row.get(col, 0) + c
                    # -[e_i, B(e_j, e_k)]_r = -sum_t c_it^r b_jk^t
                    for t, c in alg._left_out.get((i, r), ()):
                        col = t * nn + j * n + k
                        row[col] = row.get(col, 0) - c
                    # -[B(e_i, e_k), e_j]_r = -sum_t c_tj^r b_ik^t
                    for t, c in alg._right_out.get((j, r), ()):
                        col = t * nn + i * n + k
                        row[col] = row.get(col, 0) - c
                    yield {c: v for c, v in row.items() if v}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                pair_jk = alg.pair_terms(j, k)
                for r in range(n):
                    row = {}
                    # B(e_i, [e_j, e_k])_r = sum_t c_jk^t b_it^r
                    for t, c in pair_jk:
                        col = r * nn + i * n + t
                        row[col] = row.get(col, 0) + c
                    # -[B(e_i, e_j), e_k]_r = -sum_t c_tk^r b_ij^t
                    for t, c in alg._right_out.get((k, r), ()):
                        col = t * nn + i * n + j
                        row[col] = row.get(col, 0) - c
                    # -[e_j, B(e_i, e_k)]_r = -sum_t c_jt^r b_ik^t
                    for t, c in alg._left_out.get((j, r), ()):
                        col = t * nn + i * n + k
                        row[col] = row.get(col, 0) - c
                    yield {c: v for c, v in row.items() if v}
