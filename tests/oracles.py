"""Oracles for the exact solvers.

The sympy oracles are built straight from the textbook definitions with
sympy symbols and nullspace computations — no code paths are shared with
the package beyond reading structure-constant data — so agreement between
the two is genuine cross-validation.  They are slow; tests run them live
only on small algebras and rely on frozen values elsewhere.

`constraint_rows` is the direct n^4 biderivation system in sparse rows:
both defining conditions on every basis triple, with no use of Der(L) or
of the swap B(x, y) -> B(y, x).  The tests feed it to the package's
`kernel_of_rows`, so it checks the solvers' reduction (unknowns over
Der(L), and BiDer = Sym (+) Skew solved from the symmetry rows alone), not
the elimination itself.

`dense_biderivation_violation` and `dense_jacobi_violation` are the dense
`Fraction` scans that the package's integer scans replaced: the same triples
in the same order, with brackets taken by `liebider.liealg.bracket`.  The
tests require `==` between each scan and its dense oracle.

`sl_n` builds sl(n) from elementary matrices, and `ORACLE_TABLES` names the
bracket tables the oracle comparisons run on, including ones whose
constants are not integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

import sympy as sp

from liebider.biderivations import Biderivation, BiderViolation
from liebider.catalog import catalog
from liebider.liealg import JacobiViolation, LieAlgebra, bracket, lie_algebra
from liebider.linalg import ZERO, Matrix, Vector


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


def dense_biderivation_violation(
    alg: LieAlgebra, cand: Biderivation
) -> Optional[BiderViolation]:
    """First violated defining condition by dense brackets on all 2n^3
    basis triples, condition outermost, then (i, j, k) lexicographic."""
    n = alg.dim
    if cand.dim != n:
        raise ValueError("biderivation dimension does not match the algebra")
    basis_values = [
        [
            tuple(cand.mats[k][i][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def b_of(u: Vector, side_left: bool, idx: int) -> Vector:
        # B(u, e_idx) when side_left else B(e_idx, u), for sparse-ish u.
        out = [ZERO] * n
        for t, ut in enumerate(u):
            if ut:
                vec = basis_values[t][idx] if side_left else basis_values[idx][t]
                for k in range(n):
                    if vec[k]:
                        out[k] += ut * vec[k]
        return tuple(out)

    def brk(x: Vector, y: Vector) -> Vector:
        return bracket(alg, x, y)

    basis = [alg.basis_element(t) for t in range(n)]
    pair = [[brk(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = b_of(pair[i][j], True, k)
                r1 = brk(basis[i], basis_values[j][k])
                r2 = brk(basis_values[i][k], basis[j])
                residual = tuple(a - b - c for a, b, c in zip(lhs, r1, r2))
                if any(residual):
                    return BiderViolation(1, (i, j, k), residual)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = b_of(pair[j][k], False, i)
                r1 = brk(basis_values[i][j], basis[k])
                r2 = brk(basis[j], basis_values[i][k])
                residual = tuple(a - b - c for a, b, c in zip(lhs, r1, r2))
                if any(residual):
                    return BiderViolation(2, (i, j, k), residual)
    return None


def dense_jacobi_violation(alg: LieAlgebra) -> Optional[JacobiViolation]:
    """First basis triple i < j < k (lexicographic) where the Jacobi
    identity fails, by dense brackets."""
    n = alg.dim
    basis = [alg.basis_element(t) for t in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            eij = bracket(alg, basis[i], basis[j])
            for k in range(j + 1, n):
                term1 = bracket(alg, eij, basis[k])
                term2 = bracket(alg, bracket(alg, basis[j], basis[k]), basis[i])
                term3 = bracket(alg, bracket(alg, basis[k], basis[i]), basis[j])
                residual = tuple(
                    a + b + c for a, b, c in zip(term1, term2, term3)
                )
                if any(residual):
                    return JacobiViolation(i, j, k, residual)
    return None


def sl_n(n: int) -> LieAlgebra:
    """sl(n) on the elementary matrices E_ab (a != b, lexicographic) followed
    by H_a = E_aa - E_(a+1)(a+1); brackets are sparse matrix commutators.

    An off-diagonal entry is the coordinate of its E_ab, and a traceless
    diag(d) equals sum_a (d_1 + ... + d_a) H_a.
    """
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {pos: t for t, pos in enumerate(off)}
    basis = [{pos: 1} for pos in off]
    basis += [{(a, a): 1, (a + 1, a + 1): -1} for a in range(n - 1)]
    dim = len(basis)
    names = [f"E{a + 1}{b + 1}" for a, b in off]
    names += [f"H{a + 1}" for a in range(n - 1)]

    def product(x: dict, y: dict) -> dict:
        out: dict = {}
        for (a, b), u in x.items():
            for (c, d), v in y.items():
                if b == c:
                    out[(a, d)] = out.get((a, d), 0) + u * v
        return out

    constants = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = product(basis[i], basis[j])
            for pos, v in product(basis[j], basis[i]).items():
                comm[pos] = comm.get(pos, 0) - v
            coords = {index[pos]: v for pos, v in comm.items() if pos[0] != pos[1]}
            running = 0
            for a in range(n - 1):
                running += comm.get((a, a), 0)
                coords[len(off) + a] = running
            constants.update(((i, j, k), v) for k, v in coords.items() if v)
    return lie_algebra(dim, constants, names)


def dense_basis_sl2_plus_sl2() -> LieAlgebra:
    """sl2 + sl2 on the columns of the 6 x 6 Hilbert matrix as a new basis."""
    alg = catalog("sl2_plus_sl2")
    n = alg.dim
    change = Matrix.from_rows(
        [[Fraction(1, a + b + 1) for b in range(n)] for a in range(n)]
    )
    basis = [change.column(a) for a in range(n)]
    hilbert = sp.Matrix(n, n, lambda a, b: sp.Rational(1, a + b + 1))
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            rhs = [sp.Rational(v.numerator, v.denominator)
                   for v in bracket(alg, basis[a], basis[b])]
            coords = hilbert.LUsolve(sp.Matrix(rhs))
            for c, value in enumerate(coords):
                if value:
                    constants[(a, b, c)] = Fraction(int(value.p), int(value.q))
    return lie_algebra(n, constants)


def scaled_sl2() -> LieAlgebra:
    """sl2 on the basis (e/2, f/3, h/5): every constant is a proper fraction."""
    return lie_algebra(
        3,
        {
            (0, 1, 2): Fraction(5, 6),
            (0, 2, 0): Fraction(-2, 5),
            (1, 2, 1): Fraction(2, 5),
        },
    )


ORACLE_TABLES = {
    "sl2": lambda: catalog("sl2"),
    "so3": lambda: catalog("so3"),
    "sl3": lambda: catalog("sl3"),
    "sl2_plus_sl2": lambda: catalog("sl2_plus_sl2"),
    "heisenberg3": lambda: catalog("heisenberg3"),
    "L22": lambda: catalog("L22"),
    "abelian(3)": lambda: catalog("abelian(3)"),
    "twostep(6,1)": lambda: catalog("twostep(6,1)", seed=3),
    "sl2_plus_sl2_dense": dense_basis_sl2_plus_sl2,
    "sl2_scaled": scaled_sl2,
}
