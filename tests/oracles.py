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
`dense_leibniz_residual` is the residual of condition (1) at one triple, by
the same dense brackets, against which the tests read every residual the
package's accumulation over nonzero products returns.

The `fraction_*` builders are the `Fraction` constraint rows that the
package's integer rows replaced (the package reads every row off
`LieAlgebra._int_table`, scaled by the lcm S of the constant
denominators); `fraction_ad_preimage` is the per-call (u, lam) solve that
the package's one adjoint split replaced; `fraction_lift` is the dense
`Fraction` lift of the symmetry kernels into Q^(n^3) that the package's
integer lift replaced; `dense_inner_derivation_space`
and `dense_phi_psi_failure` are the dense `adjoint_matrix`, `Matrix.apply`
and `bracket` versions of the inner derivations and of the phi/psi
factorization check.  The tests require `==` between each package result
and its `Fraction` oracle.

`eliminated_coefficients` is the elimination loop that
`Subspace.coefficients_of` replaced by reading the pivots: it reduces the
vector by each canonical row in turn.

`trace` and `is_zero` are the dense matrix helpers only tests use.
`pair_scan_derived_subalgebra` is the scan of all n(n-1)/2 basis pairs
through `LieAlgebra.pair_terms` that the package's grouping of
``constants`` by pair replaced.

`sl_n` builds sl(n) and `borel_n` its upper Borel subalgebra with the
catalog's elementary-matrix builder `liebider.catalog._sl_constants`,
`change_basis` rewrites a table on a new basis (`unit_upper` gives a dense
rational one), `restrict_scalars` reads an algebra over a quadratic field
Q(sqrt(d)) as a Q-algebra of twice the dimension, and `ORACLE_TABLES` names
the bracket tables the oracle comparisons run on, including ones whose
constants are not integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

import sympy as sp

from liebider.biderivations import Biderivation, BiderViolation, PhiPsiPair
from liebider.catalog import _sl_constants, catalog
from liebider.derivations import CenterNonzero, NotInner
from liebider.liealg import (
    JacobiViolation,
    LieAlgebra,
    adjoint_matrix,
    bracket,
    direct_sum,
    lie_algebra,
)
from liebider.linalg import ZERO, Matrix, Subspace, Vector, kernel_of_rows


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


def fraction_lift(
    xs: list[Vector], family: list[dict[int, int]], n: int
) -> Subspace:
    """Canonical span in Q^(n^3) of the vectors ``xs`` in the x_is, summed
    as dense `Fraction` flats with b_ij^k = sum_s x_is D_s[k, j], x_is at
    column s*n + i and D_s = ``family[s]`` = {k*n + j: D_s[k, j]}."""
    nn = n * n
    vectors = []
    for x in xs:
        flat = [ZERO] * (n * nn)
        for col, coeff in enumerate(x):
            if coeff:
                s, i = divmod(col, n)
                for p, v in family[s].items():
                    k, j = divmod(p, n)
                    flat[k * nn + i * n + j] += coeff * v
        vectors.append(flat)
    return Subspace.span(vectors, n * nn)


def fraction_index(alg: LieAlgebra):
    """(left_out, right_out) in Fractions, read off ``alg.constants``:
    left_out[(i, r)] = ((t, c_it^r), ...) and right_out[(j, r)] =
    ((t, c_tj^r), ...) over all t with a nonzero constant."""
    left_out: dict = {}
    right_out: dict = {}
    for (i, j, k), c in alg.constants:
        for a, b, v in ((i, j, c), (j, i, -c)):
            left_out.setdefault((a, k), []).append((b, v))
            right_out.setdefault((b, k), []).append((a, v))
    return left_out, right_out


def fraction_map_rows(
    alg: LieAlgebra, a: int, b: int, c: int
) -> Iterator[dict[int, Fraction]]:
    """`liebider.derivations._map_rows` in Fractions: the rows of
    a f([e_i, e_j]) + b [f(e_i), e_j] + c [e_i, f(e_j)] = 0, one per pair
    i <= j and output coordinate r, ordered by (i, j, r), zero rows dropped."""
    n = alg.dim
    left_out, right_out = fraction_index(alg)
    for i in range(n):
        for j in range(i, n):
            pair = alg.pair_terms(i, j) if a else ()
            for r in range(n):
                row: dict[int, Fraction] = {}
                # f([e_i, e_j])_r = sum_t c_ij^t f[r, t]
                for t, coeff in pair:
                    col = r * n + t
                    row[col] = row.get(col, 0) + a * coeff
                # [f(e_i), e_j]_r = sum_t f[t, i] c_tj^r
                for t, coeff in right_out.get((j, r), ()):
                    col = t * n + i
                    row[col] = row.get(col, 0) + b * coeff
                # [e_i, f(e_j)]_r = sum_t c_it^r f[t, j]
                for t, coeff in left_out.get((i, r), ()):
                    col = t * n + j
                    row[col] = row.get(col, 0) + c * coeff
                row = {k: v for k, v in row.items() if v}
                if row:
                    yield row


def fraction_center_rows(alg: LieAlgebra) -> Iterator[dict[int, Fraction]]:
    """Rows of [x, e_j]_k = sum_t x_t c_tj^k = 0 for all j, k."""
    n = alg.dim
    _, right_out = fraction_index(alg)
    for j in range(n):
        for k in range(n):
            yield dict(right_out.get((j, k), ()))


def fraction_intertwiner_rows(alg: LieAlgebra) -> Iterator[dict[int, Fraction]]:
    """Rows of M A_i - A_i Q = 0 over (M, Q), ordered by (i, a, b), with
    M_ab at a*n + b and Q_ab at n^2 + a*n + b."""
    n = alg.dim
    nn = n * n
    left_out, right_out = fraction_index(alg)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                # (M A_i)_ab = sum_t M_at c_tb^i
                row = {a * n + t: c for t, c in right_out.get((b, i), ())}
                # -(A_i Q)_ab = -sum_t c_at^i Q_tb
                for t, c in left_out.get((a, i), ()):
                    row[nn + t * n + b] = -c
                yield row


def fraction_ad_preimage(alg: LieAlgebra, target: Matrix) -> Vector:
    """`liebider.derivations.ad_preimage` by its own solve, with the same
    exceptions: the kernel of the Fraction rows of
    sum_i u_i ad_{e_i} - lam * target = 0 has one basis vector with
    lam != 0 exactly when the center is zero and ``target`` is inner."""
    n = alg.dim
    _, right_out = fraction_index(alg)
    rows = []
    for r in range(n):
        for j in range(n):
            # (ad_u)[r, j] = sum_i c_ij^r u_i
            row = dict(right_out.get((j, r), ()))
            if target[r][j]:
                row[n] = -target[r][j]
            rows.append(row)
    kernel = kernel_of_rows(rows, n + 1)
    if kernel.dim > 1 or (kernel.dim == 1 and not kernel.basis[0][n]):
        raise CenterNonzero("adjoint preimage requires a trivial center")
    if kernel.dim == 0:
        raise NotInner("matrix is not the adjoint of any element")
    v = kernel.basis[0]
    return tuple(x / v[n] for x in v[:n])


def eliminated_coefficients(space: Subspace, v: Vector) -> Optional[Vector]:
    """Coordinates of ``v`` in the canonical basis of ``space`` by
    elimination: subtract each basis row times the entry left at its pivot,
    and return None when a nonzero residual remains."""
    work = list(v)
    coeffs = []
    for row, piv in zip(space.basis, space.pivots):
        a = work[piv]
        coeffs.append(a)
        work = [w - a * b for w, b in zip(work, row)]
    if any(work):
        return None
    return tuple(coeffs)


def dense_inner_derivation_space(alg: LieAlgebra) -> Subspace:
    """Span of the flattened adjoint matrices, each built by n brackets."""
    n = alg.dim
    return Subspace.span(
        [adjoint_matrix(alg, alg.basis_element(i)).flatten() for i in range(n)],
        n * n,
    )


def pair_scan_derived_subalgebra(alg: LieAlgebra) -> Subspace:
    """Span of all [e_i, e_j] over pairs i < j, scanned pair by pair."""
    vectors = []
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            terms = alg.pair_terms(i, j)
            if terms:
                vec = [ZERO] * n
                for k, c in terms:
                    vec[k] = c
                vectors.append(vec)
    return Subspace.span(vectors, n)


def dense_phi_psi_failure(
    alg: LieAlgebra, cand: Biderivation, pair: PhiPsiPair
) -> Optional[tuple[int, int]]:
    """First basis pair (i, j), lexicographic, where B(e_i, e_j) differs
    from [phi(e_i), e_j] or from [e_i, psi(e_j)], by `Matrix.apply` and
    dense brackets; None when the factorization holds."""
    n = alg.dim
    basis = [alg.basis_element(t) for t in range(n)]
    for i in range(n):
        phi_ei = pair.phi.apply(basis[i])
        for j in range(n):
            expected = tuple(cand.mats[k][i][j] for k in range(n))
            left = bracket(alg, phi_ei, basis[j])
            right = bracket(alg, basis[i], pair.psi.apply(basis[j]))
            if left != expected or right != expected:
                return i, j
    return None


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
    left_out, right_out = fraction_index(alg)
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
                    for t, c in left_out.get((i, r), ()):
                        col = t * nn + j * n + k
                        row[col] = row.get(col, 0) - c
                    # -[B(e_i, e_k), e_j]_r = -sum_t c_tj^r b_ik^t
                    for t, c in right_out.get((j, r), ()):
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
                    for t, c in right_out.get((k, r), ()):
                        col = t * nn + i * n + j
                        row[col] = row.get(col, 0) - c
                    # -[e_j, B(e_i, e_k)]_r = -sum_t c_jt^r b_ik^t
                    for t, c in left_out.get((j, r), ()):
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


def dense_leibniz_residual(
    alg: LieAlgebra, cand: Biderivation, i: int, j: int, k: int
) -> Vector:
    """B([e_i, e_j], e_k) - [e_i, B(e_j, e_k)] - [B(e_i, e_k), e_j], the
    residual of condition (1) at one triple, by dense brackets and the
    coordinate matrices of B."""
    n = alg.dim
    basis = [alg.basis_element(t) for t in range(n)]

    def b_of(x: Vector, y: Vector) -> Vector:
        # B(x, y)_r = x^T B_r y
        return tuple(
            sum((x[p] * cand.mats[r][p][q] * y[q]
                 for p in range(n) if x[p] for q in range(n) if y[q]), ZERO)
            for r in range(n)
        )

    lhs = b_of(bracket(alg, basis[i], basis[j]), basis[k])
    r1 = bracket(alg, basis[i], b_of(basis[j], basis[k]))
    r2 = bracket(alg, b_of(basis[i], basis[k]), basis[j])
    return tuple(a - b - c for a, b, c in zip(lhs, r1, r2))


def trace(m: Matrix) -> Fraction:
    return sum((m.data[i][i] for i in range(min(m.nrows, m.ncols))), ZERO)


def is_zero(m: Matrix) -> bool:
    return all(not a for row in m.data for a in row)


def _elementary(n: int, off: list[tuple[int, int]]) -> LieAlgebra:
    """The subalgebra of sl(n) on E_ab for (a, b) in ``off``, named
    ``E{a}_{b}`` so that no two names collide, then the H_a."""
    names = [f"E{a + 1}_{b + 1}" for a, b in off] + [f"H{a + 1}" for a in range(n - 1)]
    return lie_algebra(len(names), _sl_constants(n, off), names)


def sl_n(n: int) -> LieAlgebra:
    """sl(n) on the elementary matrices E_ab (a != b, lexicographic) followed
    by H_a = E_aa - E_(a+1)(a+1), from the catalog's sl(n) builder."""
    return _elementary(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def borel_n(n: int) -> LieAlgebra:
    """The upper Borel subalgebra of sl(n): E_ab (a < b, lexicographic)
    followed by H_a = E_aa - E_(a+1)(a+1).  It is complete and solvable, so
    not semisimple; borel_n(2) is isomorphic to L22."""
    return _elementary(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def change_basis(alg: LieAlgebra, change: Matrix) -> LieAlgebra:
    """``alg`` on the columns f_a = sum_t change[t][a] e_t of the invertible
    matrix ``change`` as a new basis; the constants come from sympy's
    exact inverse."""
    n = alg.dim
    basis = [change.column(a) for a in range(n)]
    inverse = sp.Matrix(
        n, n, lambda a, b: sp.Rational(change[a][b].numerator, change[a][b].denominator)
    ).inv()
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            rhs = [sp.Rational(v.numerator, v.denominator)
                   for v in bracket(alg, basis[a], basis[b])]
            for c, value in enumerate(inverse * sp.Matrix(rhs)):
                if value:
                    constants[(a, b, c)] = Fraction(int(value.p), int(value.q))
    return lie_algebra(n, constants)


def unit_upper(n: int) -> Matrix:
    """Unit upper-triangular change of basis with 1/(a+b+1) above the
    diagonal: rational, so the new constants have denominators."""
    return Matrix.from_rows(
        [[Fraction(1) if a == b else Fraction(int(a < b), a + b + 1) for b in range(n)]
         for a in range(n)]
    )


def restrict_scalars(alg: LieAlgebra, square: int) -> LieAlgebra:
    """``alg`` tensored with Q(s), s^2 = ``square`` not a square, as a
    Q-algebra: e_a (x) 1 at index a and e_a (x) s at n + a, with
    [x (x) u, y (x) v] = [x, y] (x) uv.

    Its basis indices form one class of `LieAlgebra._components`, yet
    multiplication by s commutes with the bracket, so there are more
    commuting maps than component projections.  When ``alg`` is simple it
    stays simple over Q, but not over an extension of Q.
    """
    n = alg.dim
    constants = {}
    for (i, j, k), c in alg.constants:
        constants[(i, j, k)] = c
        constants[(i, n + j, n + k)] = c
        constants[(j, n + i, n + k)] = -c
        constants[(n + i, n + j, k)] = square * c
    names = alg.basis_names + tuple(f"{name}_s" for name in alg.basis_names)
    return lie_algebra(2 * n, constants, names)


def dense_basis_sl2_plus_sl2() -> LieAlgebra:
    """sl2 + sl2 on the columns of the 6 x 6 Hilbert matrix as a new basis."""
    n = 6
    return change_basis(
        catalog("sl2_plus_sl2"),
        Matrix.from_rows([[Fraction(1, a + b + 1) for b in range(n)] for a in range(n)]),
    )


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
    # valid but not complete (nonzero center), each with two ideals
    "sl2_plus_abelian1": lambda: direct_sum(catalog("sl2"), catalog("abelian(1)")),
    "sl2_plus_heisenberg3": lambda: direct_sum(catalog("sl2"), catalog("heisenberg3")),
}

# Restrictions of scalars: simple over Q, one index class, and commuting
# maps of dimension 2 (BiDer 2, Sym 0).
RESTRICTED_TABLES = {
    "sl2_sqrt2": lambda: restrict_scalars(catalog("sl2"), 2),
    "sl2_i": lambda: restrict_scalars(catalog("sl2"), -1),
    "sl3_sqrt3": lambda: restrict_scalars(catalog("sl3"), 3),
}
