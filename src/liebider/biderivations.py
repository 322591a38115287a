"""Biderivations of a Lie algebra, encoded as tuples of matrices.

A bilinear map B: L x L -> L is a biderivation when both partial maps are
derivations:

    (1)  B([x, y], z) = [x, B(y, z)] + [B(x, z), y]
    (2)  B(x, [y, z]) = [B(x, y), z] + [y, B(x, z)]

B is stored as its coordinate matrices F(B) = (B_1, ..., B_n) with
(B_k)_ij = beta_k(e_i, e_j), the k-th coordinate of B(e_i, e_j).  The
coefficients b_ij^k are flattened with k outermost: b_ij^k sits at position
k*n^2 + i*n + j.

Condition (2) says that every left partial map B(e_i, -) is a derivation.
The solver therefore computes a basis D_1, ..., D_d of Der(L) first and
writes B(e_i, -) = sum_s x_is D_s, so condition (2) holds by construction
and there are n*d unknowns x_is instead of n^3.  Condition (1) is
antisymmetric in (i, j), so it is imposed on the pairs i < j only:
n^3 (n - 1) / 2 rows.  The symmetric and skew subspaces need no condition
(1) rows at all, only the symmetry rows b_ij^k -+ b_ji^k = 0 for i <= j:
when B(x, y) = +-B(y, x), every right partial map B(-, z) = +-B(z, -) is a
derivation too.  The kernel in the x_is is mapped back into Q^(n^3) and
canonicalised, and every basis element is re-checked by
`biderivation_violation`, which shares no assembly code with the solver.
The direct system of 2*n^4 rows in the n^3 unknowns b_ij^k
(`_constraint_rows`) is kept as the oracle the tests compare against.

On complete algebras every biderivation factors as
B(x, y) = [phi(x), y] = [x, psi(y)] for linear maps phi, psi recovered here
by adjoint preimages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Optional, Sequence

from .liealg import LieAlgebra, bracket, structure_matrices
from .linalg import (
    ZERO,
    Matrix,
    Scalar,
    Subspace,
    SubspaceRelation,
    Vector,
    as_vector,
    commutator,
    kernel_of_rows,
    subspace_compare,
)
from .derivations import (
    CenterNonzero,
    NotInner,
    ad_preimage,
    derivation_space,
    is_complete,
)
from .liealg import center as center_space
from .liealg import derived_subalgebra


class NotComplete(ValueError):
    """Raised when an operation requires a complete algebra."""


class NotBiderivation(ValueError):
    """Raised when a candidate map fails the biderivation conditions."""

    def __init__(self, violation: "BiderViolation") -> None:
        super().__init__(
            f"condition ({violation.condition}) fails on basis triple "
            f"{violation.triple}"
        )
        self.violation = violation


class NotTwoStep(ValueError):
    """Raised when an algebra is not two-step nilpotent (needs [L,L] central)."""


class FactorMismatch(ValueError):
    """Raised when scalar counts do not match the direct-sum factors."""


class InternalInconsistency(RuntimeError):
    """A solver produced an object that fails its own defining equations."""


@dataclass(frozen=True)
class Biderivation:
    """Coordinate matrices (B_1, ..., B_n) of a bilinear map L x L -> L."""

    mats: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.mats)

    @staticmethod
    def from_flat(values: Sequence[Scalar], n: int) -> "Biderivation":
        if len(values) != n * n * n:
            raise ValueError("flat length does not match n^3")
        mats = tuple(
            Matrix.from_flat(values[k * n * n : (k + 1) * n * n], n, n)
            for k in range(n)
        )
        return Biderivation(mats)

    def flatten(self) -> Vector:
        """k-outermost flattening: b_ij^k at position k*n^2 + i*n + j."""
        return tuple(v for mat in self.mats for v in mat.flatten())

    def evaluate(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """B(x, y); coordinate k equals x^T B_k y."""
        xv = as_vector(x)
        yv = as_vector(y)
        return tuple(
            sum((xi * v for xi, v in zip(xv, mat.apply(yv))), ZERO)
            for mat in self.mats
        )

    @staticmethod
    def zero(n: int) -> "Biderivation":
        return Biderivation(tuple(Matrix.zeros(n, n) for _ in range(n)))


@dataclass(frozen=True)
class BiderViolation:
    """First failing instance of a defining condition on basis triples."""

    condition: int  # 1 or 2
    triple: tuple[int, int, int]
    residual: Vector  # left-hand side minus right-hand side of the condition


@dataclass(frozen=True)
class BiderivationSpace:
    """The space of all biderivations as a canonical subspace of Q^(n^3)."""

    algebra_dim: int
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_elements(self) -> tuple[Biderivation, ...]:
        n = self.algebra_dim
        return tuple(
            Biderivation.from_flat(v, n) for v in self.space.basis
        )


# ---------------------------------------------------------------------------
# Constraint assembly


def _constraint_rows(alg: LieAlgebra) -> Iterator[dict[int, Fraction]]:
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
                        row[col] = row.get(col, ZERO) + c
                    # -[e_i, B(e_j, e_k)]_r = -sum_t c_it^r b_jk^t
                    for t, c in alg._left_out.get((i, r), ()):
                        col = t * nn + j * n + k
                        row[col] = row.get(col, ZERO) - c
                    # -[B(e_i, e_k), e_j]_r = -sum_t c_tj^r b_ik^t
                    for t, c in alg._right_out.get((j, r), ()):
                        col = t * nn + i * n + k
                        row[col] = row.get(col, ZERO) - c
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
                        row[col] = row.get(col, ZERO) + c
                    # -[B(e_i, e_j), e_k]_r = -sum_t c_tk^r b_ij^t
                    for t, c in alg._right_out.get((k, r), ()):
                        col = t * nn + i * n + j
                        row[col] = row.get(col, ZERO) - c
                    # -[e_j, B(e_i, e_k)]_r = -sum_t c_jt^r b_ik^t
                    for t, c in alg._left_out.get((j, r), ()):
                        col = t * nn + i * n + k
                        row[col] = row.get(col, ZERO) - c
                    yield {c: v for c, v in row.items() if v}


def _primitive_derivations(alg: LieAlgebra) -> list[list[int]]:
    """Canonical basis D_1, ..., D_d of Der(L), each a primitive integer vector."""
    out = []
    for vec in derivation_space(alg).basis:
        den = math.lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (den // v.denominator) for v in vec]
        g = math.gcd(*ints)
        out.append([v // g for v in ints])
    return out


def _entries_at(
    ders: list[list[int]], nn: int
) -> list[tuple[tuple[int, int], ...]]:
    """For each matrix position p = a*n + b, the nonzero pairs (s, D_s[p])."""
    return [
        tuple((s, der[p]) for s, der in enumerate(ders) if der[p])
        for p in range(nn)
    ]


def _condition_one_rows(
    alg: LieAlgebra, ders: list[list[int]]
) -> Iterator[dict[int, int]]:
    """Condition (1) on pairs i < j in the unknowns x_is (column i*d + s).

    With b_ij^k = sum_s x_is D_s[k, j], the row of (i, j, k, r) reads
    sum_t c_ij^t D[r, k] x_t - (ad_i D)[r, k] x_j + (ad_j D)[r, k] x_i = 0,
    multiplied by the lcm of the structure-constant denominators so that
    every coefficient is an integer.  Rows are ordered by (i, j, k, r);
    zero rows are skipped.
    """
    n = alg.dim
    d = len(ders)
    scale = math.lcm(*(c.denominator for _, c in alg.constants))

    def scaled(c: Fraction) -> int:
        return c.numerator * (scale // c.denominator)

    at = _entries_at(ders, n * n)
    # ad_at[i][r*n + k]: nonzero pairs (s, scale * (ad_i D_s)[r, k])
    ad_at = []
    for i in range(n):
        cells: list[dict[int, int]] = [{} for _ in range(n * n)]
        for r in range(n):
            for t, c in alg._left_out.get((i, r), ()):
                ci = scaled(c)
                for k in range(n):
                    cell = cells[r * n + k]
                    for s, v in at[t * n + k]:
                        cell[s] = cell.get(s, 0) + ci * v
        ad_at.append(
            [tuple((s, v) for s, v in cell.items() if v) for cell in cells]
        )
    for i in range(n):
        for j in range(i + 1, n):
            pair_ij = [(t, scaled(c)) for t, c in alg.pair_terms(i, j)]
            for k in range(n):
                for r in range(n):
                    p = r * n + k
                    row: dict[int, int] = {}
                    for t, c in pair_ij:
                        for s, v in at[p]:
                            col = t * d + s
                            row[col] = row.get(col, 0) + c * v
                    for s, v in ad_at[i][p]:
                        col = j * d + s
                        row[col] = row.get(col, 0) - v
                    for s, v in ad_at[j][p]:
                        col = i * d + s
                        row[col] = row.get(col, 0) + v
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        yield row


def _lift(kernel: Subspace, ders: list[list[int]], n: int) -> Subspace:
    """Canonical span in Q^(n^3) of the kernel in the x_is.

    Coordinates follow b_ij^k = sum_s x_is D_s[k, j].
    """
    nn = n * n
    d = len(ders)
    # spread[s]: (position of b_0j^k, D_s[k, j]); row i adds i*n
    spread = [
        [(p // n * nn + p % n, v) for p, v in enumerate(der) if v] for der in ders
    ]
    vectors = []
    for x in kernel.basis:
        flat = [ZERO] * (n * nn)
        for col, coeff in enumerate(x):
            if coeff:
                i, s = divmod(col, d)
                for pos, v in spread[s]:
                    flat[pos + i * n] += coeff * v
        vectors.append(flat)
    return Subspace.span(vectors, n * nn)


def _checked(
    alg: LieAlgebra, space: Subspace, mode: Optional[BiderSymmetryMode]
) -> BiderivationSpace:
    """Re-verify every canonical basis element with the independent checker.

    A failure means the solver and the checker disagree and raises
    InternalInconsistency.
    """
    result = BiderivationSpace(alg.dim, space)
    for element in result.basis_elements():
        violation = biderivation_violation(alg, element)
        if violation is not None:
            raise InternalInconsistency(
                f"kernel basis element fails condition ({violation.condition}) "
                f"at triple {violation.triple}"
            )
        if mode == "symmetric" and any(m != m.transpose() for m in element.mats):
            raise InternalInconsistency("kernel basis element is not symmetric")
        if mode == "skew" and any(m != -m.transpose() for m in element.mats):
            raise InternalInconsistency("kernel basis element is not skew")
    return result


def biderivation_space(alg: LieAlgebra) -> BiderivationSpace:
    """All biderivations, solved over Der(L) and re-checked element by element.

    Each left partial map is written B(e_i, -) = sum_s x_is D_s over the
    canonical basis of Der(L), which satisfies condition (2); condition (1)
    adds n^3 (n - 1) / 2 rows in the n * dim Der unknowns.  The kernel is
    returned as the canonical subspace of Q^(n^3) it spans, which equals
    the kernel of the direct 2*n^4 x n^3 system.  Every basis element is
    then re-verified against both defining conditions; a failure raises
    InternalInconsistency.
    """
    n = alg.dim
    ders = _primitive_derivations(alg)
    kernel = kernel_of_rows(_condition_one_rows(alg, ders), n * len(ders))
    return _checked(alg, _lift(kernel, ders, n), None)


# ---------------------------------------------------------------------------
# Membership check


def biderivation_violation(
    alg: LieAlgebra, cand: Biderivation
) -> Optional[BiderViolation]:
    """First violated defining condition, or None when B is a biderivation.

    Triples are scanned condition outermost, then (i, j, k) lexicographic,
    and the scan stops at the first failure, which is returned.
    """
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


def is_biderivation(alg: LieAlgebra, cand: Biderivation) -> bool:
    return biderivation_violation(alg, cand) is None


# ---------------------------------------------------------------------------
# Constructions


def inner_biderivation(
    alg: LieAlgebra, scalars: Sequence[Scalar]
) -> Biderivation:
    """The map (x, y) -> lambda_b [x, y] with one scalar per direct factor.

    Coordinate matrices are the structure matrices scaled blockwise:
    B_k = lambda_{block(k)} A_k.  ``scalars`` must have one entry per factor
    (one entry total when the algebra is atomic).
    """
    factors = alg.factors if alg.factors is not None else (alg.dim,)
    if len(scalars) != len(factors):
        raise FactorMismatch(
            f"{len(scalars)} scalars for {len(factors)} direct factors"
        )
    lams = as_vector(scalars)
    mats = structure_matrices(alg)
    scaled = tuple(
        lams[alg.block_of(k)] * mats[k] for k in range(alg.dim)
    )
    return Biderivation(scaled)


@dataclass(frozen=True)
class RowColumnReport:
    """Matrices of the partial maps B(e_i, -) and B(-, e_i)."""

    row_map: Matrix  # k-th row is row i of B_k: column vector recipe below
    column_map: Matrix
    row_is_derivation: bool
    column_is_derivation: bool


def row_column_derivations(
    alg: LieAlgebra, cand: Biderivation, index: int
) -> RowColumnReport:
    """Partial maps at basis index i and their derivation-space membership.

    ``row_map`` is the matrix of y -> B(e_i, y): its (k, j) entry is
    (B_k)_ij, so the k-th row of row_map is the i-th row of B_k.  Likewise
    ``column_map`` represents x -> B(x, e_i) with rows the i-th columns of
    the B_k.  For a genuine biderivation both maps are derivations.
    """
    n = alg.dim
    if not 0 <= index < n:
        raise ValueError(f"basis index {index} out of range for dim {n}")
    row_map, column_map = _partial_maps(cand, index)
    der = derivation_space(alg)
    return RowColumnReport(
        row_map,
        column_map,
        der.contains(row_map.flatten()),
        der.contains(column_map.flatten()),
    )


def _partial_maps(cand: Biderivation, i: int) -> tuple[Matrix, Matrix]:
    """Matrices of y -> B(e_i, y) and x -> B(x, e_i) (see RowColumnReport)."""
    n = cand.dim
    return (
        Matrix(n, n, tuple(cand.mats[k].data[i] for k in range(n))),
        Matrix(n, n, tuple(cand.mats[k].column(i) for k in range(n))),
    )


@dataclass(frozen=True)
class PhiPsiPair:
    """Linear maps with B(x, y) = [phi(x), y] = [x, psi(y)]."""

    phi: Matrix
    psi: Matrix


def extract_phi_psi(alg: LieAlgebra, cand: Biderivation) -> PhiPsiPair:
    """Recover phi and psi for a biderivation of a complete algebra.

    On a complete algebra every partial map of a biderivation is an inner
    derivation; phi's column i is the adjoint preimage of B(e_i, -) and
    psi's column i is minus the preimage of B(-, e_i).  The factorization
    is verified on all basis pairs before returning.
    """
    report = is_complete(alg)
    if not report.complete:
        raise NotComplete(
            "phi/psi extraction requires a complete algebra "
            f"(center dim {report.center_dim}, Der dim {report.derivation_dim}, "
            f"inner dim {report.inner_dim})"
        )
    violation = biderivation_violation(alg, cand)
    if violation is not None:
        raise NotBiderivation(violation)
    return _factor_phi_psi(alg, cand)


def _factor_phi_psi(alg: LieAlgebra, cand: Biderivation) -> PhiPsiPair:
    """`extract_phi_psi` for a caller that has established its premises."""
    n = alg.dim
    phi_cols = []
    psi_cols = []
    try:
        for i in range(n):
            row_map, column_map = _partial_maps(cand, i)
            phi_cols.append(ad_preimage(alg, row_map))
            psi_cols.append(tuple(-v for v in ad_preimage(alg, column_map)))
    except (NotInner, CenterNonzero) as exc:
        raise InternalInconsistency(
            "partial map of a biderivation is not inner on a complete algebra"
        ) from exc
    phi = Matrix(n, n, tuple(tuple(phi_cols[i][r] for i in range(n)) for r in range(n)))
    psi = Matrix(n, n, tuple(tuple(psi_cols[i][r] for i in range(n)) for r in range(n)))
    basis = [alg.basis_element(t) for t in range(n)]
    for i in range(n):
        phi_ei = phi.apply(basis[i])
        for j in range(n):
            expected = tuple(cand.mats[k][i][j] for k in range(n))
            left = bracket(alg, phi_ei, basis[j])
            right = bracket(alg, basis[i], psi.apply(basis[j]))
            if left != expected or right != expected:
                raise InternalInconsistency(
                    f"phi/psi factorization fails on basis pair ({i}, {j})"
                )
    return PhiPsiPair(phi, psi)


def symmetric_skew_split(cand: Biderivation) -> tuple[Biderivation, Biderivation]:
    """Split into symmetric and skew parts.

    Returns (B_plus, B_minus) with B_plus(x, y) = B(x, y) + B(y, x) and
    B_minus(x, y) = B(x, y) - B(y, x); coordinatewise B_k +- B_k^T.  The
    original map is recovered as (B_plus + B_minus) / 2.
    """
    plus = tuple(m + m.transpose() for m in cand.mats)
    minus = tuple(m - m.transpose() for m in cand.mats)
    return Biderivation(plus), Biderivation(minus)


BiderSymmetryMode = Literal["symmetric", "skew"]


def constrained_biderivation_space(
    alg: LieAlgebra, mode: BiderSymmetryMode
) -> BiderivationSpace:
    """Biderivations that are symmetric (B(x,y) = B(y,x)) or skew
    (B(x,y) = -B(y,x)) as bilinear maps.

    The unknowns are those of `biderivation_space`, B(e_i, -) =
    sum_s x_is D_s over the canonical basis of Der(L), so condition (2)
    holds by construction.  The only rows are b_ij^k - b_ji^k = 0
    (symmetric, n^2 (n - 1) / 2 rows) or b_ij^k + b_ji^k = 0 (skew,
    n^2 (n + 1) / 2 rows; the diagonal ones force b_ii^k = 0) for all k and
    i <= j, less those that vanish in the x_is.  Condition (1) needs no
    rows: a symmetric or skew map has right partial maps
    B(-, z) = +-B(z, -), which are derivations.  Every basis element is
    re-verified against both defining conditions and its symmetry; a
    failure raises InternalInconsistency.
    """
    if mode not in ("symmetric", "skew"):
        raise ValueError(f"unknown symmetry mode: {mode!r}")
    n = alg.dim
    sign = -1 if mode == "symmetric" else 1
    ders = _primitive_derivations(alg)
    d = len(ders)
    at = _entries_at(ders, n * n)

    def rows() -> Iterator[dict[int, int]]:
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    row = {i * d + s: v for s, v in at[k * n + j]}
                    for s, v in at[k * n + i]:
                        col = j * d + s
                        row[col] = row.get(col, 0) + sign * v
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        yield row

    kernel = kernel_of_rows(rows(), n * d)
    return _checked(alg, _lift(kernel, ders, n), mode)


# ---------------------------------------------------------------------------
# Bracket of biderivations


@dataclass(frozen=True)
class ClosureReport:
    """Whether componentwise matrix commutators stay inside the space.

    When closed, ``constants`` holds the induced bracket on the canonical
    basis as a structure-constant table ((a, b, c) -> coefficient, a < b);
    otherwise ``witness`` is the first failing basis pair with its
    commutator tuple.
    """

    closed: bool
    bider_dim: int
    constants: Optional[dict[tuple[int, int, int], Fraction]]
    witness: Optional[tuple[int, int, Biderivation]]


def bider_bracket_closure(alg: LieAlgebra) -> ClosureReport:
    """Test closure of the biderivation space under {B, C}_k = [B_k, C_k]."""
    space = biderivation_space(alg)
    basis = space.basis_elements()
    constants: dict[tuple[int, int, int], Fraction] = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            comm = Biderivation(
                tuple(
                    commutator(ma, mb)
                    for ma, mb in zip(basis[a].mats, basis[b].mats)
                )
            )
            coeffs = space.space.coefficients_of(comm.flatten())
            if coeffs is None:
                return ClosureReport(False, space.dim, None, (a, b, comm))
            for c, coeff in enumerate(coeffs):
                if coeff:
                    constants[(a, b, c)] = coeff
    return ClosureReport(True, space.dim, constants, None)


# ---------------------------------------------------------------------------
# Two-step nilpotent structure


@dataclass(frozen=True)
class TwoStepReport:
    """Structural facts about a biderivation of a two-step algebra.

    Checks that B maps L x L' and L' x L into L' and vanishes on L' x L',
    where L' = [L, L] is central.  ``failures`` lists every witnessed
    violation as (kind, indices) with kind one of "right-central",
    "left-central", "central-pair".
    """

    passed: bool
    checks: int
    failures: tuple[tuple[str, tuple[int, int]], ...]


def two_step_properties(alg: LieAlgebra, cand: Biderivation) -> TwoStepReport:
    """Verify the two-step structural containments for a biderivation.

    Raises NotTwoStep unless 0 != [L, L] <= Z(L), and NotBiderivation when
    the candidate fails the defining conditions.
    """
    derived = derived_subalgebra(alg)
    centre = center_space(alg)
    rel = subspace_compare(derived, centre)
    if derived.dim == 0 or rel not in (
        SubspaceRelation.EQUAL,
        SubspaceRelation.LEFT_IN_RIGHT,
    ):
        raise NotTwoStep(
            "two-step analysis requires 0 != [L, L] contained in the center"
        )
    violation = biderivation_violation(alg, cand)
    if violation is not None:
        raise NotBiderivation(violation)
    n = alg.dim
    basis = [alg.basis_element(t) for t in range(n)]
    central = derived.basis
    failures: list[tuple[str, tuple[int, int]]] = []
    checks = 0
    for i in range(n):
        for z_idx, z in enumerate(central):
            checks += 1
            if not derived.contains(cand.evaluate(basis[i], z)):
                failures.append(("right-central", (i, z_idx)))
            checks += 1
            if not derived.contains(cand.evaluate(z, basis[i])):
                failures.append(("left-central", (z_idx, i)))
    for a, za in enumerate(central):
        for b, zb in enumerate(central):
            checks += 1
            if any(cand.evaluate(za, zb)):
                failures.append(("central-pair", (a, b)))
    return TwoStepReport(not failures, checks, tuple(failures))
