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
and there are n*d unknowns x_is instead of n^3.  Condition (1) needs no rows
of its own.  The swap B^t(x, y) = B(y, x) turns condition (1) for B^t into
condition (2) for B and back, so it maps biderivations to biderivations,
and B = (B + B^t)/2 + (B - B^t)/2 gives BiDer = Sym (+) Skew.  A symmetric
or skew B whose left partial maps are derivations has right partial maps
B(-, z) = +-B(z, -), which are derivations too.  So the symmetric and the
skew biderivations are the kernels of the symmetry rows
b_ij^k -+ b_ji^k = 0 (i <= j) alone, and the full space is spanned by both.
When the Jacobi identity holds, the brackets pi_C [x, y] on the ideals C
of `LieAlgebra._components` are known skew biderivations, so the skew
kernel starts from them and stops once the rank proves there are no others
(`linalg.kernel_beside`).
On a complete algebra (Z(L) = 0 and Der(L) = ad(L)) no symmetry row is
built.  There every B(x, -) is inner, ad_{phi(x)} with phi(x) unique and
linear in x, so B(x, y) = [phi(x), y]; B is symmetric exactly when phi is
skew-commuting (phi^T in V+) and skew exactly when phi is commuting
(phi^T in V-), and by the Jacobi identity every such phi gives a
biderivation.  So Sym and Skew are the lifts of
`derivations.skew_commuting_map_space` and `commuting_map_space`: the same
canonical spans as the symmetry kernels, so every output is unchanged.
The kernels in the x_is are mapped back into Q^(n^3) in integers (`_lift`:
each kernel vector is scaled by the lcm of its denominators and its
coordinates are summed sparse, straight into elimination) and
canonicalised; the CLI renders its reports from these canonical rows.
Every basis element is re-checked by `biderivation_violation`, and in a
mode its symmetry is checked in place on its canonical row.  The checker
shares no assembly code with the solver: it scans both conditions on the
n^2 (n - 1) basis triples that can fail first, in integers, over the
bracket table scaled by the lcm S of its denominators and the nonzero
values of B scaled by the lcm D of theirs.  Condition (2) of B is
condition (1) of the swap B^t, so one residual (`liealg._leibniz_residual`,
which the Jacobi scan shares) serves both.
The tests compare every mode against the direct system of 2*n^4 rows in the
n^3 unknowns b_ij^k (`constraint_rows` in ``tests/oracles.py``), and the
checker against the dense `Fraction` scan it replaced
(`dense_biderivation_violation`).

On complete algebras every biderivation factors as
B(x, y) = [phi(x), y] = [x, psi(y)] for linear maps phi, psi recovered here
by adjoint preimages.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import Iterator, Literal, NamedTuple, Optional, Sequence

from .liealg import LieAlgebra, _leibniz_residual, structure_matrices, validate
from .linalg import (
    ZERO,
    Matrix,
    Scalar,
    Subspace,
    Vector,
    _Reducer,
    as_vector,
    commutator,
    kernel_beside,
)
from .derivations import (
    CenterNonzero,
    NotInner,
    ad_preimage,
    commuting_map_space,
    derivation_space,
    is_complete,
    skew_commuting_map_space,
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


class Biderivation(NamedTuple):
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
        """B(x, y); coordinate k equals x^T B_k y, summed over nonzero x_i, y_j."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element length does not match the map dimension")
        xs = [(i, xi) for i, xi in enumerate(as_vector(x)) if xi]
        ys = [(j, yj) for j, yj in enumerate(as_vector(y)) if yj]
        return tuple(
            sum((xi * yj * mat.data[i][j] for i, xi in xs for j, yj in ys), ZERO)
            for mat in self.mats
        )

    @staticmethod
    def zero(n: int) -> "Biderivation":
        return Biderivation(tuple(Matrix.zeros(n, n) for _ in range(n)))


class BiderViolation(NamedTuple):
    """First failing instance of a defining condition on basis triples."""

    condition: int  # 1 or 2
    triple: tuple[int, int, int]
    residual: Vector  # left-hand side minus right-hand side of the condition


class BiderivationSpace(NamedTuple):
    """The space of all biderivations as a canonical subspace of Q^(n^3)."""

    algebra_dim: int
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_elements(self) -> tuple[Biderivation, ...]:
        """The canonical basis as coordinate matrices, sliced from its rows."""
        n = self.algebra_dim
        return tuple(
            Biderivation(
                tuple(
                    Matrix(n, n, tuple(v[r : r + n] for r in range(k, k + n * n, n)))
                    for k in range(0, n * n * n, n * n)
                )
            )
            for v in self.space.basis
        )


# ---------------------------------------------------------------------------
# Constraint assembly


def _primitive_derivations(der: Subspace) -> list[list[int]]:
    """Canonical basis D_1, ..., D_d of Der(L), each a primitive integer vector."""
    out = []
    for vec in der.basis:
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


def _symmetry_rows(
    at: list[tuple[tuple[int, int], ...]], n: int, d: int, sign: int
) -> Iterator[dict[int, int]]:
    """b_ij^k + sign * b_ji^k = 0 for all k and i <= j, in the x_is.

    ``at`` comes from `_entries_at`; column i*d + s holds x_is, and
    b_ij^k = sum_s x_is D_s[k, j].  Sign -1 gives the symmetric rows, whose
    diagonal ones vanish; sign +1 gives the skew rows, whose diagonal ones
    force b_ii^k = 0.  Rows are ordered by (k, i, j); zero rows are skipped.
    """
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


def _bracket_parts(alg: LieAlgebra, der: Subspace, ders: list[list[int]]) -> Subspace:
    """The skew biderivations pi_C [x, y] in the x_is, one per ideal C of
    `LieAlgebra._components` with a nonzero bracket.

    pi_C [x, y] = [pi_C x, y] = [x, pi_C y], so both partial maps are inner
    derivations and B(e_i, -) is ad_{e_i} for i in C, else 0.  The caller
    certifies that ad(L) lies in the span of the D_s; each D_s is 0 at the
    other pivots p_t of the canonical ``der``, so
    ad_{e_i} = sum_s (ad_{e_i})[p_s] / D_s[p_s] * D_s, with
    (ad_{e_i})[k*n + j] = c_ij^k at p_s = k*n + j.
    """
    n, d = alg.dim, len(ders)
    parts = []
    for block in alg._components:
        x = [ZERO] * (n * d)
        for i in block:
            for s, p in enumerate(der.pivots):
                k, j = divmod(p, n)
                c = dict(alg.pair_terms(i, j)).get(k)
                if c:
                    x[i * d + s] = c / ders[s][p]
        if any(x):
            parts.append(x)
    return Subspace.span(parts, n * d)


def _lift(xs: list[Vector], ders: list[list[int]], n: int) -> Subspace:
    """Canonical span in Q^(n^3) of the vectors ``xs`` in the x_is.

    Coordinates follow b_ij^k = sum_s x_is D_s[k, j].  Each x is scaled by
    the lcm of its denominators, which leaves its span unchanged, so the
    coordinates are summed as integers and go to elimination sparse.
    """
    nn = n * n
    d = len(ders)
    # spread[s]: (position of b_0j^k, D_s[k, j]); row i adds i*n
    spread = [
        [(p // n * nn + p % n, v) for p, v in enumerate(der) if v] for der in ders
    ]
    red = _Reducer(n * nn)
    for x in xs:
        terms = [(col, v) for col, v in enumerate(x) if v]
        den = math.lcm(*(v.denominator for _, v in terms))
        flat: dict[int, int] = {}
        get = flat.get
        for col, v in terms:
            i, s = divmod(col, d)
            coeff, shift = v.numerator * (den // v.denominator), i * n
            for pos, dv in spread[s]:
                pos += shift
                flat[pos] = get(pos, 0) + coeff * dv
        red.add(flat)
    return Subspace._from_reducer(red, n * nn)


def _checked(
    alg: LieAlgebra, space: Subspace, mode: Optional[BiderSymmetryMode]
) -> BiderivationSpace:
    """Re-verify every canonical basis element with the independent checker.

    In a mode, each nonzero b_ij^k of an element must also equal +-b_ji^k,
    read in place in its canonical row (a zero b_ij^k is checked from its
    mirror's side).  A failure means the solver and the checker disagree
    and raises InternalInconsistency.
    """
    n = alg.dim
    nn = n * n
    sign = -1 if mode == "skew" else 1
    result = BiderivationSpace(n, space)
    for vec, element in zip(space.basis, result.basis_elements()):
        violation = biderivation_violation(alg, element)
        if violation is not None:
            raise InternalInconsistency(
                f"kernel basis element fails condition ({violation.condition}) "
                f"at triple {violation.triple}"
            )
        if mode is None:
            continue
        for p, v in enumerate(vec):
            if v:
                i, j = divmod(p % nn, n)
                # b_ji^k sits at k*n^2 + j*n + i
                if vec[p + (j - i) * (n - 1)] != sign * v:
                    raise InternalInconsistency(f"kernel basis element is not {mode}")
    return result


def biderivation_space(alg: LieAlgebra) -> BiderivationSpace:
    """All biderivations, solved over Der(L) and re-checked element by element.

    The swap B(x, y) -> B(y, x) maps biderivations to biderivations, so
    BiDer = Sym (+) Skew.  The space is therefore the canonical span in
    Q^(n^3) of the symmetric and the skew kernels of
    `constrained_biderivation_space`, which equals the kernel of the direct
    2*n^4 x n^3 system.  Every basis element is re-verified against both
    defining conditions; a failure raises InternalInconsistency.
    """
    return _biderivations_over(alg, derivation_space(alg))


# Signs of the symmetry rows each mode solves (see `_symmetry_rows`), and
# the maps phi whose B(x, y) = [phi(x), y] span each sign's kernel on a
# complete algebra (see `_correspondence_kernels`).
_SIGNS = {None: (-1, 1), "symmetric": (-1,), "skew": (1,)}
_MAP_SPACES = {-1: skew_commuting_map_space, 1: commuting_map_space}


def _biderivations_over(
    alg: LieAlgebra, der: Subspace, mode: Optional[BiderSymmetryMode] = None
) -> BiderivationSpace:
    """Biderivations in ``mode`` (None: all) for a caller that holds Der(L).

    When Z(L) = 0 and ``der`` is ad(L), the algebra is complete and the
    kernels come from the maps phi of the correspondence
    (`_correspondence_kernels`); otherwise from the symmetry rows over the
    canonical basis of ``der`` (`_derivation_kernels`).  Both give the
    vectors x_is of B(e_i, -) = sum_s x_is D_s for a family D_s whose lift
    is the same canonical span in Q^(n^3), which `_checked` re-verifies.
    """
    inner, _, centre = alg._ad_split
    if not centre.dim and der == inner:
        xs, ders = _correspondence_kernels(alg, mode)
    else:
        xs, ders = _derivation_kernels(alg, der, mode)
    return _checked(alg, _lift(xs, ders, alg.dim), mode)


def _correspondence_kernels(
    alg: LieAlgebra, mode: Optional[BiderSymmetryMode]
) -> tuple[list[Vector], list[list[int]]]:
    """(x_ir, D_r) of the biderivations B(x, y) = [phi(x), y] in ``mode``
    of a complete algebra (see the module docstring).

    B(e_i, -) = sum_r phi[r, i] ad_{e_r}, so the D_r are the integer
    adjoint matrices S * ad_{e_r}, read off `LieAlgebra._int_table`, and
    x_ir = phi[r, i]; the scale S leaves the span `_lift` takes unchanged.
    """
    n = alg.dim
    ads = [[0] * (n * n) for _ in range(n)]
    for (r, j), terms in alg._int_table[1].items():
        for k, c in terms:
            ads[r][k * n + j] = c
    # phi[r, i] sits at r*n + i, and x_ir at column i*n + r
    xs = [
        tuple(phi[r * n + i] for i in range(n) for r in range(n))
        for sign in _SIGNS[mode]
        for phi in _MAP_SPACES[sign](alg).basis
    ]
    return xs, ads


def _derivation_kernels(
    alg: LieAlgebra, der: Subspace, mode: Optional[BiderSymmetryMode]
) -> tuple[list[Vector], list[list[int]]]:
    """(x_is, D_s): one kernel of the symmetry rows per sign ``mode``
    needs, over the canonical basis D_s of ``der``.

    Every caller's ``der`` contains ad(L) when the Jacobi identity holds
    (it is Der(L), or ad(L) on a complete algebra), so the skew kernel then
    starts from the certified `_bracket_parts`; the symmetric one, and the
    skew one off Jacobi, start from the zero space (`kernel_beside`).
    """
    n = alg.dim
    ders = _primitive_derivations(der)
    d = len(ders)
    at = _entries_at(ders, n * n)
    xs: list[Vector] = []
    for sign in _SIGNS[mode]:
        known = (
            _bracket_parts(alg, der, ders)
            if sign > 0 and validate(alg) is None
            else Subspace.zero(n * d)
        )
        xs.extend(kernel_beside(known, _symmetry_rows(at, n, d, sign), n * d).basis)
    return xs, ders


# ---------------------------------------------------------------------------
# Membership check


def biderivation_violation(
    alg: LieAlgebra, cand: Biderivation
) -> Optional[BiderViolation]:
    """First violated defining condition, or None when B is a biderivation.

    Triples are scanned condition outermost, then (i, j, k) lexicographic,
    and the scan stops at the first failure, which is returned.  Swapping
    i and j negates the residual of (1), and swapping j and k negates that
    of (2), so the diagonal residuals are 0 and the first failure of (1)
    has i < j, that of (2) j < k: only those triples are scanned.

    Both conditions run through `liealg._leibniz_residual`, over the
    bracket table read as S * c_ij^k and the nonzero b_ij^k read as
    D * b_ij^k with D the lcm of their denominators; only the failing
    triple's residual is divided back into Fractions.
    """
    n = alg.dim
    if cand.dim != n:
        raise ValueError("biderivation dimension does not match the algebra")
    scale, table = alg._int_table
    nonzero = [
        (i, j, k, v)
        for k, mat in enumerate(cand.mats)
        for i, row in enumerate(mat.data)
        for j, v in enumerate(row)
        if v
    ]
    den = math.lcm(*(v.denominator for _, _, _, v in nonzero))
    # values[(i, j)]: [(k, D * b_ij^k), ...], the nonzero coordinates of B(e_i, e_j)
    values: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j, k, v in nonzero:
        values.setdefault((i, j), []).append((k, v.numerator * (den // v.denominator)))
    # condition (2) of B at (i, j, k) is condition (1) of B^t at (j, k, i)
    swapped = {(j, i): terms for (i, j), terms in values.items()}
    scans = chain(
        ((1, (i, j, k), values, (i, j, k))
         for i in range(n) for j in range(i + 1, n) for k in range(n)),
        ((2, (i, j, k), swapped, (j, k, i))
         for i in range(n) for j in range(n) for k in range(j + 1, n)),
    )
    for condition, triple, vals, (a, b, c) in scans:
        acc = _leibniz_residual(table, vals, a, b, c)
        if any(acc.values()):
            residual = tuple(Fraction(acc.get(r, 0), scale * den) for r in range(n))
            return BiderViolation(condition, triple, residual)
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


class RowColumnReport(NamedTuple):
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


class PhiPsiPair(NamedTuple):
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
    # S B(e_i, e_j) = S [phi(e_i), e_j] = S [e_i, psi(e_j)] on every basis
    # pair, summed over the integer table
    scale, table = alg._int_table

    def scaled_bracket(terms: Iterator[tuple[tuple[int, int], Fraction]]):
        acc: dict[int, Fraction] = {}
        for pair, u in terms:
            for r, c in table.get(pair, ()):
                acc[r] = acc.get(r, 0) + u * c
        return {r: v for r, v in acc.items() if v}

    for i in range(n):
        for j in range(n):
            expected = {
                r: scale * m.data[i][j] for r, m in enumerate(cand.mats) if m.data[i][j]
            }
            left = scaled_bracket(((t, j), u) for t, u in enumerate(phi_cols[i]) if u)
            right = scaled_bracket(((i, t), u) for t, u in enumerate(psi_cols[j]) if u)
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

    The unknowns are the x_is of B(e_i, -) = sum_s x_is D_s over the
    canonical basis of Der(L), so condition (2) holds by construction.  The
    only rows are b_ij^k - b_ji^k = 0 (symmetric, n^2 (n - 1) / 2 rows) or
    b_ij^k + b_ji^k = 0 (skew, n^2 (n + 1) / 2 rows; the diagonal ones force
    b_ii^k = 0) for all k and i <= j, less those that vanish in the x_is.
    Condition (1) follows: B(-, z) = +-B(z, -) is a derivation.  A complete
    algebra needs no row (see `_biderivations_over`).  Every basis
    element is re-verified against both defining conditions and its
    symmetry; a failure raises InternalInconsistency.
    """
    if mode not in ("symmetric", "skew"):
        raise ValueError(f"unknown symmetry mode: {mode!r}")
    return _biderivations_over(alg, derivation_space(alg), mode)


# ---------------------------------------------------------------------------
# Bracket of biderivations


class ClosureReport(NamedTuple):
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


class TwoStepReport(NamedTuple):
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
    if derived.dim == 0 or not all(centre.contains(v) for v in derived.basis):
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
