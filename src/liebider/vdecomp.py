"""Matrix spaces attached to the structure matrices A_1, ..., A_n.

V is the space of matrices M such that M A_i = A_i Q holds for a single
matrix Q and every i; V+ and V- are the members for which every product
M A_i is symmetric (respectively skew-symmetric).  V and one witness Q per
basis matrix come from a single (M, Q) kernel; V+ and V- are the kernels of
their symmetry conditions, which imply membership in V.  On complete
algebras V = V+ (+) V- is a direct sum, and the correspondence M = phi^T
links V to the biderivation space: the coordinate matrices of a
biderivation with factorization B(x, y) = [phi(x), y] are B_k = phi^T A_k.
`verify_direct_sum` checks both with one V, V+, V- and completeness verdict.

Matrices are flattened row-major (entry (a, b) at a*n + b) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .liealg import LieAlgebra, killing_form, structure_matrices
from .linalg import ZERO, Matrix, Subspace, kernel_of_rows, subspace_combine
from .derivations import is_complete
from .biderivations import NotComplete, _factor_phi_psi, biderivation_space


@dataclass(frozen=True)
class MatrixSubspace:
    """A subspace of n x n matrices, stored flattened row-major."""

    n: int
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> tuple[Matrix, ...]:
        return tuple(
            Matrix.from_flat(v, self.n, self.n) for v in self.space.basis
        )

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())


def _joint_intertwiner_kernel(alg: LieAlgebra) -> Subspace:
    """Kernel of M A_i - A_i Q = 0 over the stacked unknowns (M, Q).

    Unknowns: M_ab at a*n + b, Q_ab at n^2 + a*n + b.  Rows are ordered by
    (i, a, b) for the (a, b) entry of the i-th matrix equation.
    """
    n = alg.dim
    mats = structure_matrices(alg)
    nn = n * n
    rows = []
    for i in range(n):
        ai = mats[i]
        for a in range(n):
            for b in range(n):
                row: dict[int, Fraction] = {}
                # (M A_i)_ab = sum_s M_as (A_i)_sb
                for s in range(n):
                    c = ai[s][b]
                    if c:
                        row[a * n + s] = row.get(a * n + s, ZERO) + c
                # -(A_i Q)_ab = -sum_s (A_i)_as Q_sb
                for s in range(n):
                    c = ai[a][s]
                    if c:
                        col = nn + s * n + b
                        row[col] = row.get(col, ZERO) - c
                rows.append({c: v for c, v in row.items() if v})
    return kernel_of_rows(rows, 2 * nn)


@dataclass(frozen=True)
class VSpace:
    """V with one witness Q per canonical basis matrix M (M A_i = A_i Q)."""

    matrices: MatrixSubspace
    witnesses: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return self.matrices.dim


def compute_V(alg: LieAlgebra) -> VSpace:
    """The space V = {M : exists Q with M A_i = A_i Q for all i}.

    The canonical basis of the joint (M, Q) kernel is in reduced echelon
    form with the M columns first, so its rows with a pivot in the M block
    restrict to the canonical basis of the projection V, and every other
    row is zero on M.  Each such row's Q part is the witness of its M part.
    """
    n = alg.dim
    nn = n * n
    joint = _joint_intertwiner_kernel(alg)
    k = sum(1 for piv in joint.pivots if piv < nn)
    rows = joint.basis[:k]
    space = Subspace(nn, tuple(v[:nn] for v in rows), joint.pivots[:k])
    witnesses = tuple(Matrix.from_flat(v[nn:], n, n) for v in rows)
    return VSpace(MatrixSubspace(n, space), witnesses)


def compute_Vpm(alg: LieAlgebra) -> tuple[MatrixSubspace, MatrixSubspace]:
    """(V+, V-): members of V with every M A_i symmetric resp. skew.

    Each is the kernel of its symmetry conditions alone: these force
    membership in V, because each A_i is skew-symmetric and so
    Q = -M^T resp. Q = M^T is a witness.
    """
    n = alg.dim
    nn = n * n
    mats = structure_matrices(alg)

    def condition_kernel(sign: int) -> Subspace:
        # (M A_i)_ba - sign * (M A_i)_ab = 0 for a <= b; sign +1 symmetric.
        rows = []
        for i in range(n):
            ai = mats[i]
            for a in range(n):
                for b in range(a, n):
                    row: dict[int, Fraction] = {}
                    for s in range(n):
                        c = ai[s][a]
                        if c:
                            col = b * n + s
                            row[col] = row.get(col, ZERO) + c
                        d = ai[s][b]
                        if d:
                            col = a * n + s
                            row[col] = row.get(col, ZERO) - sign * d
                    rows.append({c: v for c, v in row.items() if v})
        return kernel_of_rows(rows, nn)

    return (
        MatrixSubspace(n, condition_kernel(1)),
        MatrixSubspace(n, condition_kernel(-1)),
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    """Biderivation space versus V on a complete algebra.

    ``transposed_phis_in_v`` records that phi^T of every canonical basis
    biderivation lies in V, and ``dims_equal`` that the two spaces have the
    same dimension.  On semisimple algebras the decomposition collapses:
    V+ = 0 and dim V- equals the number of direct factors.
    """

    bider_dim: int
    v_dim: int
    dims_equal: bool
    transposed_phis_in_v: bool
    semisimple: bool
    factor_count: int
    vplus_dim: int
    vminus_dim: int
    semisimple_shape_ok: Optional[bool]
    ok: bool


@dataclass(frozen=True)
class DirectSumReport:
    """Whether V+ (+) V- = V, with all dimensions and the completeness flag.

    ``correspondence`` is None unless the algebra is complete.
    """

    v_dim: int
    vplus_dim: int
    vminus_dim: int
    intersection_dim: int
    sum_equals_v: bool
    is_direct_sum: bool
    complete: bool
    correspondence: Optional[CorrespondenceReport]


def verify_direct_sum(alg: LieAlgebra) -> DirectSumReport:
    """Decide V = V+ (+) V-; on a complete algebra also the correspondence."""
    v = compute_V(alg)
    vplus, vminus = compute_Vpm(alg)
    total, inter = subspace_combine(vplus.space, vminus.space)
    sum_equals_v = total == v.matrices.space
    complete = is_complete(alg).complete
    return DirectSumReport(
        v.dim,
        vplus.dim,
        vminus.dim,
        inter.dim,
        sum_equals_v,
        sum_equals_v and inter.dim == 0,
        complete,
        _correspondence(alg, v, vplus, vminus) if complete else None,
    )


def _correspondence(
    alg: LieAlgebra, v: VSpace, vplus: MatrixSubspace, vminus: MatrixSubspace
) -> CorrespondenceReport:
    """dim BiDer = dim V and phi^T in V, for a complete algebra.

    `biderivation_space` has re-checked its basis, so phi is factored
    without the premise checks of `extract_phi_psi`.
    """
    space = biderivation_space(alg)
    in_v = all(
        v.matrices.contains(_factor_phi_psi(alg, element).phi.transpose())
        for element in space.basis_elements()
    )
    dims_equal = space.dim == v.dim
    kf = killing_form(alg)
    factors = alg.factors if alg.factors is not None else (alg.dim,)
    shape_ok: Optional[bool] = None
    if kf.semisimple:
        shape_ok = vplus.dim == 0 and vminus.dim == len(factors)
    ok = dims_equal and in_v and (shape_ok is not False)
    return CorrespondenceReport(
        space.dim,
        v.dim,
        dims_equal,
        in_v,
        kf.semisimple,
        len(factors),
        vplus.dim,
        vminus.dim,
        shape_ok,
        ok,
    )


def bider_V_correspondence(alg: LieAlgebra) -> CorrespondenceReport:
    """Check dim BiDer = dim V and phi^T in V on a complete algebra.

    Returns the ``correspondence`` of `verify_direct_sum`; raises
    NotComplete when the algebra is not complete.
    """
    report = verify_direct_sum(alg).correspondence
    if report is None:
        raise NotComplete(
            "the biderivation/V correspondence requires a complete algebra"
        )
    return report
