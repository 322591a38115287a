"""Matrix spaces attached to the structure matrices A_1, ..., A_n.

V is the space of matrices M such that M A_i = A_i Q holds for a single
matrix Q and every i; V+ and V- are the members for which every product
M A_i is symmetric (respectively skew-symmetric).  Writing phi = M^T, the
(a, b) entry of M A_i is the i-th coordinate of [phi(e_a), e_b], so V+ and
V- are the transposes of the skew-commuting and the commuting maps of
`derivations`, and they lie in V: each A_i is skew-symmetric, so Q = -M^T
resp. Q = M^T is a witness.  V and one witness Q per basis matrix come
from the Zassenhaus split (`linalg.split_span`) of a single (M, Q) kernel,
whose rows are read in integers off the scaled bracket table of `liealg`,
regrouped by the rows of ad (`LieAlgebra._int_ad`), beside its known part
(M, -+M^T) for M in V+ resp. V-.  Each pair of the known part is checked
against the equations first, so V does not rest on the map spaces: a map
space that came out too small leaves the rest of V to elimination, one that
held a non-member loses it, and V+ + V- = V reads false either way.  On
complete algebras V = V+ (+) V- is a direct sum, and the correspondence
M = phi^T links V to the biderivation space: the coordinate matrices of a
biderivation with factorization B(x, y) = [phi(x), y] are B_k = phi^T A_k.
`verify_direct_sum` checks both with V, V+, V- and completeness; each of
them, and its report, is computed once per algebra (`liealg._per_algebra`).

Matrices are flattened row-major (entry (a, b) at a*n + b) throughout.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .liealg import LieAlgebra, _per_algebra, killing_form
from .linalg import Matrix, Subspace, _dense, kernel_beside, split_span, subspace_combine
from .derivations import commuting_map_space, is_complete, skew_commuting_map_space
from .biderivations import NotComplete, _factor_phi_psi, biderivation_space


class MatrixSubspace(NamedTuple):
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
    (i, a, b) for the (a, b) entry of the i-th matrix equation, scaled by
    -S and read off `LieAlgebra._int_ad`.  Each A_i is skew, so the pairs
    (M, -M^T), M in V+, and (M, M^T), M in V-, lie in the kernel.  Each
    pair is checked against the equations, summed over its nonzero products
    with `_int_ad`, and those that solve them are the known part of
    `linalg.kernel_beside`: the rows stop once they prove it is all, as on
    a complete algebra.
    """
    n = alg.dim
    nn = n * n
    ad = alg._int_ad
    empty = ()

    def rows() -> Iterator[dict[int, int]]:
        for i in range(n):
            for a in range(n):
                for b in range(n):
                    # -S (M A_i)_ab = sum_t M_at (S c_bt^i)
                    row = {a * n + t: c for t, c in ad.get((b, i), empty)}
                    # S (A_i Q)_ab = sum_t (S c_at^i) Q_tb
                    for t, c in ad.get((a, i), empty):
                        row[nn + t * n + b] = c
                    yield row

    def solves(pair: dict[int, int]) -> bool:
        # S (M A_i - A_i Q)_ab at (i, a, b): M_pq adds M_pq S c_qu^i at
        # (i, p, u), and Q_pq adds Q_pq S c_pu^i at (i, u, q)
        acc: dict[tuple[int, int, int], int] = {}
        for col, x in pair.items():
            p, q = divmod(col % nn, n)
            for i in range(n):
                for u, c in ad.get((q if col < nn else p, i), empty):
                    key = (i, p, u) if col < nn else (i, u, q)
                    acc[key] = acc.get(key, 0) + c * x
        return not any(acc.values())

    # M_ab at c = a*n + b and Q_ba = -+M_ab at nn + b*n + a
    pairs = (dict(row) | {nn + c % n * n + c // n: sign * x for c, x in row}
             for sign, part in zip((-1, 1), compute_Vpm(alg)) for row in part.space.rows)
    known = Subspace._span_rows(filter(solves, pairs), 2 * nn)
    return kernel_beside(known, rows(), 2 * nn)


class VSpace(NamedTuple):
    """V with one witness Q per canonical basis matrix M (M A_i = A_i Q)."""

    matrices: MatrixSubspace
    witnesses: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return self.matrices.dim


@_per_algebra
def compute_V(alg: LieAlgebra) -> VSpace:
    """The space V = {M : exists Q with M A_i = A_i Q for all i}.

    The joint (M, Q) kernel has the M columns first, so `split_span` at n^2
    gives V as its projection, and the Q part of each row of that
    projection is the witness of the row's M part.
    """
    n = alg.dim
    space, tails, _ = split_span(_joint_intertwiner_kernel(alg), n * n)
    witnesses = tuple(Matrix.from_flat(_dense(t, n * n), n, n) for t in tails)
    return VSpace(MatrixSubspace(n, space), witnesses)


@_per_algebra
def compute_Vpm(alg: LieAlgebra) -> tuple[MatrixSubspace, MatrixSubspace]:
    """(V+, V-): members of V with every M A_i symmetric resp. skew.

    With phi = M^T, (M A_i)_ab is the i-th coordinate of [phi(e_a), e_b], so
    V+ and V- are the transposes of the skew-commuting and the commuting
    maps.  Both lie in V, because each A_i is skew-symmetric and so
    Q = -M^T resp. Q = M^T is a witness.
    """
    n = alg.dim

    def transposed(space: Subspace) -> MatrixSubspace:
        rows = ({c % n * n + c // n: x for c, x in row} for row in space.rows)
        return MatrixSubspace(n, Subspace._span_rows(rows, n * n))

    return (
        transposed(skew_commuting_map_space(alg)),
        transposed(commuting_map_space(alg)),
    )


class CorrespondenceReport(NamedTuple):
    """Biderivation space versus V on a complete algebra.

    ``transposed_phis_in_v`` records that phi^T of every canonical basis
    biderivation lies in V, and ``dims_equal`` that the two spaces have the
    same dimension.  On semisimple algebras the decomposition collapses:
    V+ = 0 and dim V- is at least the number of declared direct factors (the
    projection onto each is a commuting map); over Q it can be larger.
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


class DirectSumReport(NamedTuple):
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


@_per_algebra
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

    On a complete algebra `biderivation_space` lifts BiDer from the
    commuting and skew-commuting maps that V+ and V- were read from, and
    reads Der(L) and the completeness verdict that `verify_direct_sum`
    already solved (each once per algebra).  Its basis is re-checked, so
    phi is factored without the premise checks of `extract_phi_psi`.
    """
    space = biderivation_space(alg)
    in_v = all(
        v.matrices.contains(_factor_phi_psi(alg, element).phi.transpose())
        for element in space.basis_elements()
    )
    dims_equal = space.dim == v.dim
    kf = killing_form(alg)
    # An atomic algebra is one factor, unless it is 0-dimensional.
    factor_count = len(alg.factors) if alg.factors is not None else min(alg.dim, 1)
    shape_ok: Optional[bool] = None
    if kf.semisimple:
        shape_ok = vplus.dim == 0 and vminus.dim >= factor_count
    ok = dims_equal and in_v and (shape_ok is not False)
    return CorrespondenceReport(
        space.dim,
        v.dim,
        dims_equal,
        in_v,
        kf.semisimple,
        factor_count,
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
