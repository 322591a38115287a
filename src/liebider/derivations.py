"""Derivations and related linear-map spaces of a Lie algebra.

Derivations (D[x, y] = [Dx, y] + [x, Dy]), commuting maps
([f(x), y] = [x, f(y)]) and skew-commuting maps ([f(x), y] = -[x, f(y)])
are the kernels of one family of conditions
a f([x, y]) + b [f(x), y] + c [x, f(y)] = 0, with (a, b, c) = (1, -1, -1),
(0, 1, -1) and (0, 1, 1).  The unknowns are the n^2 entries of f, flattened
row-major (entry (r, t) at r*n + t, so f(e_i) is column i).  Each condition
is symmetric or antisymmetric in (x, y), so one row per basis pair i <= j
and output coordinate suffices; zero rows are dropped.

The module also computes the inner derivations (spanned by the adjoint
maps), a completeness report (trivial center and every derivation inner),
and adjoint preimages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .liealg import LieAlgebra, adjoint_matrix
from .linalg import (
    Matrix,
    Subspace,
    SubspaceRelation,
    Vector,
    kernel_of_rows,
    solve_linear,
    subspace_compare,
)
from .liealg import center as center_space


class CenterNonzero(ValueError):
    """Adjoint preimages are only well defined when the center is zero."""


class NotInner(ValueError):
    """The given matrix is not the adjoint of any element."""


def _map_rows(
    alg: LieAlgebra, a: int, b: int, c: int
) -> Iterator[dict[int, Fraction]]:
    """Rows of a f([e_i, e_j]) + b [f(e_i), e_j] + c [e_i, f(e_j)] = 0.

    One row per pair i <= j and output coordinate r, ordered by (i, j, r);
    zero rows are dropped.
    """
    n = alg.dim
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
                for t, coeff in alg._right_out.get((j, r), ()):
                    col = t * n + i
                    row[col] = row.get(col, 0) + b * coeff
                # [e_i, f(e_j)]_r = sum_t c_it^r f[t, j]
                for t, coeff in alg._left_out.get((i, r), ()):
                    col = t * n + j
                    row[col] = row.get(col, 0) + c * coeff
                row = {k: v for k, v in row.items() if v}
                if row:
                    yield row


def derivation_space(alg: LieAlgebra) -> Subspace:
    """Canonical subspace of Q^(n^2) of all derivations (row-major maps)."""
    return kernel_of_rows(_map_rows(alg, 1, -1, -1), alg.dim * alg.dim)


def inner_derivation_space(alg: LieAlgebra) -> Subspace:
    """Span of the adjoint matrices ad_{e_i}, flattened row-major."""
    n = alg.dim
    vectors = [
        adjoint_matrix(alg, alg.basis_element(i)).flatten() for i in range(n)
    ]
    return Subspace.span(vectors, n * n)


@dataclass(frozen=True)
class CompletenessReport:
    """Whether the algebra is complete: zero center and Der = ad."""

    complete: bool
    center_dim: int
    derivation_dim: int
    inner_dim: int


def is_complete(alg: LieAlgebra) -> CompletenessReport:
    c_dim = center_space(alg).dim
    der = derivation_space(alg)
    inner = inner_derivation_space(alg)
    relation = subspace_compare(der, inner)
    complete = c_dim == 0 and relation is SubspaceRelation.EQUAL
    return CompletenessReport(complete, c_dim, der.dim, inner.dim)


def commuting_map_space(alg: LieAlgebra) -> Subspace:
    """Maps f with [f(x), y] = [x, f(y)] for all x, y.

    The defect [f(x), y] - [x, f(y)] is symmetric in (x, y), so the pairs
    i <= j carry all constraints; the diagonal conditions [f(e_i), e_i] = 0
    are genuine.
    """
    return kernel_of_rows(_map_rows(alg, 0, 1, -1), alg.dim * alg.dim)


def skew_commuting_map_space(alg: LieAlgebra) -> Subspace:
    """Maps f with [f(x), y] = -[x, f(y)] for all x, y.

    The defect [f(x), y] + [x, f(y)] is antisymmetric in (x, y), so the
    pairs i < j carry all constraints and the diagonal rows vanish.
    """
    return kernel_of_rows(_map_rows(alg, 0, 1, 1), alg.dim * alg.dim)


def ad_preimage(alg: LieAlgebra, target: Matrix) -> Vector:
    """Unique u with ad_u = target, when the center is zero.

    Raises CenterNonzero when uniqueness fails a priori, and NotInner when
    ``target`` is not an adjoint matrix at all.
    """
    n = alg.dim
    if target.nrows != n or target.ncols != n:
        raise ValueError("target matrix shape does not match algebra dimension")
    if center_space(alg).dim != 0:
        raise CenterNonzero("adjoint preimage requires a trivial center")
    rows = []
    rhs = []
    for r in range(n):
        for j in range(n):
            rows.append(
                [alg.constant(i, j, r) for i in range(n)]
            )
            rhs.append(target[r][j])
    solution = solve_linear(Matrix.from_rows(rows), rhs)
    if solution is None:
        raise NotInner("matrix is not the adjoint of any element")
    return solution
