"""Derivations and related linear-map spaces of a Lie algebra.

Derivations (D[x, y] = [Dx, y] + [x, Dy]), commuting maps
([f(x), y] = [x, f(y)]) and skew-commuting maps ([f(x), y] = -[x, f(y)])
are the kernels of one family of conditions
a f([x, y]) + b [f(x), y] + c [x, f(y)] = 0, with (a, b, c) = (1, -1, -1),
(0, 1, -1) and (0, 1, 1).  The unknowns are the n^2 entries of f, flattened
row-major (entry (r, t) at r*n + t, so f(e_i) is column i).  Each condition
is symmetric or antisymmetric in (x, y), so one row per basis pair i <= j
and output coordinate suffices; zero rows are dropped.  Every row here, and
in `ad_preimage`, is built in integers from the scaled bracket table of
`liealg` (`LieAlgebra._int_table` and `_int_ad`), so it is S times (up to
sign) the Fraction row and has the same kernel.  `biderivations`
solves over the derivation space, and `vdecomp` reads V+ and V- off the
commuting and skew-commuting spaces.

The module also computes the inner derivations (spanned by the adjoint
maps, read off the same table), a completeness report (trivial center and
every derivation inner), and adjoint preimages.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .liealg import LieAlgebra
from .linalg import Matrix, Subspace, Vector, kernel_of_rows
from .liealg import center as center_space


class CenterNonzero(ValueError):
    """Adjoint preimages are only well defined when the center is zero."""


class NotInner(ValueError):
    """The given matrix is not the adjoint of any element."""


def _map_rows(
    alg: LieAlgebra, a: int, b: int, c: int
) -> Iterator[dict[int, int]]:
    """Rows of a f([e_i, e_j]) + b [f(e_i), e_j] + c [e_i, f(e_j)] = 0, times S.

    One row per pair i <= j and output coordinate r, ordered by (i, j, r);
    zero rows are dropped.  Entries are integers read off
    `LieAlgebra._int_table`.
    """
    n = alg.dim
    _, table = alg._int_table
    ad = alg._int_ad
    empty = ()
    for i in range(n):
        for j in range(i, n):
            pair = table.get((i, j), empty) if a else empty
            for r in range(n):
                row: dict[int, int] = {}
                # f([e_i, e_j])_r = sum_t c_ij^t f[r, t]
                for t, coeff in pair:
                    col = r * n + t
                    row[col] = row.get(col, 0) + a * coeff
                # [f(e_i), e_j]_r = -sum_t c_jt^r f[t, i]
                for t, coeff in ad.get((j, r), empty):
                    col = t * n + i
                    row[col] = row.get(col, 0) - b * coeff
                # [e_i, f(e_j)]_r = sum_t c_it^r f[t, j]
                for t, coeff in ad.get((i, r), empty):
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
    ad = alg._int_ad
    vectors = []
    for i in range(n):
        # S ad_{e_i}; entry (r, t) is S c_it^r
        flat = [0] * (n * n)
        for r in range(n):
            for t, c in ad.get((i, r), ()):
                flat[r * n + t] = c
        vectors.append(flat)
    return Subspace.span(vectors, n * n)


class CompletenessReport(NamedTuple):
    """Whether the algebra is complete: zero center and Der = ad."""

    complete: bool
    center_dim: int
    derivation_dim: int
    inner_dim: int


def is_complete(alg: LieAlgebra) -> CompletenessReport:
    c_dim = center_space(alg).dim
    der = derivation_space(alg)
    inner = inner_derivation_space(alg)
    # both are canonical (RREF) subspaces, so equality is Der(L) = ad(L)
    return CompletenessReport(c_dim == 0 and der == inner, c_dim, der.dim, inner.dim)


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

    Solves sum_i u_i ad_{e_i} - lam * target = 0 in (u, lam), with every
    row scaled by -S and read off `LieAlgebra._int_ad`.  The kernel
    contains every central element with lam = 0, so it has one basis vector
    with lam != 0 exactly when the center is zero and ``target`` is inner.
    Raises CenterNonzero when uniqueness fails a priori, and NotInner when
    ``target`` is not an adjoint matrix at all.
    """
    n = alg.dim
    if target.nrows != n or target.ncols != n:
        raise ValueError("target matrix shape does not match algebra dimension")
    scale, _ = alg._int_table
    ad = alg._int_ad
    rows = []
    for r in range(n):
        for j in range(n):
            # -S (ad_u)[r, j] = S [e_j, u]_r = sum_i (S c_ji^r) u_i
            row = dict(ad.get((j, r), ()))
            if target[r][j]:
                row[n] = scale * target[r][j]
            rows.append(row)
    kernel = kernel_of_rows(rows, n + 1)
    if kernel.dim > 1 or (kernel.dim == 1 and not kernel.basis[0][n]):
        raise CenterNonzero("adjoint preimage requires a trivial center")
    if kernel.dim == 0:
        raise NotInner("matrix is not the adjoint of any element")
    v = kernel.basis[0]
    return tuple(x / v[n] for x in v[:n])
