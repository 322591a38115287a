"""Derivations and related linear-map spaces of a Lie algebra.

Derivations (D[x, y] = [Dx, y] + [x, Dy]), commuting maps
([f(x), y] = [x, f(y)]) and skew-commuting maps ([f(x), y] = -[x, f(y)])
are the kernels of one family of conditions
a f([x, y]) + b [f(x), y] + c [x, f(y)] = 0, with (a, b, c) = (1, -1, -1),
(0, 1, -1) and (0, 1, 1).  The unknowns are the n^2 entries of f, flattened
row-major (entry (r, t) at r*n + t, so f(e_i) is column i).  Each condition
is symmetric or antisymmetric in (x, y), so one row per basis pair i <= j
and output coordinate suffices; zero rows are dropped.  Every row is built
in integers from the scaled bracket table of `liealg`
(`LieAlgebra._int_table` and `_int_ad`), so it is S times (up to sign) the
Fraction row and has the same kernel.  `biderivations` solves over the
derivation space, and `vdecomp` reads V+ and V- off the commuting and
skew-commuting spaces.  The inner derivations, the completeness report
(trivial center and every derivation inner) and the adjoint preimages all
read `LieAlgebra._ad_split`, one span that gives Z(L), ad(L) and ad^-1.
Two systems start from a certified part of their kernel and stop once the
rank proves it is all (`linalg.kernel_beside`): Der(L) from ad(L) when the
Jacobi identity holds, and the commuting maps from the projections onto
the ideals of `LieAlgebra._components`.  On a Lie algebra with a
nondegenerate Killing form (`_semisimple`), two systems need no
elimination at all: by Cartan's criterion L is semisimple, so Der(L) is
ad(L) itself (Zassenhaus's lemma), and there is no nonzero skew-commuting
map (every biderivation is skew).  `vdecomp` and `biderivations` both read
the commuting and skew-commuting maps, so each is solved once per algebra
(`_per_algebra`).
"""

from __future__ import annotations

from functools import wraps
from typing import Callable, Iterator, NamedTuple

from .liealg import LieAlgebra, validate
from .linalg import ZERO, Matrix, Subspace, Vector, kernel_beside, kernel_of_rows
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


def _semisimple(alg: LieAlgebra) -> bool:
    """The Jacobi identity holds and the Killing form is nondegenerate, so
    L is semisimple by Cartan's criterion.

    A nonzero center lies in the radical of the Killing form, so the center
    is read first and the form is only computed when it is zero.
    """
    return (
        validate(alg) is None
        and not alg._ad_split[2].dim
        and alg._killing.semisimple
    )


def _per_algebra(
    solve: Callable[[LieAlgebra], Subspace]
) -> Callable[[LieAlgebra], Subspace]:
    """``solve`` run once per algebra, its value kept in the algebra's
    ``__dict__`` beside the cached properties of `LieAlgebra`."""
    key = f"_{solve.__name__}"

    @wraps(solve)
    def once(alg: LieAlgebra) -> Subspace:
        cache = alg.__dict__
        if key not in cache:
            cache[key] = solve(alg)
        return cache[key]

    return once


def derivation_space(alg: LieAlgebra) -> Subspace:
    """Canonical subspace of Q^(n^2) of all derivations (row-major maps).

    Every ad_x is a derivation exactly when the Jacobi identity holds, so
    on a valid table ad(L) is a certified part of the kernel.  If the
    Killing form is also nondegenerate, L is semisimple (Cartan) and every
    derivation is inner (Zassenhaus), so ad(L) is returned without a single
    row: the very object that elimination would return.  Otherwise
    elimination stops once the rows read prove Der(L) = ad(L)
    (`kernel_beside`); on an invalid table the known part is 0.
    """
    nn = alg.dim * alg.dim
    if _semisimple(alg):
        return alg._ad_split[0]
    known = alg._ad_split[0] if validate(alg) is None else Subspace.zero(nn)
    return kernel_beside(known, _map_rows(alg, 1, -1, -1), nn)


def inner_derivation_space(alg: LieAlgebra) -> Subspace:
    """Span of the adjoint matrices ad_{e_i}, flattened row-major."""
    return alg._ad_split[0]


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


@_per_algebra
def commuting_map_space(alg: LieAlgebra) -> Subspace:
    """Maps f with [f(x), y] = [x, f(y)] for all x, y.

    The defect [f(x), y] - [x, f(y)] is symmetric in (x, y), so the pairs
    i <= j carry all constraints; the diagonal conditions [f(e_i), e_i] = 0
    are genuine.  The projections onto the ideals of
    `LieAlgebra._components` commute with any antisymmetric table, so they
    are a certified part of the kernel (`kernel_beside`).  Solved once per
    algebra.
    """
    nn = alg.dim * alg.dim
    projections = []
    for block in alg._components:
        vec = [0] * nn
        for a in block:
            vec[a * alg.dim + a] = 1
        projections.append(vec)
    known = Subspace.span(projections, nn)
    return kernel_beside(known, _map_rows(alg, 0, 1, -1), nn)


@_per_algebra
def skew_commuting_map_space(alg: LieAlgebra) -> Subspace:
    """Maps f with [f(x), y] = -[x, f(y)] for all x, y.

    The defect [f(x), y] + [x, f(y)] is antisymmetric in (x, y), so the
    pairs i < j carry all constraints and the diagonal rows vanish.  Each
    such f gives a symmetric biderivation B(x, y) = [f(x), y], which is 0
    only if f maps into Z(L).  On a semisimple algebra every biderivation
    is skew and Z(L) = 0, so on the inputs that `derivation_space`
    certifies (`_semisimple`) the space is 0 and no row is built.  Solved
    once per algebra.
    """
    nn = alg.dim * alg.dim
    if _semisimple(alg):
        return Subspace.zero(nn)
    return kernel_of_rows(_map_rows(alg, 0, 1, 1), nn)


def ad_preimage(alg: LieAlgebra, target: Matrix) -> Vector:
    """Unique u with ad_u = target, when the center is zero.

    u combines the preimages that `LieAlgebra._ad_split` pairs with the
    basis of ad(L) by the coordinates of ``target`` in that basis.  Raises
    CenterNonzero when uniqueness fails a priori, and NotInner when
    ``target`` is not an adjoint matrix at all.
    """
    n = alg.dim
    if target.nrows != n or target.ncols != n:
        raise ValueError("target matrix shape does not match algebra dimension")
    inner, preimages, centre = alg._ad_split
    if centre.dim:
        raise CenterNonzero("adjoint preimage requires a trivial center")
    coords = inner.coefficients_of(target.flatten())
    if coords is None:
        raise NotInner("matrix is not the adjoint of any element")
    return tuple(
        sum((a * pre[t] for a, pre in zip(coords, preimages) if a), ZERO)
        for t in range(n)
    )
