"""Derivations and related linear-map spaces of a Lie algebra.

Derivations (D[x, y] = [Dx, y] + [x, Dy]), commuting maps
([f(x), y] = [x, f(y)]) and skew-commuting maps ([f(x), y] = -[x, f(y)])
are kernels of sparse rows in the n^2 entries of f, flattened row-major
(entry (r, t) at r*n + t, so f(e_i) is column i).  Each condition is
symmetric or antisymmetric in (x, y), so one row per basis pair i <= j and
output coordinate suffices; zero rows are dropped.  Every row is built in
integers from the scaled bracket table of `liealg` (`LieAlgebra._int_table`),
so it is S times (up to sign) the Fraction row and has the same kernel.
One builder, `_symmetry_rows`, makes every system: the symmetry rows
b_ij^k +- b_ji^k = 0 of B(e_i, -) = sum_s x_is D_s over a family D_s.  Over
the adjoint family S * ad_{e_s}, x_is is phi[s, i] of B(x, y) = [phi(x), y];
a commuting f is the phi of a skew biderivation and a skew-commuting f that
of a symmetric one, so the signs +1 and -1 give the two map spaces, and
Der(L) is sign -1 with the bracket term -S f([e_i, e_j]) added to each row.
`biderivations` runs the same builder over a Der(L) basis, and `vdecomp`
reads V+ and V- off the two map spaces.  The inner
derivations, the completeness report (trivial center and every derivation
inner) and the adjoint preimages all read `LieAlgebra._ad_split`, one span
that gives Z(L), ad(L) and ad^-1.  `is_complete` is the one place that
decides completeness; `biderivations` and `vdecomp` read its verdict.
Two systems start from a certified part of their kernel and stop once the
rank proves it is all (`linalg.kernel_beside`): Der(L) from ad(L) when the
Jacobi identity holds, and the commuting maps from the projections onto
the ideals of `LieAlgebra._components`.  On a Lie algebra with a
nondegenerate Killing form (`_semisimple`), two systems need no
elimination at all: by Cartan's criterion L is semisimple, so Der(L) is
ad(L) itself (Zassenhaus's lemma), and there is no nonzero skew-commuting
map (every biderivation is skew).  `vdecomp` and `biderivations` both read
Der(L), completeness and the two map spaces, so each is solved once per
algebra (`liealg._per_algebra`).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .liealg import IntTable, LieAlgebra, _adjoint_family, _per_algebra, killing_form
from .liealg import center as center_space, validate
from .linalg import ZERO, Matrix, Subspace, Vector, kernel_beside, kernel_of_rows


class CenterNonzero(ValueError):
    """Adjoint preimages are only well defined when the center is zero."""


class NotInner(ValueError):
    """The given matrix is not the adjoint of any element."""


def _symmetry_rows(
    family: list[dict[int, int]], n: int, sign: int, bracket: IntTable = {}
) -> Iterator[dict[int, int]]:
    """Rows of b_ij^k + sign * b_ji^k = 0 for i <= j in the x_is of
    B(e_i, -) = sum_s x_is D_s, with D_s = ``family[s]`` = {k*n + j: D_s[k, j]}.

    x_is sits at column s*n + i.  Rows are ordered by (i, j, k); zero rows
    are dropped.  Over `liealg._adjoint_family`, x_is is phi[s, i] of
    B(x, y) = [phi(x), y], so sign -1 (symmetric B) gives the
    skew-commuting and sign +1 (skew B) the commuting maps phi.  Given
    ``bracket``, the pairs of `LieAlgebra._int_table`, each row also gets
    -S c_ij^t at column k*n + t, the term -S * phi([e_i, e_j])_k; over the
    adjoint family with sign -1 the row is then -S times the Leibniz rule
    phi([x, y]) - [phi(x), y] - [x, phi(y)] = 0 of Der(L).
    """
    # at[j][k]: the pairs (s*n, D_s[k, j])
    at: list[list[list[tuple[int, int]]]] = [[[] for _ in range(n)] for _ in range(n)]
    for s, mat in enumerate(family):
        for p, v in mat.items():
            k, j = divmod(p, n)
            at[j][k].append((s * n, v))
    for i in range(n):
        for j in range(i, n):
            left, right, pair = at[j], at[i], bracket.get((i, j), ())
            for k in range(n):
                row = {k * n + t: -c for t, c in pair}
                for s, v in left[k]:
                    col = s + i
                    row[col] = row.get(col, 0) + v
                for s, v in right[k]:
                    col = s + j
                    row[col] = row.get(col, 0) + sign * v
                row = {c: v for c, v in row.items() if v}
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
        and killing_form(alg).semisimple
    )


@_per_algebra
def derivation_space(alg: LieAlgebra) -> Subspace:
    """Canonical subspace of Q^(n^2) of all derivations (row-major maps).

    Every ad_x is a derivation exactly when the Jacobi identity holds, so
    on a valid table ad(L) is a certified part of the kernel.  If the
    Killing form is also nondegenerate, L is semisimple (Cartan) and every
    derivation is inner (Zassenhaus), so ad(L) is returned without a single
    row: the very object that elimination would return.  Otherwise
    elimination stops once the rows read prove Der(L) = ad(L)
    (`kernel_beside`); on an invalid table the known part is 0.  Solved
    once per algebra.
    """
    nn = alg.dim * alg.dim
    if _semisimple(alg):
        return alg._ad_split[0]
    known = alg._ad_split[0] if validate(alg) is None else Subspace.zero(nn)
    rows = _symmetry_rows(_adjoint_family(alg), alg.dim, -1, alg._int_table[1])
    return kernel_beside(known, rows, nn)


def inner_derivation_space(alg: LieAlgebra) -> Subspace:
    """Span of the adjoint matrices ad_{e_i}, flattened row-major."""
    return alg._ad_split[0]


class CompletenessReport(NamedTuple):
    """Whether the algebra is complete: zero center and Der = ad."""

    complete: bool
    center_dim: int
    derivation_dim: int
    inner_dim: int


@_per_algebra
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
    n = alg.dim
    projections = ({a * n + a: 1 for a in block} for block in alg._components)
    known = Subspace._span_rows(projections, n * n)
    return kernel_beside(known, _symmetry_rows(_adjoint_family(alg), n, 1), n * n)


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
    return kernel_of_rows(_symmetry_rows(_adjoint_family(alg), alg.dim, -1), nn)


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
