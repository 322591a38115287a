"""Biderivations of a Lie algebra, each kept as one canonical sparse row.

A bilinear map B: L x L -> L is a biderivation when both partial maps are
derivations:

    (1)  B([x, y], z) = [x, B(y, z)] + [B(x, z), y]
    (2)  B(x, [y, z]) = [B(x, y), z] + [y, B(x, z)]

B is given by its coefficients b_ij^k = beta_k(e_i, e_j), the k-th
coordinate of B(e_i, e_j), at position k*n^2 + i*n + j (k outermost).
`Biderivation` keeps the nonzero ones as one sparse integer row over the
lcm of their denominators; the coordinate matrices F(B) = (B_1, ..., B_n),
(B_k)_ij = b_ij^k, are its dense view `Biderivation.mats`.

Condition (2) says that every left partial map B(e_i, -) is a derivation.
The solver therefore writes B(e_i, -) = sum_s x_is D_s over a family of
derivations D_1, ..., D_d that spans Der(L), so condition (2) holds by
construction and there are n*d unknowns x_is instead of n^3.  Condition (1)
needs no rows of its own.  The swap B^t(x, y) = B(y, x) turns condition (1)
for B^t into condition (2) for B and back, so it maps biderivations to
biderivations, and B = (B + B^t)/2 + (B - B^t)/2 gives BiDer = Sym (+) Skew.
A symmetric or skew B whose left partial maps are derivations has right
partial maps B(-, z) = +-B(z, -), which are derivations too.  So the
symmetric and the skew biderivations are the kernels of the symmetry rows
b_ij^k -+ b_ji^k = 0 (i <= j) alone (`derivations._symmetry_rows`), and the
full space is spanned by both.
On a complete algebra (`derivations.is_complete`: Z(L) = 0 and
Der(L) = ad(L)) the family is S * ad_{e_s}: every B(x, -) is inner,
ad_{phi(x)} with phi(x) unique and linear in x, so B(x, y) = [phi(x), y]
and x_is = phi[s, i].  B is symmetric exactly when phi is skew-commuting
(phi^T in V+) and skew exactly when phi is commuting (phi^T in V-), and by
the Jacobi identity every such phi gives a biderivation.  So the kernels
are `derivations.skew_commuting_map_space` and `commuting_map_space`,
solved once per algebra.  On any other input the family consists of the
integer rows of Der(L) (`Subspace.rows`).  The integer kernel rows in the
x_is are summed sparse into Q^(n^3), straight into elimination (`_lift`),
and canonicalised.  Each canonical row is a basis element as it stands
(its lead is the lcm of the denominators of its RREF row); the checks read
it regrouped by basis pair, in the integer layout of the bracket table
(`Biderivation._int_values`).  Every basis element is re-checked by
`biderivation_violation`, and in a mode `classify_symmetry` must return
that mode.  The checker shares no assembly code with the solver: it sums
both conditions in integers, over the nonzero products of the bracket table
(scaled by the lcm S of its denominators) and of `_int_values` alone.
Condition (2) of B is condition (1) of the swap B^t, so one residual
(`liealg._leibniz_residual`, which the Jacobi scan shares) serves both.
The tests compare every mode against the direct system of 2*n^4 rows in the
n^3 unknowns b_ij^k (`constraint_rows` in ``tests/oracles.py``), and the
checker against the dense `Fraction` scan it replaced
(`dense_biderivation_violation`).

On complete algebras every biderivation factors as
B(x, y) = [phi(x), y] = [x, psi(y)].  B(e_i, -) = ad_{phi(e_i)}, so phi(e_i)
combines the preimages of `LieAlgebra._ad_split` by the entries b_ij^k of B
at the pivots (k, j) of ad(L), and psi(e_j) by -b_ij^k at (k, i)
(`derivations._preimage_at_pivots`).  The factorization is then checked in
integers on every basis pair (`_bilinear`), which also proves each partial
map inner.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Literal, NamedTuple, Optional, Sequence

from .liealg import IntTable, LieAlgebra, _bilinear, _leibniz_residual, _scaled_table
from .linalg import (
    Matrix,
    Row,
    Scalar,
    Subspace,
    Vector,
    _dense,
    as_vector,
    commutator,
    kernel_of_rows,
)
from .derivations import (
    _adjoint_family,
    _preimage_at_pivots,
    _symmetry_rows,
    commuting_map_space,
    derivation_space,
    is_complete,
    skew_commuting_map_space,
)
from .liealg import center as center_space
from .liealg import _evaluate, derived_subalgebra, structure_matrices


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


class _BiderivationFields(NamedTuple):
    dim: int
    den: int
    row: Row


class Biderivation(_BiderivationFields):
    """A bilinear map L x L -> L as its canonical sparse integer row
    ((k*n^2 + i*n + j, den * b_ij^k), ...) over the nonzero b_ij^k, ``den``
    the lcm of their denominators, so ``==`` decides equality of maps.  The
    fields sit in a NamedTuple base, as for `LieAlgebra`."""

    @cached_property
    def mats(self) -> tuple[Matrix, ...]:
        """The coordinate matrices (B_1, ..., B_n), a dense view for the edge."""
        n, nn, flat = self.dim, self.dim * self.dim, self.flatten()
        return tuple(Matrix.from_flat(flat[k * nn : k * nn + nn], n, n) for k in range(n))

    @cached_property
    def _int_values(self) -> tuple[int, IntTable]:
        """(den, (i, j) -> ((k, den * b_ij^k), ...)) as `LieAlgebra._int_table`,
        regrouped from ``row``."""
        n, nn = self.dim, self.dim * self.dim
        entries = ((divmod(p % nn, n), p // nn, v) for p, v in self.row)
        return self.den, _scaled_table(entries)[1]

    @staticmethod
    def from_flat(values: Sequence[Scalar], n: int) -> "Biderivation":
        if len(values) != n * n * n:
            raise ValueError("flat length does not match n^3")
        flat = as_vector(values)
        den = math.lcm(*(v.denominator for v in flat))
        return Biderivation(n, den, tuple((p, v.numerator * den // v.denominator)
                                          for p, v in enumerate(flat) if v))

    def flatten(self) -> Vector:
        """k-outermost flattening: b_ij^k at position k*n^2 + i*n + j."""
        return _dense(self.row, self.dim ** 3, self.den)

    def evaluate(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """B(x, y); coordinate k equals x^T B_k y, summed over nonzero x_i, y_j."""
        return _evaluate(self._int_values, self.dim, x, y)

    @staticmethod
    def zero(n: int) -> "Biderivation":
        return Biderivation(n, 1, ())


class BiderViolation(NamedTuple):
    """First failing instance of a defining condition on basis triples."""

    condition: int  # 1 or 2
    triple: tuple[int, int, int]
    residual: Vector  # left-hand side minus right-hand side of the condition


class _BiderivationSpaceFields(NamedTuple):
    algebra_dim: int
    space: Subspace


class BiderivationSpace(_BiderivationSpaceFields):
    """The space of all biderivations as a canonical subspace of Q^(n^3);
    its fields sit in a NamedTuple base, as for `LieAlgebra`."""

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def _elements(self) -> tuple[Biderivation, ...]:
        # a primitive row over its lead L has lcm of denominators exactly L
        n = self.algebra_dim
        return tuple(Biderivation(n, row[0][1], row) for row in self.space.rows)

    def basis_elements(self) -> tuple[Biderivation, ...]:
        """The canonical basis, one element per row of ``space``, built once."""
        return self._elements


# ---------------------------------------------------------------------------
# Constraint assembly


def _lift(xs: Iterable[Row], family: list[dict[int, int]], n: int) -> Subspace:
    """Canonical span in Q^(n^3) of the sparse rows ``xs`` in the x_is.

    Coordinates follow b_ij^k = sum_s x_is D_s[k, j], with x_is at column
    s*n + i and D_s the sparse ``family[s]``.  Each x gives one sparse row
    (of integers when x is a kernel row), summed into `Subspace._span_rows`.
    """
    nn = n * n
    # spread[s]: (position of b_0j^k, D_s[k, j]); row i adds i*n
    spread = [[(p // n * nn + p % n, v) for p, v in mat.items()] for mat in family]

    def rows() -> Iterator[dict[int, Scalar]]:
        for x in xs:
            flat: dict[int, Scalar] = {}
            get = flat.get
            for col, coeff in x:
                s, shift = col // n, col % n * n
                for pos, dv in spread[s]:
                    pos += shift
                    flat[pos] = get(pos, 0) + coeff * dv
            yield flat

    return Subspace._span_rows(rows(), n * nn)


def _checked(
    alg: LieAlgebra, space: Subspace, mode: Optional[BiderSymmetryMode]
) -> BiderivationSpace:
    """Re-verify every canonical basis element with the independent checker.

    In a mode, `classify_symmetry` must also return the mode for each
    element.  A failure means the solver and the checker disagree and
    raises InternalInconsistency.
    """
    result = BiderivationSpace(alg.dim, space)
    for element in result.basis_elements():
        violation = biderivation_violation(alg, element)
        if violation is not None:
            raise InternalInconsistency(
                f"kernel basis element fails condition ({violation.condition}) "
                f"at triple {violation.triple}"
            )
        if mode is not None and classify_symmetry(element) != mode:
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
    return _biderivations_over(alg, None)


# Signs of the symmetry rows each mode solves (see
# `derivations._symmetry_rows`), and the maps phi whose B(x, y) = [phi(x), y]
# span each sign's kernel on a complete algebra.
_SIGNS = {None: (-1, 1), "symmetric": (-1,), "skew": (1,)}
_MAP_SPACES = {-1: skew_commuting_map_space, 1: commuting_map_space}


def _biderivations_over(
    alg: LieAlgebra, mode: Optional[BiderSymmetryMode]
) -> BiderivationSpace:
    """Biderivations in ``mode`` (None: all).

    On a complete algebra (`is_complete`) the family is `_adjoint_family`
    and each kernel is a map space of the correspondence.  Otherwise the
    family is the canonical rows of Der(L) and each kernel is solved from
    its symmetry rows.  The kernel rows x_is of
    B(e_i, -) = sum_s x_is D_s are lifted into Q^(n^3), where `_checked`
    re-verifies them.
    """
    n = alg.dim
    if is_complete(alg).complete:
        family = _adjoint_family(alg)
        xs = [phi for sign in _SIGNS[mode] for phi in _MAP_SPACES[sign](alg).rows]
    else:
        family = list(map(dict, derivation_space(alg).rows))
        xs = []
        for sign in _SIGNS[mode]:
            rows = _symmetry_rows(family, n, sign)
            xs.extend(kernel_of_rows(rows, n * len(family)).rows)
    return _checked(alg, _lift(xs, family, n), mode)


# ---------------------------------------------------------------------------
# Membership check


def biderivation_violation(
    alg: LieAlgebra, cand: Biderivation
) -> Optional[BiderViolation]:
    """First violated defining condition, or None when B is a biderivation.

    Triples are scanned condition outermost, then (i, j, k) lexicographic,
    and the first failure is returned.  Swapping i and j negates the
    residual of (1) and swapping j and k that of (2), so the first failure
    of (1) has i < j and that of (2) j < k.  Both are read off
    `liealg._leibniz_residual`, summed over the nonzero products of the
    table (as S * c_ij^k) and of B (as D * b_ij^k, `Biderivation._int_values`)
    one slice of i at a time: condition (2) of B at (i, j, k) is condition
    (1) of the swap B^t at (j, k, i), summed with i outermost.  Only the
    failing residual is divided back into Fractions.
    """
    n = alg.dim
    if cand.dim != n:
        raise ValueError("biderivation dimension does not match the algebra")
    (scale, table), (den, values) = alg._int_table, cand._int_values
    swapped = {(j, i): terms for (i, j), terms in values.items()}
    for condition, vals, outer in ((1, values, 0), (2, swapped, 2)):
        for triple, acc in _leibniz_residual(table, vals, n, outer):
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
        raise FactorMismatch(f"{len(scalars)} scalars for {len(factors)} direct factors")
    lams, mats = as_vector(scalars), structure_matrices(alg)
    flat = [lams[alg.block_of(k)] * v for k, m in enumerate(mats) for v in m.flatten()]
    return Biderivation.from_flat(flat, alg.dim)


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
    if cand.dim != n:
        raise ValueError("biderivation dimension does not match the algebra")
    if not 0 <= index < n:
        raise ValueError(f"basis index {index} out of range for dim {n}")
    den, values = cand._int_values
    # column t of row_map is B(e_index, e_t), of column_map B(e_t, e_index)
    row_map, column_map = (
        Matrix(n, n, tuple(zip(*(_dense(values.get(pair, ()), n, den) for pair in pairs))))
        for pairs in ([(index, t) for t in range(n)], [(t, index) for t in range(n)])
    )
    der = derivation_space(alg)
    return RowColumnReport(
        row_map,
        column_map,
        der.contains(row_map.flatten()),
        der.contains(column_map.flatten()),
    )


class PhiPsiPair(NamedTuple):
    """Linear maps with B(x, y) = [phi(x), y] = [x, psi(y)]."""

    phi: Matrix
    psi: Matrix


def extract_phi_psi(alg: LieAlgebra, cand: Biderivation) -> PhiPsiPair:
    """Recover phi and psi for a biderivation of a complete algebra.

    On a complete algebra every partial map of a biderivation is an inner
    derivation: B(e_i, -) = ad_{phi(e_i)} and B(-, e_j) = -ad_{psi(e_j)}.
    Column i of phi and of psi is read off B at the pivots of ad(L) (see
    the module docstring).  The factorization is verified on all basis
    pairs before returning.
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
    n, den, b = alg.dim, cand.den, dict(cand.row)
    # B(e_i, -) = ad_{phi(e_i)} holds b_ij^k at (k, j), and -B(-, e_j) =
    # ad_{psi(e_j)} holds -b_ij^k at (k, i): read at the pivots off the row
    pivots = [divmod(p, n) for p in alg._ad_split[0].pivots]
    phi_cols = [_preimage_at_pivots(alg, [Fraction(b.get((k * n + i) * n + j, 0), den)
                                          for k, j in pivots]) for i in range(n)]
    psi_cols = [_preimage_at_pivots(alg, [Fraction(-b.get((k * n + i) * n + j, 0), den)
                                          for k, i in pivots]) for j in range(n)]
    phi, psi = (Matrix(n, n, tuple(zip(*cols))) for cols in (phi_cols, psi_cols))
    # D S P B(e_i, e_j) = D S P [phi(e_i), e_j] = D S P [e_i, psi(e_j)] on
    # every basis pair, in integers over the table: `_scaled_table` holds
    # P phi(e_i) at (0, i) and P psi(e_j) at (1, j), P their lcm denominator.
    # So B(e_i, -) = ad_{phi(e_i)}: a partial map that is not inner fails here
    scale, table = alg._int_table
    den, values = cand._int_values
    big, maps = _scaled_table(
        ((side, i), t, u) for side, cols in enumerate((phi_cols, psi_cols))
        for i, col in enumerate(cols) for t, u in enumerate(col) if u
    )
    for i in range(n):
        for j in range(n):
            expected = {r: scale * big * v for r, v in values.get((i, j), ())}
            for got in (_bilinear(table, maps.get((0, i), ()), ((j, den),)),
                        _bilinear(table, ((i, den),), maps.get((1, j), ()))):
                if {r: v for r, v in got.items() if v} != expected:
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
    n, nn, flat = cand.dim, cand.dim * cand.dim, cand.flatten()
    swapped = [flat[p - p % nn + p % n * n + p % nn // n] for p in range(n * nn)]  # b_ji^k
    return (Biderivation.from_flat([b + c for b, c in zip(flat, swapped)], n),
            Biderivation.from_flat([b - c for b, c in zip(flat, swapped)], n))


def classify_symmetry(cand: Biderivation) -> str:
    """"symmetric", "skew", "zero" (both) or "mixed" (neither): compare the
    nonzero values of each B(e_i, e_j) with those of B(e_j, e_i)
    (symmetric) and of -B(e_j, e_i) (skew), read off
    `Biderivation._int_values`.  A pair of zeros agrees with both."""
    _, values = cand._int_values
    symmetric = all(values.get((j, i)) == terms for (i, j), terms in values.items())
    skew = all(
        values.get((j, i)) == tuple((k, -v) for k, v in terms)
        for (i, j), terms in values.items()
    )
    kinds = {(True, True): "zero", (True, False): "symmetric", (False, True): "skew"}
    return kinds.get((symmetric, skew), "mixed")


BiderSymmetryMode = Literal["symmetric", "skew"]


def constrained_biderivation_space(
    alg: LieAlgebra, mode: BiderSymmetryMode
) -> BiderivationSpace:
    """Biderivations that are symmetric (B(x,y) = B(y,x)) or skew
    (B(x,y) = -B(y,x)) as bilinear maps.

    The unknowns are the x_is of B(e_i, -) = sum_s x_is D_s over a family
    that spans Der(L), so condition (2) holds by construction.  The only
    rows are b_ij^k - b_ji^k = 0 (symmetric, n^2 (n - 1) / 2 rows) or
    b_ij^k + b_ji^k = 0 (skew, n^2 (n + 1) / 2 rows; the diagonal ones force
    b_ii^k = 0) for all k and i <= j, less those that vanish in the x_is.
    Condition (1) follows: B(-, z) = +-B(z, -) is a derivation.  On a
    complete algebra the kernel is the skew-commuting or the commuting map
    space (see `_biderivations_over`).  Every basis element is re-verified
    against both defining conditions and its symmetry; a failure raises
    InternalInconsistency.
    """
    if mode not in ("symmetric", "skew"):
        raise ValueError(f"unknown symmetry mode: {mode!r}")
    return _biderivations_over(alg, mode)


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
            comm = tuple(
                v
                for ma, mb in zip(basis[a].mats, basis[b].mats)
                for v in commutator(ma, mb).flatten()
            )
            coeffs = space.space.coefficients_of(comm)
            if coeffs is None:
                witness = Biderivation.from_flat(comm, alg.dim)
                return ClosureReport(False, space.dim, None, (a, b, witness))
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
        raise NotTwoStep("two-step analysis requires 0 != [L, L] contained in the center")
    violation = biderivation_violation(alg, cand)
    if violation is not None:
        raise NotBiderivation(violation)
    n, central = alg.dim, derived.basis
    basis = [alg.basis_element(t) for t in range(n)]
    failures: list[tuple[str, tuple[int, int]]] = []
    for i in range(n):
        for z_idx, z in enumerate(central):
            if not derived.contains(cand.evaluate(basis[i], z)):
                failures.append(("right-central", (i, z_idx)))
            if not derived.contains(cand.evaluate(z, basis[i])):
                failures.append(("left-central", (z_idx, i)))
    for a, za in enumerate(central):
        for b, zb in enumerate(central):
            if any(cand.evaluate(za, zb)):
                failures.append(("central-pair", (a, b)))
    checks = (2 * n + len(central)) * len(central)
    return TwoStepReport(not failures, checks, tuple(failures))
