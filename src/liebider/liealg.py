"""Finite-dimensional Lie algebras over the rationals by structure constants.

An algebra of dimension n is a bracket table on a fixed basis e_1..e_n:
[e_i, e_j] = sum_k c_ij^k e_k for i < j, extended by antisymmetry and
bilinearity.  Elements are plain coordinate tuples of Fractions.  The module
provides the bracket, adjoint matrices, the structure-matrix tuple
A_k = (c_ij^k)_ij, the center, the lower central series, the Killing form,
and direct sums.

One integer table feeds every linear system and every checker in the
package.  `LieAlgebra._int_table` holds S * c_ij^k for every ordered pair,
with S the lcm of the constant denominators, and `LieAlgebra._int_ad`
indexes the same integers as the rows of S * ad_{e_i}.  The Killing form
(K_ij summed only over the entries (r, t) of ad whose transpose (t, r) is
nonzero too), the systems of `derivations` and `vdecomp`, the Jacobi scan
and the biderivation and phi/psi checks all read them, and
`LieAlgebra._ad_split` solves ad: L -> Der(L) once from them for Z(L),
ad(L) and ad^-1.  A row scaled by +-S has the same kernel as its Fraction
row, so every result is exact and unchanged.  The Fraction table serves
`bracket` and `pair_terms` at the API edge.

Validation checks the Jacobi identity exactly on all basis triples; nothing
else in the package assumes a valid table, but every documented result does.
The scan visits only triples with a nonzero bracket among their pairs (on
the others every term vanishes).  The Jacobi sum is condition (1) of a
biderivation for the bracket itself, so the scan and the biderivation
checker share one integer residual, `_leibniz_residual`.

A table of the presentation (`_table`, `_int_table`, `_int_ad`, `_ad_split`,
`_components`) is a cached property of `LieAlgebra`.  An invariant (`validate`,
`killing_form`, Der(L), V, ...) is a public function under `_per_algebra`,
computed once per algebra and read only by that name.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, wraps
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

from .linalg import (
    ZERO,
    ONE,
    Matrix,
    Scalar,
    Subspace,
    Vector,
    as_vector,
    split_span,
    _frac,
    _Reducer,
)

ConstantKey = tuple[int, int, int]  # (i, j, k) with i < j, zero-based


class _LieAlgebraFields(NamedTuple):
    dim: int
    basis_names: tuple[str, ...]
    constants: tuple[tuple[ConstantKey, Fraction], ...]
    factors: Optional[tuple[int, ...]] = None


class LieAlgebra(_LieAlgebraFields):
    """Structure-constant presentation of a Lie algebra over Q.

    ``constants`` holds the sorted nonzero entries ((i, j, k), c) with
    i < j; the bracket of basis vectors with i >= j follows by antisymmetry.
    ``factors`` optionally records a direct-sum decomposition as consecutive
    block dimensions summing to ``dim``.

    The fields live in a private NamedTuple base, which gives equality,
    hashing and immutability by value.  This subclass declares no
    ``__slots__``, so instances have the ``__dict__`` that keeps the
    cached tables below and the invariants of `_per_algebra`.
    """

    @cached_property
    def _table(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """(i, j) -> ((k, c_ij^k), ...) for all ordered pairs i != j."""
        raw: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for (i, j, k), c in self.constants:
            raw.setdefault((i, j), []).append((k, c))
            raw.setdefault((j, i), []).append((k, -c))
        return {pair: tuple(terms) for pair, terms in raw.items()}

    @cached_property
    def _int_table(
        self,
    ) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """(S, (i, j) -> ((k, S * c_ij^k), ...)) with S the lcm of the
        constant denominators, so every entry is an integer."""
        scale = math.lcm(*(c.denominator for _, c in self.constants))
        return scale, {
            pair: tuple((k, c.numerator * (scale // c.denominator)) for k, c in terms)
            for pair, terms in self._table.items()
        }

    @cached_property
    def _int_ad(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """(i, r) -> ((t, S * c_it^r), ...): the nonzero entries of row r of
        S * ad_{e_i}, read off `_int_table`."""
        raw: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j), terms in self._int_table[1].items():
            for k, c in terms:
                raw.setdefault((i, k), []).append((j, c))
        return {key: tuple(terms) for key, terms in raw.items()}

    @cached_property
    def _ad_split(self) -> tuple[Subspace, tuple[Vector, ...], Subspace]:
        """(ad(L), a u with ad_u equal to each of its basis rows, Z(L)):
        `split_span` at n^2 of the span of the rows (S * ad_{e_i}, S * e_i),
        each fed sparse to one `_Reducer`."""
        n, nn, scale = self.dim, self.dim * self.dim, self._int_table[0]
        red = _Reducer(nn + n)
        for i, ad in enumerate(_adjoint_family(self)):
            red.add({**ad, nn + i: scale})
        return split_span(Subspace._from_reducer(red, nn + n), nn)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """Classes of basis indices, each sorted, ordered by their least.

        i, j and k share a class for every nonzero c_ij^k, so [e_i, e_j]
        lies in the span of the class of i and vanishes unless j is in that
        class: the spans of the classes are ideals that commute with each
        other, and L is their direct sum.
        """
        block = {a: {a} for a in range(self.dim)}
        for (i, j, k), _ in self.constants:
            if not block[i] is block[j] is block[k]:
                merged = block[i] | block[j] | block[k]
                for a in merged:
                    block[a] = merged
        unique = {id(b): b for b in block.values()}.values()
        return tuple(sorted(tuple(sorted(b)) for b in unique))

    def pair_terms(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero coordinates of [e_i, e_j] as ((k, c), ...)."""
        if i == j:
            return ()
        return self._table.get((i, j), ())

    def basis_element(self, i: int) -> Vector:
        return tuple(ONE if t == i else ZERO for t in range(self.dim))

    def block_of(self, index: int) -> int:
        """Direct-sum block containing basis index ``index`` (0 if atomic)."""
        blocks = self.factors if self.factors is not None else (self.dim,)
        start = 0
        for b, size in enumerate(blocks):
            if index < start + size:
                return b
            start += size
        raise IndexError(f"basis index {index} out of range for dim {self.dim}")


T = TypeVar("T")


def _per_algebra(compute: Callable[[LieAlgebra], T]) -> Callable[[LieAlgebra], T]:
    """``compute`` run once per algebra, its value kept as ``_<name>`` in
    the algebra's ``__dict__`` beside the cached tables."""
    key = f"_{compute.__name__}"

    @wraps(compute)
    def once(alg: LieAlgebra) -> T:
        cache = alg.__dict__
        if key not in cache:
            cache[key] = compute(alg)
        return cache[key]

    return once


class InvalidStructure(ValueError):
    """Raised by the constructor for malformed structure-constant input."""


def lie_algebra(
    dim: int,
    constants: Mapping[ConstantKey, Scalar],
    basis_names: Optional[Sequence[str]] = None,
    factors: Optional[Sequence[int]] = None,
) -> LieAlgebra:
    """Build a :class:`LieAlgebra`, normalizing and checking the input table.

    Keys must satisfy 0 <= i < j < dim and 0 <= k < dim; zero coefficients
    are dropped.  ``factors``, when given, must be positive block sizes
    summing to ``dim``, and every constant must stay inside one block.
    """
    if dim < 0:
        raise InvalidStructure("dimension must be nonnegative")
    if basis_names is None:
        basis_names = tuple(f"e{t + 1}" for t in range(dim))
    else:
        basis_names = tuple(basis_names)
        if len(basis_names) != dim:
            raise InvalidStructure(
                f"{len(basis_names)} basis names for dimension {dim}"
            )
        if len(set(basis_names)) != dim:
            raise InvalidStructure("basis names must be distinct")
    block_of: Optional[list[int]] = None
    norm_factors: Optional[tuple[int, ...]] = None
    if factors is not None:
        norm_factors = tuple(int(f) for f in factors)
        if any(f <= 0 for f in norm_factors):
            raise InvalidStructure("factor sizes must be positive")
        if sum(norm_factors) != dim:
            raise InvalidStructure(
                f"factor sizes {norm_factors} do not sum to dimension {dim}"
            )
        block_of = []
        for b, size in enumerate(norm_factors):
            block_of.extend([b] * size)
    cleaned: dict[ConstantKey, Fraction] = {}
    for (i, j, k), raw in constants.items():
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise InvalidStructure(f"constant index ({i},{j},{k}) out of range")
        if i >= j:
            raise InvalidStructure(
                f"constant key ({i},{j},{k}) must have i < j"
            )
        c = _frac(raw)
        if not c:
            continue
        if block_of is not None and not (
            block_of[i] == block_of[j] == block_of[k]
        ):
            raise InvalidStructure(
                f"constant ({i},{j},{k}) crosses direct-sum blocks"
            )
        cleaned[(i, j, k)] = c
    table = tuple(sorted(cleaned.items()))
    return LieAlgebra(dim, basis_names, table, norm_factors)


# ---------------------------------------------------------------------------
# Bracket and adjoint


def bracket(alg: LieAlgebra, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    """[x, y] by bilinear extension; coordinate k equals x^T A_k y."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("element length does not match algebra dimension")
    xv = as_vector(x)
    yv = as_vector(y)
    out = [ZERO] * alg.dim
    for i, xi in enumerate(xv):
        if not xi:
            continue
        for j, yj in enumerate(yv):
            if not yj:
                continue
            terms = alg.pair_terms(i, j)
            if terms:
                w = xi * yj
                for k, c in terms:
                    out[k] += w * c
    return tuple(out)


def adjoint_matrix(alg: LieAlgebra, x: Sequence[Scalar]) -> Matrix:
    """Matrix of ad_x = [x, -]; column j holds the coordinates of [x, e_j]."""
    n = alg.dim
    xv = as_vector(x)
    cols = [bracket(alg, xv, alg.basis_element(j)) for j in range(n)]
    return Matrix(n, n, tuple(tuple(cols[j][r] for j in range(n)) for r in range(n)))


def _adjoint_family(alg: LieAlgebra) -> list[dict[int, int]]:
    """The integer adjoint matrices S * ad_{e_s}, each kept sparse as
    {k*n + j: S c_sj^k}, read off `LieAlgebra._int_table`."""
    n = alg.dim
    family: list[dict[int, int]] = [{} for _ in range(n)]
    for (s, j), terms in alg._int_table[1].items():
        for k, c in terms:
            family[s][k * n + j] = c
    return family


@_per_algebra
def structure_matrices(alg: LieAlgebra) -> tuple[Matrix, ...]:
    """The tuple (A_1, ..., A_n) with (A_k)_ij = c_ij^k; each A_k is
    skew-symmetric and [x, y]_k = x^T A_k y."""
    n = alg.dim
    grids: list[list[list[Fraction]]] = [
        [[ZERO] * n for _ in range(n)] for _ in range(n)
    ]
    for (i, j, k), c in alg.constants:
        grids[k][i][j] = c
        grids[k][j][i] = -c
    return tuple(
        Matrix(n, n, tuple(tuple(row) for row in grid)) for grid in grids
    )


# ---------------------------------------------------------------------------
# Validation


class JacobiViolation(NamedTuple):
    """First basis triple where the Jacobi identity fails."""

    i: int
    j: int
    k: int
    residual: Vector  # [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]


def _jacobi_triples(
    n: int, table: Mapping[tuple[int, int], object]
) -> Iterator[tuple[int, int, int]]:
    """Triples i < j < k, in lexicographic order, with a nonzero bracket
    among [e_i, e_j], [e_j, e_k] and [e_i, e_k].

    On every other triple all three terms of the Jacobi sum vanish, so an
    algebra with P nonzero brackets costs O(P * n) triples, not C(n, 3).
    """
    edges = sorted(pair for pair in table if pair[0] < pair[1])
    above: dict[int, list[int]] = {}
    for a, b in edges:
        above.setdefault(a, []).append(b)
    last = edges[-1][0] if edges else -1
    for i in range(last + 1):
        row = above.get(i, [])
        linked = set(row)
        # past max(row) and last, [e_i, e_j], [e_i, e_k] and [e_j, e_k] all vanish
        for j in range(i + 1, max(row[-1] if row else -1, last) + 1):
            if j in linked:
                ks: Sequence[int] = range(j + 1, n)
            else:
                ks = sorted({k for k in row if k > j}.union(above.get(j, ())))
            for k in ks:
                yield i, j, k


@_per_algebra
def validate(alg: LieAlgebra) -> Optional[JacobiViolation]:
    """Check the Jacobi identity on all basis triples i < j < k.

    Returns None when the table is a Lie algebra, otherwise the
    lexicographically first violating triple with its residual vector.
    Antisymmetry holds by construction, so triples with repeats are exact,
    and only triples with a nonzero bracket among their pairs are scanned
    (`_jacobi_triples`).  Each residual is `_leibniz_residual` with the
    table as B, in integers scaled by S^2.  The CLI gate, the loaders and
    the solvers that certify ad(L) inside Der(L) share the verdict.
    """
    n = alg.dim
    scale, table = alg._int_table
    for i, j, k in _jacobi_triples(n, table):
        acc = _leibniz_residual(table, table, i, j, k)
        if any(acc.values()):
            den = scale * scale
            return JacobiViolation(
                i, j, k, tuple(Fraction(acc.get(r, 0), den) for r in range(n))
            )
    return None


def _leibniz_residual(
    table: Mapping, values: Mapping, i: int, j: int, k: int
) -> dict[int, int]:
    """B([e_i, e_j], e_k) - [e_i, B(e_j, e_k)] - [B(e_i, e_k), e_j], the
    residual of condition (1), as a sparse {r: coordinate} in integers.

    ``table`` is the integer table of `LieAlgebra._int_table` and ``values``
    maps (a, b) to the nonzero integer coordinates ((r, v), ...) of
    B(e_a, e_b).  Only the checkers call it; no solver does.
    """
    acc: dict[int, int] = {}
    # B([e_i, e_j], e_k) = sum_t c_ij^t B(e_t, e_k)
    for t, c in table.get((i, j), ()):
        for r, v in values.get((t, k), ()):
            acc[r] = acc.get(r, 0) + c * v
    # - [e_i, B(e_j, e_k)] = - sum_t b_jk^t [e_i, e_t]
    for t, v in values.get((j, k), ()):
        for r, c in table.get((i, t), ()):
            acc[r] = acc.get(r, 0) - v * c
    # - [B(e_i, e_k), e_j] = - sum_t b_ik^t [e_t, e_j]
    for t, v in values.get((i, k), ()):
        for r, c in table.get((t, j), ()):
            acc[r] = acc.get(r, 0) - v * c
    return acc


# ---------------------------------------------------------------------------
# Invariant subspaces and series


def center(alg: LieAlgebra) -> Subspace:
    """{x : [e_j, x] = 0 for all j} = ker ad, from `LieAlgebra._ad_split`."""
    return alg._ad_split[2]


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    """Span of all [e_i, e_j] over pairs i < j, one vector per pair with a
    nonzero bracket, grouped from the sorted ``constants``."""
    vectors: dict[tuple[int, int], list[Fraction]] = {}
    for (i, j, k), c in alg.constants:
        if (i, j) not in vectors:
            vectors[i, j] = [ZERO] * alg.dim
        vectors[i, j][k] = c
    return Subspace.span(list(vectors.values()), alg.dim)


class LowerCentralSeries(NamedTuple):
    """Terms L^1 >= L^2 >= ... down to stabilization.

    The listed terms start at L^1 = [L, L] and include the first term that
    repeats or vanishes.  ``nilpotency_class`` is the least k with L^k = 0
    (counting L^0 = L), or None when the series stabilizes at a nonzero
    term.
    """

    terms: tuple[Subspace, ...]
    nilpotent: bool
    nilpotency_class: Optional[int]


def lower_central_series(alg: LieAlgebra) -> LowerCentralSeries:
    n = alg.dim
    if n == 0:
        return LowerCentralSeries((Subspace.zero(0),), True, 0)
    current = derived_subalgebra(alg)
    terms = [current]
    while current.dim > 0:
        vectors = []
        for i in range(n):
            ei = alg.basis_element(i)
            for v in current.basis:
                vectors.append(bracket(alg, ei, v))
        nxt = Subspace.span(vectors, n)
        terms.append(nxt)
        if nxt == current:
            break
        current = nxt
    nilpotent = terms[-1].dim == 0
    return LowerCentralSeries(
        tuple(terms), nilpotent, len(terms) if nilpotent else None
    )


class KillingForm(NamedTuple):
    """Killing form K_ij = trace(ad_i ad_j) with its exact rank."""

    matrix: Matrix
    rank: int
    semisimple: bool  # K nondegenerate


@_per_algebra
def killing_form(alg: LieAlgebra) -> KillingForm:
    """The Killing form of ``alg``, shared by `info`, the V correspondence
    and the Der(L) = ad(L) certificate."""
    n = alg.dim
    # entries[(r, t)] = ((i, S c_it^r), ...): the nonzero (ad_{e_i})_rt
    entries: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (i, r), terms in alg._int_ad.items():
        for t, c in terms:
            entries.setdefault((r, t), []).append((i, c))
    # K_ij = sum_{r, t} (ad_i)_rt (ad_j)_tr in integers scaled by S^2; an
    # entry (r, t) adds to it only when its transpose (t, r) is nonzero too
    grid = [[0] * n for _ in range(n)]
    for (r, t), column in entries.items():
        partner = entries.get((t, r))
        if partner:
            for i, a in column:
                row = grid[i]
                for j, b in partner:
                    row[j] += a * b
    den = alg._int_table[0] ** 2
    rows = tuple(tuple(Fraction(v, den) for v in row) for row in grid)
    rank = Subspace.span(rows, n).dim
    return KillingForm(Matrix(n, n, rows), rank, rank == n)


# ---------------------------------------------------------------------------
# Direct sums


def direct_sum(left: LieAlgebra, right: LieAlgebra) -> LieAlgebra:
    """Direct sum with block-diagonal bracket.

    A zero-dimensional operand returns the other algebra unchanged.  Factor
    lists concatenate (atomic operands count as one block), so iterated sums
    stay flat.  On basis-name collision every name gets a block-side suffix.
    """
    if left.dim == 0:
        return right
    if right.dim == 0:
        return left
    n1, n2 = left.dim, right.dim
    names = left.basis_names + right.basis_names
    if len(set(names)) != n1 + n2:
        names = tuple(f"{t}_1" for t in left.basis_names) + tuple(
            f"{t}_2" for t in right.basis_names
        )
    constants: dict[ConstantKey, Fraction] = {
        key: c for key, c in left.constants
    }
    for (i, j, k), c in right.constants:
        constants[(i + n1, j + n1, k + n1)] = c
    f1 = left.factors if left.factors is not None else (n1,)
    f2 = right.factors if right.factors is not None else (n2,)
    return lie_algebra(n1 + n2, constants, names, f1 + f2)
