"""Finite-dimensional Lie algebras over the rationals by structure constants.

An algebra of dimension n is a bracket table on a fixed basis e_1..e_n:
[e_i, e_j] = sum_k c_ij^k e_k for i < j, extended by antisymmetry and
bilinearity.  Elements are plain coordinate tuples of Fractions.  The module
provides the bracket, adjoint matrices, the structure-matrix tuple
A_k = (c_ij^k)_ij, the center, the lower central series, the Killing form,
and direct sums.

One integer layout holds every bilinear map T on basis pairs:
(D, (i, j) -> ((k, D * T(e_i, e_j)_k), ...)), D the lcm of the denominators
(`_scaled_table`), summed at (x, y) by `_bilinear` (divided by D in
`_evaluate`).  `LieAlgebra._int_table` holds the bracket so (D = S),
`biderivations.Biderivation._int_values` a biderivation (its row by pair),
and `LieAlgebra._int_ad` regroups the bracket as the rows of S * ad_{e_i}.
The bracket, the systems of `derivations` (one builder over
`_adjoint_family`), the Jacobi scan and the biderivation and phi/psi checks
read the tables; only the Killing form (over the keys (t, r) of `_int_ad`
whose transpose (r, t) is nonzero too) and the (M, Q) system of `vdecomp`
read `_int_ad`, and `_ad_split` solves ad once for Z(L), ad(L) and ad^-1.
A row scaled by +-S has the same kernel as its Fraction row, so every result
is exact.  `pair_terms` reads ``constants``, the oracles' Fraction reference.

Validation checks the Jacobi identity exactly on all basis triples; nothing
else in the package assumes a valid table, but every documented result does.
The Jacobi sum is condition (1) of a biderivation for the bracket itself, so
the scan and the biderivation checker share one residual, `_leibniz_residual`,
summed over the nonzero products of the two tables alone, a slice at a time.

A table of the presentation (`_int_table`, `_int_ad`, `_ad_split`,
`_components`) is a cached property of `LieAlgebra`.  An invariant (`validate`,
`killing_form`, Der(L), V, ...) is a public function under `_per_algebra`,
computed once per algebra and read only by that name.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, wraps
from itertools import chain
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

from .linalg import (
    ZERO,
    ONE,
    Matrix,
    Row,
    Scalar,
    Subspace,
    Vector,
    as_vector,
    split_span,
    _frac,
)

ConstantKey = tuple[int, int, int]  # (i, j, k) with i < j, zero-based
# (i, j) -> ((k, D * T(e_i, e_j)_k), ...): a bilinear map T on basis pairs
IntTable = dict[tuple[int, int], tuple[tuple[int, int], ...]]


def _scaled_table(values: Iterator) -> tuple[int, IntTable]:
    """(D, table) of the map T with nonzero values ((i, j), k, T(e_i, e_j)_k),
    D the lcm of their denominators (1 for integers, which are regrouped);
    each pair keeps the order of ``values``."""
    values = list(values)
    den = math.lcm(*(v.denominator for _, _, v in values))
    raw: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pair, k, v in values:
        raw.setdefault(pair, []).append((k, v.numerator * (den // v.denominator)))
    return den, {pair: tuple(terms) for pair, terms in raw.items()}


def _bilinear(table: IntTable, xs: Sequence, ys: Sequence) -> dict[int, Scalar]:
    """D * T(x, y) as a sparse {k: value}, from the nonzero coordinates
    (i, x_i) of x and (j, y_j) of y; a value that cancels stays as a zero."""
    acc: dict[int, Scalar] = {}
    for i, xi in xs:
        for j, yj in ys:
            terms = table.get((i, j))
            if terms:
                w = xi * yj
                for k, c in terms:
                    acc[k] = acc.get(k, 0) + w * c
    return acc


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
    def _int_table(self) -> tuple[int, IntTable]:
        """(S, (i, j) -> ((k, S * c_ij^k), ...)) for all ordered pairs
        i != j, with S the lcm of the constant denominators."""
        return _scaled_table(chain.from_iterable(
            (((i, j), k, c), ((j, i), k, -c)) for (i, j, k), c in self.constants
        ))

    @cached_property
    def _int_ad(self) -> IntTable:
        """(i, r) -> ((t, S * c_it^r), ...): the nonzero entries of row r of
        S * ad_{e_i}, regrouped from `_int_table`."""
        return _scaled_table(
            ((i, k), j, c) for (i, j), terms in self._int_table[1].items() for k, c in terms
        )[1]

    @cached_property
    def _ad_split(self) -> tuple[Subspace, tuple[Row, ...], Subspace]:
        """(ad(L), a sparse u with ad_u equal to each RREF row of it, Z(L)):
        `split_span` at n^2 of the canonical span (`Subspace._span_rows`) of
        the sparse integer rows (S * ad_{e_i}, S * e_i)."""
        n, nn, scale = self.dim, self.dim * self.dim, self._int_table[0]
        rows = ({**ad, nn + i: scale} for i, ad in enumerate(_adjoint_family(self)))
        return split_span(Subspace._span_rows(rows, nn + n), nn)

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
        """Nonzero coordinates of [e_i, e_j] as ((k, c), ...), read off the
        sorted ``constants`` (not the integer table)."""
        (a, b), sign = ((i, j), 1) if i < j else ((j, i), -1)
        # ((a, b),) sorts before the keys (a, b, k), ((a, b, n),) after them
        lo = bisect_left(self.constants, ((a, b),))
        hi = bisect_left(self.constants, ((a, b, self.dim),), lo)
        return tuple((k, sign * c) for (_, _, k), c in self.constants[lo:hi])

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


def _evaluate(scaled: tuple[int, IntTable], n: int, x: Sequence, y: Sequence) -> Vector:
    """T(x, y) for the map (D, table) of `_scaled_table` on Q^n: `_bilinear`
    over the nonzero coordinates of x and y, divided by D."""
    if len(x) != n or len(y) != n:
        raise ValueError(f"element length does not match dimension {n}")
    den, table = scaled
    xs = [(i, xi) for i, xi in enumerate(as_vector(x)) if xi]
    ys = [(j, yj) for j, yj in enumerate(as_vector(y)) if yj]
    acc = _bilinear(table, xs, ys)
    return tuple(acc[k] / den if k in acc else ZERO for k in range(n))


def bracket(alg: LieAlgebra, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    """[x, y] by bilinear extension; coordinate k equals x^T A_k y."""
    return _evaluate(alg._int_table, alg.dim, x, y)


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


@_per_algebra
def validate(alg: LieAlgebra) -> Optional[JacobiViolation]:
    """Check the Jacobi identity on all basis triples i < j < k.

    Returns None when the table is a Lie algebra, otherwise the
    lexicographically first violating triple with its residual vector
    (triples with repeats hold by antisymmetry): `_leibniz_residual` with
    the table as B, in integers scaled by S^2.  The CLI gate, the loaders
    and the certificates of ad(L) in Der(L) share the verdict.
    """
    (scale, table), n = alg._int_table, alg.dim
    for triple, acc in _leibniz_residual(table, table, n):
        residual = tuple(Fraction(acc.get(r, 0), scale * scale) for r in range(n))
        return JacobiViolation(*triple, residual)
    return None


def _regroup(pairs: Mapping, rising: bool) -> tuple[dict, dict, dict]:
    """(a, b) -> ((t, v), ...) grouped by a (a -> [(b, terms), ...]), by b
    (b -> [(a, terms), ...]) and by coordinate (t -> [((a, b), v), ...], only
    a < b if ``rising``), each list descending: a scan upwards stops early."""
    groups: tuple[dict, dict, dict] = ({}, {}, {})
    for pair in sorted(pairs, reverse=True):
        (a, b), terms = pair, pairs[pair]
        groups[0].setdefault(a, []).append((b, terms))
        groups[1].setdefault(b, []).append((a, terms))
        for t, v in terms if a < b or not rising else ():
            groups[2].setdefault(t, []).append((pair, v))
    return groups


def _leibniz_residual(
    table: Mapping, values: Mapping, n: int, outer: int = 0
) -> Iterator[tuple[tuple[int, int, int], dict[int, int]]]:
    """Each nonzero residual B([e_a, e_b], e_c) - [e_a, B(e_b, e_c)] -
    [B(e_a, e_c), e_b] of condition (1) in integers, as ((o, u, w),
    {r: coordinate}) with o the index at position ``outer`` (0 or 2) of
    (a, b, c): the triples come lexicographically, a slice of o at a time.

    ``table`` is `LieAlgebra._int_table`, ``values`` maps (a, b) to the
    nonzero integer coordinates ((r, v), ...) of B(e_a, e_b).  A slice sums
    the nonzero products alone, and only a < b (the residual is
    antisymmetric in a, b), or o < u < w when B is the table itself (the
    alternating Jacobi sum).  No solver calls it.
    """
    jacobi = values is table
    loose = outer != 2 and not jacobi  # else only u < w
    ct = _regroup(table, True)
    bv = ct if jacobi else _regroup(values, False)
    # Products c_ab^t B(e_t, e_c), -b_bc^t [e_a, e_t], -b_ac^t [e_t, e_b] as
    # (sign, X, Y, first) in `_regroup`'s groupings: X at (o, e_p) or (e_p, o)
    # gives t for Y at (e_t, q) or (q, e_t), and (u, w) = (p, q) if first else
    # (q, p); if first is None, Y at (o, e_t) or (e_t, o) gives t for X(e_u, e_w).
    plan = {
        0: ((1, ct[0], bv[0], True), (-1, bv[2], ct[0], None), (-1, bv[0], ct[0], False)),
        2: ((1, ct[2], bv[1], None), (-1, bv[1], ct[1], False), (-1, bv[1], ct[0], True)),
    }[outer]
    nn = n * n
    for o in range(n):
        lo = o if outer == 0 or jacobi else -1  # only u > lo
        acc: dict[int, int] = {}
        get = acc.get
        for sign, x, y, first in plan:
            if first is None:
                for t, yterms in y.get(o, ()):
                    for (u, w), xv in x.get(t, ()):
                        if u <= lo:
                            break
                        base, coef = u * nn + w * n, sign * xv
                        for r, yv in yterms:
                            acc[base + r] = get(base + r, 0) + coef * yv
                continue
            pm, qm = (nn, n) if first else (n, nn)
            for p, xterms in x.get(o, ()):
                qlo, qhi = (-1 if loose else p, n) if first else (lo, n if loose else p)
                if (p if first else qhi - 1) <= lo:  # and so for every later p
                    break
                for t, xv in xterms:
                    coef = sign * xv
                    for q, yterms in y.get(t, ()):
                        if q <= qlo:
                            break
                        if q < qhi:
                            base = p * pm + q * qm
                            for r, yv in yterms:
                                acc[base + r] = get(base + r, 0) + coef * yv
        if any(acc.values()):
            for m in sorted({key // n for key, v in acc.items() if v}):
                yield (o, *divmod(m, n)), {r: v for r in range(n) if (v := get(m * n + r))}


# ---------------------------------------------------------------------------
# Invariant subspaces and series


def center(alg: LieAlgebra) -> Subspace:
    """{x : [e_j, x] = 0 for all j} = ker ad, from `LieAlgebra._ad_split`."""
    return alg._ad_split[2]


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    """Span of all [e_i, e_j] over pairs i < j, one sparse row S [e_i, e_j]
    per pair with a nonzero bracket, read off `LieAlgebra._int_table`."""
    pairs = alg._int_table[1].items()
    return Subspace._span_rows((dict(terms) for (i, j), terms in pairs if i < j), alg.dim)


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
    table = alg._int_table[1]
    while current.dim > 0:
        # S [e_i, v] for each canonical row v of the current term
        brackets = (_bilinear(table, ((i, 1),), v) for i in range(n) for v in current.rows)
        nxt = Subspace._span_rows(brackets, n)
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
    n, ad = alg.dim, alg._int_ad
    # K_ij = sum_{r, t} (ad_i)_rt (ad_j)_tr in integers scaled by S^2.  By
    # antisymmetry -S (ad_{e_i})_rt = S c_ti^r is the term at i of ad[(t, r)]
    # and -S (ad_{e_j})_tr that at j of ad[(r, t)], so the signs cancel; a
    # key (t, r) adds only when its transpose (r, t) is nonzero too
    grid = [[0] * n for _ in range(n)]
    for (t, r), column in ad.items():
        partner = ad.get((r, t))
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
