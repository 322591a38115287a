"""Exact linear algebra over the rationals.

Dense matrices with `fractions.Fraction` entries, canonical subspaces and
sparse kernels.  Every subspace is stored by its unique reduced-echelon
basis, so equal inputs produce bit-identical results and subspaces can be
compared with plain ``==``; the subspace lattice offers membership, and
sum and intersection from one Zassenhaus elimination.  `Subspace.span` and
`kernel_of_rows` are the only entry points to elimination.

Elimination runs on sparse integer rows: denominators are cleared on entry,
rows are kept primitive (content 1), and pivots are rescaled to 1 only when
results are extracted.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]


class AmbientMismatch(ValueError):
    """Raised when subspaces of different ambient dimensions are combined."""


def _frac(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def as_vector(values: Iterable[Scalar]) -> Vector:
    """Coerce an iterable of rationals to a tuple of Fractions."""
    return tuple(_frac(v) for v in values)


# ---------------------------------------------------------------------------
# Dense matrices


class Matrix(NamedTuple):
    """Immutable dense matrix of Fractions, stored row-major.

    ``m[i]`` and ``for row in m`` give rows, not fields, so the namedtuple
    pickle protocol (which rebuilds from ``tuple(self)``) would pass the rows
    to the constructor; `__reduce__` passes the three fields instead, for
    `copy` and `pickle` alike.
    """

    nrows: int
    ncols: int
    data: tuple[Vector, ...]

    def __reduce__(self) -> tuple:
        return Matrix, (self.nrows, self.ncols, self.data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        data = tuple(as_vector(row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows: all rows must have equal length")
        return Matrix(nrows, ncols, data)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        row = (ZERO,) * ncols
        return Matrix(nrows, ncols, (row,) * nrows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        rows = tuple(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
        )
        return Matrix(n, n, rows)

    def __getitem__(self, i: int) -> Vector:
        return self.data[i]

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.data)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Matrix":
        rows = tuple(
            tuple(self.data[i][j] for i in range(self.nrows))
            for j in range(self.ncols)
        )
        return Matrix(self.ncols, self.nrows, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )
        return Matrix(self.nrows, self.ncols, rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )
        return Matrix(self.nrows, self.ncols, rows)

    def __neg__(self) -> "Matrix":
        rows = tuple(tuple(-a for a in row) for row in self.data)
        return Matrix(self.nrows, self.ncols, rows)

    def __mul__(self, other: Union["Matrix", Scalar]) -> "Matrix":
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = other.transpose().data
            rows = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.data
            )
            return Matrix(self.nrows, other.ncols, rows)
        c = _frac(other)
        rows = tuple(tuple(c * a for a in row) for row in self.data)
        return Matrix(self.nrows, self.ncols, rows)

    def __rmul__(self, other: Scalar) -> "Matrix":
        return self.__mul__(other)

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        vec = as_vector(v)
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def flatten(self) -> Vector:
        """Row-major flattening (row i, column j, at position i*ncols + j)."""
        return tuple(a for row in self.data for a in row)

    @staticmethod
    def from_flat(values: Sequence[Scalar], nrows: int, ncols: int) -> "Matrix":
        if len(values) != nrows * ncols:
            raise ValueError("flat length does not match shape")
        rows = tuple(
            as_vector(values[i * ncols : (i + 1) * ncols]) for i in range(nrows)
        )
        return Matrix(nrows, ncols, rows)

    def _check_shape(self, other: "Matrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """Matrix commutator a*b - b*a."""
    return a * b - b * a


# ---------------------------------------------------------------------------
# Incremental reduced-echelon engine (sparse integer rows)


class _Reducer:
    """Maintains a fully reduced echelon set of sparse primitive integer rows.

    Feeding the rows of a matrix in any order produces its unique RREF:
    pivots are the first nonzero columns, every stored row is zero in all
    other pivot columns, and rows are rescaled so pivots equal 1 only on
    extraction.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @staticmethod
    def _primitive(row: dict[int, int]) -> dict[int, int]:
        g = 0
        for v in row.values():
            g = math.gcd(g, v)
            if g == 1:
                return row
        if g > 1:
            return {c: v // g for c, v in row.items()}
        return row

    @staticmethod
    def _combine(
        scale_a: int, row_a: dict[int, int], scale_b: int, row_b: dict[int, int]
    ) -> dict[int, int]:
        """Return primitive form of scale_a*row_a - scale_b*row_b."""
        out = {c: scale_a * v for c, v in row_a.items()}
        for c, v in row_b.items():
            w = out.get(c, 0) - scale_b * v
            if w:
                out[c] = w
            else:
                out.pop(c, None)
        return _Reducer._primitive(out)

    def add(self, row: dict[int, Scalar]) -> None:
        """Reduce one row into the set (`row` is not mutated)."""
        den = 1
        for v in row.values():
            d = v.denominator
            if d != 1:
                den = den * d // math.gcd(den, d)
        work = {}
        for c, v in row.items():
            iv = v.numerator * (den // v.denominator)
            if iv:
                work[c] = iv
        if not work:
            return
        work = self._primitive(work)
        for c in sorted(k for k in work if k in self.rows):
            pivot_row = self.rows[c]
            work = self._combine(pivot_row[c], work, work[c], pivot_row)
        if not work:
            return
        piv = min(work)
        if work[piv] < 0:
            work = {c: -v for c, v in work.items()}
        for pc, stored in self.rows.items():
            coeff = stored.get(piv)
            if coeff:
                self.rows[pc] = self._combine(work[piv], stored, coeff, work)
        self.rows[piv] = work

    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def reduced_rows(self) -> list[tuple[int, dict[int, Fraction]]]:
        """Rows in pivot order, rescaled so each pivot entry is 1."""
        out = []
        for piv in sorted(self.rows):
            row = self.rows[piv]
            lead = row[piv]
            out.append((piv, {c: Fraction(v, lead) for c, v in row.items()}))
        return out


# ---------------------------------------------------------------------------
# Canonical subspaces


class Subspace(NamedTuple):
    """A linear subspace of Q^n stored by its canonical RREF basis.

    Two subspaces are equal as sets of vectors exactly when they are equal
    as values, so ``==`` decides subspace equality.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def _from_reducer(red: _Reducer, ambient_dim: int) -> "Subspace":
        rows = []
        for _piv, row in red.reduced_rows():
            out = [ZERO] * ambient_dim
            for c, v in row.items():
                out[c] = v
            rows.append(tuple(out))
        return Subspace(ambient_dim, tuple(rows), red.pivots())

    @staticmethod
    def span(vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> "Subspace":
        red = _Reducer(ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
            red.add({c: _frac(x) for c, x in enumerate(v) if x})
        return Subspace._from_reducer(red, ambient_dim)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(Matrix.identity(ambient_dim).data, ambient_dim)

    def coefficients_of(self, v: Sequence[Scalar]) -> Optional[Vector]:
        """Coordinates of ``v`` in the canonical basis, or None if outside."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        work = list(as_vector(v))
        coeffs = []
        for row_index, piv in enumerate(self.pivots):
            a = work[piv]
            coeffs.append(a)
            if a:
                basis_row = self.basis[row_index]
                for c in range(piv, self.ambient_dim):
                    b = basis_row[c]
                    if b:
                        work[c] -= a * b
        if any(work):
            return None
        return tuple(coeffs)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.coefficients_of(v) is not None


class SubspaceRelation(Enum):
    EQUAL = "equal"
    LEFT_IN_RIGHT = "left-in-right"
    RIGHT_IN_LEFT = "right-in-left"
    INCOMPARABLE = "incomparable"


def subspace_compare(left: Subspace, right: Subspace) -> SubspaceRelation:
    """Decide how two subspaces of the same ambient space relate."""
    if left.ambient_dim != right.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {left.ambient_dim} vs {right.ambient_dim}"
        )
    if left == right:
        return SubspaceRelation.EQUAL
    left_in_right = all(right.contains(v) for v in left.basis)
    if left_in_right:
        return SubspaceRelation.LEFT_IN_RIGHT
    right_in_left = all(left.contains(v) for v in right.basis)
    if right_in_left:
        return SubspaceRelation.RIGHT_IN_LEFT
    return SubspaceRelation.INCOMPARABLE


def subspace_combine(left: Subspace, right: Subspace) -> tuple[Subspace, Subspace]:
    """Return ``(sum, intersection)`` of two subspaces (Zassenhaus).

    The canonical basis of the span of the rows (u, u), for u in the left
    basis, and (v, 0), for v in the right basis, is in reduced echelon form.
    Its rows with a pivot in the first half restrict to the canonical basis
    of the sum, and every other row is zero on the first half.  The second
    halves of those rows are the canonical basis of the intersection.
    """
    if left.ambient_dim != right.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {left.ambient_dim} vs {right.ambient_dim}"
        )
    n = left.ambient_dim
    zero = (ZERO,) * n
    joint = Subspace.span(
        [u + u for u in left.basis] + [v + zero for v in right.basis], 2 * n
    )
    k = sum(1 for piv in joint.pivots if piv < n)
    total = Subspace(n, tuple(v[:n] for v in joint.basis[:k]), joint.pivots[:k])
    inter = Subspace(
        n, tuple(v[n:] for v in joint.basis[k:]), tuple(p - n for p in joint.pivots[k:])
    )
    return total, inter


def kernel_of_rows(
    rows: Iterable[dict[int, Scalar]], ncols: int
) -> Subspace:
    """Canonical basis of ``{x : row . x = 0 for every row}``.

    Each row maps a column index to its nonzero coefficient.  The
    free-variable parameterisation of the reduced rows is re-canonicalised,
    so the result is the unique reduced-echelon basis of the kernel.
    """
    red = _Reducer(ncols)
    for row in rows:
        red.add(row)
    pivot_set = set(red.rows)
    reduced = red.reduced_rows()
    vectors = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: ONE}
        for piv, row in reduced:
            val = row.get(free)
            if val:
                vec[piv] = -val
        vectors.append(vec)
    out = _Reducer(ncols)
    for vec in vectors:
        out.add(vec)
    return Subspace._from_reducer(out, ncols)
