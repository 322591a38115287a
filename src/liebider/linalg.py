"""Exact linear algebra over the rationals.

Dense matrices with `fractions.Fraction` entries, canonical subspaces and
sparse kernels.  Every subspace is stored by its unique reduced-echelon
basis, so equal inputs produce bit-identical results and subspaces can be
compared with plain ``==``; the subspace lattice offers membership, and
sum and intersection from one Zassenhaus elimination (`split_span`).
Every canonical subspace comes from `Subspace._span_rows` over sparse rows
{column: value}; `Subspace.span` (dense vectors) and `kernel_of_rows` go
through it, and no other module drives elimination.  A canonical basis row
is 1 at its own pivot and 0 at the others, so `Subspace.coefficients_of`
reads the coordinates of a vector at the pivots.

Elimination stops as soon as the rank proves the answer.  `kernel_of_rows`
stops reading rows once the rank reaches the number of columns, since the
kernel is then 0.  `kernel_beside` takes a canonical part K of the kernel
that its caller certifies (K lies in the kernel of every row); the unit
rows e_p at the pivots p of K cut out a complement of K, so
ker A = K (+) ker [E_K; A], and once the rows read so far give the stacked
system full rank the kernel is K itself.  The row iterables are lazy, so
the rows after the stop are never assembled.

Elimination (`_Reducer`) runs on sparse integer rows: denominators are
cleared on entry, rows are kept primitive (content 1) with a positive
lead, and pivots are rescaled to 1 only when results are extracted.  The
stored rows stay fully reduced: each is zero in every other pivot column.
So a new row clears all the pivots it meets in one integer accumulation,
and a column index (`_Reducer.users`) sends a new pivot only to the stored
rows that are nonzero in its column.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
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


def _check_length(v: Sequence, n: int) -> None:
    if len(v) != n:
        raise AmbientMismatch(f"vector of length {len(v)} in ambient dimension {n}")


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

    Feeding the rows of a matrix in any order produces its unique RREF.

    - ``rows`` maps each pivot column to its stored row: a primitive integer
      row whose first nonzero entry, the lead, sits at the pivot and is
      positive.  Invariant: every stored row is zero in every other pivot
      column.
    - ``users`` maps each non-pivot column to the set of pivots whose stored
      row is nonzero there.  A new pivot is back-substituted only into the
      rows it names, instead of a scan over every stored row.

    Rows are rescaled so pivots equal 1 only by `Subspace._span_rows`.
    """

    def __init__(self, ncols: int) -> None:
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row
        self.users: dict[int, set[int]] = {}  # non-pivot column -> pivots

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

    def _reduce(self, work: dict[int, int]) -> dict[int, int]:
        """Primitive form of ``work`` with every pivot column cleared.

        With H the pivots that ``work`` meets and L the lcm of their leads,
        ``L*work - sum((L*work[c] // lead_c) * row_c for c in H)`` is zero in
        every pivot column, since each ``row_c`` is zero in the other pivots.
        Clearing the pivots one at a time, each step scaling by a positive
        lead and dividing by a positive gcd, gives a positive multiple of
        this sum, so both reach the same primitive row.
        """
        rows = self.rows
        hit = [c for c in work if c in rows]
        if not hit:
            return self._primitive(work)
        lcm = 1
        for c in hit:
            lead = rows[c][c]
            if lead != 1:
                lcm = lcm * lead // math.gcd(lcm, lead)
        acc = {c: lcm * v for c, v in work.items()} if lcm != 1 else dict(work)
        get = acc.get
        for c in hit:
            row = rows[c]
            f = lcm // row[c] * work[c]
            for k, v in row.items():
                acc[k] = get(k, 0) - f * v
        return self._primitive({k: v for k, v in acc.items() if v})

    def add(self, row: dict[int, Scalar]) -> None:
        """Reduce one row into the set (`row` is not mutated)."""
        den = 1
        for v in row.values():
            d = v.denominator
            if d != 1:
                den = den * d // math.gcd(den, d)
        work = self._reduce(
            {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        )
        if not work:
            return
        piv = min(work)
        lead = work[piv]
        if lead < 0:
            work = {c: -v for c, v in work.items()}
            lead = -lead
        rows, users = self.rows, self.users
        tail = [(c, v) for c, v in work.items() if c != piv]
        for c, _ in tail:
            users.setdefault(c, set()).add(piv)
        for pc in users.pop(piv, ()):
            # stored := primitive(lead * stored - coeff * work), zero at piv
            stored = rows[pc]
            coeff = stored[piv]
            out = {c: lead * v for c, v in stored.items()} if lead != 1 else dict(stored)
            del out[piv]
            get = out.get
            for c, v in tail:
                w = get(c, 0) - coeff * v
                if w:
                    out[c] = w
                    users[c].add(pc)
                else:
                    del out[c]
                    users[c].discard(pc)
            rows[pc] = self._primitive(out)
        rows[piv] = work


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
    def _span_rows(rows: Iterable[dict[int, Scalar]], ambient_dim: int) -> "Subspace":
        """Canonical span of sparse rows {column: value} in Q^ambient_dim:
        the reduced rows in pivot order, each rescaled so its pivot is 1."""
        red = _Reducer(ambient_dim)
        for row in rows:
            red.add(row)
        pivots = tuple(sorted(red.rows))
        basis = []
        for piv in pivots:
            row = red.rows[piv]
            lead, out = row[piv], [ZERO] * ambient_dim
            for c, v in row.items():
                out[c] = Fraction(v, lead)
            basis.append(tuple(out))
        return Subspace(ambient_dim, tuple(basis), pivots)

    @staticmethod
    def span(vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> "Subspace":
        def row(v: Sequence[Scalar]) -> dict[int, Scalar]:
            _check_length(v, ambient_dim)
            return {c: _frac(x) for c, x in enumerate(v) if x}

        return Subspace._span_rows(map(row, vectors), ambient_dim)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span(Matrix.identity(ambient_dim).data, ambient_dim)

    def coefficients_of(self, v: Sequence[Scalar]) -> Optional[Vector]:
        """Coordinates of ``v`` in the canonical basis, its entries at the
        pivots, or None if ``v`` differs from their combination (outside)."""
        _check_length(v, self.ambient_dim)
        work = list(as_vector(v))
        coeffs = tuple(work[p] for p in self.pivots)
        for a, piv, row in zip(coeffs, self.pivots, self.basis):
            if a:
                for c in range(piv, self.ambient_dim):
                    b = row[c]
                    if b:
                        work[c] -= a * b
        if any(work):
            return None
        return coeffs

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.coefficients_of(v) is not None


def split_span(
    joint: Subspace, n: int
) -> tuple[Subspace, tuple[Vector, ...], Subspace]:
    """Zassenhaus split of a canonical subspace at column ``n``.

    The basis rows with a pivot in the first ``n`` columns restrict there
    to the canonical basis of the projection onto them; the other rows are
    zero there.  Returns the projection, the tail (from column ``n`` on) of
    each of its rows, and the canonical span of the other rows' tails.
    """
    k = sum(1 for piv in joint.pivots if piv < n)
    head, tails = joint.basis[:k], tuple(v[n:] for v in joint.basis)
    lower = tuple(p - n for p in joint.pivots[k:])
    return (
        Subspace(n, tuple(v[:n] for v in head), joint.pivots[:k]),
        tails[:k],
        Subspace(joint.ambient_dim - n, tails[k:], lower),
    )


def subspace_combine(left: Subspace, right: Subspace) -> tuple[Subspace, Subspace]:
    """Return ``(sum, intersection)`` of two subspaces (Zassenhaus).

    `split_span` at n of the span of the rows (u, u), for u in the left
    basis, and (v, 0), for v in the right basis, gives the sum as the
    projection and the intersection as the rows that vanish on the first
    half.
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
    total, _, inter = split_span(joint, n)
    return total, inter


def kernel_of_rows(
    rows: Iterable[dict[int, Scalar]], ncols: int
) -> Subspace:
    """Canonical basis of ``{x : row . x = 0 for every row}``.

    Each row maps a column index to its nonzero coefficient.  Rows are read
    only until the rank reaches ``ncols``: the kernel is then 0, whatever
    the rows left unread.  The free-variable parameterisation of the
    reduced rows (x_f = 1 and x_p = -row_p[f] / lead_p over the rows that
    ``users`` lists for f) is re-canonicalised, so the result is the unique
    reduced-echelon basis of the kernel.
    """
    red = _Reducer(ncols)
    if ncols:
        for row in rows:
            red.add(row)
            if len(red.rows) == ncols:
                break
    stored, users = red.rows, red.users
    free_vectors = (
        {f: ONE, **{p: Fraction(-stored[p][f], stored[p][p]) for p in users.get(f, ())}}
        for f in range(ncols) if f not in stored
    )
    return Subspace._span_rows(free_vectors, ncols)


def kernel_beside(
    known: Subspace, rows: Iterable[dict[int, Scalar]], ncols: int
) -> Subspace:
    """`kernel_of_rows` for a caller that holds part of the kernel.

    The caller certifies that ``known`` lies in the kernel of every row.
    Each basis row of the canonical ``known`` is 1 at its pivot p and 0 at
    its other pivots, so any x in the kernel minus sum x_p (row at p) is a
    kernel vector that vanishes at every pivot of ``known``:
    ker A = known (+) ker [E_K; A], with E_K the unit rows e_p.  Those rows
    go first, so elimination stops (see `kernel_of_rows`) as soon as the
    rows read prove that ``known`` is the whole kernel, and ``known`` itself
    is returned.  Otherwise the result is the canonical span of both parts.
    """
    if known.ambient_dim != ncols:
        raise AmbientMismatch(
            f"known part in ambient dimension {known.ambient_dim}, not {ncols}"
        )
    rest = kernel_of_rows(chain(({p: 1} for p in known.pivots), rows), ncols)
    if not rest.dim:
        return known
    if not known.dim:
        return rest
    return Subspace.span(known.basis + rest.basis, ncols)
