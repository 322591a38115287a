"""Exact linear algebra: examples plus algebraic invariants."""

import math
import pathlib
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import liebider
from liebider.linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    _dense,
    kernel_beside,
    kernel_of_rows,
    split_span,
    subspace_combine,
)

import oracles

F = Fraction


# ---------------------------------------------------------------------------
# Strategies

entries = st.builds(
    F,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_rows(data)


@st.composite
def vector_lists(draw, ambient=4, max_count=4):
    count = draw(st.integers(min_value=0, max_value=max_count))
    return draw(
        st.lists(
            st.lists(entries, min_size=ambient, max_size=ambient),
            min_size=count,
            max_size=count,
        )
    )


# ---------------------------------------------------------------------------
# Matrix basics


def test_matrix_arithmetic_and_shapes():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.identity(2)
    assert a * b == a
    assert oracles.is_zero(a - a)
    assert (a + a) == 2 * a
    assert a.transpose().transpose() == a
    assert a.apply((1, 0)) == (F(1), F(3))
    assert oracles.trace(a) == 5
    assert Matrix.from_flat(a.flatten(), 2, 2) == a
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        a * Matrix.zeros(3, 3)


def _sparse_rows(m):
    return [{c: v for c, v in enumerate(row) if v} for row in m]


def _assert_canonical_rows(space):
    """The stored rows of a canonical subspace: nonzero ints in ascending
    columns, content 1, a positive lead at the row's own pivot and zero at
    every other pivot; the RREF view is 1 at its own pivot and 0 at the
    others."""
    assert list(space.pivots) == sorted(set(space.pivots))
    assert len(space.rows) == len(space.pivots) == space.dim
    for row, piv in zip(space.rows, space.pivots):
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= c < space.ambient_dim for c in cols)
        assert all(type(v) is int and v for _, v in row)
        assert row[0][0] == piv and row[0][1] > 0
        assert math.gcd(*(v for _, v in row)) == 1
        assert not set(cols) & set(space.pivots) - {piv}
    for v, piv in zip(space.basis, space.pivots):
        assert all(v[p] == (p == piv) for p in space.pivots)


def test_rref_examples():
    # Subspace.span keeps the nonzero rows of the reduced row-echelon form
    s = Subspace.span(Matrix.zeros(2, 2), 2)
    assert s.dim == 0 and s.pivots == () and s.basis == ()
    s = Subspace.span(Matrix.from_rows([[0, 1], [1, 0]]), 2)
    assert s.basis == Matrix.identity(2).data and s.dim == 2
    s = Subspace.span(Matrix.from_rows([[2, 4], [1, 2]]), 2)
    assert s.basis == ((F(1), F(2)),)
    assert s.pivots == (0,) and s.dim == 1
    # fractional pivots normalize exactly
    s = Subspace.span(Matrix.from_rows([[F(1, 2), F(1, 3)]]), 2)
    assert s.basis == ((F(1), F(2, 3)),)


def test_kernel_examples():
    k = kernel_of_rows([{0: 1, 1: 1}], 2)
    assert k.dim == 1
    assert k.basis == ((F(1), F(-1)),)
    assert kernel_of_rows(_sparse_rows(Matrix.identity(3)), 3).dim == 0
    full = kernel_of_rows(_sparse_rows(Matrix.zeros(2, 3)), 3)
    assert full.dim == 3
    assert full == Subspace.full(3)


def test_subspace_membership_and_coefficients():
    s = Subspace.span([(1, 0, 1), (0, 1, 1)], 3)
    assert s.dim == 2
    assert s.contains((1, 1, 2))
    assert not s.contains((1, 1, 3))
    assert not s.contains((1, 1, 0))  # zero where the combination is 2
    coeffs = s.coefficients_of((2, 3, 5))
    assert coeffs is not None
    rebuilt = [F(0)] * 3
    for c, row in zip(coeffs, s.basis):
        for t in range(3):
            rebuilt[t] += c * row[t]
    assert tuple(rebuilt) == (F(2), F(3), F(5))
    with pytest.raises(AmbientMismatch):
        s.contains((1, 0))


@settings(max_examples=80)
@given(
    vector_lists(ambient=5),
    st.lists(entries, min_size=4, max_size=4),
    st.lists(entries, min_size=5, max_size=5),
)
def test_coefficients_at_pivots_match_elimination(vecs, combo, extra):
    """Coordinates read at the pivots equal those of the elimination loop,
    and are None exactly for a vector outside the subspace."""
    s = Subspace.span(vecs, 5)
    inside = tuple(
        sum((c * row[t] for c, row in zip(combo, s.basis)), F(0)) for t in range(5)
    )
    probes = [inside, tuple(extra), tuple(a + b for a, b in zip(inside, extra))]
    free = [c for c in range(5) if c not in s.pivots]
    if free:  # zero at every pivot, nonzero at a free column: outside
        probes.append(tuple(a + (c == free[0]) for c, a in enumerate(inside)))
    cleared = [c for c in free if inside[c]]
    if cleared:  # a member with a free entry set to 0: outside
        probes.append(tuple(F(0) if c == cleared[0] else a for c, a in enumerate(inside)))
    for v in probes:
        expected = oracles.eliminated_coefficients(s, v)
        assert s.coefficients_of(v) == expected
        assert (expected is None) == (Subspace.span([*s.basis, v], 5).dim > s.dim)
    assert s.coefficients_of(inside) == tuple(combo[: s.dim])
    if free:
        assert s.coefficients_of(probes[3]) is None
    if cleared:
        assert s.coefficients_of(probes[4]) is None


@given(vector_lists())
def test_span_rows_of_sparse_rows_equals_dense_span(vecs):
    """The sparse door and the dense `Subspace.span` agree, with a zero row,
    a repeated row, integer entries and generator inputs."""
    dense = [*vecs, [F(0)] * 4, *vecs[:1], [2, 0, 0, -4]]
    expected = Subspace.span(dense, 4)
    rows = _sparse_rows(dense)
    _assert_canonical_rows(expected)
    assert Subspace._span_rows(rows, 4) == expected
    assert Subspace._span_rows(iter(rows), 4) == expected
    assert Subspace.span((v for v in dense), 4) == expected
    assert Subspace._span_rows([{}, {2: 3}, {2: F(1, 3)}], 4) == Subspace.span(
        [(0, 0, 1, 0)], 4
    )


def test_span_of_a_generator_checks_each_length():
    with pytest.raises(AmbientMismatch):
        Subspace.span((v for v in [(1, 0, 0), (1, 0)]), 3)


def test_only_linalg_names_the_elimination_engine():
    """Every other module reaches elimination through `Subspace._span_rows`,
    `Subspace.span` or `kernel_of_rows`, never through `_Reducer`."""
    package = pathlib.Path(liebider.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "_Reducer" in p.read_text())
    assert naming == ["linalg.py"]


def test_subspace_combine_examples():
    a = Subspace.span([(1, 0, 0), (0, 1, 0)], 3)
    b = Subspace.span([(0, 1, 0), (0, 0, 1)], 3)
    total, inter = subspace_combine(a, b)
    assert total == Subspace.full(3)
    assert inter == Subspace.span([(0, 1, 0)], 3)
    total, inter = subspace_combine(a, Subspace.zero(3))
    assert total == a and inter.dim == 0


# ---------------------------------------------------------------------------
# Invariants


@given(matrices())
def test_rref_is_idempotent(m):
    s = Subspace.span(m, m.ncols)
    again = Subspace.span(s.basis, m.ncols)
    assert (again.basis, again.pivots, again.dim) == (s.basis, s.pivots, s.dim)


@given(matrices())
def test_rank_nullity(m):
    rank = Subspace.span(m, m.ncols).dim
    assert rank + kernel_of_rows(_sparse_rows(m), m.ncols).dim == m.ncols


@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    kernel = kernel_of_rows(_sparse_rows(m), m.ncols)
    _assert_canonical_rows(kernel)
    for v in kernel.basis:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_stops_at_full_rank():
    def rows():
        yield {0: 1, 1: 1}
        yield {1: 2}
        raise AssertionError("read past full rank")

    assert kernel_of_rows(rows(), 2) == Subspace.zero(2)
    known = Subspace.span([(0, 0, 1)], 3)
    assert kernel_beside(known, rows(), 3) is known
    with pytest.raises(AmbientMismatch):
        kernel_beside(known, [], 4)


@given(matrices(max_rows=4, max_cols=6), st.data())
def test_kernel_beside_any_known_part(m, data):
    # Any subspace of the kernel, even 0 or the whole kernel, gives the same
    # canonical kernel as elimination without it.
    whole = kernel_of_rows(_sparse_rows(m), m.ncols)
    mix = data.draw(
        st.lists(
            st.lists(entries, min_size=whole.dim, max_size=whole.dim),
            max_size=whole.dim + 1,
        )
    )
    combos = [
        [sum((a * v[c] for a, v in zip(coeffs, whole.basis)), F(0))
         for c in range(m.ncols)]
        for coeffs in mix
    ]
    known = Subspace.span(combos, m.ncols)
    assert kernel_beside(known, _sparse_rows(m), m.ncols) == whole
    assert kernel_beside(whole, _sparse_rows(m), m.ncols) is whole


@given(vector_lists(), vector_lists())
def test_combine_dimension_formula(lvecs, rvecs):
    s = Subspace.span(lvecs, 4)
    t = Subspace.span(rvecs, 4)
    total, inter = subspace_combine(s, t)
    _assert_canonical_rows(total)
    _assert_canonical_rows(inter)
    assert total.dim + inter.dim == s.dim + t.dim
    for v in s.basis + t.basis:
        assert total.contains(v)
    for v in inter.basis:
        assert s.contains(v) and t.contains(v)
    # both results are canonical, so `==` decides equality with them
    assert total == Subspace.span(s.basis + t.basis, 4)
    assert inter == Subspace.span(inter.basis, 4)


@given(vector_lists(ambient=5, max_count=5), st.integers(min_value=0, max_value=5))
def test_split_span_projects_and_pairs_tails(vecs, n):
    joint = Subspace.span(vecs, 5)
    head, tails, lower = split_span(joint, n)
    assert head == Subspace.span([v[:n] for v in vecs], n)
    _assert_canonical_rows(head)
    _assert_canonical_rows(lower)
    # each RREF row of the projection keeps its own sparse tail (nonzero
    # values in ascending columns), and the other rows are the members of
    # the span that vanish on the first n columns
    assert len(tails) == head.dim
    for h, t in zip(head.basis, tails):
        cols = [c for c, _ in t]
        assert cols == sorted(set(cols)) and all(v for _, v in t)
        assert joint.contains(h + _dense(t, 5 - n))
    for v in lower.basis:
        assert joint.contains((F(0),) * n + v)
    assert head.dim + lower.dim == joint.dim
    assert lower == Subspace.span(lower.basis, 5 - n)


def test_split_span_divides_each_head_by_its_content():
    # the canonical row (2, 0 | 1) has head (2, 0): the projection stores
    # (1, 0), and the tail 1/2 pairs with the RREF row (1, 0 | 1/2)
    head, tails, lower = split_span(Subspace.span([(2, 0, 1)], 3), 2)
    assert head.rows == (((0, 1),),) and head == Subspace.span([(1, 0)], 2)
    assert tails == (((0, F(1, 2)),),) and lower == Subspace.zero(1)


@given(vector_lists(), st.randoms(use_true_random=False))
def test_span_is_canonical_under_row_operations(vecs, rng):
    s = Subspace.span(vecs, 4)
    mangled = [list(v) for v in vecs]
    rng.shuffle(mangled)
    if len(mangled) >= 2:
        # add a multiple of one generator to another: same span
        mangled[0] = [
            a + 3 * b for a, b in zip(mangled[0], mangled[1])
        ]
    if mangled:
        mangled.append([2 * a for a in mangled[0]])
    assert Subspace.span(mangled, 4) == s


@st.composite
def redundant_systems(draw, max_cols=12, max_base=4, max_rows=14):
    """Sparse rows in the style of the Der systems: a few base rows with
    Fraction entries plus many integer combinations of them, shuffled."""
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    sparse = st.one_of(st.just(F(0)), st.just(F(0)), entries)  # mostly zero
    base = draw(st.lists(st.lists(sparse, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=max_base))
    combos = draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=len(base), max_size=len(base)),
        max_size=max_rows - len(base),
    ))
    rows = base + [
        [sum(k * row[c] for k, row in zip(coeffs, base)) for c in range(ncols)]
        for coeffs in combos
    ]
    return draw(st.permutations(rows)), ncols


def _sympy_fraction(x):
    return F(int(x.p), int(x.q))


@settings(max_examples=60)
@given(redundant_systems())
def test_elimination_matches_sympy_on_redundant_rows(system):
    rows, ncols = system
    ref, ref_pivots = sp.Matrix(rows).rref()
    ref_basis = tuple(
        tuple(_sympy_fraction(x) for x in ref.row(i)) for i in range(len(ref_pivots))
    )
    span = Subspace.span(rows, ncols)
    assert (span.basis, span.pivots) == (ref_basis, tuple(ref_pivots))
    null = [[_sympy_fraction(x) for x in v] for v in sp.Matrix(rows).nullspace()]
    kernel = kernel_of_rows(_sparse_rows(rows), ncols)
    assert kernel == Subspace.span(null, ncols)
