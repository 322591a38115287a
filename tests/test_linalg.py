"""Exact linear algebra: examples plus algebraic invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liebider.linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    SubspaceRelation,
    kernel_of_rows,
    subspace_combine,
    subspace_compare,
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
    coeffs = s.coefficients_of((2, 3, 5))
    assert coeffs is not None
    rebuilt = [F(0)] * 3
    for c, row in zip(coeffs, s.basis):
        for t in range(3):
            rebuilt[t] += c * row[t]
    assert tuple(rebuilt) == (F(2), F(3), F(5))
    with pytest.raises(AmbientMismatch):
        s.contains((1, 0))


def test_subspace_compare_relations():
    plane = Subspace.span([(1, 0, 0), (0, 1, 0)], 3)
    line = Subspace.span([(1, 1, 0)], 3)
    other = Subspace.span([(0, 0, 1)], 3)
    assert subspace_compare(plane, plane) is SubspaceRelation.EQUAL
    assert subspace_compare(line, plane) is SubspaceRelation.LEFT_IN_RIGHT
    assert subspace_compare(plane, line) is SubspaceRelation.RIGHT_IN_LEFT
    assert subspace_compare(line, other) is SubspaceRelation.INCOMPARABLE
    with pytest.raises(AmbientMismatch):
        subspace_compare(line, Subspace.zero(2))


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
    for v in kernel_of_rows(_sparse_rows(m), m.ncols).basis:
        assert all(x == 0 for x in m.apply(v))


@given(vector_lists(), vector_lists())
def test_combine_dimension_formula(lvecs, rvecs):
    s = Subspace.span(lvecs, 4)
    t = Subspace.span(rvecs, 4)
    total, inter = subspace_combine(s, t)
    assert total.dim + inter.dim == s.dim + t.dim
    for v in s.basis + t.basis:
        assert total.contains(v)
    for v in inter.basis:
        assert s.contains(v) and t.contains(v)
    # both results are canonical, so `==` decides equality with them
    assert total == Subspace.span(s.basis + t.basis, 4)
    assert inter == Subspace.span(inter.basis, 4)


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
