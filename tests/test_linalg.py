"""Exact linear algebra: examples plus algebraic invariants."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from liebider.linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
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
    # each projection row keeps its own tail, and the other rows are the
    # members of the span that vanish on the first n columns
    for h, t in zip(head.basis, tails):
        assert joint.contains(h + t)
    for v in lower.basis:
        assert joint.contains((F(0),) * n + v)
    assert head.dim + lower.dim == joint.dim
    assert lower == Subspace.span(lower.basis, 5 - n)


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
