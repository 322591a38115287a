"""Lie algebra core: bracket, validation, invariant subspaces, sums."""

import importlib
import inspect
import pkgutil
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp
from hypothesis import given, strategies as st

import liebider
from liebider.biderivations import Biderivation
from liebider import derivations, vdecomp
from liebider.catalog import abelian, catalog, heisenberg3, l22, sl2, so3
from liebider.liealg import (
    InvalidStructure,
    LieAlgebra,
    _leibniz_residual,
    _per_algebra,
    adjoint_matrix,
    bracket,
    center,
    derived_subalgebra,
    direct_sum,
    killing_form,
    lie_algebra,
    lower_central_series,
    structure_matrices,
    validate,
)
from liebider.linalg import Matrix, Subspace

import oracles
import test_metamorphic

F = Fraction

ALL_NAMES = [
    "sl2",
    "sl3",
    "so3",
    "sl2_plus_sl2",
    "heisenberg3",
    "L22",
    "abelian(3)",
    "twostep(5,2)",
]


def _rand_elements(alg, seed=0, count=3):
    import random

    rng = random.Random(seed)
    return [
        tuple(F(rng.randint(-4, 4)) for _ in range(alg.dim))
        for _ in range(count)
    ]


def test_constructor_normalizes_and_validates():
    alg = lie_algebra(2, {(0, 1, 0): 1, (0, 1, 1): 0})
    assert alg.constants == (((0, 1, 0), F(1)),)
    with pytest.raises(InvalidStructure):
        lie_algebra(2, {(1, 0, 0): 1})
    with pytest.raises(InvalidStructure):
        lie_algebra(2, {(0, 1, 2): 1})
    with pytest.raises(InvalidStructure):
        lie_algebra(2, {}, basis_names=("a",))
    with pytest.raises(InvalidStructure):
        lie_algebra(3, {(0, 2, 0): 1}, factors=(2, 1))
    with pytest.raises(InvalidStructure):
        lie_algebra(3, {}, factors=(2, 2))


def test_bracket_matches_structure_matrices():
    """`bracket` (the integer table, divided by S) and `pair_terms` (the
    sorted constants) against the dense structure matrices, also where
    S > 1 and where the Jacobi identity fails."""
    tables = {name: (lambda name=name: catalog(name)) for name in ALL_NAMES}
    tables["sl2_scaled"] = oracles.scaled_sl2
    tables["sl2_plus_sl2_dense"] = oracles.dense_basis_sl2_plus_sl2
    tables["jacobi_broken"] = lambda: lie_algebra(
        3, {(0, 1, 2): 1, (0, 2, 0): F(1, 3), (1, 2, 1): F(-2, 7)}
    )
    assert validate(tables["jacobi_broken"]()) is not None
    for name, make in tables.items():
        alg = make()
        mats = structure_matrices(alg)
        n = alg.dim
        for i in range(n):
            for j in range(n):
                entries = tuple((k, m[i][j]) for k, m in enumerate(mats) if m[i][j])
                assert alg.pair_terms(i, j) == entries, (name, i, j)
        for x in _rand_elements(alg, seed=1):
            for y in _rand_elements(alg, seed=2):
                via_table = bracket(alg, x, y)
                via_mats = tuple(
                    sum(
                        (xi * v for xi, v in zip(x, mat.apply(y))),
                        F(0),
                    )
                    for mat in mats
                )
                assert via_table == via_mats, name
                assert all(type(v) is F for v in via_table), name


def test_bracket_examples_sl2():
    alg = sl2()
    e, f, h = (alg.basis_element(i) for i in range(3))
    assert bracket(alg, e, f) == h
    assert bracket(alg, h, e) == (F(2), F(0), F(0))
    assert bracket(alg, h, f) == (F(0), F(-2), F(0))
    assert bracket(alg, e, e) == (F(0), F(0), F(0))
    ad_h = adjoint_matrix(alg, h)
    assert ad_h == Matrix.from_rows([[2, 0, 0], [0, -2, 0], [0, 0, 0]])


def test_structure_matrices_are_skew():
    for name in ALL_NAMES:
        alg = catalog(name)
        for mat in structure_matrices(alg):
            assert oracles.is_zero(mat + mat.transpose())


@given(st.sampled_from(ALL_NAMES), st.integers(0, 10_000))
def test_bracket_bilinear_antisymmetric(name, seed):
    alg = catalog(name)
    x, y, z = _rand_elements(alg, seed=seed, count=3)
    assert bracket(alg, x, y) == tuple(-v for v in bracket(alg, y, x))
    left = bracket(alg, tuple(a + b for a, b in zip(x, y)), z)
    assert left == tuple(
        a + b
        for a, b in zip(bracket(alg, x, z), bracket(alg, y, z))
    )
    assert all(v == 0 for v in bracket(alg, x, x))


def test_sl_n_helper_names_stay_distinct_from_n_11():
    # E_{1,11} and E_{11,1} both read E111 without a separator
    alg = oracles.sl_n(11)
    assert alg.dim == 120 and len(set(alg.basis_names)) == 120


def test_validate_accepts_catalog_and_rejects_broken_table():
    for name in ALL_NAMES:
        assert validate(catalog(name)) is None
    # [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 breaks Jacobi at (0,1,2)
    bad = lie_algebra(3, {(0, 1, 2): 1, (0, 2, 0): 1, (1, 2, 1): 1})
    violation = validate(bad)
    assert violation is not None
    assert (violation.i, violation.j, violation.k) == (0, 1, 2)
    assert violation.residual == (F(0), F(0), F(-2))


@st.composite
def _sparse_table_and_values(draw):
    """A sparse bracket table, Lie or not, and a sparse bilinear map."""
    n = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3).filter(bool)
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    alg = lie_algebra(n, {key: draw(coeff) for key in keys if not draw(st.integers(0, 3))})
    flat = [draw(coeff) if not draw(st.integers(0, 5)) else 0 for _ in range(n ** 3)]
    return alg, Biderivation.from_flat(flat, n)


@given(_sparse_table_and_values())
def test_leibniz_residual_returns_the_failing_reached_triples(case):
    alg, cand = case
    n = alg.dim
    scale, table = alg._int_table
    # (B, (D, D * B), outer): B at both outer positions of the checker, and
    # the Jacobi scan's B, the bracket itself, summed on o < u < w alone
    scans = [(cand, cand._int_values, 0), (cand, cand._int_values, 2),
             (oracles.bider(structure_matrices(alg)), alg._int_table, 0)]
    for bmap, (den, values), outer in scans:
        triples_all = list(product(range(n), repeat=3))
        dense = {t: oracles.dense_leibniz_residual(alg, bmap, *t) for t in triples_all}

        def abc(o, u, w):
            """(a, b, c) of the scan triple (o, u, w)."""
            return (o, u, w) if outer == 0 else (u, w, o)

        def reached(a, b, c):
            """Whether a product of the residual at (a, b, c) is nonzero."""
            return (
                any((t, c) in values for t, _ in table.get((a, b), ()))
                or any((a, t) in table for t, _ in values.get((b, c), ()))
                or any((t, b) in table for t, _ in values.get((a, c), ()))
            )

        found = list(_leibniz_residual(table, values, n, outer))
        triples = [triple for triple, _ in found]
        for triple, acc in found:
            assert reached(*abc(*triple))
            assert {r: F(v, scale * den) for r, v in acc.items()} == {
                r: x for r, x in enumerate(dense[abc(*triple)]) if x
            }
        scanned = [
            t for t in triples_all
            if abc(*t)[0] < abc(*t)[1] and (values is not table or t[0] < t[1] < t[2])
        ]
        assert triples == [t for t in scanned if any(dense[abc(*t)])]


def test_leibniz_residual_of_an_abelian_table_is_empty():
    n = 40
    table = abelian(n)._int_table[1]
    dense = Biderivation.from_flat([F(1)] * n ** 3, n)._int_values[1]
    for outer in (0, 2):
        assert list(_leibniz_residual(table, dense, n, outer)) == []
    assert list(_leibniz_residual(table, table, n)) == []


def test_center_examples():
    assert center(sl2()).dim == 0
    assert center(abelian(4)) == Subspace.full(4)
    c = center(heisenberg3())
    assert c.dim == 1 and c.basis == ((F(0), F(0), F(1)),)
    assert center(l22()).dim == 0


def test_derived_subalgebra_examples():
    assert derived_subalgebra(sl2()).dim == 3
    assert derived_subalgebra(abelian(3)).dim == 0
    assert derived_subalgebra(heisenberg3()).basis == ((F(0), F(0), F(1)),)
    assert derived_subalgebra(l22()).basis == ((F(1), F(0)),)


@pytest.mark.parametrize(
    "name",
    sorted(oracles.ORACLE_TABLES) + sorted(oracles.RESTRICTED_TABLES) + ["abelian(60)"],
)
def test_derived_subalgebra_matches_the_pair_scan(name):
    tables = {**oracles.ORACLE_TABLES, **oracles.RESTRICTED_TABLES}
    alg = tables[name]() if name in tables else catalog(name)
    assert derived_subalgebra(alg) == oracles.pair_scan_derived_subalgebra(alg)


def test_lower_central_series_examples():
    h3 = lower_central_series(heisenberg3())
    assert [t.dim for t in h3.terms] == [1, 0]
    assert h3.nilpotent and h3.nilpotency_class == 2
    ab = lower_central_series(abelian(2))
    assert [t.dim for t in ab.terms] == [0]
    assert ab.nilpotent and ab.nilpotency_class == 1
    s = lower_central_series(sl2())
    assert [t.dim for t in s.terms] == [3, 3]
    assert not s.nilpotent and s.nilpotency_class is None
    solvable = lower_central_series(l22())
    assert [t.dim for t in solvable.terms] == [1, 1]
    assert not solvable.nilpotent
    two = lower_central_series(catalog("twostep(5,2)"))
    assert two.nilpotent and two.nilpotency_class == 2


def _filiform(n):
    """[e_0, e_i] = e_{i+1} / (i + 1) for 0 < i < n - 1: nilpotent of class
    n - 1, so the series takes n - 2 rounds of brackets after [L, L]."""
    return lie_algebra(n, {(0, i, i + 1): F(1, i + 1) for i in range(1, n - 1)})


@pytest.mark.parametrize(
    "name",
    sorted(oracles.ORACLE_TABLES) + sorted(oracles.RESTRICTED_TABLES)
    + ["borel(4)", "filiform(6)", "twostep(5,2)"],
)
def test_lower_central_series_matches_dense_brackets(name):
    # each term after [L, L] is the span of the dense brackets [e_i, v]
    # over the RREF basis of the term before it
    tables = {**oracles.ORACLE_TABLES, **oracles.RESTRICTED_TABLES,
              "borel(4)": lambda: oracles.borel_n(4), "filiform(6)": lambda: _filiform(6)}
    alg = tables[name]() if name in tables else catalog(name)
    n, terms = alg.dim, lower_central_series(alg).terms
    assert terms[0] == derived_subalgebra(alg)
    for before, term in zip(terms, terms[1:]):
        brackets = [bracket(alg, alg.basis_element(i), v) for i in range(n) for v in before.basis]
        assert term == Subspace.span(brackets, n)
    if name == "filiform(6)":
        assert [t.dim for t in terms] == [4, 3, 2, 1, 0]


def test_killing_form_examples():
    kf = killing_form(sl2())
    assert kf.matrix == Matrix.from_rows([[0, 4, 0], [4, 0, 0], [0, 0, 8]])
    assert kf.rank == 3 and kf.semisimple
    assert oracles.is_zero(killing_form(abelian(3)).matrix)
    assert not killing_form(abelian(3)).semisimple
    assert not killing_form(heisenberg3()).semisimple
    assert not killing_form(l22()).semisimple  # solvable: rank 1
    assert killing_form(l22()).rank == 1
    assert killing_form(so3()).matrix == Matrix.from_rows(
        [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    )
    assert killing_form(catalog("sl2_plus_sl2")).semisimple


_KILLING_INPUTS = {
    **oracles.ORACLE_TABLES,
    **{
        f"{name}_dense": (lambda name=name: test_metamorphic.dense_basis(name))
        for name in test_metamorphic.INPUTS
    },
    "twostep(6,1)_seed0": lambda: catalog("twostep(6,1)"),
    "jacobi-broken": lambda: lie_algebra(3, {(0, 1, 2): 1, (0, 2, 0): 1, (1, 2, 1): 1}),
}


@pytest.mark.parametrize("name", sorted(_KILLING_INPUTS))
def test_killing_form_matches_dense_traces(name):
    """K_ij = trace(ad_i ad_j) from dense adjoint products, on every oracle
    table, every metamorphic input on its dense basis and a table that
    breaks the Jacobi identity."""
    alg = _KILLING_INPUTS[name]()
    n = alg.dim
    ads = [adjoint_matrix(alg, alg.basis_element(i)) for i in range(n)]
    dense = Matrix.from_rows(
        [[oracles.trace(ads[i] * ads[j]) for j in range(n)] for i in range(n)]
    )
    kf = killing_form(alg)
    assert kf.matrix == dense
    assert kf.rank == sp.Matrix(
        [[sp.Rational(v.numerator, v.denominator) for v in row] for row in dense]
    ).rank()
    assert kf.semisimple == (kf.rank == n)


def test_direct_sum_structure():
    both = direct_sum(sl2(), sl2())
    assert both.dim == 6
    assert both.factors == (3, 3)
    assert both.basis_names == ("e_1", "f_1", "h_1", "e_2", "f_2", "h_2")
    # cross-block brackets vanish; in-block brackets reproduce the factors
    for i in range(3):
        for j in range(3, 6):
            assert all(
                v == 0
                for v in bracket(
                    both, both.basis_element(i), both.basis_element(j)
                )
            )
    assert bracket(both, both.basis_element(3), both.basis_element(4)) == (
        F(0), F(0), F(0), F(0), F(0), F(1),
    )
    # zero-dimensional operand is the identity
    assert direct_sum(sl2(), abelian(0)) == sl2()
    assert direct_sum(abelian(0), sl2()) == sl2()
    # flattening of factors
    three = direct_sum(both, sl2())
    assert three.factors == (3, 3, 3)
    assert validate(three) is None
    mixed = direct_sum(l22(), abelian(2))
    assert mixed.factors == (2, 2)
    assert validate(mixed) is None


def test_block_of_respects_factors():
    both = catalog("sl2_plus_sl2")
    assert [both.block_of(i) for i in range(6)] == [0, 0, 0, 1, 1, 1]
    atom = sl2()
    assert [atom.block_of(i) for i in range(3)] == [0, 0, 0]


@given(st.sampled_from(["heisenberg3", "abelian(3)", "twostep(5,2)", "twostep(6,3)"]))
def test_two_step_condition_derived_in_center(name):
    alg = catalog(name)
    derived = derived_subalgebra(alg)
    c = center(alg)
    for v in derived.basis:
        assert c.contains(v)


# ---------------------------------------------------------------------------
# Per-algebra invariants

INVARIANTS = [
    validate,
    killing_form,
    structure_matrices,
    derivations.derivation_space,
    derivations.is_complete,
    derivations.commuting_map_space,
    derivations.skew_commuting_map_space,
    vdecomp.compute_V,
    vdecomp.compute_Vpm,
    vdecomp.verify_direct_sum,
]
# every `_per_algebra` wrapper runs this one code object
ONCE = _per_algebra(lambda alg: alg).__code__


def _slot_clashes(invariants) -> list[str]:
    """Cache keys that are not ``_<name>``, that two invariants share, or
    that a `LieAlgebra` attribute (a cached table, a field, a method) uses."""
    clashes, seen = [], set()
    for fn in invariants:
        key = fn.__closure__[ONCE.co_freevars.index("key")].cell_contents
        if key != f"_{fn.__name__}" or key in seen or hasattr(LieAlgebra, key):
            clashes.append(key)
        seen.add(key)
    return clashes


def test_per_algebra_slots_are_distinct():
    found = {}
    for info in pkgutil.iter_modules(liebider.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"liebider.{info.name}")
        for value in vars(module).values():
            if inspect.isfunction(value) and value.__code__ is ONCE:
                found[id(value)] = value
    assert {id(fn) for fn in INVARIANTS} <= set(found)
    assert _slot_clashes(found.values()) == []

    # the guard bites: `ad_split` would share the `_ad_split` table's slot
    def ad_split(alg):
        return alg

    assert _slot_clashes([*found.values(), _per_algebra(ad_split)]) == ["_ad_split"]


@pytest.mark.parametrize("invariant", INVARIANTS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize(
    "make",
    [l22, lambda: lie_algebra(3, {(0, 1, 2): 1, (0, 2, 0): 1, (1, 2, 1): 1})],
    ids=["L22", "jacobi-broken"],
)
def test_each_invariant_is_computed_once(invariant, make, computations):
    alg = make()
    with computations(invariant) as runs:
        first = invariant(alg)
        second = invariant(alg)
    assert second is first
    assert runs == {invariant.__name__: 1}
    # a fresh, equal algebra computes it again
    with computations(invariant) as runs:
        assert invariant(make()) == first
    assert runs == {invariant.__name__: 1}
