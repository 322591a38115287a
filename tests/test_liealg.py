"""Lie algebra core: bracket, validation, invariant subspaces, sums."""

import importlib
import inspect
import pkgutil
from fractions import Fraction
from itertools import combinations

import pytest
import sympy as sp
from hypothesis import given, strategies as st

import liebider
from liebider import derivations, vdecomp
from liebider.catalog import abelian, catalog, heisenberg3, l22, sl2, so3
from liebider.liealg import (
    InvalidStructure,
    LieAlgebra,
    _jacobi_triples,
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
    for name in ALL_NAMES:
        alg = catalog(name)
        mats = structure_matrices(alg)
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
                assert via_table == via_mats


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
def _dim_and_pairs(draw):
    n = draw(st.integers(0, 7))
    candidates = list(combinations(range(n), 2))
    return n, draw(st.sets(st.sampled_from(candidates))) if candidates else set()


@given(_dim_and_pairs())
def test_jacobi_triples_are_those_with_a_nonzero_bracket(case):
    n, pairs = case
    table = {pair: () for a, b in pairs for pair in ((a, b), (b, a))}
    assert list(_jacobi_triples(n, table)) == [
        (i, j, k)
        for i, j, k in combinations(range(n), 3)
        if {(i, j), (j, k), (i, k)} & pairs
    ]


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
