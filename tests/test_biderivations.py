"""Biderivation spaces, membership checks, and structural operations."""

import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from liebider.catalog import catalog
import liebider.biderivations
import liebider.liealg
import liebider.linalg
import liebider.vdecomp
from liebider.biderivations import (
    Biderivation,
    FactorMismatch,
    InternalInconsistency,
    NotBiderivation,
    NotComplete,
    NotTwoStep,
    bider_bracket_closure,
    biderivation_space,
    biderivation_violation,
    classify_symmetry,
    constrained_biderivation_space,
    extract_phi_psi,
    inner_biderivation,
    is_biderivation,
    row_column_derivations,
    symmetric_skew_split,
    two_step_properties,
)
from liebider.biderivations import _lift, _primitive_derivations
import liebider.derivations
from liebider.derivations import (
    _adjoint_family,
    commuting_map_space,
    derivation_space,
    is_complete,
    skew_commuting_map_space,
)
from liebider.liealg import (
    bracket,
    direct_sum,
    killing_form,
    lie_algebra,
    structure_matrices,
    validate,
)
from liebider.linalg import Matrix, Subspace, kernel_of_rows
from liebider.vdecomp import verify_direct_sum

import oracles

F = Fraction

# Frozen pre-build oracle values: (full, symmetric, skew) biderivation dims.
FROZEN_BIDER_DIMS = {
    "heisenberg3": (12, 9, 3),
    "sl2": (1, 0, 1),
    "L22": (4, 3, 1),
    "so3": (1, 0, 1),
    "abelian(2)": (8, 6, 2),
    "abelian(3)": (27, 18, 9),
    "sl2_plus_sl2": (2, 0, 2),
}

COMPLETE_NAMES = ["sl2", "sl3", "so3", "sl2_plus_sl2", "L22"]


def _symmetry_rows(n, mode):
    """b_ij^k - b_ji^k (symmetric) or b_ij^k + b_ji^k (skew) for i <= j."""
    nn = n * n
    sign = -1 if mode == "symmetric" else 1
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    yield {k * nn + i * n + i: F(2)} if sign == 1 else {}
                else:
                    yield {k * nn + i * n + j: F(1), k * nn + j * n + i: F(sign)}


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_assembly_shape_and_abelian_triviality(name):
    alg = oracles.ORACLE_TABLES[name]()
    n = alg.dim
    rows = list(oracles.constraint_rows(alg))
    assert len(rows) == 2 * n ** 4
    if not alg.constants:
        assert not any(rows)
    # documented contract: each solver's space is exactly the kernel of the
    # direct n^3 system, with the symmetry rows added in the constrained modes
    assert biderivation_space(alg).space == kernel_of_rows(rows, n ** 3)
    for mode in ("symmetric", "skew"):
        oracle = kernel_of_rows(rows + list(_symmetry_rows(n, mode)), n ** 3)
        assert constrained_biderivation_space(alg, mode).space == oracle, mode


def test_solvers_reject_a_wrong_derivation_basis(monkeypatch):
    # With every map posing as a derivation, condition (2) is no longer
    # built in, and the re-check must refuse the kernel in every mode.  The
    # fake Der(L) also reaches `is_complete`, so sl2 reads as not complete
    # and the Der-basis path runs.
    alg = catalog("sl2")
    full = Subspace.full(alg.dim * alg.dim)
    for module in (liebider.derivations, liebider.biderivations):
        monkeypatch.setattr(module, "derivation_space", lambda _alg: full)
    assert not is_complete(alg).complete
    with pytest.raises(InternalInconsistency):
        biderivation_space(alg)
    for mode in ("symmetric", "skew"):
        with pytest.raises(InternalInconsistency):
            constrained_biderivation_space(alg, mode)


def test_dimensions_match_frozen_oracle():
    for name, (full, sym, skew) in FROZEN_BIDER_DIMS.items():
        alg = catalog(name)
        assert biderivation_space(alg).dim == full, name
        assert constrained_biderivation_space(alg, "symmetric").dim == sym, name
        assert constrained_biderivation_space(alg, "skew").dim == skew, name


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L22", "abelian(2)"])
def test_dimensions_match_live_sympy_oracle(name):
    alg = catalog(name)
    full, sym, skew = oracles.bider_dims(alg)
    assert biderivation_space(alg).dim == full
    assert constrained_biderivation_space(alg, "symmetric").dim == sym
    assert constrained_biderivation_space(alg, "skew").dim == skew


def test_constrained_spaces_inside_full_space():
    for name in FROZEN_BIDER_DIMS:
        alg = catalog(name)
        space = biderivation_space(alg).space
        for mode in ("symmetric", "skew"):
            sub = constrained_biderivation_space(alg, mode)
            for v in sub.space.basis:
                assert space.contains(v), (name, mode)
            for element in sub.basis_elements():
                for m in element.mats:
                    if mode == "symmetric":
                        assert m == m.transpose()
                    else:
                        assert oracles.is_zero(m + m.transpose())
    with pytest.raises(ValueError):
        constrained_biderivation_space(catalog("sl2"), "diagonal")


def test_simple_basis_is_structure_tuple_multiple():
    for name in ("sl2", "so3"):
        alg = catalog(name)
        space = biderivation_space(alg)
        assert space.dim == 1
        tuple_span = Subspace.span(
            [inner_biderivation(alg, [1]).flatten()], alg.dim ** 3
        )
        assert tuple_span.contains(space.space.basis[0])


def test_classic_pair_is_not_a_biderivation():
    alg = catalog("L22")
    cand = Biderivation(
        (Matrix.from_rows([[0, 0], [0, 1]]), Matrix.from_rows([[1, 0], [0, 0]]))
    )
    violation = biderivation_violation(alg, cand)
    assert violation is not None
    assert violation.condition == 1
    assert violation.triple == (0, 1, 0)
    assert violation.residual == (F(0), F(1))  # the vector e2
    assert not is_biderivation(alg, cand)
    # the kernel excludes it
    assert not biderivation_space(alg).space.contains(cand.flatten())


def test_zero_and_inner_candidates_pass():
    for name in FROZEN_BIDER_DIMS:
        alg = catalog(name)
        assert is_biderivation(alg, Biderivation.zero(alg.dim))
        factors = alg.factors if alg.factors is not None else (alg.dim,)
        inner = inner_biderivation(alg, list(range(1, len(factors) + 1)))
        assert is_biderivation(alg, inner)
        assert biderivation_space(alg).space.contains(inner.flatten())


def test_inner_biderivation_scaling_and_mismatch():
    alg = catalog("sl2")
    mats = structure_matrices(alg)
    inner = inner_biderivation(alg, [F(1, 2)])
    assert inner.mats == tuple(F(1, 2) * m for m in mats)
    both = catalog("sl2_plus_sl2")
    blockwise = inner_biderivation(both, [2, 5])
    bmats = structure_matrices(both)
    for k in range(6):
        lam = 2 if k < 3 else 5
        assert blockwise.mats[k] == lam * bmats[k]
    with pytest.raises(FactorMismatch):
        inner_biderivation(both, [1])
    with pytest.raises(FactorMismatch):
        inner_biderivation(alg, [1, 2])


def test_evaluate_is_bilinear_table():
    alg = catalog("sl2")
    inner = inner_biderivation(alg, [3])
    x = (F(1), F(2), F(-1))
    y = (F(0), F(1), F(4))
    assert inner.evaluate(x, y) == tuple(3 * v for v in bracket(alg, x, y))
    cand = Biderivation.from_flat([F(t % 7 - 3, t % 4 + 1) for t in range(27)], 3)
    for x, y in [((F(0), F(1, 2), F(0)), (F(3), F(0), F(-1, 3))), ((F(0),) * 3, y)]:
        assert cand.evaluate(x, y) == tuple(
            sum(xi * v for xi, v in zip(x, m.apply(y))) for m in cand.mats
        )
    with pytest.raises(ValueError):
        cand.evaluate((F(1),) * 4, y)


def test_row_column_derivations_on_inner():
    alg = catalog("sl2")
    inner = inner_biderivation(alg, [1])
    for i in range(3):
        report = row_column_derivations(alg, inner, i)
        assert report.row_is_derivation and report.column_is_derivation
        # B(e_i, y) = [e_i, y] = ad_{e_i} y: the row map is the adjoint
        from liebider.liealg import adjoint_matrix

        assert report.row_map == adjoint_matrix(alg, alg.basis_element(i))


def test_row_column_derivations_on_classic_pair():
    alg = catalog("L22")
    cand = Biderivation(
        (Matrix.from_rows([[0, 0], [0, 1]]), Matrix.from_rows([[1, 0], [0, 0]]))
    )
    r0 = row_column_derivations(alg, cand, 0)
    assert not r0.row_is_derivation and not r0.column_is_derivation
    r1 = row_column_derivations(alg, cand, 1)
    assert r1.row_is_derivation and r1.column_is_derivation
    with pytest.raises(ValueError):
        row_column_derivations(alg, cand, 2)


def test_extract_phi_psi_on_inner_maps():
    alg = catalog("sl2")
    pair = extract_phi_psi(alg, inner_biderivation(alg, [2]))
    assert pair.phi == 2 * Matrix.identity(3)
    assert pair.psi == 2 * Matrix.identity(3)
    zero_pair = extract_phi_psi(alg, Biderivation.zero(3))
    assert oracles.is_zero(zero_pair.phi) and oracles.is_zero(zero_pair.psi)
    both = catalog("sl2_plus_sl2")
    pair = extract_phi_psi(both, inner_biderivation(both, [1, 0]))
    expected = Matrix.from_rows(
        [
            [1 if (i == j and i < 3) else 0 for j in range(6)]
            for i in range(6)
        ]
    )
    assert pair.phi == expected and pair.psi == expected


def test_extract_phi_psi_factorization_property():
    for name in COMPLETE_NAMES:
        alg = catalog(name)
        n = alg.dim
        for element in biderivation_space(alg).basis_elements():
            pair = extract_phi_psi(alg, element)
            for i in range(n):
                for j in range(n):
                    ei, ej = alg.basis_element(i), alg.basis_element(j)
                    value = element.evaluate(ei, ej)
                    assert bracket(alg, pair.phi.apply(ei), ej) == value
                    assert bracket(alg, ei, pair.psi.apply(ej)) == value


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_factorization_check_matches_dense_oracle(name):
    alg = oracles.ORACLE_TABLES[name]()
    if not is_complete(alg).complete:
        with pytest.raises(NotComplete):
            extract_phi_psi(alg, Biderivation.zero(alg.dim))
        return
    for element in biderivation_space(alg).basis_elements():
        pair = extract_phi_psi(alg, element)
        assert oracles.dense_phi_psi_failure(alg, element, pair) is None


# Adding e_1 to every phi preimage breaks [phi(e_1), e_2] first; adding it
# to every psi preimage breaks [e_2, psi(e_1)] first ([e_1, e_1] = 0).
@pytest.mark.parametrize("side, pair", [(0, (0, 1)), (1, (1, 0))], ids=["phi", "psi"])
def test_corrupted_preimage_raises(monkeypatch, side, pair):
    alg = oracles.scaled_sl2()
    cand = inner_biderivation(alg, [3])
    real = liebider.biderivations.ad_preimage
    calls = []

    def corrupted(alg, target):
        # preimages alternate: phi column i, then psi column i
        u = real(alg, target)
        if len(calls) % 2 == side:
            u = (u[0] + 1,) + u[1:]
        calls.append(u)
        return u

    monkeypatch.setattr(liebider.biderivations, "ad_preimage", corrupted)
    with pytest.raises(InternalInconsistency, match=rf"basis pair \({pair[0]}, {pair[1]}\)"):
        extract_phi_psi(alg, cand)
    phi = Matrix.from_rows([[calls[2 * i][r] for i in range(3)] for r in range(3)])
    psi = Matrix.from_rows([[-calls[2 * i + 1][r] for i in range(3)] for r in range(3)])
    corrupted_pair = liebider.biderivations.PhiPsiPair(phi, psi)
    assert oracles.dense_phi_psi_failure(alg, cand, corrupted_pair) == pair


def test_extract_phi_psi_errors():
    with pytest.raises(NotComplete):
        extract_phi_psi(catalog("heisenberg3"), Biderivation.zero(3))
    alg = catalog("L22")
    cand = Biderivation(
        (Matrix.from_rows([[0, 0], [0, 1]]), Matrix.from_rows([[1, 0], [0, 0]]))
    )
    with pytest.raises(NotBiderivation) as info:
        extract_phi_psi(alg, cand)
    assert info.value.violation.triple == (0, 1, 0)


def test_symmetric_skew_split_arithmetic():
    alg = catalog("sl2")
    inner = inner_biderivation(alg, [1])
    plus, minus = symmetric_skew_split(inner)
    assert all(oracles.is_zero(m) for m in plus.mats)  # structure matrices are skew
    assert minus.mats == tuple(2 * m for m in inner.mats)
    cand = Biderivation(
        (Matrix.from_rows([[1, 2], [5, 8]]), Matrix.zeros(2, 2))
    )
    plus, minus = symmetric_skew_split(cand)
    assert plus.mats[0] == Matrix.from_rows([[2, 7], [7, 16]])
    assert minus.mats[0] == Matrix.from_rows([[0, -3], [3, 0]])
    half = F(1, 2)
    recombined = tuple(
        half * (p + m) for p, m in zip(plus.mats, minus.mats)
    )
    assert recombined == cand.mats


def test_split_parts_stay_biderivations():
    for name in FROZEN_BIDER_DIMS:
        alg = catalog(name)
        space = biderivation_space(alg)
        sym = constrained_biderivation_space(alg, "symmetric").space
        skew = constrained_biderivation_space(alg, "skew").space
        for element in space.basis_elements():
            plus, minus = symmetric_skew_split(element)
            assert sym.contains(plus.flatten()), name
            assert skew.contains(minus.flatten()), name


def test_classify_symmetry_names_each_case():
    alg = catalog("abelian(2)")
    symmetric = Biderivation(
        (Matrix.from_rows([[1, 2], [2, 0]]), Matrix.from_rows([[0, 0], [0, 3]]))
    )
    skew = Biderivation(
        (Matrix.from_rows([[0, 2], [-2, 0]]), Matrix.zeros(2, 2))
    )
    mixed = Biderivation(
        (Matrix.from_rows([[0, 1], [0, 0]]), Matrix.zeros(2, 2))
    )
    # every bilinear map of an abelian algebra is a biderivation
    for cand in (symmetric, skew, mixed):
        assert is_biderivation(alg, cand)
    assert classify_symmetry(symmetric) == "symmetric"
    assert classify_symmetry(skew) == "skew"
    assert classify_symmetry(mixed) == "mixed"
    assert classify_symmetry(inner_biderivation(catalog("sl2"), [1])) == "skew"
    assert classify_symmetry(Biderivation.zero(2)) == "zero"
    assert classify_symmetry(Biderivation.zero(0)) == "zero"


def _split_symmetry(cand: Biderivation) -> str:
    """Reference for `classify_symmetry`: B is symmetric exactly when its
    minus part B - B^t vanishes and skew exactly when its plus part does."""
    plus, minus = symmetric_skew_split(cand)
    symmetric = all(oracles.is_zero(m) for m in minus.mats)
    skew = all(oracles.is_zero(m) for m in plus.mats)
    return {
        (True, False): "symmetric",
        (False, True): "skew",
        (True, True): "zero",
        (False, False): "mixed",
    }[symmetric, skew]


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_classify_symmetry_matches_the_split(name):
    alg = oracles.ORACLE_TABLES[name]()
    for element in biderivation_space(alg).basis_elements():
        for cand in (element, *symmetric_skew_split(element)):
            assert classify_symmetry(cand) == _split_symmetry(cand), name


def test_closure_verdicts():
    expectations = {
        "heisenberg3": False,
        "sl2": True,
        "L22": True,
        "so3": True,
        "abelian(2)": True,
        "sl2_plus_sl2": True,
    }
    for name, expected in expectations.items():
        report = bider_bracket_closure(catalog(name))
        assert report.closed is expected, name
        if expected:
            assert report.witness is None
            assert report.constants is not None
            # a one-dimensional space has no pairs and empty constants
            if report.bider_dim == 1:
                assert report.constants == {}
        else:
            assert report.constants is None
            a, b, comm = report.witness
            assert not biderivation_space(catalog(name)).space.contains(
                comm.flatten()
            )


def test_closure_constants_reproduce_commutators():
    alg = catalog("L22")
    space = biderivation_space(alg)
    report = bider_bracket_closure(alg)
    assert report.closed
    basis = space.basis_elements()
    for (a, b, c), coeff in report.constants.items():
        assert a < b and coeff != 0
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            comm_flat = Biderivation(
                tuple(
                    ma * mb - mb * ma
                    for ma, mb in zip(basis[a].mats, basis[b].mats)
                )
            ).flatten()
            coeffs = space.space.coefficients_of(comm_flat)
            for c, value in enumerate(coeffs):
                assert value == report.constants.get((a, b, c), F(0))


def test_two_step_properties_h3_and_errors():
    alg = catalog("heisenberg3")
    for element in biderivation_space(alg).basis_elements():
        report = two_step_properties(alg, element)
        assert report.passed, element
        assert report.checks > 0 and report.failures == ()
    with pytest.raises(NotTwoStep):
        two_step_properties(catalog("sl2"), Biderivation.zero(3))
    with pytest.raises(NotTwoStep):
        two_step_properties(catalog("abelian(3)"), Biderivation.zero(3))
    # [L, L] meets the center but is not inside it
    with pytest.raises(NotTwoStep):
        two_step_properties(direct_sum(alg, catalog("sl2")), Biderivation.zero(6))
    # a non-biderivation candidate is rejected up front
    bad = Biderivation(
        (
            Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
            Matrix.zeros(3, 3),
            Matrix.zeros(3, 3),
        )
    )
    if biderivation_violation(alg, bad) is not None:
        with pytest.raises(NotBiderivation):
            two_step_properties(alg, bad)


def test_random_twostep_algebras_pass_structure_checks():
    for seed in range(6):
        alg = catalog(f"twostep(5,2)", seed=seed)
        for element in biderivation_space(alg).basis_elements():
            assert two_step_properties(alg, element).passed


@given(st.sampled_from(sorted(FROZEN_BIDER_DIMS)), st.integers(0, 10 ** 6))
def test_space_combinations_pass_membership(name, seed):
    alg = catalog(name)
    space = biderivation_space(alg)
    rng = random.Random(seed)
    flat = [F(0)] * alg.dim ** 3
    for element in space.space.basis:
        c = rng.randint(-3, 3)
        if c:
            flat = [a + c * b for a, b in zip(flat, element)]
    assert is_biderivation(alg, Biderivation.from_flat(flat, alg.dim))


@given(st.sampled_from(["sl2", "L22", "so3", "heisenberg3"]), st.integers(0, 10 ** 6))
def test_random_outsiders_fail_membership(name, seed):
    alg = catalog(name)
    space = biderivation_space(alg).space
    n = alg.dim
    rng = random.Random(seed)
    for _ in range(50):
        flat = tuple(F(rng.randint(-3, 3)) for _ in range(n ** 3))
        if not space.contains(flat):
            assert not is_biderivation(alg, Biderivation.from_flat(flat, n))
            return
    pytest.skip("all sampled tuples were biderivations (space too large)")


# ---------------------------------------------------------------------------
# Integer scans against the dense oracles


def _perturbed(cand, rng):
    """``cand`` with one random entry changed by a nonzero fraction."""
    n = cand.dim
    flat = list(cand.flatten())
    flat[rng.randrange(n ** 3)] += F(rng.choice([1, -2, 3]), rng.choice([1, 3, 4]))
    return Biderivation.from_flat(flat, n)


def _random_map(n, rng):
    return Biderivation.from_flat(
        [F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)
         for _ in range(n ** 3)],
        n,
    )


def _assert_scans_agree(alg, cand):
    violation = biderivation_violation(alg, cand)
    assert violation == oracles.dense_biderivation_violation(alg, cand)
    return violation


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_checker_matches_dense_oracle(name):
    alg = oracles.ORACLE_TABLES[name]()
    n = alg.dim
    rng = random.Random(name)
    space = biderivation_space(alg)
    elements = space.basis_elements()
    for element in elements:
        assert _assert_scans_agree(alg, element) is None
    for element in elements[:6] + (Biderivation.zero(n),):
        changed = _perturbed(element, rng)
        violation = _assert_scans_agree(alg, changed)
        assert (violation is None) == space.space.contains(changed.flatten())
    for _ in range(4):
        _assert_scans_agree(alg, _random_map(n, rng))


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_checker_matches_dense_oracle_on_condition_two(name):
    # B(e_i, -) = sum_s x_is D_s over the Der basis satisfies condition (2)
    # by construction, so a failure of B is one of condition (1); the swap
    # B^t satisfies (1) and can fail only condition (2).
    alg = oracles.ORACLE_TABLES[name]()
    n = alg.dim
    ders = derivation_space(alg).basis
    rng = random.Random(name)
    failed_two = 0
    for _ in range(3):
        x = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in ders] for _ in range(n)]
        flat = [
            sum((x[i][s] * der[k * n + j] for s, der in enumerate(ders)), F(0))
            for k in range(n) for i in range(n) for j in range(n)
        ]
        cand = Biderivation.from_flat(flat, n)
        swapped = Biderivation(tuple(m.transpose() for m in cand.mats))
        violation = _assert_scans_agree(alg, cand)
        assert violation is None or violation.condition == 1
        violation = _assert_scans_agree(alg, swapped)
        assert violation is None or violation.condition == 2
        failed_two += violation is not None
    # every such B is a biderivation exactly when BiDer has dimension n * d
    assert bool(failed_two) == (biderivation_space(alg).dim < n * len(ders))


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_scans_match_dense_oracles_on_perturbed_tables(name):
    alg = oracles.ORACLE_TABLES[name]()
    n = alg.dim
    assert validate(alg) is None and oracles.dense_jacobi_violation(alg) is None
    inner = Biderivation(structure_matrices(alg))
    rng = random.Random(name)
    broken = 0
    for _ in range(6):
        constants = dict(alg.constants)
        i, j = sorted(rng.sample(range(n), 2))
        key = (i, j, rng.randrange(n))
        step = F(rng.choice([1, -1, 2]), rng.choice([1, 3]))
        constants[key] = constants.get(key, 0) + step
        table = lie_algebra(n, constants)
        violation = validate(table)
        assert violation == oracles.dense_jacobi_violation(table)
        broken += violation is not None
        _assert_scans_agree(table, inner)
        _assert_scans_agree(table, _random_map(n, rng))
    if n >= 3 and name != "abelian(3)":
        assert broken


_FRACTIONS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _table_and_candidate(draw):
    n = draw(st.integers(1, 4))
    keys = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
    alg = lie_algebra(n, {key: draw(_FRACTIONS) for key in keys if draw(st.booleans())})
    if draw(st.booleans()):
        cand = inner_biderivation(alg, [draw(_FRACTIONS)])
    else:
        entries = st.one_of(st.just(F(0)), _FRACTIONS)
        cand = Biderivation.from_flat(
            draw(st.lists(entries, min_size=n ** 3, max_size=n ** 3)), n
        )
    return alg, cand


@given(_table_and_candidate())
def test_scans_match_dense_oracles_on_random_tables(table_and_candidate):
    alg, cand = table_and_candidate
    assert validate(alg) == oracles.dense_jacobi_violation(alg)
    _assert_scans_agree(alg, cand)


def _with_entries(n, entries):
    """The map whose only nonzero b_ij^k are ``entries``, {k*n^2 + i*n + j: b}."""
    return Biderivation.from_flat([entries.get(p, 0) for p in range(n ** 3)], n)


@pytest.mark.parametrize(
    "name, entries, first_two, first_one",
    [
        ("sl2", {3: -1}, (1, 0, 1), (1, 2, 0)),
        ("heisenberg3", {11: 1, 17: -1}, (0, 0, 1), (0, 1, 2)),
    ],
    ids=["sl2", "heisenberg3"],
)
def test_condition_one_is_reported_before_an_earlier_condition_two_failure(
    name, entries, first_two, first_one
):
    alg = catalog(name)
    cand = _with_entries(alg.dim, entries)
    swapped = Biderivation(tuple(m.transpose() for m in cand.mats))
    # condition (2) of B at (i, j, k) is condition (1) of B^t at (j, k, i)
    i, j, k = first_two
    assert any(oracles.dense_leibniz_residual(alg, swapped, j, k, i))
    assert any(oracles.dense_leibniz_residual(alg, cand, *first_one))
    assert first_two < first_one
    violation = _assert_scans_agree(alg, cand)
    assert (violation.condition, violation.triple) == (1, first_one)


@pytest.mark.parametrize(
    "entries",
    # b_22^0 = 1 makes (0, 1, 2) fail through the first product,
    # c_01^2 B(e_2, e_2), which the scan sums first; (0, 1, 0) fails through
    # the third product alone, -[B(e_0, e_0), e_1] with b_00^0 = 1, or the
    # second alone, -[e_0, B(e_1, e_0)] with b_10^1 = 1
    [{8: 1, 0: 1}, {8: 1, 12: 1}],
    ids=["third", "second"],
)
def test_the_first_failing_triple_is_reported_whatever_product_reaches_it(entries):
    alg = catalog("heisenberg3")
    cand = _with_entries(alg.dim, entries)
    assert any(oracles.dense_leibniz_residual(alg, cand, 0, 1, 2))
    assert any(oracles.dense_leibniz_residual(alg, cand, 0, 1, 0))
    violation = _assert_scans_agree(alg, cand)
    assert (violation.condition, violation.triple) == (1, (0, 1, 0))


def test_checkers_share_no_solver_code():
    def names(code):
        found = set(code.co_names)
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                found |= names(const)
        return found

    def reached(checker):
        """Names read by ``checker`` and by every liebider function it calls."""
        found, seen, todo = set(), set(), [checker]
        while todo:
            fn = todo.pop()
            if fn in seen:
                continue
            seen.add(fn)
            read = names(fn.__code__)
            found |= read
            for name in read:
                callee = fn.__globals__.get(name)
                if inspect.isfunction(callee) and callee.__module__.startswith("liebider."):
                    todo.append(callee)
        return found

    solver_names = {
        "bracket", "_symmetry_rows", "_joint_intertwiner_kernel", "_int_ad",
        "kernel_of_rows", "_Reducer", "split_span", "_ad_split",
        "kernel_beside", "_components", "_adjoint_family",
        "_primitive_derivations", "commuting_map_space",
        "skew_commuting_map_space", "_lift", "_bilinear",
    }
    # a stale name would make the check vacuous: each is a module-level or
    # class attribute of a solver module
    defined = set()
    for module in (liebider.linalg, liebider.liealg, liebider.derivations,
                   liebider.biderivations, liebider.vdecomp):
        for name, value in vars(module).items():
            defined.add(name)
            if inspect.isclass(value):
                defined |= set(vars(value))
    assert solver_names <= defined, solver_names - defined
    # `validate` is cached per algebra; its undecorated body scans.
    for checker in (biderivation_violation, liebider.liealg.validate.__wrapped__):
        found = reached(checker)
        assert "_leibniz_residual" in found, checker.__name__
        assert not found & solver_names, checker.__name__


@pytest.mark.parametrize(
    "make",
    [
        lambda: oracles.sl_n(4),
        lambda: catalog("twostep(7,2)", seed=0),
        lambda: catalog("twostep(7,2)", seed=3),
        oracles.dense_basis_sl2_plus_sl2,
    ],
    ids=["sl4", "twostep(7,2)-seed0", "twostep(7,2)-seed3", "sl2_plus_sl2_dense"],
)
def test_swap_keeps_biderivations(make):
    # The solver's premise, checked where the n^4 oracle is too slow: the
    # swap B(x, y) -> B(y, x) maps BiDer to itself, so BiDer = Sym (+) Skew.
    alg = make()
    space = biderivation_space(alg)
    for element in space.basis_elements():
        swapped = Biderivation(tuple(m.transpose() for m in element.mats))
        assert biderivation_violation(alg, swapped) is None
    sym = constrained_biderivation_space(alg, "symmetric")
    skew = constrained_biderivation_space(alg, "skew")
    assert sym.dim + skew.dim == space.dim


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_tang_gate_on_sl_n(n):
    # Tang (2018): every biderivation of a simple algebra is inner, so
    # BiDer(sl(n)) = span{(x, y) -> [x, y]}, which is skew.
    alg = oracles.sl_n(n)
    assert biderivation_space(alg).dim == 1
    assert constrained_biderivation_space(alg, "symmetric").dim == 0
    assert constrained_biderivation_space(alg, "skew").dim == 1
    inner = inner_biderivation(alg, [1])
    assert biderivation_violation(alg, inner) is None
    if n == 5:
        mats = list(inner.mats)
        mats[3] = mats[3] + Matrix.from_rows(
            [[F(1, 2) if (i, j) == (2, 7) else 0 for j in range(alg.dim)]
             for i in range(alg.dim)]
        )
        changed = Biderivation(tuple(mats))
        violation = _assert_scans_agree(alg, changed)
        assert violation is not None


def test_tang_gate_on_dense_sl4():
    # sl(4) on a dense rational basis whose constants share a 155-bit
    # denominator: complete, so every mode is lifted from V+ = 0 and V-.
    alg = oracles.change_basis(oracles.sl_n(4), oracles.unit_upper(15))
    assert alg._int_table[0].bit_length() == 155
    assert biderivation_space(alg).dim == 1
    assert constrained_biderivation_space(alg, "symmetric").dim == 0
    skew = constrained_biderivation_space(alg, "skew")
    assert skew.space == Subspace.span([inner_biderivation(alg, [1]).flatten()], 15 ** 3)


# the solver's rows in the x_is; `_symmetry_rows` above is the n^3 oracle's
_solver_rows = liebider.derivations._symmetry_rows


def _der_rows(alg):
    """The Der(L) rows of `derivation_space`: `_solver_rows` of sign -1
    over the adjoint family with the bracket term."""
    return _solver_rows(_adjoint_family(alg), alg.dim, -1, alg._int_table[1])


_CORRESPONDENCE_TABLES = dict(
    oracles.ORACLE_TABLES,
    **oracles.RESTRICTED_TABLES,
    **{f"borel({n})": (lambda n=n: oracles.borel_n(n)) for n in (3, 4, 5)},
    sl4=lambda: oracles.sl_n(4),
)


def _over_derivation_basis(alg, der, mode):
    """The biderivations in ``mode`` solved from the symmetry rows over the
    canonical basis of ``der``, the path of every input that is not
    complete."""
    n = alg.dim
    family = _primitive_derivations(der)
    xs = [
        x
        for sign in {None: (-1, 1), "symmetric": (-1,), "skew": (1,)}[mode]
        for x in kernel_of_rows(_solver_rows(family, n, sign), n * len(family)).basis
    ]
    return _lift(xs, family, n)


@pytest.mark.parametrize("name", sorted(_CORRESPONDENCE_TABLES))
def test_correspondence_matches_the_derivation_basis(name, monkeypatch):
    # On a complete algebra each mode is lifted from the commuting (+1) and
    # skew-commuting (-1) maps, each system built once per algebra and the
    # skew-commuting one not at all when L is semisimple; it must equal the
    # Der-basis path.  Other inputs take that path, one system per sign
    # and mode.
    alg = _CORRESPONDENCE_TABLES[name]()
    der = derivation_space(alg)
    complete = is_complete(alg).complete
    expected = {
        mode: _over_derivation_basis(alg, der, mode)
        for mode in (None, "symmetric", "skew")
    }
    signs = []

    def counted(family, n, sign):
        signs.append(sign)
        return _solver_rows(family, n, sign)

    monkeypatch.setattr(liebider.biderivations, "_symmetry_rows", counted)
    monkeypatch.setattr(liebider.derivations, "_symmetry_rows", counted)
    assert biderivation_space(alg).space == expected[None]
    for mode in ("symmetric", "skew"):
        assert constrained_biderivation_space(alg, mode).space == expected[mode], mode
    if not complete:
        assert signs == [-1, 1, -1, 1]
    elif killing_form(alg).semisimple:
        assert signs == [1]
    else:
        assert signs == [-1, 1]


@pytest.mark.parametrize("name", sorted(oracles.RESTRICTED_TABLES))
def test_restricted_scalars_have_two_skew_biderivations(name):
    # One index class, so the component projections give one commuting map,
    # but multiplication by s is a second: BiDer = Skew has dimension 2.
    alg = oracles.RESTRICTED_TABLES[name]()
    assert len(alg._components) == 1
    assert commuting_map_space(alg).dim == 2
    assert biderivation_space(alg).dim == 2
    assert constrained_biderivation_space(alg, "symmetric").dim == 0
    assert constrained_biderivation_space(alg, "skew").dim == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_paper_gate_on_borel_n(n):
    # The Borel subalgebras of sl(n) are complete but not semisimple, so
    # Tang's theorem does not apply; the paper's dim BiDer = dim V and
    # V = V+ (+) V- still hold.
    alg = oracles.borel_n(n)
    assert is_complete(alg).complete
    assert not killing_form(alg).semisimple
    assert biderivation_space(alg).dim == 2
    assert constrained_biderivation_space(alg, "symmetric").dim == 1
    assert constrained_biderivation_space(alg, "skew").dim == 1
    report = verify_direct_sum(alg)
    assert report.v_dim == 2
    assert report.is_direct_sum
    assert report.correspondence.ok


def _read_every_row(rows, ncols):
    """The kernel with every row read: a spare zero column keeps the rank
    below the column count, so no stop applies, and the wider kernel is
    ker A (+) span(e_spare), whose canonical basis ends with e_spare."""
    wide = kernel_of_rows(rows, ncols + 1)
    assert wide.pivots[-1:] == (ncols,)
    return Subspace(ncols, tuple(v[:-1] for v in wide.basis[:-1]), wide.pivots[:-1])



_STOP_TABLES = dict(
    oracles.ORACLE_TABLES,
    sl4=lambda: oracles.sl_n(4),
    sl5=lambda: oracles.sl_n(5),
    twostep_7_2=lambda: catalog("twostep(7,2)"),
)


@pytest.mark.parametrize("name", sorted(_STOP_TABLES))
def test_early_stop_keeps_every_kernel(name):
    # Each system solves to the same canonical kernel with its known part
    # and the full-rank stop as with every row read and no known part.
    alg = _STOP_TABLES[name]()
    n = alg.dim
    der = derivation_space(alg)
    adjoint = _adjoint_family(alg)
    for rows, space in (
        (_der_rows(alg), der),
        (_solver_rows(adjoint, n, 1), commuting_map_space(alg)),
        (_solver_rows(adjoint, n, -1), skew_commuting_map_space(alg)),
    ):
        assert space == _read_every_row(rows, n * n)
    family = _primitive_derivations(der)
    d = len(family)
    for mode, sign in (("symmetric", -1), ("skew", 1)):
        xs = _read_every_row(_solver_rows(family, n, sign), n * d).basis
        expected = _lift(list(xs), family, n)
        assert constrained_biderivation_space(alg, mode).space == expected, mode


def test_known_parts_end_elimination_early(monkeypatch):
    # ad(L) is all of Der(borel(4)), which is complete but not semisimple,
    # so its elimination stops before the last row (226 of 235 rows in the
    # present order); sl(4) is semisimple, so Der(L) = ad(L) is certified
    # without building a row; twostep(7,2) has outer derivations, so every
    # row is read.  The ideals of sl2 (+) sl2 give the two projections, all
    # of its commuting maps (sign +1), so that system stops early too, and
    # its skew biderivations are lifted from them without another row.
    counts = []

    def counting(build, label):
        def counted(*args):
            rows = list(build(*args))
            seen = [label(*args), 0, len(rows)]
            counts.append(seen)
            for row in rows:
                seen[1] += 1
                yield row

        return counted

    # `_symmetry_rows` builds every system; Der(L) is the call with the
    # bracket term
    monkeypatch.setattr(
        liebider.derivations,
        "_symmetry_rows",
        counting(_solver_rows, lambda family, n, sign, *bracket: "der" if bracket else sign),
    )
    derivation_space(oracles.borel_n(4))
    system, read, total = counts.pop()
    assert system == "der" and read < total == 235
    derivation_space(oracles.sl_n(4))
    assert counts == []
    derivation_space(catalog("twostep(7,2)"))
    system, read, total = counts.pop()
    assert system == "der" and read == total
    alg = catalog("sl2_plus_sl2")
    assert alg._components == ((0, 1, 2), (3, 4, 5))
    assert commuting_map_space(alg).dim == 2
    system, read, total = counts.pop()
    assert system == 1 and read < total
    assert constrained_biderivation_space(alg, "skew").dim == 2
    assert counts == []


def test_known_parts_only_under_jacobi():
    # ad(L) lies in Der(L) exactly when the Jacobi identity holds.  On
    # tables that fail it (built by `lie_algebra`, which runs no Jacobi
    # check) Der(L) must come from the rows alone.  The projections onto
    # the ideals commute with any antisymmetric table, so the skew
    # biderivations still equal the Der-basis path.
    broken = 0
    for name, make in oracles.ORACLE_TABLES.items():
        alg = make()
        n = alg.dim
        if n > 6:
            continue
        for i in range(n):
            for j in range(i + 1, n):
                for k in {j, (i + j) % n}:
                    constants = dict(alg.constants)
                    constants[(i, j, k)] = constants.get((i, j, k), 0) + 1
                    table = lie_algebra(n, constants)
                    if validate(table) is not None:
                        broken += 1
                        der = derivation_space(table)
                        assert der == kernel_of_rows(
                            _der_rows(table), n * n
                        ), (name, (i, j, k))
                        skew = constrained_biderivation_space(table, "skew")
                        expected = _over_derivation_basis(table, der, "skew")
                        assert skew.space == expected, (name, (i, j, k))
    assert broken > 70


_LIFT_TABLES = dict(oracles.ORACLE_TABLES, sl4=lambda: oracles.sl_n(4))


@pytest.mark.parametrize("name", sorted(_LIFT_TABLES))
def test_integer_lift_matches_fraction_lift(name):
    # Each mode's kernel vectors, and three seeded rational combinations of
    # them with denominators up to 7, so that the lcm scaling of the
    # integer lift is not 1.
    alg = _LIFT_TABLES[name]()
    n = alg.dim
    family = _primitive_derivations(derivation_space(alg))
    d = len(family)
    kernels = {
        sign: kernel_of_rows(_solver_rows(family, n, sign), n * d).basis
        for sign in (-1, 1)
    }
    rng = random.Random(f"lift {name}")
    for mode, signs in (("all", (-1, 1)), ("symmetric", (-1,)), ("skew", (1,))):
        xs = [x for sign in signs for x in kernels[sign]]
        assert _lift(xs, family, n) == oracles.fraction_lift(xs, family, n), mode
        mixed = []
        for _ in range(3 if xs else 0):
            coeffs = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in xs]
            mixed.append(
                tuple(sum(c * x[col] for c, x in zip(coeffs, xs)) for col in range(n * d))
            )
        assert _lift(mixed, family, n) == oracles.fraction_lift(mixed, family, n), mode


def _abelian2_map(*positions):
    """The map of abelian(2) with b_ij^k = 1 at each flat position."""
    return Biderivation.from_flat([int(p in positions) for p in range(8)], 2)


@pytest.mark.parametrize(
    "name, make, mode",
    [
        ("sl2", lambda alg: inner_biderivation(alg, [1]), "symmetric"),
        ("abelian(2)", lambda alg: _abelian2_map(0), "skew"),
        # b_01^0 = 1 and b_10^0 = 0: only the mirror of the nonzero is wrong
        ("abelian(2)", lambda alg: _abelian2_map(1), "symmetric"),
        ("abelian(2)", lambda alg: _abelian2_map(1), "skew"),
    ],
    ids=["sl2-inner-symmetric", "abelian2-b000-skew", "abelian2-b010-symmetric",
         "abelian2-b010-skew"],
)
def test_checked_refuses_the_wrong_symmetry(monkeypatch, name, make, mode):
    # A genuine biderivation of the wrong symmetry passes the checker, so
    # only the symmetry test in `_checked` can refuse it.
    alg = catalog(name)
    element = make(alg)
    assert biderivation_violation(alg, element) is None
    lifted = Subspace.span([element.flatten()], alg.dim ** 3)
    monkeypatch.setattr(liebider.biderivations, "_lift", lambda xs, family, n: lifted)
    with pytest.raises(InternalInconsistency, match=f"is not {mode}$"):
        constrained_biderivation_space(alg, mode)
