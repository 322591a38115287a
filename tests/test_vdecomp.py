"""V-space decomposition, witnesses, and the biderivation correspondence."""

import json
from fractions import Fraction

import pytest

from liebider.catalog import catalog
from liebider.biderivations import (
    NotComplete,
    biderivation_space,
    constrained_biderivation_space,
    extract_phi_psi,
    inner_biderivation,
)
from liebider.liealg import center, lie_algebra, structure_matrices
from liebider.linalg import Matrix, subspace_combine
from liebider.vdecomp import (
    bider_V_correspondence,
    compute_V,
    compute_Vpm,
    verify_direct_sum,
)

import oracles

F = Fraction

# Frozen pre-build oracle values: (dim V, dim V+, dim V-).
FROZEN_V_DIMS = {
    "heisenberg3": (7, 6, 4),
    "sl2": (1, 0, 1),
    "L22": (4, 3, 1),
    "so3": (1, 0, 1),
    "abelian(2)": (4, 4, 4),
    "abelian(3)": (9, 9, 9),
    "sl2_plus_sl2": (2, 0, 2),
}

COMPLETE_NAMES = ["sl2", "sl3", "so3", "sl2_plus_sl2", "L22"]

# Algebras with a center, where the witness Q is not unique and V+, V- are
# not intersected with V.
TWOSTEP_NAMES = ["twostep(6,1)", "twostep(7,2)"]


def test_dimensions_match_frozen_oracle():
    for name, (v, plus, minus) in FROZEN_V_DIMS.items():
        alg = catalog(name)
        assert compute_V(alg).dim == v, name
        vplus, vminus = compute_Vpm(alg)
        assert (vplus.dim, vminus.dim) == (plus, minus), name


@pytest.mark.parametrize(
    "name",
    ["heisenberg3", "sl2", "L22", "abelian(2)", "so3", "twostep(5,2)", "twostep(6,1)"],
)
def test_dimensions_match_live_sympy_oracle(name):
    alg = catalog(name)
    v, plus, minus = oracles.v_dims(alg)
    assert compute_V(alg).dim == v
    vplus, vminus = compute_Vpm(alg)
    assert (vplus.dim, vminus.dim) == (plus, minus)


def test_witnesses_intertwine():
    for name in [*FROZEN_V_DIMS, *TWOSTEP_NAMES]:
        alg = catalog(name)
        mats = structure_matrices(alg)
        vspace = compute_V(alg)
        assert len(vspace.witnesses) == vspace.dim
        for m, q in zip(vspace.matrices.basis_matrices(), vspace.witnesses):
            for ak in mats:
                assert m * ak == ak * q, name


def test_vpm_products_have_declared_symmetry():
    for name in [*FROZEN_V_DIMS, *TWOSTEP_NAMES]:
        alg = catalog(name)
        mats = structure_matrices(alg)
        vplus, vminus = compute_Vpm(alg)
        for m in vplus.basis_matrices():
            for ak in mats:
                prod = m * ak
                assert prod == prod.transpose(), name
        for m in vminus.basis_matrices():
            for ak in mats:
                prod = m * ak
                assert oracles.is_zero(prod + prod.transpose()), name


def test_vpm_inside_v_unconditionally():
    for name in [*FROZEN_V_DIMS, *TWOSTEP_NAMES]:
        alg = catalog(name)
        v = compute_V(alg).matrices.space
        vplus, vminus = compute_Vpm(alg)
        for vec in vplus.space.basis + vminus.space.basis:
            assert v.contains(vec), name


def test_direct_sum_verdicts():
    expectations = {
        "sl2": True,
        "sl3": True,
        "so3": True,
        "L22": True,
        "sl2_plus_sl2": True,
        "heisenberg3": False,
        "abelian(2)": False,
        "abelian(3)": False,
    }
    for name, expected in expectations.items():
        report = verify_direct_sum(catalog(name))
        assert report.is_direct_sum is expected, name
    ab = verify_direct_sum(catalog("abelian(2)"))
    assert ab.intersection_dim == 4
    h3 = verify_direct_sum(catalog("heisenberg3"))
    assert h3.intersection_dim == 3
    assert h3.sum_equals_v  # the sum fills V but is not direct
    assert not h3.complete


@pytest.mark.parametrize(
    "name, seed",
    [
        *((name, 0) for name in [*FROZEN_V_DIMS, "sl3", "abelian(1)"]),
        *(
            (name, seed)
            for name in ["twostep(5,2)", "twostep(6,1)", "twostep(7,2)"]
            for seed in (0, 3)
        ),
    ],
)
def test_vpm_intersection_is_the_maps_into_the_center(name, seed):
    # M in V+ and V- means M A_i = 0 for every i, i.e. [phi(e_a), e_b] = 0
    # for phi = M^T: the intersection is the transposed maps L -> Z(L).
    alg = catalog(name, seed=seed)
    report = verify_direct_sum(alg)
    assert report.intersection_dim == alg.dim * center(alg).dim


def test_decomposition_constructions():
    for name in COMPLETE_NAMES:
        alg = catalog(name)
        vspace = compute_V(alg)
        vplus, vminus = compute_Vpm(alg)
        half = F(1, 2)
        for m, q in zip(vspace.matrices.basis_matrices(), vspace.witnesses):
            plus_part = m + q.transpose()
            minus_part = m - q.transpose()
            assert vminus.contains(plus_part), name
            assert vplus.contains(minus_part), name
            assert half * (plus_part + minus_part) == m


def test_correspondence_on_complete_algebras():
    # abelian(0) is complete and semisimple with no simple factors
    for name in COMPLETE_NAMES + ["abelian(0)"]:
        alg = catalog(name)
        report = bider_V_correspondence(alg)
        assert report.ok, name
        assert report.dims_equal
        assert report.bider_dim == biderivation_space(alg).dim
        assert report.transposed_phis_in_v
        if report.semisimple:
            assert report.vplus_dim == 0
            assert report.vminus_dim == report.factor_count
        assert verify_direct_sum(alg).correspondence == report, name
    with pytest.raises(NotComplete):
        bider_V_correspondence(catalog("heisenberg3"))
    assert verify_direct_sum(catalog("heisenberg3")).correspondence is None


def unfactored_sl2_plus_sl2():
    """sl2 + sl2 without its ``factors``: one declared factor."""
    alg = catalog("sl2_plus_sl2")
    return lie_algebra(alg.dim, dict(alg.constants), alg.basis_names)


@pytest.mark.parametrize(
    "name, build",
    [
        ("sl2_plus_sl2_unfactored", unfactored_sl2_plus_sl2),
        ("sl2_plus_sl2_dense", oracles.dense_basis_sl2_plus_sl2),
        *sorted(oracles.RESTRICTED_TABLES.items()),
    ],
)
def test_declared_factors_bound_vminus_from_below(name, build, tmp_path, capsys):
    # Each input is semisimple with dim V- = 2 but declares one factor: the
    # projection onto each declared factor is a commuting map, so dim V- is
    # at least the factor count, and over Q it can be larger.
    from liebider import cli
    from liebider.documents import algebra_to_document, serialize_document

    alg = build()
    report = bider_V_correspondence(alg)
    assert (report.factor_count, report.vminus_dim, report.vplus_dim) == (1, 2, 0)
    assert report.semisimple and report.semisimple_shape_ok and report.ok
    path = tmp_path / "alg.json"
    path.write_text(serialize_document(algebra_to_document(alg, name)))
    assert cli.run_command(["vdecomp", str(path), "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["vminus_dim"], results["correspondence"]["ok"]) == (2, True)


@pytest.mark.parametrize("name, code", [("sl2_plus_sl2", 0), ("heisenberg3", 1)])
def test_vdecomp_command_computes_each_invariant_once(
    name, code, tmp_path, monkeypatch, capsys
):
    # Counts computations, not calls: cached reads are free.  Each invariant
    # is its undecorated function behind a fresh `liealg._per_algebra`.
    # Dropping the cache (`_per_algebra` returning ``compute(alg)`` without
    # storing it) makes "derivation_space" read 2 on sl2_plus_sl2, once for
    # the verdict of `is_complete` and once for the correspondence's
    # biderivations.
    from functools import cached_property, wraps

    from liebider import biderivations, cli, derivations, liealg, vdecomp
    from liebider.documents import algebra_to_document, serialize_document

    path = tmp_path / "alg.json"
    path.write_text(serialize_document(algebra_to_document(catalog(name), name)))
    calls = {
        "compute_V": 0, "compute_Vpm": 0, "derivation_space": 0, "_ad_split": 0,
        "killing_form": 0, "is_complete": 0,
    }

    def counting(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = (liealg, derivations, biderivations, vdecomp, cli)
    for attr in calls.keys() - {"_ad_split"}:
        original = next(getattr(m, attr) for m in modules if hasattr(m, attr))
        cached = liealg._per_algebra(counting(original.__wrapped__))
        for module in modules:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, cached)
    ad_split = cached_property(counting(liealg.LieAlgebra._ad_split.func))
    ad_split.__set_name__(liealg.LieAlgebra, "_ad_split")
    monkeypatch.setattr(liealg.LieAlgebra, "_ad_split", ad_split)
    assert cli.run_command(["vdecomp", str(path)]) == code
    capsys.readouterr()
    assert calls == {
        "compute_V": 1, "compute_Vpm": 1, "derivation_space": 1, "_ad_split": 1,
        # heisenberg3 has a center, so neither the Der(L) certificate nor
        # the (absent) correspondence reads its Killing form
        "killing_form": 1 if name == "sl2_plus_sl2" else 0,
        "is_complete": 1,
    }


@pytest.mark.parametrize("name", ["L22", "sl2_plus_sl2"])
def test_correspondence_after_direct_sum_recomputes_nothing(name, computations):
    from liebider.biderivations import _factor_phi_psi, biderivation_space
    from liebider.derivations import is_complete

    alg = catalog(name)
    first = verify_direct_sum(alg).correspondence
    counted = (compute_V, compute_Vpm, is_complete, biderivation_space, _factor_phi_psi)
    with computations(*counted) as runs:
        assert bider_V_correspondence(alg) == first
    assert runs == {
        "compute_V": 0, "compute_Vpm": 0, "is_complete": 0,
        "biderivation_space": 0, "_factor_phi_psi": 0,
    }
    # the first report did factor every basis element
    with computations(*counted) as runs:
        verify_direct_sum(catalog(name))
    assert runs["biderivation_space"] == 1 and runs["_factor_phi_psi"] == first.bider_dim


@pytest.mark.parametrize(
    "name, code, signs",
    [
        # complete, not semisimple: the correspondence reuses V+ and V-
        ("L22", 0, [-1, 1, "der"]),
        # semisimple: V+ = 0 and Der(L) = ad(L) need no row
        ("sl2_plus_sl2", 0, [1]),
        ("heisenberg3", 1, [-1, 1, "der"]),
    ],
)
def test_vdecomp_command_builds_each_map_system_once(
    name, code, signs, tmp_path, built_systems, capsys
):
    # "der" marks the derivation rows, a sign the symmetry rows of the
    # skew-commuting (-1) or the commuting (+1) maps.
    from liebider import cli
    from liebider.documents import algebra_to_document, serialize_document

    path = tmp_path / "alg.json"
    path.write_text(serialize_document(algebra_to_document(catalog(name), name)))
    assert cli.run_command(["vdecomp", str(path)]) == code
    capsys.readouterr()
    assert built_systems == signs


def test_semisimple_v_basis_is_blockwise_scalar():
    alg = catalog("sl2_plus_sl2")
    vspace = compute_V(alg)
    assert vspace.dim == 2
    combined = subspace_combine(
        vspace.matrices.space,
        vspace.matrices.space,
    )[0]
    block_one = Matrix.from_rows(
        [[1 if (i == j and i < 3) else 0 for j in range(6)] for i in range(6)]
    )
    block_two = Matrix.from_rows(
        [[1 if (i == j and i >= 3) else 0 for j in range(6)] for i in range(6)]
    )
    assert vspace.matrices.contains(block_one)
    assert vspace.matrices.contains(block_two)
    assert combined.dim == 2


def test_phi_transposes_span_v():
    # On complete algebras the phi-transposes of a biderivation basis span V.
    for name in COMPLETE_NAMES:
        alg = catalog(name)
        v = compute_V(alg)
        flats = []
        for element in biderivation_space(alg).basis_elements():
            pair = extract_phi_psi(alg, element)
            flats.append(pair.phi.transpose().flatten())
        from liebider.linalg import Subspace

        spanned = Subspace.span(flats, alg.dim ** 2)
        assert spanned == v.matrices.space, name


def test_skew_symmetric_bider_match_vminus_vplus():
    # Coordinate matrices of a biderivation are M A_k for M = phi^T, so the
    # symmetric/skew biderivation spaces land in V+/V- respectively.
    for name in COMPLETE_NAMES:
        alg = catalog(name)
        mats = structure_matrices(alg)
        vplus, vminus = compute_Vpm(alg)
        for element in constrained_biderivation_space(alg, "symmetric").basis_elements():
            pair = extract_phi_psi(alg, element)
            assert vplus.contains(pair.phi.transpose()), name
        for element in constrained_biderivation_space(alg, "skew").basis_elements():
            pair = extract_phi_psi(alg, element)
            assert vminus.contains(pair.phi.transpose()), name


def test_eliminations_do_not_grow_with_the_algebra(monkeypatch):
    # Z(L), ad(L) and every adjoint preimage come from one cached split, so
    # phi/psi extraction and the V check run a fixed number of eliminations
    # (one `_Reducer` each), whatever the dimension of the algebra.
    from liebider import linalg

    created = []

    class CountingReducer(linalg._Reducer):
        def __init__(self, ncols):
            super().__init__(ncols)
            created.append(ncols)

    monkeypatch.setattr(linalg, "_Reducer", CountingReducer)

    def eliminations(run, name):
        alg = catalog(name)
        del created[:]
        run(alg)
        return len(created)

    def extract(alg):
        factors = alg.factors or (alg.dim,)
        extract_phi_psi(alg, inner_biderivation(alg, [2] * len(factors)))

    names = ["sl2", "sl3", "sl2_plus_sl2"]
    for run in (extract, verify_direct_sum):
        counts = {name: eliminations(run, name) for name in names}
        assert len(set(counts.values())) == 1, (run.__name__, counts)
