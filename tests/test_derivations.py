"""Derivation spaces, completeness, commuting maps, adjoint preimages."""

from fractions import Fraction
from functools import wraps

import pytest
from hypothesis import given, strategies as st

import liebider.derivations
import liebider.liealg
from liebider import cli, vdecomp
from liebider.catalog import catalog
from liebider.derivations import (
    CenterNonzero,
    NotInner,
    _adjoint_family,
    _symmetry_rows,
    ad_preimage,
    commuting_map_space,
    derivation_space,
    inner_derivation_space,
    is_complete,
    skew_commuting_map_space,
)
from liebider.documents import algebra_to_document, serialize_document
from liebider.liealg import (
    adjoint_matrix,
    bracket,
    center,
    killing_form,
    lie_algebra,
    validate,
)
from liebider.linalg import Matrix, kernel_beside, kernel_of_rows

import oracles

F = Fraction


def _der_rows(alg):
    """The Der(L) rows of `derivation_space`: the symmetry rows of sign -1
    over the adjoint family with the bracket term."""
    return _symmetry_rows(_adjoint_family(alg), alg.dim, -1, alg._int_table[1])


# Frozen pre-build oracle values: (der, commuting, skew-commuting) dims.
FROZEN_DIMS = {
    "heisenberg3": (6, 4, 6),
    "sl2": (3, 1, 0),
    "L22": (2, 1, 3),
    "so3": (3, 1, 0),
    "abelian(2)": (4, 4, 4),
    "abelian(3)": (9, 9, 9),
    "sl2_plus_sl2": (6, 2, 0),
}


def test_dimensions_match_frozen_oracle():
    for name, (der, comm, skew) in FROZEN_DIMS.items():
        alg = catalog(name)
        assert derivation_space(alg).dim == der, name
        assert commuting_map_space(alg).dim == comm, name
        assert skew_commuting_map_space(alg).dim == skew, name


@pytest.mark.parametrize("name", ["heisenberg3", "sl2", "L22", "abelian(2)"])
def test_dimensions_match_live_sympy_oracle(name):
    alg = catalog(name)
    assert derivation_space(alg).dim == oracles.der_dim(alg)
    comm, skew = oracles.commuting_dims(alg)
    assert commuting_map_space(alg).dim == comm
    assert skew_commuting_map_space(alg).dim == skew


def test_derivation_basis_satisfies_leibniz():
    for name in FROZEN_DIMS:
        alg = catalog(name)
        n = alg.dim
        for flat in derivation_space(alg).basis:
            d = Matrix.from_flat(flat, n, n)
            for i in range(n):
                for j in range(n):
                    ei, ej = alg.basis_element(i), alg.basis_element(j)
                    lhs = d.apply(bracket(alg, ei, ej))
                    rhs = tuple(
                        a + b
                        for a, b in zip(
                            bracket(alg, d.apply(ei), ej),
                            bracket(alg, ei, d.apply(ej)),
                        )
                    )
                    assert lhs == rhs, (name, i, j)


def test_inner_derivations_inside_derivations():
    for name in FROZEN_DIMS:
        alg = catalog(name)
        der = derivation_space(alg)
        inner = inner_derivation_space(alg)
        assert all(der.contains(v) for v in inner.basis)
        assert inner.dim == alg.dim - center(alg).dim  # rank-nullity of ad


def test_completeness_verdicts():
    for name, expected in [
        ("sl2", True),
        ("sl3", True),
        ("so3", True),
        ("sl2_plus_sl2", True),
        ("L22", True),
        ("heisenberg3", False),
        ("abelian(1)", False),
        ("abelian(4)", False),
    ]:
        report = is_complete(catalog(name))
        assert report.complete is expected, name
    report = is_complete(catalog("heisenberg3"))
    assert report.center_dim == 1
    assert report.derivation_dim == 6
    assert report.inner_dim == 2


def test_identity_always_commutes():
    # the identity map commutes on every algebra: [x, y] = [x, y]
    for name in FROZEN_DIMS:
        alg = catalog(name)
        assert commuting_map_space(alg).contains(
            Matrix.identity(alg.dim).flatten()
        )
        assert commuting_map_space(alg).dim >= 1 or alg.dim == 0


def test_commuting_maps_satisfy_definition():
    for name in FROZEN_DIMS:
        alg = catalog(name)
        n = alg.dim
        for flat in commuting_map_space(alg).basis:
            f = Matrix.from_flat(flat, n, n)
            for i in range(n):
                for j in range(n):
                    ei, ej = alg.basis_element(i), alg.basis_element(j)
                    assert bracket(alg, f.apply(ei), ej) == bracket(
                        alg, ei, f.apply(ej)
                    ), (name, i, j)
        for flat in skew_commuting_map_space(alg).basis:
            f = Matrix.from_flat(flat, n, n)
            for i in range(n):
                for j in range(n):
                    ei, ej = alg.basis_element(i), alg.basis_element(j)
                    assert bracket(alg, f.apply(ei), ej) == tuple(
                        -v for v in bracket(alg, ei, f.apply(ej))
                    ), (name, i, j)


@given(
    st.sampled_from(["sl2", "L22", "so3", "sl2_plus_sl2"]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=8),
)
def test_ad_preimage_roundtrip(name, coords):
    alg = catalog(name)
    x = tuple(F(coords[i % len(coords)]) for i in range(alg.dim))
    assert ad_preimage(alg, adjoint_matrix(alg, x)) == x


def test_ad_preimage_errors():
    with pytest.raises(CenterNonzero):
        ad_preimage(catalog("heisenberg3"), Matrix.zeros(3, 3))
    # not inner either: the kernel is the center line with lambda = 0
    with pytest.raises(CenterNonzero):
        ad_preimage(catalog("heisenberg3"), Matrix.identity(3))
    # identity has nonzero trace, every ad matrix is traceless on sl2
    with pytest.raises(NotInner):
        ad_preimage(catalog("sl2"), Matrix.identity(3))
    with pytest.raises(ValueError):
        ad_preimage(catalog("sl2"), Matrix.zeros(2, 2))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CenterNonzero, NotInner) as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(oracles.ORACLE_TABLES))
def test_integer_rows_match_fraction_rows(name, monkeypatch):
    # Every system is built from the integer table, each row S times (up to
    # sign) its Fraction row, so every result is equal to the Fraction one.
    # Over the adjoint family the symmetry rows of sign -+1 are those of the
    # (skew-)commuting maps, in the same order.
    alg = oracles.ORACLE_TABLES[name]()
    n = alg.dim
    scale = alg._int_table[0]
    family = _adjoint_family(alg)
    for coeffs, built, space in (
        ((-1, 1, 1), _der_rows(alg), derivation_space),
        ((0, 1, -1), _symmetry_rows(family, n, 1), commuting_map_space),
        ((0, 1, 1), _symmetry_rows(family, n, -1), skew_commuting_map_space),
    ):
        rows = list(oracles.fraction_map_rows(alg, *coeffs))
        assert list(built) == [
            {col: scale * v for col, v in row.items()} for row in rows
        ], coeffs
        assert space(alg) == kernel_of_rows(rows, n * n)
    assert center(alg) == kernel_of_rows(oracles.fraction_center_rows(alg), n)
    assert inner_derivation_space(alg) == oracles.dense_inner_derivation_space(alg)
    targets = [adjoint_matrix(alg, alg.basis_element(i)) for i in range(n)]
    for target in targets + [Matrix.identity(n), Matrix.zeros(n, n)]:
        assert _outcome(ad_preimage, alg, target) == _outcome(
            oracles.fraction_ad_preimage, alg, target
        )
    v = vdecomp.compute_V(alg)
    monkeypatch.setattr(
        vdecomp,
        "_joint_intertwiner_kernel",
        lambda alg: kernel_of_rows(oracles.fraction_intertwiner_rows(alg), 2 * n * n),
    )
    assert vdecomp.compute_V(alg) == v


_CERTIFY_TABLES = dict(
    oracles.ORACLE_TABLES,
    # ORACLE_TABLES holds every plain catalog name, abelian(3) and twostep(6,1)
    **{name: (lambda name=name: catalog(name)) for name in (
        "abelian(0)", "abelian(1)", "twostep(7,2)")},
    **{f"borel({n})": (lambda n=n: oracles.borel_n(n)) for n in (3, 4, 5)},
    sl3_rational=lambda: oracles.change_basis(catalog("sl3"), oracles.unit_upper(8)),
)


@pytest.mark.parametrize("name", sorted(_CERTIFY_TABLES))
def test_certified_derivations_match_elimination(name, built_systems):
    # Der(L) = ad(L) is certified, without a row, exactly on the valid tables
    # with a nondegenerate Killing form (dim 0 included: its form is
    # vacuously nondegenerate); every result equals the exact elimination.
    alg = _CERTIFY_TABLES[name]()
    nn = alg.dim * alg.dim
    assert validate(alg) is None
    exact = kernel_beside(alg._ad_split[0], _der_rows(alg), nn)
    certified = derivation_space(alg)
    assert certified == exact
    calls = built_systems
    assert (calls == []) == killing_form(alg).semisimple, calls
    if not calls:
        assert certified is alg._ad_split[0]


_SKEW_COMMUTING_TABLES = dict(
    _CERTIFY_TABLES, **oracles.RESTRICTED_TABLES, sl4=lambda: oracles.sl_n(4)
)


@pytest.mark.parametrize("name", sorted(_SKEW_COMMUTING_TABLES))
def test_semisimple_inputs_have_no_skew_commuting_maps(name, built_systems):
    # V+ = 0 is certified, without a row, exactly where Der(L) = ad(L) is
    # (`_semisimple`), and equals the exact kernel everywhere.
    alg = _SKEW_COMMUTING_TABLES[name]()
    exact = kernel_of_rows(
        _symmetry_rows(_adjoint_family(alg), alg.dim, -1), alg.dim * alg.dim
    )
    assert skew_commuting_map_space(alg) == exact
    calls = built_systems
    assert (calls == []) == killing_form(alg).semisimple, calls


def test_broken_table_never_takes_the_certificate(built_systems):
    # On a table that fails the Jacobi identity a nondegenerate Killing form
    # proves nothing: Der(L) and the skew-commuting maps come from every row,
    # Der(L) with no known part.
    alg = catalog("sl2")
    calls = built_systems
    broken = 0
    for key in [(i, j, k) for i in range(3) for j in range(i + 1, 3) for k in range(3)]:
        constants = dict(alg.constants)
        constants[key] = constants.get(key, 0) + 1
        table = lie_algebra(3, constants)
        if validate(table) is None or not killing_form(table).semisimple:
            continue
        broken += 1
        del calls[:]
        assert derivation_space(table) == kernel_of_rows(_der_rows(table), 9)
        assert calls == ["der"], key
        del calls[:]
        skew = skew_commuting_map_space(table)
        assert skew == kernel_of_rows(_symmetry_rows(_adjoint_family(table), 3, -1), 9)
        assert calls == [-1], key
    assert broken >= 3


@pytest.mark.parametrize(
    "name, command, code, expected",
    [
        ("sl2_plus_sl2", "info", 0, 1),
        ("sl2_plus_sl2", "vdecomp", 0, 1),
        ("L22", "info", 0, 1),
        ("L22", "vdecomp", 0, 1),
        ("heisenberg3", "info", 0, 1),
        # a nonzero center rules out the certificate before the form is read
        ("heisenberg3", "vdecomp", 1, 0),
    ],
)
def test_killing_form_computed_once_per_algebra(
    name, command, code, expected, tmp_path, monkeypatch, capsys
):
    # Counts computations: the undecorated form behind a fresh cache.
    calls = []
    original = killing_form.__wrapped__

    @wraps(original)
    def counted(alg):
        calls.append(alg.dim)
        return original(alg)

    cached = liebider.liealg._per_algebra(counted)
    for module in (liebider.liealg, liebider.derivations, vdecomp, cli):
        monkeypatch.setattr(module, "killing_form", cached)
    path = tmp_path / "alg.json"
    path.write_text(serialize_document(algebra_to_document(catalog(name), name)))
    assert cli.run_command([command, str(path)]) == code
    capsys.readouterr()
    assert len(calls) == expected
