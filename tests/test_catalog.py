"""Catalog entries: construction, naming, determinism."""

import time

import pytest

from liebider.catalog import UnknownName, catalog, sl3, twostep
from liebider.liealg import bracket, center, derived_subalgebra, validate
from liebider.linalg import Matrix

import oracles


def test_all_entries_satisfy_jacobi():
    names = [
        "sl2",
        "sl3",
        "so3",
        "sl2_plus_sl2",
        "heisenberg3",
        "L22",
        "abelian(0)",
        "abelian(1)",
        "abelian(5)",
        "twostep(4,1)",
        "twostep(6,2)",
    ]
    for name in names:
        assert validate(catalog(name)) is None, name


def test_large_abelian_validates_quickly():
    # Jacobi triples without a nonzero bracket among their pairs are
    # skipped, so an abelian table costs no C(n, 3) scan.
    start = time.perf_counter()
    alg = catalog("abelian(3000)")
    assert time.perf_counter() - start < 10
    assert alg.dim == 3000 and validate(alg) is None


def test_unknown_names_rejected():
    for bad in ["sl4", "abelian", "abelian(x)", "twostep(3,2)", "twostep(2,1)", ""]:
        with pytest.raises(UnknownName):
            catalog(bad)
    # each argument is ASCII digits with optional spaces around them: no
    # `_` separators, other scripts' digits, signs or empty arguments
    for bad in ["abelian(1_0)", "abelian( \u0662 )", "abelian(+3)", "abelian(,3)",
                "abelian(3,)", "abelian()", "twostep(6,,1)", "abelian(3\n)",
                "abelian(" + "1" * 5000 + ")"]:
        with pytest.raises(UnknownName):
            catalog(bad)
    assert catalog("twostep(6, 1)") == catalog("twostep(6,1)")
    assert catalog(" abelian( 3 ) ").dim == 3


def test_dimensions_and_names():
    assert catalog("abelian(4)").dim == 4
    assert catalog("sl3").dim == 8
    assert catalog("sl2").basis_names == ("e", "f", "h")
    assert catalog("heisenberg3").basis_names == ("x", "y", "z")
    assert catalog("twostep(5,2)").basis_names == ("g1", "g2", "g3", "z1", "z2")


SL3_OFF_DIAGONAL = ((0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0))
SL4_OFF_DIAGONAL = tuple((a, b) for a in range(4) for b in range(4) if a != b)


@pytest.mark.parametrize(
    "build, n, off_diagonal",
    [(sl3, 3, SL3_OFF_DIAGONAL), (lambda: oracles.sl_n(4), 4, SL4_OFF_DIAGONAL)],
    ids=["sl3", "sl_n(4)"],
)
def test_sl3_brackets_are_matrix_commutators(build, n, off_diagonal):
    """Every bracket equals the dense commutator of the basis matrices: the
    elementary E_ab in the given order, then E_aa - E_(a+1)(a+1)."""
    alg = build()

    def unit(a, b):
        return Matrix.from_rows(
            [[1 if (r, c) == (a, b) else 0 for c in range(n)] for r in range(n)]
        )

    reps = [unit(a, b) for a, b in off_diagonal]
    reps += [unit(a, a) - unit(a + 1, a + 1) for a in range(n - 1)]
    assert alg.dim == len(reps)
    for i in range(alg.dim):
        for j in range(alg.dim):
            coords = bracket(alg, alg.basis_element(i), alg.basis_element(j))
            realized = Matrix.zeros(n, n)
            for k, c in enumerate(coords):
                if c:
                    realized = realized + c * reps[k]
            assert realized == reps[i] * reps[j] - reps[j] * reps[i], (i, j)


def test_twostep_is_two_step_and_seeded():
    for seed in range(5):
        alg = twostep(6, 2, seed=seed)
        derived = derived_subalgebra(alg)
        assert 0 < derived.dim <= 2
        for v in derived.basis:
            assert center(alg).contains(v)
        # determinism
        assert twostep(6, 2, seed=seed) == alg
    assert twostep(6, 2, seed=0) != twostep(6, 2, seed=3) or True  # may collide
    # the degenerate all-zero draw is forced to be non-abelian
    for seed in range(8):
        assert derived_subalgebra(twostep(4, 2, seed=seed)).dim > 0


def test_catalog_seed_only_affects_twostep():
    assert catalog("sl2", seed=5) == catalog("sl2", seed=9)
    assert catalog("twostep(5,2)", seed=1) == catalog("twostep(5,2)", seed=1)
