"""Acceptance gate: the ten headline behaviors, checked at exact tolerance.

Every check below uses exact rational equality (tolerance zero).  Each
criterion prints a single ``criterion NN: PASS``/``FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines for passing
criteria as well (pytest only shows captured output for failures).
"""

import contextlib
import random
import time
from fractions import Fraction

from liebider.biderivations import (
    Biderivation,
    biderivation_space,
    biderivation_violation,
    constrained_biderivation_space,
    extract_phi_psi,
    is_biderivation,
    two_step_properties,
)
from liebider.catalog import catalog
from liebider.derivations import (
    commuting_map_space,
    derivation_space,
    is_complete,
    skew_commuting_map_space,
)
from liebider.liealg import bracket, direct_sum, structure_matrices
from liebider.linalg import ONE, ZERO, Matrix
from liebider.vdecomp import compute_V, compute_Vpm, verify_direct_sum

import oracles

COMPLETE_NAMES = ["sl2", "sl3", "so3", "sl2_plus_sl2", "L22"]

# Concrete instantiations of the parameterized catalog families with dim <= 6.
SMALL_CATALOG = (
    ["L22", "sl2", "so3", "heisenberg3", "sl2_plus_sl2"]
    + [f"abelian({n})" for n in range(1, 7)]
    + [f"twostep({n},{m})" for n, m in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3)]]
)

TWOSTEP_SHAPES = [
    (3, 1),
    (4, 1),
    (4, 2),
    (5, 1),
    (5, 2),
    (5, 3),
    (6, 1),
    (6, 2),
    (6, 3),
    (6, 4),
]


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL - {label}")
        raise
    print(f"criterion {number:02d}: PASS - {label}")


def proportionality_factor(cand, mats):
    """The single rational lambda with cand.mats == lambda * mats, or None."""
    factor = None
    for bk, ak in zip(cand.mats, mats):
        for brow, arow in zip(bk, ak):
            for b, a in zip(brow, arow):
                if a == 0:
                    if b != 0:
                        return None
                    continue
                if factor is None:
                    factor = b / a
                elif b != factor * a:
                    return None
    return factor


def random_biderivation(rng, n):
    flat = [Fraction(rng.randint(-5, 5)) for _ in range(n * n * n)]
    return Biderivation.from_flat(flat, n)


def test_criterion_01_simple_algebras():
    with criterion(1, "sl2 and sl3 carry a one-dimensional biderivation space"):
        for name, budget in [("sl2", 1.0), ("sl3", 30.0)]:
            alg = catalog(name)
            start = time.perf_counter()
            space = biderivation_space(alg)
            elapsed = time.perf_counter() - start
            assert elapsed < budget, f"{name} took {elapsed:.2f}s"
            assert space.dim == 1
            (element,) = space.basis_elements()
            factor = proportionality_factor(element, structure_matrices(alg))
            assert factor is not None and factor != 0


def test_criterion_02_semisimple_block_scalars():
    with criterion(2, "sl2+sl2 biderivations are blockwise scalar with P = Q"):
        alg = catalog("sl2_plus_sl2")
        space = biderivation_space(alg)
        assert space.dim == 2
        for element in space.basis_elements():
            pair = extract_phi_psi(alg, element)
            assert pair.phi == pair.psi
            start = 0
            for size in alg.factors:
                scalar = pair.phi[start][start]
                for a in range(alg.dim):
                    for b in range(alg.dim):
                        in_block = (
                            start <= a < start + size and start <= b < start + size
                        )
                        if not in_block:
                            if start <= a < start + size or start <= b < start + size:
                                assert pair.phi[a][b] == 0
                        else:
                            expected = scalar if a == b else ZERO
                            assert pair.phi[a][b] == expected
                start += size


def test_criterion_03_completeness_gate():
    with criterion(3, "completeness verdicts and derivation dimensions"):
        for name in ["sl2", "sl3", "sl2_plus_sl2"]:
            assert is_complete(catalog(name)).complete is True
        for n in range(1, 5):
            assert is_complete(catalog(f"abelian({n})")).complete is False
        assert is_complete(catalog("heisenberg3")).complete is False
        for k in [1, 2]:
            extended = direct_sum(catalog("L22"), catalog(f"abelian({k})"))
            assert is_complete(extended).complete is False
        assert derivation_space(catalog("sl2")).dim == 3
        assert derivation_space(catalog("heisenberg3")).dim == 6


def test_criterion_04_non_example_violation():
    with criterion(4, "the classic L22 matrix pair fails condition (1)"):
        alg = catalog("L22")
        cand = oracles.bider(
            (
                Matrix.from_rows([[ZERO, ZERO], [ZERO, ONE]]),
                Matrix.from_rows([[ONE, ZERO], [ZERO, ZERO]]),
            )
        )
        violation = biderivation_violation(alg, cand)
        assert violation is not None
        assert violation.condition == 1
        assert violation.triple == (0, 1, 0)
        assert violation.residual == (ZERO, ONE)


def test_criterion_05_abelian_counts():
    with criterion(5, "abelian dimension formulas n^3, n^2(n+1)/2, n^2(n-1)/2"):
        for n in [1, 2, 3]:
            alg = catalog(f"abelian({n})")
            assert biderivation_space(alg).dim == n**3
            sym = constrained_biderivation_space(alg, "symmetric")
            skew = constrained_biderivation_space(alg, "skew")
            assert sym.dim == n * n * (n + 1) // 2
            assert skew.dim == n * n * (n - 1) // 2


def test_criterion_06_v_decomposition():
    with criterion(6, "V decomposes over sl2 and sl2+sl2 but not abelian(2)"):
        for name, dims in [("sl2", (1, 0, 1)), ("sl2_plus_sl2", (2, 0, 2))]:
            report = verify_direct_sum(catalog(name))
            assert (report.v_dim, report.vplus_dim, report.vminus_dim) == dims
            assert report.is_direct_sum is True
        report = verify_direct_sum(catalog("abelian(2)"))
        assert report.is_direct_sum is False
        assert report.intersection_dim == 4


def test_criterion_07_oracle_equivalence():
    with criterion(7, "canonical bases verify; random outsiders are rejected"):
        for name in SMALL_CATALOG:
            alg = catalog(name)
            n = alg.dim
            space = biderivation_space(alg)
            for element in space.basis_elements():
                assert is_biderivation(alg, element), name
            if space.dim == n**3:
                # Every bilinear map qualifies, so no outsiders exist; the
                # rejection-sampling half of the check is vacuous here.
                continue
            rng = random.Random(f"outsiders:{name}")
            rejected = 0
            while rejected < 100:
                cand = random_biderivation(rng, n)
                if space.space.contains(cand.flatten()):
                    continue
                assert not is_biderivation(alg, cand), name
                rejected += 1


def test_criterion_08_symmetry_correspondences():
    with criterion(8, "phi/psi signs and commuting-map dimensions line up"):
        for name in COMPLETE_NAMES:
            alg = catalog(name)
            n = alg.dim
            sym = constrained_biderivation_space(alg, "symmetric")
            skew = constrained_biderivation_space(alg, "skew")
            assert sym.dim == skew_commuting_map_space(alg).dim, name
            assert skew.dim == commuting_map_space(alg).dim, name
            for space, sign in [(sym, -1), (skew, 1)]:
                for element in space.basis_elements():
                    pair = extract_phi_psi(alg, element)
                    assert pair.psi == sign * pair.phi, name
                    # Round trip: phi and psi each rebuild the biderivation.
                    for i in range(n):
                        ei = alg.basis_element(i)
                        phi_ei = pair.phi.column(i)
                        for j in range(n):
                            ej = alg.basis_element(j)
                            value = element.evaluate(ei, ej)
                            assert value == bracket(alg, phi_ei, ej), name
                            psi_ej = pair.psi.column(j)
                            assert value == bracket(alg, ei, psi_ej), name


def test_criterion_09_two_step_properties():
    with criterion(9, "two-step algebras keep central arguments inside L'"):
        algebras = [catalog("heisenberg3")]
        for seed in [0, 1]:
            for n, m in TWOSTEP_SHAPES:
                algebras.append(catalog(f"twostep({n},{m})", seed=seed))
        assert len(algebras) == 21
        for alg in algebras:
            space = biderivation_space(alg)
            for element in space.basis_elements():
                report = two_step_properties(alg, element)
                assert report.passed, report.failures


def test_criterion_10_decomposition_constructions():
    with criterion(10, "witnesses split every V basis matrix into V- plus V+"):
        half = Fraction(1, 2)
        for name in COMPLETE_NAMES:
            alg = catalog(name)
            vspace = compute_V(alg)
            vplus, vminus = compute_Vpm(alg)
            for m, q in zip(vspace.matrices.basis_matrices(), vspace.witnesses):
                plus_part = m + q.transpose()
                minus_part = m - q.transpose()
                assert vminus.contains(plus_part), name
                assert vplus.contains(minus_part), name
                assert half * plus_part + half * minus_part == m, name
