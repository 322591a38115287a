"""Metamorphic invariants: a change of basis keeps every dimension.

A random invertible rational matrix P turns the basis e_1..e_n into the
columns of P.  The new table describes the same algebra, so dim Der(L),
dim BiDer in every mode, dim V, dim V+, dim V- and the completeness verdict
cannot change.  The new constants have denominators (S > 1), so every
system is built from a scaled integer table.
"""

import random
from fractions import Fraction

import pytest

from liebider.biderivations import biderivation_space, constrained_biderivation_space
from liebider.catalog import catalog
from liebider.derivations import derivation_space, is_complete
from liebider.linalg import Matrix, Subspace
from liebider.vdecomp import compute_V, compute_Vpm

import oracles


def _invariants(alg):
    vplus, vminus = compute_Vpm(alg)
    return {
        "der": derivation_space(alg).dim,
        "bider": biderivation_space(alg).dim,
        "symmetric": constrained_biderivation_space(alg, "symmetric").dim,
        "skew": constrained_biderivation_space(alg, "skew").dim,
        "V": compute_V(alg).dim,
        "V+": vplus.dim,
        "V-": vminus.dim,
        "complete": is_complete(alg).complete,
    }


def _random_change(n, rng):
    while True:
        rows = [
            [Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(n)
        ]
        if Subspace.span(rows, n).dim == n:
            return Matrix.from_rows(rows)


INPUTS = {
    **{
        name: (lambda name=name: catalog(name, seed=3))
        for name in ("sl2", "so3", "sl3", "L22", "heisenberg3", "sl2_plus_sl2",
                     "twostep(6,1)")
    },
    "borel(4)": lambda: oracles.borel_n(4),
}


def dense_basis(name):
    """The input ``name`` on the random rational basis of random.Random(name)."""
    alg = INPUTS[name]()
    return oracles.change_basis(alg, _random_change(alg.dim, random.Random(name)))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_change_of_basis_keeps_invariants(name):
    moved = dense_basis(name)
    assert moved._int_table[0] > 1
    assert _invariants(moved) == _invariants(INPUTS[name]())
