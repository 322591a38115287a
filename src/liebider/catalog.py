"""Built-in catalog of Lie algebras used throughout the test suite and CLI.

Every entry is constructed over Q with a documented basis.  Parameterized
names use a call syntax: ``abelian(4)`` and ``twostep(5,2)``; the latter is
seeded so random two-step nilpotent examples are reproducible.  sl3 comes
from `_sl_constants`, which reads the constants of sl(n) off sparse
elementary matrices for any order of the off-diagonal positions.
"""

from __future__ import annotations

import random
import re
from typing import Sequence

from .liealg import ConstantKey, LieAlgebra, direct_sum, lie_algebra, validate


class UnknownName(ValueError):
    """Raised for a catalog name that does not match any entry."""


def abelian(n: int) -> LieAlgebra:
    """Abelian algebra of dimension n (all brackets zero)."""
    if n < 0:
        raise UnknownName("abelian dimension must be nonnegative")
    return lie_algebra(n, {})


def heisenberg3() -> LieAlgebra:
    """Heisenberg algebra: basis (x, y, z) with [x, y] = z, z central."""
    return lie_algebra(3, {(0, 1, 2): 1}, ("x", "y", "z"))


def l22() -> LieAlgebra:
    """The two-dimensional non-abelian algebra: basis (e1, e2), [e1, e2] = e1."""
    return lie_algebra(2, {(0, 1, 0): 1}, ("e1", "e2"))


def sl2() -> LieAlgebra:
    """sl(2): basis (e, f, h) with [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    return lie_algebra(
        3,
        {(0, 1, 2): 1, (0, 2, 0): -2, (1, 2, 1): 2},
        ("e", "f", "h"),
    )


def so3() -> LieAlgebra:
    """so(3): basis (e1, e2, e3) with the cyclic bracket [e1, e2] = e3,
    [e2, e3] = e1, [e3, e1] = e2."""
    return lie_algebra(
        3,
        {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1},
        ("e1", "e2", "e3"),
    )


def _sl_constants(
    n: int, off_diagonal: Sequence[tuple[int, int]]
) -> dict[ConstantKey, int]:
    """Structure constants of sl(n) from its defining n x n matrices.

    The basis is E_ab for (a, b) in ``off_diagonal``, in that order, then
    h_a = E_aa - E_(a+1)(a+1).  Matrices are sparse {(a, b): c} and
    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb.  An off-diagonal entry is
    the coordinate of its E_ab, and a traceless diag(d) equals
    sum_a (d_1 + ... + d_a) h_a.
    """
    index = {pos: k for k, pos in enumerate(off_diagonal)}
    basis = [{pos: 1} for pos in off_diagonal]
    basis += [{(a, a): 1, (a + 1, a + 1): -1} for a in range(n - 1)]
    constants: dict[ConstantKey, int] = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm: dict[tuple[int, int], int] = {}
            for (a, b), u in basis[i].items():
                for (c, d), v in basis[j].items():
                    if b == c:
                        comm[(a, d)] = comm.get((a, d), 0) + u * v
                    if d == a:
                        comm[(c, b)] = comm.get((c, b), 0) - u * v
            coords = {index[pos]: c for pos, c in comm.items() if pos[0] != pos[1]}
            running = 0
            for a in range(n - 1):
                running += comm.get((a, a), 0)
                coords[len(off_diagonal) + a] = running
            constants.update(((i, j, k), c) for k, c in coords.items() if c)
    return constants


def sl3() -> LieAlgebra:
    """sl(3): basis x1=E12, x2=E23, x3=E13, y1=E21, y2=E32, y3=E31,
    h1=E11-E22, h2=E22-E33; brackets are genuine 3x3 commutators."""
    return lie_algebra(
        8,
        _sl_constants(3, ((0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0))),
        ("x1", "x2", "x3", "y1", "y2", "y3", "h1", "h2"),
    )


def sl2_plus_sl2() -> LieAlgebra:
    """Direct sum of two copies of sl(2); factors (3, 3)."""
    return direct_sum(sl2(), sl2())


def twostep(n: int, m: int, seed: int = 0) -> LieAlgebra:
    """Seeded random two-step nilpotent algebra of dimension n.

    The last m basis vectors are central, brackets of the first n - m
    vectors land in that center with integer coefficients drawn uniformly
    from [-2, 2] by ``random.Random(seed)``, and at least one bracket is
    forced nonzero so the result is genuinely two-step (not abelian).
    Requires n - m >= 2 and m >= 1.
    """
    if m < 1 or n - m < 2:
        raise UnknownName(
            "twostep(n, m) needs m >= 1 central and n - m >= 2 generators"
        )
    rng = random.Random(seed)
    g = n - m
    constants: dict[ConstantKey, int] = {}
    for i in range(g):
        for j in range(i + 1, g):
            for k in range(g, n):
                c = rng.randint(-2, 2)
                if c:
                    constants[(i, j, k)] = c
    if not constants:
        constants[(0, 1, g)] = 1
    names = tuple(f"g{t + 1}" for t in range(g)) + tuple(
        f"z{t + 1}" for t in range(m)
    )
    return lie_algebra(n, constants, names)


_PLAIN = {
    "heisenberg3": heisenberg3,
    "L22": l22,
    "sl2": sl2,
    "sl3": sl3,
    "so3": so3,
    "sl2_plus_sl2": sl2_plus_sl2,
}

_PARAM_RE = re.compile(r"^(?P<head>[A-Za-z_][A-Za-z0-9_]*)\((?P<args>[^)]*)\)$")
_ARG_RE = re.compile(r" *[0-9]+ *")  # ASCII digits only: no sign, `_` or other scripts

CATALOG_NAMES = ("abelian(n)", *_PLAIN, "twostep(n,m)")


def catalog(name: str, seed: int = 0) -> LieAlgebra:
    """Look up a catalog algebra by one of `CATALOG_NAMES`; ``seed`` feeds
    twostep(n,m)."""
    name = name.strip()
    if name in _PLAIN:
        alg = _PLAIN[name]()
    else:
        match = _PARAM_RE.match(name)
        if not match:
            raise UnknownName(f"unknown catalog name: {name!r}")
        head = match.group("head")
        parts = match.group("args").split(",")
        try:
            if not all(_ARG_RE.fullmatch(a) for a in parts):
                raise ValueError(parts)
            args = [int(a) for a in parts]
        except ValueError as exc:  # also numbers beyond the int/str digit limit
            raise UnknownName(f"bad catalog arguments in {name!r}") from exc
        if head == "abelian" and len(args) == 1:
            alg = abelian(args[0])
        elif head == "twostep" and len(args) == 2:
            alg = twostep(args[0], args[1], seed)
        else:
            raise UnknownName(f"unknown catalog name: {name!r}")
    violation = validate(alg)
    if violation is not None:
        raise RuntimeError(f"catalog entry {name!r} violates Jacobi: {violation}")
    return alg
