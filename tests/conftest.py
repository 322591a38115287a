import contextlib
import sys

import pytest
from hypothesis import HealthCheck, settings

import liebider.derivations

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def built_systems(monkeypatch):
    """Every row system the solvers of `derivations` build, in order: "der"
    for `_derivation_rows`, and the sign of each `_symmetry_rows` call."""
    calls = []
    module = liebider.derivations
    derivation_rows, symmetry_rows = module._derivation_rows, module._symmetry_rows

    def counted_derivations(alg):
        calls.append("der")
        return derivation_rows(alg)

    def counted_symmetry(family, n, sign):
        calls.append(sign)
        return symmetry_rows(family, n, sign)

    monkeypatch.setattr(module, "_derivation_rows", counted_derivations)
    monkeypatch.setattr(module, "_symmetry_rows", counted_symmetry)
    return calls


@pytest.fixture
def computations():
    """``computations(f, g, ...)`` opens a context that yields
    {name: runs} of the undecorated body (``__wrapped__``) of each named
    `liealg._per_algebra` invariant.  Runs are read by code object under
    `sys.setprofile`, so the invariants and their caches run unpatched."""

    @contextlib.contextmanager
    def counting(*invariants):
        codes = {fn.__wrapped__.__code__: fn.__name__ for fn in invariants}
        runs = dict.fromkeys(codes.values(), 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                runs[codes[frame.f_code]] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            yield runs
        finally:
            sys.setprofile(previous)

    return counting
