import contextlib
import inspect
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
    """Every row system the solvers of `derivations` build, in order: one
    label per `_symmetry_rows` call, the one builder of every system, "der"
    for the call that carries the bracket term (Der(L)) and the sign for
    the others."""
    calls = []
    module = liebider.derivations
    symmetry_rows = module._symmetry_rows

    def counted(family, n, sign, *bracket):
        calls.append("der" if bracket else sign)
        return symmetry_rows(family, n, sign, *bracket)

    monkeypatch.setattr(module, "_symmetry_rows", counted)
    return calls


@pytest.fixture
def computations():
    """``computations(f, g, ...)`` opens a context that yields
    {name: runs} of the undecorated body (``__wrapped__``) of each named
    `liealg._per_algebra` invariant, or of each named plain function.  Runs
    are read by code object under `sys.setprofile`, so the functions and
    the caches run unpatched."""

    @contextlib.contextmanager
    def counting(*invariants):
        codes = {inspect.unwrap(fn).__code__: fn.__name__ for fn in invariants}
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
