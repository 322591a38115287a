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
