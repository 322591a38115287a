"""The public records keep value semantics: copies and pickles compare and
hash like the original, fields cannot be reassigned, and small records
print their fields."""

import copy
import pickle
from fractions import Fraction

import pytest

from liebider.biderivations import (
    Biderivation,
    bider_bracket_closure,
    biderivation_space,
    inner_biderivation,
)
from liebider.catalog import catalog
from liebider.derivations import is_complete
from liebider.liealg import lie_algebra, validate
from liebider.linalg import Matrix, Subspace
from liebider.vdecomp import verify_direct_sum


def _sl2_with_tables():
    alg = catalog("sl2")
    alg._int_ad  # caches _int_table on the way
    return alg


def _inner_with_values():
    cand = inner_biderivation(catalog("sl2"), [Fraction(2, 3)])
    cand._int_values, cand.mats  # cached in the instance __dict__
    return cand


# name: (factory, a field to reassign, pinned repr or None)
RECORDS = {
    "Matrix": (
        lambda: Matrix.from_rows([[1, 2], [3, 4]]),
        "nrows",
        "Matrix(nrows=2, ncols=2, data=((Fraction(1, 1), Fraction(2, 1)), "
        "(Fraction(3, 1), Fraction(4, 1))))",
    ),
    "Subspace": (
        lambda: Subspace.span([[2, 1, 0], [4, 2, 0]], 3),
        "rows",
        "Subspace(ambient_dim=3, rows=(((0, 2), (1, 1)),), pivots=(0,))",
    ),
    "LieAlgebra": (_sl2_with_tables, "dim", None),
    "Biderivation": (
        lambda: Biderivation.from_flat([0, Fraction(1, 2), 0, 0, 0, 0, -1, 0], 2),
        "row",
        "Biderivation(dim=2, den=2, row=((1, 1), (6, -2)))",
    ),
    "BiderivationInner": (
        lambda: inner_biderivation(catalog("sl2"), [Fraction(2, 3)]), "row", None
    ),
    "BiderivationCached": (_inner_with_values, "row", None),
    "BiderivationSpace": (lambda: biderivation_space(catalog("L22")), "space", None),
    "JacobiViolation": (
        lambda: validate(lie_algebra(3, {(0, 1, 2): 1, (0, 2, 0): 1, (1, 2, 1): 1})),
        "residual",
        None,
    ),
    "CompletenessReport": (lambda: is_complete(catalog("sl2")), "complete", None),
    "ClosureReport": (lambda: bider_bracket_closure(catalog("L22")), "constants", None),
    "DirectSumReport": (
        lambda: verify_direct_sum(catalog("sl2")), "correspondence", None
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_value_semantics(name):
    make, field, expected_repr = RECORDS[name]
    record = make()
    twins = [
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]
    for twin in twins:
        assert type(twin) is type(record)
        assert twin == record
        if name != "ClosureReport":  # its constants are a dict: unhashable
            assert hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    if expected_repr is not None:
        assert repr(record) == expected_repr
