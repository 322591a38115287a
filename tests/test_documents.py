"""Document parsing, serialization, and round trips."""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liebider.catalog import catalog
from liebider.biderivations import Biderivation
from liebider.documents import (
    DimMismatch,
    DocumentIndexError,
    JacobiError,
    ParseError,
    algebra_to_document,
    biderivation_to_document,
    load_algebra_document,
    parse_algebra,
    parse_biderivation,
    parse_rational,
    rational_str,
    serialize_document,
)
from liebider.linalg import Matrix

import oracles

F = Fraction


def test_rational_grammar():
    assert parse_rational("3", "$") == F(3)
    assert parse_rational("-1/2", "$") == F(-1, 2)
    assert parse_rational("4/6", "$") == F(2, 3)
    for bad in [
        "", "1.5", "1/-2", "--3", "a", "1/0", None, 7,
        # "$" matches before a trailing newline, "\d" matches any Unicode digit
        "1\n", "\u0661", "\u0663/\u0664",
    ]:
        with pytest.raises(ParseError):
            parse_rational(bad, "$")
    assert rational_str(F(2, 4)) == "1/2"
    assert rational_str(F(-7)) == "-7"
    assert rational_str(F(0)) == "0"


def test_parse_l22_document():
    text = json.dumps(
        {
            "name": "L22",
            "dim": 2,
            "basis": ["e1", "e2"],
            "brackets": [
                {"left": 0, "right": 1, "result": [{"index": 0, "coeff": "1"}]}
            ],
        }
    )
    alg = parse_algebra(text)
    assert alg == catalog("L22")


def test_parse_defaults_and_empty_brackets():
    alg = parse_algebra(json.dumps({"dim": 3, "brackets": []}))
    assert alg == catalog("abelian(3)")
    alg = parse_algebra(json.dumps({"dim": 0}))
    assert alg.dim == 0


def test_given_basis_is_checked_before_dim_allocates():
    # The default names are built only when "basis" is absent, so a large
    # "dim" next to a short basis is refused without a dim-sized list.
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            load_algebra_document(json.dumps({"dim": 1000000, "basis": []}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parse_index_errors():
    base = {"dim": 2, "basis": ["a", "b"]}
    cases = [
        [{"left": 1, "right": 0, "result": []}],
        [{"left": 0, "right": 0, "result": []}],
        [{"left": 0, "right": 5, "result": []}],
        [
            {"left": 0, "right": 1, "result": []},
            {"left": 0, "right": 1, "result": []},
        ],
        [{"left": 0, "right": 1, "result": [{"index": 9, "coeff": "1"}]}],
    ]
    for brackets in cases:
        with pytest.raises(DocumentIndexError):
            parse_algebra(json.dumps({**base, "brackets": brackets}))


def test_parse_errors_and_jacobi():
    with pytest.raises(ParseError):
        parse_algebra("not json at all {")
    with pytest.raises(ParseError):
        parse_algebra(json.dumps({"dim": -1}))
    with pytest.raises(ParseError):
        parse_algebra(json.dumps({"dim": 2, "basis": ["x"]}))
    with pytest.raises(ParseError):
        parse_algebra(
            json.dumps(
                {
                    "dim": 2,
                    "brackets": [
                        {"left": 0, "right": 1, "result": [{"index": 0, "coeff": "0.5"}]}
                    ],
                }
            )
        )
    with pytest.raises(ParseError):
        parse_algebra(json.dumps({"dim": 4, "factors": [2, 3]}))
    broken = json.dumps(
        {
            "dim": 3,
            "brackets": [
                {"left": 0, "right": 1, "result": [{"index": 2, "coeff": "1"}]},
                {"left": 0, "right": 2, "result": [{"index": 0, "coeff": "1"}]},
                {"left": 1, "right": 2, "result": [{"index": 1, "coeff": "1"}]},
            ],
        }
    )
    with pytest.raises(JacobiError) as info:
        parse_algebra(broken)
    v = info.value.violation
    assert (v.i, v.j, v.k) == (0, 1, 2)
    # the loader parses the same table, so `validate` can report on it
    alg, _ = load_algebra_document(broken)
    assert alg.dim == 3


def test_algebra_round_trip_for_catalog():
    for name in [
        "sl2",
        "sl3",
        "so3",
        "sl2_plus_sl2",
        "heisenberg3",
        "L22",
        "abelian(4)",
        "twostep(5,2)",
    ]:
        alg = catalog(name)
        text = serialize_document(algebra_to_document(alg, name))
        parsed, parsed_name = load_algebra_document(text)
        assert parsed == alg, name
        assert parsed_name == name
        # byte-identical re-serialization
        assert serialize_document(algebra_to_document(parsed, parsed_name)) == text


_JSON_LEAVES = (
    st.none() | st.booleans() | st.text()
    | st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
)


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner),
        max_leaves=30,
    )


@settings(max_examples=100)
@given(_documents(_JSON_LEAVES))
def test_serialize_document_is_canonical_json(doc):
    assert serialize_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@given(_documents(_JSON_LEAVES), st.floats() | st.fractions())
def test_serialize_document_rejects_floats_and_fractions(doc, bad):
    for wrapped in (bad, [doc, bad], {"a": doc, "b": {"c": (bad,)}}):
        with pytest.raises(TypeError):
            serialize_document(wrapped)


def test_parse_biderivation_and_dim_mismatch():
    alg = catalog("L22")
    doc = {
        "dim": 2,
        "mats": [[["0", "0"], ["0", "1"]], [["1", "0"], ["0", "0"]]],
    }
    cand = parse_biderivation(json.dumps(doc), alg)
    assert cand.mats[0] == Matrix.from_rows([[0, 0], [0, 1]])
    zero = parse_biderivation(
        json.dumps({"dim": 2, "mats": [[["0", "0"], ["0", "0"]]] * 2}), alg
    )
    assert all(oracles.is_zero(m) for m in zero.mats)
    with pytest.raises(DimMismatch):
        parse_biderivation(
            json.dumps({"dim": 3, "mats": [[["0"]]] * 3}), alg
        )
    with pytest.raises(DimMismatch):
        parse_biderivation(
            json.dumps({"dim": 2, "mats": [[["0", "0"], ["0", "0"]]] * 3}), alg
        )
    with pytest.raises(DimMismatch):
        parse_biderivation(
            json.dumps({"dim": 2, "mats": [[["0", "0"]], [["0", "0"], ["0", "0"]]]}),
            alg,
        )
    with pytest.raises(ParseError):
        parse_biderivation(
            json.dumps({"dim": 2, "mats": [[["0", "x"], ["0", "0"]]] * 2}), alg
        )


def test_biderivation_document_round_trip():
    cand = Biderivation(
        (
            Matrix.from_rows([[F(1, 2), 0], [3, -1]]),
            Matrix.from_rows([[0, F(-2, 3)], [0, 0]]),
        )
    )
    doc = biderivation_to_document(cand)
    text = serialize_document(doc)
    parsed = parse_biderivation(text, catalog("L22"))
    assert parsed == cand
    assert serialize_document(biderivation_to_document(parsed)) == text
