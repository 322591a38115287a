"""End-to-end CLI behavior: reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, strategies as st

from liebider import __version__
from liebider.biderivations import bider_bracket_closure
from liebider.catalog import catalog
from liebider.cli import main, run_command

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = run_command(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def sl2_file(tmp_path, run):
    code, out, _ = run("catalog", "sl2")
    assert code == 0
    path = tmp_path / "sl2.json"
    path.write_text(out)
    return str(path)


@pytest.fixture
def l22_file(tmp_path, run):
    _, out, _ = run("catalog", "L22")
    path = tmp_path / "L22.json"
    path.write_text(out)
    return str(path)


@pytest.fixture
def classic_pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "mats": [[["0", "0"], ["0", "1"]], [["1", "0"], ["0", "0"]]],
            }
        )
    )
    return str(path)


def test_catalog_list_and_emission(run, tmp_path):
    code, out, _ = run("catalog")
    assert code == 0
    assert "sl2" in out and "twostep(n,m)" in out
    code, out, _ = run("catalog", "sl3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 8 and doc["name"] == "sl3"
    code, out, _ = run("catalog", "--json")
    names = json.loads(out)["results"]["names"]
    assert "heisenberg3" in names


def test_catalog_round_trip_through_info(run, tmp_path):
    for name in ["sl2", "heisenberg3", "twostep(5,2)"]:
        _, out, _ = run("catalog", name)
        path = tmp_path / "alg.json"
        path.write_text(out)
        code, info_out, _ = run("info", str(path), "--json")
        assert code == 0
        report = json.loads(info_out)
        assert report["inputs"]["algebra"] == json.loads(out)
        assert report["version"] == __version__


def test_info_fields(run, sl2_file):
    code, out, _ = run("info", sl2_file, "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dim"] == 3
    assert results["center_dim"] == 0
    assert results["lower_central_dims"] == [3, 3]
    assert results["nilpotency_class"] == "not nilpotent"
    assert results["killing_rank"] == 3
    assert results["semisimple"] is True
    assert results["complete"] is True


def test_biderivations_command(run, sl2_file):
    code, out, _ = run("biderivations", sl2_file, "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dim"] == 1 and results["mode"] == "all"
    assert len(results["basis"]) == 1
    assert len(results["basis"][0]) == 3  # one matrix per coordinate
    code, out, _ = run("biderivations", sl2_file, "--symmetric", "--json")
    assert json.loads(out)["results"]["dim"] == 0
    code, out, _ = run("biderivations", sl2_file, "--skew", "--json")
    assert json.loads(out)["results"]["dim"] == 1


def test_check_bider_classic_pair(run, l22_file, classic_pair_file):
    code, out, _ = run("check-bider", l22_file, classic_pair_file, "--json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["ok"] is False
    assert results["violation"]["condition"] == 1
    assert results["violation"]["triple"] == [0, 1, 0]
    assert results["violation"]["residual"] == ["0", "1"]


def test_check_bider_accepts_zero(run, l22_file, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps({"dim": 2, "mats": [[["0", "0"], ["0", "0"]]] * 2})
    )
    code, out, _ = run("check-bider", l22_file, str(path), "--json")
    assert code == 0
    assert json.loads(out)["results"]["ok"] is True


def test_only_json_reports_build_the_input_echo(
    run, l22_file, classic_pair_file, monkeypatch
):
    from liebider import cli

    built = []

    def counted(name):
        echo = getattr(cli, name)

        def build(*args):
            built.append(name)
            return echo(*args)

        return build

    for name in ("algebra_to_document", "biderivation_to_document"):
        monkeypatch.setattr(cli, name, counted(name))
    code, out, _ = run("check-bider", l22_file, classic_pair_file)
    assert code == 1 and out.startswith("command: check-bider")
    assert built == []
    code, out, _ = run("check-bider", l22_file, classic_pair_file, "--json")
    assert code == 1 and set(json.loads(out)["inputs"]) == {"algebra", "biderivation"}
    assert sorted(built) == ["algebra_to_document", "biderivation_to_document"]


def test_phi_psi_command(run, sl2_file, tmp_path):
    # the inner biderivation with lambda = 1/2
    from liebider.biderivations import inner_biderivation
    from liebider.catalog import catalog
    from liebider.documents import biderivation_to_document, serialize_document
    from fractions import Fraction

    cand = inner_biderivation(catalog("sl2"), [Fraction(1, 2)])
    path = tmp_path / "half.json"
    path.write_text(serialize_document(biderivation_to_document(cand)))
    code, out, _ = run("phi-psi", sl2_file, str(path), "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["phi"][0][0] == "1/2"
    assert results["classification"] == "skew"
    # non-biderivations are a mathematical failure
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "dim": 3,
                "mats": [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]] * 3,
            }
        )
    )
    code, out, _ = run("phi-psi", sl2_file, str(bad), "--json")
    assert code == 1
    assert "violation" in json.loads(out)["results"]


def test_phi_psi_requires_complete(run, tmp_path):
    _, out, _ = run("catalog", "heisenberg3")
    alg_path = tmp_path / "h3.json"
    alg_path.write_text(out)
    zero = tmp_path / "zero.json"
    zero.write_text(
        json.dumps({"dim": 3, "mats": [[["0"] * 3 for _ in range(3)]] * 3})
    )
    code, out, _ = run("phi-psi", str(alg_path), str(zero), "--json")
    assert code == 1
    assert "error" in json.loads(out)["results"]


@pytest.mark.parametrize("name", ["L22", "sl2_plus_sl2"])
def test_biderivations_command_slices_each_element_once(name, run, tmp_path, monkeypatch):
    # The checker and the renderer read one tuple of basis elements, each
    # holding a canonical row of the space itself, and no one reads the
    # dense `Subspace.basis` view.
    from liebider.biderivations import BiderivationSpace
    from liebider.linalg import Subspace

    _, out, _ = run("catalog", name)
    path = tmp_path / "alg.json"
    path.write_text(out)
    reads, dense_reads = [], []
    basis_elements, dense_basis = BiderivationSpace.basis_elements, Subspace.basis.fget

    def recorded(space):
        reads.append((space, basis_elements(space)))
        return reads[-1][1]

    def counted(space):
        dense_reads.append(space)
        return dense_basis(space)

    monkeypatch.setattr(BiderivationSpace, "basis_elements", recorded)
    monkeypatch.setattr(Subspace, "basis", property(counted))
    code, out, _ = run("biderivations", str(path), "--json")
    assert code == 0
    dim = json.loads(out)["results"]["dim"]
    assert dim > 0
    assert len(reads) == 2  # the checker, then the renderer
    (space, elements), (again, same) = reads
    assert again is space and same is elements
    assert len(elements) == dim
    assert all(e.row is row for e, row in zip(elements, space.space.rows))
    assert dense_reads == []


def test_vdecomp_command(run, tmp_path):
    _, out, _ = run("catalog", "sl2_plus_sl2")
    path = tmp_path / "ss.json"
    path.write_text(out)
    code, out, _ = run("vdecomp", str(path), "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["v_dim"] == 2
    assert results["vplus_dim"] == 0
    assert results["vminus_dim"] == 2
    assert results["direct_sum"] is True
    assert results["correspondence"]["ok"] is True
    # failed decomposition is exit 1
    _, out, _ = run("catalog", "abelian(2)")
    path = tmp_path / "ab.json"
    path.write_text(out)
    code, out, _ = run("vdecomp", str(path), "--json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["direct_sum"] is False
    assert results["intersection_dim"] == 4


def test_bracket_closure_command(run, tmp_path, l22_file):
    _, out, _ = run("catalog", "heisenberg3")
    path = tmp_path / "h3.json"
    path.write_text(out)
    code, out, _ = run("bracket-closure", str(path), "--json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["closed"] is False and results["witness_pair"] is not None
    _, out, _ = run("catalog", "sl2")
    path = tmp_path / "sl2.json"
    path.write_text(out)
    code, out, _ = run("bracket-closure", str(path), "--json")
    assert code == 0
    assert json.loads(out)["results"]["closed"] is True
    # L22: BiDer has dim 4 and six constants; the pair (1, 2) has two terms
    code, out, _ = run("bracket-closure", l22_file, "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["closed"] is True and results["bider_dim"] == 4
    constants = bider_bracket_closure(catalog("L22")).constants
    grouped = {}
    for (a, b, k), c in sorted(constants.items()):
        grouped.setdefault((a, b), []).append({"coeff": str(c), "index": k})
    assert sum(map(len, grouped.values())) == 6
    assert any(len(terms) == 2 for terms in grouped.values())
    assert results["induced_brackets"] == [
        {"left": a, "right": b, "result": terms} for (a, b), terms in grouped.items()
    ]


@pytest.fixture
def broken_file(tmp_path):
    """A 3-dim table that breaks the Jacobi identity at (0, 1, 2)."""
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim": 3,
                "brackets": [
                    {"left": 0, "right": 1, "result": [{"index": 2, "coeff": "1"}]},
                    {"left": 0, "right": 2, "result": [{"index": 0, "coeff": "1"}]},
                    {"left": 1, "right": 2, "result": [{"index": 1, "coeff": "1"}]},
                ],
            }
        )
    )
    return str(path)


def test_validate_and_jacobi_refusal(run, broken_file):
    code, out, _ = run("validate", broken_file, "--json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["valid"] is False
    assert results["violation"]["triple"] == [0, 1, 2]
    assert results["violation"]["residual"] == ["0", "0", "-2"]
    # solver commands refuse the same table
    code, out, _ = run("info", broken_file, "--json")
    assert code == 1
    assert json.loads(out)["results"]["valid"] is False


def test_every_command_refuses_a_broken_table(run, broken_file, tmp_path):
    """Every command prints validate's report under its own name and exits 1;
    the table is checked before a candidate file is read, so a missing one
    changes nothing."""
    missing = str(tmp_path / "missing.json")
    commands = [
        ["info"],
        ["derivations"],
        ["biderivations"],
        ["biderivations", "--symmetric"],
        ["biderivations", "--skew"],
        ["vdecomp"],
        ["bracket-closure"],
        ["check-bider", missing],
        ["phi-psi", missing],
    ]
    for fmt in ([], ["--json"]):
        code, expected, _ = run("validate", broken_file, *fmt)
        assert code == 1
        for cmd, *rest in commands:
            code, out, err = run(cmd, broken_file, *rest, *fmt)
            assert (code, err) == (1, ""), cmd
            if fmt:
                assert json.loads(out) == {**json.loads(expected), "command": cmd}
            else:
                assert out == expected.replace(
                    "command: validate", f"command: {cmd}", 1
                )


def test_validate_accepts_good_table(run, sl2_file):
    code, out, _ = run("validate", sl2_file, "--json")
    assert code == 0
    assert json.loads(out)["results"]["valid"] is True


def test_input_errors_exit_two(run, tmp_path, capsys):
    code, _, err = run("info", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")
    code, _, err = run("info", str(garbage))
    assert code == 2
    code, _, err = run("catalog", "not_a_name")
    assert code == 2
    code, _, err = run("catalog", "abelian(1_0)")
    assert code == 2 and "error" in err
    # numbers longer than the interpreter's int/str digit limit (4,300)
    long_coeff = tmp_path / "long_coeff.json"
    long_coeff.write_text(json.dumps({"dim": 2, "brackets": [
        {"left": 0, "right": 1, "result": [{"index": 0, "coeff": "1" + "0" * 4399}]}
    ]}))
    code, _, err = run("info", str(long_coeff))
    assert code == 2 and "error" in err
    # two terms of one index whose coefficients fit but whose sum does not
    long_sum = tmp_path / "long_sum.json"
    long_sum.write_text(json.dumps({"dim": 2, "brackets": [
        {"left": 0, "right": 1, "result": [
            {"index": 0, "coeff": "1/" + "7" * 4000},
            {"index": 0, "coeff": "1/" + "3" * 3999 + "1"},
        ]}
    ]}))
    for argv in (["info"], ["info", "--json"], ["validate", "--json"], ["derivations"]):
        code, out, err = run(*argv, str(long_sum))
        assert code == 2 and out == "", argv
        assert err.startswith("error: brackets[0].result[1].coeff: "), argv
    # every coefficient prints, but the Jacobi residual 1/(a b) at (0, 1, 2)
    # has more digits than the interpreter converts: exit 2, not a traceback
    a, b = "1" + "3" * 3000, "7" * 3000 + "1"
    long_residual = tmp_path / "long_residual.json"
    long_residual.write_text(json.dumps({"dim": 3, "brackets": [
        {"left": 0, "right": 1, "result": [
            {"index": 0, "coeff": "1/" + a}, {"index": 1, "coeff": b},
        ]},
        {"left": 0, "right": 2, "result": [{"index": 2, "coeff": "1/" + b}]},
    ]}))
    zero_candidate = tmp_path / "zero3.bider.json"
    zero_candidate.write_text(json.dumps({"dim": 3, "mats": [[["0"] * 3] * 3] * 3}))
    for cmd in (
        ["validate"], ["info"], ["derivations"], ["biderivations"],
        ["biderivations", "--symmetric"], ["biderivations", "--skew"], ["vdecomp"],
        ["bracket-closure"], ["check-bider", str(zero_candidate)],
        ["phi-psi", str(zero_candidate)],
    ):
        for fmt in ([], ["--json"]):
            argv = [cmd[0], str(long_residual), *cmd[1:], *fmt]
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert err == (
                "error: a value has more digits than the interpreter prints\n"
            ), argv
    long_dim = tmp_path / "long_dim.json"
    long_dim.write_text('{"dim": 1' + "0" * 4399 + "}")
    code, _, err = run("info", str(long_dim))
    assert code == 2 and "error" in err
    bad_pair = tmp_path / "pair.json"
    bad_pair.write_text(json.dumps({"dim": 2, "mats": [[["0"] * 2] * 2] * 2}))
    sl2 = tmp_path / "sl2.json"
    run_code, out, _ = run("catalog", "sl2")
    sl2.write_text(out)
    code, _, err = run("check-bider", str(sl2), str(bad_pair))
    assert code == 2  # document dim 2 against a dim-3 algebra
    # nesting deeper than the JSON decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, _, err = run("info", str(deep))
    assert code == 2 and "error" in err
    code, _, err = run("check-bider", str(sl2), str(deep))
    assert code == 2 and "error" in err
    # bytes that are not UTF-8
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    code, _, err = run("info", str(latin))
    assert code == 2 and "error" in err
    code, _, err = run("check-bider", str(sl2), str(latin))
    assert code == 2 and "error" in err
    # usage errors from argparse are exit 2 as well
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2


def test_seed_flag_feeds_twostep(run):
    _, out_a, _ = run("catalog", "twostep(5,2)", "--seed", "3")
    _, out_b, _ = run("catalog", "twostep(5,2)", "--seed", "3")
    _, out_c, _ = run("catalog", "twostep(5,2)", "--seed", "4")
    assert out_a == out_b
    assert out_a != out_c


def test_reports_are_byte_identical(run, sl2_file):
    outputs = set()
    for _ in range(3):
        code, out, _ = run("vdecomp", sl2_file, "--json")
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        code, out, _ = run("derivations", sl2_file)
        outputs.add(out)
    assert len(outputs) == 2


def test_version_flag(run):
    code, out, _ = run("--version")
    assert code == 0
    assert __version__ in out


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "liebider", "--version")
    assert (proc.returncode, proc.stdout) == (0, f"liebider {__version__}\n")


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every fresh process pays for what importing the CLI loads; `-S` keeps
    site hooks out of the count."""
    proc = _python(
        "-S",
        "-c",
        "import liebider.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_text_reports_render_matrices(run, sl2_file):
    code, out, _ = run("derivations", sl2_file)
    assert code == 0
    assert "derivation_dim: 3" in out
    assert "[" in out and "]" in out
    code, out, _ = run("biderivations", sl2_file)
    assert "element 0" in out and "B1" in out


SMALL = st.integers(min_value=-3, max_value=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), SMALL,
    st.sampled_from(["0", "1", "-2", "1/2", "3/0", "x", ""]),
)
ALGEBRA_DOCS = st.fixed_dictionaries(
    {"dim": SMALL},
    optional={
        "name": st.text(max_size=3),
        "basis": st.lists(st.text(max_size=2), max_size=4),
        "brackets": st.lists(
            st.fixed_dictionaries({
                "left": SMALL,
                "right": SMALL,
                "result": st.lists(
                    st.fixed_dictionaries({"index": SMALL, "coeff": SCALARS}),
                    max_size=3,
                ),
            }),
            max_size=4,
        ),
        "factors": st.lists(SMALL, max_size=3),
    },
)
BIDER_DOCS = st.integers(min_value=0, max_value=3).flatmap(
    lambda n: st.fixed_dictionaries({
        "dim": st.one_of(st.just(n), SMALL),
        "mats": st.lists(
            st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ),
    })
)


def _files(docs):
    """Arbitrary bytes, or a JSON document drawn from ``docs``."""
    return st.one_of(st.binary(max_size=40), docs.map(lambda d: json.dumps(d).encode()))


@given(_files(ALGEBRA_DOCS), _files(BIDER_DOCS))
def test_any_input_exits_zero_one_or_two(alg_bytes, bider_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        alg = pathlib.Path(tmp, "alg.json")
        alg.write_bytes(alg_bytes)
        bider = pathlib.Path(tmp, "bider.json")
        bider.write_bytes(bider_bytes)
        for argv in (
            ["validate", str(alg)],
            ["info", str(alg)],
            ["check-bider", str(alg), str(bider)],
        ):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
            assert code in (0, 1, 2), argv
