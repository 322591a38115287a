"""Smoke tests for the scripts under scripts/."""

import hashlib
import json
import pathlib
import runpy

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "cli_snapshot.sha256"


def test_survey_catalog_prints_one_row_per_name(capsys):
    survey = runpy.run_path(str(SCRIPTS / "survey_catalog.py"))
    assert survey["main"](["--names", "sl2,heisenberg3"]) == 0
    cells = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [row for row in cells if row[:1] in (["sl2"], ["heisenberg3"])]
    assert [row[0] for row in rows] == ["sl2", "heisenberg3"]
    assert [row[5] for row in rows] == ["yes", "no"]  # the complete column


def test_cli_snapshot_matches_pinned_digests(tmp_path):
    """Every output of scripts/cli_snapshot.py, error paths included, is
    byte-identical to the pinned one; its docstring says how to regenerate
    the digest file after an intended change of output."""
    snapshot = runpy.run_path(str(SCRIPTS / "cli_snapshot.py"))
    snapshot["write_snapshot"](tmp_path)
    expected = {}
    for line in DIGESTS.read_text().splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert actual == expected


def _canned_pair(parent, change, rounds=(9, 9), rss=(30.0, 30.0)):
    return {
        side: {"rounds": count, "result": {"metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": mb, "unit": "MB"},
        }}}
        for side, wall, count, mb in zip(("parent", "change"), (parent, change), rounds, rss)
    }


def test_bench_pairs_summary_on_canned_results():
    """The summary of scripts/bench_pairs.py: inclusive quartiles of each
    side, and pairs the change won, ties counting for neither."""
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    pairs = [_canned_pair(p, c) for p, c in [(5, 4), (1, 2), (3, 1), (4, 3), (2, 2)]]
    summary = bench["summarize"](pairs)
    assert summary["wall_s"] == {
        "parent": {"q1": 2.0, "median": 3.0, "q3": 4.0},
        "change": {"q1": 2.0, "median": 2.0, "q3": 3.0},
        "change_lower_in": "3/5",
    }
    assert summary["peak_rss_mb"]["change_lower_in"] == "0/5"
    single = bench["summarize"](pairs[:1])["wall_s"]
    assert single["parent"] == {"q1": 5, "median": 5, "q3": 5}


def test_bench_pairs_rounds_and_bounds_on_canned_results():
    """Each side's rounds per run, and the change/parent median ratio of
    every end-to-end metric checked against its bound."""
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    pairs = [
        _canned_pair(p, c, rounds, (30.0, mb))
        for p, c, rounds, mb in [
            (5, 4, (70, 80), 34.0), (1, 2, (71, 104), 35.5), (3, 1, (72, 90), 32.0),
        ]
    ]
    bounds = {
        "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
        "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    }
    summary = bench["summarize"](pairs, bounds)
    assert summary["rounds"] == {
        "parent": {"q1": 70.5, "median": 71, "q3": 71.5},
        "change": {"q1": 85.0, "median": 90, "q3": 97.0},
    }
    # wall_s medians 3 -> 2 s; peak_rss_mb 30 -> 34 MB is +13%
    assert summary["wall_s"]["ratio"] == 0.6667
    assert summary["wall_s"]["within_bound"] is True
    assert summary["peak_rss_mb"]["ratio"] == 1.1333
    assert summary["peak_rss_mb"]["within_bound"] is False
    higher = {"wall_s": dict(bounds["wall_s"], better="higher")}
    assert bench["summarize"](pairs, higher)["wall_s"]["within_bound"] is False
    assert "ratio" not in bench["summarize"](pairs)["wall_s"]


def test_bench_pairs_rss_fit_on_canned_results():
    """The line of peak_rss_mb over rounds through both sides' runs, and
    each side's median residual from it; equal rounds give a flat line."""
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    # parent (10, 30 MB), (20, 35 MB); change 2 MB above it at equal rounds
    pairs = [
        _canned_pair(1, 1, (10, 10), (30.0, 32.0)),
        _canned_pair(1, 1, (20, 20), (35.0, 37.0)),
    ]
    assert bench["summarize"](pairs)["peak_rss_fit"] == {
        "intercept_mb": 26.0, "mb_per_round": 0.5,
        "parent_residual_mb": -1.0, "change_residual_mb": 1.0,
    }
    flat = [_canned_pair(1, 1, (9, 9), (30.0, 34.0))]
    assert bench["summarize"](flat)["peak_rss_fit"] == {
        "intercept_mb": 32.0, "mb_per_round": 0.0,
        "parent_residual_mb": -2.0, "change_residual_mb": 2.0,
    }


def test_bench_pairs_claim_on_canned_results():
    """A gain holds when the change is better in nine tenths of the pairs,
    ties counting for neither, and its median gap exceeds the parent's
    q3 - q1."""
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    judge = bench["judge_claim"]
    parent = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
    pairs = [_canned_pair(p, p - 5) for p in parent[:9]] + [_canned_pair(11, 11)]
    # parent q1 10.25, median 11, q3 11.75; change median 6; one tie
    assert judge(pairs, "wall_s", "lower") == {
        "change_better_in": "9/10", "median_gap": 5.0,
        "parent_spread": 1.5, "claim_met": True,
    }
    two_ties = pairs[:8] + [_canned_pair(12, 12), _canned_pair(11, 11)]
    assert judge(two_ties, "wall_s", "lower")["change_better_in"] == "8/10"
    assert judge(two_ties, "wall_s", "lower")["claim_met"] is False
    # better in 10/10, but by less than the parent's spread
    close = [_canned_pair(p, p - 1) for p in parent]
    assert judge(close, "wall_s", "lower")["change_better_in"] == "10/10"
    assert judge(close, "wall_s", "lower")["claim_met"] is False
    # a metric where higher is better reads the same pairs the other way
    assert judge(pairs, "wall_s", "higher")["change_better_in"] == "0/10"
    assert judge(pairs, "wall_s", "higher")["claim_met"] is False


def _canned_checkout(root, wall, sources):
    """A checkout whose perfbench/run.py prints one canned result, with the
    given files under src/."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json\n"
        "print('3 untraced rounds')\n"
        f"print(json.dumps({{'metrics': {{'wall_s': {{'value': {wall}}}, "
        "'peak_rss_mb': {'value': 30.0}}}))\n"
    )
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
    }))
    for name, text in sources.items():
        path = root / "src" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_bench_pairs_runs_two_canned_checkouts(tmp_path):
    """The whole script on two tiny checkouts: their runs, and the src/
    line counts of each side (Python files only) with the delta."""
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    parent, change = tmp_path / "parent", tmp_path / "change"
    _canned_checkout(parent, 2.0, {"pkg/a.py": "a = 1\nb = 2\nc = 3\n", "pkg/notes.txt": "x\n"})
    _canned_checkout(change, 1.5, {"pkg/a.py": "a = 1\n", "pkg/sub/b.py": "b = 2\n"})
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--seed", "7", "--workloads", "solve:1",
            "--out", str(out)]
    assert bench["main"](argv) == 0
    doc = json.loads(out.read_text())
    assert doc["src_lines"] == {"parent": 3, "change": 2, "delta": -1}
    summary = doc["workloads"]["solve"]["summary"]
    assert summary["wall_s"]["ratio"] == 0.75
    assert summary["wall_s"]["within_bound"] is True
    assert [pair["seed"] for pair in doc["workloads"]["solve"]["pairs"]] == [7]


def test_bench_pairs_runs_each_side_with_a_fresh_bytecode_cache(tmp_path):
    """Each run gets its own empty PYTHONPYCACHEPREFIX, removed afterwards,
    so a __pycache__ in one checkout cannot make that side start warm."""
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        _canned_checkout(root, 1.0, {"pkg/a.py": "a = 1\n"})
        (root / "perfbench" / "run.py").write_text(
            "import json, os\n"
            "cache = os.environ.get('PYTHONPYCACHEPREFIX')\n"
            "seen = os.listdir(cache) if cache and os.path.isdir(cache) else None\n"
            "print('3 untraced rounds')\n"
            "print(json.dumps({'cache': cache, 'seen': seen, 'metrics': {\n"
            "    'wall_s': {'value': 1.0}, 'peak_rss_mb': {'value': 30.0}}}))\n"
        )
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--seed", "1", "--workloads", "solve:2",
            "--out", str(out)]
    assert bench["main"](argv) == 0
    doc = json.loads(out.read_text())
    results = [pair[side]["result"] for pair in doc["workloads"]["solve"]["pairs"]
               for side in ("parent", "change")]
    caches = [result["cache"] for result in results]
    assert [result["seen"] for result in results] == [[]] * 4
    assert len(set(caches)) == 4
    assert not any(pathlib.Path(cache).exists() for cache in caches)
    assert "PYTHONPYCACHEPREFIX" in doc["method"]
