#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarise.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seed 1601 \\
        --pairs 5 --workloads solve:10 verify query --out BENCH_15.json \\
        --title "what the change does" --claim solve:wall_s

Each checkout runs its own ``perfbench/run.py --trace 0`` for the
``run_seconds`` of the parent's ``BENCHMARK.json``, one run at a time,
with ``PYTHONPYCACHEPREFIX`` set to a fresh empty directory: neither side
reads bytecode cached in its checkout, whatever ``__pycache__`` it holds.  A
workload given as NAME:N runs N pairs, a bare NAME ``--pairs``.  Every pair
has its own seed, counting up from ``--seed`` over all the workloads; the
parent runs first in even-numbered pairs (0, 2, ...) of each workload and
the change first in odd ones, so drift of the host's speed during a pair
falls on both sides alike.

The output records the machine, the method, ``src_lines`` (the lines of
``src/**/*.py`` in the parent, in the change and their difference), each
run's rounds and result line, and per workload the q1, median and q3
(inclusive quartiles) of each side's rounds per run and of each metric,
with ``change_lower_in``, the number of pairs in which the change read
lower (ties count for neither) out of all pairs.  Each end-to-end metric
of the parent's
``BENCHMARK.json`` also gets ``ratio``, the change median over the parent
median, and ``within_bound``, whether the change is worse by no more than
the metric's ``bound``.  The rounds matter because ``peak_rss_mb`` grows
with them: a faster change runs more rounds in the same seconds.  So
``peak_rss_fit`` holds the least-squares line
``peak_rss_mb ~ intercept_mb + mb_per_round * rounds`` over both sides' runs
and each side's median residual from it: the line is the runner's growth
with each round, and the residuals compare the program's own memory at
equal rounds.
``--claim WORKLOAD:METRIC`` names the gain the change claims, on an
end-to-end metric; ``claim`` then records ``claim_met`` by the rule for a
gain: the change reads better in at least nine tenths of the pairs (ties
count for neither), and its median is better than the parent's by more than
the spread q3 - q1 of the parent's runs.
The file is rewritten after every pair, so an interrupted run keeps what
it has.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def rss_fit(pairs: list[dict]) -> dict[str, float]:
    """Least-squares line of ``peak_rss_mb`` over rounds through every run
    of both sides (flat when all runs made the same rounds), and each
    side's median residual from it."""
    runs = {
        side: [(p[side]["rounds"], p[side]["result"]["metrics"]["peak_rss_mb"]["value"])
               for p in pairs]
        for side in SIDES
    }
    rounds, rss = zip(*runs["parent"], *runs["change"])
    try:
        slope, intercept = statistics.linear_regression(rounds, rss)
    except statistics.StatisticsError:  # every run made the same rounds
        slope, intercept = 0.0, statistics.fmean(rss)
    fit = {"intercept_mb": round(intercept, 6), "mb_per_round": round(slope, 6)}
    for side in SIDES:
        residuals = [mb - (intercept + slope * count) for count, mb in runs[side]]
        fit[f"{side}_residual_mb"] = round(statistics.median(residuals), 6)
    return fit


def summarize(pairs: list[dict], bounds: dict[str, dict] | None = None) -> dict[str, dict]:
    """Quartiles of each side's rounds; per metric the quartiles of each
    side and the pairs won by the change, and for a metric named in
    ``bounds`` (end-to-end entries of ``BENCHMARK.json`` by name) the
    change/parent median ratio checked against its bound; and the
    `rss_fit` of ``peak_rss_mb`` over rounds."""
    summary = {
        "rounds": {side: quartiles([p[side]["rounds"] for p in pairs]) for side in SIDES}
    }
    for name in pairs[0]["parent"]["result"]["metrics"]:
        values = {
            side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
            for side in SIDES
        }
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry = summary[name] = {
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_lower_in": f"{lower}/{len(pairs)}",
        }
        spec = (bounds or {}).get(name)
        if spec is not None:
            ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
            worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            entry["ratio"] = round(ratio, 4)
            entry["within_bound"] = worse <= spec["bound"]
    if "peak_rss_mb" in summary:
        summary["peak_rss_fit"] = rss_fit(pairs)
    return summary


def judge_claim(pairs: list[dict], metric: str, better: str) -> dict:
    """Whether the change's gain on ``metric`` holds over ``pairs``: better
    in at least nine tenths of them, and a median gap wider than the
    parent's q3 - q1 (from the rounded quartiles the summary records)."""
    sign = 1 if better == "lower" else -1
    values = {
        side: [p[side]["result"]["metrics"][metric]["value"] for p in pairs]
        for side in SIDES
    }
    won = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    gap = round(sign * (parent["median"] - change["median"]), 6)
    spread = round(parent["q3"] - parent["q1"], 6)
    return {
        "change_better_in": f"{won}/{len(pairs)}",
        "median_gap": gap,
        "parent_spread": spread,
        "claim_met": 10 * won >= 9 * len(pairs) and gap > spread,
    }


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its untraced rounds and its result line.

    The run and its workers keep bytecode under ``PYTHONPYCACHEPREFIX``, a
    fresh empty directory, so they never read a ``__pycache__`` of the
    checkout: each side starts cold, as a fresh checkout does.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPYCACHEPREFIX=cache),
        )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    rounds = re.search(r"(\d+) untraced", lines[0])
    return {"rounds": int(rounds.group(1)), "result": json.loads(lines[-1])}


def src_lines(checkout: str) -> int:
    """Lines (newlines, as ``wc -l`` counts them) of ``src/**/*.py``."""
    return sum(
        path.read_bytes().count(b"\n") for path in pathlib.Path(checkout, "src").rglob("*.py")
    )


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "logical_cpus": os.cpu_count(),
        "os": f"{platform.system()} {platform.release().split('-')[0]}",
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs for a workload given without :N")
    parser.add_argument("--workloads", nargs="+", required=True,
                        help="NAME or NAME:N for each workload to run")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--title", default="",
                        help="what the change does, for the \"change\" key")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="the end-to-end metric on which the change claims a gain")
    args = parser.parse_args(argv)

    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    bounds = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    plan = []
    for entry in args.workloads:
        name, _, count = entry.partition(":")
        plan.append((name, int(count) if count else args.pairs))
    last_seed = args.seed + sum(count for _, count in plan) - 1
    claim = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in dict(plan) or metric not in bounds:
            parser.error(f"--claim {args.claim}: not a workload run and an end-to-end metric")
        claim = {"workload": workload, "metric": metric, "better": bounds[metric]["better"]}
    checkouts = {"parent": args.parent, "change": args.change}
    lines = {side: src_lines(checkout) for side, checkout in checkouts.items()}
    doc = {
        "change": args.title,
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "machine": machine(),
        "src_lines": dict(lines, delta=lines["change"] - lines["parent"]),
        "method": (
            ", ".join(f"{count} pairs on {name}" for name, count in plan)
            + f", one seed per pair ({args.seed}-{last_seed}); the parent runs "
            "first in even-numbered pairs (0, 2, ...) and the change first in "
            "odd ones; runs one at a time, each with PYTHONPYCACHEPREFIX set to a "
            "fresh empty directory, so both sides compile their bytecode cold"
        ),
        "claim": claim,
        "workloads": {},
    }
    seed = args.seed
    for name, count in plan:
        pairs: list[dict] = []
        for index in range(count):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], name, seed, seconds)
            pairs.append(pair)
            seed += 1
            doc["workloads"][name] = {"summary": summarize(pairs, bounds), "pairs": pairs}
            if claim is not None and claim["workload"] == name:
                claim.update(judge_claim(pairs, claim["metric"], claim["better"]))
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=1)
                handle.write("\n")
            wall = [pair[side]["result"]["metrics"]["wall_s"]["value"] for side in SIDES]
            rounds = [pair[side]["rounds"] for side in SIDES]
            print(f"{name} seed {pair['seed']}: wall_s parent {wall[0]:.4f} "
                  f"change {wall[1]:.4f}, rounds {rounds[0]} and {rounds[1]}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
