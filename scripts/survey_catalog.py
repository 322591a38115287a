#!/usr/bin/env python3
"""Survey the built-in algebra catalog.

For every entry this prints the structural facts (dimension, center,
nilpotency class, Killing rank, completeness) next to the computed
dimensions of the derivation space, the biderivation space and its
symmetric/skew parts, and the V decomposition with its direct-sum and
bracket-closure verdicts.

Usage:
    python3 scripts/survey_catalog.py [--seed N] [--names sl2,so3,...]
"""

import argparse
import sys
import time

from liebider.biderivations import (
    bider_bracket_closure,
    biderivation_space,
    constrained_biderivation_space,
)
from liebider.catalog import catalog
from liebider.derivations import derivation_space
from liebider.liealg import center, killing_form, lower_central_series
from liebider.vdecomp import verify_direct_sum

DEFAULT_NAMES = [
    "abelian(1)",
    "abelian(2)",
    "abelian(3)",
    "L22",
    "heisenberg3",
    "sl2",
    "so3",
    "twostep(4,1)",
    "twostep(5,2)",
    "sl2_plus_sl2",
    "sl3",
]

COLUMNS = [
    ("name", 14),
    ("dim", 4),
    ("center", 7),
    ("class", 6),
    ("killing", 8),
    ("complete", 9),
    ("der", 4),
    ("bider", 6),
    ("sym", 4),
    ("skew", 5),
    ("V", 3),
    ("V+", 4),
    ("V-", 4),
    ("direct", 7),
    ("closed", 7),
    ("secs", 6),
]


def yes_no(flag):
    return "yes" if flag else "no"


def split_names(listing):
    """Split a comma-separated name list, ignoring commas inside parentheses."""
    names, buf, depth = [], [], 0
    for ch in listing:
        if ch == "," and depth == 0:
            names.append("".join(buf).strip())
            buf = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        buf.append(ch)
    names.append("".join(buf).strip())
    return [n for n in names if n]


def survey_row(name, seed):
    start = time.perf_counter()
    alg = catalog(name, seed=seed)
    series = lower_central_series(alg)
    killing = killing_form(alg)
    bider = biderivation_space(alg)
    report = verify_direct_sum(alg)
    closure = bider_bracket_closure(alg)
    row = {
        "name": name,
        "dim": alg.dim,
        "center": center(alg).dim,
        "class": series.nilpotency_class if series.nilpotent else "-",
        "killing": f"{killing.rank}{'*' if killing.semisimple else ''}",
        "complete": yes_no(report.complete),
        "der": derivation_space(alg).dim,
        "bider": bider.dim,
        "sym": constrained_biderivation_space(alg, "symmetric").dim,
        "skew": constrained_biderivation_space(alg, "skew").dim,
        "V": report.v_dim,
        "V+": report.vplus_dim,
        "V-": report.vminus_dim,
        "direct": yes_no(report.is_direct_sum),
        "closed": yes_no(closure.closed),
        "secs": f"{time.perf_counter() - start:.2f}",
    }
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed for twostep entries")
    parser.add_argument(
        "--names",
        default=",".join(DEFAULT_NAMES),
        help="comma-separated catalog names to survey",
    )
    args = parser.parse_args(argv)

    names = split_names(args.names)
    header = "".join(f"{title:<{width}}" for title, width in COLUMNS)
    print(header)
    print("-" * len(header.rstrip()))
    for name in names:
        row = survey_row(name, args.seed)
        print("".join(f"{str(row[title]):<{width}}" for title, width in COLUMNS))
    print()
    print("killing column: rank, '*' marks a semisimple (nondegenerate) form")
    print("direct column: whether V = V+ (+) V- holds as a direct sum")
    return 0


if __name__ == "__main__":
    sys.exit(main())
