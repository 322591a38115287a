#!/usr/bin/env python3
"""liebider benchmark: three workloads, answers checked independently.

    python3 perfbench/run.py --workload {solve,verify,query} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each round of a workload runs in its own fresh, single-threaded
Python process (see ``worker.py``).  Every answer is then checked
(``checks.py``), outside any timed region.

With ``--trace 0`` the last line reports the end-to-end metrics:

    setup_s      median time to import liebider and make the workload's
                 catalog calls, over every round process and as many
                 set-up-only processes (at least 9 samples)
    wall_s       time of the fixed operation sequence: the sum over the
                 operations of each one's median time in the untraced rounds
    op_p50_ms    median over the operations of the same median times
    op_p90_ms    90th percentile of the same median times
    peak_rss_mb  median peak resident memory of a round process

Untraced rounds repeat until their operations have taken ``--seconds``, and
at least ``workloads.LEAST_ROUNDS`` times.  Times are given at the speed of
a reference host: a shared host changes speed by up to a factor of two
within minutes, so each round process also times fixed work of the
benchmark's own between operations (``worker.Probe``), and every time is
scaled by that work's reference time over its time around the measurement,
raised to ``HOST_ELASTICITY`` (see ``at_reference``).

With ``--trace 1`` it runs untraced and traced rounds in turn for
``--seconds``, and reports the per-layer metrics of ``tracer.py`` (times
are medians over traced rounds, counts those of the first) plus
``trace.overhead_s``, the traced minus the untraced sequence time.

The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation fails when an exception escapes
it or its answer is wrong; ``correct`` is false when any answer is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from checks import Checker  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
# The median probe reading (``worker.Probe``, median of five Jacobi scans of
# sl(3)) over 12,650 readings in 15 runs on the reference machine, a 2-vCPU
# Xeon at 2.1 GHz with Python 3.11.7.  Scaled times read as seconds on that
# machine at its median speed.
REFERENCE_PROBE_S = 0.0014
# How times follow the probe reading: a time t taken while the reading was p
# is scaled to t * (REFERENCE_PROBE_S / p) ** HOST_ELASTICITY.  Over those 15
# runs the log-log slope of operation time against the reading, within each
# operation, was 0.71 to 0.76, and of set-up time 0.47 to 0.62; the readings'
# own noise pulls a slope below 1.  The quartile spreads over the runs were
# lowest for exponents from 0.7 to 0.9.
HOST_ELASTICITY = 0.8
PROCESS_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(*args: str) -> None:
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Run:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.manifest = os.path.join(workdir, "manifest.json")
        self.calls = [f"{name}@{seed}" for name in workloads.CATALOG_CALLS[workload]]
        self.count = 0

    def _result_path(self) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"result-{self.count}.json")

    def generate(self) -> list[dict]:
        _worker("gen", self.manifest, self.workload, str(self.seed))
        return _read(self.manifest)["ops"]

    def round(self, traced: bool) -> dict:
        path = self._result_path()
        _worker("round", self.manifest, path, "1" if traced else "0", *self.calls)
        return _read(path)

    def rounds(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Untraced rounds, each followed by a set-up-only process, so that
        the set-up samples are spread over the run like the rounds."""
        out: list[dict] = []
        setups: list[dict] = []
        least = workloads.LEAST_ROUNDS[self.workload]
        while len(out) < least or sum(r["wall_s"] for r in out) < seconds:
            out.append(self.round(traced=False))
            setups.append(self.setup_only())
        return out, setups

    def paired_rounds(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Untraced and traced rounds in turn, so both see the same host."""
        untraced: list[dict] = []
        traced: list[dict] = []
        while not traced or sum(r["wall_s"] for r in untraced + traced) < seconds:
            untraced.append(self.round(traced=False))
            traced.append(self.round(traced=True))
        return untraced, traced

    def setup_only(self) -> dict:
        path = self._result_path()
        _worker("setup", path, *self.calls)
        return _read(path)


def _digest(record: dict) -> tuple:
    return (record["code"], record["exc"], hashlib.sha1(record["out"].encode()).hexdigest())


def check_rounds(ops: list[dict], rounds: list[dict], checker: Checker):
    """Check every operation of every round; identical answers are checked once."""
    verdicts: dict[tuple, tuple[str, str]] = {}
    failed = wrong = 0
    problems: list[str] = []
    for rnd in rounds:
        records = rnd["ops"]
        for index, (op, record) in enumerate(zip(ops, records)):
            dep_index = op["check"].get("basis_op")
            dependency = records[dep_index] if dep_index is not None else None
            key = (index, _digest(record), _digest(dependency) if dependency else None)
            if key not in verdicts:
                verdicts[key] = checker.check(op, record, dependency)
            verdict, reason = verdicts[key]
            if verdict != "ok":
                failed += 1
                wrong += verdict == "wrong"
                name = op["argv"][0] if "argv" in op else op["lib"]
                message = f"op {index} {name}: {verdict}: {reason}"
                if message not in problems:
                    problems.append(message)
    return len(ops) * len(rounds), failed, wrong, problems


def at_reference(seconds: float, reading: float) -> float:
    """A time taken while the probe read ``reading``, at reference host speed."""
    return seconds * (REFERENCE_PROBE_S / reading) ** HOST_ELASTICITY


def op_times(rounds: list[dict]) -> list[float]:
    """Each operation's time at reference host speed, median over the rounds.

    The host is shared and its speed drifts, by up to a factor of two over
    minutes, which moves every operation alike.  Each time is scaled by the
    probe reading taken around that operation in the same process (see
    ``worker.Probe``), which takes most of the drift out; the median over
    the rounds then drops the bursts that hit single operations.
    """
    return [statistics.median(at_reference(r["ops"][i]["t"], r["ops"][i]["probe"])
                              for r in rounds)
            for i in range(len(rounds[0]["ops"]))]


def end_to_end(rounds: list[dict], setup_samples: list[dict]) -> dict[str, float]:
    times = op_times(rounds)
    return {
        "setup_s": statistics.median(at_reference(s["setup_s"], s["setup_probe"])
                                     for s in setup_samples),
        "wall_s": sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    layers = [r["layers"] for r in traced]
    notes = []
    for key, value in layers[0].items():
        if not key.endswith("_s") and any(other[key] != value for other in layers[1:]):
            notes.append(f"count {key} differs between traced rounds")
    metrics = {key: statistics.median(layer[key] for layer in layers) if key.endswith("_s")
               else layers[0][key] for key in layers[0]}
    metrics["trace.overhead_s"] = sum(op_times(traced)) - sum(op_times(untraced))
    return metrics, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_op"):
        return "calls/op"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "liebider", "__init__.py")):
        print(f"error: no liebider sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        run = Run(args.workload, args.seed, workdir)
        ops = run.generate()
        if args.trace:
            untraced, traced = run.paired_rounds(args.seconds)
            setup_samples = []
        else:
            untraced, setups = run.rounds(args.seconds)
            traced = []
            setup_samples = untraced + setups
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(run.setup_only())
        attempted, failed, wrong, problems = check_rounds(ops, untraced + traced, Checker())
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    readings = [r["probe"] for rnd in untraced for r in rnd["ops"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per round, "
          f"{len(untraced)} untraced and {len(traced)} traced rounds "
          f"(each operation's median of {len(untraced)} untraced times), "
          f"{len(setup_samples)} set-up samples")
    print(f"  probe reading: median {1000 * statistics.median(readings):.4f} ms "
          f"(reference {1000 * REFERENCE_PROBE_S} ms)")
    for message in problems:
        print(f"  FAILED {message}")
    if args.trace:
        values, notes = per_layer(untraced, traced)
        for note in notes:
            print(f"  NOTE {note}")
        units = {name: _unit(name) for name in values}
        base = values["cli.run_command_s"]
        for name, value in values.items():
            share = f"  {100 * value / base:5.1f}% of run_command" if (
                base and units[name] == "s" and name != "trace.overhead_s") else ""
            print(f"  {name:40s} {value:14.6f} {units[name]}{share}")
    else:
        values = end_to_end(untraced, setup_samples)
        units = dict(END_TO_END)
        for name, value in values.items():
            print(f"  {name:12s} {value:12.6f} {units[name]}")
        print(f"  unscaled: setup_s {statistics.median(s['setup_s'] for s in setup_samples):.6f}, "
              f"wall_s {sum(statistics.median(r['ops'][i]['t'] for r in untraced) for i in range(len(ops))):.6f}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
