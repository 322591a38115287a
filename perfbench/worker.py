"""A fresh workload process; ``run.py`` starts one per round.

    worker.py gen MANIFEST WORKLOAD SEED
        write the workload's input documents next to MANIFEST and the
        manifest itself (needs the program only for its catalog JSON).
    worker.py setup RESULT CATALOG_CALL...
        import liebider, make the catalog calls, record the set-up time.
    worker.py round MANIFEST RESULT TRACE CATALOG_CALL...
        set up as above, then run one round of the manifest's operations,
        timing each, and record exit codes, outputs and peak memory; with
        TRACE 1 every liebider module is wrapped in spans first.

Both ``setup`` and ``round`` also record probe readings of the host's
current speed (``Probe``): one right after set-up, and in a round one
before an operation whenever 0.1 s has passed since the last, plus one at
the end.

A catalog call is written NAME@SEED.

Only ``sys`` and ``time`` are imported before the set-up clock starts, so
``setup_s`` includes every module that importing liebider pulls in.
"""

import sys
from time import perf_counter

_T0 = perf_counter()

import os  # noqa: E402  (os is loaded by interpreter start-up anyway)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# A probe reading is taken before an operation once this much time has passed
# since the last one; the host changes speed over seconds, not milliseconds.
PROBE_EVERY_S = 0.1
# A reading is the median of this many scans: over 660 timings of one
# operation between readings, the quartile spread of time / reading was
# 7.4% for the median of 9, 7.9% for the median of 3, 8.9% for the fastest
# of 3 and 35% unscaled.
PROBE_SCANS = 5


def _import_program():
    sys.path.insert(0, SRC)
    import liebider.cli

    if not os.path.abspath(liebider.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"liebider was imported from {liebider.__file__}, not {SRC}")
    return liebider


def _catalog_call(text: str):
    name, _, seed = text.rpartition("@")
    return name, int(seed)


def _setup(calls, tracer=None):
    liebider = _import_program()
    if tracer is not None:
        tracer.install()
    for name, seed in calls:
        liebider.catalog.catalog(name, seed=seed)
    return liebider, perf_counter() - _T0


class Probe:
    """Reads the host's current speed between operations.

    A reading times the benchmark's own Jacobi scan of sl(3) (``algebra.py``:
    Fraction products and sums in dicts, the kind of work liebider does).
    That code never changes, so its time moves only with the host.  A
    reading is the median of PROBE_SCANS scans, which drops a burst that
    hits one scan.
    """

    def __init__(self):
        sys.path.insert(0, HERE)
        import algebra

        self.scan = algebra.jacobi_first_violation
        self.alg = algebra.sl(3)
        self.done: list[int] = []  # operations finished before each reading
        self.seconds: list[float] = []
        self.last = 0.0

    def read(self, done: int) -> float:
        scans = []
        for _ in range(PROBE_SCANS):
            start = perf_counter()
            self.scan(self.alg)
            scans.append(perf_counter() - start)
        reading = sorted(scans)[PROBE_SCANS // 2]
        self.done.append(done)
        self.seconds.append(reading)
        self.last = perf_counter()
        return reading

    def due(self) -> bool:
        return perf_counter() - self.last >= PROBE_EVERY_S

    def around(self, count: int) -> list[float]:
        """For each operation, the mean of the readings just before and after it."""
        from bisect import bisect_right

        out = []
        for op in range(count):
            after = bisect_right(self.done, op)
            out.append((self.seconds[after - 1] + self.seconds[after]) / 2)
        return out


def gen(manifest_path: str, workload: str, seed: int) -> None:
    import contextlib
    import io
    import json

    liebider = _import_program()
    sys.path.insert(0, HERE)
    import workloads

    def catalog_doc(name: str, catalog_seed: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = liebider.cli.run_command(["catalog", name, "--seed", str(catalog_seed)])
        if code != 0:
            raise SystemExit(f"catalog {name} exited {code}")
        return json.loads(out.getvalue())

    manifest = workloads.build(workload, seed, os.path.dirname(manifest_path), catalog_doc)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def setup(result_path: str, calls) -> None:
    _, setup_s = _setup(calls)
    import json

    setup_probe = Probe().read(0)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"setup_s": setup_s, "setup_probe": setup_probe}, handle)


def run_round(manifest_path: str, result_path: str, traced: bool, calls) -> None:
    tracer = None
    if traced:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
    liebider, setup_s = _setup(calls, tracer)

    import contextlib
    import io
    import json
    import resource

    from liebider.documents import parse_algebra, parse_biderivation

    with open(manifest_path, encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    prepared = {}
    for index, op in enumerate(ops):
        if "lib" in op:
            with open(op["doc"], encoding="utf-8") as handle:
                alg = parse_algebra(handle.read())
            with open(op["bider"], encoding="utf-8") as handle:
                prepared[index] = (alg, parse_biderivation(handle.read(), alg))

    probe = Probe()
    setup_probe = probe.read(0)
    records = []
    round_start = perf_counter()
    for index, op in enumerate(ops):
        if probe.due():
            probe.read(index)
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        code, exc, report = None, None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if "lib" in op:
                    report = liebider.biderivations.two_step_properties(*prepared[index])
                    code = 0
                else:
                    code = liebider.cli.run_command(op["argv"])
        except Exception as error:  # an escaped exception is a failed operation
            exc = f"{type(error).__name__}: {error}"[:500]
        elapsed = perf_counter() - start
        text = out.getvalue()
        if report is not None:
            text = json.dumps({"passed": report.passed, "checks": report.checks,
                               "failures": [[kind, list(ix)] for kind, ix in report.failures]})
        records.append({"t": elapsed, "code": code, "out": text,
                        "err": err.getvalue()[:500], "exc": exc})
    wall = perf_counter() - round_start
    probe.read(len(ops))
    for record, reading in zip(records, probe.around(len(ops))):
        record["probe"] = reading
    if tracer is not None:
        tracer.op = -1
    result = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": records,
    }
    if tracer is not None:
        commands = [op["argv"][0] if "argv" in op else op["lib"] for op in ops]
        result["layers"] = tracer.layer_metrics(commands)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv) -> None:
    mode = argv[0]
    if mode == "gen":
        gen(argv[1], argv[2], int(argv[3]))
    elif mode == "setup":
        setup(argv[1], [_catalog_call(a) for a in argv[2:]])
    elif mode == "round":
        run_round(argv[1], argv[2], argv[3] == "1", [_catalog_call(a) for a in argv[4:]])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
