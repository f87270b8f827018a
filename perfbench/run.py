"""femasm benchmark: one workload per run, from the root of a source tree.

    python3 perfbench/run.py --workload assemble-squares --seed 1 --seconds 50 --trace 0

A run sets up several times, each time building the workload's inputs
from the seed and making one warm-up call of each cell.  It checks every
output against an independent reference, then repeats whole passes over
the cells until ``--seconds`` have gone by, and reports the mean pass
time.  The program runs in this process on one thread.  The last line
printed is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced pass with ``--trace 1``.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# one thread for every numeric library, before any of them is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-ups per run (input build plus warm-up pass); setup_s takes their median.
SETUPS = 3


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _import_femasm():
    """femasm from this tree's src/, never from anywhere else."""
    if not (ROOT / "src" / "femasm" / "__init__.py").is_file():
        sys.exit(f"error: no femasm sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import femasm
    import femasm.cli

    return femasm


class Checker:
    """Checks outputs against references computed once per (mesh, kind),
    and counts attempted and failed calls."""

    def __init__(self, cells):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        cache = {}
        self.expected = {}
        for cell in cells:
            key = (cell.kind, id(cell.vertices))
            if key not in cache:
                cache[key] = cell.expected()
            self.expected[cell.name] = cache[key]

    def record(self, cell, output, error, properties: bool = False) -> None:
        self.attempted += 1
        problems = [repr(error)] if error is not None else []
        if error is None:
            matrix = cell.matrix(output)
            if not checks.values_match(matrix, self.expected[cell.name]):
                problems.append("values differ from the reference")
            if properties:
                problems += checks.property_failures(
                    cell.kind, matrix, cell.vertices, cell.connectivity
                )
        if problems:
            self.failed += 1
            self.notes.append(f"{cell.name}: {'; '.join(problems)}")


def _call(cell):
    """(output, error, seconds) of one timed call."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        output, error = cell.call(), None
    except Exception as exc:  # a failing call is counted, not fatal
        output, error = None, exc
    return output, error, time.perf_counter() - t0


def _passes(cells, checker, seconds: float):
    """Whole passes until ``seconds`` have gone by: per-cell times and pass times."""
    times = {cell.name: [] for cell in cells}
    pass_times = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        total = 0.0
        for cell in cells:
            output, error, dt = _call(cell)
            times[cell.name].append(dt)
            total += dt
            checker.record(cell, output, error)
            del output
        pass_times.append(total)
    return times, pass_times


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    femasm = _import_femasm()
    workload = WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None

    setups, builds = [], []
    checker = None
    for i in range(1 if trace else SETUPS):
        gc.collect()
        if tracer:
            tracer.install(femasm)
        t0 = time.perf_counter()
        try:
            inputs = workload.build(femasm, seed, OUT)
        finally:
            builds.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        cells = workload.cells(femasm, inputs)
        warm = [_call(cell) for cell in cells]
        setups.append(builds[-1] + sum(dt for _, _, dt in warm))
        if checker is None:
            # ru_maxrss is in KiB; read before any reference exists
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # every set-up makes the same inputs from the seed, so one
            # set of references serves them all
            checker = Checker(cells)
        for cell, (output, error, _) in zip(cells, warm):
            checker.record(cell, output, error, properties=i == 0)
        del warm, output
    setup_s = statistics.median(setups)
    run_problems = workload.run_failures(femasm, inputs)

    times, pass_times = _passes(cells, checker, seconds)
    # the mean over the whole run: on a shared host it held steadier from
    # run to run than the median or the fastest pass (see README.md)
    pass_s = statistics.fmean(pass_times)

    if tracer:
        tracer.install(femasm)
        try:
            _, traced_pass = _passes(cells, checker, 0.0)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced_pass[0] - pass_s
        tracer.dump(OUT / f"trace-{workload_name}-seed{seed}.json")
    else:
        metrics = {"setup_s": setup_s, "pass_s": pass_s, "peak_mib": peak_mib}
    units = _units("per_layer" if trace else "end_to_end")

    for note in checker.notes + run_problems:
        print(f"check failed: {note}", file=sys.stderr)
    result = {
        "correct": not run_problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    samples = {"setup_s": setups, "setup_builds_s": builds, "pass_s": pass_times, "calls_s": times}
    return result, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:26s} {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    # the result file also keeps every timed sample behind the metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "samples": samples}) + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
