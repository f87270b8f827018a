"""Benchmark harness: times (kind, strategy) pairs over a family of
structured square meshes, writes a CSV, and fits log-log complexity
slopes.

Timing protocol per cell: one discarded warm-up run, then ``repetitions``
timed runs, median reported.  Every run, the warm-up included, assembles
on its own copy of the mesh, made outside the timer, so no run reuses
what an earlier one cached on the mesh: each ``optv2`` time covers the
symbolic phase (the sparsity pattern) as well as the numeric one, as in
the paper's OptV2.  Two practical guards keep superlinear strategies
from hijacking the wall clock: a run that exceeds ``long_run_s`` is not
repeated (its single time is the median), and the element-loop
strategies are aborted once they pass ``time_budget_s``.  An aborted
cell is recorded with status ``skipped``, its elapsed time, which is a
*lower bound* on the true cost, the number of timed runs completed
before it (0 when the warm-up was aborted) and how many triangles the
aborted run got through; larger sizes of the same pair are skipped
outright and inherit the budget as their lower bound.
"""

from __future__ import annotations

import csv
import io
import os
import platform
import statistics
import time
from dataclasses import dataclass, fields, replace
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .assembly import (
    AssemblyBudgetExceeded,
    MatrixKind,
    Strategy,
    WeightField,
    _check_budget,
    assemble,
)
from .elements import ElasticParams
from .mesh import Mesh, generate_unit_square_mesh

__all__ = [
    "BenchRecord",
    "default_metadata",
    "fit_loglog_slope",
    "read_records_csv",
    "run_bench",
    "write_records_csv",
]

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class BenchRecord:
    kind: str
    strategy: str
    nq: int
    nme: int
    n_df: int
    wall_time_seconds: float  # median of repetitions; lower bound when skipped
    repetitions: int
    status: str = STATUS_OK
    speedup: Optional[float] = None  # optv2 time / this time
    # how far the aborted run of a skipped cell got; None when none was aborted
    elements_done: Optional[int] = None
    elements_total: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def median_time(samples: Sequence[float]) -> float:
    """Median of the timed runs; robust to one outlier for >= 3 runs."""
    if not samples:
        raise ValueError("no samples")
    return float(statistics.median(samples))


def default_metadata(time_budget_s: float, repetitions: int) -> dict:
    return {
        "version": __version__,
        "machine": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timer": "time.perf_counter",
        "cpu_count": os.cpu_count() or 1,
        "threads": 1,  # all kernels are single-threaded
        "time_budget_s": time_budget_s,
        "repetitions": repetitions,
        "timing": "warmup discarded, median of repetitions, fresh mesh per run",
        "skipped_rows": "wall_time_seconds is a lower bound, "
        "elements_done of elements_total triangles assembled when aborted",
    }


def _time_cell(
    mesh: Mesh,
    kind: MatrixKind,
    strategy: Strategy,
    repetitions: int,
    time_budget_s: Optional[float],
    long_run_s: float,
) -> BenchRecord:
    """One cell, timed by the protocol in the module docstring."""
    cell = _cell_fields(mesh, kind, strategy)
    weight, params = WeightField.quadratic(), ElasticParams(1.0, 1.0)
    times: list[float] = []
    for rep in range(repetitions + 1):  # rep 0 is the warm-up
        fresh = Mesh(mesh.vertices, mesh.connectivity)
        t0 = time.perf_counter()
        try:
            assemble(fresh, kind, strategy, weight=weight, params=params, budget_s=time_budget_s)
        except AssemblyBudgetExceeded as exc:
            return BenchRecord(
                **cell,
                wall_time_seconds=exc.elapsed,
                repetitions=len(times),
                status=STATUS_SKIPPED,
                elements_done=exc.elements_done,
                elements_total=exc.elements_total,
            )
        elapsed = time.perf_counter() - t0
        if rep > 0:
            times.append(elapsed)
        if elapsed > long_run_s:
            if rep == 0:
                # too slow to warm up separately; count this run instead
                times.append(elapsed)
            break
    return BenchRecord(**cell, wall_time_seconds=median_time(times), repetitions=len(times))


def _cell_fields(mesh: Mesh, kind: MatrixKind, strategy: Strategy) -> dict:
    return {
        "kind": kind.value,
        "strategy": strategy.value,
        "nq": mesh.nq,
        "nme": mesh.nme,
        "n_df": kind.n_dof(mesh.nq),
    }


def run_bench(
    kinds: Iterable[MatrixKind],
    strategies: Iterable[Strategy],
    sizes: Sequence[int],
    repetitions: int,
    output_path=None,
    *,
    time_budget_s: float = 60.0,
    long_run_s: float = 10.0,
    verbose: bool = False,
) -> list[BenchRecord]:
    """Time every (kind, strategy, size) cell and optionally write a CSV.

    Each of ``kinds`` and ``strategies`` is a member of ``MatrixKind`` or
    ``Strategy`` or its value.  ``sizes`` are the per-side cell counts of
    the structured unit-square meshes, positive and ascending.  Runs are
    strictly sequential.
    """
    sizes = [index(n) for n in sizes]
    repetitions = index(repetitions)
    kinds = [MatrixKind(kind) for kind in kinds]
    strategies = [Strategy(strategy) for strategy in strategies]
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if min(sizes) < 1:
        raise ValueError(f"sizes must be positive, got {min(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if repetitions < 3:
        raise ValueError(f"repetitions must be >= 3, got {repetitions}")
    _check_budget(time_budget_s)
    if output_path is not None:
        # an unwritable path fails here, before any cell is timed; mode "a"
        # creates a missing file and leaves an existing one as it is
        open(output_path, "a", encoding="ascii").close()

    records: list[BenchRecord] = []
    meshes: dict[int, Mesh] = {}
    for kind in kinds:
        for strategy in strategies:
            over_budget = False
            for n in sizes:
                if n not in meshes:
                    meshes[n] = generate_unit_square_mesh(n)
                mesh = meshes[n]
                if over_budget:
                    rec = BenchRecord(
                        **_cell_fields(mesh, kind, strategy),
                        wall_time_seconds=float(time_budget_s),
                        repetitions=0,
                        status=STATUS_SKIPPED,
                    )
                else:
                    rec = _time_cell(
                        mesh, kind, strategy, repetitions, time_budget_s, long_run_s
                    )
                    over_budget = not rec.ok
                records.append(rec)
                if verbose:
                    print(
                        f"{rec.kind:8s} {rec.strategy:10s} nq={rec.nq:<9d} "
                        f"{rec.wall_time_seconds:10.3f}s  [{rec.status}]"
                    )

    records = _attach_speedups(records)
    if output_path is not None:
        write_records_csv(
            records, output_path, default_metadata(time_budget_s, repetitions)
        )
    return records


def _attach_speedups(records: list[BenchRecord]) -> list[BenchRecord]:
    ref_time = {
        (r.kind, r.nq): r.wall_time_seconds
        for r in records
        if r.strategy == Strategy.OPTV2.value and r.ok
    }
    out = []
    for r in records:
        ref = ref_time.get((r.kind, r.nq))
        if r.ok and ref is not None:
            out.append(replace(r, speedup=ref / r.wall_time_seconds))
        else:
            out.append(r)
    return out


# the CSV layout, one row per column: the BenchRecord field it holds, the
# type a cell is read back as, and the format a value is written with; a
# None is written as an empty cell
_SCHEMA = (
    ("kind", "kind", str, "{}"),
    ("strategy", "strategy", str, "{}"),
    ("nq", "nq", int, "{}"),
    ("nme", "nme", int, "{}"),
    ("n_df", "n_df", int, "{}"),
    ("median_seconds", "wall_time_seconds", float, "{:.3f}"),
    ("speedup_vs_reference", "speedup", float, "{:.2f}"),
    ("repetitions", "repetitions", int, "{}"),
    ("status", "status", str, "{}"),
    ("elements_done", "elements_done", int, "{}"),
    ("elements_total", "elements_total", int, "{}"),
)
# fields that may be empty, or whose column may be absent (files written
# before the elements_* columns existed lack them)
_OPTIONAL = {f.name for f in fields(BenchRecord) if f.default is None}


def write_records_csv(records: Sequence[BenchRecord], path, metadata: dict) -> None:
    """Deterministic CSV: '#'-prefixed metadata lines, a header row, then
    one row per record (seconds with 3 decimals, speedups with 2)."""
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key}: {metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(column for column, *_ in _SCHEMA)
    for r in records:
        writer.writerow(
            "" if (value := getattr(r, field)) is None else fmt.format(value)
            for _, field, _, fmt in _SCHEMA
        )
    with open(path, "w", encoding="ascii") as f:
        f.write(buf.getvalue())


def read_records_csv(path) -> list[BenchRecord]:
    """The records of a file written by write_records_csv.  Raises
    ValueError naming a required column the header lacks, a required
    cell that is empty or a cell that does not parse."""
    with open(path, "r", encoding="ascii") as f:
        reader = csv.DictReader([line for line in f if not line.startswith("#")])
        header = reader.fieldnames or []
    for column, field, _, _ in _SCHEMA:
        if column not in header and field not in _OPTIONAL:
            raise ValueError(f"{path}: no {column!r} column")
    records = []
    for row_no, row in enumerate(reader, 1):
        values = {}
        for column, field, parse, _ in _SCHEMA:
            cell = row.get(column)
            if cell:
                try:
                    values[field] = parse(cell)
                except ValueError:
                    raise ValueError(f"{path}: record {row_no} has a bad {column!r}: {cell!r}")
            elif field not in _OPTIONAL:
                raise ValueError(f"{path}: record {row_no} has no {column!r}")
        records.append(BenchRecord(**values))
    return records


def fit_loglog_slope(records: Sequence[BenchRecord]) -> float:
    """Least-squares slope of log(time) against log(nq).

    Requires at least 4 completed records spanning at least 1.5 decades
    in nq; skipped records are ignored.
    """
    ok = [r for r in records if r.ok]
    if len(ok) < 4:
        raise ValueError(f"need >= 4 completed records, got {len(ok)}")
    nq = np.array([r.nq for r in ok], dtype=np.float64)
    t = np.array([r.wall_time_seconds for r in ok], dtype=np.float64)
    span = np.log10(nq.max() / nq.min())
    if span < 1.5:
        raise ValueError(f"nq range spans only {span:.2f} decades, need >= 1.5")
    if (t <= 0).any():
        raise ValueError("wall times must be positive")
    slope, _ = np.polyfit(np.log(nq), np.log(t), 1)
    return float(slope)
