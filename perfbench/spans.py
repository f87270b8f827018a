"""Spans around the calls into each femasm layer, recorded from outside.

``Tracer.install`` replaces the module and class attributes that callers
look up at call time (``femasm.assembly.csc_from_triplets``,
``femasm.mesh.compute_areas``, ``CscBuilder.add``, ...) with wrappers that
record one span per call: name, start, end, parent span and a few counts.
``uninstall`` puts the originals back, so untraced runs pay nothing.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

_MIB = 2.0**20

_KG = ("assembly.batch_kg_mass", "assembly.batch_kg_mass_weighted",
       "assembly.batch_kg_stiff", "assembly.batch_kg_elastic", "assembly.batch_gradients")
_ELEMENTS = ("elements.elem_mass", "elements.elem_mass_weighted",
             "elements.elem_stiff", "elements.elem_stiff_elastic")


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, measure=None):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            before = measure.before(args) if measure else None
            span[1] = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure:
                span[4] = measure.after(before, args, out)
            return out

        traced.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, femasm) -> None:
        """Wrap the attributes femasm's callers look up, layer by layer."""
        mesh, assembly, sparse, cli = femasm.mesh, femasm.assembly, femasm.sparse, femasm.cli
        for attr in ("generate_unit_square_mesh", "generate_disk_mesh", "compute_areas"):
            self._wrap(mesh, attr, f"mesh.{attr}")
        self._wrap(cli, "read_mesh", "mesh.read_mesh")
        for attr in ("elem_mass", "elem_mass_weighted", "elem_stiff", "elem_stiff_elastic"):
            # the element loops look the kernels up in femasm.assembly
            self._wrap(assembly, attr, f"elements.{attr}")
        self._wrap(femasm, "assemble", "assembly.assemble")
        self._wrap(cli, "assemble", "assembly.assemble")
        for attr in ("build_ig_jg_p1", "build_ig_jg_p1_vector", "batch_gradients",
                     "batch_kg_mass", "batch_kg_mass_weighted", "batch_kg_stiff",
                     "batch_kg_elastic"):
            self._wrap(assembly, attr, f"assembly.{attr}")
        self._wrap(assembly, "csc_from_triplets", "sparse.csc_from_triplets", _CscMeasure())
        self._wrap(sparse, "csc_from_triplets", "sparse.csc_from_triplets", _CscMeasure())
        self._wrap(sparse.CscBuilder, "add", "sparse.add", _AddMeasure())
        self._wrap(sparse.CscBuilder, "add_block", "sparse.add_block")
        self._wrap(cli, "write_matrix_market", "sparse.write_matrix_market", _FileMeasure())
        self._wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_s, summed over all spans."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            self_time[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= t1 - t0

        csc = [s[4] for s in self.spans if s[0] == "sparse.csc_from_triplets"]
        adds = [s[4] for s in self.spans if s[0] == "sparse.add"]
        files = [s[4] for s in self.spans if s[0] == "sparse.write_matrix_market"]
        triplets_in = sum(c[0] for c in csc)
        nnz_out = sum(c[1] for c in csc)
        return {
            "mesh.generate_s": self_time["mesh.generate_unit_square_mesh"]
            + self_time["mesh.generate_disk_mesh"],
            "mesh.read_s": self_time["mesh.read_mesh"],
            "mesh.compute_areas_s": total["mesh.compute_areas"],
            "elements.calls": sum(calls[n] for n in _ELEMENTS),
            "elements.s": sum(total[n] for n in _ELEMENTS),
            "assembly.ig_jg_s": total["assembly.build_ig_jg_p1"]
            + total["assembly.build_ig_jg_p1_vector"],
            "assembly.kg_s": sum(self_time[n] for n in _KG),
            "assembly.self_s": self_time["assembly.assemble"],
            "sparse.csc_s": total["sparse.csc_from_triplets"],
            "sparse.triplets_in": triplets_in,
            "sparse.nnz_out": nnz_out,
            "sparse.kept_ratio": nnz_out / triplets_in if triplets_in else 0.0,
            "sparse.csc_peak_mib": max((c[2] for c in csc), default=0) / _MIB,
            "sparse.add_calls": calls["sparse.add"],
            "sparse.add_s": total["sparse.add"],
            "sparse.fresh_inserts": sum(1 for a in adds if a[0]),
            "sparse.bytes_shifted": sum(a[1] for a in adds),
            "sparse.add_block_calls": calls["sparse.add_block"],
            "sparse.add_block_self_s": self_time["sparse.add_block"],
            "sparse.write_mm_s": total["sparse.write_matrix_market"],
            "sparse.mm_bytes": sum(files),
            "cli.self_s": self_time["cli.main"],
        }

    def dump(self, path) -> None:
        """Write the spans as columns: names, start, end, parent, extra."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="ascii") as f:
            json.dump(
                {
                    "names": names,
                    "name": [code[s[0]] for s in self.spans],
                    "start": [s[1] for s in self.spans],
                    "end": [s[2] for s in self.spans],
                    "parent": [s[3] for s in self.spans],
                    "extra": [s[4] for s in self.spans],
                },
                f,
            )


class _CscMeasure:
    """Triplets in, entries out, and the tracemalloc peak of the call."""

    def before(self, args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        return started

    def after(self, started, args, out):
        peak = tracemalloc.get_traced_memory()[1]
        if started:
            tracemalloc.stop()
        return (int(np.size(args[2])), out.nnz, peak)


class _AddMeasure:
    """Whether the insertion was fresh, and the bytes it moved if so: a
    fresh insertion rewrites the stored values (8 B) and row indices (8 B)."""

    def before(self, args):
        return args[0].nnz

    def after(self, nnz_before, args, out):
        fresh = args[0].nnz > nnz_before
        return (fresh, 16 * nnz_before if fresh else 0)


class _FileMeasure:
    """Size of the file written to the path given as second argument."""

    def before(self, args):
        return None

    def after(self, _, args, out):
        return os.path.getsize(args[1])
