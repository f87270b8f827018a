"""The workloads: their inputs, the program calls of one pass, and the
reference each call is checked against.

Every program call goes through an attribute lookup on a femasm module
(``femasm.assemble``, ``femasm.cli.main``, ``femasm.mesh.*``), so that the
tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

KINDS = ("mass", "massw", "stiff", "elastic")

# optv2-shuffled: the paper's benchmark square, renumbered.
SQUARE_N = 300
# element-loop: classical and optv0 sizes where both per-entry overhead and
# the exact-fit storage rewrite matter, and the optv1 size.
LOOP_MASS_N, LOOP_ELASTIC_N, LOOP_OPTV1_N = 28, 14, 50
# file-roundtrip: rings of the disk mesh written to text.
DISK_N = 56


@dataclass
class Cell:
    """One distinct program call of a pass."""

    name: str
    kind: str
    call: Callable[[], object]
    # the output as a scipy matrix, for the value checks
    matrix: Callable[[object], object]
    # the mesh arrays the program was given, for the property checks
    vertices: np.ndarray
    connectivity: np.ndarray
    expected: Callable[[], object]


def _extra_args(femasm, kind: str) -> dict:
    if kind == "massw":
        return {"weight": femasm.WeightField.quadratic()}
    if kind == "elastic":
        return {"params": femasm.ElasticParams(checks.LAM, checks.MU)}
    return {}


def _assemble_cell(femasm, mesh, kind: str, strategy: str, expected) -> Cell:
    k, s, extra = femasm.MatrixKind(kind), femasm.Strategy(strategy), _extra_args(femasm, kind)
    return Cell(
        f"{strategy}/{kind}",
        kind,
        lambda: femasm.assemble(mesh, k, s, **extra),
        checks.as_scipy,
        mesh.vertices,
        mesh.connectivity,
        expected,
    )


def _references(mesh):
    """kind -> a function that computes that kind's reference on ``mesh``."""
    ref = checks.Reference(mesh.vertices, mesh.connectivity)
    return {kind: (lambda kind=kind: ref.matrix(kind)) for kind in KINDS}


def shuffle_mesh(femasm, mesh, seed: int):
    """The mesh with its vertices and triangles renumbered at random, and the
    vertex permutation: new vertex k is old vertex vertex_perm[k].  Each
    triangle keeps its corners in order, so orientation is unchanged."""
    rng = np.random.default_rng(seed)
    vertex_perm = rng.permutation(mesh.nq)
    triangle_perm = rng.permutation(mesh.nme)
    new_index = np.empty_like(vertex_perm)
    new_index[vertex_perm] = np.arange(mesh.nq)
    shuffled = femasm.mesh.Mesh(
        mesh.vertices[vertex_perm], new_index[mesh.connectivity[triangle_perm]]
    )
    return shuffled, vertex_perm


class Workload:
    name: str

    def build(self, femasm, seed: int, workdir: Path) -> dict:
        """Make the inputs from the seed."""
        raise NotImplementedError

    def cells(self, femasm, inputs: dict) -> list[Cell]:
        """The calls of one pass, in order."""
        raise NotImplementedError

    def run_failures(self, femasm, inputs: dict) -> list[str]:
        """Checks on the inputs that belong to no single call."""
        return []


class Optv2Shuffled(Workload):
    """optv2 on the paper's square, renumbered: one part of assemble-squares."""

    name = "optv2-shuffled"

    def build(self, femasm, seed, workdir):
        square = femasm.mesh.generate_unit_square_mesh(SQUARE_N)
        mesh, vertex_perm = shuffle_mesh(femasm, square, seed)
        return {"square": square, "mesh": mesh, "vertex_perm": vertex_perm}

    def cells(self, femasm, inputs):
        perm, ref = inputs["vertex_perm"], _references(inputs["square"])

        def expected(kind):
            # the shuffled matrix must be the ordered one, renumbered
            return lambda: checks.permuted(ref[kind](), checks.dof_permutation(perm, kind))

        return [_assemble_cell(femasm, inputs["mesh"], kind, "optv2", expected(kind)) for kind in KINDS]


class ElementLoop(Workload):
    """The per-element strategies on small squares: one part of assemble-squares."""

    name = "element-loop"

    def build(self, femasm, seed, workdir):
        square = femasm.mesh.generate_unit_square_mesh
        return {
            "mass": square(LOOP_MASS_N),
            "elastic": square(LOOP_ELASTIC_N),
            "optv1": square(LOOP_OPTV1_N),
        }

    def cells(self, femasm, inputs):
        out = []
        for kind in ("mass", "elastic"):
            mesh, ref = inputs[kind], _references(inputs[kind])
            for strategy in ("classical", "optv0"):
                out.append(_assemble_cell(femasm, mesh, kind, strategy, ref[kind]))
        mesh, ref = inputs["optv1"], _references(inputs["optv1"])
        out += [_assemble_cell(femasm, mesh, kind, "optv1", ref[kind]) for kind in KINDS]
        return out


class AssembleSquares(Workload):
    """The optv2-shuffled calls, then the element-loop calls, in one pass.

    Pure-Python element loops slow down far more than optv2's numpy work
    when the host is busy.  On their own they spread too much from run to
    run; as part of one workload, with the longer runs that two workloads
    allow, they stay within the bound."""

    name = "assemble-squares"
    parts = (Optv2Shuffled(), ElementLoop())

    def build(self, femasm, seed, workdir):
        return {part.name: part.build(femasm, seed, workdir) for part in self.parts}

    def cells(self, femasm, inputs):
        return [cell for part in self.parts for cell in part.cells(femasm, inputs[part.name])]


class FileRoundtrip(Workload):
    name = "file-roundtrip"

    def build(self, femasm, seed, workdir):
        disk = femasm.mesh.generate_disk_mesh(DISK_N)
        path = workdir / "disk-mesh.txt"
        femasm.mesh.write_mesh(disk, path)
        return {"mesh": disk, "path": path, "workdir": workdir}

    def cells(self, femasm, inputs):
        disk, path = inputs["mesh"], str(inputs["path"])

        def cell(kind):
            out = str(inputs["workdir"] / f"{kind}.mtx")
            argv = ["assemble", "--mesh", path, "--kind", kind, "--out", out]

            def call():
                with contextlib.redirect_stdout(io.StringIO()):
                    status = femasm.cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"femasm {' '.join(argv)} exited with {status}")
                return out

            return Cell(f"cli/{kind}", kind, call, checks.read_matrix_market,
                        disk.vertices, disk.connectivity, ref[kind])

        ref = _references(disk)
        return [cell(kind) for kind in KINDS]

    def run_failures(self, femasm, inputs):
        disk, back = inputs["mesh"], femasm.mesh.read_mesh(inputs["path"])
        same = (
            back.vertices.shape == disk.vertices.shape
            and back.connectivity.shape == disk.connectivity.shape
            and np.array_equal(back.vertices.view(np.int64), disk.vertices.view(np.int64))
            and np.array_equal(back.connectivity, disk.connectivity)
        )
        return [] if same else ["mesh read back differs from the generated mesh"]


WORKLOADS = {w.name: w for w in (AssembleSquares(), FileRoundtrip())}
