"""Triangle meshes: container type, structured generators, and text I/O.

A mesh is a set of vertices, a triangle connectivity table (0-based
internally) and the precomputed triangle areas.  Meshes are immutable
after construction; a mesh owns read-only copies of the arrays it was
given, so they can be shared freely between threads.  A mesh also keeps
the sparsity patterns of its P1 matrices once they are first asked for.
"""

from __future__ import annotations

import warnings
from itertools import islice
from operator import index

import numpy as np

from .sparse import Pattern, _as_index_array, _check_indices, _Frozen, write_lines

__all__ = [
    "AREA_EPS",
    "DegenerateTriangleError",
    "InvalidMeshError",
    "Mesh",
    "MeshFormatError",
    "compute_areas",
    "generate_disk_mesh",
    "generate_unit_square_mesh",
    "read_mesh",
    "write_mesh",
]

# Areas at or below this are treated as degenerate: 1/(4*area) factors in the
# stiffness kernels would overflow long before the area underflows to zero.
AREA_EPS = 1e-300


class InvalidMeshError(ValueError):
    """Mesh arrays that fail a check of ``Mesh``.  ``vertex`` or
    ``triangle`` is the index of the first offender when the fault lies in
    one; ``read_mesh`` turns it into that vertex's or triangle's line."""

    def __init__(self, message: str, *, vertex=None, triangle=None):
        self.vertex = None if vertex is None else int(vertex)
        self.triangle = None if triangle is None else int(triangle)
        super().__init__(message)


class DegenerateTriangleError(InvalidMeshError):
    """A triangle has (numerically) zero area."""

    def __init__(self, index: int, area: float):
        self.index = int(index)
        self.area = float(area)
        super().__init__(
            f"triangle {self.index} is degenerate (area={self.area:g})", triangle=self.index
        )


class MeshFormatError(ValueError):
    """A mesh file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = int(line_no)
        super().__init__(f"{self.path}:{self.line_no}: {message}")


def compute_areas(vertices: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
    """Triangle areas, 0.5*|cross(q2-q1, q3-q1)| per triangle.

    Raises ValueError if a connectivity entry is not an integer or not a
    vertex, DegenerateTriangleError (with the triangle index) if any area
    is at or below AREA_EPS, and InvalidMeshError (with the triangle
    index) if any area is not finite, as when it overflows.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    connectivity = _as_index_array(connectivity, "vertex index")
    _check_indices(connectivity.ravel(), len(vertices), "vertex index")
    p1 = vertices[connectivity[:, 0]]
    p2 = vertices[connectivity[:, 1]]
    p3 = vertices[connectivity[:, 2]]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        cross = (p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1]) - (
            p3[:, 0] - p1[:, 0]
        ) * (p2[:, 1] - p1[:, 1])
        areas = 0.5 * np.abs(cross)
    bad = np.flatnonzero(~((areas > AREA_EPS) & (areas < np.inf)))
    if bad.size:
        k = bad[0]
        if not np.isfinite(areas[k]):
            raise InvalidMeshError(f"triangle {k} has a non-finite area ({areas[k]:g})", triangle=k)
        raise DegenerateTriangleError(k, areas[k])
    return areas


class Mesh(_Frozen):
    """Immutable 2D triangulation; it owns read-only copies of its arrays.

    Attributes
    ----------
    vertices : (nq, 2) float64, read-only
    connectivity : (nme, 3) int64, 0-based vertex indices, read-only
    areas : (nme,) float64, read-only, from ``compute_areas``
    pattern, vector_pattern : Pattern
        Sparsity patterns of the scalar and the elastic P1 matrices, built
        on first use and kept for the life of the mesh.  Two threads that
        ask at once may both build one; either result is the same.
    """

    __slots__ = ("vertices", "connectivity", "areas", "_pattern", "_vector_pattern")
    _args = __slots__[:2]  # the patterns are rebuilt on first use

    def __init__(self, vertices, connectivity):
        vertices = np.array(vertices, dtype=np.float64, order="C")
        connectivity = _as_index_array(connectivity, "vertex index").astype(np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError(f"vertices must have shape (nq, 2), got {vertices.shape}")
        if connectivity.ndim != 2 or connectivity.shape[1] != 3:
            raise ValueError(
                f"connectivity must have shape (nme, 3), got {connectivity.shape}"
            )
        if vertices.shape[0] < 1 or connectivity.shape[0] < 1:
            raise ValueError("mesh needs at least one vertex and one triangle")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            x, y = vertices[bad[0]]
            raise InvalidMeshError(
                f"vertex {bad[0]} has a non-finite coordinate ({x:g}, {y:g})", vertex=bad[0]
            )
        bad = np.flatnonzero(
            (connectivity[:, 0] == connectivity[:, 1])
            | (connectivity[:, 1] == connectivity[:, 2])
            | (connectivity[:, 0] == connectivity[:, 2])
        )
        if bad.size:
            raise InvalidMeshError("triangle with repeated vertex indices", triangle=bad[0])

        areas = compute_areas(vertices, connectivity)  # also refuses indices out of range
        self._store(vertices, connectivity, areas, None, None)

    @property
    def nq(self) -> int:
        return self.vertices.shape[0]

    @property
    def nme(self) -> int:
        return self.connectivity.shape[0]

    @property
    def pattern(self) -> Pattern:
        """Pattern of the triplet stream of ``assembly.build_ig_jg_p1``."""
        if self._pattern is None:
            from .assembly import build_pattern_p1  # assembly imports this module

            object.__setattr__(self, "_pattern", build_pattern_p1(self))
        return self._pattern

    @property
    def vector_pattern(self) -> Pattern:
        """Pattern of the triplet stream of ``assembly.build_ig_jg_p1_vector``."""
        if self._vector_pattern is None:
            from .assembly import expand_pattern_p1_vector

            object.__setattr__(self, "_vector_pattern", expand_pattern_p1_vector(self.pattern))
        return self._vector_pattern

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices) and np.array_equal(
            self.connectivity, other.connectivity
        )

    def __repr__(self) -> str:
        return f"Mesh(nq={self.nq}, nme={self.nme})"


def generate_unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with n cells per side.

    Each grid cell is split along its diagonal, giving nq = (n+1)^2
    vertices and nme = 2 n^2 triangles, all of area 1/(2 n^2).
    """
    n = index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (iy * (n + 1) + ix).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    # each cell's lower triangle, then its upper one
    return Mesh(vertices, np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3))


def generate_disk_mesh(n: int) -> Mesh:
    """Polar triangulation of the unit disk with n concentric rings.

    Ring r (1 <= r <= n) sits at radius r/n and carries 6r equally spaced
    vertices, from vertex 1 + 3r(r-1) on.  Rings r-1 and r are stitched in
    angular order by one stable argsort of the turns at which their steps
    end, (j+1)/6r on the outer ring before (i+1)/6(r-1) on the inner, so
    that a tie goes to the outer step and every triangle is counterclockwise.
    nq = 1 + 3 n (n+1), nme = 6 n^2, and the area tends to pi as n grows.
    """
    n = index(n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    points, tris, inner = [np.zeros((1, 2))], [], np.array([0])  # inner ring: the centre
    for r in range(1, n + 1):
        ni, no = 6 * (r - 1), 6 * r
        ang = 2.0 * np.pi * np.arange(no) / no
        points.append(np.column_stack([r / n * np.cos(ang), r / n * np.sin(ang)]))
        outer = 1 + 3 * r * (r - 1) + np.arange(no)
        keys = np.concatenate([np.arange(1, no + 1) / no, np.arange(1, ni + 1) / ni])
        step_out = np.argsort(keys, kind="stable") < no
        j = np.cumsum(step_out) - step_out  # outer steps before each step
        i = np.arange(no + ni) - j
        third = np.where(step_out, outer[(j + 1) % no], inner[(i + 1) % inner.size])
        tris.append(np.column_stack([inner[i % inner.size], outer[j % no], third]))
        inner = outer
    return Mesh(np.concatenate(points), np.concatenate(tris))


def write_mesh(mesh: Mesh, path) -> None:
    """Write the line-oriented text format: header ``nq nme``, then nq
    ``x y`` lines, then nme ``i1 i2 i3`` lines with 1-based indices.
    Floats are written as ``%.17g``, enough digits for an exact float64
    round trip."""
    vertices, connectivity = mesh.vertices, mesh.connectivity
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{mesh.nq} {mesh.nme}\n")
        write_lines(f, "%.17g %.17g\n", mesh.nq, lambda start, stop: vertices[start:stop].T)
        write_lines(
            f, "%d %d %d\n", mesh.nme, lambda start, stop: (connectivity[start:stop] + 1).T
        )


def read_mesh(path) -> Mesh:
    """Read the text format written by write_mesh.

    Fields are separated by spaces or tabs, and lines end in ``\\n`` or
    ``\\r\\n``; there are no comment lines.  One parser, numpy's C reader,
    reads the header, vertex and triangle lines as the file streams past;
    its grammar is that of Python's ``float`` and ``int`` without digit
    separators.  Raises MeshFormatError with a line number on any
    malformed content, and on a mesh that ``Mesh`` rejects, at the line of
    the offending vertex or triangle.
    """
    # a non-ASCII byte becomes a lone surrogate, which no field parses, so
    # it fails at its line like any other bad character
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        header = f.readline()
        if not header.strip():
            raise MeshFormatError(path, 1, "empty file, expected 'nq nme' header")
        nq, nme = _parse_block(path, [header], 1, 1, "header", 1)[0].tolist()
        if nq < 1 or nme < 1:
            raise MeshFormatError(path, 1, f"counts must be positive, got nq={nq} nme={nme}")
        promised = 1 + nq + nme
        vertices = _parse_block(path, islice(f, nq), 2, nq, "vertex", promised)
        connectivity = _parse_block(path, islice(f, nme), 2 + nq, nme, "triangle", promised, nq)
        rest = f.read()
    if rest.strip():
        extra = next(k for k, line in enumerate(rest.split("\n")) if line.strip())
        raise MeshFormatError(path, promised + 1 + extra, "unexpected content after last triangle")
    connectivity -= 1

    try:
        return Mesh(vertices, connectivity)
    except InvalidMeshError as exc:
        if exc.vertex is not None:
            line_no = 2 + exc.vertex
        elif exc.triangle is not None:
            line_no = 2 + nq + exc.triangle
        else:
            line_no = 1
        raise MeshFormatError(path, line_no, f"invalid mesh: {exc}") from exc


# per kind of line: the numpy type of its fields, their number, and how an
# error names them and a field that does not parse
_LINES = {
    "header": (np.int64, 2, "fields for header", "invalid integer in header"),
    "vertex": (np.float64, 2, "coordinates", "invalid coordinate"),
    "triangle": (np.int64, 3, "fields for triangle", "invalid integer in triangle"),
}


def _parse_block(
    path, lines, first: int, count: int, kind: str, promised: int, nq: int | None = None
) -> np.ndarray:
    """The ``count`` lines of ``kind`` from line ``first`` of the file as a
    (count, width) array.  If numpy's parser refuses them, raises
    MeshFormatError at the first line it refuses, found by halving: the
    parser reads each line on its own, so lines are refused exactly when
    one of them is.  With ``nq`` given, an index outside 1..nq on a line
    before any refused one is reported instead, at its own line."""
    dtype, width, fields, invalid = _LINES[kind]
    block = _load_block(lines, dtype, (count, width))
    if block is not None:
        _check_range(path, block, first, nq)
        return block
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        # the blank line stands for the end of the file, which refuses a short block
        lines = list(islice(islice(f, first - 1, None), count)) + [""]
    lo, hi = 0, len(lines)  # lines[:lo] are accepted, and lines[lo:hi] hold a refused one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _load_block(lines[lo:mid], dtype, (mid - lo, width)) is None:
            hi = mid
        else:
            lo = mid
    if lo and nq is not None:
        _check_range(path, _load_block(lines[:lo], dtype, (lo, width)), first, nq)
    if lo == len(lines) - 1:
        raise MeshFormatError(
            path, first + lo, f"file ends early: header promises {promised} lines"
        )
    got = len(lines[lo].split())
    raise MeshFormatError(
        path, first + lo, invalid if got == width else f"expected {width} {fields}, got {got}"
    )


def _check_range(path, connectivity: np.ndarray, first: int, nq: int | None) -> None:
    """Raises MeshFormatError at the first line of ``connectivity``, read
    from line ``first`` on, that names a vertex outside 1..nq."""
    if nq is not None and (connectivity.min() < 1 or connectivity.max() > nq):
        row, col = np.argwhere((connectivity < 1) | (connectivity > nq))[0]
        raise MeshFormatError(
            path, first + row, f"vertex index {connectivity[row, col]} out of range 1..{nq}"
        )


def _load_block(lines, dtype, shape: tuple[int, int]):
    """The lines parsed as an array of ``shape``, or None when numpy's
    parser rejects them or finds another shape (it skips blank lines, so
    they show as missing rows)."""
    try:
        with warnings.catch_warnings():
            # refused too: an all-blank block and, in numpy releases that
            # only deprecate it, an integer read through a float ("1.0")
            warnings.filterwarnings("error", "loadtxt: input contained no data")
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            block = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
    except (ValueError, Warning):
        return None
    return block if block.shape == shape else None
