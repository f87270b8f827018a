"""Global assembly of the four matrix kinds by four strategies.

Strategies, slowest to fastest:

* ``CLASSICAL`` - per-triangle element matrix, entries inserted one at a
  time into a live CSC image (every fresh position shifts the storage
  tails, so the total cost grows superlinearly with the matrix size).
* ``OPTV0``     - same storage, but the nine (or thirty-six) entries of a
  triangle are handed over as one dense block per element.
* ``OPTV1``     - per-triangle element matrix written into preallocated
  triplet arrays, one CSC construction at the end.
* ``OPTV2``     - no per-element work at all: value arrays are produced by
  batch kernels over blocks of triangles and summed into the mesh's
  sparsity pattern.

OPTV2 runs the two phases of that construction (``sparse.Pattern``)
apart.  The symbolic phase sorts the 9 x nme index stream of
``build_ig_jg_p1`` once per mesh (``build_pattern_p1``, kept as
``Mesh.pattern`` and shared by the three scalar kinds); the elastic
pattern is its 2x2 block expansion (``expand_pattern_p1_vector``), so no
36 x nme sort ever runs.  The numeric phase of each call runs the
``batch_kg_*`` kernel on one block of ``BLOCK_BYTES`` worth of values at
a time, in element-major order, and ``Pattern.assemble_blocks`` adds
each block into the slots, so no whole-mesh value array is ever built.
Its result equals ``csc_from_triplets`` on the same triplets bit for bit.

All strategies run the one formula per kind of ``elements`` and sum each
entry in triangle order, so they give the same matrix bit for bit
(CLASSICAL and OPTV0 keep exact zeros as entries); the point of keeping
the slow ones around is the benchmark CLI.  What a kind needs is decided
in one place, once per call: ``_kernels`` checks the coefficient, samples
the weight, and returns both the element loops' per-triangle closure and
OPTV2's per-block kernel.  The ``batch_kg_*`` kernels read the areas and
coordinates of a ``Mesh`` as they are, since ``Mesh`` has checked them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import elements
from .elements import ElasticParams, elem_mass, elem_mass_weighted, elem_stiff, elem_stiff_elastic
from .mesh import Mesh
from .sparse import BLOCK_BYTES, CscBuilder, CscMatrix, Pattern, _as_index_array
from .sparse import csc_from_triplets, index_dtype

__all__ = [
    "AssemblyBudgetExceeded",
    "MatrixKind",
    "Strategy",
    "WeightField",
    "assemble",
    "batch_gradients",
    "batch_kg_elastic",
    "batch_kg_mass",
    "batch_kg_mass_weighted",
    "batch_kg_stiff",
    "build_ig_jg_p1",
    "build_ig_jg_p1_vector",
    "element_dofs",
]

class MatrixKind(Enum):
    """The assembled bilinear forms."""

    MASS = "mass"
    WEIGHTED_MASS = "massw"
    STIFFNESS = "stiff"
    ELASTIC = "elastic"

    @property
    def is_vector(self) -> bool:
        return self is MatrixKind.ELASTIC

    def n_dof(self, nq: int) -> int:
        """Matrix dimension: nq for scalar kinds, 2*nq for the elastic one."""
        return 2 * nq if self.is_vector else nq


class Strategy(Enum):
    CLASSICAL = "classical"
    OPTV0 = "optv0"
    OPTV1 = "optv1"
    OPTV2 = "optv2"


class AssemblyBudgetExceeded(RuntimeError):
    """An element-loop strategy ran past its time budget."""

    def __init__(self, elapsed: float, elements_done: int, elements_total: int):
        self.elapsed = elapsed
        self.elements_done = elements_done
        self.elements_total = elements_total
        super().__init__(
            f"assembly aborted after {elapsed:.3f}s "
            f"({elements_done}/{elements_total} triangles)"
        )


# the named weights, at module level so that a WeightField pickles
def _one(x, y):
    return np.ones_like(x)


def _linear(x, y):
    return x + y


def _quadratic(x, y):
    return 1.0 + x * x + y * y


@dataclass(frozen=True)
class WeightField:
    """A scalar field sampled at mesh vertices; ``evaluate`` must accept
    numpy coordinate arrays and broadcast."""

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @staticmethod
    def one() -> "WeightField":
        return WeightField("one", _one)

    @staticmethod
    def linear() -> "WeightField":
        return WeightField("linear", _linear)

    @staticmethod
    def quadratic() -> "WeightField":
        """Default benchmark weight: smooth, positive, cheap."""
        return WeightField("quadratic", _quadratic)

    @staticmethod
    def by_name(name: str) -> "WeightField":
        named = {"linear": WeightField.linear, "one": WeightField.one,
                 "quadratic": WeightField.quadratic}
        if name not in named:
            raise ValueError(f"unknown weight field {name!r}; choose from {', '.join(named)}")
        return named[name]()

    def sample(self, mesh: Mesh) -> np.ndarray:
        """Values at every vertex, shape (nq,)."""
        tw = np.asarray(
            self.evaluate(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=np.float64
        )
        if tw.shape != (mesh.nq,):
            raise ValueError(f"weight field {self.name!r} did not broadcast to (nq,)")
        bad = np.flatnonzero(~np.isfinite(tw))
        if bad.size:
            raise ValueError(
                f"weight field {self.name!r} is not finite at vertex {bad[0]} ({tw[bad[0]]:g})"
            )
        return tw


def _corner_coords(mesh: Mesh, block: slice) -> list[np.ndarray]:
    """x1, y1, x2, y2, x3, y3 of the triangles in ``block``, each (b,)."""
    x, y = mesh.vertices.T
    me = mesh.connectivity[block]
    return [c[me[:, a]] for a in range(3) for c in (x, y)]


def element_dofs(connectivity: np.ndarray, vector: bool) -> np.ndarray:
    """Global degrees of freedom of every triangle of the (nme, 3)
    ``connectivity``, nme >= 0: (nme, 3) for the scalar kinds and (nme, 6)
    for the vector-valued one, whose local ordering interleaves
    (2*i1, 2*i1+1, 2*i2, 2*i2+1, 2*i3, 2*i3+1)."""
    dofs = _as_index_array(connectivity, "vertex index")
    if dofs.ndim != 2 or dofs.shape[1] != 3:
        raise ValueError(f"connectivity must have shape (nme, 3), got {dofs.shape}")
    if vector:
        dofs = (2 * dofs[:, :, None] + (0, 1)).reshape(dofs.shape[0], 6)
    return dofs.astype(index_dtype(dofs.max(initial=0)))


def _ig_jg(dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = elements.local_map(dofs.shape[1])
    # built transposed so the n^2 x nme results are contiguous column-wise
    return dofs[:, rows].T, dofs[:, cols].T


def build_ig_jg_p1(connectivity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global row and column index arrays, 9 x nme, for scalar kinds.

    Column k lists the positions of triangle k's element matrix stored
    column-wise: rows follow the pattern (i1 i2 i3 i1 i2 i3 i1 i2 i3),
    columns the pattern (i1 i1 i1 i2 i2 i2 i3 i3 i3).
    """
    return _ig_jg(element_dofs(connectivity, False))


def build_ig_jg_p1_vector(connectivity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global index arrays, 36 x nme, for the vector-valued elastic kind:
    column k enumerates the six-by-six outer product of triangle k's
    ``element_dofs``, column-wise."""
    return _ig_jg(element_dofs(connectivity, True))


def build_pattern_p1(mesh: Mesh) -> Pattern:
    """Symbolic phase of OPTV2 for the scalar kinds: the pattern of the
    index stream of ``build_ig_jg_p1`` read triangle by triangle (triplet
    9*k + q is entry q of triangle k).  ``Mesh.pattern`` keeps it."""
    ig, jg = build_ig_jg_p1(mesh.connectivity)
    return Pattern.from_triplets(ig.ravel(order="F"), jg.ravel(order="F"), mesh.nq, mesh.nq)


def expand_pattern_p1_vector(pattern: Pattern) -> Pattern:
    """Symbolic phase of OPTV2 for the elastic kind: the pattern of the
    index stream of ``build_ig_jg_p1_vector``, derived from the scalar
    one without a sort.

    Elastic column 2j+c holds rows 2i, 2i+1 for each row i of scalar
    column j in turn, so it starts at 4*col_ptr[j] + 2*c*len_j, and the
    scalar slot s of row i in column j becomes, for each displacement
    pair (r, c), slot 2*s + 2*col_ptr[j] + 2*c*len_j + r at row 2i+r.
    Triplet l = a + 6b of a triangle (a = 2*ra + r, b = 2*cb + c) takes
    that slot of the triangle's scalar triplet q = ra + 3*cb.
    """
    n, nnz = pattern.n_rows, pattern.nnz
    dtype = index_dtype(max(2 * n, 4 * nnz))  # Pattern's rule for the vector pattern
    col_ptr = pattern.col_ptr.astype(dtype)
    length = np.diff(col_ptr)
    col = np.repeat(np.arange(n), length)
    first = 2 * np.arange(nnz, dtype=dtype) + 2 * col_ptr[col]  # the slot of (r, c) = (0, 0)
    step = 2 * length[col]  # from c = 0 to c = 1
    vec_col_ptr = np.zeros(2 * n + 1, dtype=dtype)
    np.cumsum(np.repeat(2 * length, 2), out=vec_col_ptr[1:])

    nme = pattern.slot.size // 9
    scalar_slot = pattern.slot.reshape(nme, 3, 3)  # [k, cb, ra]
    rows = 2 * pattern.row_idx.astype(dtype)  # widened before the doubling
    row_idx = np.empty(4 * nnz, dtype=dtype)
    slot = np.empty((nme, 3, 2, 3, 2), dtype=dtype)  # [k, cb, c, ra, r]
    for c in (0, 1):
        base = first + c * step
        row_idx[base] = rows
        row_idx[base + 1] = rows + 1
        base = base[scalar_slot]
        slot[:, :, c, :, 0] = base
        np.add(base, 1, out=slot[:, :, c, :, 1])
    return Pattern._trusted(2 * n, 2 * n, vec_col_ptr, row_idx, slot.ravel())


def batch_gradients(mesh: Mesh, block: slice = slice(None)) -> np.ndarray:
    """Constant basis gradients of the triangles in ``block`` (all by
    default), (3, 2, b): entry [a, c, k] is component c of g_(a+1) on the
    block's triangle k (``fill_gradients``).  The area factor is NOT folded
    into the gradients; value kernels multiply it back explicitly."""
    areas = mesh.areas[block]
    g = np.empty((3, 2, areas.size))
    elements.fill_gradients(g.reshape(6, areas.size), *_corner_coords(mesh, block), areas)
    return g


def batch_kg_mass(mesh: Mesh, block: slice = slice(None)) -> np.ndarray:
    """Value array, 9 x b, of the mass element matrices of the triangles
    in ``block`` (all by default; ``fill_mass``): the diagonal rows
    {0, 4, 8} hold area/6, the six off-diagonal rows area/12."""
    areas = mesh.areas[block]
    kg = np.empty((9, areas.size))
    elements.fill_mass(kg, areas)
    return kg


def batch_kg_mass_weighted(
    mesh: Mesh, tw: np.ndarray, block: slice = slice(None)
) -> np.ndarray:
    """Value array, 9 x b, of the weighted mass element matrices of the
    triangles in ``block`` (all by default; ``fill_mass_weighted``), from
    the (nq,) vertex weights ``tw`` that ``WeightField.sample`` returns."""
    tw = np.asarray(tw)
    if tw.shape != (mesh.nq,):
        raise ValueError(f"vertex weights must have shape ({mesh.nq},), got {tw.shape}")
    areas = mesh.areas[block]
    kg = np.empty((9, areas.size))
    me = mesh.connectivity[block]
    elements.fill_mass_weighted(kg, areas, tw[me[:, 0]], tw[me[:, 1]], tw[me[:, 2]])
    return kg


def batch_kg_stiff(mesh: Mesh, block: slice = slice(None)) -> np.ndarray:
    """Value array, 9 x b, of the stiffness element matrices of the
    triangles in ``block`` (all by default; ``fill_stiff``)."""
    areas = mesh.areas[block]
    kg = np.empty((9, areas.size))
    elements.fill_stiff(kg, *_corner_coords(mesh, block), areas)
    return kg


def batch_kg_elastic(
    mesh: Mesh, params: ElasticParams, block: slice = slice(None)
) -> np.ndarray:
    """Value array, 36 x b, of the elastic element matrices of the
    triangles in ``block`` (all by default; ``fill_elastic``).  Row r holds
    entry (r mod 6, r div 6) of the 6x6 element matrix."""
    g = batch_gradients(mesh, block)
    areas = mesh.areas[block]
    kg = np.empty((36, areas.size))
    elements.fill_elastic(kg, g.reshape(6, areas.size), areas, params.lam, params.mu)
    return kg


def _kernels(mesh: Mesh, kind: MatrixKind, weight, params):
    """What ``kind`` needs on ``mesh``, decided once per call: the
    per-triangle element matrix closure of the element loops and the
    per-block value kernel of OPTV2.  The weight is sampled here, once."""
    areas, me, q = mesh.areas, mesh.connectivity, mesh.vertices
    if kind is MatrixKind.MASS:
        return lambda k: elem_mass(areas[k]), lambda b: batch_kg_mass(mesh, b)
    if kind is MatrixKind.WEIGHTED_MASS:
        if weight is None:
            raise ValueError("WEIGHTED_MASS requires a WeightField")
        tw = weight.sample(mesh)
        return (lambda k: elem_mass_weighted(areas[k], *tw[me[k]].tolist()),
                lambda b: batch_kg_mass_weighted(mesh, tw, b))
    if kind is MatrixKind.STIFFNESS:
        return (lambda k: elem_stiff(*q[me[k]].tolist(), areas[k]),
                lambda b: batch_kg_stiff(mesh, b))
    if params is None:
        raise ValueError("ELASTIC requires ElasticParams")
    return (lambda k: elem_stiff_elastic(*q[me[k]].tolist(), areas[k], params),
            lambda b: batch_kg_elastic(mesh, params, b))


def _check_budget(seconds: float) -> None:
    if not 0 < seconds < float("inf"):  # NaN fails too
        raise ValueError(f"time budget must be finite and > 0 seconds, got {seconds}")


def _triangles(n_elements: int, seconds: Optional[float]):
    """range(n_elements) for the element loops, with a cooperative deadline
    checked once per triangle."""
    t0 = time.perf_counter()
    for k in range(n_elements):
        if seconds is not None:
            elapsed = time.perf_counter() - t0
            if elapsed > seconds:
                raise AssemblyBudgetExceeded(elapsed, k, n_elements)
        yield k


def _assemble_incremental(mesh, kind, elem, block_wise, budget_s):
    dofs = element_dofs(mesh.connectivity, kind.is_vector)
    n = kind.n_dof(mesh.nq)
    builder = CscBuilder(n, n)
    for k in _triangles(mesh.nme, budget_s):
        e = elem(k)
        ids = dofs[k].tolist()
        if block_wise:
            builder.add_block(ids, ids, e)
        else:
            for i, row in zip(ids, e.tolist()):
                for j, v in zip(ids, row):
                    builder.add(i, j, v)
    return builder.to_matrix()


def _assemble_triplet_loop(mesh, kind, elem, budget_s):
    dofs = element_dofs(mesh.connectivity, kind.is_vector)
    rows, cols = elements.local_map(dofs.shape[1])
    n = kind.n_dof(mesh.nq)
    r = rows.size
    ig = np.empty(r * mesh.nme, dtype=dofs.dtype)
    jg = np.empty(r * mesh.nme, dtype=dofs.dtype)
    kg = np.empty(r * mesh.nme, dtype=np.float64)
    for k in _triangles(mesh.nme, budget_s):
        ids, at = dofs[k], slice(r * k, r * k + r)
        ig[at] = ids[rows]
        jg[at] = ids[cols]
        kg[at] = elem(k).ravel(order="F")
    return csc_from_triplets(ig, jg, kg, n, n)


def _assemble_batched(mesh, kind, kernel):
    pattern = mesh.vector_pattern if kind.is_vector else mesh.pattern
    per_block = BLOCK_BYTES // (8 * (pattern.slot.size // mesh.nme))
    # each (n^2, b) block is transposed to element-major while it is in cache
    blocks = (
        kernel(slice(k, k + per_block)).T.copy() for k in range(0, mesh.nme, per_block)
    )
    return pattern.assemble_blocks(blocks)


def assemble(
    mesh: Mesh,
    kind: MatrixKind,
    strategy: Strategy,
    *,
    weight: Optional[WeightField] = None,
    params: Optional[ElasticParams] = None,
    budget_s: Optional[float] = None,
) -> CscMatrix:
    """Assemble the global matrix of ``kind`` over ``mesh``.

    ``kind`` and ``strategy`` are each a member of ``MatrixKind`` and
    ``Strategy`` or its value (``"stiff"``, ``"classical"``); anything
    else raises ValueError.  ``weight`` is required for WEIGHTED_MASS,
    ``params`` for ELASTIC, and each is ignored by the other kinds.
    ``budget_s``, when given, is a finite number of seconds above 0: a
    cooperative wall-clock limit honored by the element-loop strategies
    (CLASSICAL, OPTV0, OPTV1); on expiry AssemblyBudgetExceeded is
    raised.  The batched strategy runs to completion regardless.

    The result is n x n with n = nq (scalar kinds) or 2*nq (elastic);
    the four strategies give the same values bit for bit.
    """
    kind, strategy = MatrixKind(kind), Strategy(strategy)
    if budget_s is not None:
        _check_budget(budget_s)
    elem, kernel = _kernels(mesh, kind, weight, params)
    if strategy is Strategy.OPTV2:
        return _assemble_batched(mesh, kind, kernel)
    if strategy is Strategy.OPTV1:
        return _assemble_triplet_loop(mesh, kind, elem, budget_s)
    return _assemble_incremental(mesh, kind, elem, strategy is Strategy.OPTV0, budget_s)
