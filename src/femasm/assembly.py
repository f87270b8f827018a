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
  whole-mesh batch kernels and summed into the mesh's sparsity pattern.

OPTV2 splits the CSC construction in two.  The symbolic phase sorts the
9 x nme index stream of ``build_ig_jg_p1`` once per mesh
(``build_pattern_p1``, kept as ``Mesh.pattern`` and shared by the three
scalar kinds); the elastic pattern is its 2x2 block expansion
(``expand_pattern_p1_vector``), so no 36 x nme sort ever runs.  The
numeric phase of each call is the ``batch_kg_*`` kernel plus
``Pattern.assemble``, and its result equals ``csc_from_triplets`` on the
same triplets bit for bit.

All strategies produce the same matrix up to roundoff; the point of
keeping the slow ones around is the benchmark CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .elements import ElasticParams, elem_mass, elem_mass_weighted, elem_stiff, elem_stiff_elastic
from .mesh import AREA_EPS, DegenerateTriangleError, Mesh
from .sparse import CscBuilder, CscMatrix, Pattern, csc_from_triplets

__all__ = [
    "AssemblyBudgetExceeded",
    "GradientBatch",
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
    "build_pattern_p1",
    "expand_pattern_p1_vector",
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


@dataclass(frozen=True)
class WeightField:
    """A scalar field sampled at mesh vertices; ``evaluate`` must accept
    numpy coordinate arrays and broadcast."""

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @staticmethod
    def one() -> "WeightField":
        return WeightField("one", lambda x, y: np.ones_like(x))

    @staticmethod
    def linear() -> "WeightField":
        return WeightField("linear", lambda x, y: x + y)

    @staticmethod
    def quadratic() -> "WeightField":
        """Default benchmark weight: smooth, positive, cheap."""
        return WeightField("quadratic", lambda x, y: 1.0 + x * x + y * y)

    @staticmethod
    def by_name(name: str) -> "WeightField":
        try:
            return {"one": WeightField.one, "linear": WeightField.linear,
                    "quadratic": WeightField.quadratic}[name]()
        except KeyError:
            raise ValueError(f"unknown weight field {name!r}") from None

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


@dataclass(frozen=True)
class GradientBatch:
    """Constant P1 basis gradients per triangle, each array 2 x nme;
    per triangle the three gradients sum to zero."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def __post_init__(self):
        shape = self.g1.shape
        if len(shape) != 2 or shape[0] != 2:
            raise ValueError(f"gradient arrays must be 2 x nme, got {shape}")
        if self.g2.shape != shape or self.g3.shape != shape:
            raise ValueError("gradient arrays disagree in shape")
        total = self.g1 + self.g2 + self.g3
        scale = max(1.0, float(np.abs(self.g1).max()))
        if np.abs(total).max() > 1e-12 * scale:
            raise ValueError("basis gradients do not sum to zero")


def _corner_coords(mesh: Mesh):
    """Vertex coordinates of each triangle as three (nme, 2) arrays."""
    q = mesh.vertices
    me = mesh.connectivity
    return q[me[:, 0]], q[me[:, 1]], q[me[:, 2]]


def _check_batch_areas(areas: np.ndarray) -> None:
    bad = np.flatnonzero(areas <= AREA_EPS)
    if bad.size:
        raise DegenerateTriangleError(bad[0], areas[bad[0]])


def _index_dtype(max_dof: int):
    return np.int32 if max_dof < 2**31 else np.int64


def build_ig_jg_p1(connectivity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global row and column index arrays, 9 x nme, for scalar kinds.

    Column k lists the positions of triangle k's element matrix stored
    column-wise: rows follow the pattern (i1 i2 i3 i1 i2 i3 i1 i2 i3),
    columns the pattern (i1 i1 i1 i2 i2 i2 i3 i3 i3).
    """
    conn = np.asarray(connectivity)
    dofs = conn.astype(_index_dtype(int(conn.max())))  # (nme, 3)
    # build transposed so the 9 x nme result is contiguous column-wise
    ig = np.tile(dofs, (1, 3)).T
    jg = np.repeat(dofs, 3, axis=1).T
    return ig, jg


def build_ig_jg_p1_vector(connectivity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global index arrays, 36 x nme, for the vector-valued elastic kind.

    Triangle k's degrees of freedom are the interleaved list
    (2*i1, 2*i1+1, 2*i2, 2*i2+1, 2*i3, 2*i3+1); column k enumerates the
    six-by-six outer product of that list, column-wise.
    """
    conn = np.asarray(connectivity)
    dtype = _index_dtype(2 * int(conn.max()) + 1)
    dofs = np.empty((conn.shape[0], 6), dtype=dtype)  # (nme, 6)
    dofs[:, 0::2] = 2 * conn
    dofs[:, 1::2] = 2 * conn
    dofs[:, 1::2] += 1
    ig = np.tile(dofs, (1, 6)).T
    jg = np.repeat(dofs, 6, axis=1).T
    return ig, jg


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
    col_ptr = pattern.col_ptr
    length = np.diff(col_ptr)
    col = np.repeat(np.arange(n), length)
    first = 2 * np.arange(nnz) + 2 * col_ptr[col]  # the slot of (r, c) = (0, 0)
    step = 2 * length[col]  # from c = 0 to c = 1
    vec_col_ptr = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(np.repeat(2 * length, 2), out=vec_col_ptr[1:])

    nme = pattern.slot.size // 9
    scalar_slot = pattern.slot.reshape(nme, 3, 3)  # [k, cb, ra]
    row_idx = np.empty(4 * nnz, dtype=np.int64)
    slot = np.empty((nme, 3, 2, 3, 2), dtype=np.int64)  # [k, cb, c, ra, r]
    for c in (0, 1):
        base = first + c * step
        row_idx[base] = 2 * pattern.row_idx
        row_idx[base + 1] = 2 * pattern.row_idx + 1
        base = base[scalar_slot]
        slot[:, :, c, :, 0] = base
        slot[:, :, c, :, 1] = base + 1
    return Pattern(2 * n, 2 * n, vec_col_ptr, row_idx, slot.ravel())


def batch_gradients(mesh: Mesh) -> GradientBatch:
    """True constant basis gradients for every triangle.

    g_a = perp(edge_a) / (2 * area) with edges u = q2-q3, v = q3-q1,
    w = q1-q2; the area factor is NOT folded into the gradients, value
    kernels multiply it back explicitly.
    """
    _check_batch_areas(mesh.areas)
    q1, q2, q3 = _corner_coords(mesh)
    inv2a = 0.5 / mesh.areas
    u = q2 - q3
    v = q3 - q1
    w = q1 - q2
    g1 = np.stack([u[:, 1], -u[:, 0]]) * inv2a
    g2 = np.stack([v[:, 1], -v[:, 0]]) * inv2a
    g3 = np.stack([w[:, 1], -w[:, 0]]) * inv2a
    return GradientBatch(g1, g2, g3)


def batch_kg_mass(areas: np.ndarray) -> np.ndarray:
    """Value array, 9 x nme, of the mass element matrices: the diagonal
    rows {0, 4, 8} hold area/6, the six off-diagonal rows area/12."""
    areas = np.asarray(areas, dtype=np.float64)
    _check_batch_areas(areas)
    a6 = areas / 6.0
    a12 = areas / 12.0
    kg = np.empty((9, areas.size))
    kg[[0, 4, 8]] = a6
    kg[[1, 2, 3, 5, 6, 7]] = a12
    return kg


def batch_kg_mass_weighted(mesh: Mesh, weight: WeightField) -> np.ndarray:
    """Value array, 9 x nme, of the weighted mass element matrices with
    the weight sampled at the vertices."""
    tw = weight.sample(mesh)
    me = mesh.connectivity
    w1 = tw[me[:, 0]] * mesh.areas / 30.0
    w2 = tw[me[:, 1]] * mesh.areas / 30.0
    w3 = tw[me[:, 2]] * mesh.areas / 30.0
    kg = np.empty((9, mesh.nme))
    kg[0] = 3.0 * w1 + w2 + w3
    kg[1] = w1 + w2 + w3 / 2.0
    kg[2] = w1 + w2 / 2.0 + w3
    kg[4] = w1 + 3.0 * w2 + w3
    kg[5] = w1 / 2.0 + w2 + w3
    kg[8] = w1 + w2 + 3.0 * w3
    kg[[3, 6, 7]] = kg[[1, 2, 5]]
    return kg


def batch_kg_stiff(mesh: Mesh) -> np.ndarray:
    """Value array, 9 x nme, of the stiffness element matrices: pairwise
    dot products of the edge vectors over 4*area, six unique rows plus
    three symmetry copies."""
    _check_batch_areas(mesh.areas)
    q1, q2, q3 = _corner_coords(mesh)
    u = q2 - q3
    v = q3 - q1
    w = q1 - q2
    a4 = 4.0 * mesh.areas
    kg = np.empty((9, mesh.nme))
    kg[0] = (u * u).sum(axis=1) / a4
    kg[1] = (v * u).sum(axis=1) / a4
    kg[2] = (w * u).sum(axis=1) / a4
    kg[4] = (v * v).sum(axis=1) / a4
    kg[5] = (w * v).sum(axis=1) / a4
    kg[8] = (w * w).sum(axis=1) / a4
    kg[[3, 6, 7]] = kg[[1, 2, 5]]
    return kg


def batch_kg_elastic(mesh: Mesh, params: ElasticParams) -> np.ndarray:
    """Value array, 36 x nme, of the elastic element matrices.

    Twenty-one rows are computed from the basis gradients, the fifteen
    remaining ones are symmetry copies.  Row r holds entry
    (r mod 6, r div 6) of the 6x6 element matrix.
    """
    grads = batch_gradients(mesh)
    g1x, g1y = grads.g1
    g2x, g2y = grads.g2
    g3x, g3y = grads.g3
    lam, mu = params.lam, params.mu
    lpm2 = lam + 2.0 * mu
    a = mesh.areas

    kg = np.empty((36, mesh.nme))
    kg[0] = (lpm2 * g1x * g1x + mu * g1y * g1y) * a
    kg[1] = (lam * g1x * g1y + mu * g1x * g1y) * a
    kg[2] = (lpm2 * g1x * g2x + mu * g1y * g2y) * a
    kg[3] = (lam * g1x * g2y + mu * g1y * g2x) * a
    kg[4] = (lpm2 * g1x * g3x + mu * g1y * g3y) * a
    kg[5] = (lam * g1x * g3y + mu * g1y * g3x) * a
    kg[7] = (lpm2 * g1y * g1y + mu * g1x * g1x) * a
    kg[8] = (lam * g1y * g2x + mu * g1x * g2y) * a
    kg[9] = (lpm2 * g1y * g2y + mu * g1x * g2x) * a
    kg[10] = (lam * g1y * g3x + mu * g1x * g3y) * a
    kg[11] = (lpm2 * g1y * g3y + mu * g1x * g3x) * a
    kg[14] = (lpm2 * g2x * g2x + mu * g2y * g2y) * a
    kg[15] = (lam * g2x * g2y + mu * g2x * g2y) * a
    kg[16] = (lpm2 * g2x * g3x + mu * g2y * g3y) * a
    kg[17] = (lam * g2x * g3y + mu * g2y * g3x) * a
    kg[21] = (lpm2 * g2y * g2y + mu * g2x * g2x) * a
    kg[22] = (lam * g2y * g3x + mu * g2x * g3y) * a
    kg[23] = (lpm2 * g2y * g3y + mu * g2x * g3x) * a
    kg[28] = (lpm2 * g3x * g3x + mu * g3y * g3y) * a
    kg[29] = (lam * g3x * g3y + mu * g3x * g3y) * a
    kg[35] = (lpm2 * g3y * g3y + mu * g3x * g3x) * a
    kg[[6, 12, 13, 18, 19, 20, 24, 25, 26, 27, 30, 31, 32, 33, 34]] = kg[
        [1, 2, 8, 3, 9, 15, 4, 10, 16, 22, 5, 11, 17, 23, 29]
    ]
    return kg


def _element_matrix_factory(mesh: Mesh, kind: MatrixKind, weight, params):
    """Per-triangle element matrix closure for the element-loop strategies."""
    areas = mesh.areas
    me = mesh.connectivity
    q = mesh.vertices
    if kind is MatrixKind.MASS:
        return lambda k: elem_mass(areas[k])
    if kind is MatrixKind.WEIGHTED_MASS:
        tw = weight.sample(mesh)
        return lambda k: elem_mass_weighted(
            areas[k], tw[me[k, 0]], tw[me[k, 1]], tw[me[k, 2]]
        )
    if kind is MatrixKind.STIFFNESS:
        return lambda k: elem_stiff(q[me[k, 0]], q[me[k, 1]], q[me[k, 2]], areas[k])
    return lambda k: elem_stiff_elastic(
        q[me[k, 0]], q[me[k, 1]], q[me[k, 2]], areas[k], params
    )


def _element_dofs_factory(mesh: Mesh, kind: MatrixKind):
    me = mesh.connectivity
    if not kind.is_vector:
        return lambda k: me[k]

    def dofs(k):
        out = np.empty(6, dtype=np.int64)
        out[0::2] = 2 * me[k]
        out[1::2] = 2 * me[k] + 1
        return out

    return dofs


class _Budget:
    """Cooperative deadline, checked once per triangle in element loops."""

    def __init__(self, seconds: Optional[float], n_elements: int):
        self.seconds = seconds
        self.n_elements = n_elements
        self.t0 = time.perf_counter()

    def check(self, k: int) -> None:
        if self.seconds is None:
            return
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.seconds:
            raise AssemblyBudgetExceeded(elapsed, k, self.n_elements)


def _assemble_incremental(mesh, kind, weight, params, block_wise, budget_s):
    elem = _element_matrix_factory(mesh, kind, weight, params)
    dofs = _element_dofs_factory(mesh, kind)
    n = kind.n_dof(mesh.nq)
    builder = CscBuilder(n, n)
    order = 6 if kind.is_vector else 3
    budget = _Budget(budget_s, mesh.nme)
    for k in range(mesh.nme):
        budget.check(k)
        e = elem(k)
        ids = dofs(k)
        if block_wise:
            builder.add_block(ids, ids, e)
        else:
            for il in range(order):
                for jl in range(order):
                    builder.add(ids[il], ids[jl], e[il, jl])
    return builder.to_matrix()


def _assemble_triplet_loop(mesh, kind, weight, params, budget_s):
    elem = _element_matrix_factory(mesh, kind, weight, params)
    dofs = _element_dofs_factory(mesh, kind)
    n = kind.n_dof(mesh.nq)
    r = 36 if kind.is_vector else 9
    reps = 6 if kind.is_vector else 3
    ig = np.empty(r * mesh.nme, dtype=np.int64)
    jg = np.empty(r * mesh.nme, dtype=np.int64)
    kg = np.empty(r * mesh.nme, dtype=np.float64)
    budget = _Budget(budget_s, mesh.nme)
    kk = 0
    for k in range(mesh.nme):
        budget.check(k)
        ids = dofs(k)
        ig[kk : kk + r] = np.tile(ids, reps)
        jg[kk : kk + r] = np.repeat(ids, reps)
        kg[kk : kk + r] = elem(k).ravel(order="F")
        kk += r
    return csc_from_triplets(ig, jg, kg, n, n)


def _assemble_batched(mesh, kind, weight, params):
    if kind.is_vector:
        kg = batch_kg_elastic(mesh, params)
        pattern = mesh.vector_pattern
    else:
        if kind is MatrixKind.MASS:
            kg = batch_kg_mass(mesh.areas)
        elif kind is MatrixKind.WEIGHTED_MASS:
            kg = batch_kg_mass_weighted(mesh, weight)
        else:
            kg = batch_kg_stiff(mesh)
        pattern = mesh.pattern
    return pattern.assemble(kg.ravel(order="F"))


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

    ``weight`` is required for WEIGHTED_MASS, ``params`` for ELASTIC.
    ``budget_s`` is a cooperative wall-clock limit honored by the
    element-loop strategies (CLASSICAL, OPTV0, OPTV1); on expiry
    AssemblyBudgetExceeded is raised.  The batched strategy runs to
    completion regardless.

    The result is n x n with n = nq (scalar kinds) or 2*nq (elastic);
    the four strategies agree to roundoff.
    """
    if kind is MatrixKind.WEIGHTED_MASS:
        if weight is None:
            raise ValueError("WEIGHTED_MASS requires a WeightField")
    elif kind is MatrixKind.ELASTIC:
        if params is None:
            raise ValueError("ELASTIC requires ElasticParams")

    if strategy is Strategy.CLASSICAL:
        return _assemble_incremental(mesh, kind, weight, params, False, budget_s)
    if strategy is Strategy.OPTV0:
        return _assemble_incremental(mesh, kind, weight, params, True, budget_s)
    if strategy is Strategy.OPTV1:
        return _assemble_triplet_loop(mesh, kind, weight, params, budget_s)
    return _assemble_batched(mesh, kind, weight, params)
