"""Reference assembly and output checks, written apart from the program.

The reference takes each triangle's P1 basis from the inverse of its
coordinate matrix [[1, x_a, y_a]]_a, builds the element matrices from
closed-form integrals, and sums them with ``scipy.sparse``.  It shares no
code with ``femasm``: the only inputs are the mesh arrays.

Comparisons are on values (absent entries read as zero), not on stored
entries, because ``classical`` and ``optv0`` keep explicit zeros.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

# Relative tolerance of every value comparison.  Strategies and the reference
# sum the same few terms in different orders, so they differ by a few ulps;
# a wrong entry is off by far more.
RTOL = 1e-10

# Lame coefficients and weight used by every workload.
LAM = MU = 1.0


def weight(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The quadratic weight w = 1 + x^2 + y^2, as sampled at the vertices."""
    return 1.0 + x * x + y * y


def _geometry(vertices: np.ndarray, connectivity: np.ndarray):
    """Areas (nme,) and basis gradients (nme, 3 corners, 2) per triangle."""
    corners = vertices[connectivity]  # (nme, 3, 2)
    coord = np.ones((len(connectivity), 3, 3))
    coord[:, :, 1:] = corners
    # column a of the inverse holds (c0, cx, cy) of phi_a = c0 + cx x + cy y
    inv = np.linalg.inv(coord)
    grads = inv[:, 1:, :].transpose(0, 2, 1)
    areas = 0.5 * np.abs(np.linalg.det(coord))
    return areas, grads


# int_T phi_a phi_b phi_c / area = 2 a! b! c! / (a + b + c + 2)! in powers of
# the barycentrics: 1/10 if a = b = c, 1/30 if two agree, 1/60 if all differ.
_TRIPLE = np.array(
    [
        [[{1: 1 / 10, 2: 1 / 30, 3: 1 / 60}[len({a, b, c})] for c in range(3)] for b in range(3)]
        for a in range(3)
    ]
)


def _element_matrices(kind: str, vertices, connectivity, areas, grads) -> np.ndarray:
    if kind == "mass":
        local = (np.ones((3, 3)) + np.eye(3)) / 12.0
        return areas[:, None, None] * local
    if kind == "massw":
        w = weight(vertices[:, 0], vertices[:, 1])[connectivity]  # (nme, 3)
        return areas[:, None, None] * np.einsum("abc,ec->eab", _TRIPLE, w)
    if kind == "stiff":
        return areas[:, None, None] * np.einsum("eak,ebk->eab", grads, grads)
    if kind == "elastic":
        # strain rows (e_xx, e_yy, 2 e_xy) against dofs (x1, y1, x2, y2, x3, y3)
        strain = np.zeros((len(connectivity), 3, 6))
        strain[:, 0, 0::2] = grads[:, :, 0]
        strain[:, 1, 1::2] = grads[:, :, 1]
        strain[:, 2, 0::2] = grads[:, :, 1]
        strain[:, 2, 1::2] = grads[:, :, 0]
        hooke = np.array([[LAM + 2 * MU, LAM, 0.0], [LAM, LAM + 2 * MU, 0.0], [0.0, 0.0, MU]])
        return areas[:, None, None] * np.einsum(
            "eki,kl,elj->eij", strain, hooke, strain, optimize=True
        )
    raise ValueError(f"unknown kind {kind!r}")


class Reference:
    """Reference matrices of one mesh; the geometry is computed once."""

    def __init__(self, vertices: np.ndarray, connectivity: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.connectivity = np.asarray(connectivity, dtype=np.int64)
        self._geometry = None

    def matrix(self, kind: str) -> sp.csc_array:
        """The global matrix of ``kind`` summed by scipy from the element matrices."""
        if self._geometry is None:
            self._geometry = _geometry(self.vertices, self.connectivity)
        conn = self.connectivity
        local = _element_matrices(kind, self.vertices, conn, *self._geometry)
        if kind == "elastic":
            dofs = np.empty((len(conn), 6), dtype=np.int64)
            dofs[:, 0::2] = 2 * conn
            dofs[:, 1::2] = 2 * conn + 1
            n = 2 * len(self.vertices)
        else:
            dofs = conn
            n = len(self.vertices)
        order = dofs.shape[1]
        rows = np.repeat(dofs, order, axis=1).ravel()  # local[e, a, b] sits at (dof a, dof b)
        cols = np.tile(dofs, (1, order)).ravel()
        return sp.coo_array((local.ravel(), (rows, cols)), shape=(n, n)).tocsc()


def as_scipy(matrix) -> sp.csc_array:
    """Wrap a femasm CscMatrix without copying its arrays."""
    return sp.csc_array((matrix.values, matrix.row_idx, matrix.col_ptr), shape=matrix.shape)


def read_matrix_market(path) -> sp.csc_array:
    return sp.csc_array(scipy.io.mmread(path))


def values_match(actual, expected, rtol: float = RTOL) -> bool:
    """True when the shapes agree and every entry of actual - expected is
    within rtol of the largest entry of expected."""
    if actual.shape != expected.shape:
        return False
    scale = abs(expected).max()
    diff = actual - expected
    return bool(diff.nnz == 0 or abs(diff).max() <= rtol * scale)


def permuted(matrix, perm: np.ndarray) -> sp.csc_array:
    """P A P^T: entry (k, l) of the result is entry (perm[k], perm[l]) of A."""
    return sp.csc_array(matrix[perm][:, perm])


def dof_permutation(vertex_perm: np.ndarray, kind: str) -> np.ndarray:
    """The dof form of a vertex permutation: dof (2k + c) of an elastic
    matrix comes from vertex vertex_perm[k]."""
    if kind != "elastic":
        return vertex_perm
    out = np.empty(2 * len(vertex_perm), dtype=np.int64)
    out[0::2] = 2 * vertex_perm
    out[1::2] = 2 * vertex_perm + 1
    return out


def property_failures(kind: str, matrix, vertices: np.ndarray, connectivity: np.ndarray) -> list[str]:
    """Properties the assembled matrix must have, whatever the strategy:
    symmetry; stiff annihilates constants; elastic annihilates the two
    translations and the rotation; the mass total is the mesh area and the
    weighted-mass total is sum(area * (w1 + w2 + w3) / 3)."""
    failures = []
    vertices = np.asarray(vertices, dtype=np.float64)
    scale = abs(matrix).max()
    if abs(matrix - matrix.T).max() > RTOL * scale:
        failures.append("not symmetric")
    row_scale = abs(matrix).sum(axis=1).max()
    if kind == "stiff":
        if np.abs(matrix @ np.ones(matrix.shape[0])).max() > RTOL * row_scale:
            failures.append("constants not in the kernel")
    elif kind == "elastic":
        x, y = vertices[:, 0], vertices[:, 1]
        modes = {
            "x translation": np.column_stack([np.ones_like(x), np.zeros_like(x)]),
            "y translation": np.column_stack([np.zeros_like(x), np.ones_like(x)]),
            "rotation": np.column_stack([-y, x]),
        }
        reach = max(1.0, float(np.abs(vertices).max()))
        for name, mode in modes.items():
            if np.abs(matrix @ mode.ravel()).max() > RTOL * row_scale * reach:
                failures.append(f"{name} not in the kernel")
    else:
        tri = vertices[np.asarray(connectivity)]
        cross = (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1]) - (
            tri[:, 2, 0] - tri[:, 0, 0]
        ) * (tri[:, 1, 1] - tri[:, 0, 1])
        areas = 0.5 * np.abs(cross)
        if kind == "mass":
            expected = areas.sum()
        else:
            w = weight(tri[:, :, 0], tri[:, :, 1])
            expected = (areas * w.sum(axis=1) / 3.0).sum()
        if abs(matrix.sum() - expected) > 1e-12 * expected:
            failures.append(f"total {matrix.sum()!r} differs from {expected!r}")
    return failures
