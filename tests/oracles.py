"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library:
basis gradients come from inverting the coordinate matrix instead of the
edge-vector formulas, integrals use explicit quadrature, element matrices
go through dense matrix products, and global matrices are accumulated
into dense numpy arrays.
"""

from __future__ import annotations

import numpy as np

from femasm import MatrixKind


def cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def triangle_area(p1, p2, p3) -> float:
    return 0.5 * abs(cross2(np.asarray(p2) - p1, np.asarray(p3) - p1))


def dense_from_triplets(rows, cols, vals, n_rows, n_cols):
    """Left-to-right accumulation in input order, skipping exact zeros."""
    dense = np.zeros((n_rows, n_cols))
    for i, j, v in zip(rows, cols, vals):
        if v != 0.0:
            dense[i, j] += v
    return dense


def mask_drop(pattern, sums):
    """(col_ptr, row_idx, values) of ``pattern`` with the sums ``sums``,
    the positions whose sum is exactly zero dropped by whole-array masks:
    the zero drop of ``Pattern.assemble_blocks`` before it compacted in
    place."""
    keep = sums != 0.0
    col_ptr = pattern.col_ptr - np.searchsorted(np.flatnonzero(~keep), pattern.col_ptr)
    return col_ptr, pattern.row_idx[keep], sums[keep]


def basis_gradients(p1, p2, p3):
    """P1 basis gradients via the inverse coordinate matrix, shape (2, 3)."""
    a = np.array([[1.0, p1[0], p1[1]], [1.0, p2[0], p2[1]], [1.0, p3[0], p3[1]]])
    return np.linalg.inv(a)[1:, :]


def mass_matrix(p1, p2, p3):
    """Element mass matrix by edge-midpoint quadrature (exact for
    quadratics, hence exact for products of P1 basis functions)."""
    area = triangle_area(p1, p2, p3)
    # barycentric values of the three basis functions at the edge midpoints
    bary = [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
    e = np.zeros((3, 3))
    for phi in bary:
        phi = np.array(phi)
        e += np.outer(phi, phi)
    return e * (area / 3.0)


def weighted_mass_matrix(p1, p2, p3, w1, w2, w3):
    """Vertex-sampled weighted mass matrix; the vertex sampling is the
    definition of this kind, only the arithmetic route differs."""
    area = triangle_area(p1, p2, p3)
    w = np.array([w1, w2, w3], dtype=np.float64)
    e = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            c = np.full(3, 1.0)
            if a == b:
                c[a] = 3.0
            else:
                c[3 - a - b] = 0.5
            e[a, b] = (area / 30.0) * (c @ w)
    return e


def stiffness_matrix(p1, p2, p3):
    """Element stiffness matrix as area * G^T G with inversion gradients."""
    area = triangle_area(p1, p2, p3)
    g = basis_gradients(p1, p2, p3)
    return area * (g.T @ g)


def elastic_matrix(p1, p2, p3, lam, mu):
    """Element elasticity matrix as area * B^T C B (dense products)."""
    area = triangle_area(p1, p2, p3)
    g = basis_gradients(p1, p2, p3)
    c = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    b = np.zeros((3, 6))
    for a in range(3):
        gx, gy = g[0, a], g[1, a]
        b[:, 2 * a] = (gx, 0.0, gy)
        b[:, 2 * a + 1] = (0.0, gy, gx)
    return area * (b.T @ c @ b)


def element_matrix(mesh, k, kind, weight=None, params=None):
    p1, p2, p3 = mesh.vertices[mesh.connectivity[k]]
    if kind is MatrixKind.MASS:
        return mass_matrix(p1, p2, p3)
    if kind is MatrixKind.WEIGHTED_MASS:
        tw = weight.sample(mesh)
        w1, w2, w3 = tw[mesh.connectivity[k]]
        return weighted_mass_matrix(p1, p2, p3, w1, w2, w3)
    if kind is MatrixKind.STIFFNESS:
        return stiffness_matrix(p1, p2, p3)
    return elastic_matrix(p1, p2, p3, params.lam, params.mu)


def element_dofs(mesh, k, kind):
    conn = mesh.connectivity[k]
    if kind is MatrixKind.ELASTIC:
        dofs = np.empty(6, dtype=np.int64)
        dofs[0::2] = 2 * conn
        dofs[1::2] = 2 * conn + 1
        return dofs
    return conn


def dense_assembly(mesh, kind, weight=None, params=None):
    """Dense accumulation of independently computed element matrices."""
    n = kind.n_dof(mesh.nq)
    dense = np.zeros((n, n))
    for k in range(mesh.nme):
        e = element_matrix(mesh, k, kind, weight, params)
        dofs = element_dofs(mesh, k, kind)
        dense[np.ix_(dofs, dofs)] += e
    return dense


def random_triangle(rng, scale=1.0, min_area=1e-3):
    """Nondegenerate triangle from a reproducible generator."""
    while True:
        pts = rng.uniform(-scale, scale, size=(3, 2))
        area = triangle_area(pts[0], pts[1], pts[2])
        if area > min_area * scale * scale:
            return pts[0], pts[1], pts[2], area
