"""P1 Lagrange element matrices, one formula per kind.

Each ``fill_*`` function writes entry r = i + n*j of the n x n element
matrix to ``out[r]``, computing the upper triangle and mirroring it, so
symmetry is exact.  The same code runs on one triangle (Python floats, a
list ``out``) and on a whole mesh ((nme,) arrays, an (n*n, nme) ``out``)
with the same IEEE operations in the same order, so the element loops
and the batched kernels of ``assembly`` get bit-identical values.  Scalar
kinds are 3x3; plane elasticity is 6x6 in the interleaved local ordering
(x1, y1, x2, y2, x3, y3).  The ``elem_*`` functions are the one-triangle
views: they check their input and return the matrix as an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .mesh import AREA_EPS

__all__ = [
    "ElasticParams",
    "elem_mass",
    "elem_mass_weighted",
    "elem_stiff",
    "elem_stiff_elastic",
    "fill_elastic",
    "fill_gradients",
    "fill_mass",
    "fill_mass_weighted",
    "fill_stiff",
    "local_map",
]


def local_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Local row i and column j of each entry r = i + n*j of an n x n
    element matrix."""
    r = np.arange(n * n)
    return r % n, r // n


# (lower, upper) entry pairs of an n x n matrix, for the mirror
_MIRROR = {n: [(j + n * i, i + n * j) for i in range(n) for j in range(i + 1, n)] for n in (3, 6)}


def _mirror(out, n: int) -> None:
    for lower, upper in _MIRROR[n]:
        out[lower] = out[upper]


def fill_mass(out, area) -> None:
    """Mass matrix: (area/12) * [[2,1,1],[1,2,1],[1,1,2]]."""
    d = area / 6.0
    o = area / 12.0
    out[0] = out[4] = out[8] = d
    out[3] = out[6] = out[7] = o
    _mirror(out, 3)


def fill_mass_weighted(out, area, w1, w2, w3) -> None:
    """Mass matrix with the weight sampled at the vertices.

    The diagonal entry for vertex a is (area/30)*(3*wa + wb + wc) and the
    off-diagonal entry for the pair (a, b) is (area/30)*(wa + wb + wc/2),
    c being the remaining vertex.
    """
    s = area / 30.0
    out[0] = s * (3.0 * w1 + w2 + w3)
    out[4] = s * (w1 + 3.0 * w2 + w3)
    out[8] = s * (w1 + w2 + 3.0 * w3)
    out[3] = s * (w1 + w2 + w3 / 2.0)
    out[6] = s * (w1 + w2 / 2.0 + w3)
    out[7] = s * (w1 / 2.0 + w2 + w3)
    _mirror(out, 3)


def fill_stiff(out, x1, y1, x2, y2, x3, y3, area) -> None:
    """Stiffness matrix from the edge vectors u = p2 - p3, v = p3 - p1,
    w = p1 - p2: entry (a, b) = dot(edge_a, edge_b) / (4 * area)."""
    ux, uy = x2 - x3, y2 - y3
    vx, vy = x3 - x1, y3 - y1
    wx, wy = x1 - x2, y1 - y2
    a4 = 4.0 * area
    out[0] = (ux * ux + uy * uy) / a4
    out[3] = (ux * vx + uy * vy) / a4
    out[6] = (ux * wx + uy * wy) / a4
    out[4] = (vx * vx + vy * vy) / a4
    out[7] = (vx * wx + vy * wy) / a4
    out[8] = (wx * wx + wy * wy) / a4
    _mirror(out, 3)


def fill_gradients(out, x1, y1, x2, y2, x3, y3, area) -> None:
    """Constant P1 basis gradients, g_a = perp(edge_a) / (2 * area) with the
    edges of ``fill_stiff``: ``out[2a + c]`` is component c of g_(a+1)."""
    inv2a = 0.5 / area
    out[0] = (y2 - y3) * inv2a
    out[1] = (x3 - x2) * inv2a
    out[2] = (y3 - y1) * inv2a
    out[3] = (x1 - x3) * inv2a
    out[4] = (y1 - y2) * inv2a
    out[5] = (x2 - x1) * inv2a


def fill_elastic(out, g, area, lam, mu) -> None:
    """Plane linear-elasticity matrix, area * B^T C B, from the basis
    gradients ``g`` of ``fill_gradients``: B is the symmetric gradient of
    the local basis and C = [[lam+2mu, lam, 0], [lam, lam+2mu, 0], [0, 0, mu]]
    the isotropic Hooke matrix, so each entry is two gradient products."""
    lpm2 = lam + 2.0 * mu
    for a in range(3):
        gax, gay = g[2 * a], g[2 * a + 1]
        for b in range(a, 3):
            gbx, gby = g[2 * b], g[2 * b + 1]
            r = 2 * a + 12 * b  # entry (2a, 2b)
            out[r] = (lpm2 * gax * gbx + mu * gay * gby) * area
            out[r + 6] = (lam * gax * gby + mu * gay * gbx) * area
            if b > a:  # for b == a, entry (2a+1, 2a) is below the diagonal
                out[r + 1] = (lam * gay * gbx + mu * gax * gby) * area
            out[r + 7] = (lpm2 * gay * gby + mu * gax * gbx) * area
    _mirror(out, 6)


@dataclass(frozen=True)
class ElasticParams:
    """Lame coefficients of an isotropic material; admissible when both
    are finite, lam + mu > 0 and mu > 0."""

    lam: float
    mu: float

    def __post_init__(self):
        [lam], [mu] = _finite("lam", self.lam), _finite("mu", self.mu)  # NaN named here, not below
        if not lam + mu > 0.0:
            raise ValueError(f"lam + mu must be positive, got {lam + mu:g}")
        if not mu > 0.0:
            raise ValueError(f"mu must be positive, got {mu:g}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


def _finite(what: str, *values) -> list[float]:
    values = list(map(float, values))
    if all(map(isfinite, values)):
        return values
    bad = next(v for v in values if not isfinite(v))
    raise ValueError(f"{what} must be finite, got {bad:g}")


def _check_area(area: float) -> float:
    area = float(area)
    if not AREA_EPS < area < inf:  # NaN fails too
        raise ValueError(f"triangle area must be positive and finite, got {area:g}")
    return area


def _corners(p1, p2, p3) -> list[float]:
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return _finite("corner coordinate", x1, y1, x2, y2, x3, y3)


def _view(fill, n: int, *args) -> np.ndarray:
    out = [0.0] * (n * n)
    fill(out, *args)
    # the matrix is exactly symmetric, so row- and column-major agree
    return np.array(out).reshape(n, n)


def elem_mass(area: float) -> np.ndarray:
    """3x3 element mass matrix (``fill_mass``)."""
    return _view(fill_mass, 3, _check_area(area))


def elem_mass_weighted(area: float, w1: float, w2: float, w3: float) -> np.ndarray:
    """3x3 element mass matrix with vertex weights (``fill_mass_weighted``)."""
    return _view(fill_mass_weighted, 3, _check_area(area), *_finite("weight", w1, w2, w3))


def elem_stiff(p1, p2, p3, area: float) -> np.ndarray:
    """3x3 element stiffness matrix of the triangle p1 p2 p3 (``fill_stiff``)."""
    return _view(fill_stiff, 3, *_corners(p1, p2, p3), _check_area(area))


def elem_stiff_elastic(p1, p2, p3, area: float, params: ElasticParams) -> np.ndarray:
    """6x6 element matrix of plane linear elasticity (``fill_elastic``)."""
    area = _check_area(area)
    g = [0.0] * 6
    fill_gradients(g, *_corners(p1, p2, p3), area)
    return _view(fill_elastic, 6, g, area, params.lam, params.mu)
