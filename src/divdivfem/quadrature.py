"""Conical-product (collapsed Gauss) quadrature on edges, triangles, tetrahedra.

Rules are stored in barycentric coordinates with weights in reference-cell
measure (1, 1/2, 1/6); mapping to a physical entity scales the weights by
measure ratio.  Exactness to the requested total degree is what matters here,
weight positivity happens to hold as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

REF_MEASURE = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}
MAX_DEGREE = 40


@dataclass(frozen=True)
class QuadRule:
    cell_dim: int
    degree: int
    bary: np.ndarray      # (npts, cell_dim + 1)
    weights: np.ndarray   # (npts,), sums to the reference measure

    def on(self, simplex) -> tuple[np.ndarray, np.ndarray]:
        """Physical points and weights on a simplex of matching dimension."""
        if simplex.dim != self.cell_dim:
            raise ValueError("rule/cell dimension mismatch")
        pts = self.bary @ simplex.vertices
        w = self.weights * (simplex.measure / REF_MEASURE[self.cell_dim])
        return pts, w


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def rule(cell: str | int, degree: int) -> QuadRule:
    """Quadrature rule exact to the given total polynomial degree."""
    dims = {"edge": 1, "triangle": 2, "tet": 3, 1: 1, 2: 2, 3: 3}
    if cell not in dims:
        raise ValueError(f"unknown cell {cell!r}")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} not supported (max {MAX_DEGREE})")
    d = dims[cell]
    if d == 1:
        na = (degree + 2) // 2
        a, wa = _gauss01(na)
        bary = np.stack([1.0 - a, a], axis=1)
        return QuadRule(1, degree, bary, wa)
    if d == 2:
        # Duffy map x = a(1-b), y = b with Jacobian (1-b)
        na = (degree + 2) // 2
        nb = (degree + 3) // 2
        a, wa = _gauss01(na)
        b, wb = _gauss01(nb)
        A, B = np.meshgrid(a, b, indexing="ij")
        x = (A * (1.0 - B)).ravel()
        y = B.ravel()
        w = (np.outer(wa, wb) * (1.0 - B)).ravel()
        bary = np.stack([1.0 - x - y, x, y], axis=1)
        return QuadRule(2, degree, bary, w)
    # tet via x = a(1-b)(1-c), y = b(1-c), z = c, Jacobian (1-b)(1-c)^2
    na = (degree + 2) // 2
    nb = (degree + 3) // 2
    nc = (degree + 4) // 2
    a, wa = _gauss01(na)
    b, wb = _gauss01(nb)
    c, wc = _gauss01(nc)
    A, B, C = np.meshgrid(a, b, c, indexing="ij")
    x = (A * (1.0 - B) * (1.0 - C)).ravel()
    y = (B * (1.0 - C)).ravel()
    z = C.ravel()
    w = (wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
         * (1.0 - B) * (1.0 - C) ** 2).ravel()
    bary = np.stack([1.0 - x - y - z, x, y, z], axis=1)
    return QuadRule(3, degree, bary, w)
