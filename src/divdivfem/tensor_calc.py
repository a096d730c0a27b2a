"""Small tensor algebra, entity frames, and surface operators on polynomial fields.

Conventions for matrix fields A (rows indexed first):
  * grad v has rows = gradients: (grad v)[i, j] = d_j v_i
  * curl A and div A act row-wise
  * n x A acts row-wise (each row r -> n x r), i.e. n x A = -A @ mspn(n)
  * A x n acts column-wise (each column c -> c x n), i.e. A x n = -mspn(n) @ A
  * Pi_f acts row-wise: Pi_f A = A (I - n n^T)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PolyField
from .report import check


# --------------------------------------------------------------------------
# pointwise algebra on plain arrays (trailing axes are the matrix axes)
# --------------------------------------------------------------------------

def mspn(v):
    """Skew matrix with (mspn v) w = v x w."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def sym(c):
    return 0.5 * (c + np.swapaxes(c, -1, -2))


def dev(c):
    n = c.shape[-1]
    return c - (np.trace(c, axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n)


# --------------------------------------------------------------------------
# frames
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeFrame:
    """Orthonormal (t, n1, n2) with n1 x n2 = t, from global vertex data only.
    The frames of a batch of edges stack each vector on a leading axis, and
    indexing the batch picks frames."""
    t: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    def __getitem__(self, i) -> "EdgeFrame":
        return EdgeFrame(self.t[i], self.n1[i], self.n2[i])


@dataclass(frozen=True)
class FaceFrame:
    """Unit normal plus in-plane tangents t1 x t2 = n; batched like EdgeFrame."""
    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __getitem__(self, i) -> "FaceFrame":
        return FaceFrame(self.n[i], self.t1[i], self.t2[i])


def _unit_rows(d, what, global_ids):
    """The rows of d scaled to unit length; ValueError names the first
    entity whose row has no finite positive length."""
    length = np.linalg.norm(d, axis=-1)
    bad = np.flatnonzero(~(np.isfinite(length) & (length > 0)))
    if len(bad):
        raise ValueError(f"degenerate {what} {tuple(np.asarray(global_ids)[bad[0]].tolist())}")
    return d / length[:, None]


def edge_frames(global_ids, coords) -> EdgeFrame:
    """Deterministic frames of a batch of edges, ids (E, 2) and coordinates
    (E, 2, 3); each depends only on its edge's global vertex ids and
    coordinates.

    Tangent points from lower to higher global id.  n1 seeds from the coordinate
    axis least aligned with t (ties broken by axis index), n2 = t x n1.
    """
    ids, coords = np.asarray(global_ids), np.asarray(coords, dtype=float)
    d = coords[:, 1] - coords[:, 0]
    flip = ids[:, 0] > ids[:, 1]
    d[flip] = coords[flip, 0] - coords[flip, 1]
    t = _unit_rows(d, "edge between global vertices", ids)
    rows = np.arange(len(t))
    axis = np.argmin(np.abs(t), axis=1)
    seed = np.zeros_like(t)
    seed[rows, axis] = 1.0
    n1 = _unit_rows(seed - t[rows, axis][:, None] * t, "edge between global vertices", ids)
    return EdgeFrame(t=t, n1=n1, n2=np.cross(t, n1))


def face_frames(global_ids, coords) -> FaceFrame:
    """Deterministic frames of a batch of faces, ids (F, 3) and coordinates
    (F, 3, 3), from each face's ascending-global-id vertex ordering."""
    order = np.argsort(global_ids, axis=1)
    v = np.take_along_axis(np.asarray(coords, dtype=float), order[:, :, None], axis=1)
    n = _unit_rows(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]),
                   "face with global vertices", global_ids)
    t1 = _unit_rows(v[:, 1] - v[:, 0], "face with global vertices", global_ids)
    return FaceFrame(n=n, t1=t1, t2=np.cross(n, t1))


# --------------------------------------------------------------------------
# pointwise linear maps lifted to polynomial fields
# --------------------------------------------------------------------------

def field_sym(f: PolyField) -> PolyField:
    return f.map_components(sym)

def field_dev(f: PolyField) -> PolyField:
    return f.map_components(dev)

def field_transpose(f: PolyField) -> PolyField:
    return f.map_components(lambda c: np.swapaxes(c, -1, -2))

def left_cross(n, f: PolyField) -> PolyField:
    """n x field, acting row-wise on matrices (trailing axis = row vector)."""
    M = mspn(np.asarray(n, dtype=float))
    return f.map_components(lambda c: np.tensordot(c, M.T, axes=(-1, 0)))

def right_cross(f: PolyField, n) -> PolyField:
    """field x n, acting column-wise on matrix fields."""
    if len(f.vshape) != 2:
        raise ValueError("right_cross expects a matrix field")
    M = mspn(np.asarray(n, dtype=float))
    return f.map_components(lambda c: -np.einsum("ki,...ij->...kj", M, c))

def position_cross_rowwise(f: PolyField) -> PolyField:
    """x cross field, row-wise: rows a_i -> x x a_i.  Raises degree by one."""
    # (x x a)_l = eps_{lpq} x_p a_q
    eps = np.zeros((3, 3, 3))
    for i, j, k, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
        eps[i, j, k] = s
    parts = []
    for p in range(3):
        fp = f.times_coord(p)
        parts.append(np.tensordot(fp.coeffs, eps[:, p, :], axes=(-1, 1)))
    basis = f.basis.simplex.basis(f.degree + 1)
    return PolyField(basis, sum(parts), f.vshape)

def outer_with_position(f: PolyField) -> PolyField:
    """Vector field v -> matrix field v x^T (degree + 1)."""
    if len(f.vshape) != 1:
        raise ValueError("outer_with_position expects a vector field")
    cols = [f.times_coord(j).coeffs for j in range(f.basis.simplex.gdim)]
    basis = f.basis.simplex.basis(f.degree + 1)
    return PolyField(basis, np.stack(cols, axis=-1), f.vshape + (f.basis.simplex.gdim,))


# --------------------------------------------------------------------------
# surface operators (3-D embedded plane with unit normal n)
# --------------------------------------------------------------------------

def _tangential_projector(n):
    n = np.asarray(n, dtype=float)
    return np.eye(3) - np.outer(n, n)

def proj_f(f: PolyField, n) -> PolyField:
    """Row-wise tangential projection Pi_f."""
    P = _tangential_projector(n)
    return f.map_components(lambda c: np.tensordot(c, P, axes=(-1, 0)))

def proj_f_sym(f: PolyField, n) -> PolyField:
    return field_sym(proj_f(f, n))

def grad_f(f: PolyField, n) -> PolyField:
    """Row-wise tangential gradient; for scalars this is Pi_f grad q."""
    return proj_f(f.grad(), n)

def curl_f(f: PolyField, n) -> PolyField:
    """Scalar q -> n x grad q."""
    if f.vshape != ():
        raise ValueError("curl_f acts on scalar fields")
    return left_cross(n, f.grad())

def rot_f(f: PolyField, n) -> PolyField:
    """Vector v -> n . curl v; matrix A -> (curl A) n, row-wise."""
    c = f.curl()
    nvec = np.asarray(n, dtype=float)
    return c.map_components(lambda arr: np.tensordot(arr, nvec, axes=(-1, 0)))

def div_f(f: PolyField, n) -> PolyField:
    """Surface divergence div_f v = rot_f(n x v); row-wise for matrices."""
    return rot_f(left_cross(n, f), n)

def eps_f(f: PolyField, n) -> PolyField:
    """Tangential symmetric gradient of a vector field."""
    if f.vshape != (3,):
        raise ValueError("eps_f acts on 3-vector fields")
    g = grad_f(proj_f(f, n), n)
    return field_sym(g)


# --------------------------------------------------------------------------
# plain 2-D surface calculus (triangle in R^2); matches the 3-D operators
# when n = e_z
# --------------------------------------------------------------------------

def curl2(f: PolyField) -> PolyField:
    """q -> (-dy q, dx q); applied componentwise it appends the rotated axis."""
    g = f.grad()
    rotmat = np.array([[0.0, 1.0], [-1.0, 0.0]])  # (gx, gy) -> (-gy, gx)
    return g.map_components(lambda c: np.tensordot(c, rotmat, axes=(-1, 0)))


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

def rel_discrepancy(lhs, rhs) -> float:
    """max |lhs - rhs| relative to the larger of max |lhs|, max |rhs| and 1."""
    scale = max(np.abs(lhs).max(initial=0.0), np.abs(rhs).max(initial=0.0), 1.0)
    return float(np.abs(lhs - rhs).max(initial=0.0) / scale)


def product_identity_audit(trials: int = 50, seed: int = 0, degree: int = 5,
                           npts: int = 20) -> list[dict]:
    """Commutation of cross/dot products with differentiation, on random
    polynomial fields: (grad v)^T n = grad(v.n), grad v x n = grad(v x n),
    (curl A)^T n = curl(A^T n)."""
    from .fields import Simplex
    rng = np.random.default_rng(seed)
    K = Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    basis = K.basis(degree)
    names = ["(grad v)^T n = grad(v.n)",
             "grad v x n = grad(v x n)",
             "(curl A)^T n = curl(A^T n)"]
    worst = dict.fromkeys(names, 0.0)
    for _ in range(trials):
        v = PolyField(basis, rng.standard_normal((basis.N, 3)), (3,))
        A = PolyField(basis, rng.standard_normal((basis.N, 3, 3)), (3, 3))
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        pts = rng.random((npts, 3))

        lhs = v.grad().map_components(
            lambda c: np.einsum("...ij,i->...j", c, n)).eval(pts)
        rhs = v.map_components(
            lambda c: np.tensordot(c, n, axes=(-1, 0))).grad().eval(pts)
        worst[names[0]] = max(worst[names[0]], rel_discrepancy(lhs, rhs))

        lhs = right_cross(v.grad(), n).eval(pts)
        rhs = (left_cross(n, v) * (-1.0)).grad().eval(pts)
        worst[names[1]] = max(worst[names[1]], rel_discrepancy(lhs, rhs))

        lhs = A.curl().map_components(
            lambda c: np.einsum("...ij,i->...j", c, n)).eval(pts)
        rhs = field_transpose(A).map_components(
            lambda c: np.tensordot(c, n, axes=(-1, 0))).curl().eval(pts)
        worst[names[2]] = max(worst[names[2]], rel_discrepancy(lhs, rhs))
    return [check(nm, 0.0, worst[nm], "paper", tol=1e-11) for nm in names]
