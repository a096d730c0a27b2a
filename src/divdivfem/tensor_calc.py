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

FRAME_TOL = 1e-14


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


# --------------------------------------------------------------------------
# frames
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeFrame:
    """Orthonormal (t, n1, n2) with n1 x n2 = t, from global vertex data only."""
    t: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    def validate(self):
        for a, b in ((self.t, self.n1), (self.t, self.n2), (self.n1, self.n2)):
            assert abs(np.dot(a, b)) < FRAME_TOL
        for a in (self.t, self.n1, self.n2):
            assert abs(np.linalg.norm(a) - 1.0) < FRAME_TOL
        assert np.linalg.norm(np.cross(self.n1, self.n2) - self.t) < FRAME_TOL


@dataclass(frozen=True)
class FaceFrame:
    """Unit normal plus in-plane tangents t1 x t2 = n and per-edge (t_bdy, n_bdy)."""
    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t_bdy: tuple          # one unit tangent per boundary edge, ccw around n
    n_bdy: tuple          # outward in-plane normals, n_bdy x t_bdy = n

    def validate(self):
        assert abs(np.linalg.norm(self.n) - 1.0) < FRAME_TOL
        assert np.linalg.norm(np.cross(self.t1, self.t2) - self.n) < FRAME_TOL
        for tb, nb in zip(self.t_bdy, self.n_bdy):
            assert np.linalg.norm(np.cross(nb, tb) - self.n) < 1e-13


def make_edge_frame(global_ids, coords) -> EdgeFrame:
    """Deterministic edge frame; depends only on global vertex ids and coordinates.

    Tangent points from lower to higher global id.  n1 seeds from the coordinate
    axis least aligned with t (ties broken by axis index), n2 = t x n1.
    """
    ids = list(global_ids)
    coords = np.asarray(coords, dtype=float)
    if ids[0] > ids[1]:
        ids = ids[::-1]
        coords = coords[::-1]
    d = coords[1] - coords[0]
    length = np.linalg.norm(d)
    if length <= 0 or not np.isfinite(length):
        raise ValueError(f"degenerate edge between global vertices {tuple(global_ids)}")
    t = d / length
    axis = int(np.argmin(np.abs(t)))
    seed = np.zeros(3)
    seed[axis] = 1.0
    n1 = seed - np.dot(seed, t) * t
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(t, n1)
    return EdgeFrame(t=t, n1=n1, n2=n2)


def make_face_frame(global_ids, coords) -> FaceFrame:
    """Deterministic face frame from the ascending-global-id vertex ordering."""
    order = np.argsort(global_ids)
    v = np.asarray(coords, dtype=float)[order]
    nvec = np.cross(v[1] - v[0], v[2] - v[0])
    area2 = np.linalg.norm(nvec)
    if area2 <= 0 or not np.isfinite(area2):
        raise ValueError(f"degenerate face with global vertices {tuple(global_ids)}")
    n = nvec / area2
    t1 = (v[1] - v[0]) / np.linalg.norm(v[1] - v[0])
    t2 = np.cross(n, t1)
    tb, nb = [], []
    for a, b in ((0, 1), (1, 2), (2, 0)):  # ccw loop in the sorted ordering
        tv = v[b] - v[a]
        tv = tv / np.linalg.norm(tv)
        tb.append(tv)
        nb.append(np.cross(tv, n))
    return FaceFrame(n=n, t1=t1, t2=t2, t_bdy=tuple(tb), n_bdy=tuple(nb))


# --------------------------------------------------------------------------
# pointwise linear maps lifted to polynomial fields
# --------------------------------------------------------------------------

def field_sym(f: PolyField) -> PolyField:
    return f.map_components(lambda c: 0.5 * (c + np.swapaxes(c, -1, -2)))

def field_dev(f: PolyField) -> PolyField:
    n = f.vshape[-1]
    eye = np.eye(n)
    def _dev(c):
        t = np.trace(c, axis1=-2, axis2=-1)
        return c - (t / n)[..., None, None] * eye
    return f.map_components(_dev)

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

def rot2(f: PolyField) -> PolyField:
    """Vector v -> dx v2 - dy v1; matrices row-wise."""
    if not f.vshape or f.vshape[-1] != 2:
        raise ValueError("rot2 needs a trailing 2-vector axis")
    px, py = f.partial(0), f.partial(1)
    return PolyField(px.basis, px.coeffs[..., 1] - py.coeffs[..., 0], f.vshape[:-1])

def eps2(f: PolyField) -> PolyField:
    if f.vshape != (2,):
        raise ValueError("eps2 acts on 2-vector fields")
    return field_sym(f.grad())

def rotrot2(f: PolyField) -> PolyField:
    """S2 field -> rot2(rot2 rows): the 2-D rot rot operator."""
    return rot2(rot2(f))


# --------------------------------------------------------------------------
# audits
# --------------------------------------------------------------------------

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

        def rel(lhs, rhs):
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
            return float(np.abs(lhs - rhs).max() / scale)

        lhs = v.grad().map_components(
            lambda c: np.einsum("...ij,i->...j", c, n)).eval(pts)
        rhs = v.map_components(
            lambda c: np.tensordot(c, n, axes=(-1, 0))).grad().eval(pts)
        worst[names[0]] = max(worst[names[0]], rel(lhs, rhs))

        lhs = right_cross(v.grad(), n).eval(pts)
        rhs = (left_cross(n, v) * (-1.0)).grad().eval(pts)
        worst[names[1]] = max(worst[names[1]], rel(lhs, rhs))

        lhs = A.curl().map_components(
            lambda c: np.einsum("...ij,i->...j", c, n)).eval(pts)
        rhs = field_transpose(A).map_components(
            lambda c: np.tensordot(c, n, axes=(-1, 0))).curl().eval(pts)
        worst[names[2]] = max(worst[names[2]], rel(lhs, rhs))
    return [{"name": nm, "expected": 0.0, "computed": worst[nm],
             "source": "paper", "pass": worst[nm] <= 1e-11} for nm in names]
