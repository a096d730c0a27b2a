"""The 3-D families: trace-free H(symcurl), symmetric H(divdiv), vector H1,
and discontinuous scalars; plus trace-identity and bubble audits.

Every functional is defined through global entity data (frames from ascending
global vertex ids, test bases on ascending-id entity simplices), so a DOF
shared between cells is literally the same functional from both sides.

Every functional is also translation-covariant: the tests that depend on the
position are built on the entity translated so that its lowest-id vertex is
the origin.  Cells that are translates of each other, with the same global-id
order, then have the same Vandermonde, and EntityCache groups them into
translation classes, so that a space builds one element per class.
"""

from __future__ import annotations

import numpy as np

from . import fe2d, poly
from . import tensor_calc as tc
from .dofcommon import (DofGroup, Element, GeneratorEval, Part, bernstein_tests,
                        bubble_space, componentwise, functional_matrix, vertex_groups)
from .fields import PolyField, Simplex, curl_from_grads
from .linalg import one_blas_thread, rowspace, svd_rank
from .mesh import LOCAL_FACES, TetMesh
from .quadrature import rule
from .report import check

FAMILIES = ("hsymcurl_T", "hdivdiv_S", "h1_vec3", "dg_scalar")

# family -> (degree offset from k, range, derivative order of the vertex DOFs)
_SHAPE = {
    "hsymcurl_T": (1, "T", 1),
    "hdivdiv_S": (0, "S", 0),
    "h1_vec3": (2, "V3", 2),
    "dg_scalar": (-2, "scalar", -1),
}


def shape_key(vertices: np.ndarray) -> bytes:
    """The exact bytes of the vertex differences from the first vertex: equal
    on entities that are translates of each other."""
    return (vertices[1:] - vertices[0]).tobytes()


class EntityCache:
    """Test arrays shared between the elements of one mesh, and the
    translation classes of the cells.

    Every key is exact bytes or an integer, with no tolerance:
      * edge tests, and the scalar face tests, are Bernstein tabulations at
        the rule's barycentric points, one array per degree for every entity;
      * the in-plane face test spaces are functions of the face's triangle in
        the in-plane coordinates (t1, t2) of its frame, relative to its
        origin (the lowest-id vertex): they are keyed by that triangle's
        bytes and mapped with each face's own frame;
      * sym(x cross P_{k-2}(K; T)) is built once per cell class, for both
        H(symcurl) and H(divdiv).
    A cell's class key is the order of its global ids and the shape keys of
    the cell, its edges and its faces (from which their frames are
    computed): cells with one key have the same Vandermonde.  Keys are
    exact, so translates whose differences round differently fall into
    different classes; that costs time, never accuracy.
    """

    def __init__(self, mesh: TetMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.qdeg = 2 * k + 6
        self._tests: dict = {}
        index: dict = {}                 # class key -> class number, in cell order
        self.cell_class = np.array([index.setdefault(self._cell_key(ci), len(index))
                                    for ci in range(mesh.num_cells)])
        self.class_reps = np.unique(self.cell_class, return_index=True)[1]
        self.class_keys = list(index)    # class number -> key

    def _cell_key(self, ci: int) -> tuple:
        m, gids = self.mesh, self.mesh.cells[ci]
        ents = [np.sort(gids), *m.edges[m.cell_edges[ci]], *m.faces[m.cell_faces[ci]]]
        return (np.argsort(gids).tobytes(), *(shape_key(m.vertices[e]) for e in ents))

    def tests(self, key, make):
        """The shared array (or space) of key, made by make() once."""
        if key not in self._tests:
            self._tests[key] = make()
        return self._tests[key]

    def edge_tests(self, deg: int) -> np.ndarray:
        return self.tests(("edge", deg), lambda: bernstein_tests(rule("edge", self.qdeg), deg))

    def face_tests(self, deg: int, corners: bool = True) -> np.ndarray:
        return self.tests(("face", deg, corners),
                          lambda: bernstein_tests(rule("triangle", self.qdeg), deg, corners))


class CellEdges:
    """One cell's six edges in local order, stacked on the entity axis: the
    group point set [(points, weights)] and the frames."""

    def __init__(self, mesh: TetMesh, ci: int, qdeg: int):
        eids = mesh.cell_edges[ci]
        verts = mesh.vertices[mesh.edges[eids]]            # ascending global ids
        q = rule("edge", qdeg)
        length = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
        self.points = [(q.bary @ verts, q.weights * length[:, None])]
        self.frame = mesh.edge_frames[eids]


class CellFaces:
    """One cell's four faces in local order, stacked on the entity axis: the
    group point set [(points, weights)], the frames, and the vertices
    relative to each face's origin, its lowest-id vertex."""

    def __init__(self, mesh: TetMesh, ci: int, cache: EntityCache):
        fids = mesh.cell_faces[ci]
        verts = mesh.vertices[mesh.faces[fids]]            # ascending global ids
        self.rel = verts - verts[:, :1]
        self.rule = q = rule("triangle", cache.qdeg)
        area2 = np.linalg.norm(np.cross(self.rel[:, 1], self.rel[:, 2]), axis=1)
        self.points = [(q.bary @ verts, q.weights * area2[:, None])]
        self.frame = mesh.face_frames[fids]
        self.TT = np.stack([self.frame.t1, self.frame.t2], axis=1)   # (4, 2, 3)
        self.cache = cache

    def in_plane(self, name: str, space) -> np.ndarray:
        """The 2-D tests space(tri2, k) of every face at its points, (4, m, p, *vshape):
        tri2 is the face in in-plane coordinates relative to its origin, and
        faces with bitwise equal tri2 share one array."""
        tri2 = self.rel @ self.TT.transpose(0, 2, 1)                 # (4, 3, 2)
        k, q = self.cache.k, self.rule
        return np.stack([self.cache.tests(
            (name, t.tobytes()), lambda t=t: space(Simplex(t), k).fields().eval(q.bary @ t))
            for t in tri2])

    def tangential_vec_tests(self) -> np.ndarray:
        v2 = self.in_plane("tanvec", fe2d.interior_test_space_hrot)
        return v2 @ self.TT[:, None]                                  # v2 . (t1, t2)

    def tangential_s2_tests(self) -> np.ndarray:
        s2 = self.in_plane("tans2", fe2d.interior_test_space_hrotrot)
        TT = self.TT[:, None, None]
        return np.swapaxes(TT, -1, -2) @ s2 @ TT                      # (t1, t2)^T s2 (t1, t2)

    def rotated_position_tests(self, lf: int, deg: int) -> np.ndarray:
        """q_m (n x x) for q in P_deg(f) on local face lf, x relative to its
        origin: the fixed-face interior tests, (1, m, p, 3)."""
        nxx = np.cross(self.frame.n[lf], self.rule.bary @ self.rel[lf])   # (p, 3)
        return self.cache.face_tests(deg)[..., None] * nxx


# ---------------------------------------------------------------------------
# pointwise integrands on the probe (C, D, *vshape, [3]*order)
# ---------------------------------------------------------------------------

def _value(X):
    return X[None]


_symcurl_vals = poly.OPS["symcurl"].fn


def _pairs(A, B):
    """Integrand a_e^T X b_e for the frame-vector pairs (A[:, s], B[:, s]) of
    each entity e, stacked last: (E, ..., S)."""
    return lambda X: np.einsum("...ij,esi,esj->e...s", X, A, B)


def _normal_pairs(frame):
    """_pairs of the edge normals (n1, n1), (n1, n2) and (n2, n2)."""
    return _pairs(np.stack([frame.n1, frame.n1, frame.n2], axis=1),
                  np.stack([frame.n1, frame.n2, frame.n2], axis=1))


def _edge_groups_symcurl(points, frame, k: int, cache: EntityCache) -> list[DofGroup]:
    """(7b) and (7c) functionals of stacked edges: point set and frames."""
    t, n1, n2 = frame.t, frame.n1, frame.n2
    tests_b, tests_c = cache.edge_tests(k - 3), cache.edge_tests(k - 2)
    tt = np.stack([t, t], axis=1)
    sym_pairs = _normal_pairs(frame)

    def curl_combo(X):
        dt = np.einsum("...ijd,ed->e...ij", X, t)
        return (np.einsum("...ij,ei,ej->e...", curl_from_grads(X), n1, n2)
                - np.einsum("e...ij,ei,ej->e...", dt, t, t))

    return [DofGroup("e", 0, points, [
                Part(_pairs(np.stack([n1, n2], axis=1), tt), componentwise(tests_b, 2))]),
            DofGroup("e", 1, points, [
                Part(lambda X: sym_pairs(_symcurl_vals(X)), componentwise(tests_c, 3)),
                Part(curl_combo, tests_c)])]


def _build_groups(family: str, k: int, mesh: TetMesh, ci: int, cache: EntityCache):
    cell = mesh.cell_simplices[ci]
    gids = mesh.cells[ci]
    _, rng, vorder = _SHAPE[family]
    groups = vertex_groups(cell.vertices, poly.range_dual(rng), vorder)

    q = rule("tet", cache.qdeg)
    cpts, cw = q.on(cell)
    inside = [(cpts[None], cw[None])]
    # the position-dependent interior tests live on the cell translated so
    # that its lowest-id vertex is the origin, read at the translated points
    origin = cell.vertices[np.argmin(gids)]
    rel = Simplex(cell.vertices - origin)
    at_cell = lambda space: space.fields().eval(cpts - origin)[None]
    symx = lambda: cache.tests(("symx", int(cache.cell_class[ci])),
                               lambda: poly.sym_position_cross_image(rel, k - 2))
    f1 = int(np.argmin(gids))             # the fixed face, opposite the lowest id

    if family in ("hsymcurl_T", "hdivdiv_S"):
        edges, faces = CellEdges(mesh, ci, cache.qdeg), CellFaces(mesh, ci, cache)
        n = faces.frame.n
        # the fixed face's points after the cell's, for the fixed-face moments
        fixed = inside + [tuple(a[f1:f1 + 1] for a in faces.points[0])]
        nxx = faces.rotated_position_tests(f1, k - 2)
    if family == "hsymcurl_T":
        groups += _edge_groups_symcurl(edges.points, edges.frame, k, cache)
        groups.append(DofGroup("f", 0, faces.points, [
            Part(lambda X: np.einsum("...ij,ei->e...j", X, n), faces.tangential_vec_tests()),
            # tau x n = -mspn(n) tau, column-wise cross
            Part(lambda X: np.einsum("eki,...ij->e...kj", -tc.mspn(n), X),
                 faces.tangential_s2_tests())]))
        # interior: symcurl against sym(x cross T), fixed-face moments, dev(v x^T)
        groups.append(DofGroup("c", 1, fixed, [
            Part(lambda X: _symcurl_vals(X)[None], at_cell(symx())),
            Part(lambda X: np.einsum("...ij,j->...i", _symcurl_vals(X), n[f1])[None],
                 nxx, at=1)]))
        groups.append(DofGroup("c", 0, inside, [
            Part(_value, at_cell(poly.dev_outer_position_image(rel, k - 2)))]))

    elif family == "hdivdiv_S":
        groups.append(DofGroup("e", 0, edges.points, [
            Part(_normal_pairs(edges.frame), componentwise(cache.edge_tests(k - 2), 3))]))

        def deriv_combo(X):
            gradw = np.einsum("...ijd,ej->e...id", X, n)         # rows of grad(tau n)
            divw = np.einsum("e...ii->e...", gradw)
            nGn = np.einsum("e...id,ei,ed->e...", gradw, n, n)
            dn_nn = np.einsum("...ijd,ei,ej,ed->e...", X, n, n, n)
            return 2.0 * (divw - nGn) + dn_nn

        groups.append(DofGroup("f", 0, faces.points, [Part(
            lambda X: np.einsum("...ij,ei,ej->e...", X, n, n), cache.face_tests(k - 3))]))
        groups.append(DofGroup("f", 1, faces.points, [
            Part(deriv_combo, cache.face_tests(k - 1))]))
        union = poly.union_fields([poly.hess_image(rel, k - 2).fields(), symx().fields()], "S")
        groups.append(DofGroup("c", 0, fixed, [
            Part(_value, at_cell(union)),
            Part(lambda X: np.einsum("...ij,j->...i", X, n[f1])[None], nxx, at=1)]))

    elif family == "h1_vec3":
        edges = CellEdges(mesh, ci, cache.qdeg)
        faces = CellFaces(mesh, ci, cache)
        groups.append(DofGroup("e", 0, edges.points, [
            Part(_value, componentwise(cache.edge_tests(k - 4), 3))]))
        groups.append(DofGroup("f", 0, faces.points, [
            Part(_value, componentwise(cache.face_tests(k - 1, corners=False), 3))]))
        groups.append(DofGroup("c", 0, inside, [
            Part(_value, componentwise(bernstein_tests(q, k - 2), 3))]))

    elif family == "dg_scalar":
        groups.append(DofGroup("c", 0, inside, [Part(_value, bernstein_tests(q, k - 2))]))
    else:
        raise ValueError(f"unknown 3-D family {family!r}")
    return cell, groups


@one_blas_thread()
def build_element(family: str, k: int, mesh: TetMesh, ci: int,
                  cache: EntityCache) -> Element:
    """The finalized element of cell ci; a translate of it in the same
    translation class has the same Vandermonde, so a space builds one per
    class.  It is built on one BLAS thread, so its Vinv is the same at any
    thread count."""
    if family not in _SHAPE:
        raise ValueError(f"unknown 3-D family {family!r}")
    if k < 3:
        raise ValueError("elements require k >= 3")
    off, rng, _ = _SHAPE[family]
    cell, groups = _build_groups(family, k, mesh, ci, cache)
    return Element(family, k, cell, cell.basis(k + off), poly.RANGE_GENERATORS[rng],
                   groups).finalize()


def element_3d(family: str, k: int, simplex: Simplex | None = None) -> Element:
    """Standalone element on one positively oriented tetrahedron."""
    verts = simplex.vertices if simplex is not None else poly.reference_cell("tet").vertices
    mesh = TetMesh(verts, [[0, 1, 2, 3]])
    return build_element(family, k, mesh, 0, EntityCache(mesh, k))


def dof_counts(elem: Element) -> dict[str, int]:
    out = {"vertex": 0, "edge": 0, "face": 0, "interior": 0}
    names = {"v": "vertex", "e": "edge", "f": "face", "c": "interior"}
    for kind, _, _ in elem.tags:
        out[names[kind]] += 1
    return out


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def _rand_frame(rng):
    a = rng.standard_normal(3)
    t1 = a / np.linalg.norm(a)
    b = rng.standard_normal(3)
    t2 = b - (b @ t1) * t1
    t2 /= np.linalg.norm(t2)
    n = np.cross(t1, t2)
    return t1, t2, n


def trace_identity_audit(k: int, trials: int, seed: int = 0) -> list[dict]:
    """Property tests of the face/edge trace identities and devgrad restrictions."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    cell = poly.reference_cell("tet")
    names = [
        "Pi_f(tau^T n).t2 = n^T tau t2",
        "rot_f Pi_f(tau^T n) = n^T curl tau n",
        "t2' Pi_fsym(tau x n) t2 = -t1' tau t2",
        "edge combo of Pi_fsym(tau x n) matches curl/derivative traces",
        "n' symcurl tau n = rot_f Pi_f(tau^T n)",
        "2div_f(xi n) + dn(n' xi n) = -rotf rotf Pi_fsym(tau x n)",
        "Pi_f((devgrad v)^T n) = grad_f(v.n)",
        "Pi_fsym(devgrad v x n) = eps_f(v x n)",
        "n_i' symcurl devgrad v n_j = 0",
        "n1' curl devgrad v n2 - dt(t' devgrad v t) = -dtt(v.t)",
    ]
    worst = {nm: 0.0 for nm in names}
    # tau in P_{k+1}(T) and v in P_{k+2}(R3), from random generator coordinates
    spaces = ((cell.basis(k + 1), poly.RANGE_GENERATORS["T"]),
              (cell.basis(k + 2), poly.RANGE_GENERATORS["V3"]))
    for _ in range(trials):
        tau, v = (PolyField.from_coords(basis, rng.standard_normal(basis.N * len(gens)), gens)
                  for basis, gens in spaces)
        t1, t2, n = _rand_frame(rng)
        pts = rng.random((8, 3))

        taun = tau.map_components(lambda c: np.einsum("...ij,i->...j", c, n))
        w = tc.proj_f(taun, n)
        zeta = tc.proj_f_sym(tc.right_cross(tau, n), n)
        curl_tau = tau.curl()

        lhs = w.eval(pts) @ t2
        rhs = np.einsum("pij,i,j->p", tau.eval(pts), n, t2)
        worst[names[0]] = max(worst[names[0]], tc.rel_discrepancy(lhs, rhs))

        lhs = tc.rot_f(w, n).eval(pts)
        rhs = np.einsum("pij,i,j->p", curl_tau.eval(pts), n, n)
        worst[names[1]] = max(worst[names[1]], tc.rel_discrepancy(lhs, rhs))

        lhs = np.einsum("pij,i,j->p", zeta.eval(pts), t2, t2)
        rhs = -np.einsum("pij,i,j->p", tau.eval(pts), t1, t2)
        worst[names[2]] = max(worst[names[2]], tc.rel_discrepancy(lhs, rhs))

        inner = zeta.map_components(lambda c: np.einsum("...ij,i,j->...", c, t1, t2))
        lhs = (-inner.directional(t2).eval(pts)
               + np.einsum("pi,i->p", tc.rot_f(zeta, n).eval(pts), t2))
        t_tau_t = tau.map_components(lambda c: np.einsum("...ij,i,j->...", c, t2, t2))
        rhs = (-np.einsum("pij,i,j->p", curl_tau.eval(pts), t1, n)
               - t_tau_t.directional(t2).eval(pts))
        worst[names[3]] = max(worst[names[3]], tc.rel_discrepancy(lhs, rhs))

        xi = tc.field_sym(curl_tau)
        lhs = np.einsum("pij,i,j->p", xi.eval(pts), n, n)
        rhs = tc.rot_f(w, n).eval(pts)
        worst[names[4]] = max(worst[names[4]], tc.rel_discrepancy(lhs, rhs))

        xin = xi.map_components(lambda c: np.einsum("...ij,j->...i", c, n))
        nxin = xi.map_components(lambda c: np.einsum("...ij,i,j->...", c, n, n))
        lhs = (2.0 * tc.div_f(xin, n).eval(pts)
               + nxin.directional(n).eval(pts))
        rhs = -tc.rot_f(tc.rot_f(zeta, n), n).eval(pts)
        worst[names[5]] = max(worst[names[5]], tc.rel_discrepancy(lhs, rhs))

        dgv = tc.field_dev(v.grad())
        dgvn = dgv.map_components(lambda c: np.einsum("...ij,i->...j", c, n))
        lhs = tc.proj_f(dgvn, n).eval(pts)
        vn = v.map_components(lambda c: np.tensordot(c, n, axes=(-1, 0)))
        rhs = tc.grad_f(vn, n).eval(pts)
        worst[names[6]] = max(worst[names[6]], tc.rel_discrepancy(lhs, rhs))

        lhs = tc.proj_f_sym(tc.right_cross(dgv, n), n).eval(pts)
        vxn = tc.left_cross(n, v) * (-1.0)
        rhs = tc.eps_f(vxn, n).eval(pts)
        worst[names[7]] = max(worst[names[7]], tc.rel_discrepancy(lhs, rhs))

        # edge identities with (t, n1, n2) = (n, t1, t2) relabeled: t = n1 x n2
        te, n1e, n2e = n, t1, t2
        sc = tc.field_sym(dgv.curl())
        vals = sc.eval(pts)
        m = max(np.abs(np.einsum("pij,i,j->p", vals, a, b)).max()
                for a in (n1e, n2e) for b in (n1e, n2e))
        scale = max(np.abs(dgv.eval(pts)).max(), 1.0)
        worst[names[8]] = max(worst[names[8]], m / scale)

        ttt = dgv.map_components(lambda c: np.einsum("...ij,i,j->...", c, te, te))
        lhs = (np.einsum("pij,i,j->p", dgv.curl().eval(pts), n1e, n2e)
               - ttt.directional(te).eval(pts))
        vt = v.map_components(lambda c: np.tensordot(c, te, axes=(-1, 0)))
        rhs = -vt.directional(te).directional(te).eval(pts)
        worst[names[9]] = max(worst[names[9]], tc.rel_discrepancy(lhs, rhs))

    return [check(nm, 0.0, worst[nm], "paper", tol=1e-10) for nm in names]


def _span_contains(span_rows: np.ndarray, vecs: np.ndarray, tol: float = 1e-8) -> bool:
    if len(vecs) == 0:
        return True
    Q = rowspace(span_rows)
    resid = vecs - (vecs @ Q.T) @ Q
    return bool(np.abs(resid).max() <= tol * max(np.abs(vecs).max(), 1e-30))


def closed_form_devgrad_bubbles(cell: Simplex, k: int) -> PolyField:
    """lambda1..lambda4 P_{k-2}(K; R^3)."""
    base = poly.space(cell, k - 2, "V3").fields()
    return base.times_bubble()


def closed_form_symcurl_bubbles(mesh: TetMesh, k: int) -> np.ndarray:
    """Coordinates (in T-range generators of degree k+1) of the closed form:
    lambda1..lambda4 P_{k-3}(K;T) + sum_f (face bubble) P_{k-2}(f) T_f."""
    cell = Simplex(mesh.vertices[mesh.cells[0]])
    rows = []
    if k - 3 >= 0:
        interior = poly.space(cell, k - 3, "T").fields().times_bubble()
        rows.append(poly.to_range_coords(interior, "T"))
    basis_km2 = cell.basis(k - 2)
    for lf, fverts in enumerate(LOCAL_FACES):
        fid = mesh.cell_faces[0][lf]
        fr = mesh.face_frames[fid]
        tf_gens = [np.outer(fr.t1, fr.n), np.outer(fr.t2, fr.n),
                   np.outer(fr.n, fr.n) - np.eye(3) / 3.0]
        # polynomials in the face-vertex barycentrics: Bernstein members of K
        # supported on the face vertices
        others = [j for j in range(4) if j not in fverts]
        sel = [i for i, a in enumerate(basis_km2.alphas) if not any(a[j] for j in others)]
        for i in sel:
            qf = PolyField(basis_km2, np.eye(basis_km2.N)[i], ())
            for j in fverts:
                op = qf.basis.lambda_ops[j]
                qf = PolyField(qf.basis.simplex.basis(qf.degree + 1),
                               op @ qf.coeffs, ())
            qf = qf.raise_to(k + 1)
            for G in tf_gens:
                fld = PolyField(qf.basis, qf.coeffs[..., None, None] * G, (3, 3))
                rows.append(poly.to_range_coords(fld, "T")[None, :])
    return np.concatenate(rows, axis=0)


def bubble_audit_3d(k: int, mesh: TetMesh | None = None) -> list[dict]:
    """Element bubble complex exactness, by DOF-block nullspaces and ranks."""
    mesh = mesh if mesh is not None else TetMesh(
        poly.reference_cell("tet").vertices, [[0, 1, 2, 3]])
    cache = EntityCache(mesh, k)
    eV = build_element("h1_vec3", k, mesh, 0, cache)
    eL = build_element("hsymcurl_T", k, mesh, 0, cache)
    eS = build_element("hdivdiv_S", k, mesh, 0, cache)
    cell = eV.simplex
    bV, bL, bS = bubble_space(eV), bubble_space(eL), bubble_space(eS)
    img_expect = k * (k - 1) * (5 * k + 14) // 6 + k * (k - 1) // 2
    tail_km2 = max(poly.dim_P(3, k - 2) - 4, 0)
    tail_km1 = max(poly.dim_P(3, k - 1) - 4, 0)

    # closed forms
    cf_dev = poly.to_range_coords(closed_form_devgrad_bubbles(cell, k), "V3")
    cf_sc = closed_form_symcurl_bubbles(mesh, k)

    # chain ranks: the images of the bubbles are their coordinates times
    # poly.diff's matrices, and each scale is the norm of that matrix
    D1 = poly.diff("devgrad", poly.space(cell, k + 2, "V3")).mat
    D2 = poly.diff("symcurl", poly.space(cell, k + 1, "T")).mat
    D3 = poly.diff("divdiv", poly.space(cell, k, "S")).mat
    dg_coords, sc_coords, dd_coords = bV @ D1, bL @ D2, bS @ D3
    r_dg = svd_rank(dg_coords, scale=np.linalg.norm(D1, 2))
    r_sc = svd_rank(sc_coords, scale=np.linalg.norm(D2, 2))
    r_dd = svd_rank(dd_coords, scale=np.linalg.norm(D3, 2))

    # divdiv of divdiv-bubbles is L2-orthogonal to P_1; the scalar range
    # coordinates are the Bernstein coefficients of degree k - 2
    p1 = poly.space(cell, 1, "scalar").fields().raise_to(k - 2)
    mom = dd_coords @ cell.basis(k - 2).gram() @ p1.coeffs.T
    # composition on bubbles
    resid = np.abs(dg_coords @ D2).max() / max(np.abs(bV).max(), 1.0)
    return [
        check("dim B_{k+2,devgrad}", 3 * poly.dim_P(3, k - 2), len(bV), "derived"),
        check("dim B_{k+1,symcurl}", 8 * poly.dim_P(3, k - 3) + 12 * poly.dim_P(2, k - 2),
              len(bL), "paper"),
        check("dim B_{k,divdiv}", img_expect + tail_km2, len(bS), "paper"),
        check("B_{k+2,devgrad} = bubble * P_{k-2}(R3)", True,
              _span_contains(bV, cf_dev) and svd_rank(cf_dev) == len(bV), "paper"),
        check("B_{k+1,symcurl} matches closed form", True,
              _span_contains(bL, cf_sc) and svd_rank(cf_sc) == len(bL), "paper"),
        check("devgrad injective on bubbles", len(bV), r_dg, "derived"),
        check("devgrad bubbles inside symcurl bubbles", True, _span_contains(bL, dg_coords),
              "paper"),
        check("dim symcurl B_{k+1,symcurl}", img_expect, r_sc, "paper"),
        check("exactness at symcurl bubbles", r_dg, len(bL) - r_sc, "derived"),
        check("symcurl bubbles inside divdiv bubbles", True, _span_contains(bS, sc_coords),
              "paper"),
        check("measured rank divdiv on bubbles (tail resolution)", tail_km2, r_dd, "derived"),
        check("tail is P_{k-2}/P_1 (not P_{k-1}/P_1)", f"dim {tail_km2}",
              f"dim {r_dd} (P_{{k-1}}/P_1 would be {tail_km1})", "derived",
              ok=r_dd == tail_km2 and r_dd != tail_km1),
        check("exactness at divdiv bubbles", r_sc, len(bS) - r_dd, "derived"),
        check("divdiv bubbles orthogonal to P_1", True,
              bool(np.abs(mom).max() <= 1e-10 * max(np.abs(bS).max(), 1.0)), "paper"),
        check("symcurl o devgrad bubbles = 0", 0.0, float(resid), "trivial", tol=1e-11)]


def frame_rotation_span_check(k: int, seed: int = 0) -> bool:
    """(7c)-type edge functionals span the same space for any admissible frame."""
    mesh = TetMesh(poly.reference_cell("tet").vertices, [[0, 1, 2, 3]])
    cache = EntityCache(mesh, k)
    elem = build_element("hsymcurl_T", k, mesh, 0, cache)
    gen = GeneratorEval(elem.basis, elem.comp_gens)
    edges = CellEdges(mesh, 0, cache.qdeg)
    edge0 = [tuple(a[:1] for a in edges.points[0])]                 # local edge 0 alone

    def rows_for(frame):
        return functional_matrix(_edge_groups_symcurl(edge0, frame, k, cache), gen).T

    c, s = np.cos(0.7), np.sin(0.7)
    fr = edges.frame[:1]
    rot = tc.EdgeFrame(t=fr.t, n1=c * fr.n1 + s * fr.n2, n2=-s * fr.n1 + c * fr.n2)
    A, B = rows_for(fr), rows_for(rot)
    # compare only the symcurl/curl-combination subset (the (7b) rows rotate
    # within their own span as well, so the full block is equally fine)
    rk = svd_rank
    return (rk(A) == rk(B) == rk(np.vstack([A, B])))
