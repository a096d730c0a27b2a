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
from .dofcommon import (DofBlock, Element, GeneratorEval, bubble_space,
                        curl_from_grads, functional_matrix, moment_block,
                        point_blocks)
from .fields import PolyField, Simplex
from .linalg import rowspace, svd_rank
from .mesh import LOCAL_FACES, TetMesh
from .quadrature import rule

FAMILIES = ("hsymcurl_T", "hdivdiv_S", "h1_vec3", "dg_scalar")

# family -> (degree offset from k, range, derivative order of the vertex DOFs)
_SHAPE = {
    "hsymcurl_T": (1, "T", 1),
    "hdivdiv_S": (0, "S", 0),
    "h1_vec3": (2, "V3", 2),
    "dg_scalar": (-2, "scalar", -1),
}


class EdgeData:
    def __init__(self, mesh: TetMesh, eid: int, qdeg: int):
        self.frame = mesh.edge_frames[eid]
        ids = mesh.edges[eid]  # ascending global ids by construction
        self.seg = Simplex(mesh.vertices[ids])
        q = rule("edge", qdeg)
        self.rule = q
        self.pts, self.w = q.on(self.seg)
        self._tests: dict[int, np.ndarray] = {}

    def tests(self, deg: int) -> np.ndarray:
        if deg not in self._tests:
            if deg < 0:
                self._tests[deg] = np.zeros((0, len(self.w)))
            else:
                self._tests[deg] = self.seg.basis(deg).eval(self.rule.bary).T
        return self._tests[deg]


def shape_key(vertices: np.ndarray) -> bytes:
    """The exact bytes of the vertex differences from the first vertex: equal
    on entities that are translates of each other."""
    return (vertices[1:] - vertices[0]).tobytes()


class FaceData:
    """A face's frame, quadrature and test arrays.  The tests are functions
    of the face's shape alone (the position enters relative to the origin,
    the lowest-id vertex), so faces of one shape share the dict tests."""

    def __init__(self, mesh: TetMesh, fid: int, qdeg: int, tests: dict):
        self.frame = mesh.face_frames[fid]
        ids = mesh.faces[fid]  # ascending
        self.tri3 = Simplex(mesh.vertices[ids])
        q = rule("triangle", qdeg)
        self.rule = q
        self.pts, self.w = q.on(self.tri3)
        self.origin = self.tri3.vertices[0]
        self.TT = np.stack([self.frame.t1, self.frame.t2])      # (2, 3)
        self._tests = tests

    def scalar_tests(self, deg: int) -> np.ndarray:
        key = ("scalar", deg)
        if key not in self._tests:
            if deg < 0:
                self._tests[key] = np.zeros((0, len(self.w)))
            else:
                self._tests[key] = self.tri3.basis(deg).eval(self.rule.bary).T
        return self._tests[key]

    def vertex_vanishing_tests(self, deg: int) -> np.ndarray:
        key = ("p0", deg)
        if key not in self._tests:
            basis = self.tri3.basis(deg)
            keep = [i for i in range(basis.N) if i not in set(basis.corner_indices())]
            self._tests[key] = basis.eval(self.rule.bary)[:, keep].T
        return self._tests[key]

    def _plane(self):
        """The face and its points in the in-plane coordinates (t1, t2) of
        the frame, relative to the origin."""
        tri2 = Simplex((self.tri3.vertices - self.origin) @ self.TT.T)
        return tri2, (self.pts - self.origin) @ self.TT.T

    def tangential_vec_tests(self, k: int) -> np.ndarray:
        key = ("tanvec", k)
        if key not in self._tests:
            tri2, pts2 = self._plane()
            v2 = fe2d.interior_test_space_hrot(tri2, k).fields().eval(pts2)  # (m, p, 2)
            self._tests[key] = np.einsum("mpk,kd->mpd", v2, self.TT)
        return self._tests[key]

    def tangential_s2_tests(self, k: int) -> np.ndarray:
        key = ("tans2", k)
        if key not in self._tests:
            tri2, pts2 = self._plane()
            s2 = fe2d.interior_test_space_hrotrot(tri2, k).fields().eval(pts2)  # (m, p, 2, 2)
            self._tests[key] = np.einsum("mpab,ax,by->mpxy", s2, self.TT, self.TT)
        return self._tests[key]

    def rotated_position_tests(self, deg: int) -> np.ndarray:
        """q_m (n x x) for q in P_deg(f), x relative to the origin: the
        fixed-face interior tests."""
        key = ("nxx", deg)
        if key not in self._tests:
            q = self.scalar_tests(deg)                            # (m, p)
            nxx = np.cross(self.frame.n[None, :], self.pts - self.origin)  # (p, 3)
            self._tests[key] = q[:, :, None] * nxx[None, :, :]
        return self._tests[key]


class EntityCache:
    """Shared per-mesh entity data so all incident cells see identical DOFs,
    and the translation classes of the cells.

    Face test arrays are shared by face shape (shape_key in ascending-id
    order, which also fixes the frame); cell test arrays by cell class.  A
    cell's class key is the order of its global ids and the shape keys of
    the cell, its edges and its faces (from which their frames are
    computed): cells with one key have the same Vandermonde.  Keys are
    exact, so translates whose differences round differently fall into
    different classes; that costs time, never accuracy.
    """

    def __init__(self, mesh: TetMesh, k: int):
        self.mesh = mesh
        self.k = k
        self.qdeg = 2 * k + 6
        self._edges: dict[int, EdgeData] = {}
        self._faces: dict[int, FaceData] = {}
        self._tests: dict = {}          # (kind, shape or class key) -> {name: tests}
        index: dict = {}                 # class key -> class number, in cell order
        self.cell_class = np.array([index.setdefault(self._cell_key(ci), len(index))
                                    for ci in range(mesh.num_cells)])
        self.class_reps = np.unique(self.cell_class, return_index=True)[1]

    def _cell_key(self, ci: int) -> tuple:
        m, gids = self.mesh, self.mesh.cells[ci]
        ents = [np.sort(gids), *m.edges[m.cell_edges[ci]], *m.faces[m.cell_faces[ci]]]
        return (np.argsort(gids).tobytes(), *(shape_key(m.vertices[e]) for e in ents))

    def edge(self, eid: int) -> EdgeData:
        if eid not in self._edges:
            self._edges[eid] = EdgeData(self.mesh, eid, self.qdeg)
        return self._edges[eid]

    def face(self, fid: int) -> FaceData:
        if fid not in self._faces:
            key = ("f", shape_key(self.mesh.vertices[self.mesh.faces[fid]]))
            self._faces[fid] = FaceData(self.mesh, fid, self.qdeg,
                                        self._tests.setdefault(key, {}))
        return self._faces[fid]

    def cell_tests(self, ci: int, name: str, make) -> np.ndarray:
        """The cell-interior tests name of cell ci, made by make() once per class."""
        tests = self._tests.setdefault(("c", int(self.cell_class[ci])), {})
        if name not in tests:
            tests[name] = make()
        return tests[name]


# ---------------------------------------------------------------------------
# pointwise integrands
# ---------------------------------------------------------------------------

def _symcurl_vals(ev, pts):
    C = curl_from_grads(ev.grads(pts))
    return 0.5 * (C + np.swapaxes(C, -1, -2))


def _edge_blocks_symcurl(entity, ed: EdgeData, k: int, frame) -> list[DofBlock]:
    """(7b) and (7c) functionals for one edge, frame passed explicitly."""
    t, n1, n2 = frame.t, frame.n1, frame.n2
    pts = ed.pts
    blocks = []
    tests_b = ed.tests(k - 3)
    for ni, lab in ((n1, "n1.tau.t"), (n2, "n2.tau.t")):
        blocks.append(moment_block(
            entity,
            lambda ev, P=pts, N=ni: np.einsum("...pij,i,j->...p", ev.values(P), N, t),
            tests_b, ed.w, lab))
    tests_c = ed.tests(k - 2)
    for (na, nb), lab in (((n1, n1), "scc11"), ((n1, n2), "scc12"), ((n2, n2), "scc22")):
        blocks.append(moment_block(
            entity,
            lambda ev, P=pts, A=na, B=nb: np.einsum(
                "...pij,i,j->...p", _symcurl_vals(ev, P), A, B),
            tests_c, ed.w, lab))

    def curl_combo(ev, P=pts):
        G = ev.grads(P)
        C = curl_from_grads(G)
        dt = np.einsum("...pijd,d->...pij", G, t)
        return (np.einsum("...pij,i,j->...p", C, n1, n2)
                - np.einsum("...pij,i,j->...p", dt, t, t))

    blocks.append(moment_block(entity, curl_combo, tests_c, ed.w, "curl-tt"))
    return blocks


def _build_blocks(family: str, k: int, mesh: TetMesh, ci: int, cache: EntityCache):
    cell = mesh.cell_simplices[ci]
    gids = mesh.cells[ci]
    _, rng, vorder = _SHAPE[family]
    blocks: list[DofBlock] = []
    for v in range(4):
        blocks += point_blocks(("v", v), cell.vertices[v], poly.range_dual(rng), vorder)

    q = rule("tet", cache.qdeg)
    cpts, cw = q.on(cell)
    # the position-dependent interior tests live on the cell translated so
    # that its lowest-id vertex is the origin, read at the translated points
    origin = cell.vertices[np.argmin(gids)]

    def interior_tests(name, make):
        return cache.cell_tests(
            ci, f"{family} {name}",
            lambda: make(Simplex(cell.vertices - origin)).fields().eval(cpts - origin))

    if family == "hsymcurl_T":
        for le in range(6):
            ed = cache.edge(mesh.cell_edges[ci][le])
            blocks += _edge_blocks_symcurl(("e", le), ed, k, ed.frame)
        for lf in range(4):
            fd = cache.face(mesh.cell_faces[ci][lf])
            n = fd.frame.n
            tans = fd.tangential_vec_tests(k)
            blocks.append(moment_block(
                ("f", lf),
                lambda ev, P=fd.pts, N=n: np.einsum("...pij,i->...pj", ev.values(P), N),
                tans, fd.w, "face tangential"))
            s2 = fd.tangential_s2_tests(k)
            M = -tc.mspn(n)  # tau x n = -mspn(n) tau, column-wise cross

            def taun(ev, P=fd.pts, MM=M):
                return np.einsum("ki,...pij->...pkj", MM, ev.values(P))

            blocks.append(moment_block(("f", lf), taun, s2, fd.w, "face sym-cross"))
        # interior: symcurl against sym(x cross T), fixed-face moments, dev(v x^T)
        symx = interior_tests("symx", lambda rel: poly.sym_position_cross_image(rel, k - 2))
        blocks.append(moment_block(
            ("c", 0), lambda ev, P=cpts: _symcurl_vals(ev, P), symx, cw, "symcurl moments"))
        f1_local = int(np.argmin(gids))
        fd1 = cache.face(mesh.cell_faces[ci][f1_local])
        nxx = fd1.rotated_position_tests(k - 2)

        def scn(ev, P=fd1.pts, N=fd1.frame.n):
            return np.einsum("...pij,j->...pi", _symcurl_vals(ev, P), N)

        blocks.append(moment_block(("c", 0), scn, nxx, fd1.w, "fixed-face symcurl"))
        devx = interior_tests("devx", lambda rel: poly.dev_outer_position_image(rel, k - 2))
        blocks.append(moment_block(
            ("c", 0), lambda ev, P=cpts: ev.values(P), devx, cw, "dev moments"))

    elif family == "hdivdiv_S":
        for le in range(6):
            ed = cache.edge(mesh.cell_edges[ci][le])
            n1, n2 = ed.frame.n1, ed.frame.n2
            tests = ed.tests(k - 2)
            for (na, nb), lab in (((n1, n1), "nn11"), ((n1, n2), "nn12"), ((n2, n2), "nn22")):
                blocks.append(moment_block(
                    ("e", le),
                    lambda ev, P=ed.pts, A=na, B=nb: np.einsum(
                        "...pij,i,j->...p", ev.values(P), A, B),
                    tests, ed.w, lab))
        for lf in range(4):
            fd = cache.face(mesh.cell_faces[ci][lf])
            n = fd.frame.n
            blocks.append(moment_block(
                ("f", lf),
                lambda ev, P=fd.pts, N=n: np.einsum("...pij,i,j->...p", ev.values(P), N, N),
                fd.scalar_tests(k - 3), fd.w, "normal-normal"))

            def deriv_combo(ev, P=fd.pts, N=n):
                G = ev.grads(P)                                  # (..., p, 3, 3, d)
                gradw = np.einsum("...pijd,j->...pid", G, N)     # rows of grad(tau n)
                divw = np.einsum("...pii->...p", gradw)
                nGn = np.einsum("...pid,i,d->...p", gradw, N, N)
                dn_nn = np.einsum("...pijd,i,j,d->...p", G, N, N, N)
                return 2.0 * (divw - nGn) + dn_nn

            blocks.append(moment_block(
                ("f", lf), deriv_combo, fd.scalar_tests(k - 1), fd.w, "divf-dn"))
        tests = interior_tests("union", lambda rel: poly.union_fields(
            [poly.hess_image(rel, k - 2).fields(),
             poly.sym_position_cross_image(rel, k - 2).fields()], "S"))
        blocks.append(moment_block(
            ("c", 0), lambda ev, P=cpts: ev.values(P), tests, cw, "interior moments"))
        f1_local = int(np.argmin(gids))
        fd1 = cache.face(mesh.cell_faces[ci][f1_local])
        nxx = fd1.rotated_position_tests(k - 2)

        def taun1(ev, P=fd1.pts, N=fd1.frame.n):
            return np.einsum("...pij,j->...pi", ev.values(P), N)

        blocks.append(moment_block(("c", 0), taun1, nxx, fd1.w, "fixed-face normal"))

    elif family == "h1_vec3":
        for le in range(6):
            ed = cache.edge(mesh.cell_edges[ci][le])
            tests = ed.tests(k - 4)
            for c in range(3):
                blocks.append(moment_block(
                    ("e", le), lambda ev, P=ed.pts, C=c: ev.values(P)[..., C],
                    tests, ed.w, f"component {c}"))
        for lf in range(4):
            fd = cache.face(mesh.cell_faces[ci][lf])
            tests = fd.vertex_vanishing_tests(k - 1)
            for c in range(3):
                blocks.append(moment_block(
                    ("f", lf), lambda ev, P=fd.pts, C=c: ev.values(P)[..., C],
                    tests, fd.w, f"component {c}"))
        tb = cell.basis(k - 2)
        tests = tb.eval(q.bary).T
        for c in range(3):
            blocks.append(moment_block(
                ("c", 0), lambda ev, P=cpts, C=c: ev.values(P)[..., C],
                tests, cw, f"component {c}"))

    elif family == "dg_scalar":
        tb = cell.basis(k - 2)
        tests = tb.eval(q.bary).T
        blocks.append(moment_block(
            ("c", 0), lambda ev, P=cpts: ev.values(P), tests, cw, "moments"))
    else:
        raise ValueError(f"unknown 3-D family {family!r}")
    return cell, blocks


def build_element(family: str, k: int, mesh: TetMesh, ci: int,
                  cache: EntityCache) -> Element:
    """The finalized element of cell ci; a translate of it in the same
    translation class has the same Vandermonde, so a space builds one per
    class."""
    if family not in _SHAPE:
        raise ValueError(f"unknown 3-D family {family!r}")
    if k < 3:
        raise ValueError("elements require k >= 3")
    off, rng, _ = _SHAPE[family]
    cell, blocks = _build_blocks(family, k, mesh, ci, cache)
    return Element(family, k, cell, cell.basis(k + off), poly.RANGE_GENERATORS[rng],
                   blocks).finalize()


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


def _rel(lhs, rhs) -> float:
    scale = max(np.abs(lhs).max(initial=0.0), np.abs(rhs).max(initial=0.0), 1.0)
    return float(np.abs(lhs - rhs).max(initial=0.0) / scale)


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
        worst[names[0]] = max(worst[names[0]], _rel(lhs, rhs))

        lhs = tc.rot_f(w, n).eval(pts)
        rhs = np.einsum("pij,i,j->p", curl_tau.eval(pts), n, n)
        worst[names[1]] = max(worst[names[1]], _rel(lhs, rhs))

        lhs = np.einsum("pij,i,j->p", zeta.eval(pts), t2, t2)
        rhs = -np.einsum("pij,i,j->p", tau.eval(pts), t1, t2)
        worst[names[2]] = max(worst[names[2]], _rel(lhs, rhs))

        inner = zeta.map_components(lambda c: np.einsum("...ij,i,j->...", c, t1, t2))
        lhs = (-inner.directional(t2).eval(pts)
               + np.einsum("pi,i->p", tc.rot_f(zeta, n).eval(pts), t2))
        t_tau_t = tau.map_components(lambda c: np.einsum("...ij,i,j->...", c, t2, t2))
        rhs = (-np.einsum("pij,i,j->p", curl_tau.eval(pts), t1, n)
               - t_tau_t.directional(t2).eval(pts))
        worst[names[3]] = max(worst[names[3]], _rel(lhs, rhs))

        xi = tc.field_sym(curl_tau)
        lhs = np.einsum("pij,i,j->p", xi.eval(pts), n, n)
        rhs = tc.rot_f(w, n).eval(pts)
        worst[names[4]] = max(worst[names[4]], _rel(lhs, rhs))

        xin = xi.map_components(lambda c: np.einsum("...ij,j->...i", c, n))
        nxin = xi.map_components(lambda c: np.einsum("...ij,i,j->...", c, n, n))
        lhs = (2.0 * tc.div_f(xin, n).eval(pts)
               + nxin.directional(n).eval(pts))
        rhs = -tc.rot_f(tc.rot_f(zeta, n), n).eval(pts)
        worst[names[5]] = max(worst[names[5]], _rel(lhs, rhs))

        dgv = tc.field_dev(v.grad())
        dgvn = dgv.map_components(lambda c: np.einsum("...ij,i->...j", c, n))
        lhs = tc.proj_f(dgvn, n).eval(pts)
        vn = v.map_components(lambda c: np.tensordot(c, n, axes=(-1, 0)))
        rhs = tc.grad_f(vn, n).eval(pts)
        worst[names[6]] = max(worst[names[6]], _rel(lhs, rhs))

        lhs = tc.proj_f_sym(tc.right_cross(dgv, n), n).eval(pts)
        vxn = tc.left_cross(n, v) * (-1.0)
        rhs = tc.eps_f(vxn, n).eval(pts)
        worst[names[7]] = max(worst[names[7]], _rel(lhs, rhs))

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
        worst[names[9]] = max(worst[names[9]], _rel(lhs, rhs))

    return [{"name": nm, "expected": 0.0, "computed": worst[nm],
             "source": "paper", "pass": worst[nm] <= 1e-10} for nm in names]


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
    checks = []

    bV, bL, bS = bubble_space(eV), bubble_space(eL), bubble_space(eS)
    dimV_expect = 3 * poly.dim_P(3, k - 2)
    dimL_expect = 8 * poly.dim_P(3, k - 3) + 12 * poly.dim_P(2, k - 2)
    img_expect = k * (k - 1) * (5 * k + 14) // 6 + k * (k - 1) // 2
    dimS_expect = img_expect + max(poly.dim_P(3, k - 2) - 4, 0)
    checks.append({"name": "dim B_{k+2,devgrad}", "expected": dimV_expect,
                   "computed": len(bV), "source": "derived",
                   "pass": len(bV) == dimV_expect})
    checks.append({"name": "dim B_{k+1,symcurl}", "expected": dimL_expect,
                   "computed": len(bL), "source": "paper",
                   "pass": len(bL) == dimL_expect})
    checks.append({"name": "dim B_{k,divdiv}", "expected": dimS_expect,
                   "computed": len(bS), "source": "paper",
                   "pass": len(bS) == dimS_expect})

    # closed forms
    cf_dev = poly.to_range_coords(closed_form_devgrad_bubbles(cell, k), "V3")
    ok = _span_contains(bV, cf_dev) and svd_rank(cf_dev) == len(bV)
    checks.append({"name": "B_{k+2,devgrad} = bubble * P_{k-2}(R3)",
                   "expected": True, "computed": bool(ok), "source": "paper", "pass": bool(ok)})
    cf_sc = closed_form_symcurl_bubbles(mesh, k)
    ok = _span_contains(bL, cf_sc) and svd_rank(cf_sc) == len(bL)
    checks.append({"name": "B_{k+1,symcurl} matches closed form",
                   "expected": True, "computed": bool(ok), "source": "paper", "pass": bool(ok)})

    # chain ranks: the images of the bubbles are their coordinates times
    # poly.diff's matrices, and each scale is the norm of that matrix
    D1 = poly.diff("devgrad", poly.space(cell, k + 2, "V3")).mat
    D2 = poly.diff("symcurl", poly.space(cell, k + 1, "T")).mat
    D3 = poly.diff("divdiv", poly.space(cell, k, "S")).mat
    dg_coords = bV @ D1
    r_dg = svd_rank(dg_coords, scale=np.linalg.norm(D1, 2))
    checks.append({"name": "devgrad injective on bubbles", "expected": len(bV),
                   "computed": r_dg, "source": "derived", "pass": r_dg == len(bV)})
    ok = _span_contains(bL, dg_coords)
    checks.append({"name": "devgrad bubbles inside symcurl bubbles",
                   "expected": True, "computed": bool(ok), "source": "paper", "pass": bool(ok)})

    sc_coords = bL @ D2
    r_sc = svd_rank(sc_coords, scale=np.linalg.norm(D2, 2))
    checks.append({"name": "dim symcurl B_{k+1,symcurl}", "expected": img_expect,
                   "computed": r_sc, "source": "paper", "pass": r_sc == img_expect})
    checks.append({"name": "exactness at symcurl bubbles", "expected": r_dg,
                   "computed": len(bL) - r_sc, "source": "derived",
                   "pass": len(bL) - r_sc == r_dg})
    ok = _span_contains(bS, sc_coords)
    checks.append({"name": "symcurl bubbles inside divdiv bubbles",
                   "expected": True, "computed": bool(ok), "source": "paper", "pass": bool(ok)})

    dd_coords = bS @ D3
    r_dd = svd_rank(dd_coords, scale=np.linalg.norm(D3, 2))
    tail_km2 = max(poly.dim_P(3, k - 2) - 4, 0)
    tail_km1 = max(poly.dim_P(3, k - 1) - 4, 0)
    checks.append({"name": "measured rank divdiv on bubbles (tail resolution)",
                   "expected": tail_km2, "computed": r_dd, "source": "derived",
                   "pass": r_dd == tail_km2})
    checks.append({"name": "tail is P_{k-2}/P_1 (not P_{k-1}/P_1)",
                   "expected": f"dim {tail_km2}",
                   "computed": f"dim {r_dd} (P_{{k-1}}/P_1 would be {tail_km1})",
                   "source": "derived", "pass": r_dd == tail_km2 and r_dd != tail_km1})
    checks.append({"name": "exactness at divdiv bubbles", "expected": r_sc,
                   "computed": len(bS) - r_dd, "source": "derived",
                   "pass": len(bS) - r_dd == r_sc})

    # divdiv of divdiv-bubbles is L2-orthogonal to P_1; the scalar range
    # coordinates are the Bernstein coefficients of degree k - 2
    p1 = poly.space(cell, 1, "scalar").fields().raise_to(k - 2)
    mom = dd_coords @ cell.basis(k - 2).gram() @ p1.coeffs.T
    ok = np.abs(mom).max() <= 1e-10 * max(np.abs(bS).max(), 1.0)
    checks.append({"name": "divdiv bubbles orthogonal to P_1",
                   "expected": True, "computed": bool(ok), "source": "paper",
                   "pass": bool(ok)})

    # composition on bubbles
    resid = np.abs(dg_coords @ D2).max() / max(np.abs(bV).max(), 1.0)
    checks.append({"name": "symcurl o devgrad bubbles = 0", "expected": 0.0,
                   "computed": float(resid), "source": "trivial",
                   "pass": resid <= 1e-11})
    return checks


def frame_rotation_span_check(k: int, seed: int = 0) -> bool:
    """(7c)-type edge functionals span the same space for any admissible frame."""
    rng = np.random.default_rng(seed)
    mesh = TetMesh(poly.reference_cell("tet").vertices, [[0, 1, 2, 3]])
    cache = EntityCache(mesh, k)
    ed = cache.edge(0)
    elem = build_element("hsymcurl_T", k, mesh, 0, cache)
    gen = GeneratorEval(elem.basis, elem.comp_gens)

    def rows_for(frame):
        return functional_matrix(_edge_blocks_symcurl(("e", 0), ed, k, frame), gen).T

    c, s = np.cos(0.7), np.sin(0.7)
    fr = ed.frame
    rot = tc.EdgeFrame(t=fr.t, n1=c * fr.n1 + s * fr.n2, n2=-s * fr.n1 + c * fr.n2)
    A, B = rows_for(fr), rows_for(rot)
    # compare only the symcurl/curl-combination subset (the (7b) rows rotate
    # within their own span as well, so the full block is equally fine)
    rk = svd_rank
    return (rk(A) == rk(B) == rk(np.vstack([A, B])))
