import numpy as np
import pytest

from divdivfem import fe2d, fe3d, mesh, poly
from divdivfem import tensor_calc as tc
from divdivfem.cli import random_cells
from divdivfem.complex_asm import GlobalSpace
from divdivfem.dofcommon import DofGroup, GeneratorEval, Part
from divdivfem.fields import PolyField, Simplex
from divdivfem.linalg import svd_rank
from divdivfem.mesh import two_tets
from divdivfem.quadrature import rule

from frames import make_face_frame


def field_from_dofs(elem, dofvals) -> PolyField:
    """The shape function of elem with prescribed DOF values, as a PolyField."""
    return PolyField.from_coords(elem.basis, np.asarray(dofvals) @ elem.Vinv.T,
                                 elem.comp_gens)


K3 = {"hsymcurl_T": 280, "hdivdiv_S": 120, "h1_vec3": 168, "dg_scalar": 4}

K3_TALLIES = {
    "hsymcurl_T": {"vertex": 128, "edge": 60, "face": 48, "interior": 44},
    "hdivdiv_S": {"vertex": 24, "edge": 36, "face": 28, "interior": 32},
    "h1_vec3": {"vertex": 120, "edge": 0, "face": 36, "interior": 12},
}


@pytest.mark.parametrize("family", sorted(K3))
def test_dof_counts_k3(family):
    e = fe3d.element_3d(family, 3)
    assert e.ndof == K3[family]
    if family in K3_TALLIES:
        assert fe3d.dof_counts(e) == K3_TALLIES[family]


@pytest.mark.parametrize("family", ["hsymcurl_T", "hdivdiv_S", "h1_vec3"])
@pytest.mark.parametrize("k", [3, 4])
def test_unisolvence_reference_and_random(family, k):
    cells = [None] + random_cells(3, 5, seed=5)
    for cell in cells:
        e = fe3d.element_3d(family, k, cell)
        assert e.sv_ratio() > 1e-9


def test_rejects_small_k():
    with pytest.raises(ValueError):
        fe3d.element_3d("hsymcurl_T", 2)
    with pytest.raises(ValueError):
        fe3d.element_3d("bogus", 3)


def test_trace_identity_audit_50_trials():
    rows = fe3d.trace_identity_audit(3, trials=50, seed=0)
    for r in rows:
        assert r["pass"], r
    with pytest.raises(ValueError):
        fe3d.trace_identity_audit(3, trials=0)


@pytest.mark.parametrize("k", [3, 4])
def test_bubble_audit_3d(k):
    for r in fe3d.bubble_audit_3d(k):
        assert r["pass"], r


def test_bubble_tail_row_fails_on_wrong_divdiv_rank(monkeypatch):
    """At k = 3 the tail P_{k-2}/P_1 is 0-dimensional: a divdiv rank of
    dim P_{k-1}/P_1 = 6 on the bubbles must fail the tail row."""
    cell = poly.reference_cell("tet")
    scale_dd = np.linalg.norm(poly.diff("divdiv", poly.space(cell, 3, "S")).mat, 2)
    real = fe3d.svd_rank

    def rank(A, **kw):
        return 6 if kw.get("scale") == scale_dd else real(A, **kw)

    monkeypatch.setattr(fe3d, "svd_rank", rank)
    rows = {r["name"]: r for r in fe3d.bubble_audit_3d(3)}
    assert not rows["tail is P_{k-2}/P_1 (not P_{k-1}/P_1)"]["pass"]


def test_frame_rotation_span_invariance():
    assert fe3d.frame_rotation_span_check(3, seed=0)


def test_conformity_jump_across_shared_face(rng):
    """Matching all (7a)-(7e) DOFs on the shared face forces continuity of
    n x tau + (n x tau)^T across it."""
    k = 3
    mesh = two_tets()
    space = GlobalSpace(mesh, "hsymcurl_T", k)
    g = rng.standard_normal(space.dim)
    shared_fid = [fi for fi, cs in enumerate(mesh.face_cells) if len(cs) == 2][0]
    n = mesh.face_frames[shared_fid].n
    # each cell of two_tets is its own translation class
    tau0, tau1 = (field_from_dofs(space.elements[space.cell_class[c]], g[space.cell_maps[c]])
                  for c in (0, 1))
    # sample points strictly inside the shared face
    lam = rng.random((20, 3))
    lam = 0.1 + 0.8 * lam / lam.sum(axis=1, keepdims=True)
    lam /= lam.sum(axis=1, keepdims=True)
    pts = lam @ mesh.vertices[mesh.faces[shared_fid]]

    def trace(tau):
        vals = tau.eval(pts)
        nx = np.einsum("pij,jk->pik", vals, tc.mspn(n).T)  # n x tau row-wise
        return nx + np.swapaxes(nx, -1, -2)

    jump = trace(tau0) - trace(tau1)
    scale = max(np.abs(tau0.eval(pts)).max(), 1.0)
    assert np.abs(jump).max() <= 1e-9 * scale


def test_hdivdiv_bubbles_kill_trace_machinery(rng):
    """Vanishing (8a)-(8d) forces divdiv orthogonal to P_1 and both
    normal-trace quantities to vanish on all faces."""
    k = 3
    e = fe3d.element_3d("hdivdiv_S", k)
    B = fe3d.bubble_space(e)
    assert len(B) == 32
    f = PolyField.from_coords(e.basis, B, e.comp_gens)
    # trace machinery on each face at sample points
    from divdivfem.mesh import TetMesh
    mesh = TetMesh(e.simplex.vertices, [[0, 1, 2, 3]])
    scale = max(np.abs(f.eval(e.simplex.vertices.mean(0)[None])).max(), 1.0)
    for fid in range(4):
        fr = mesh.face_frames[fid]
        lam = rng.random((10, 3))
        lam /= lam.sum(axis=1, keepdims=True)
        pts = lam @ mesh.vertices[mesh.faces[fid]]
        nn = np.einsum("bpij,i,j->bp", f.eval(pts), fr.n, fr.n)
        assert np.abs(nn).max() <= 1e-8 * scale
        # the (8d) integrand
        g = f.grad().eval(pts)
        gradw = np.einsum("bpijd,j->bpid", g, fr.n)
        divw = np.einsum("bpii->bp", gradw)
        nGn = np.einsum("bpid,i,d->bp", gradw, fr.n, fr.n)
        dn_nn = np.einsum("bpijd,i,j,d->bp", g, fr.n, fr.n, fr.n)
        combo = 2.0 * (divw - nGn) + dn_nn
        assert np.abs(combo).max() <= 1e-8 * scale
    # divdiv orthogonal to P_1
    dd = f.div().div()
    p1 = poly.space(e.simplex, 1, "scalar").fields()
    G = dd.basis.gram(p1.basis)
    mom = dd.coeffs @ G @ p1.coeffs.T
    assert np.abs(mom).max() <= 1e-10 * scale


def test_distinguished_face_is_opposite_lowest_global_vertex():
    # permute global ids on a one-cell mesh via two_tets: cell 1 has ids (1,2,3,4)
    mesh = two_tets()
    space = GlobalSpace(mesh, "hsymcurl_T", 3)
    # rebuilding with the same mesh is deterministic
    space2 = GlobalSpace(mesh, "hsymcurl_T", 3)
    assert all(np.array_equal(a, b) for a, b in zip(space.cell_maps, space2.cell_maps))


def test_dof_eval_on_polynomial_field(rng):
    e = fe3d.element_3d("hdivdiv_S", 3)
    sp = poly.space(e.simplex, 2, "S")
    coords = rng.standard_normal(sp.dim)
    f = sp.fields()
    fld = PolyField(f.basis, np.einsum("m,mn...->n...", coords, f.coeffs), f.vshape)
    vals = e.dof_values(fld.raise_to(3))
    # reconstructing from DOFs reproduces the field
    back = field_from_dofs(e, vals)
    pts = rng.random((6, 3)) * 0.3
    assert np.abs(back.eval(pts) - fld.eval(pts)).max() <= 1e-9 * max(
        np.abs(fld.eval(pts)).max(), 1.0)


def test_closed_form_symcurl_bubble_members_are_bubbles():
    k = 3
    from divdivfem.mesh import TetMesh
    mesh = TetMesh(poly.reference_cell("tet").vertices, [[0, 1, 2, 3]])
    cache = fe3d.EntityCache(mesh, k)
    e = fe3d.build_element("hsymcurl_T", k, mesh, 0, cache)
    rows = fe3d.closed_form_symcurl_bubbles(mesh, k)
    assert svd_rank(rows) == 44
    f = PolyField.from_coords(e.basis, rows, e.comp_gens)
    vals = e.dof_values(f)
    boundary = [i for i, tag in enumerate(e.tags) if tag[0] != "c"]
    scale = max(np.abs(rows).max(), 1.0)
    assert np.abs(vals[:, boundary]).max() <= 1e-10 * scale


@pytest.mark.parametrize("family", fe3d.FAMILIES)
def test_dof_values_of_generators_equal_vandermonde(family):
    """Unit-generator path (dof_values) against element-generator path (V)."""
    cell = random_cells(3, 1, seed=23)[0]
    e = fe3d.element_3d(family, 3, cell)
    vals = e.dof_values(PolyField.generators(e.basis, e.comp_gens))
    assert np.abs(vals - e.V.T).max() <= 1e-12 * np.abs(e.V).max()


def _scalar_moment_setup():
    cell = random_cells(3, 1, seed=29)[0]
    basis = cell.basis(3)
    q = rule("tet", 8)
    pts, w = q.on(cell)
    tests = cell.basis(1).eval(q.bary).T
    return GeneratorEval(basis, np.ones(1)), pts, w, tests


def test_moments_match_expanded_quadrature():
    """Factorised moments equal quadrature of the generator fields' values."""
    cell = random_cells(3, 1, seed=31)[0]
    basis, gens = cell.basis(4), poly.RANGE_GENERATORS["T"]
    gen = GeneratorEval(basis, gens)
    fields = PolyField.generators(basis, gens)
    q = rule("tet", 10)
    pts, w = q.on(cell)
    tests = np.random.default_rng(3).standard_normal((7, len(w), 3, 3))
    n = np.array([0.3, -0.5, 0.8])
    cases = [
        (0, lambda X: X[None], fields.eval(pts), tests),
        (1, lambda X: fe3d._symcurl_vals(X)[None], tc.field_sym(fields.curl()).eval(pts),
         tests),
        (0, lambda X: np.einsum("...ij,j->...i", X, n)[None],
         np.einsum("...pij,j->...pi", fields.eval(pts), n), tests[..., 0]),
        (2, lambda X: np.einsum("...ijdd->...ij", X)[None],
         np.einsum("...pijdd->...pij", fields.hess().eval(pts)), tests),
    ]
    for order, integrand, vals, t in cases:
        tw = t * w.reshape(1, -1, *([1] * (t.ndim - 2)))
        ref = np.tensordot(vals, tw, axes=(list(range(1, t.ndim)),) * 2)
        group = DofGroup("c", order, [(pts[None], w[None])], [Part(integrand, t[None])])
        got = gen.moments(group)[0]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_moment_probe_rejects_two_point_sets():
    """A part reads its tests at one point set of its group, and its
    integrand keeps the probe's derivative axis of the group's order."""
    gen, pts, w, tests = _scalar_moment_setup()
    both = [(pts[None], w[None]), (pts[None, :5], w[None, :5])]
    with pytest.raises(ValueError, match="one point set"):
        gen.moments(DofGroup("c", 0, both, [Part(lambda X: X[None], tests[None], at=1)]))
    with pytest.raises(ValueError, match="one derivative order"):
        gen.moments(DofGroup("c", 1, both, [Part(lambda X: X[None, :, :1], tests[None])]))


def test_moment_probe_rejects_position_dependent_coefficients():
    gen, pts, w, tests = _scalar_moment_setup()
    part = Part(lambda X: X[None] * pts[:, 0], tests[None])
    with pytest.raises(ValueError, match="position"):
        gen.moments(DofGroup("c", 0, [(pts[None], w[None])], [part]))


def _tabulation(basis, pts, order):
    """Scalar tabulation (p, N, g ** order) at one entity's points alone."""
    lam = basis.simplex.barycentric(pts)
    lo = basis.simplex.basis(max(basis.degree - 1, 0))
    if order == 0:
        return basis.eval(lam)[..., None]
    if order == 1:
        E = lo.eval(lam)
        return np.stack([E @ D for D in basis.diff_ops], axis=-1)
    E = basis.simplex.basis(max(basis.degree - 2, 0)).eval(lam)
    g = basis.simplex.gdim
    return np.stack([E @ (lo.diff_ops[b] @ basis.diff_ops[a])
                     for a in range(g) for b in range(g)], axis=-1)


def per_block_vandermonde(elem) -> np.ndarray:
    """The per-block contraction, kept as the oracle of the grouped one: each
    part on each entity alone, its integrand on the probe G_c (x) e_d, then
    U = F . tw by one tensordot over the value axes and T . U by one over
    (point, direction), T tabulated at that entity's points alone."""
    basis, gens = elem.basis, np.asarray(elem.comp_gens, dtype=float)
    g, C, nv = basis.simplex.gdim, len(gens), gens.ndim - 1
    cols: dict = {}                 # (kind, entity) -> its columns, group by group
    for group in elem.groups:
        o = group.order
        e_d = np.eye(g ** o).reshape(1, g ** o, *([1] * nv), *([g] * o))
        probe = gens.reshape(C, 1, *gens.shape[1:], *([1] * o)) * e_d
        for part in group.parts:
            F = part.integrand(probe)
            pts, w = group.points[part.at]
            for e in range(group.nent):
                tests = part.tests[min(e, len(part.tests) - 1)]
                tw = tests * w[e].reshape(1, -1, *([1] * (tests.ndim - 2)))
                ax = list(range(2, tw.ndim))
                U = np.tensordot(F[min(e, len(F) - 1)], tw, axes=(ax, ax))   # (C, D, m, p)
                T = _tabulation(basis, pts[e], o)                            # (p, N, D)
                out = np.tensordot(T, U, axes=([0, 2], [3, 1]))              # (N, C, m)
                cols.setdefault((group.kind, e), []).append(out.reshape(basis.N * C, -1))
    return np.concatenate([c for key in cols for c in cols[key]], axis=1).T


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(2)"])
def test_grouped_vandermonde_matches_per_block_contraction(spec, k):
    """Every 3-D family's Vandermonde, on every translation class, equals
    the per-block contraction to 1e-13 relative."""
    m = mesh.load(spec)
    cache = fe3d.EntityCache(m, k)
    for family in fe3d.FAMILIES:
        for ci in cache.class_reps:
            e = fe3d.build_element(family, k, m, ci, cache)
            ref = per_block_vandermonde(e)
            assert np.abs(e.V - ref).max() <= 1e-13 * np.abs(ref).max(), (family, ci)


@pytest.mark.parametrize("family", fe2d.FAMILIES)
def test_grouped_vandermonde_matches_per_block_contraction_2d(family):
    e = fe2d.element_2d(family, 3, random_cells(2, 1, seed=41)[0])
    ref = per_block_vandermonde(e)
    assert np.abs(e.V - ref).max() <= 1e-13 * np.abs(ref).max()


def test_in_plane_face_tests_equal_the_per_face_build():
    """The face tests of H(symcurl), shared by in-plane triangle, are bitwise
    the ones built from each face's own vertices and frame; kuhn_cube(2)'s
    faces have 12 shapes but 3 in-plane triangles."""
    m = mesh.load("kuhn_cube(2)")
    cache = fe3d.EntityCache(m, 3)
    q = rule("triangle", cache.qdeg)
    shapes, planes = set(), set()
    for ci in cache.class_reps:
        elem = fe3d.build_element("hsymcurl_T", 3, m, ci, cache)
        (faces,) = [group for group in elem.groups if group.kind == "f"]
        for lf, fid in enumerate(m.cell_faces[ci]):
            verts = m.vertices[m.faces[fid]]
            fr = make_face_frame(m.faces[fid], verts)
            TT = np.stack([fr.t1, fr.t2])
            tri2 = (verts - verts[0]) @ TT.T
            pts2 = q.bary @ tri2
            v2 = fe2d.interior_test_space_hrot(Simplex(tri2), 3).fields().eval(pts2)
            s2 = fe2d.interior_test_space_hrotrot(Simplex(tri2), 3).fields().eval(pts2)
            assert np.array_equal(faces.parts[0].tests[lf], v2 @ TT)
            assert np.array_equal(faces.parts[1].tests[lf], TT.T @ s2 @ TT)
            shapes.add(fe3d.shape_key(verts))
            planes.add(tri2.tobytes())
    assert (len(shapes), len(planes)) == (12, 3)


@pytest.mark.parametrize("family, rng_name, order", [
    ("h1_vec3", "V3", 2), ("hsymcurl_T", "T", 1), ("h1_scalar", "scalar", 2),
    ("hrotrot_s2", "S2", 1),
])
def test_vertex_dofs_are_range_coordinates_of_point_derivatives(family, rng_name,
                                                                 order, rng):
    """The DOFs of each vertex are the range_dual coordinates of the value,
    then of every partial derivative d_a, then of every d_a d_b with a <= b,
    each component-major."""
    is2d = family in fe2d.FAMILIES
    cell = random_cells(2 if is2d else 3, 1, seed=37)[0]
    e = fe2d.element_2d(family, 3, cell) if is2d else fe3d.element_3d(family, 3, cell)
    f = PolyField.from_coords(e.basis, rng.standard_normal(e.basis.N * len(e.comp_gens)),
                              e.comp_gens)
    dofs = e.dof_values(f)
    dual = poly.range_dual(rng_name)
    g = cell.gdim
    dirs = [[()], [(a,) for a in range(g)],
            [(a, b) for a in range(g) for b in range(a, g)]]
    for v, x in enumerate(cell.vertices):
        want = []
        for o, deriv in enumerate([f, f.grad(), f.hess()][: order + 1]):
            vals = deriv.eval(x[None])[0]                      # (*vshape, [g]*o)
            cols = [vals[(..., *a)].reshape(-1) @ dual for a in dirs[o]]
            want.append(np.stack(cols, axis=-1).ravel())
        want = np.concatenate(want)
        got = dofs[[i for i, tag in enumerate(e.tags) if tag[:2] == ("v", v)]]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
