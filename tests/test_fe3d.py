import numpy as np
import pytest

from divdivfem import fe3d, poly
from divdivfem import tensor_calc as tc
from divdivfem.cli import random_cells
from divdivfem.complex_asm import GlobalSpace
from divdivfem.dofcommon import GeneratorEval, moment_block
from divdivfem.fields import PolyField
from divdivfem.linalg import svd_rank
from divdivfem.mesh import two_tets
from divdivfem.quadrature import rule

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
    tau0 = space.elements[0].field_from_dofs(g[space.cell_maps[0]])
    tau1 = space.elements[1].field_from_dofs(g[space.cell_maps[1]])
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
    back = e.field_from_dofs(vals)
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
    vals = e.dof_values(e.generator_fields())
    assert np.abs(vals - e.V.T).max() <= 1e-12 * np.abs(e.V).max()


def _scalar_moment_setup():
    cell = random_cells(3, 1, seed=29)[0]
    basis = cell.basis(3)
    q = rule("tet", 8)
    pts, w = q.on(cell)
    tests = cell.basis(1).eval(q.bary).T
    return GeneratorEval(basis, np.ones(1)), pts, tests * w


def test_moments_match_expanded_quadrature():
    """Factorised moments equal integrands of the expanded generator values."""
    cell = random_cells(3, 1, seed=31)[0]
    gen = GeneratorEval(cell.basis(4), poly.RANGE_GENERATORS["T"])
    q = rule("tet", 10)
    pts, w = q.on(cell)
    tw = np.random.default_rng(3).standard_normal((7, len(w), 3, 3)) * w[:, None, None]
    n = np.array([0.3, -0.5, 0.8])
    cases = [
        (lambda ev: ev.values(pts), tw),
        (lambda ev: fe3d._symcurl_vals(ev, pts), tw),
        (lambda ev: np.einsum("...pij,j->...pi", ev.values(pts), n), tw[..., 0]),
        (lambda ev: np.einsum("...pijdd->...pij", ev.hessians(pts)), tw),
    ]
    for integrand, t in cases:
        ref = np.tensordot(integrand(gen), t, axes=(list(range(1, t.ndim)),) * 2)
        got = gen.moments(integrand, t)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_moment_probe_rejects_two_point_sets():
    gen, pts, tw = _scalar_moment_setup()
    other = pts.copy()
    with pytest.raises(ValueError, match="one point set"):
        gen.moments(lambda ev: ev.values(pts) + ev.values(other), tw)
    with pytest.raises(ValueError, match="one derivative order"):
        gen.moments(lambda ev: ev.values(pts) + ev.grads(pts)[..., 0], tw)


def test_moment_probe_rejects_position_dependent_coefficients():
    gen, pts, tw = _scalar_moment_setup()
    blk = moment_block(("c", 0), lambda ev: ev.values(pts) * pts[:, 0], tw, np.ones(len(pts)))
    with pytest.raises(ValueError, match="position"):
        blk.fn(gen)


def test_moment_blocks_never_expand_generators(monkeypatch):
    """Only the point blocks tabulate the full generator batch: 4 vertices x
    (value, gradient) for hsymcurl_T."""
    calls = []
    expand = GeneratorEval._expand

    def counting(self, tab, extra):
        calls.append(extra)
        return expand(self, tab, extra)

    monkeypatch.setattr(GeneratorEval, "_expand", counting)
    fe3d.element_3d("hsymcurl_T", 3)
    assert sorted(calls) == [0] * 4 + [1] * 4
