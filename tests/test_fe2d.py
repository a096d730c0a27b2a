import numpy as np
import pytest

from divdivfem import fe2d, poly
from divdivfem import tensor_calc as tc
from divdivfem.cli import random_cells
from divdivfem.fields import PolyField
from divdivfem.quadrature import rule

K3_COUNTS = {
    "h1_scalar": 21,
    "hrot_vec": 30,
    "l2_lagrange": 10,
    "h1_vec": 42,
    "hrotrot_s2": 45,
}


@pytest.mark.parametrize("family", sorted(K3_COUNTS))
def test_dof_counts_k3(family):
    e = fe2d.element_2d(family, 3)
    assert e.ndof == K3_COUNTS[family]


@pytest.mark.parametrize("family", sorted(K3_COUNTS))
@pytest.mark.parametrize("k", [3, 4])
def test_unisolvence_reference_and_random(family, k):
    cells = [None] + random_cells(2, 5, seed=11)
    for cell in cells:
        e = fe2d.element_2d(family, k, cell)
        assert e.sv_ratio() > 1e-9


def test_rejects_small_k():
    with pytest.raises(ValueError):
        fe2d.element_2d("h1_scalar", 2)
    with pytest.raises(ValueError):
        fe2d.element_2d("unknown", 3)


def test_h1_scalar_dofs_of_constant():
    e = fe2d.element_2d("h1_scalar", 3)
    one = PolyField(e.simplex.basis(0), np.ones(1), ())
    vals = fe2d.dof_eval(e, one)
    for v in range(3):
        base = 6 * v
        assert abs(vals[base] - 1.0) <= 1e-13          # value
        assert np.abs(vals[base + 1: base + 6]).max() <= 1e-13  # derivatives
    # interior moments equal integrals of the test functions
    tri = e.simplex
    q = rule("triangle", 12)
    pts, w = q.on(tri)
    basis = tri.basis(2)
    keep = [i for i in range(basis.N) if i not in set(basis.corner_indices())]
    tests = basis.eval(tri.barycentric(pts))[:, keep]
    expected = tests.T @ w
    assert np.abs(vals[18:] - expected).max() <= 1e-13


def test_gradient_bubble_dofs_vanish(rng):
    """(2a)-(2c) vanish for grad of (cubic bubble x vertex-vanishing factor)."""
    k = 3
    e = fe2d.element_2d("hrot_vec", k)
    p0 = poly.vertex_vanishing(e.simplex, k - 1)
    bub = PolyField(p0.fields().basis, p0.fields().coeffs, ()).times_bubble()
    # batch of gradients: all boundary DOFs vanish
    grads = PolyField(bub.basis, bub.coeffs, ()).grad()
    vals = e.dof_values(grads)
    boundary = [i for i, tag in enumerate(e.tags) if tag[0] != "c"]
    assert np.abs(vals[:, boundary]).max() <= 1e-12
    # for the plain cubic bubble only the value and edge parts vanish (the
    # vertex Hessian of the bubble survives)
    plain = PolyField(e.simplex.basis(0), np.ones(1), ()).times_bubble().grad()
    vplain = e.dof_values(plain)
    value_rows = [i for i, tag in enumerate(e.tags)
                  if tag[0] == "v" and tag[2] < 2]
    edge_rows = [i for i, tag in enumerate(e.tags) if tag[0] == "e"]
    assert np.abs(vplain[value_rows]).max() <= 1e-13
    assert np.abs(vplain[edge_rows]).max() <= 1e-13


def test_dof_eval_input_validation():
    e = fe2d.element_2d("h1_scalar", 3)
    high = PolyField(e.simplex.basis(7), np.zeros(e.simplex.basis(7).N), ())
    with pytest.raises(ValueError, match="degree"):
        fe2d.dof_eval(e, high)
    vec = PolyField(e.simplex.basis(2), np.zeros((6, 2)), (2,))
    with pytest.raises(ValueError, match="range"):
        fe2d.dof_eval(e, vec)


def test_derivative_edge_dof_matches_exact_integral(rng):
    """(5c)-style moments: quadrature route vs exact coefficient-level route."""
    k = 3
    e = fe2d.element_2d("hrotrot_s2", k)
    tri = e.simplex
    tau = tc.field_sym(PolyField(tri.basis(k + 1),
                                 rng.standard_normal((tri.basis(k + 1).N, 2, 2)), (2, 2)))
    vals = fe2d.dof_eval(e, tau)
    for ei, edge in enumerate(fe2d.LOCAL_EDGES_2D):
        t, n = fe2d._edge_frame_2d(tri, edge)
        # exact route: restrict the integrand polynomial to the edge and use
        # the closed-form Bernstein integrals
        ntt = tau.map_components(lambda c: np.einsum("...ij,i,j->...", c, n, t))
        dt_ntt = ntt.directional(t)
        rot = tc.rot2(tau)
        trt = rot.map_components(lambda c: np.einsum("...i,i->...", c, t))
        integrand = (dt_ntt * -1.0) + trt
        seg_field = integrand.restrict(edge)
        qb = seg_field.basis.simplex.basis(k - 2)
        # exact product integration via the Gram between the two Bernstein bases
        G = seg_field.basis.gram(qb)
        exact = seg_field.coeffs @ G
        rows = [i for i, tag in enumerate(e.tags)
                if tag[0] == "e" and tag[1] == ei and tag[2] >= k - 2]
        assert len(rows) == k - 1
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(vals[rows] - exact).max() <= 1e-11 * scale


def test_interior_blocks_full_rank():
    for family in ("hrot_vec", "hrotrot_s2"):
        e = fe2d.element_2d(family, 3)
        rows = [i for i, tag in enumerate(e.tags) if tag[0] == "c"]
        block = e.V[rows]
        from divdivfem.linalg import svd_rank
        assert svd_rank(block) == len(rows)


def test_interior_test_space_dims():
    tri = poly.reference_cell("triangle")
    for k in (3, 4):
        assert fe2d.interior_test_space_hrot(tri, k).dim == k * k - k - 3
        assert fe2d.interior_test_space_hrotrot(tri, k).dim == 3 * k * (k + 1) // 2 - 9


@pytest.mark.parametrize("k", [3, 4])
def test_bubble_audit(k):
    for r in fe2d.bubble_audit_2d(k):
        assert r["pass"], r


def test_eps_f_of_rigid_motions_excluded_from_bubbles():
    tri = poly.reference_cell("triangle")
    rm = poly.rigid_motions_2d(tri)
    eps = tc.eps2(rm.fields())
    assert np.abs(eps.coeffs).max() <= 1e-14
    # rigid motions do not vanish at the vertices, so they are not bubbles
    e4 = fe2d.element_2d("h1_vec", 3, tri)
    vals = e4.dof_values(rm.fields().raise_to(5))
    assert np.abs(vals).max() > 1e-3


@pytest.mark.parametrize("family", sorted(K3_COUNTS))
def test_dof_values_of_generators_equal_vandermonde(family):
    """Unit-generator path (dof_values) against element-generator path (V)."""
    cell = random_cells(2, 1, seed=17)[0]
    e = fe2d.element_2d(family, 3, cell)
    vals = e.dof_values(e.generator_fields())
    assert np.abs(vals - e.V.T).max() <= 1e-12 * np.abs(e.V).max()
