import json

import numpy as np
import pytest

from divdivfem import exact, poly
from divdivfem import tensor_calc as tc
from divdivfem.fields import PolyField, Simplex
from divdivfem.linalg import rank_exact, svd_rank

from calculus2d import eps2, rot2


def test_space_dimensions():
    assert poly.space("tet", 4, "T").dim == 280
    assert poly.space("tet", 5, "V3").dim == 168
    assert poly.space("triangle", 0, "scalar").dim == 1
    assert poly.space("tet", 3, "S").dim == 120


def test_space_rejects_bad_range():
    with pytest.raises(ValueError):
        poly.space("triangle", 2, "T")
    with pytest.raises(ValueError):
        poly.space("tet", 2, "S2")
    with pytest.raises(ValueError):
        poly.space("tet", 2, "nope")


def test_diff_examples():
    V5 = poly.space("tet", 5, "V3")
    d = poly.diff("devgrad", V5)
    rt = poly.embed_coords(poly.rt_space("tet"), V5)
    assert np.abs(rt @ d.mat).max() <= 1e-12
    assert poly.diff("divdiv", poly.space("tet", 3, "S")).rank == 4
    assert poly.diff("symcurl", poly.space("tet", 4, "T")).rank == 116


def test_diff_rejects_inapplicable():
    with pytest.raises(ValueError):
        poly.diff("divdiv", poly.space("tet", 3, "V3"))
    with pytest.raises(ValueError):
        poly.diff("rot_f", poly.space("tet", 3, "V3"))


# the tests' independent oracle: each operator composed from the PolyField
# calculus, op -> (source range, composition)
ORACLE = {
    "devgrad": ("V3", lambda f: tc.field_dev(f.grad())),
    "symcurl": ("T", lambda f: tc.field_sym(f.curl())),
    "divdiv": ("S", lambda f: f.div().div()),
    "grad_f": ("scalar", lambda f: f.grad()),
    "rot_f": ("V2", rot2),
    "eps_f": ("V2", eps2),
    "rotrot_f": ("S2", lambda f: rot2(rot2(f))),
}


def _oracle_matrix(op, src):
    return poly.to_range_coords(ORACLE[op][1](src.fields()), poly.OPS[op].target)


def test_diff_matrix_reproduces_pointwise_derivative(rng):
    """Every operator of the table, on the reference cell and a random affine
    cell at degrees 3 to 5, against the PolyField composition: the matrices
    and the images of a random member at random points."""
    assert set(ORACLE) == set(poly.OPS)
    for op, (src_rng, compose) in ORACLE.items():
        g = poly.OPS[op].gdim
        ref = poly.reference_cell("tet" if g == 3 else "triangle")
        for cell in (ref, Simplex(ref.vertices @ (np.eye(g) + 0.4 * rng.standard_normal((g, g)))
                                  + rng.standard_normal(g))):
            for k in (3, 4, 5):
                src = poly.space(cell, k, src_rng)
                d = poly.diff(op, src)
                oracle = _oracle_matrix(op, src)
                assert np.abs(d.mat - oracle).max() <= 1e-13 * np.abs(oracle).max(), (op, k)
                coords = rng.standard_normal(src.dim)
                f, t = src.fields(), d.dst.fields()
                fld = PolyField(f.basis, np.einsum("m,mn...->n...", coords, f.coeffs), f.vshape)
                img = PolyField(t.basis, np.einsum("m,mn...->n...", coords @ d.mat, t.coeffs),
                                t.vshape)
                pts = cell.vertices.mean(axis=0) + 0.3 * rng.standard_normal((10, g))
                direct = compose(fld).eval(pts)
                assert np.abs(img.eval(pts) - direct).max() <= 1e-13 * np.abs(direct).max(), \
                    (op, k)


# -- constrained subspaces ----------------------------------------------------

def test_vertex_vanishing_dims_and_property(rng):
    sub = poly.constrained_subspace("vertex_vanishing", "triangle", 3)
    assert sub.dim == 3
    tri = sub.cell
    vals = sub.fields().eval(tri.vertices)
    assert np.abs(vals).max() <= 1e-12


def test_sym_position_cross_dims():
    assert poly.constrained_subspace("sym_position_cross", "tet", 3).dim == 29
    for k in (3, 4, 5):
        sub = poly.sym_position_cross_image(poly.reference_cell("tet"), k - 2)
        assert sub.dim == k * (k - 1) * (5 * k + 14) // 6


def test_dev_outer_position_bijection():
    sub = poly.constrained_subspace("dev_outer_position", "tet", 3)
    assert sub.dim == 12
    ddiv = sub.fields().div()
    assert svd_rank(poly.to_range_coords(ddiv, "V3")) == 12


def test_div_position_and_sym_div_dims():
    for k in (3, 4, 5):
        a = poly.div_position_vanishing(poly.reference_cell("triangle"), k - 1)
        b = poly.vertex_vanishing(poly.reference_cell("triangle"), k - 1)
        assert a.dim == b.dim == poly.dim_P(2, k - 1) - 3
        c = poly.sym_div_position_vanishing(poly.reference_cell("triangle"), k - 1)
        assert c.dim == 2 * b.dim


def test_div_position_members_satisfy_constraint(rng):
    tri = poly.reference_cell("triangle")
    sub = poly.div_position_vanishing(tri, 3)
    f = sub.fields()
    qx = PolyField(f.basis.simplex.basis(f.degree + 1),
                   np.stack([f.times_coord(j).coeffs for j in range(2)], axis=-1), (2,))
    img = qx.div()
    vals = img.eval(tri.vertices)
    assert np.abs(vals).max() <= 1e-11
    # and at 20 random points the members are genuine polynomials of the space
    pts = rng.random((20, 2)) * 0.4
    assert np.isfinite(f.eval(pts)).all()


def test_sym_div_position_members_satisfy_constraint():
    tri = poly.reference_cell("triangle")
    sub = poly.sym_div_position_vanishing(tri, 3)
    img = tc.field_sym(tc.outer_with_position(sub.fields())).div()
    assert np.abs(img.eval(tri.vertices)).max() <= 1e-11


def test_curl_images_mod_kernel():
    tri = poly.reference_cell("triangle")
    assert poly.surface_curl_image(tri, 0).dim == 0
    assert poly.surface_curl_image(tri, 2).dim == poly.dim_P(2, 2) - 1
    assert poly.surface_curlcurl_image(tri, 2).dim == poly.dim_P(2, 2) - 3
    with pytest.raises(ValueError):
        poly.constrained_subspace("surface_curl", "triangle", 2)


def test_counting_identities_exact_integers():
    for k in (3, 4, 5):
        assert (18 + 3 * (k - 2) + 3 * (k - 1) + k * k - k - 3
                == (k + 2) * (k + 3))
        assert (27 + 3 * (k - 2) + 3 * (k - 1) + 3 * k * (k + 1) // 2 - 9
                == 3 * (k + 2) * (k + 3) // 2)
        assert (128 + 12 * (k - 2) + 24 * (k - 1) + 4 * (k * k - k - 3)
                + 4 * (3 * k * (k + 1) // 2 - 9) + k * (k - 1) * (5 * k + 14) // 6
                + k * (k - 1) // 2 + (k - 1) * k * (k + 1) // 2
                == 4 * (k + 2) * (k + 3) * (k + 4) // 3)
        assert (120 + 18 * (k - 3) + 6 * (k * k + k - 6)
                + (k - 1) * k * (k + 1) // 2
                == (k + 3) * (k + 4) * (k + 5) // 2)


# -- audits ---------------------------------------------------------------------

@pytest.mark.parametrize("dim,k", [(3, 3), (2, 3), (3, 4), (2, 4)])
def test_poly_complex_audit(dim, k):
    rows = poly.poly_complex_audit(dim, k)
    for r in rows:
        assert r["pass"], r


def test_poly_complex_audit_exact_certified():
    rows = poly.poly_complex_audit(3, 3, exact_certify=True)
    names = {r["name"]: r for r in rows}
    assert names["rank devgrad (exact Q)"]["computed"] == 164
    assert names["rank symcurl (exact Q)"]["computed"] == 116
    assert names["rank divdiv (exact Q)"]["computed"] == 4
    for r in rows:
        assert r["pass"], r


def test_poly_complex_audit_ranks_each_matrix_once(monkeypatch):
    """One SVD per differential in an audit that reads d1's rank four times,
    d2's twice and d3's three times; the rows are those of a rank that is
    recomputed at every read."""
    calls = []

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return svd_rank(mat, *args, **kwargs)

    monkeypatch.setattr(poly, "svd_rank", counted)
    rows = poly.poly_complex_audit(3, 3, exact_certify=True)
    assert calls == [(168, 280), (280, 120), (120, 4)]
    monkeypatch.setattr(poly.DiffMatrix, "rank", property(lambda d: svd_rank(d.mat)))
    assert json.dumps(rows) == json.dumps(poly.poly_complex_audit(3, 3, exact_certify=True))


def test_poly_complex_audit_exact_certified_k4():
    """The rational certificates at a second degree: ranks 248/200/10."""
    rows = poly.poly_complex_audit(3, 4, exact_certify=True)
    names = {r["name"]: r for r in rows}
    assert names["rank devgrad (exact Q)"]["computed"] == 248
    assert names["rank symcurl (exact Q)"]["computed"] == 200
    assert names["rank divdiv (exact Q)"]["computed"] == 10
    for r in rows:
        assert r["pass"], r


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("op,shift,rng,scale", [("devgrad", 2, "V3", 3),
                                                ("symcurl", 1, "T", 2),
                                                ("divdiv", 0, "S", 1)])
def test_exact_matrix_is_the_scaled_float_matrix(op, shift, rng, scale, k):
    """The certified integer matrix is scale * the PolyField oracle's, entry
    by entry."""
    M = exact._op_matrix_3d(op, k)
    F = _oracle_matrix(op, poly.space("tet", k + shift, rng))
    assert M.dtype == np.int64 and M.shape == F.shape
    assert np.abs(M / scale - F).max() <= 1e-12 * np.abs(F).max()


def test_exact_matrix_rejects_unknown_operator():
    with pytest.raises(ValueError):
        exact._op_matrix_3d("curl", 3)
    with pytest.raises(ValueError):
        exact.rank_3d("hess", 3)


def test_composition_zero_scaled():
    V = poly.space("tet", 5, "V3")
    d1 = poly.diff("devgrad", V)
    d2 = poly.diff("symcurl", d1.dst)
    comp = d1.mat @ d2.mat
    scale = np.linalg.norm(d1.mat, 2) * np.linalg.norm(d2.mat, 2)
    assert np.abs(comp).max() <= 1e-12 * scale


def test_rank_exact_oracle():
    from fractions import Fraction
    M = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank_exact(M) == 1
    with pytest.raises(TypeError):
        rank_exact([[0.5]])


def test_audit_rejects_small_k():
    with pytest.raises(ValueError):
        poly.poly_complex_audit(3, 2)
