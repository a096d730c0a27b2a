import itertools

import numpy as np
import pytest

from divdivfem import tensor_calc as tc
from divdivfem.fields import PolyField, Simplex

REF_TET = Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_dev_of_identity_is_zero():
    assert np.abs(tc.field_dev(_const_field(np.eye(3))).coeffs).max() == 0.0


def test_sym_of_skew_is_zero():
    A = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
    assert np.abs(tc.field_sym(_const_field(A)).coeffs).max() == 0.0


def test_mspn_cross_example():
    out = tc.mspn(np.array([1.0, 0.0, 0.0])) @ np.array([0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 1.0])


def test_algebra_identities_random(rng):
    for _ in range(200):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        A = rng.standard_normal((3, 3))
        scale = max(np.abs(v).max() * np.abs(w).max(), np.abs(A).max(), 1.0)
        assert np.abs(tc.mspn(v) @ w - np.cross(v, w)).max() <= 1e-13 * scale
        assert abs(np.trace(tc.field_dev(_const_field(A)).coeffs[0])) <= 1e-13 * scale


def test_product_identity_audit():
    rows = tc.product_identity_audit(trials=50, seed=0, degree=5, npts=20)
    assert len(rows) == 3
    for r in rows:
        assert r["pass"], r


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_edge_frame_axis_rule():
    fr = tc.make_edge_frame((0, 1), [[0, 0, 0], [1, 0, 0]])
    assert np.allclose(fr.t, [1, 0, 0])
    # seed axis is the one least aligned with t: y (index 1 wins the tie)
    assert np.allclose(fr.n1, [0, 1, 0])
    assert np.allclose(fr.n2, np.cross(fr.t, fr.n1))
    fr.validate()


def test_edge_frame_orientation_from_ids():
    coords = [[0.2, 0.4, 0.1], [0.9, -0.3, 0.5]]
    a = tc.make_edge_frame((7, 3), coords)
    b = tc.make_edge_frame((3, 7), coords[::-1])
    for x, y in ((a.t, b.t), (a.n1, b.n1), (a.n2, b.n2)):
        assert np.array_equal(x, y)  # bitwise identical


def test_face_frame_independent_of_ordering(rng):
    ids = (2, 5, 9)
    coords = rng.random((3, 3))
    frames = []
    for perm in itertools.permutations(range(3)):
        fr = tc.make_face_frame([ids[p] for p in perm], coords[list(perm)])
        frames.append(fr)
    for fr in frames[1:]:
        assert np.array_equal(fr.n, frames[0].n)
        assert np.array_equal(fr.t1, frames[0].t1)
        assert np.array_equal(fr.t2, frames[0].t2)
    for fr in frames:
        fr.validate()


def test_degenerate_entities_rejected():
    with pytest.raises(ValueError, match="edge"):
        tc.make_edge_frame((0, 1), [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="face"):
        tc.make_face_frame((0, 1, 2), [[0, 0, 0], [1, 0, 0], [2, 0, 0]])


# ---------------------------------------------------------------------------
# surface operators
# ---------------------------------------------------------------------------

def _const_field(vals):
    vals = np.asarray(vals, dtype=float)
    return PolyField(REF_TET.basis(0), vals[None], vals.shape)


def test_proj_f_kills_normal(rng):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    f = _const_field(n)
    out = tc.proj_f(f, n).eval(rng.random((4, 3)))
    assert np.abs(out).max() <= 1e-14


def test_rot_f_of_grad_f_vanishes(rng):
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    q = PolyField(REF_TET.basis(5), rng.standard_normal(REF_TET.basis(5).N), ())
    out = tc.rot_f(tc.grad_f(q, n), n).eval(rng.random((10, 3)))
    assert np.abs(out).max() <= 1e-11 * max(np.abs(q.coeffs).max(), 1.0)


def test_div_f_of_tangential_position_is_two():
    n = np.array([0.0, 0.0, 1.0])
    one = PolyField(REF_TET.basis(0), np.ones(1), ())
    x = np.stack([one.times_coord(j).coeffs for j in range(3)], axis=-1)
    pos = PolyField(REF_TET.basis(1), x, (3,))
    out = tc.div_f(tc.proj_f(pos, n), n).eval(np.random.default_rng(1).random((5, 3)))
    assert np.allclose(out, 2.0, atol=1e-13)


def test_surface_ops_match_2d_for_ez(rng):
    """With n = e_z the 3-D surface operators restrict to the plain 2-D ones."""
    n = np.array([0.0, 0.0, 1.0])
    tri2 = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts2 = rng.random((6, 2)) * 0.4
    pts3 = np.concatenate([pts2, np.zeros((6, 1))], axis=1)
    # the same z-independent polynomial built from coordinates on both sides
    one3 = PolyField(REF_TET.basis(0), np.ones(1), ())
    x3 = one3.times_coord(0)
    y3 = one3.times_coord(1)
    p3 = x3.times_coord(0) + (2.0 * y3.times_coord(1)) + x3.times_coord(1)
    one2 = PolyField(tri2.basis(0), np.ones(1), ())
    x2 = one2.times_coord(0)
    y2 = one2.times_coord(1)
    p2 = x2.times_coord(0) + (2.0 * y2.times_coord(1)) + x2.times_coord(1)
    g3 = tc.grad_f(p3, n).eval(pts3)
    g2 = p2.grad().eval(pts2)
    assert np.abs(g3[:, :2] - g2).max() <= 1e-13
    assert np.abs(g3[:, 2]).max() <= 1e-13
    c3 = tc.curl_f(p3, n).eval(pts3)
    c2 = tc.curl2(p2).eval(pts2)
    assert np.abs(c3[:, :2] - c2).max() <= 1e-13


def test_surface_op_rejects_rank_mismatch():
    n = np.array([0.0, 0.0, 1.0])
    q = _const_field(1.0 * np.ones(()))
    with pytest.raises(ValueError):
        tc.eps_f(q, n)
    v = _const_field(np.ones(3))
    with pytest.raises(ValueError):
        tc.curl_f(v, n)
