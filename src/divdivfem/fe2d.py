"""The five 2-D triangle families with vertex-enriched DOFs, plus bubble audits.

These elements underpin the face DOFs of the 3-D families: their interior
test spaces (surface-curl images, position-multiplied constrained spaces) are
exactly what gets attached to tetrahedron faces later.
"""

from __future__ import annotations

import numpy as np

from . import poly
from .dofcommon import (DofBlock, Element, bubble_space, grad_dofs_block,
                        hess_dofs_block, moment_block, value_dofs_block)
from .fields import PolyField, Simplex
from .linalg import svd_rank
from .quadrature import rule

FAMILIES = ("h1_scalar", "hrot_vec", "l2_lagrange", "h1_vec", "hrotrot_s2")

_SHAPE = {
    "h1_scalar": (2, "scalar"),   # degree offset from k, range
    "hrot_vec": (1, "V2"),
    "l2_lagrange": (0, "scalar"),
    "h1_vec": (2, "V2"),
    "hrotrot_s2": (1, "S2"),
}

LOCAL_EDGES_2D = ((0, 1), (0, 2), (1, 2))


def _edge_tests(tri: Simplex, edge, deg: int, qdeg: int):
    """Physical rule on the edge plus Bernstein test tabulations of degree deg."""
    seg = tri.facet(edge)
    q = rule("edge", qdeg)
    pts, w = q.on(seg)
    if deg < 0:
        tests = np.zeros((0, len(w)))
    else:
        tests = seg.basis(deg).eval(q.bary).T
    return seg, pts, w, tests


def _edge_frame_2d(tri: Simplex, edge):
    v0, v1 = tri.vertices[edge[0]], tri.vertices[edge[1]]
    t = v1 - v0
    t = t / np.linalg.norm(t)
    n = np.array([t[1], -t[0]])
    return t, n


def _vertex_vanishing_values(tri: Simplex, deg: int, bary):
    """Values of the corner-stripped Bernstein basis of P_{deg,0}: (m, p)."""
    basis = tri.basis(deg)
    keep = [i for i in range(basis.N) if i not in set(basis.corner_indices())]
    return basis.eval(bary)[:, keep].T


def element_2d(family: str, k: int, simplex: Simplex | None = None) -> Element:
    if family not in FAMILIES:
        raise ValueError(f"unknown 2-D family {family!r}")
    if k < 3:
        raise ValueError("elements require k >= 3")
    tri = simplex if simplex is not None else poly.reference_cell("triangle")
    off, rng = _SHAPE[family]
    deg = k + off
    basis = tri.basis(deg)
    gens = poly.RANGE_GENERATORS[rng]
    dual = poly.range_dual(rng)
    nv = np.asarray(gens).ndim - 1
    qdeg = 2 * k + 6
    blocks: list[DofBlock] = []

    for v in range(3):
        pt = tri.vertices[v]
        if family == "h1_scalar":
            blocks.append(value_dofs_block(("v", v), pt, dual, nv))
            blocks.append(grad_dofs_block(("v", v), pt, dual, nv, 2))
            blocks.append(hess_dofs_block(("v", v), pt, dual, nv, 2))
        elif family in ("hrot_vec", "hrotrot_s2"):
            blocks.append(value_dofs_block(("v", v), pt, dual, nv))
            blocks.append(grad_dofs_block(("v", v), pt, dual, nv, 2))
        elif family == "h1_vec":
            blocks.append(value_dofs_block(("v", v), pt, dual, nv))
            blocks.append(grad_dofs_block(("v", v), pt, dual, nv, 2))
            blocks.append(hess_dofs_block(("v", v), pt, dual, nv, 2))
        else:  # l2_lagrange
            blocks.append(value_dofs_block(("v", v), pt, dual, nv))

    for ei, edge in enumerate(LOCAL_EDGES_2D):
        t, n = _edge_frame_2d(tri, edge)
        if family == "h1_scalar":
            seg, pts, w, tests = _edge_tests(tri, edge, k - 4, qdeg)
            blocks.append(moment_block(("e", ei), lambda ev, P=pts: ev.values(P),
                                       tests, w, "edge value"))
        elif family == "hrot_vec":
            seg, pts, w, tests = _edge_tests(tri, edge, k - 3, qdeg)
            blocks.append(moment_block(
                ("e", ei),
                lambda ev, P=pts, T=t: np.einsum("...pi,i->...p", ev.values(P), T),
                tests, w, "tangential"))
            seg, pts, w, tests = _edge_tests(tri, edge, k - 2, qdeg)
            blocks.append(moment_block(
                ("e", ei),
                lambda ev, P=pts: (lambda G: G[..., 1, 0] - G[..., 0, 1])(ev.grads(P)),
                tests, w, "rot_f"))
        elif family == "l2_lagrange":
            seg, pts, w, tests = _edge_tests(tri, edge, k - 2, qdeg)
            blocks.append(moment_block(("e", ei), lambda ev, P=pts: ev.values(P),
                                       tests, w, "edge value"))
        elif family == "h1_vec":
            seg, pts, w, tests = _edge_tests(tri, edge, k - 4, qdeg)
            for c in range(2):
                blocks.append(moment_block(
                    ("e", ei), lambda ev, P=pts, C=c: ev.values(P)[..., C],
                    tests, w, f"component {c}"))
        else:  # hrotrot_s2
            seg, pts, w, tests = _edge_tests(tri, edge, k - 3, qdeg)
            blocks.append(moment_block(
                ("e", ei),
                lambda ev, P=pts, T=t: np.einsum("...pij,i,j->...p", ev.values(P), T, T),
                tests, w, "t.tau.t"))
            seg, pts, w, tests = _edge_tests(tri, edge, k - 2, qdeg)

            def combo(ev, P=pts, T=t, N=n):
                G = ev.grads(P)  # (..., p, 2, 2, 2)
                dt = np.einsum("...pijd,d->...pij", G, T)
                rot = G[..., 1, 0] - G[..., 0, 1]  # (..., p, 2) row-wise rot_f
                return (-np.einsum("...pij,i,j->...p", dt, N, T)
                        + np.einsum("...pi,i->...p", rot, T))

            blocks.append(moment_block(("e", ei), combo, tests, w, "rot-derivative"))

    q = rule("triangle", qdeg)
    cpts, cw = q.on(tri)
    if family == "h1_scalar":
        tests = _vertex_vanishing_values(tri, k - 1, tri.barycentric(cpts))
        blocks.append(moment_block(("c", 0), lambda ev, P=cpts: ev.values(P),
                                   tests, cw, "interior"))
    elif family == "l2_lagrange":
        tb = tri.basis(k - 3)
        tests = tb.eval(tri.barycentric(cpts)).T
        blocks.append(moment_block(("c", 0), lambda ev, P=cpts: ev.values(P),
                                   tests, cw, "interior"))
    elif family == "h1_vec":
        tests_s = _vertex_vanishing_values(tri, k - 1, tri.barycentric(cpts))
        zero = np.zeros_like(tests_s)
        tests = np.concatenate([
            np.stack([tests_s, zero], axis=-1),
            np.stack([zero, tests_s], axis=-1)], axis=0)
        blocks.append(moment_block(("c", 0), lambda ev, P=cpts: ev.values(P),
                                   tests, cw, "interior"))
    elif family == "hrot_vec":
        space = interior_test_space_hrot(tri, k)
        tests = space.fields().eval(cpts)
        blocks.append(moment_block(("c", 0), lambda ev, P=cpts: ev.values(P),
                                   tests, cw, "interior"))
    else:  # hrotrot_s2
        space = interior_test_space_hrotrot(tri, k)
        tests = space.fields().eval(cpts)
        blocks.append(moment_block(("c", 0), lambda ev, P=cpts: ev.values(P),
                                   tests, cw, "interior"))

    return Element(family, k, tri, basis, gens, blocks).finalize()


def interior_test_space_hrot(tri: Simplex, k: int) -> poly.PolySpace:
    """curl_f P_{k-3}(f) + P_{k-1,1}(f) x, basis-filtered."""
    parts = []
    if k - 3 >= 0:
        parts.append(poly.surface_curl_image(tri, k - 3).fields())
    qspace = poly.div_position_vanishing(tri, k - 1)
    parts.append(poly.times_position(qspace))
    return poly.union_fields(parts, "V2")


def interior_test_space_hrotrot(tri: Simplex, k: int) -> poly.PolySpace:
    """curl_f curl_f P_{k-1}(f) + sym(P_{k-1,2}(f;R2) x^T), basis-filtered."""
    from . import tensor_calc as tc
    parts = [poly.surface_curlcurl_image(tri, k - 1).fields()]
    vspace = poly.sym_div_position_vanishing(tri, k - 1)
    parts.append(tc.field_sym(tc.outer_with_position(vspace.fields())))
    return poly.union_fields(parts, "S2")


# ---------------------------------------------------------------------------
# DOF evaluation and audits
# ---------------------------------------------------------------------------

def dof_eval(elem: Element, field: PolyField) -> np.ndarray:
    """All DOF functionals applied to a polynomial field."""
    if field.basis.degree > elem.basis.degree:
        raise ValueError("field degree exceeds the shape space degree")
    if field.vshape != elem.vshape:
        raise ValueError("field range does not match the element range")
    return elem.dof_values(field)


def bubble_audit_2d(k: int, simplex: Simplex | None = None) -> list[dict]:
    """Rank chains of the 2-D de Rham and strain bubble complexes."""
    tri = simplex if simplex is not None else poly.reference_cell("triangle")
    checks = []

    # de Rham: B_{k+2,grad} -> B_{k+1,rot} -> B_{k,0}/P0
    e1 = element_2d("h1_scalar", k, tri)
    e2 = element_2d("hrot_vec", k, tri)
    e3 = element_2d("l2_lagrange", k, tri)
    b1, b2, b3 = bubble_space(e1), bubble_space(e2), bubble_space(e3)
    checks.append({"name": "dim B_{k+2,grad_f}", "expected": poly.dim_P(2, k - 1) - 3,
                   "computed": len(b1), "source": "derived", "pass": len(b1) == poly.dim_P(2, k - 1) - 3})
    checks.append({"name": "dim B_{k,0}", "expected": poly.dim_P(2, k - 3),
                   "computed": len(b3), "source": "derived",
                   "pass": len(b3) == poly.dim_P(2, k - 3)})
    gradb = PolyField(tri.basis(k + 2), b1, ()).grad()
    grad_coords = poly.to_range_coords(gradb, "V2")
    rot_scale = np.linalg.norm(poly.diff("rot_f", poly.space(tri, k + 1, "V2")).mat, 2)
    rot_on_b2 = poly.to_range_coords(_rot_of(tri, b2, k + 1), "scalar")
    expected_rot = poly.dim_P(2, k - 3) - 1
    r = svd_rank(rot_on_b2, scale=rot_scale)
    checks.append({"name": "dim rot_f image of rot bubbles",
                   "expected": max(expected_rot, 0), "computed": r,
                   "source": "paper", "pass": r == max(expected_rot, 0)})
    # grad bubbles live inside rot bubbles and exhaust the kernel
    kernel_dim = len(b2) - r
    checks.append({"name": "ker(rot_f) in rot bubbles = grad bubbles",
                   "expected": svd_rank(grad_coords), "computed": kernel_dim,
                   "source": "derived", "pass": kernel_dim == svd_rank(grad_coords)})

    # strain: B_{k+2,eps} -> B_{k+1,rotrot} -> P_{k-1}/P_1
    e4 = element_2d("h1_vec", k, tri)
    e5 = element_2d("hrotrot_s2", k, tri)
    b4, b5 = bubble_space(e4), bubble_space(e5)
    checks.append({"name": "dim B_{k+2,eps_f}", "expected": k * (k + 1) - 6,
                   "computed": len(b4), "source": "derived",
                   "pass": len(b4) == k * (k + 1) - 6})
    checks.append({"name": "dim B_{k+1,rotrot_f}", "expected": 3 * (k + 3) * (k - 2) // 2,
                   "computed": len(b5), "source": "derived",
                   "pass": len(b5) == 3 * (k + 3) * (k - 2) // 2})
    rr = _rotrot_of(tri, b5, k + 1)
    rr_scale = np.linalg.norm(poly.diff("rotrot_f", poly.space(tri, k + 1, "S2")).mat, 2)
    rr_rank = svd_rank(poly.to_range_coords(rr, "scalar"), scale=rr_scale)
    expected_rr = k * (k + 1) // 2 - 3
    checks.append({"name": "dim rotrot_f image of strain bubbles",
                   "expected": expected_rr, "computed": rr_rank, "source": "paper",
                   "pass": rr_rank == expected_rr})
    checks.append({"name": "ker(rotrot_f) in strain bubbles = eps bubbles",
                   "expected": len(b4), "computed": len(b5) - rr_rank,
                   "source": "derived", "pass": len(b5) - rr_rank == len(b4)})
    return checks


def _rot_of(tri, rows, deg):
    from . import tensor_calc as tc
    f = PolyField(tri.basis(deg), rows.reshape(len(rows), tri.basis(deg).N, 2), (2,))
    return tc.rot2(f)


def _rotrot_of(tri, rows, deg):
    from . import tensor_calc as tc
    return tc.rotrot2(PolyField.from_coords(tri.basis(deg), rows, poly.RANGE_GENERATORS["S2"]))
