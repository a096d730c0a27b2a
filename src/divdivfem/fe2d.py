"""The five 2-D triangle families with vertex-enriched DOFs, plus bubble audits.

These elements underpin the face DOFs of the 3-D families: their interior
test spaces (surface-curl images, position-multiplied constrained spaces) are
exactly what gets attached to tetrahedron faces later.
"""

from __future__ import annotations

import numpy as np

from . import poly
from .dofcommon import (DofGroup, Element, Part, bernstein_tests, bubble_space,
                        componentwise, vertex_groups)
from .fields import Simplex
from .linalg import one_blas_thread, svd_rank
from .quadrature import rule
from .report import check

FAMILIES = ("h1_scalar", "hrot_vec", "l2_lagrange", "h1_vec", "hrotrot_s2")

# family -> (degree offset from k, range, derivative order of the vertex DOFs)
_SHAPE = {
    "h1_scalar": (2, "scalar", 2),
    "hrot_vec": (1, "V2", 1),
    "l2_lagrange": (0, "scalar", 0),
    "h1_vec": (2, "V2", 2),
    "hrotrot_s2": (1, "S2", 1),
}

LOCAL_EDGES_2D = ((0, 1), (0, 2), (1, 2))


def _edge_frames_2d(tri: Simplex):
    """Unit tangents t (along each of LOCAL_EDGES_2D) and normals
    n = (t_y, -t_x) of the three edges, stacked: (3, 2) each."""
    verts = tri.vertices[np.array(LOCAL_EDGES_2D)]
    d = verts[:, 1] - verts[:, 0]
    t = d / np.linalg.norm(d, axis=1)[:, None]
    return t, np.stack([t[:, 1], -t[:, 0]], axis=1)


def _rot(X):
    """Row-wise rot_f of gradient values X[..., i, d] = d_d X_i."""
    return X[..., 1, 0] - X[..., 0, 1]


@one_blas_thread()
def element_2d(family: str, k: int, simplex: Simplex | None = None) -> Element:
    """The element on one triangle, built on one BLAS thread so that its Vinv
    is the same at any thread count."""
    if family not in FAMILIES:
        raise ValueError(f"unknown 2-D family {family!r}")
    if k < 3:
        raise ValueError("elements require k >= 3")
    tri = simplex if simplex is not None else poly.reference_cell("triangle")
    off, rng, vorder = _SHAPE[family]
    basis = tri.basis(k + off)
    gens = poly.RANGE_GENERATORS[rng]
    qdeg = 2 * k + 6
    groups = vertex_groups(tri.vertices, poly.range_dual(rng), vorder)

    # the three edges, stacked: points, weights and frames (t, n)
    q = rule("edge", qdeg)
    verts = tri.vertices[np.array(LOCAL_EDGES_2D)]                 # (3, 2, 2)
    length = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    edge = [(q.bary @ verts, q.weights * length[:, None])]
    t, n = _edge_frames_2d(tri)
    value = lambda X: X[None]
    if family in ("h1_scalar", "l2_lagrange"):
        deg = k - 4 if family == "h1_scalar" else k - 2
        groups.append(DofGroup("e", 0, edge, [Part(value, bernstein_tests(q, deg))]))
    elif family == "hrot_vec":
        groups.append(DofGroup("e", 0, edge, [Part(
            lambda X: np.einsum("...i,ei->e...", X, t), bernstein_tests(q, k - 3))]))
        groups.append(DofGroup("e", 1, edge, [Part(
            lambda X: _rot(X)[None], bernstein_tests(q, k - 2))]))
    elif family == "h1_vec":
        groups.append(DofGroup("e", 0, edge, [Part(
            value, componentwise(bernstein_tests(q, k - 4), 2))]))
    else:  # hrotrot_s2
        groups.append(DofGroup("e", 0, edge, [Part(
            lambda X: np.einsum("...ij,ei,ej->e...", X, t, t), bernstein_tests(q, k - 3))]))

        def combo(X):
            dt = np.einsum("...ijd,ed->e...ij", X, t)
            return (-np.einsum("e...ij,ei,ej->e...", dt, n, t)
                    + np.einsum("...i,ei->e...", _rot(X), t))

        groups.append(DofGroup("e", 1, edge, [Part(combo, bernstein_tests(q, k - 2))]))

    q = rule("triangle", qdeg)
    cpts, cw = q.on(tri)
    if family == "h1_scalar":
        tests = bernstein_tests(q, k - 1, corners=False)
    elif family == "l2_lagrange":
        tests = bernstein_tests(q, k - 3)
    elif family == "h1_vec":
        tests = componentwise(bernstein_tests(q, k - 1, corners=False), 2)
    elif family == "hrot_vec":
        tests = interior_test_space_hrot(tri, k).fields().eval(cpts)[None]
    else:  # hrotrot_s2
        tests = interior_test_space_hrotrot(tri, k).fields().eval(cpts)[None]
    groups.append(DofGroup("c", 0, [(cpts[None], cw[None])], [Part(value, tests)]))
    return Element(family, k, tri, basis, gens, groups).finalize()


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
# audits
# ---------------------------------------------------------------------------

def bubble_audit_2d(k: int, simplex: Simplex | None = None) -> list[dict]:
    """Rank chains of the 2-D de Rham and strain bubble complexes."""
    tri = simplex if simplex is not None else poly.reference_cell("triangle")

    # de Rham: B_{k+2,grad} -> B_{k+1,rot} -> B_{k,0}/P0, and
    # strain: B_{k+2,eps} -> B_{k+1,rotrot} -> P_{k-1}/P_1
    b1, b2, b3, b4, b5 = (bubble_space(element_2d(family, k, tri)) for family in FAMILIES)
    # the images of the bubbles: their coordinates times poly.diff's matrices
    grad = poly.diff("grad_f", poly.space(tri, k + 2, "scalar")).mat
    rot = poly.diff("rot_f", poly.space(tri, k + 1, "V2")).mat
    r = svd_rank(b2 @ rot, scale=np.linalg.norm(rot, 2))
    # grad bubbles live inside rot bubbles and exhaust the kernel
    kernel_dim, grad_rank = len(b2) - r, svd_rank(b1 @ grad)
    rotrot = poly.diff("rotrot_f", poly.space(tri, k + 1, "S2")).mat
    rr_rank = svd_rank(b5 @ rotrot, scale=np.linalg.norm(rotrot, 2))
    return [
        check("dim B_{k+2,grad_f}", poly.dim_P(2, k - 1) - 3, len(b1), "derived"),
        check("dim B_{k,0}", poly.dim_P(2, k - 3), len(b3), "derived"),
        check("dim rot_f image of rot bubbles", max(poly.dim_P(2, k - 3) - 1, 0), r, "paper"),
        check("ker(rot_f) in rot bubbles = grad bubbles", grad_rank, kernel_dim, "derived"),
        check("dim B_{k+2,eps_f}", k * (k + 1) - 6, len(b4), "derived"),
        check("dim B_{k+1,rotrot_f}", 3 * (k + 3) * (k - 2) // 2, len(b5), "derived"),
        check("dim rotrot_f image of strain bubbles", k * (k + 1) // 2 - 3, rr_rank, "paper"),
        check("ker(rotrot_f) in strain bubbles = eps bubbles", len(b4), len(b5) - rr_rank,
              "derived")]
