"""Polynomial spaces, exact differentiation matrices, constrained subspaces.

Spaces are subspaces of (Bernstein generating set) x (range generators); all
subspace constructions are nullspace / row-space computations with threshold
1e-10 relative to the largest singular value.  Implicitly defined subspaces
("there exists some r such that ...") become corner-coefficient constraints,
which is exact: a Bernstein corner coefficient equals the value at that
vertex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor_calc as tc
from .fields import PolyField, Simplex, curl_from_grads, probe
from .linalg import nullspace, one_blas_thread, rowspace, svd_rank
from .report import check

# ---------------------------------------------------------------------------
# ranges
# ---------------------------------------------------------------------------

def _sym_pair(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = 1.0
    return m

def _unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m

RANGE_GENERATORS = {
    "scalar": np.ones((1,)),
    "V2": np.eye(2),
    "V3": np.eye(3),
    "M2": np.stack([_unit(2, i, j) for i in range(2) for j in range(2)]),
    "M": np.stack([_unit(3, i, j) for i in range(3) for j in range(3)]),
    "S2": np.stack([_unit(2, 0, 0), _unit(2, 1, 1), _sym_pair(2, 0, 1)]),
    "S": np.stack([_unit(3, 0, 0), _unit(3, 1, 1), _unit(3, 2, 2),
                   _sym_pair(3, 0, 1), _sym_pair(3, 0, 2), _sym_pair(3, 1, 2)]),
    # trace-free: two diagonal generators plus the six off-diagonal units
    "T": np.stack([_unit(3, 0, 0) - _unit(3, 2, 2), _unit(3, 1, 1) - _unit(3, 2, 2)]
                  + [_unit(3, i, j) for i in range(3) for j in range(3) if i != j]),
}

RANGE_GDIM = {"scalar": None, "V2": 2, "V3": 3, "M2": 2, "M": 3, "S2": 2, "S": 3, "T": 3}

_DUALS = {name: np.linalg.pinv(np.asarray(g, dtype=float).reshape(len(g), -1))
          for name, g in RANGE_GENERATORS.items()}


def dim_P(d: int, k: int) -> int:
    return math.comb(k + d, d) if k >= 0 else 0


def reference_cell(name: str) -> Simplex:
    if name == "triangle":
        return Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    if name == "tet":
        return Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    if name == "edge":
        return Simplex([[0.0], [1.0]])
    raise ValueError(f"unknown reference cell {name!r}")


def _as_cell(cell) -> Simplex:
    return cell if isinstance(cell, Simplex) else reference_cell(cell)


@dataclass
class PolySpace:
    """Subspace of P_degree(cell; range): rows of coeff are members, in
    (generator x range) coordinates with column index a * C + c."""

    cell: Simplex
    degree: int
    rng: str
    coeff: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeff.shape[0]

    @property
    def comp_gens(self) -> np.ndarray:
        return RANGE_GENERATORS[self.rng]

    def fields(self) -> PolyField:
        """All members as one batched PolyField."""
        return PolyField.from_coords(self.cell.basis(self.degree), self.coeff, self.comp_gens)

    def member(self, i: int) -> PolyField:
        f = self.fields()
        return PolyField(f.basis, f.coeffs[i], f.vshape)


def space(cell, k: int, rng: str) -> PolySpace:
    """Full polynomial space P_k(cell; range)."""
    cell = _as_cell(cell)
    if k < 0:
        raise ValueError("degree must be >= 0")
    if rng not in RANGE_GENERATORS:
        raise ValueError(f"unknown range {rng!r}")
    want = RANGE_GDIM[rng]
    if want is not None and want != cell.gdim:
        raise ValueError(f"range {rng!r} not available on a cell with gdim {cell.gdim}")
    n = cell.basis(k).N * len(RANGE_GENERATORS[rng])
    return PolySpace(cell, k, rng, np.eye(n))


def to_range_coords(fields: PolyField, rng: str) -> np.ndarray:
    """Express a batched field in (generator x range) coordinates, exactly;
    ValueError if the field does not take values in the range."""
    gens = np.asarray(RANGE_GENERATORS[rng], dtype=float).reshape(len(RANGE_GENERATORS[rng]), -1)
    flat = fields.coeffs.reshape(*fields.batch, fields.basis.N, -1)
    coords = flat @ _DUALS[rng]
    if np.abs(flat - coords @ gens).max() > 1e-10 * max(np.abs(flat).max(), 1.0):
        raise ValueError(f"field does not take values in range {rng!r}")
    return coords.reshape(*fields.batch, -1)


def from_fields(fields: PolyField, rng: str) -> PolySpace:
    """Row-space of a batched field as a PolySpace (basis-filtered image)."""
    coords = to_range_coords(fields, rng)
    return PolySpace(fields.basis.simplex, fields.basis.degree, rng, rowspace(coords))


# ---------------------------------------------------------------------------
# differential operators between spaces
# ---------------------------------------------------------------------------

def _coordinate_entries(table: np.ndarray) -> np.ndarray:
    """Per generator, the value entry where it alone is nonzero: that entry of
    a member of the range is its coordinate, exactly."""
    gens = table.reshape(len(table), -1)
    alone = (gens != 0) & ((gens != 0).sum(axis=0) == 1)
    entries = alone.argmax(axis=1)
    assert np.array_equal(gens[:, entries], np.eye(len(gens))), "no coordinate entries"
    return entries


_ENTRIES = {name: _coordinate_entries(g) for name, g in RANGE_GENERATORS.items()}


@dataclass(frozen=True)
class Op:
    """A differential operator as a pointwise linear map of the derivative
    values of one order, X[..., *source value shape, [g] * order] (the order-2
    index d_1, d_2 differentiates by d_1 first), to its target range's values."""

    gdim: int
    sources: tuple
    target: str
    order: int
    fn: object


OPS = {
    "devgrad": Op(3, ("V3",), "T", 1, tc.dev),
    "symcurl": Op(3, ("T", "S", "M"), "S", 1, lambda X: tc.sym(curl_from_grads(X))),
    "divdiv": Op(3, ("S", "T", "M"), "scalar", 2, lambda X: np.einsum("...ijji->...", X)),
    "grad_f": Op(2, ("scalar",), "V2", 1, lambda X: X),
    "rot_f": Op(2, ("V2",), "scalar", 1, lambda X: X[..., 1, 0] - X[..., 0, 1]),
    "eps_f": Op(2, ("V2",), "S2", 1, tc.sym),
    "rotrot_f": Op(2, ("S2",), "scalar", 2,
                   lambda X: (X[..., 1, 1, 0, 0] - X[..., 1, 0, 1, 0]
                              - X[..., 0, 1, 0, 1] + X[..., 0, 0, 1, 1])),
}


def _integer(table) -> np.ndarray:
    out = np.rint(table).astype(np.int64)
    assert np.array_equal(out, table), "table is not integer-valued"
    return out


def op_matrix(op: str, basis, rng: str, scale=1, exact: bool = False) -> np.ndarray:
    """scale * op from the generator coordinates of P_n(basis; rng) to those of
    P_{n - order}(target), (N * C, N_lower * C'): sum_d D_d^T (x) K_d, D_d the
    Bernstein derivative tables and K_d the operator's map on scale * G_c (x) e_d
    read at the target's coordinate entries.  With exact, both factors are
    asserted integer-valued and contracted in int64."""
    spec = OPS[op]
    cast = _integer if exact else np.asarray
    img = spec.fn(scale * probe(RANGE_GENERATORS[rng], basis.simplex.gdim, spec.order))
    img = img.reshape(*img.shape[:2], -1)                          # (C, D, entries)
    K = cast(img[..., _ENTRIES[spec.target]])                      # (C, D, C')
    resid = np.abs(K @ RANGE_GENERATORS[spec.target].reshape(K.shape[-1], -1) - img).max()
    if resid > (0.0 if exact else 1e-12) * max(np.abs(img).max(), 1.0):
        raise ValueError(f"{op} leaves range {spec.target!r}")
    T = cast(basis.derivative_table(spec.order))                   # (D, N_lower, N)
    return np.einsum("dba,cde->acbe", T, K).reshape(T.shape[2] * len(K), -1)


@dataclass
class DiffMatrix:
    """Exact matrix of a differential operator between member coordinates."""

    op: str
    src: PolySpace
    dst: PolySpace
    mat: np.ndarray  # (src.dim, dst.dim): image_coords = member_coords @ mat

    @functools.cached_property
    def rank(self) -> int:
        """The numerical rank of mat, computed at the first read only."""
        return svd_rank(self.mat)

    @property
    def nullity(self) -> int:
        return self.src.dim - self.rank


def diff(op: str, src: PolySpace) -> DiffMatrix:
    """Differentiation matrix from src into the full target space."""
    if op not in OPS or OPS[op].gdim != src.cell.gdim:
        raise ValueError(f"operator {op!r} not applicable on gdim {src.cell.gdim}")
    spec = OPS[op]
    if src.rng not in spec.sources:
        raise ValueError(f"operator {op!r} not applicable to range {src.rng!r}")
    dst = space(src.cell, max(src.degree - spec.order, 0), spec.target)
    return DiffMatrix(op, src, dst, src.coeff @ op_matrix(op, src.cell.basis(src.degree), src.rng))


# ---------------------------------------------------------------------------
# head spaces
# ---------------------------------------------------------------------------

def _const_and_position(cell: Simplex, perp: bool) -> np.ndarray:
    """Coordinates of {constants} + {x or x_perp} inside P_1(cell; V)."""
    b1 = cell.basis(1)
    g = cell.gdim
    rows = []
    for c in range(g):
        co = np.zeros((b1.N, g))
        co[:, c] = 1.0
        rows.append(co.reshape(-1))
    # degree-1 Bernstein members are the barycentric coordinates; alphas order
    # need not follow vertex order, so look each one up
    pos = np.empty((b1.N, g))
    for i, a in enumerate(b1.alphas):
        pos[i] = cell.vertices[int(np.argmax(a))]
    if perp:
        pos = pos[:, [1, 0]] * np.array([-1.0, 1.0])  # x_perp = (-y, x)
    rows.append(pos.reshape(-1))
    return np.array(rows)


def rt_space(cell) -> PolySpace:
    """Lowest-order Raviart-Thomas fields a + b x (any ambient dimension)."""
    cell = _as_cell(cell)
    return PolySpace(cell, 1, "V3" if cell.gdim == 3 else "V2",
                     _const_and_position(cell, perp=False))


def rigid_motions_2d(cell) -> PolySpace:
    """Kernel of eps_f: a + b x_perp (the rotated RT_f fields)."""
    cell = _as_cell(cell)
    return PolySpace(cell, 1, "V2", _const_and_position(cell, perp=True))


# ---------------------------------------------------------------------------
# constrained subspaces
# ---------------------------------------------------------------------------

def vertex_vanishing(cell, deg: int, rng: str = "scalar") -> PolySpace:
    """P_{deg,0}: members vanishing at all vertices (componentwise).

    Exact construction: drop the corner Bernstein generators.
    """
    cell = _as_cell(cell)
    basis = cell.basis(deg)
    C = len(RANGE_GENERATORS[rng])
    corners = set(int(i) * C + c for i in basis.corner_indices() for c in range(C))
    keep = [j for j in range(basis.N * C) if j not in corners]
    return PolySpace(cell, deg, rng, np.eye(basis.N * C)[keep])


def _corner_constraint_subspace(src: PolySpace, image: PolyField, image_rng: str) -> PolySpace:
    """Members of src whose image (same cell/degree) vanishes at all vertices."""
    coords = to_range_coords(image, image_rng)
    basis = image.basis
    C = len(RANGE_GENERATORS[image_rng])
    cols = [int(i) * C + c for i in basis.corner_indices() for c in range(C)]
    constraints = coords[:, cols].T  # (ncon, src.dim) acting on member coords
    return PolySpace(src.cell, src.degree, src.rng, nullspace(constraints) @ src.coeff)


def div_position_vanishing(cell, deg: int) -> PolySpace:
    """{q in P_deg : div_f(q x) vanishes at the vertices} on a 2-D cell."""
    src = space(_as_cell(cell), deg, "scalar")
    image = times_position(src).div()
    assert image.basis.degree == deg
    return _corner_constraint_subspace(src, image, "scalar")


def sym_div_position_vanishing(cell, deg: int) -> PolySpace:
    """{v in P_deg(R^2) : div_f(sym(v x^T)) vanishes at the vertices}."""
    src = space(_as_cell(cell), deg, "V2")
    f = src.fields()
    image = tc.field_sym(tc.outer_with_position(f)).div()
    assert image.basis.degree == deg
    return _corner_constraint_subspace(src, image, "V2")


def sym_position_cross_image(cell, deg: int) -> PolySpace:
    """sym(x cross P_deg(K; T)), a subspace of P_{deg+1}(K; S)."""
    src = space(_as_cell(cell), deg, "T")
    image = tc.field_sym(tc.position_cross_rowwise(src.fields()))
    return from_fields(image, "S")


def dev_outer_position_image(cell, deg: int) -> PolySpace:
    """dev(P_deg(K; R^3) x^T), a subspace of P_{deg+1}(K; T)."""
    src = space(_as_cell(cell), deg, "V3")
    image = tc.field_dev(tc.outer_with_position(src.fields()))
    return from_fields(image, "T")


def surface_curl_image(cell, deg: int) -> PolySpace:
    """curl_f P_deg modulo constants, as a basis of the image (V2 range)."""
    src = space(_as_cell(cell), deg, "scalar")
    return from_fields(tc.curl2(src.fields()), "V2")


def surface_curlcurl_image(cell, deg: int) -> PolySpace:
    """curl_f curl_f P_deg modulo its kernel P_1, as a basis of the image (S2)."""
    src = space(_as_cell(cell), deg, "scalar")
    image = tc.curl2(tc.curl2(src.fields()))
    return from_fields(image, "S2")


def hess_image(cell, deg: int) -> PolySpace:
    cell = _as_cell(cell)
    src = space(cell, deg, "scalar")
    rng = "S" if cell.gdim == 3 else "S2"
    return from_fields(src.fields().hess(), rng)


def union_fields(parts: list[PolyField], rng: str) -> PolySpace:
    """Basis-filtered concatenation of batched fields (sums of test spaces)."""
    parts = [p for p in parts if p.batch and p.batch[0]]
    if not parts:
        raise ValueError("no fields to unite")
    deg = max(f.basis.degree for f in parts)
    coords = np.concatenate([to_range_coords(f.raise_to(deg), rng) for f in parts], axis=0)
    return PolySpace(parts[0].basis.simplex, deg, rng, rowspace(coords))


def range_dual(rng: str) -> np.ndarray:
    return _DUALS[rng]


def times_position(scalars: PolySpace) -> PolyField:
    """q -> q x for each member of a scalar space (not basis-filtered)."""
    f = scalars.fields()
    cols = [f.times_coord(j).coeffs for j in range(f.basis.simplex.gdim)]
    basis = f.basis.simplex.basis(f.degree + 1)
    return PolyField(basis, np.stack(cols, axis=-1), (f.basis.simplex.gdim,))


_SUBSPACE_TAGS = {
    "vertex_vanishing": lambda cell, k: vertex_vanishing(cell, k - 1),
    "div_position": lambda cell, k: div_position_vanishing(cell, k - 1),
    "sym_div_position": lambda cell, k: sym_div_position_vanishing(cell, k - 1),
    "sym_position_cross": lambda cell, k: sym_position_cross_image(cell, k - 2),
    "dev_outer_position": lambda cell, k: dev_outer_position_image(cell, k - 2),
    "surface_curl": lambda cell, k: surface_curl_image(cell, k - 3),
    "surface_curlcurl": lambda cell, k: surface_curlcurl_image(cell, k - 1),
}


def constrained_subspace(tag: str, cell, k: int) -> PolySpace:
    """Constrained spaces keyed by tag, degrees tied to the element order k >= 3."""
    if k < 3:
        raise ValueError("constrained subspaces require k >= 3")
    if tag not in _SUBSPACE_TAGS:
        raise ValueError(f"unknown subspace tag {tag!r}")
    return _SUBSPACE_TAGS[tag](_as_cell(cell), k)


# ---------------------------------------------------------------------------
# polynomial complex audits
# ---------------------------------------------------------------------------

def _composition_residual(d1: DiffMatrix, d2: DiffMatrix) -> float:
    comp = d1.mat @ d2.mat
    scale = np.linalg.norm(d1.mat, 2) * np.linalg.norm(d2.mat, 2)
    return float(np.abs(comp).max() / max(scale, 1e-300))


@one_blas_thread()
def poly_complex_audit(dim: int, k: int, exact_certify: bool = False) -> list[dict]:
    """Exactness audit of the 2-D polynomial complexes or the 3-D complex.

    Reports each link's rank against the value forced by exactness, checks
    zero compositions and the head kernels.
    """
    if k < 3:
        raise ValueError("audit requires k >= 3")
    if dim == 3:
        cell = reference_cell("tet")
        V = space(cell, k + 2, "V3")
        d1 = diff("devgrad", V)
        d2 = diff("symcurl", d1.dst)
        d3 = diff("divdiv", d2.dst)
        T, L = d1.dst.dim, d3.dst.dim
        head_resid = np.abs(embed_coords(rt_space(cell), V) @ d1.mat).max()
        checks = [
            check("dim P_{k+2}(K;R3)", (k + 3) * (k + 4) * (k + 5) // 2, V.dim, "paper"),
            check("dim P_{k+1}(K;T)", 4 * (k + 2) * (k + 3) * (k + 4) // 3, T, "paper"),
            check("rank devgrad", V.dim - 4, d1.rank, "derived"),
            check("kernel head = RT (dim 4)", 4, d1.nullity, "paper"),
            check("devgrad RT = 0", 0.0, head_resid, "trivial", tol=1e-11),
            check("rank symcurl", T - d1.rank, d2.rank, "derived"),
            check("rank divdiv", dim_P(3, k - 2), d3.rank, "derived"),
            check("divdiv onto P_{k-2}", L, d3.rank, "paper"),
            check("symcurl o devgrad = 0", 0.0, _composition_residual(d1, d2), "trivial",
                  tol=1e-12),
            check("divdiv o symcurl = 0", 0.0, _composition_residual(d2, d3), "trivial",
                  tol=1e-12)]
        if exact_certify:
            from . import exact
            checks += [check(f"rank {d.op} (exact Q)", d.rank, exact.rank_3d(d.op, k), "derived")
                       for d in (d1, d2, d3)]
    elif dim == 2:
        if exact_certify:
            raise ValueError("exact certificates exist for the 3-D complex only")
        cell = reference_cell("triangle")
        # de Rham: P_{k+2} -> P_{k+1}(R2) -> P_k
        H = space(cell, k + 2, "scalar")
        g = diff("grad_f", H)
        r = diff("rot_f", g.dst)
        # strain: P_{k+2}(R2) -> P_{k+1}(S2) -> P_{k-1}
        Hv = space(cell, k + 2, "V2")
        e = diff("eps_f", Hv)
        rr = diff("rotrot_f", e.dst)
        rm_resid = np.abs(embed_coords(rigid_motions_2d(cell), Hv) @ e.mat).max()
        checks = [
            check("deRham rank grad_f", H.dim - 1, g.rank, "derived"),
            check("deRham rank rot_f", dim_P(2, k), r.rank, "derived"),
            check("deRham rot_f onto P_k", r.dst.dim, r.rank, "paper"),
            check("deRham exactness at V2", g.rank, g.dst.dim - r.rank, "derived"),
            check("rot_f o grad_f = 0", 0.0, _composition_residual(g, r), "trivial", tol=1e-12),
            check("strain head kernel dim (rigid motions)", 3, e.nullity, "paper"),
            check("eps_f rigid motions = 0", 0.0, rm_resid, "trivial", tol=1e-11),
            check("strain rank eps_f", Hv.dim - 3, e.rank, "derived"),
            check("strain rank rotrot_f", dim_P(2, k - 1), rr.rank, "derived"),
            check("strain exactness at S2", e.rank, e.dst.dim - rr.rank, "derived"),
            check("rotrot_f o eps_f = 0", 0.0, _composition_residual(e, rr), "trivial",
                  tol=1e-12)]
    else:
        raise ValueError("dim must be 2 or 3")
    return checks


def embed_coords(sub: PolySpace, full: PolySpace) -> np.ndarray:
    """Member coordinates of sub's members inside a full space of higher degree."""
    f = sub.fields().raise_to(full.degree)
    return to_range_coords(f, full.rng)
