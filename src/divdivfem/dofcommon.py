"""Shared DOF-functional machinery for the 2-D and 3-D element families.

A finite element is an ordered list of blocks; every block maps a
GeneratorEval (a Bernstein basis times component generators) to the values of
a batch of functionals on every generator.  The same block code builds
Vandermonde matrices (the element's generators) and evaluates DOFs of
concrete polynomial fields (unit generators contracted with the field's
coefficients), so there is exactly one definition and one evaluation path of
every functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import BernsteinBasis, PolyField
from .linalg import min_max_singular_ratio, nullspace


def curl_from_grads(G):
    """Row-wise curl from gradient values G[..., i, k, j] = d_j of component (i,k)."""
    out = np.empty(G.shape[:-1])
    out[..., 0] = G[..., 2, 1] - G[..., 1, 2]
    out[..., 1] = G[..., 0, 2] - G[..., 2, 0]
    out[..., 2] = G[..., 1, 0] - G[..., 0, 1]
    return out


class _Probe:
    """Evaluator whose batch is every component generator G_c times every
    derivative direction e_d, read at a single point.

    A moment integrand is a pointwise linear map with constant coefficients
    of one derivative order at one point set, so its value on B_a G_c at x_p
    is sum_d T[p, a, d] L(G_c e_d), with T the scalar tabulation.  The probe
    returns G_c (x) e_d with batch axes (c, d) and one point, and records
    which (points, order) the integrand read.
    """

    def __init__(self, gens: np.ndarray, gdim: int):
        self.gens = gens
        self.gdim = gdim
        self.read = None

    def _unit(self, pts, order: int):
        if self.read is None:
            self.read = (pts, order)
        elif self.read[0] is not pts or self.read[1] != order:
            raise ValueError("a moment integrand must read one derivative order "
                             "at one point set")
        g, nv = self.gdim, self.gens.ndim - 1
        D = g ** order
        e = np.eye(D).reshape(1, D, 1, *([1] * nv), *([g] * order))
        G = self.gens.reshape(len(self.gens), 1, 1, *self.gens.shape[1:],
                              *([1] * order))
        return G * e                      # (C, D, 1, *vshape, [g]*order)

    def values(self, pts):
        return self._unit(pts, 0)

    def grads(self, pts):
        return self._unit(pts, 1)

    def hessians(self, pts):
        return self._unit(pts, 2)


class GeneratorEval:
    """Evaluator for all N*C shape generators at once; batch index a*C + c."""

    def __init__(self, basis: BernsteinBasis, comp_gens):
        self.basis = basis
        self.gens = np.asarray(comp_gens, dtype=float)
        self.vshape = self.gens.shape[1:]
        self._tabs: dict = {}

    def _scalar_tabs(self, pts, order: int):
        key = (id(pts), order)
        if key in self._tabs:
            return self._tabs[key]
        b = self.basis
        lam = b.simplex.barycentric(pts)
        if order == 0:
            tab = b.eval(lam)
        elif order == 1:
            lo = b.simplex.basis(max(b.degree - 1, 0))
            E = lo.eval(lam)
            tab = np.stack([E @ D for D in b.diff_ops], axis=-1)  # (p, N, g)
        else:
            lo = b.simplex.basis(max(b.degree - 1, 0))
            lo2 = b.simplex.basis(max(b.degree - 2, 0))
            E = lo2.eval(lam)
            g = b.simplex.gdim
            tab = np.empty((len(lam), b.N, g, g))
            for d1 in range(g):
                for d2 in range(g):
                    tab[:, :, d1, d2] = E @ (lo.diff_ops[d2] @ b.diff_ops[d1])
        self._tabs[key] = tab
        return tab

    def _expand(self, tab, extra: int):
        # tab: (p, N, [g]*extra) -> (N*C, p, *vshape, [g]*extra)
        t = np.moveaxis(tab, 1, 0)  # (N, p, ...)
        nv = len(self.vshape)
        t = t.reshape(t.shape[0], 1, t.shape[1], *([1] * nv), *t.shape[2:])
        gexp = self.gens.reshape(1, len(self.gens), 1, *self.vshape, *([1] * extra))
        out = t * gexp
        return out.reshape(-1, tab.shape[0], *self.vshape, *tab.shape[2:])

    def values(self, pts):
        return self._expand(self._scalar_tabs(pts, 0), 0)

    def grads(self, pts):
        return self._expand(self._scalar_tabs(pts, 1), 1)

    def hessians(self, pts):
        return self._expand(self._scalar_tabs(pts, 2), 2)

    def moments(self, integrand, tw):
        """Moments (N*C, m) of integrand(generator) against weighted tests tw.

        tw: (m, p, *ishape) test values times quadrature weights.  The
        integrand runs once, on a _Probe; then U = F . tw over the value axes
        and T . U over (point, derivative), T the cached scalar tabulation.
        """
        C = len(self.gens)
        probe = _Probe(self.gens, self.basis.simplex.gdim)
        F = np.asarray(integrand(probe))
        pts, order = probe.read
        nin = tw.ndim - 2
        if F.ndim != 3 + nin or F.shape[:3] != (C, probe.gdim ** order, 1):
            raise ValueError("a moment integrand must give exactly one point "
                             "per probe: its coefficients may not depend on position")
        ax = list(range(2, 2 + nin))
        U = np.tensordot(F[:, :, 0], tw, axes=(ax, ax))           # (C, D, m, p)
        T = self._scalar_tabs(pts, order)
        T = T.reshape(T.shape[0], self.basis.N, -1)               # (p, N, D)
        out = np.tensordot(T, U, axes=([0, 2], [3, 1]))           # (N, C, m)
        return out.reshape(self.basis.N * C, -1)


@dataclass
class DofBlock:
    entity: tuple          # ("v"|"e"|"f"|"c", local index)
    n: int
    fn: object             # callable(GeneratorEval) -> (N*C, n)
    label: str = ""


def functional_matrix(blocks, gen: GeneratorEval) -> np.ndarray:
    """Every functional of the blocks on every generator: (N*C, ndof)."""
    return np.concatenate([np.atleast_2d(blk.fn(gen)) for blk in blocks if blk.n],
                          axis=-1)


@dataclass
class Element:
    family: str
    k: int
    simplex: object
    basis: BernsteinBasis
    comp_gens: np.ndarray
    blocks: list
    tags: list = dc_field(default_factory=list)
    V: np.ndarray | None = None
    Vinv: np.ndarray | None = None

    def finalize(self):
        self.tags = []
        counters: dict = {}
        for blk in self.blocks:
            base = counters.get(blk.entity, 0)
            for j in range(blk.n):
                self.tags.append((*blk.entity, base + j))
            counters[blk.entity] = base + blk.n
        V = functional_matrix(self.blocks, GeneratorEval(self.basis, self.comp_gens)).T
        if V.shape[0] != V.shape[1]:
            raise ValueError(
                f"{self.family}: {V.shape[0]} DOFs for a {V.shape[1]}-dim shape space")
        self.V = V
        self.Vinv = np.linalg.inv(V)
        return self

    @property
    def ndof(self) -> int:
        return len(self.tags)

    @property
    def interior(self) -> np.ndarray:
        """Mask of the DOFs attached to the cell itself (the "c" entity)."""
        return np.array([tag[0] == "c" for tag in self.tags])

    @property
    def vshape(self):
        return np.asarray(self.comp_gens).shape[1:]

    def sv_ratio(self) -> float:
        return min_max_singular_ratio(self.V)

    def dof_values(self, field: PolyField) -> np.ndarray:
        """All DOF functionals on a (possibly batched) PolyField: (*batch, ndof).

        The functionals are tabulated on the field's basis times unit
        component generators, then contracted with its coefficients.
        """
        C = math.prod(field.vshape)
        units = np.eye(C).reshape(C, *field.vshape)
        F = functional_matrix(self.blocks, GeneratorEval(field.basis, units))
        return field.coeffs.reshape(*field.batch, -1) @ F

    def generator_fields(self) -> PolyField:
        return PolyField.generators(self.basis, self.comp_gens)

    def field_from_dofs(self, dofvals) -> PolyField:
        """The shape function with prescribed DOF values, as a PolyField."""
        return PolyField.from_coords(self.basis, np.asarray(dofvals) @ self.Vinv.T,
                                     self.comp_gens)


# ---------------------------------------------------------------------------
# generic block builders
# ---------------------------------------------------------------------------

def bubble_space(elem: Element) -> np.ndarray:
    """Generator coordinates of the shape functions killed by the DOFs that
    are not interior (those attached to the boundary entities)."""
    return nullspace(elem.V[~elem.interior])


def _dual_coords(v, dual, nv):
    """Coordinates of tensor values in a range basis: v (..., *vshape) -> (..., C).

    dual has shape (prod(vshape), C), i.e. pinv of the flattened generators.
    """
    flat = v.reshape(*v.shape[: v.ndim - nv], -1)
    return flat @ dual


def value_dofs_block(entity, pt, dual, nv, label="value"):
    pts = np.atleast_2d(np.asarray(pt, dtype=float))

    def fn(ev):
        v = ev.values(pts)
        v = np.take(v, 0, axis=v.ndim - nv - 1)
        return _dual_coords(v, dual, nv)

    return DofBlock(entity, dual.shape[1], fn, label)


def grad_dofs_block(entity, pt, dual, nv, gdim, label="grad"):
    """First derivatives at a point, component-major then derivative index."""
    pts = np.atleast_2d(np.asarray(pt, dtype=float))

    def fn(ev):
        g = ev.grads(pts)
        g = np.take(g, 0, axis=g.ndim - nv - 2)
        cols = [_dual_coords(g[..., d], dual, nv) for d in range(gdim)]
        out = np.stack(cols, axis=-1)
        return out.reshape(*out.shape[:-2], -1)

    return DofBlock(entity, dual.shape[1] * gdim, fn, label)


def hess_dofs_block(entity, pt, dual, nv, gdim, label="hess"):
    """Independent second derivatives (upper-triangular pairs), component-major."""
    pts = np.atleast_2d(np.asarray(pt, dtype=float))
    pairs = [(a, b) for a in range(gdim) for b in range(a, gdim)]

    def fn(ev):
        h = ev.hessians(pts)
        h = np.take(h, 0, axis=h.ndim - nv - 3)
        cols = [_dual_coords(h[..., a, b], dual, nv) for a, b in pairs]
        out = np.stack(cols, axis=-1)
        return out.reshape(*out.shape[:-2], -1)

    return DofBlock(entity, dual.shape[1] * len(pairs), fn, label)


def moment_block(entity, integrand, tests, weights, label=""):
    """Moments of a pointwise integrand against stored test fields.

    tests: (m, p, ...) values; weights folded in here once.  The integrand
    must be linear with constant coefficients and read one derivative order
    at one point set (see GeneratorEval.moments).
    """
    tw = tests * weights.reshape((1, -1) + (1,) * (tests.ndim - 2))
    return DofBlock(entity, tests.shape[0], lambda ev: ev.moments(integrand, tw), label)
