"""Shared DOF-functional machinery for the 2-D and 3-D element families.

A finite element is an ordered list of blocks; every block evaluates a batch
of functionals on anything that can report values / gradients / Hessians at
points.  The same block code builds Vandermonde matrices (generator batch) and
evaluates DOFs of concrete polynomial fields, so there is exactly one
definition of every functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import BernsteinBasis, PolyField
from .linalg import min_max_singular_ratio


def curl_from_grads(G):
    """Row-wise curl from gradient values G[..., i, k, j] = d_j of component (i,k)."""
    out = np.empty(G.shape[:-1])
    out[..., 0] = G[..., 2, 1] - G[..., 1, 2]
    out[..., 1] = G[..., 0, 2] - G[..., 2, 0]
    out[..., 2] = G[..., 1, 0] - G[..., 0, 1]
    return out


class PolyEval:
    """Evaluator protocol wrapper for a (possibly batched) PolyField."""

    def __init__(self, field: PolyField):
        self.field = field
        self._grad = None
        self._hess = None

    def values(self, pts):
        return self.field.eval(pts)

    def grads(self, pts):
        if self._grad is None:
            self._grad = self.field.grad()
        return self._grad.eval(pts)

    def hessians(self, pts):
        if self._hess is None:
            self._hess = self.field.hess()
        return self._hess.eval(pts)


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


@dataclass
class DofBlock:
    entity: tuple          # ("v"|"e"|"f"|"c", local index)
    n: int
    fn: object             # callable(evaluator) -> (..., n)
    label: str = ""


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
        gen = GeneratorEval(self.basis, self.comp_gens)
        cols = [np.atleast_2d(blk.fn(gen)) for blk in self.blocks if blk.n]
        V = np.concatenate(cols, axis=-1).T  # (ndof, ngen)
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
    def vshape(self):
        return np.asarray(self.comp_gens).shape[1:]

    def sv_ratio(self) -> float:
        return min_max_singular_ratio(self.V)

    def dof_values(self, field) -> np.ndarray:
        """Evaluate all DOF functionals on a PolyField or evaluator."""
        ev = PolyEval(field) if isinstance(field, PolyField) else field
        parts = [blk.fn(ev) for blk in self.blocks if blk.n]
        return np.concatenate([np.atleast_1d(p) for p in parts], axis=-1)

    def generator_fields(self) -> PolyField:
        return PolyField.generators(self.basis, self.comp_gens)

    def field_from_dofs(self, dofvals) -> PolyField:
        """The shape function with prescribed DOF values, as a PolyField."""
        coeffs = np.asarray(dofvals) @ self.Vinv.T  # (..., ngen)
        gens = np.asarray(self.comp_gens, dtype=float)
        C = len(gens)
        co = coeffs.reshape(*coeffs.shape[:-1], self.basis.N, C)
        full = np.tensordot(co, gens, axes=(-1, 0))
        return PolyField(self.basis, full, gens.shape[1:])


# ---------------------------------------------------------------------------
# generic block builders
# ---------------------------------------------------------------------------

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


_MOMENT_SUBS = {2: "...p,mp->...m", 3: "...pi,mpi->...m", 4: "...pij,mpij->...m"}


def moment_block(entity, integrand, tests, weights, label=""):
    """Moments of a pointwise integrand against stored test fields.

    tests: (m, p, ...) values; weights folded in here once.
    """
    tw = tests * weights.reshape((1, -1) + (1,) * (tests.ndim - 2))
    sub = _MOMENT_SUBS[tests.ndim]

    def fn(ev):
        vals = integrand(ev)
        return np.einsum(sub, vals, tw)

    return DofBlock(entity, tests.shape[0], fn, label)
