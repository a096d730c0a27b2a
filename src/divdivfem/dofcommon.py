"""Shared DOF-functional machinery for the 2-D and 3-D element families.

A finite element is an ordered list of blocks; every block maps a
GeneratorEval (a Bernstein basis times component generators) to the values of
a batch of functionals on every generator, by one GeneratorEval.moments call
(point values and derivatives are moments against a Dirac).  The same block
code builds Vandermonde matrices (the element's generators) and evaluates
DOFs of concrete polynomial fields (unit generators contracted with the
field's coefficients), so there is exactly one definition and one evaluation
path of every functional.
"""

from __future__ import annotations

import itertools
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
    """Moments of all N*C shape generators B_a G_c at once, read on a stack of
    translates x -> x + shifts[s]: batch index (s*N + a)*C + c.  An element's
    own generators are the zero translate alone."""

    def __init__(self, basis: BernsteinBasis, comp_gens, shifts=None):
        self.basis = basis
        self.gens = np.asarray(comp_gens, dtype=float)
        self.shifts = np.zeros((1, basis.simplex.gdim)) if shifts is None else shifts
        self._tabs: dict = {}

    def _scalar_tabs(self, pts, order: int):
        """Tabulation (p, nshifts * N, g ** order) at pts + every shift."""
        key = (id(pts), order)
        if key in self._tabs:
            return self._tabs[key]
        b = self.basis
        g = b.simplex.gdim
        # row p * nshifts + s: point p moved by shift s, whose barycentric
        # coordinates (affine in x) move by s . grad lambda
        lam = b.simplex.barycentric(pts)
        lam = (lam[:, None] + self.shifts @ b.simplex.bary_grads.T).reshape(-1, lam.shape[1])
        if order == 0:
            tab = b.eval(lam)
        elif order == 1:
            lo = b.simplex.basis(max(b.degree - 1, 0))
            E = lo.eval(lam)
            tab = np.stack([E @ D for D in b.diff_ops], axis=-1)  # (rows, N, g)
        else:
            lo = b.simplex.basis(max(b.degree - 1, 0))
            lo2 = b.simplex.basis(max(b.degree - 2, 0))
            E = lo2.eval(lam)
            tab = np.empty((len(lam), b.N, g, g))
            for d1 in range(g):
                for d2 in range(g):
                    tab[:, :, d1, d2] = E @ (lo.diff_ops[d2] @ b.diff_ops[d1])
        tab = tab.reshape(len(pts), -1, g ** order)
        self._tabs[key] = tab
        return tab

    def moments(self, integrand, tw):
        """Moments (nshifts*N*C, m) of integrand(generator) against tests tw.

        tw: (m, p, *ishape), test values times quadrature weights.  The
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
        T = self._scalar_tabs(pts, order)                         # (p, nshifts*N, D)
        out = np.tensordot(T, U, axes=([0, 2], [3, 1]))           # (nshifts*N, C, m)
        return out.reshape(T.shape[1] * C, -1)


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

    def dof_values(self, field: PolyField, shifts=None) -> np.ndarray:
        """All DOF functionals on a (possibly batched) PolyField: (*batch, ndof).

        With shifts (nshifts, g), the functionals of every translate
        x -> field(x + shifts[s]) at once: (*batch, nshifts, ndof).  They are
        tabulated on the field's basis times unit component generators, then
        contracted with its coefficients.
        """
        C = math.prod(field.vshape)
        units = np.eye(C).reshape(C, *field.vshape)
        F = functional_matrix(self.blocks, GeneratorEval(field.basis, units, shifts))
        F = F.reshape(-1, field.basis.N * C, F.shape[-1])      # (nshifts, N*C, ndof)
        out = np.tensordot(field.coeffs.reshape(*field.batch, -1), F, axes=(-1, 1))
        return out if shifts is not None else out[..., 0, :]


# ---------------------------------------------------------------------------
# generic block builders
# ---------------------------------------------------------------------------

def bubble_space(elem: Element) -> np.ndarray:
    """Generator coordinates of the shape functions killed by the DOFs that
    are not interior (those attached to the boundary entities)."""
    return nullspace(elem.V[~elem.interior])


def point_blocks(entity, pt, dual, order: int) -> list[DofBlock]:
    """Value and derivatives of orders 1..order at the point pt, one block each.

    A point functional is the moment against the Dirac at pt: one point,
    weight 1.  Block o holds the o-th derivative in each direction
    a_1 <= ... <= a_o (the upper-triangular pairs for o = 2) in range
    coordinates, component-major.  The tests are unit value tensors times
    unit direction tensors, so each moment is one product of the tabulation
    with a generator entry, exactly the derivative; dual (pinv of the
    flattened generators) then maps the values to range coordinates.  (Dual
    columns as tests would multiply the tabulation by generators . dual,
    which is the identity only to 4e-16, and move the Vandermondes.)
    """
    pts = np.atleast_2d(np.asarray(pt, dtype=float))
    g = pts.shape[1]
    nv = dual.shape[0]
    blocks = []
    for o, read in enumerate(("values", "grads", "hessians")[: order + 1]):
        dirs = [sum(a * g ** (o - 1 - i) for i, a in enumerate(t))
                for t in itertools.combinations_with_replacement(range(g), o)]
        # test (v, d): the unit tensor e_v (x) e_d, flattened like the integrand
        rows = [v * g ** o + d for v in range(nv) for d in dirs]

        def integrand(ev, read=read):
            F = getattr(ev, read)(pts)
            return F.reshape(*F.shape[:3], -1)

        def fn(ev, integrand=integrand, rows=rows, nd=len(dirs), size=nv * g ** o):
            # built per call, so that an element does not keep them per vertex
            tests = np.eye(size)[rows][:, None]             # (nv * nd, 1, size)
            vals = ev.moments(integrand, tests).reshape(-1, nv, nd)
            out = np.stack([vals[:, :, i] @ dual for i in range(nd)], axis=-1)
            return out.reshape(len(out), -1)

        blocks.append(DofBlock(entity, dual.shape[1] * len(dirs), fn, read))
    return blocks


def moment_block(entity, integrand, tests, weights, label=""):
    """Moments of a pointwise integrand against stored test fields.

    tests: (m, p, ...) values; weights folded in at each evaluation, so that
    the cells of a translation class hold one copy of the tests between them.
    The integrand must be linear with constant coefficients and read one
    derivative order at one point set (see GeneratorEval.moments).
    """
    w = weights.reshape((1, -1) + (1,) * (tests.ndim - 2))
    return DofBlock(entity, tests.shape[0], lambda ev: ev.moments(integrand, tests * w),
                    label)
