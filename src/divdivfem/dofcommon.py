"""Shared DOF-functional machinery for the 2-D and 3-D element families.

A finite element's functionals come in groups.  A group holds the moments
that read one derivative order on the entities of one kind (the vertices,
the edges, the faces or the cell), stacked on an entity axis; each entity
reads at its own points.  A GeneratorEval (a Bernstein basis times component
generators) evaluates a group by one contraction of the integrands with the
tests and one with the scalar tabulation, both batched over the entities
(point values and derivatives are moments against a Dirac).  The same groups
build Vandermonde matrices (the element's generators) and evaluate DOFs of
concrete polynomial fields (unit generators contracted with the field's
coefficients), so there is exactly one definition and one evaluation path of
every functional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import BernsteinBasis, PolyField, Simplex, probe
from .linalg import min_max_singular_ratio, nullspace


@dataclass
class Part:
    """Moments of one integrand against one batch of tests, on every entity
    of a group.

    integrand maps the group's probe (C, D, *vshape, [g]*order), every
    component generator G_c times every derivative direction e_d, to its
    value on each entity, (E or 1, C, D, *ishape): a pointwise linear map
    with constant coefficients (frame vectors stacked on the entity axis).
    tests: (E or 1, m, p, *ishape) values at the points of the group's point
    set `at`.
    """

    integrand: object
    tests: np.ndarray
    at: int = 0


@dataclass
class DofGroup:
    """The moments of one derivative order on the entities of one kind.

    points: point sets [(pts (E, p, g), weights (E, p)), ...] read by the
    parts, which are listed point set by point set.  An entity's DOFs in
    the group are its parts' tests in order.
    """

    kind: str
    order: int
    points: list
    parts: list

    @property
    def nent(self) -> int:
        return len(self.points[0][0])

    @property
    def n(self) -> int:
        """DOFs per entity."""
        return sum(part.tests.shape[1] for part in self.parts)


class GeneratorEval:
    """Moments of all N*C shape generators B_a G_c at once, read on a stack of
    translates x -> x + shifts[s]: batch index (s*N + a)*C + c.  An element's
    own generators are the zero translate alone."""

    def __init__(self, basis: BernsteinBasis, comp_gens, shifts=None):
        self.basis = basis
        self.gens = np.asarray(comp_gens, dtype=float)
        self.shifts = np.zeros((1, basis.simplex.gdim)) if shifts is None else shifts

    def tabulation(self, pts: np.ndarray, order: int) -> np.ndarray:
        """Scalar tabulation at every entity's points moved by every shift:
        (E, p, nshifts * N * g ** order), column (s * N + a) * g ** order + d."""
        b = self.basis
        g = b.simplex.gdim
        # row q * nshifts + s: point q moved by shift s, whose barycentric
        # coordinates (affine in x) move by s . grad lambda
        lam = b.simplex.barycentric(pts.reshape(-1, g))
        lam = (lam[:, None] + self.shifts @ b.simplex.bary_grads.T).reshape(-1, lam.shape[1])
        if order == 0:
            tab = b.eval(lam)
        else:
            E = b.simplex.basis(max(b.degree - order, 0)).eval(lam)
            tab = np.stack([E @ D for D in b.derivative_table(order)], axis=-1)  # (rows, N, D)
        return tab.reshape(*pts.shape[:2], -1)

    def moments(self, group: DofGroup) -> np.ndarray:
        """The group's moments of every generator on every entity:
        (E, nshifts*N*C, group.n).

        Per point set, U = F . tw: the integrand on the probe F against the
        tests tw of every part read there, over the value axes, a product per
        entity and point; then T . U over (point, direction), T the scalar
        tabulation times the weights, a product per entity.
        """
        g = self.basis.simplex.gdim
        C, D = len(self.gens), g ** group.order
        X = probe(self.gens, g, group.order)
        E = group.nent
        outs, b = [], 0
        for at, (pts, w) in enumerate(group.points):
            p, Us = pts.shape[1], []
            while b < len(group.parts) and group.parts[b].at == at:
                part, b = group.parts[b], b + 1
                m, ishape = part.tests.shape[1], part.tests.shape[3:]
                if part.tests.shape[2] != p:
                    raise ValueError("a part's tests must be read at one point set of its group")
                F = np.asarray(part.integrand(X))
                if F.shape[1:] != (C, D, *ishape) or F.shape[0] not in (1, E):
                    raise ValueError("a moment integrand must map the probe of one "
                                     "derivative order to the tests' value shape on each "
                                     "entity: its coefficients may not depend on position")
                F = np.swapaxes(F, 1, 2).reshape(len(F), 1, D * C, -1)      # (E|1, 1, DC, I)
                tw = part.tests.reshape(len(part.tests), m, p, -1).transpose(0, 2, 3, 1)
                Us.append(F @ tw)                                            # (E|1, p, DC, m)
            if not Us:
                continue
            U = np.concatenate([np.broadcast_to(u, (E, *u.shape[1:])) for u in Us], axis=3) \
                if len(Us) > 1 else Us[0]
            T = self.tabulation(pts, group.order) * w[:, :, None]           # (E, p, S*N*D)
            T = np.swapaxes(T.reshape(E, p, -1, D), 1, 2).reshape(E, -1, p * D)
            out = T @ U.reshape(len(U), p * D, -1)                           # (E, S*N, C*M)
            outs.append(out.reshape(E, out.shape[1], C, -1))
        if b != len(group.parts):
            raise ValueError("a group lists its parts point set by point set")
        return np.concatenate(outs, axis=3).reshape(E, -1, group.n)


def functional_matrix(groups, gen: GeneratorEval) -> np.ndarray:
    """Every functional of the groups on every generator: (nshifts*N*C, ndof),
    in the element's order: the kinds in the order their groups first appear,
    within a kind entity by entity, and an entity's DOFs group by group."""
    kinds: dict = {}
    for group in groups:
        if group.n:
            kinds.setdefault(group.kind, []).append(gen.moments(group))
    cols = []
    for outs in kinds.values():
        out = np.concatenate(outs, axis=2)                              # (E, rows, M)
        cols.append(out.transpose(1, 0, 2).reshape(out.shape[1], -1))
    return np.concatenate(cols, axis=1)


@dataclass
class Element:
    family: str
    k: int
    simplex: object
    basis: BernsteinBasis
    comp_gens: np.ndarray
    groups: list
    tags: list = dc_field(default_factory=list)
    V: np.ndarray | None = None
    Vinv: np.ndarray | None = None

    def finalize(self):
        per_kind: dict = {}                     # kind -> [DOFs per entity, entities]
        for group in self.groups:
            per_kind.setdefault(group.kind, [0, group.nent])[0] += group.n
        self.tags = [(kind, e, j) for kind, (n, nent) in per_kind.items()
                     for e in range(nent) for j in range(n)]
        V = functional_matrix(self.groups, GeneratorEval(self.basis, self.comp_gens)).T
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
        F = functional_matrix(self.groups, GeneratorEval(field.basis, units, shifts))
        F = F.reshape(-1, field.basis.N * C, F.shape[-1])      # (nshifts, N*C, ndof)
        out = np.tensordot(field.coeffs.reshape(*field.batch, -1), F, axes=(-1, 1))
        return out if shifts is not None else out[..., 0, :]


# ---------------------------------------------------------------------------
# generic group builders
# ---------------------------------------------------------------------------

def bubble_space(elem: Element) -> np.ndarray:
    """Generator coordinates of the shape functions killed by the DOFs that
    are not interior (those attached to the boundary entities)."""
    return nullspace(elem.V[~elem.interior])


def vertex_groups(vertices, dual, order: int) -> list[DofGroup]:
    """Value and derivatives of orders 1..order at every vertex, one group
    per order.

    A point functional is the moment against the Dirac at the vertex: one
    point, weight 1.  Group o holds the o-th derivative in each direction
    a_1 <= ... <= a_o (the upper-triangular pairs for o = 2) in range
    coordinates, component-major: the test of range coordinate j and
    direction a is dual[:, j] (x) e_a, dual the pinv of the flattened
    generators.
    """
    pts = np.asarray(vertices, dtype=float)[:, None, :]
    nv, g = dual.shape[0], pts.shape[2]
    points = [(pts, np.ones(pts.shape[:2]))]
    groups = []
    for o in range(order + 1):
        dirs = [sum(a * g ** (o - 1 - i) for i, a in enumerate(t))
                for t in itertools.combinations_with_replacement(range(g), o)]
        tests = np.zeros((dual.shape[1], len(dirs), nv, g ** o))
        for i, d in enumerate(dirs):
            tests[:, i, :, d] = dual.T
        groups.append(DofGroup("v", o, points, [Part(
            lambda X: X.reshape(1, *X.shape[:2], -1),
            tests.reshape(1, -1, 1, nv * g ** o))]))
    return groups


def bernstein_tests(q, deg: int, corners: bool = True) -> np.ndarray:
    """Bernstein tabulation of degree deg at a quadrature rule's points,
    (1, m, p); without corners, the members that vanish at every vertex
    (P_{deg,0}).  It is a function of the barycentric points alone, so one
    array serves every entity of the rule's dimension."""
    if deg < 0:
        return np.zeros((1, 0, len(q.weights)))
    d = q.cell_dim
    basis = Simplex(np.vstack([np.zeros(d), np.eye(d)])).basis(deg)
    tab = basis.eval(q.bary).T
    if not corners:
        tab = np.delete(tab, basis.corner_indices(), axis=0)
    return tab[None]


def componentwise(tests: np.ndarray, ncomp: int) -> np.ndarray:
    """Scalar tests (..., m, p) as tests of each of ncomp value components in
    turn, (..., ncomp * m, p, ncomp): component-major."""
    out = np.zeros((*tests.shape[:-2], ncomp, tests.shape[-2], tests.shape[-1], ncomp))
    for c in range(ncomp):
        out[..., c, :, :, c] = tests
    return out.reshape(*tests.shape[:-2], -1, tests.shape[-1], ncomp)
