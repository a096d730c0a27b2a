"""Exact polynomial calculus on simplices via barycentric Bernstein coefficients.

Every downstream object (DOF functionals, differentiation matrices, exactness
audits) is built on the coefficient calculus in this module: a polynomial of
degree n on a d-simplex is a vector over the Bernstein generating set
B_a = (n!/a!) lambda^a, |a| = n, and differentiation, degree raising,
multiplication by affine functions and restriction to sub-simplices are small
exact linear maps on those vectors.  No finite differences anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def multiindices(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of length nvars summing to degree, lexicographic."""
    if degree < 0:
        return ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree + 1):
        for rest in multiindices(nvars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(sorted(out))


def _multinomial(alpha) -> int:
    n = sum(alpha)
    c = math.factorial(n)
    for a in alpha:
        c //= math.factorial(a)
    return c


@lru_cache(maxsize=None)
def _unit_gram(dim: int, n: int, m: int) -> np.ndarray:
    """Bernstein Gram matrix of degrees n, m over a dim-simplex of unit measure."""
    A, B = multiindices(dim + 1, n), multiindices(dim + 1, m)
    fac = math.factorial(dim) / math.factorial(n + m + dim)
    G = np.empty((len(A), len(B)))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            prod = 1.0
            for ai, bi in zip(a, b):
                prod *= math.factorial(ai + bi)
            G[i, j] = _multinomial(a) * _multinomial(b) * fac * prod
    G.flags.writeable = False
    return G


class Simplex:
    """Affine d-simplex embedded in R^g, d <= g.

    Carries the barycentric coordinate functions: their (tangential) gradients
    and the simplex measure, which is all the Bernstein calculus needs.
    """

    def __init__(self, vertices):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be a (nvert, gdim) array")
        self.nvert, self.gdim = self.vertices.shape
        self.dim = self.nvert - 1
        if self.dim > self.gdim:
            raise ValueError("simplex dimension exceeds ambient dimension")
        T = (self.vertices[1:] - self.vertices[0]).T  # (g, d)
        gram = T.T @ T
        det = float(np.linalg.det(gram)) if self.dim > 0 else 1.0
        if not np.isfinite(det) or det <= 0.0:
            raise ValueError("degenerate simplex (zero measure)")
        self.measure = math.sqrt(det) / math.factorial(self.dim)
        if self.dim > 0:
            Tp = np.linalg.solve(gram, T.T)  # (d, g), rows = grad u_i
        else:
            Tp = np.zeros((0, self.gdim))
        self.bary_grads = np.vstack([-Tp.sum(axis=0), Tp])  # (nvert, g)
        self._bases: dict[int, BernsteinBasis] = {}

    def basis(self, degree: int) -> "BernsteinBasis":
        if degree not in self._bases:
            self._bases[degree] = BernsteinBasis(self, degree)
        return self._bases[degree]

    def barycentric(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lam = (pts - self.vertices[0]) @ self.bary_grads.T
        lam[:, 0] += 1.0
        return lam

    def points(self, bary) -> np.ndarray:
        return np.asarray(bary, dtype=float) @ self.vertices

    def facet(self, local_vertices) -> "Simplex":
        return Simplex(self.vertices[list(local_vertices)])


class BernsteinBasis:
    """Bernstein generating set of fixed degree on one simplex."""

    def __init__(self, simplex: Simplex, degree: int):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.simplex = simplex
        self.degree = degree
        self.alphas = np.array(multiindices(simplex.nvert, degree), dtype=int)
        self.N = len(self.alphas)
        self.scale = np.array([_multinomial(a) for a in self.alphas], dtype=float)
        self._index = {tuple(a): i for i, a in enumerate(self.alphas)}
        self._diff_ops = None
        self._lambda_ops = None

    def eval(self, bary) -> np.ndarray:
        """Tabulate all members at barycentric points: (npts, N)."""
        lam = np.atleast_2d(np.asarray(bary, dtype=float))
        vals = np.prod(lam[:, None, :] ** self.alphas[None, :, :], axis=2)
        return self.scale * vals

    @property
    def diff_ops(self) -> list[np.ndarray]:
        """Coefficient matrices of d/dx_j, degree n -> n-1, one per ambient axis."""
        if self._diff_ops is None:
            lower = self.simplex.basis(max(self.degree - 1, 0))
            mats = [np.zeros((lower.N, self.N)) for _ in range(self.simplex.gdim)]
            if self.degree > 0:
                g = self.simplex.bary_grads
                for ai, a in enumerate(self.alphas):
                    for i in range(self.simplex.nvert):
                        if a[i] == 0:
                            continue
                        b = a.copy()
                        b[i] -= 1
                        bi = lower._index[tuple(b)]
                        for d in range(self.simplex.gdim):
                            mats[d][bi, ai] += self.degree * g[i, d]
            self._diff_ops = mats
        return self._diff_ops

    @property
    def lambda_ops(self) -> list[np.ndarray]:
        """Multiplication by lambda_i, degree n -> n+1."""
        if self._lambda_ops is None:
            upper = self.simplex.basis(self.degree + 1)
            ops = [np.zeros((upper.N, self.N)) for _ in range(self.simplex.nvert)]
            for ai, a in enumerate(self.alphas):
                for i in range(self.simplex.nvert):
                    b = a.copy()
                    b[i] += 1
                    ops[i][upper._index[tuple(b)], ai] = (a[i] + 1) / (self.degree + 1)
            self._lambda_ops = ops
        return self._lambda_ops

    def raise_op(self) -> np.ndarray:
        # 1 = sum_i lambda_i
        return sum(self.lambda_ops)

    def affine_mult_op(self, vertex_values) -> np.ndarray:
        """Multiplication by the affine function with the given vertex values."""
        vals = np.asarray(vertex_values, dtype=float)
        return sum(v * op for v, op in zip(vals, self.lambda_ops))

    def gram(self, other: "BernsteinBasis | None" = None) -> np.ndarray:
        """Exact L2 products int B^n_a B^m_b over the simplex."""
        other = other if other is not None else self
        return self.simplex.measure * _unit_gram(self.simplex.dim, self.degree, other.degree)

    def restriction(self, local_vertices) -> tuple["BernsteinBasis", np.ndarray]:
        """Restrict to the sub-simplex spanned by local_vertices (in that order).

        Bernstein members supported away from the facet vanish there, so the
        restriction is a coefficient selection, exact by construction.
        """
        lv = list(local_vertices)
        sub = self.simplex.facet(lv).basis(self.degree)
        R = np.zeros((sub.N, self.N))
        others = [j for j in range(self.simplex.nvert) if j not in lv]
        for i, a in enumerate(self.alphas):
            if any(a[j] for j in others):
                continue
            R[sub._index[tuple(a[lv])], i] = 1.0
        return sub, R

    def corner_indices(self) -> np.ndarray:
        """Generator indices of the members not vanishing at a vertex."""
        idx = [self._index[tuple(self.degree * np.eye(self.simplex.nvert, dtype=int)[v])]
               for v in range(self.simplex.nvert)]
        return np.array(idx, dtype=int)


def _apply_left(mat: np.ndarray, coeffs: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, coeffs, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


class PolyField:
    """Polynomial field with value shape vshape; coefficients (*batch, N, *vshape)."""

    __slots__ = ("basis", "coeffs", "vshape")

    def __init__(self, basis: BernsteinBasis, coeffs, vshape: tuple[int, ...]):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.vshape = tuple(vshape)
        nv = len(self.vshape)
        ok = (self.coeffs.ndim >= nv + 1
              and self.coeffs.shape[self.coeffs.ndim - nv - 1] == basis.N
              and (nv == 0 or self.coeffs.shape[-nv:] == self.vshape))
        if not ok:
            raise ValueError("coefficient array does not match basis/vshape")

    # -- construction helpers -------------------------------------------------
    @classmethod
    def zero(cls, basis, vshape=(), batch=()):
        return cls(basis, np.zeros((*batch, basis.N, *vshape)), vshape)

    @classmethod
    def from_coords(cls, basis, coords, comp_gens) -> "PolyField":
        """The field with generator coordinates coords (*batch, N * C), column
        a * C + c the coefficient of B_a G_c: the inverse of poly.to_range_coords."""
        gens = np.asarray(comp_gens, dtype=float)
        co = coords.reshape(*coords.shape[:-1], basis.N, len(gens))
        return cls(basis, np.tensordot(co, gens, axes=(-1, 0)), gens.shape[1:])

    @classmethod
    def generators(cls, basis, comp_gens) -> "PolyField":
        """Batched field of all N*C generators B_a * G_c, batch index a*C + c."""
        return cls.from_coords(basis, np.eye(basis.N * len(comp_gens)), comp_gens)

    @property
    def nax(self) -> int:
        return self.coeffs.ndim - len(self.vshape) - 1

    @property
    def batch(self) -> tuple[int, ...]:
        return self.coeffs.shape[: self.nax]

    @property
    def degree(self) -> int:
        return self.basis.degree

    # -- evaluation ------------------------------------------------------------
    def eval(self, points) -> np.ndarray:
        """Values at physical points: (*batch, npts, *vshape)."""
        lam = self.basis.simplex.barycentric(points)
        E = self.basis.eval(lam)
        return _apply_left(E, self.coeffs, self.nax)

    # -- calculus ---------------------------------------------------------------
    def partial(self, axis: int) -> "PolyField":
        D = self.basis.diff_ops[axis]
        return PolyField(self.basis.simplex.basis(max(self.degree - 1, 0)),
                         _apply_left(D, self.coeffs, self.nax), self.vshape)

    def directional(self, vec) -> "PolyField":
        vec = np.asarray(vec, dtype=float)
        D = sum(v * M for v, M in zip(vec, self.basis.diff_ops))
        return PolyField(self.basis.simplex.basis(max(self.degree - 1, 0)),
                         _apply_left(D, self.coeffs, self.nax), self.vshape)

    def grad(self) -> "PolyField":
        """Append the derivative axis last: (grad v)[..., j] = d_j v[...]."""
        parts = [self.partial(j).coeffs for j in range(self.basis.simplex.gdim)]
        coeffs = np.stack(parts, axis=-1)
        return PolyField(self.basis.simplex.basis(max(self.degree - 1, 0)),
                         coeffs, self.vshape + (self.basis.simplex.gdim,))

    def hess(self) -> "PolyField":
        return self.grad().grad()

    def div(self) -> "PolyField":
        """Contract the last value axis against the derivatives (row-wise div)."""
        if not self.vshape or self.vshape[-1] != self.basis.simplex.gdim:
            raise ValueError("div needs a trailing value axis matching gdim")
        parts = [self.partial(j).coeffs[..., j] for j in range(self.basis.simplex.gdim)]
        return PolyField(self.basis.simplex.basis(max(self.degree - 1, 0)),
                         sum(parts), self.vshape[:-1])

    def curl(self) -> "PolyField":
        """3-D curl over the last value axis (row-wise for matrix fields)."""
        if self.basis.simplex.gdim != 3 or not self.vshape or self.vshape[-1] != 3:
            raise ValueError("curl needs gdim 3 and trailing axis of length 3")
        p = [self.partial(j).coeffs for j in range(3)]
        comps = [
            p[1][..., 2] - p[2][..., 1],
            p[2][..., 0] - p[0][..., 2],
            p[0][..., 1] - p[1][..., 0],
        ]
        return PolyField(self.basis.simplex.basis(max(self.degree - 1, 0)),
                         np.stack(comps, axis=-1), self.vshape)

    # -- algebra -----------------------------------------------------------------
    def raise_to(self, degree: int) -> "PolyField":
        if degree < self.degree:
            raise ValueError("cannot lower degree")
        out = self
        while out.degree < degree:
            R = out.basis.raise_op()
            out = PolyField(out.basis.simplex.basis(out.degree + 1),
                            _apply_left(R, out.coeffs, out.nax), out.vshape)
        return out

    def times_affine(self, vertex_values) -> "PolyField":
        M = self.basis.affine_mult_op(vertex_values)
        return PolyField(self.basis.simplex.basis(self.degree + 1),
                         _apply_left(M, self.coeffs, self.nax), self.vshape)

    def times_coord(self, axis: int) -> "PolyField":
        return self.times_affine(self.basis.simplex.vertices[:, axis])

    def times_bubble(self) -> "PolyField":
        """Multiply by the product of all barycentric coordinates."""
        out = self
        for i in range(self.basis.simplex.nvert):
            op = out.basis.lambda_ops[i]
            out = PolyField(out.basis.simplex.basis(out.degree + 1),
                            _apply_left(op, out.coeffs, out.nax), out.vshape)
        return out

    def restrict(self, local_vertices) -> "PolyField":
        sub, R = self.basis.restriction(local_vertices)
        return PolyField(sub, _apply_left(R, self.coeffs, self.nax), self.vshape)

    def map_components(self, fn) -> "PolyField":
        """Apply a pointwise linear map given as fn(coeffs)->coeffs on value axes."""
        out = fn(self.coeffs)
        return PolyField(self.basis, out, out.shape[self.nax + 1:])

    def __add__(self, other: "PolyField") -> "PolyField":
        deg = max(self.degree, other.degree)
        a, b = self.raise_to(deg), other.raise_to(deg)
        return PolyField(a.basis, a.coeffs + b.coeffs, a.vshape)

    def __sub__(self, other: "PolyField") -> "PolyField":
        return self + other.__mul__(-1.0)

    def __mul__(self, scalar: float) -> "PolyField":
        return PolyField(self.basis, scalar * self.coeffs, self.vshape)

    __rmul__ = __mul__

    def flat(self) -> np.ndarray:
        """Coefficients flattened to (*batch, N * prod(vshape))."""
        return self.coeffs.reshape(*self.batch, -1)
