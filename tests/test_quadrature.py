import math

import numpy as np
import pytest

from divdivfem.fields import Simplex
from divdivfem.quadrature import REF_MEASURE, rule


def _monomial_integral_simplex(exponents):
    """int over the unit simplex of prod x_i^{a_i} = prod a_i! / (|a| + d)!."""
    d = len(exponents)
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(sum(exponents) + d)


@pytest.mark.parametrize("cell,dim", [("edge", 1), ("triangle", 2), ("tet", 3)])
@pytest.mark.parametrize("deg", [0, 1, 2, 3, 4, 7, 10, 14])
def test_monomial_exactness_sweep(cell, dim, deg):
    q = rule(cell, deg)
    assert abs(q.weights.sum() - REF_MEASURE[dim]) <= 1e-14
    ref = Simplex(np.vstack([np.zeros(dim), np.eye(dim)]))
    pts, w = q.on(ref)
    for expo in _all_exponents(dim, deg):
        val = (np.prod(pts ** np.asarray(expo), axis=1) * w).sum()
        exact = _monomial_integral_simplex(expo)
        assert abs(val - exact) <= 1e-12 * max(abs(exact), 1.0), (expo, val, exact)


def _all_exponents(dim, deg):
    if dim == 1:
        return [(a,) for a in range(deg + 1)]
    if dim == 2:
        return [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    return [(a, b, c) for a in range(deg + 1) for b in range(deg + 1 - a)
            for c in range(deg + 1 - a - b)]


def test_edge_degree_one_integrates_x():
    q = rule("edge", 1)
    seg = Simplex([[0.0], [1.0]])
    pts, w = q.on(seg)
    assert abs((pts[:, 0] * w).sum() - 0.5) <= 1e-14


def test_triangle_example_value():
    q = rule("triangle", 4)
    ref = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts, w = q.on(ref)
    val = (pts[:, 0] ** 2 * pts[:, 1] ** 2 * w).sum()
    assert abs(val - 1.0 / 180.0) <= 1e-15


def test_tet_total_weight():
    q = rule("tet", 0)
    assert abs(q.weights.sum() - 1.0 / 6.0) <= 1e-15


def test_reject_bad_inputs():
    with pytest.raises(ValueError):
        rule("tet", -1)
    with pytest.raises(ValueError):
        rule("tet", 1000)
    with pytest.raises(ValueError):
        rule("pyramid", 2)


def test_physical_scaling(rng):
    tri = Simplex(rng.random((3, 2)) + np.array([[0, 0], [2, 0], [0, 2]]))
    q = rule("triangle", 2)
    pts, w = q.on(tri)
    assert abs(w.sum() - tri.measure) <= 1e-13 * tri.measure


@pytest.mark.parametrize("verts", [
    [[0.3, 0.1], [2.1, 0.4], [0.2, 1.7]],
    [[0.0, 0.0, 0.0], [1.3, 0.1, 0.2], [0.2, 0.9, 0.1], [0.1, 0.3, 1.4]],
])
@pytest.mark.parametrize("n, m", [(3, 3), (4, 1), (0, 2)])
def test_bernstein_gram_matches_quadrature(verts, n, m):
    """The cached measure-free Gram matrix, scaled per simplex, is the L2 product."""
    s = Simplex(verts)
    q = rule(s.dim, n + m)
    _, w = q.on(s)
    Bn, Bm = s.basis(n).eval(q.bary), s.basis(m).eval(q.bary)
    ref = Bn.T @ (w[:, None] * Bm)
    G = s.basis(n).gram(s.basis(m))
    assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("verts", [[[0.0], [1.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                   [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]])
def test_bernstein_eval_matches_float_powers(verts, rng):
    """The power-table tabulation equals scale * prod(lam ** alpha) entry by
    entry to 1e-15 relative, inside the simplex and outside it."""
    cell = Simplex(verts)
    lam = rng.random((40, len(verts)))
    lam /= lam.sum(axis=1, keepdims=True)
    lam = np.vstack([lam, 2.0 * rng.random((10, len(verts))) - 0.5])
    for n in range(8):
        basis = cell.basis(n)
        ref = basis.scale * np.prod(lam[:, None, :] ** basis.alphas[None, :, :], axis=2)
        got = basis.eval(lam)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), n


def _loop_tables(basis):
    """The Bernstein tables as per-entry loops: the reference of the cached
    index tables behind gram, diff_ops and lambda_ops."""
    s, n = basis.simplex, basis.degree
    alphas = [tuple(a) for a in basis.alphas]
    lower = {tuple(a): i for i, a in enumerate(s.basis(max(n - 1, 0)).alphas)}
    upper = {tuple(a): i for i, a in enumerate(s.basis(n + 1).alphas)}
    diff = [np.zeros((len(lower), len(alphas))) for _ in range(s.gdim)]
    lam = [np.zeros((len(upper), len(alphas))) for _ in range(s.nvert)]
    for ai, a in enumerate(alphas):
        for i in range(s.nvert):
            up = list(a)
            up[i] += 1
            lam[i][upper[tuple(up)], ai] = (a[i] + 1) / (n + 1)
            if a[i]:
                down = list(a)
                down[i] -= 1
                for d in range(s.gdim):
                    diff[d][lower[tuple(down)], ai] += n * s.bary_grads[i, d]
    fac = math.factorial(s.dim) / math.factorial(2 * n + s.dim)
    gram = np.empty((len(alphas), len(alphas)))
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            prod = 1.0
            for ai, bi in zip(a, b):
                prod *= math.factorial(ai + bi)
            gram[i, j] = (math.factorial(n) // math.prod(map(math.factorial, a))
                          * (math.factorial(n) // math.prod(map(math.factorial, b)))
                          * fac * prod)
    return diff, lam, gram * s.measure


@pytest.mark.parametrize("verts", [[[0.3, 0.1], [2.1, 0.4], [0.2, 1.7]],
                                   [[0.0, 0.0, 0.0], [1.3, 0.1, 0.2], [0.2, 0.9, 0.1],
                                    [0.1, 0.3, 1.4]]])
def test_bernstein_tables_equal_the_entry_loops(verts):
    """diff_ops, lambda_ops and gram, built from index tables cached per
    (vertex count, degree), are bitwise the per-entry loops."""
    s = Simplex(verts)
    for n in range(6):
        basis = s.basis(n)
        diff, lam, gram = _loop_tables(basis)
        assert all(np.array_equal(a, b) for a, b in zip(basis.diff_ops, diff)), n
        assert all(np.array_equal(a, b) for a, b in zip(basis.lambda_ops, lam)), n
        assert np.array_equal(basis.gram(), gram), n
