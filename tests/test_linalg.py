from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from divdivfem import complex_asm, eb_solver, linalg, mesh, poly
from divdivfem.linalg import (front_rank, one_blas_thread, product_max, qr_rank, rank_exact,
                              svd_rank)


def _with_spectrum(rng, m, n, s):
    """An m x n matrix with singular values s (padded with zeros)."""
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = np.zeros((m, n))
    S[np.arange(len(s)), np.arange(len(s))] = s
    return U @ S @ V.T


@pytest.mark.parametrize("shape", [(120, 40), (40, 120), (80, 80)])
@pytest.mark.parametrize("rank", [0, 7, 40])
def test_qr_rank_matches_svd_rank_on_prescribed_spectra(rng, shape, rank):
    # singular values spread from 1 down to 1e-6, the rest exactly 0 (rank 0
    # is the zero matrix)
    M = _with_spectrum(rng, *shape, np.logspace(0, -6, rank))
    assert qr_rank(M) == svd_rank(M) == rank


@pytest.mark.parametrize("shape", [(120, 40), (40, 120), (80, 80)])
def test_qr_rank_takes_sparse_input_and_leaves_dense_input_intact(rng, shape):
    """qr_rank factors its own copy: a sparse input gives the dense rank, and
    a dense input, in either memory order, is not modified."""
    M = _with_spectrum(rng, *shape, np.logspace(0, -6, 30))
    for dense in (M, np.asfortranarray(M)):
        kept = dense.copy()
        assert qr_rank(dense) == 30
        assert np.array_equal(dense, kept)
    assert qr_rank(sp.csr_matrix(M)) == qr_rank(sp.csc_matrix(M)) == 30


TAU = 1e-9


@pytest.mark.parametrize("shape", [(120, 40), (40, 120), (80, 80)])
@pytest.mark.parametrize("rank", [0, 7, 40])
def test_front_ranks_match_svd_rank_on_clear_gaps(rng, shape, rank):
    """Singular values from 1 down to 1e-6 and exact zeros, tau = 1e-9: the
    front QR certifies svd_rank's rank."""
    M = _with_spectrum(rng, *shape, np.logspace(0, -6, rank))
    assert front_rank(M, M.shape[1], TAU)[0] == svd_rank(M) == rank


@pytest.mark.parametrize("factor", [1.9, 1.5, 1 / 1.5, 1 / 1.9])
@pytest.mark.parametrize("shape", [(60, 20), (20, 60)])
def test_rank_decisions_within_factor_two_of_tau_rejected(rng, shape, factor):
    """A singular value within a factor 2 of tau, kept or dropped, leaves the
    decision uncertified: ValueError from the front QR."""
    M = _with_spectrum(rng, *shape, np.r_[np.logspace(0, -3, 5), factor * TAU])
    with pytest.raises(ValueError, match="not certified"):
        front_rank(M, M.shape[1], TAU)


@pytest.mark.parametrize("m", [30, 90])
def test_front_contribution_carries_the_rest_of_the_rank(rng, m):
    """rank F = rank of the own columns + rank of the rows passed up, and the
    rows passed up are no more than the other columns."""
    own = _with_spectrum(rng, m, 25, np.logspace(0, -4, 12))
    other = rng.standard_normal((m, 3)) @ rng.standard_normal((3, 40))
    F = np.hstack([own, other, own[:, :5] @ rng.standard_normal((5, 4))])
    r, rest = front_rank(F, 25, TAU)
    assert r == 12
    assert rest.shape[1] == 44 and rest.shape[0] <= 44
    assert r + svd_rank(rest) == svd_rank(F) == 15


def _dense_rank_exact(rows) -> int:
    """Oracle: dense Gaussian elimination over Q, column by column, on full
    Fraction rows (the first nonzero entry of each column is the pivot)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        pval = mat[row][col]
        for r in range(row + 1, nrows):
            if mat[r][col] != 0:
                factor = mat[r][col] / pval
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _sparse_rational(rng, m, n, nbase, density=0.15):
    """m x n rows of Fractions: nbase random sparse rows of small rationals,
    the other m - nbase rows rational combinations of two of them (planted
    dependent rows), in shuffled order; ints and Fractions mixed."""
    def small(lo, hi):
        return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, 4)))

    base = [[small(-5, 6) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(nbase)]
    rows = list(base)
    for _ in range(m - nbase):
        if not base:
            rows.append([0] * n)
            continue
        i, j = rng.integers(len(base), size=2)
        a, b = small(-3, 4), small(-3, 4)
        rows.append([a * x + b * y for x, y in zip(base[i], base[j])])
    return [rows[i] for i in rng.permutation(m)]


@pytest.mark.parametrize("m, n, nbase", [(40, 15, 10), (15, 40, 12), (25, 25, 18),
                                         (25, 25, 25), (8, 30, 8), (6, 9, 0)],
                         ids=["tall", "wide", "square", "square-full", "wide-full",
                              "all-zero"])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_rank_exact_matches_dense_oracle(m, n, nbase, seed):
    rows = _sparse_rational(np.random.default_rng(seed), m, n, nbase)
    want = _dense_rank_exact(rows)
    assert rank_exact(rows) == want
    assert want <= nbase
    # the rank of the transpose is the same
    assert rank_exact([list(col) for col in zip(*rows)]) == want


def test_rank_exact_of_empty_matrices():
    assert rank_exact([]) == 0
    assert rank_exact([[], []]) == 0
    assert rank_exact([[0, 0], [Fraction(0), 0]]) == 0


def test_rank_exact_takes_numpy_integers():
    assert rank_exact(np.array([[2, 4], [1, 2], [0, 3]])) == 2


@pytest.mark.parametrize("rows", [[[0.0]], [[1, 0.0]], [[Fraction(1), 2], [3, 0.0]],
                                  [[0, np.float64(0.0)]], [[0.5]], np.zeros((1, 1)),
                                  np.array([[1.0, 2.0]])])
def test_rank_exact_rejects_floats_even_zero_ones(rows):
    with pytest.raises(TypeError):
        rank_exact(rows)


def _random_pair(rng, case):
    """A (m x k) and B (k x n), random sparse CSR, and the owner of each row of A."""
    m, k, n = 60, 45, 50
    A = sp.random(m, k, density=0.15, random_state=rng, format="csr")
    B = sp.random(k, n, density=0.2, random_state=rng, format="csr")
    owner = rng.integers(0, 9, m)
    if case == "empty rows":
        keep = np.ones(m)
        keep[rng.choice(m, 20, replace=False)] = 0.0
        A = sp.diags(keep) @ A
        A.eliminate_zeros()
        B = B.tolil()
        B[::3] = 0.0
        B = B.tocsr()
    elif case == "empty groups":
        owner = 3 * owner + 2                   # cells 0, 1, 3, 4, ... own nothing
    elif case == "unsorted indices":
        for M in (A, B):
            for i in range(M.shape[0]):
                lo, hi = M.indptr[i], M.indptr[i + 1]
                order = rng.permutation(hi - lo)
                M.indices[lo:hi], M.data[lo:hi] = M.indices[lo:hi][order], M.data[lo:hi][order]
            M.has_sorted_indices = False
        assert any(np.any(np.diff(A.indices[A.indptr[i]:A.indptr[i + 1]]) < 0) for i in range(m))
    elif case == "duplicate entries":
        # each nonempty row stores its first entry twice more, split in parts
        rows = []
        for i in range(m):
            cols, vals = A.indices[A.indptr[i]:A.indptr[i + 1]], A.data[A.indptr[i]:A.indptr[i + 1]]
            if len(cols):
                cols, vals = np.r_[cols, cols[:1]], np.r_[0.25 * vals[:1], vals[1:], 0.75 * vals[:1]]
            rows.append((cols, vals))
        indptr = np.r_[0, np.cumsum([len(c) for c, _ in rows])]
        A = sp.csr_matrix((np.concatenate([v for _, v in rows]),
                           np.concatenate([c for c, _ in rows]), indptr), shape=A.shape)
        assert not A.has_canonical_format
    elif case == "one group":
        owner = np.zeros(m, dtype=int)
    return A, B, owner


@pytest.mark.parametrize("case", ["plain", "empty rows", "empty groups", "unsorted indices",
                                  "duplicate entries", "one group"])
@pytest.mark.parametrize("seed", range(3))
def test_product_max_equals_the_sparse_product_max(case, seed):
    A, B, owner = _random_pair(np.random.default_rng(seed), case)
    want = abs(A @ B).max()
    assert want > 0
    assert abs(product_max(A, B, owner) - want) <= 1e-13 * want


def test_product_max_of_empty_products():
    A = sp.csr_matrix((5, 4))
    B = sp.random(4, 3, density=0.5, random_state=0, format="csr")
    assert product_max(A, B, np.arange(5)) == 0.0
    assert product_max(sp.csr_matrix((0, 4)), B, np.arange(0)) == 0.0
    assert product_max(B.T.tocsr(), sp.csr_matrix((4, 6)), np.zeros(3, dtype=int)) == 0.0


class _FakeSetter:
    """Stands in for one library's openblas_set_num_threads_local: sets the
    count, returns the one it replaces, and records every call."""

    def __init__(self, n):
        self.n, self.calls = n, []

    def __call__(self, n):
        self.calls.append(n)
        prev, self.n = self.n, n
        return prev


@pytest.fixture
def fake_setters(monkeypatch):
    setters = (_FakeSetter(2), _FakeSetter(3))
    monkeypatch.setattr(linalg, "_blas_setters", lambda: setters)
    return setters


_CAPPED = {
    "complex_audit": (complex_asm, lambda systems: complex_asm.complex_audit(mesh.single_tet(), 3)),
    "poly_complex_audit": (poly, lambda systems: poly.poly_complex_audit(2, 3)),
    "infsup_estimate": (eb_solver,
                        lambda systems: eb_solver.infsup_estimate(systems("single_tet"))),
}


@pytest.fixture
def warm_single_tet(eb_systems):
    """single_tet's complex and system, built before the fake setters are in
    place: while they live, the entry points find every class element built,
    and build none under caps of their own."""
    eb_systems("single_tet")
    return complex_asm.build_complex(mesh.single_tet(), 3)


@pytest.mark.parametrize("entry", sorted(_CAPPED))
def test_entry_points_cap_blas_threads_and_restore(entry, warm_single_tet, fake_setters,
                                                   eb_systems):
    """Each audit entry point sets one thread in every library on entry and
    gives each its previous count back on exit.  The decorated function keeps
    its name, which the benchmark's tracer wraps it by."""
    module, call = _CAPPED[entry]
    assert getattr(module, entry).__name__ == entry
    call(eb_systems)
    assert [s.calls for s in fake_setters] == [[1, 2], [1, 3]]
    assert [s.n for s in fake_setters] == [2, 3]


def test_complex_audit_caps_when_building_its_elements(fresh_class_data, fake_setters):
    """With no class data alive, complex_audit builds its elements under caps
    of their own, nested in its cap: every call sets one thread but each
    library's last, which gives its count back."""
    complex_asm.complex_audit(mesh.single_tet(), 3)
    for setter, n in zip(fake_setters, (2, 3)):
        assert len(setter.calls) > 2
        assert setter.calls[-1] == n and set(setter.calls[:-1]) == {1}
        assert setter.n == n


def test_cap_restored_when_the_call_raises(fake_setters):
    apart = mesh.TetMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [5, 0, 0], [6, 0, 0], [5, 1, 0], [5, 0, 1]],
                         [[0, 1, 2, 3], [4, 5, 6, 7]])        # chi = 2
    with pytest.raises(ValueError):
        complex_asm.complex_audit(apart, 3)
    assert [s.calls for s in fake_setters] == [[1, 2], [1, 3]]
    assert [s.n for s in fake_setters] == [2, 3]


def test_nested_caps_restore_each_level(fake_setters):
    """A cap inside a cap, here by recursion, hands the inner exit the
    outer cap's 1 and the outer exit the original counts."""
    @one_blas_thread()
    def depth(n):
        return depth(n - 1) if n else [s.n for s in fake_setters]

    assert depth(2) == [1, 1]
    assert [s.calls for s in fake_setters] == [[1, 1, 1, 1, 1, 2], [1, 1, 1, 1, 1, 3]]
    assert [s.n for s in fake_setters] == [2, 3]


def test_cap_without_libraries_is_a_no_op(monkeypatch):
    monkeypatch.setattr(linalg, "_blas_setters", lambda: ())
    rows = poly.poly_complex_audit(2, 3)
    assert rows and all(r["pass"] for r in rows)


def test_cap_on_the_loaded_libraries_restores_their_counts():
    """On the OpenBLAS libraries found here (none: nothing to check), each
    count reads 1 inside the cap and its old value after it."""
    setters = linalg._blas_setters()

    def counts():
        out = [s(1) for s in setters]
        for s, n in zip(setters, out):
            s(n)
        return out

    before = counts()
    with one_blas_thread():
        assert counts() == [1] * len(setters)
    assert counts() == before


def test_blas_threads_reads_the_count_without_setting_it(monkeypatch):
    """blas_threads reads numpy's OpenBLAS count: 1 inside the cap, the
    count set outside it, and 1 where no getter is found."""
    setters = linalg._blas_setters()
    if not setters:
        pytest.skip("no bundled OpenBLAS found")
    before = [s(2) for s in setters]
    try:
        assert linalg.blas_threads() == 2
        with one_blas_thread():
            assert linalg.blas_threads() == 1
        assert linalg.blas_threads() == 2
    finally:
        for s, n in zip(setters, before):
            s(n)
    monkeypatch.setattr(linalg, "_blas_getter", lambda: None)
    assert linalg.blas_threads() == 1
