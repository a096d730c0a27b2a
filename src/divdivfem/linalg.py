"""Rank, nullspace and row-space helpers with explicit thresholds.

Rank claims are the backbone of every exactness audit, so thresholds are
relative to the largest singular value (default 1e-10), and a sparse exact
elimination over Q certifies the ranks of the reference-cell operators.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DEFAULT_RTOL = 1e-10


def _loaded_openblas(pkg):
    """The OpenBLAS libraries that pkg (numpy or scipy) bundles
    (numpy.libs/libscipy_openblas64_-*.so, scipy.libs/libscipy_openblas-*.so),
    opened only if already loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            yield ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue


@functools.cache
def _blas_setters() -> tuple:
    """openblas_set_num_threads_local of each OpenBLAS that numpy and scipy
    bundle; empty where no such library or symbol is."""
    setters = []
    for pkg in (np, scipy):
        for lib in _loaded_openblas(pkg):
            try:
                fn = lib.openblas_set_num_threads_local
            except AttributeError:
                continue
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            setters.append(fn)
    return tuple(setters)


@functools.cache
def _blas_getter():
    """The thread-count getter of numpy's bundled OpenBLAS, None where there
    is no such library or symbol."""
    for lib in _loaded_openblas(np):
        try:
            fn = lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        return fn
    return None


def blas_threads() -> int:
    """The number of threads numpy's OpenBLAS runs a call on, read without
    changing it: 1 inside one_blas_thread, and 1 where the library or its
    getter is not found."""
    get = _blas_getter()
    return max(1, get()) if get is not None else 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, each call) on one BLAS thread in
    every OpenBLAS that numpy and scipy bundle, and restore each library's
    previous count on exit, also on an exception.

    The audits' fronts and pencils are blocks of a few hundred rows, which
    OpenBLAS runs about twice as fast on one thread as on two on a 2-core
    host.  openblas_set_num_threads_local returns the count it replaces; in
    these pthreads builds it acts process-wide, not per calling thread (a
    worker thread's call changed the main thread's count), so the cap holds
    for the whole process while the block runs, and caps entered from two
    Python threads at once could restore each other's counts out of order.
    The package's only threads are CellInteriors' front workers: they enter
    no cap and read no count, and the thread that starts them holds the cap
    until they have all stopped.  Where neither library is found the cap
    does nothing.  No environment variable is read or written.
    """
    setters = _blas_setters()
    before = []
    try:
        for setter in setters:
            before.append(setter(1))
        yield
    finally:
        for setter, n in zip(setters, before):
            setter(n)


def svd_rank(M, rtol: float = DEFAULT_RTOL, scale: float | None = None) -> int:
    """Numerical rank; pass the source operator's scale when M may be zero.

    With only a relative threshold a numerically-zero matrix would count its
    rounding noise as full rank.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    ref = scale if scale is not None else float(s[0])
    if ref == 0.0:
        return 0
    return int(np.sum(s > rtol * ref))


def qr_rank(M, rtol: float = 1e-9) -> int:
    """Rank via column-pivoted QR; suited to the larger audit matrices.

    M may be dense or scipy-sparse. The QR factors its own copy of M, made
    tall and in Fortran order (the layout LAPACK factors in place), so a
    sparse M is densified once and a dense M is left untouched. A tall
    m x n copy is first reduced to its n x n triangle by unpivoted blocked
    QR (BLAS-3), and the column-pivoted QR runs on that triangle: Q is
    orthogonal, so in exact arithmetic the pivots and |diag R| are the same.
    """
    if M.shape[0] < M.shape[1]:
        M = M.T
    M = M.toarray(order="F") if sp.issparse(M) else np.array(M, dtype=float, order="F")
    if M.size == 0:
        return 0
    if M.shape[0] > M.shape[1]:
        # mode "raw" returns the n x n triangle, without an m x n copy of it
        M = scipy.linalg.qr(M, mode="raw", overwrite_a=True)[1]
    R = scipy.linalg.qr(M, mode="r", pivoting=True, overwrite_a=True)[0]
    d = np.abs(np.diag(R))
    if d.size == 0 or d[0] == 0.0:
        return 0
    return int(np.sum(d > rtol * d[0]))


def product_max(A, B, owner) -> float:
    """max |A B| over every entry, from dense blocks, without forming A B.

    A and B are scipy-sparse; owner[i] is the cell (a nonnegative integer)
    that owns row i of A.  The rows of A are taken in blocks of consecutive
    owner cells: a block grows cell by cell until it holds at least 8 rows,
    so that a cell owning only a few rows (4 for the P1 DG target of divdiv)
    does not pay a block's fixed numpy calls alone.  For each block, mark
    arrays number the columns of A its rows reach and the columns that B's
    rows for those reach; the block of A B is one dense GEMM, and only the
    running max of its absolute values is kept.  Each entry is the sum of
    the same products as in a sparse product, in another order; the
    transient is one block.
    """
    A, B = sp.csr_array(A), sp.csr_array(B)
    order = np.argsort(owner, kind="stable")
    starts = [0]
    for end in np.cumsum(np.bincount(owner))[:-1]:
        if end - starts[-1] >= 8:
            starts.append(int(end))
    markA = np.empty(A.shape[1], dtype=A.indices.dtype)
    markB = np.empty(B.shape[1], dtype=B.indices.dtype)
    worst = 0.0
    for lo, hi in zip(starts, starts[1:] + [A.shape[0]]):
        Ablock, reached = _dense_rows(A, order[lo:hi], markA)
        Bblock, _ = _dense_rows(B, reached, markB)
        C = Ablock @ Bblock
        if C.size:
            worst = max(worst, float(C.max()), -float(C.min()))
    return worst


def frobenius(x) -> float:
    """The Frobenius norm as a plain reduction: np.linalg.norm takes a BLAS
    dot, whose OpenBLAS pool is not the one of scipy's LAPACK calls around it."""
    return float(np.sqrt(np.sum(x * x)))


def _dense_rows(M: sp.csr_array, rows: np.ndarray, mark: np.ndarray):
    """M's rows as one dense block over the columns they reach, and those
    columns, ascending.  mark, one slot per column of M, is scratch."""
    sub = M[rows]
    cols = np.flatnonzero(np.bincount(sub.indices, minlength=M.shape[1]))
    mark[cols] = np.arange(len(cols))
    block = sp.csr_array((sub.data, np.take(mark, sub.indices), sub.indptr),
                         shape=(len(rows), len(cols)))
    return block.toarray(), cols


def _certify(kept, dropped, tau: float) -> None:
    """A rank decision at the threshold tau stands only with a clear gap: the
    kept part's smallest singular value, or a lower bound of it, above 2 tau,
    and the dropped part's Frobenius norm at most tau/2.  So no singular value
    of the block lies within a factor 2 of tau.  ValueError otherwise."""
    kept, dropped = np.asarray(kept, dtype=float), np.asarray(dropped, dtype=float)
    bad = (kept <= 2 * tau) | (dropped > tau / 2)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"rank decision at tau = {tau:.3e} not certified: kept "
                         f"sigma_min >= {kept.flat[i]:.3e}, dropped |R22|_F = "
                         f"{dropped.flat[i]:.3e}")


def block_svd_ranks(B: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of a stack of blocks B (g, m, n) at the absolute threshold tau,
    certified from the singular values, and each block's full left singular
    vectors U (g, m, m): the columns from the rank on span range(B)^perp."""
    U, s, _ = np.linalg.svd(B)
    big = s > tau
    _certify(np.min(np.where(big, s, np.inf), axis=-1, initial=np.inf),
             np.linalg.norm(np.where(big, 0.0, s), axis=-1), tau)
    return np.sum(big, axis=-1), U


def front_rank(F: np.ndarray, nown: int, tau: float) -> tuple[int, np.ndarray]:
    """Eliminate a front's own columns F[:, :nown] at the absolute threshold tau.

    Column-pivoted QR (geqp3) of the own columns, F[:, :nown] P = Q R, takes
    the rank r as the count of |R_ii| > tau, certified by
    sigma_min(R11) >= 1/|R11^-1|_F against |R22|_F >= sigma_{r+1}.  Q^T is
    applied to the other columns without forming Q (ormqr).  Returns r and the
    rows of Q^T F[:, nown:] orthogonal to the own columns, reduced to their
    triangle (geqrf) when they are more rows than columns.  A Fortran-order F
    is factored in place.
    """
    m = F.shape[0]
    rest = np.asfortranarray(F[:, nown:])
    if nown == 0 or m == 0:
        return 0, row_triangle(rest)
    (qr, taus), R, _ = scipy.linalg.qr(np.asfortranarray(F[:, :nown]), mode="raw",
                                       pivoting=True, overwrite_a=True,
                                       check_finite=False)
    r = int(np.sum(np.abs(np.diag(R)) > tau))
    # |R_ii| > tau >= 0 for i < r, so R11 is invertible
    kept = 1.0 / frobenius(scipy.linalg.lapack.dtrtri(R[:r, :r])[0]) if r else np.inf
    _certify(kept, frobenius(R[r:, r:]), tau)
    if rest.shape[1]:
        ormqr = scipy.linalg.lapack.dormqr
        qr = qr[:, :len(taus)]
        lwork = int(ormqr("L", "T", qr, taus, rest, -1, overwrite_c=1)[1][0])
        rest = ormqr("L", "T", qr, taus, rest, lwork, overwrite_c=1)[0]
    return r, row_triangle(rest[r:])


def row_triangle(T: np.ndarray) -> np.ndarray:
    """T, or the triangle of its QR when it has more rows than columns: the
    same row space, in no more rows than columns."""
    if T.shape[0] <= T.shape[1]:
        return T
    return scipy.linalg.qr(T, mode="raw", overwrite_a=True, check_finite=False)[1]


def nullspace(M) -> np.ndarray:
    """Orthonormal rows spanning ker(M)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > DEFAULT_RTOL * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:]


def rowspace(M) -> np.ndarray:
    """Orthonormal rows spanning the row space of M."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M.reshape(0, M.shape[-1])
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return M[:0]
    rank = int(np.sum(s > DEFAULT_RTOL * s[0]))
    return vt[:rank]


def rank_exact(rows) -> int:
    """Exact rank over Q by sparse Gaussian elimination on Fraction rows.

    Entries must be Fractions or integers, zeros included (floats are
    rejected: an inexact entry would defeat the point of a certificate).
    rows is a sequence of rows or a numpy matrix; an integer matrix is read by
    its nonzeros, and a float one is rejected whatever its entries.
    A row is kept as {column: Fraction} of its nonzeros.  Each pivot row is
    the sparsest live row (a Markowitz-style choice against fill), pivoting
    on its first stored entry; eliminating that column from the other rows
    touches only the pivot row's nonzeros, and rows that become zero leave.
    """
    kind = rows.dtype.kind if isinstance(rows, np.ndarray) else "O"
    if kind in "fc":
        raise TypeError(f"exact rank needs exact entries, got dtype {rows.dtype}")
    if kind in "iu":
        live = [dict(zip(nz.tolist(), map(Fraction, row[nz].tolist())))
                for row in rows if (nz := np.flatnonzero(row)).size]
    else:
        live = [{j: f for j, f in enumerate(map(_as_fraction, row)) if f} for row in rows]
    rank = 0
    while live := [r for r in live if r]:
        piv = live.pop(min(range(len(live)), key=lambda i: len(live[i])))
        rank += 1
        col, pval = next(iter(piv.items()))
        for r in live:
            if col in r:
                factor = r[col] / pval
                for j, v in piv.items():
                    x = r.get(j, 0) - factor * v
                    if x:
                        r[j] = x
                    else:
                        del r[j]
    return rank


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    raise TypeError(f"exact rank needs exact entries, got {type(x).__name__}")


def min_max_singular_ratio(M) -> float:
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0
