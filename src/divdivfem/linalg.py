"""Rank, nullspace and row-space helpers with explicit thresholds.

Rank claims are the backbone of every exactness audit, so thresholds are
relative to the largest singular value (default 1e-10), and a sparse exact
elimination over Q certifies the ranks of the reference-cell operators.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DEFAULT_RTOL = 1e-10


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


def nullspace(M, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal rows spanning ker(M)."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.eye(M.shape[1])
    u, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:]


def rowspace(M, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal rows spanning the row space of M."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M.reshape(0, M.shape[-1])
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return M[:0]
    rank = int(np.sum(s > rtol * s[0]))
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
