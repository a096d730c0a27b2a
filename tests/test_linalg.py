import numpy as np
import pytest
import scipy.sparse as sp

from divdivfem.linalg import qr_rank, svd_rank


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
