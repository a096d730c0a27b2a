import contextlib
import copy
import gc
import os
import subprocess
import threading
import tracemalloc
import weakref
from pathlib import Path
from sys import executable, getswitchinterval, setswitchinterval
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from divdivfem import complex_asm, eb_solver, fe3d, linalg, mesh, mms, poly
from divdivfem.complex_asm import GlobalSpace, assemble_cells, assemble_diff
from divdivfem.fields import PolyField

from conftest import APART, EDGE_MEETING


def _cell_field(space, coeffs, ci) -> PolyField:
    """The discrete field coeffs of space on cell ci: its class element's
    shape functions, on the cell's own simplex."""
    elem = space.elements[space.cell_class[ci]]
    basis = space.mesh.cell_simplices[ci].basis(elem.basis.degree)
    return PolyField.from_coords(basis, coeffs[space.cell_maps[ci]] @ elem.Vinv.T,
                                 elem.comp_gens)


def _oracle(sys) -> SimpleNamespace:
    """The assembled forms of the system's class stacks, the oracles of these
    tests: the masses Mq, ME and MB, A = blockdiag(Mq, ME, MB), and the global
    divdiv D3 and symcurl D2."""
    spaces = (sys.space_q, sys.space_E, sys.space_B)
    Mq, ME, MB = (assemble_cells(s.cell_maps, s.cell_maps, m[sys.cell_class], (s.dim,) * 2)
                  for s, m in zip(spaces, sys._cell_mass))
    d3, d2 = sys._cell_diff
    return SimpleNamespace(Mq=Mq, ME=ME, MB=MB, A=sp.block_diag((Mq, ME, MB), format="csr"),
                           D3=assemble_diff(d3, sys.space_E, sys.space_q),
                           D2=assemble_diff(d2, sys.space_B, sys.space_E))


def test_config_parsing(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("mesh = two_tets\nk = 3\nt_final = 0.2\ndt = 0.05\n"
                 "init = zero\n# comment\nseed = 4\n")
    cfg = eb_solver.EBConfig.from_file(p)
    assert cfg.mesh == "two_tets" and cfg.nsteps == 4 and cfg.seed == 4
    p.write_text("dt = 0.3\nt_final = 1.0\n")
    with pytest.raises(ValueError, match="integral"):
        eb_solver.EBConfig.from_file(p)
    for line in ("unknown_key = 1", "forcing = off", "solver_tol = 1e-9"):
        p.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown config key"):
            eb_solver.EBConfig.from_file(p)


@pytest.mark.parametrize("field, value", [
    ("t_final", -0.5),
    ("dt", float("inf")),
    ("t_final", float("inf")),
    ("dt", float("nan")),
    ("k", 2),
    ("init", "ones"),
    ("mms", "sine"),
    ("seed", -1),
])
def test_config_rejects_bad_value(field, value):
    cfg = eb_solver.EBConfig(mesh="two_tets", t_final=0.1, dt=0.05)
    cfg.validate()
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=field):
        cfg.validate()


def test_zero_initial_data_stays_zero(eb_systems):
    sys = eb_systems("two_tets")
    cfg = eb_solver.EBConfig(mesh="two_tets", t_final=0.1, dt=0.02, init="zero")
    rec, y, _ = eb_solver.run(sys, cfg)
    assert max(rec.energy) == 0.0
    assert np.abs(y).max() == 0.0


def test_skew_coupling_block(eb_systems):
    sys = eb_systems("kuhn_cube(1)")
    S = sys.skew_block()
    asym = abs((S + S.T)).max()
    assert asym <= 1e-12 * abs(S).max()


def _coupling_blocks(sys):
    S = sys.skew_block()
    q, E = slice(0, sys.nq), slice(sys.nq, sys.nq + sys.nE)
    B = slice(sys.nq + sys.nE, sys.ntot)
    return S[q, E], -S[E, B]


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_cell_assembled_coupling_equals_global_products(eb_systems, spec):
    sys = eb_systems(spec)
    C3, C2 = _coupling_blocks(sys)
    o = _oracle(sys)
    for local, glob in ((C3, o.Mq @ o.D3), (C2, o.ME @ o.D2)):
        assert abs(local - glob).max() <= 1e-12 * abs(glob).max()


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_skew_coupling_block_exact(eb_systems, spec):
    S = eb_systems(spec).skew_block()
    assert (S + S.T).count_nonzero() == 0


def test_skew_coupling_block_one_cell_stencil(eb_systems):
    """Each coupling entry joins DOFs of one cell: 2880 + 167328 per sign on
    kuhn_cube(1), against 2880 + 265512 for the global product ME @ D2."""
    sys = eb_systems("kuhn_cube(1)")
    C3, C2 = _coupling_blocks(sys)
    assert (C3.nnz, C2.nnz) == (2880, 167328)
    assert sys.skew_block().nnz == 2 * (2880 + 167328)


def _equilibrated(sys, mat):
    """D mat D, with D the diagonal of sys.scale."""
    D = sp.diags(sys.scale)
    return (D @ mat @ D).tocsr()


# theta of each factorised lhs = A - theta S
_THETAS = {"cn": 0.5 * 0.0125, "projection": 1.0, "mass": 0.0}


def _lhs(sys, theta):
    return (_oracle(sys).A - theta * sys.skew_block()).tocsr()


@pytest.mark.parametrize("which", ["cn", "projection", "mass"])
@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_condensed_factor_matches_full_lu(eb_systems, spec, which, rng):
    sys = eb_systems(spec)
    K, s = _equilibrated(sys, _lhs(sys, _THETAS[which])), sys.scale
    b = K @ rng.standard_normal(sys.ntot)
    # lhs = D^-1 K D^-1, so K^-1 b = D^-1 lhs^-1 D^-1 b
    x = sys._factorize(_THETAS[which]).solve(b / s) / s
    ref = spla.splu(K.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("which", ["cn", "projection", "mass"])
@pytest.mark.parametrize("shape", ["edge_meeting", "apart"])
def test_fronts_owning_nothing_pass_their_front_up(shape, which, rng):
    """A front whose cells share only unknowns that other cells list, or
    nothing at all, eliminates nothing and passes its front up whole; at
    the root it leaves SuperLU an empty separator.  The solve matches the
    full LU to what the conditioning allows (the equilibrated K has cond
    2.6e8 to 5.5e8 on the edge-meeting cells; up to 9e-8 seen against 1e-6),
    and its componentwise (Oettli-Prager) backward error is at rounding
    level, as on kuhn_cube(1) (up to 3.5e-15 seen)."""
    vertices, cells = EDGE_MEETING if shape == "edge_meeting" else APART
    sys = eb_solver.EBSystem(mesh.TetMesh(vertices, cells), 3)
    cells = sys._factorize(_THETAS[which])
    fr, tree = cells.fronts, cells.fronts.tree
    empty = [n for n in range(len(tree.lo)) if tree.kids[n] and not len(fr.own[n])]
    if shape == "edge_meeting":
        (n,) = empty
        assert sorted(tree.order[tree.lo[n]:tree.hi[n]]) == [0, 1] and n not in fr.slot
    else:
        assert empty == [len(tree.lo) - 1] and cells.lu.shape == (0, 0)
    lhs = _lhs(sys, _THETAS[which])
    b = rng.standard_normal((sys.ntot, 8))
    x = cells.solve(b)
    ref = spla.splu(lhs.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)
    err = np.abs(lhs @ x - b) / (abs(lhs) @ np.abs(x) + np.abs(b))
    assert err.max() <= 1e-14


def test_root_csc_equals_scipy_conversion(rng, monkeypatch):
    """dense_csc gives SuperLU the CSC that sp.csc_matrix builds through COO,
    array for array, exact zeros dropped: on a random front with zeros and
    on the 0 x 0 root of two cells apart."""
    F = rng.standard_normal((40, 30))
    F[rng.random(F.shape) < 0.3] = 0.0
    fronts = [F]
    dense_csc = eb_solver.dense_csc
    monkeypatch.setattr(eb_solver, "dense_csc", lambda G: fronts.append(G) or dense_csc(G))
    eb_solver.EBSystem(mesh.TetMesh(*APART), 3)._factorize(_THETAS["mass"])
    assert [G.shape for G in fronts] == [(40, 30), (0, 0)]
    for G in fronts:
        A, B = dense_csc(G), sp.csc_matrix(G)
        assert A.shape == B.shape
        for part in ("data", "indices", "indptr"):
            a, b = getattr(A, part), getattr(B, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("spec, which", [("kuhn_cube(1)", "cn"), ("kuhn_cube(1)", "mass"),
                                         ("two_tets", "cn"), ("two_tets", "mass")],
                         ids=["cn", "mass", "two_tets-cn", "two_tets-mass"])
def test_block_solve_equals_column_solves(eb_systems, spec, which, rng):
    """solve takes the columns of a block one at a time along a leading axis,
    never as extra GEMM columns: the block's solution is its single solves,
    bit for bit (widened products differed by 2-3e-14)."""
    cells = eb_systems(spec)._factorize(_THETAS[which])
    B = rng.standard_normal((len(cells.scale), 7))
    Y = cells.solve(B)
    cols = np.stack([cells.solve(b) for b in B.T], axis=1)
    assert Y.shape == B.shape
    assert np.array_equal(Y, cols)


def test_condensed_interface_kuhn_cube_1(eb_systems):
    """Each cell has 80 interior unknowns (sigma 4, E 32, B 44); the interface
    keeps the rest, and sigma (all interior) leaves the global solve.  The
    fronts below the root eliminate all but the root separator's 270
    unknowns, and SuperLU factors that dense block alone."""
    sys = eb_systems("kuhn_cube(1)")
    cells = sys._factorize(0.0)
    assert cells.interior.shape == (6, 80)
    assert len(cells.iface) == 950 == sys.ntot - 6 * 80
    assert cells.iface.min() >= sys.nq
    assert cells.lu.shape == (270, 270) and len(cells.fronts.own[-1]) == 270


def _factored_root(sys, theta, monkeypatch):
    """(CellInteriors factor of A - theta S, the root front it handed to splu)."""
    factored = []
    splu = eb_solver.spla.splu
    with monkeypatch.context() as m:
        m.setattr(eb_solver.spla, "splu", lambda A, **kw: factored.append(A) or splu(A, **kw))
        cells = sys._factorize(theta)
    (root,) = factored
    assert root.format == "csc"
    return cells, root


def _class_schur(sys, cells, theta):
    """Tt[r] = T_r^T, each class's condensed interface block
    T_r = lhs_FF - lhs_Fi D_i K_ii^-1 D_i lhs_iF, from the class stacks."""
    ni = cells.interior.shape[1]
    d = sys.scale[cells.interior[np.unique(sys.cell_class, return_index=True)[1]]]
    lhs = sys.class_lhs(slice(None), theta)
    Kii = lhs[:, :ni, :ni] * d[:, :, None] * d[:, None, :]
    T = lhs[:, ni:, ni:] - (lhs[:, ni:, :ni] * d[:, None, :]) @ np.linalg.solve(
        Kii, lhs[:, :ni, ni:] * d[:, :, None])
    return T.transpose(0, 2, 1)


def _column_block_schur(cells, Tt, cell_class, block=512):
    """The interface oracle: the Schur complement D_F (sum_c P_c T_r P_c^T) D_F
    in compressed columns, from Tt[r] = T_r^T, summed block columns at a
    time, as the factor assembled it before the fronts replaced it.  Column
    i is the sum of the cell columns D_F,c T_r[:, f] d_F,c[f] of the cells c
    that hold i as their interface unknown f; each block of columns is one
    sparse product of those cell columns, written as rows, which sums the
    duplicates and drops exact zeros."""
    nf, n = cells.cell_iface.shape[1], len(cells.iface)
    land = cells.cell_iface.ravel()                         # cell c nf + f -> i
    order = np.argsort(land, kind="stable")
    starts = np.searchsorted(land[order], np.arange(n + 1))
    counts, indices, data = [], [], []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        cell, f = np.divmod(order[starts[lo]:starts[hi]], nf)
        rows = cells.cell_iface[cell]                       # (m, nf)
        vals = Tt[cell_class[cell], f] * cells.scale_F[land[order[starts[lo]:starts[hi]]]][:, None]
        vals *= cells.scale_F[rows]
        runs = sp.csr_matrix((np.ones(len(cell)), np.arange(len(cell)),
                              starts[lo:hi + 1] - starts[lo]), shape=(hi - lo, len(cell)))
        blk = runs @ sp.csr_matrix((vals.ravel(), rows.ravel(),
                                    np.arange(0, vals.size + 1, nf)), shape=(len(cell), n))
        counts.append(np.diff(blk.indptr))
        indices.append(blk.indices)
        data.append(blk.data)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sp.csc_matrix((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, n))


def _single_product_schur(cells, Tt, cell_class):
    """The Schur complement in one sparse product, every scaled cell block
    in one dense (ncells nf, nf) array, summed by the interface incidence;
    fed the transposed class blocks Tt, its rows are the Schur complement's
    columns."""
    ncells, nf = cells.cell_iface.shape
    d = cells.scale_F[cells.cell_iface]                     # (cells, nf)
    blocks = Tt[cell_class] * d[:, :, None] * d[:, None, :]
    cols = np.broadcast_to(cells.cell_iface[:, None, :], blocks.shape)
    P = sp.csr_matrix((np.ones(ncells * nf), (cells.cell_iface.ravel(), np.arange(ncells * nf))),
                      shape=(len(cells.iface), ncells * nf))
    return P @ sp.csr_matrix((blocks.ravel(), cols.ravel(), np.arange(0, blocks.size + 1, nf)),
                             shape=(ncells * nf, len(cells.iface)))


@pytest.mark.parametrize("spec, theta", [
    (spec, theta) for spec in ("two_tets", "kuhn_cube(1)") for theta in (0.0, _THETAS["cn"], 1.0)])
def test_schur_row_blocks_match_single_product(eb_systems, spec, theta):
    """The interface oracle summed in column blocks has the pattern of the
    single sparse product, exact zeros dropped alike, and its entries to
    1e-15 relative."""
    sys = eb_systems(spec)
    cells = sys._factorize(theta)
    Tt = _class_schur(sys, cells, theta)
    got = _column_block_schur(cells, Tt, sys.cell_class).T.tocsr()
    want = _single_product_schur(cells, Tt, sys.cell_class)
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()


@contextlib.contextmanager
def _blas_count(n):
    """numpy's and scipy's OpenBLAS at n threads, each library's count
    restored after."""
    setters = linalg._blas_setters()
    if not setters:
        pytest.skip("no bundled OpenBLAS found")
    before = [setter(n) for setter in setters]
    try:
        yield
    finally:
        for setter, m in zip(setters, before):
            setter(m)


@pytest.fixture
def shares_dealt(monkeypatch):
    """The shares of every factor made while the fixture is active."""
    dealt, shares = [], eb_solver.Fronts.shares

    def record(self, workers):
        out = shares(self, workers)
        dealt.append(out[0])
        return out

    monkeypatch.setattr(eb_solver.Fronts, "shares", record)
    return dealt


def test_factor_transients_stay_small(eb_systems, shares_dealt):
    """The numpy allocations of a kuhn_cube(2) CN factorisation on two
    workers peak under 85 MB above what the system holds: 73-82 MB, of
    which 36 MB are the fronts' factors and 11 MB the root front and the
    compressed columns handed to SuperLU; one worker peaks at 69.5 MB.  The
    two workers' depth-first subtrees are in memory at once.  The assembled
    Schur complement peaked at 69 MB, and its single-product scatter and
    CSC copy at 122 MB.  SuperLU's own allocations are not traced."""
    sys = eb_systems("kuhn_cube(2)")
    with _blas_count(2):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sys._factorize(_THETAS["cn"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert [len(shares) for shares in shares_dealt] == [2]
    assert peak < 85e6


def _factor_at(sys, theta, threads):
    with _blas_count(threads):
        return sys._factorize(theta)


def _assert_same_factors(a, b):
    assert np.array_equal(a.inv_ii, b.inv_ii) and np.array_equal(a.X, b.X)
    assert np.array_equal(a.L, b.L)
    for fa, fb in zip(a.front_factors, b.front_factors, strict=True):
        for x, y in zip(fa, fb, strict=True):
            assert np.array_equal(x, y)


def test_factor_is_the_same_on_one_two_and_four_workers(eb_systems, shares_dealt, rng):
    """At one BLAS thread kuhn_cube(2) is factored on one worker, at two on
    two, every BLAS call then on one thread: the interiors' and the fronts'
    factors are the same bits, and so is a block solve with either factor.
    Four workers, with the interpreter switching threads every
    microsecond, split the root's children too and run them from top on
    the calling thread: the same bits again."""
    sys = eb_systems("kuhn_cube(2)")
    one, two = (_factor_at(sys, _THETAS["cn"], n) for n in (1, 2))
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        four = _factor_at(sys, _THETAS["cn"], 4)
    finally:
        setswitchinterval(interval)
    assert [len(shares) for shares in shares_dealt] == [1, 2, 4]
    _assert_same_factors(one, two)
    _assert_same_factors(one, four)
    B = rng.standard_normal((sys.ntot, 3))
    assert np.array_equal(one.solve(B), two.solve(B))


@pytest.mark.parametrize("spec", ["single_tet", "two_tets", "kuhn_cube(1)", "kuhn_cube(2)"])
def test_shares_partition_the_nodes_below_the_root(eb_systems, spec):
    """For one to four workers, the shares' subtrees and top hold every node
    below the root once; a node of top follows its children, each either in
    top or a subtree root; one worker gets the root's children."""
    sys = eb_systems(spec)
    fr = sys.fronts("system", sys._maps[:, sys._order], sys._ni)
    kids, root = fr.tree.kids, len(fr.own) - 1
    for workers in range(1, 5):
        shares, top = fr.shares(workers)
        assert 1 <= len(shares) <= workers or (shares, top, kids[root]) == ([], [], ())
        roots = [s for share in shares for s in share]
        assert all(share == sorted(share) for share in shares) and top == sorted(top)
        nodes = [n for s in roots for n in range(fr.first[s], s + 1)] + top
        assert sorted(nodes) == list(range(root))
        assert all(c in top or c in roots for n in top for c in kids[n])
        if workers == 1:
            assert shares in ([sorted(kids[root])], []) and top == []


def test_single_cell_root_is_a_leaf(eb_systems, shares_dealt, rng, monkeypatch):
    """single_tet's root is its one leaf: two threads deal no subtree, so no
    worker starts and nothing waits; the root front goes to SuperLU, and the
    solve's componentwise backward error is at rounding level."""
    monkeypatch.setattr(eb_solver, "_workers", lambda: pytest.fail("a worker was started"))
    sys = eb_systems("single_tet")
    cells = _factor_at(sys, _THETAS["cn"], 2)
    assert shares_dealt == [[]] and cells.front_factors == []
    lhs = _lhs(sys, _THETAS["cn"])
    b = rng.standard_normal(sys.ntot)
    x = cells.solve(b)
    assert (np.abs(lhs @ x - b) / (abs(lhs) @ np.abs(x) + np.abs(b))).max() <= 1e-14


def test_fronts_owning_nothing_on_two_workers(shares_dealt):
    """On the edge-meeting cells, whose node pairing two cells owns nothing,
    two workers give the factors of one."""
    sys = eb_solver.EBSystem(mesh.TetMesh(*EDGE_MEETING), 3)
    one, two = (_factor_at(sys, _THETAS["cn"], n) for n in (1, 2))
    assert [len(shares) for shares in shares_dealt] == [1, 2]
    _assert_same_factors(one, two)


def test_worker_exception_propagates(eb_systems, monkeypatch):
    """A front that raises on a worker thread makes _factorize raise it on
    the calling thread, which does not hang, and the BLAS cap is left."""
    sys = eb_systems("kuhn_cube(1)")
    front = eb_solver.CellInteriors._front

    def failing(self, n, *args):
        if threading.current_thread().name.startswith("divdivfem-fronts"):
            raise ArithmeticError(f"front {n}")
        return front(self, n, *args)

    monkeypatch.setattr(eb_solver.CellInteriors, "_front", failing)
    raised = []

    def factor():
        with _blas_count(2):
            try:
                sys._factorize(_THETAS["cn"])
            except ArithmeticError as exc:
                raised.append((str(exc), linalg.blas_threads()))

    caller = threading.Thread(target=factor)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(raised) == 1 and raised[0][0].startswith("front ") and raised[0][1] == 2


def test_schur_complement_one_cell_stencil(eb_systems):
    """Each front holds what its cells reach: a leaf's unknowns are its cell's
    interface unknowns, its own ones first; another node's own unknowns are
    those that cells of both its children list, and its boundary the
    unknowns of its ancestors that cells of its subtree list.  Every front
    passes its update to its parent's places of the same unknowns."""
    sys = eb_systems("kuhn_cube(1)")
    fr = sys._factorize(_THETAS["cn"]).fronts
    tree = fr.tree
    for n in range(len(tree.lo)):
        cells = tree.order[tree.lo[n]:tree.hi[n]]
        listed = np.unique(fr.cell_iface[cells])
        outside = np.unique(fr.cell_iface[np.setdiff1d(tree.order, cells)])
        if tree.kids[n]:
            a, b = (np.unique(fr.cell_iface[tree.order[tree.lo[c]:tree.hi[c]]])
                    for c in tree.kids[n])
            own = np.setdiff1d(np.intersect1d(a, b), outside)
        else:
            own = np.setdiff1d(listed, outside)
            assert np.array_equal(np.sort(fr.cell_iface[cells[0]][fr.perm[n]]),
                                  np.sort(fr.cell_iface[cells[0]]))
        assert np.array_equal(fr.own[n], own)
        assert np.array_equal(fr.bnd[n], np.intersect1d(listed, outside))
        front = np.concatenate([fr.own[n], fr.bnd[n]])
        for c in tree.kids[n]:
            assert np.array_equal(front[fr.pos[c]], fr.bnd[c])
    assert len(fr.bnd[-1]) == 0


def _global_schur(sys, cells, theta):
    """The Schur complement of the cell interiors, sliced out of the global
    K = D (A - theta S) D: the construction that the cell-local one replaced,
    kept as its oracle."""
    K = _equilibrated(sys, _lhs(sys, theta))
    interior, iface, cell_iface = cells.interior, cells.iface, cells.cell_iface
    Kii = np.stack([K[np.ix_(i, i)].toarray() for i in interior])
    KiF = np.stack([K[np.ix_(i, iface[f])].toarray() for i, f in zip(interior, cell_iface)])
    KFi = np.stack([K[np.ix_(iface[f], i)].toarray() for i, f in zip(interior, cell_iface)])
    X = sla.lu_solve(sla.lu_factor(Kii), KiF)
    update = assemble_cells(cell_iface, cell_iface, KFi @ X, (len(iface),) * 2)
    return (K[iface][:, iface] - update).tocsc()


@pytest.mark.parametrize("spec, theta", [
    (spec, theta) for spec in ("two_tets", "kuhn_cube(1)") for theta in (0.0, 0.5 * 0.0125, 1.0)
] + [("kuhn_cube(2)", 0.5 * 0.0125), ("kuhn_cube(2)", 1.0)])
def test_cell_local_schur_matches_global_slicing(eb_systems, spec, theta, monkeypatch):
    """The root front that the fronts leave for SuperLU is the Schur
    complement, onto the root separator R, of the interface Schur complement
    sliced out of the global matrix: S_RR - S_RO S_OO^-1 S_OR over the other
    interface unknowns O, to 1e-12 in the Frobenius norm.  On kuhn_cube(2)
    eight cells share each class's blocks and differ only in their
    interface scales."""
    sys = eb_systems(spec)
    cells, root = _factored_root(sys, theta, monkeypatch)
    S = _global_schur(sys, cells, theta)
    R = cells.fronts.own[-1]
    O = np.setdiff1d(np.arange(len(cells.iface)), R)
    S_OR = S[O][:, R].toarray()
    ref = S[R][:, R].toarray() - S[R][:, O] @ spla.splu(S[O][:, O].tocsc()).solve(S_OR)
    assert np.linalg.norm(root.toarray() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("theta", [*_THETAS.values(), 4.0, 100.0],
                         ids=[*_THETAS, "cn_dt8", "theta100"])
def test_schur_factor_pivots_on_the_diagonal_with_small_growth(eb_systems, theta, rng):
    """The factor is backward stable: on eight random right-hand sides the
    componentwise (Oettli-Prager) backward error of the full solve,
    max |lhs x - b| / (|lhs| |x| + |b|), is at most 1e-14 on kuhn_cube(1),
    also past theta = 1 (6.6e-16 at theta = 100, where the assembled Schur
    complement on diagonal pivots read 2.4e-12)."""
    sys = eb_systems("kuhn_cube(1)")
    lhs = _lhs(sys, theta)
    b = rng.standard_normal((sys.ntot, 8))
    x = sys._factorize(theta).solve(b)
    err = np.abs(lhs @ x - b) / (abs(lhs) @ np.abs(x) + np.abs(b))
    assert err.max() <= 1e-14


def test_cn_factorization_keeps_the_latest_dt_only(rng):
    """A study over two dt holds one CN factor at a time: the next dt's factor
    replaces the previous one, which is freed, and a dt met again is
    factored anew, with bit-identical steps."""
    sys = eb_solver.EBSystem(mesh.load("two_tets"), 3)
    y = rng.standard_normal(sys.ntot)
    first = sys.cn_step(y, 0.02)
    gone = weakref.ref(sys.cn_factorization(0.02)[1])
    sys.cn_step(y, 0.01)
    gc.collect()
    assert list(sys._cn) == [0.01] and gone() is None
    assert np.array_equal(sys.cn_step(y, 0.02), first)
    assert list(sys._cn) == [0.02]


@pytest.mark.parametrize("dt", [8.0, 200.0])
def test_cn_step_at_large_dt_passes_its_residual_check(eb_systems, rng, dt):
    """Diagonal pivots hold up at theta = dt/2 > 1: the CN step's 1e-8
    residual check passes."""
    sys = eb_systems("kuhn_cube(1)")
    y = sys.cn_step(rng.standard_normal(sys.ntot), dt)
    assert np.all(np.isfinite(y))


# the entries that the kuhn_cube(2) projection factor stores, printed by a
# fresh process with the BLAS thread count of its environment
_STORED = """
from divdivfem import eb_solver, mesh
cells = eb_solver.EBSystem(mesh.load("kuhn_cube(2)"), 3)._factorize(1.0)
print(sum(a.size for f in cells.front_factors for a in f) + cells.lu.L.nnz + cells.lu.U.nnz)
"""


def test_projection_factor_kuhn_cube_2_fill(eb_systems):
    """The kuhn_cube(2) projection factor stores at most 5.1 M entries:
    4,498,016 in the fronts below the root and 563,250 in the root's L + U
    (SuperLU's L + U of the whole Schur complement held 5.01 M, a count that
    moved with the thread count).  The count is the same with one BLAS
    thread and with two."""
    cells = eb_systems("kuhn_cube(2)")._factorize(1.0)
    stored = sum(a.size for f in cells.front_factors for a in f) + cells.lu.L.nnz + cells.lu.U.nnz
    assert stored <= 5_100_000
    src = str(Path(eb_solver.__file__).parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run([executable, "-c", _STORED], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert int(out.stdout) == stored


def _unusable(*args, **kwargs):
    raise AssertionError("a global ntot x ntot matrix was assembled")


def test_factor_reads_only_the_cell_stacks(eb_systems, monkeypatch, rng):
    """_factorize never assembles a global matrix: with every assembler
    (assemble_cells, GlobalSpace.mass and assemble_diff, wherever they are
    looked up) raising, it still builds every factor from the class stacks,
    and the factors solve the full system."""
    sys = eb_systems("kuhn_cube(1)")
    for module in (eb_solver, complex_asm):
        monkeypatch.setattr(module, "assemble_cells", _unusable)
        monkeypatch.setattr(module, "assemble_diff", _unusable)
    monkeypatch.setattr(complex_asm.GlobalSpace, "mass", _unusable)
    b = rng.standard_normal(sys.ntot)
    solved = {theta: sys._factorize(theta).solve(b) for theta in _THETAS.values()}
    monkeypatch.undo()
    for theta, x in solved.items():
        assert np.linalg.norm(_lhs(sys, theta) @ x - b) <= 1e-8 * np.linalg.norm(b)


def _scipy_lapack(*args, **kwargs):
    raise AssertionError("scipy's dense LAPACK was called")


def test_condensed_solves_call_no_scipy_dense_lapack(monkeypatch, rng):
    """The cell interiors run on numpy's BLAS alone: _factorize, cn_step,
    project and infsup_estimate all run with scipy's lu_factor, lu_solve and
    get_lapack_funcs raising.  A fresh system, so that the CN factor is built
    under the patch."""
    sys = eb_solver.EBSystem(mesh.load("kuhn_cube(1)"), 3)
    for name in ("lu_factor", "lu_solve", "get_lapack_funcs"):
        monkeypatch.setattr(eb_solver.sla, name, _scipy_lapack)
    y = rng.standard_normal(sys.ntot)
    Ay, Sy = sys.products(y)
    assert np.all(np.isfinite(sys._factorize(0.0).solve(y)))
    assert np.all(np.isfinite(sys.cn_step(y, 0.0125)))
    assert np.all(np.isfinite(sys.project(Ay - Sy)))
    assert 0 < eb_solver.infsup_estimate(sys) <= 1


def _lu_condensed_solve(sys, cells, theta, b):
    """The condensed solve of cells for a block b (n, m), cell by cell, with
    each K_ii applied by scipy's LU of its class's block and the interface
    by SuperLU's of the assembled Schur complement (_column_block_schur):
    the oracle of the inverse stack, the fronts and the batched products.
    Of cells it reads X, L and the scales."""
    ni = cells.interior.shape[1]
    d = sys.scale[cells.interior[np.unique(sys.cell_class, return_index=True)[1]]]
    Kii = sys.class_lhs(slice(None), theta)[:, :ni, :ni] * d[:, :, None] * d[:, None, :]
    lu = [sla.lu_factor(K) for K in Kii]
    cls, f = sys.cell_class, cells.cell_iface
    c = sys.scale[:, None] * b
    w = np.stack([sla.lu_solve(lu[r], c[i]) for r, i in zip(cls, cells.interior)])
    Lw = np.zeros((len(cells.iface), b.shape[1]))
    np.add.at(Lw, f, np.einsum("cfi,cim->cfm", cells.L[cls], w))
    schur = _column_block_schur(cells, _class_schur(sys, cells, theta), cls)
    xF = spla.splu(schur).solve(c[cells.iface] - cells.scale_F[:, None] * Lw)
    x = np.empty_like(c)
    x[cells.iface] = xF
    x[cells.interior] = w - np.einsum("cif,cfm->cim", cells.X[cls],
                                      (cells.scale_F[:, None] * xF)[f])
    return sys.scale[:, None] * x


@pytest.mark.parametrize("theta", [0.0, 0.5 * 0.0125, 1.0, 100.0])
@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_inverse_stack_solve_matches_scipy_lu(eb_systems, spec, theta, rng):
    """solve applies each class's K_ii by its inverse and the interface by
    the fronts: on eight random right-hand sides its full-system residual is
    at most twice that of the same condensed solve with scipy's LU of each
    K_ii and SuperLU's of the assembled Schur complement, and the solutions
    agree to 1e-9 relative, also at theta = 100, where cond(K_ii) reaches
    6.7e4 on kuhn_cube(1)."""
    sys = eb_systems(spec)
    cells = sys._factorize(theta)
    b = rng.standard_normal((sys.ntot, 8))
    x, ref = cells.solve(b), _lu_condensed_solve(sys, cells, theta, b)
    lhs = _lhs(sys, theta)
    assert np.linalg.norm(lhs @ x - b) <= 2 * np.linalg.norm(lhs @ ref - b)
    assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)


def test_cn_step_rejects_wrong_condensed_solve(eb_systems, rng, monkeypatch):
    sys = eb_systems("two_tets")
    solve = eb_solver.CellInteriors.solve
    monkeypatch.setattr(eb_solver.CellInteriors, "solve",
                        lambda self, b: (1 + 1e-6) * solve(self, b))
    with pytest.raises(RuntimeError, match="CN solve residual"):
        sys.cn_step(rng.standard_normal(sys.ntot), 0.05)


def test_run_rejects_wrong_condensed_solve(eb_systems, monkeypatch):
    """The residual check fires on run's carried-products path too."""
    sys = eb_systems("two_tets")
    solve = eb_solver.CellInteriors.solve
    monkeypatch.setattr(eb_solver.CellInteriors, "solve",
                        lambda self, b: (1 + 1e-6) * solve(self, b))
    cfg = eb_solver.EBConfig(mesh="two_tets", t_final=0.1, dt=0.05, init="random")
    with pytest.raises(RuntimeError, match="CN solve residual"):
        eb_solver.run(sys, cfg)


@pytest.mark.parametrize("spec, mms_name, nsteps", [
    ("kuhn_cube(1)", "none", 20),
    ("two_tets", "trig", 8),
])
def test_run_matches_plain_cn_steps(eb_systems, spec, mms_name, nsteps):
    """run, which carries (A y, S y) from step to step, against plain
    cn_step(y, dt, forcing_hat) calls and against steps whose right-hand side
    is the assembled (A + dt/2 S) y; every recorded energy is y . A y."""
    sys = eb_systems(spec)
    dt = 0.01
    drv = eb_solver.MMSDriver(sys, mms.make_mms(mms_name)) if mms_name != "none" else None
    cfg = eb_solver.EBConfig(mesh=spec, t_final=nsteps * dt, dt=dt, mms=mms_name, seed=5,
                             init="random" if drv is None else "mms")
    rec, y, _ = eb_solver.run(sys, cfg, driver=drv)
    if drv is None:
        y0 = np.random.default_rng(cfg.seed).standard_normal(sys.ntot)
    else:
        y0 = drv.initial_state()
    _, cells = sys.cn_factorization(dt)
    rhs_mat = (_oracle(sys).A + 0.5 * dt * sys.skew_block()).tocsr()
    states, assembled = [y0], y0
    for j in range(nsteps):
        fhat = (np.zeros(sys.ntot) if drv is None
                else 0.5 * (drv.forcing(j * dt) + drv.forcing((j + 1) * dt)))
        states.append(sys.cn_step(states[-1], dt, fhat))
        assembled = cells.solve(rhs_mat @ assembled + dt * fhat)
    assert len(rec.energy) == nsteps + 1
    assert np.linalg.norm(y - states[-1]) <= 1e-12 * np.linalg.norm(states[-1])
    # the two right-hand sides differ in rounding only, which the solves
    # amplify to about 3e-12 in the energy norm
    d = y - assembled
    assert np.sqrt(sys.energy(d) / sys.energy(assembled)) <= 1e-10
    if drv is not None:
        states = rec.states
        assert states[-1] is y
    for e, state in zip(rec.energy, states):
        assert abs(e - sys.energy(state)) <= 1e-13 * sys.energy(state)


def _counting(stack, counts, key):
    """stack as an array that adds to counts[key], in every matrix product
    that it or a part of it takes part in, the number of its class matrices
    in that product (a product batched over a group of classes counts each)."""
    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *args, **kwargs):
            if ufunc is np.matmul:
                counts[key] += sum(len(a) if a.ndim == 3 else 1
                                   for a in args if isinstance(a, Counting))
            return getattr(ufunc, method)(*(np.asarray(a) for a in args), **kwargs)

    return stack.view(Counting)


def test_run_applies_A_and_S_once_per_state(eb_systems, monkeypatch):
    """An N-step run applies each of A and S N + 1 times: every class's three
    masses take part in N + 1 products each, and its two couplings in
    2 (N + 1) (C3 and C3^T, C2 and C2^T of S); the CN cache keeps the factor
    but no assembled global matrix."""
    sys = eb_systems("kuhn_cube(1)")
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=0.1, dt=0.02, init="random")
    sys.cn_factorization(cfg.dt)    # built from the plain stacks before they are wrapped
    counts = dict.fromkeys(["mq", "mE", "mB", "c3", "c2"], 0)
    monkeypatch.setattr(sys, "_cell_mass", tuple(
        _counting(m, counts, key) for m, key in zip(sys._cell_mass, ["mq", "mE", "mB"])))
    monkeypatch.setattr(sys, "_cell_coupling", tuple(
        _counting(c, counts, key) for c, key in zip(sys._cell_coupling, ["c3", "c2"])))
    monkeypatch.setattr(eb_solver, "assemble_cells", _unusable)
    rec, _, _ = eb_solver.run(sys, cfg)
    nclasses, applications = len(sys.space_E.class_reps), cfg.nsteps + 1
    assert applications == len(rec.t)
    assert counts == {"mq": nclasses * applications, "mE": nclasses * applications,
                      "mB": nclasses * applications, "c3": 2 * nclasses * applications,
                      "c2": 2 * nclasses * applications}
    assert not any(sp.issparse(v) or getattr(v, "shape", None) == (sys.ntot, sys.ntot)
                   for v in sys._cn[cfg.dt])


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)", "kuhn_cube(2)"])
def test_class_products_equal_assembled_A_and_S(eb_systems, spec, rng):
    """products applies each class's blocks to its cells' gathered vectors:
    it equals A y and S y, with A and S assembled here by assemble_cells from
    stack[cell_class], to 1e-14 relative."""
    sys = eb_systems(spec)
    cls = sys.cell_class
    (mq, mE, mB), (c3, c2) = sys._cell_mass, sys._cell_coupling
    q, E, B = (space.cell_maps for space in (sys.space_q, sys.space_E, sys.space_B))
    A = sp.block_diag([assemble_cells(maps, maps, m[cls], (n, n)) for maps, m, n in zip(
        (q, E, B), (mq, mE, mB), (sys.nq, sys.nE, sys.nB))], format="csr")
    C3 = assemble_cells(q, E, c3[cls], (sys.nq, sys.nE))
    C2 = assemble_cells(E, B, c2[cls], (sys.nE, sys.nB))
    S = sp.bmat([[None, C3, None], [-C3.T, None, -C2], [None, C2.T, None]], format="csr")
    y = rng.standard_normal(sys.ntot)
    for got, want in zip(sys.products(y), (A @ y, S @ y)):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_classes_of_unequal_size_batch_by_group(rng):
    """Moving the centre vertex of kuhn_cube(2) leaves 24 classes of one cell
    and 6 of four: two groups, each batched on its own.  The products still
    equal A y and S y to 1e-14 relative, and a CN step passes its residual
    check."""
    m = mesh.kuhn_cube(2)
    v = m.vertices.copy()
    v[np.argmin(np.linalg.norm(v - 0.5, axis=1))] += [0.01, -0.02, 0.015]
    sys = eb_solver.EBSystem(mesh.TetMesh(v, m.cells), 3)
    assert [len(cls) for _, cls, _ in eb_solver.class_groups(sys.cell_class)] == [24, 6]
    y = rng.standard_normal(sys.ntot)
    for got, want in zip(sys.products(y), (_oracle(sys).A @ y, sys.skew_block() @ y)):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert np.all(np.isfinite(sys.cn_step(y, 0.01)))


def _held(obj, depth=0):
    """obj and what it holds, through containers, the system and its factors."""
    yield obj
    if isinstance(obj, dict):
        inner = obj.values()
    elif isinstance(obj, (list, tuple)):
        inner = obj
    elif isinstance(obj, (eb_solver.EBSystem, eb_solver.CellInteriors)):
        inner = vars(obj).values()
    else:
        inner = ()
    for item in inner:
        if depth < 4:
            yield from _held(item, depth + 1)


def test_system_drops_the_build_data(monkeypatch, rng, fresh_class_data):
    """Once its class stacks exist the system holds no element's DOF groups
    (the test arrays) and its entity cache is freed; it keeps each element's
    Vandermonde V, which later cell operators read, equal to a freshly built
    element's.  It blanks no shared element: a space that shares its classes
    still interpolates.  The masses, the MMS loads and cell_values equal, bit
    for bit, those of spaces built anew, and interpolating on a solver space
    says why it cannot."""
    caches = []

    class Recorded(fe3d.EntityCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(weakref.ref(self))

    monkeypatch.setattr(eb_solver, "EntityCache", Recorded)
    m = mesh.load("kuhn_cube(1)")
    other = GlobalSpace(m, "hdivdiv_S", 3)
    sys = eb_solver.EBSystem(m, 3)
    gc.collect()
    assert len(caches) == 1 and caches[0]() is None
    alive = {key[:2] for key in fresh_class_data.keys() if key[0] == "functionals"}
    assert alive == {("functionals", "hdivdiv_S")}
    assert all(a is b for a, b in zip(sys.space_E.elements, other.elements))
    const = poly.reference_cell("tet").basis(0)
    other.interpolate(PolyField(const, np.eye(3)[None], (3, 3)))
    spaces = (sys.space_q, sys.space_E, sys.space_B)
    fresh_class_data.clear()
    cache = fe3d.EntityCache(m, 3)
    fresh = [GlobalSpace(m, s.family, 3, cache) for s in spaces]
    twin = copy.copy(sys)
    twin.space_q, twin.space_E, twin.space_B = fresh
    twin._tabs = {}
    for space, new, mass in zip(spaces, fresh, sys._cell_mass):
        assert all(e.groups is None for e in space.elements)
        assert all(np.array_equal(e.V, f.V) for e, f in zip(space.elements, new.functionals))
        assert space.cache is None
        assert np.array_equal(new.cell_masses(), mass)
        y = rng.standard_normal(space.dim)
        assert np.array_equal(sys.cell_values(space, y), twin.cell_values(new, y))
    for (*_, got), (*_, want) in zip(eb_solver.MMSDriver(sys, mms.trig_mms())._loads,
                                     eb_solver.MMSDriver(twin, mms.trig_mms())._loads):
        assert np.array_equal(got, want)
    basis = poly.reference_cell("tet").basis(1)
    with pytest.raises(ValueError, match="DOF functionals were dropped"):
        sys.space_q.interpolate(PolyField(basis, np.ones(basis.N), ()))


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_system_holds_no_sparse_matrix(spec):
    """After construction the system holds its operators as class stacks
    only: no attribute is an assembled sparse matrix."""
    sys = eb_solver.EBSystem(mesh.load(spec), 3)
    assert not [name for name, v in vars(sys).items() if sp.issparse(v)]


def test_system_holds_class_stacks_and_no_global_matrix(eb_systems):
    """After a run on kuhn_cube(2) (48 cells in 6 classes) the system holds no
    ntot x ntot matrix and no per-cell operator stack: every operator stack,
    in the system and in its CN factor, has one entry per class."""
    sys = eb_systems("kuhn_cube(2)")
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(2)", t_final=0.02, dt=0.01, init="random")
    eb_solver.run(sys, cfg)
    _, cells = sys._cn[cfg.dt]
    stacks = [*sys._cell_diff, *sys._cell_mass, *sys._cell_coupling, cells.X, cells.L,
              cells.inv_ii]
    assert [len(s) for s in stacks] == [6] * len(stacks)
    for obj in _held(sys):
        assert not (sp.issparse(obj) and obj.shape == (sys.ntot, sys.ntot))
        assert not (isinstance(obj, np.ndarray) and obj.ndim == 3 and len(obj) == 48)


def test_energy_conservation_100_steps(eb_systems):
    sys = eb_systems("kuhn_cube(1)")
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=1.0, dt=0.01,
                             init="random", seed=1)
    rec, _, _ = eb_solver.run(sys, cfg)
    en = np.array(rec.energy)
    assert len(en) == 101
    drift = np.abs(en - en[0]).max() / en[0]
    assert drift <= 1e-8


def test_per_step_energy_preservation(eb_systems):
    sys = eb_systems("kuhn_cube(1)")
    rng = np.random.default_rng(3)
    y = rng.standard_normal(sys.ntot)
    e0 = sys.energy(y)
    y1 = sys.cn_step(y, 0.07)
    assert abs(sys.energy(y1) - e0) <= 1e-10 * e0


def test_cn_local_order_halving(eb_systems):
    """One dt step vs two dt/2 steps differ at O(dt^3) on smooth data.

    Smooth = the projected polynomial solution; dt sits inside the asymptotic
    window dt * rho(A^-1 S) < 1 and well above the solver noise floor.
    """
    sys = eb_systems("two_tets")
    drv = eb_solver.MMSDriver(sys, mms.poly_mms(3))
    y0 = sys.project(drv.projection_rhs(0.0))

    def local_diff(dt):
        a = sys.cn_step(y0, dt)
        b = sys.cn_step(sys.cn_step(y0, dt / 2), dt / 2)
        return np.linalg.norm(a - b)

    d1, d2 = local_diff(0.0125), local_diff(0.00625)
    ratio = d1 / d2
    assert 6.0 <= ratio <= 10.0  # 8 for a third-order local difference


def test_projection_idempotent_on_discrete_fields(eb_systems, rng):
    """Feeding a discrete triple through the quadrature RHS path and projecting
    returns the same coefficients."""
    sys = eb_systems("two_tets")
    y = rng.standard_normal(sys.ntot)
    sig, e, b = sys.split(y)
    pts, _ = sys.cell_quadrature()

    def fld(space, coeffs, op=None):
        vals = []
        for ci, p in enumerate(pts):
            f = _cell_field(space, coeffs, ci)
            vals.append((f if op is None else op(f)).eval(p))
        return np.stack(vals)

    from divdivfem import tensor_calc as tc
    aq, addq = sys.assemble_forms(sys.space_q, np.stack([
        fld(sys.space_q, sig), fld(sys.space_E, e, lambda f: f.div().div())]))
    axi, ascxi = sys.assemble_forms(sys.space_E, np.stack([
        fld(sys.space_E, e), fld(sys.space_B, b, lambda f: tc.field_sym(f.curl()))]))
    (az,) = sys.assemble_forms(sys.space_B, fld(sys.space_B, b)[None])
    # the divdiv and symcurl loads: D3^T and D2^T of the value loads
    o = _oracle(sys)
    adivxi, ascz = o.D3.T @ aq, o.D2.T @ axi
    rhs = sys.stack(aq - addq, axi + adivxi + ascxi, az - ascz)
    y2 = sys.project(rhs)
    # compare in the energy norm (coefficients mix scales)
    d = y2 - y
    rel = np.sqrt(sys.energy(d) / sys.energy(y))
    assert rel <= 1e-9


def test_poly_mms_degrees_reproduced_exactly(eb_systems):
    """Degrees (k-2, k, k+1) lie in the discrete spaces: projection and the
    quadratic-in-time CN runs reproduce them to solver precision."""
    sys = eb_systems("kuhn_cube(1)")
    pm = mms.poly_mms(3, time_degree=2)
    drv = eb_solver.MMSDriver(sys, pm)
    y0 = sys.project(drv.projection_rhs(0.0))
    errs = drv.pointwise_errors(y0, 0.0)
    assert max(errs) <= 1e-9
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=0.5, dt=0.125,
                             init="mms", mms="poly")
    rec, y, _ = eb_solver.run(sys, cfg, driver=drv)
    errs = drv.pointwise_errors(y, rec.t[-1])
    assert max(errs) <= 1e-8


def test_poly_mms_per_step_errors_are_direct_quadrature(eb_systems):
    """Every recorded error of the space-exact run sits at solver precision,
    and the last one is the error of the final state."""
    sys = eb_systems("kuhn_cube(1)")
    drv = eb_solver.MMSDriver(sys, mms.poly_mms(3, time_degree=2))
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=0.5, dt=0.125,
                             init="mms", mms="poly")
    rec, y, _ = eb_solver.run(sys, cfg, driver=drv)
    assert len(rec.err_B) == cfg.nsteps + 1
    assert max(rec.err_sigma + rec.err_E + rec.err_B) <= 1e-8
    final = drv.pointwise_errors(y, rec.t[-1])
    assert final == (rec.err_sigma[-1], rec.err_E[-1], rec.err_B[-1])


def _nodal_reference(space, ci, pts, op=None):
    """Nodal basis (or its divdiv / symcurl) of cell ci at pts: (p, ndof, ...),
    from the generators as PolyFields and their exact coefficient calculus."""
    from divdivfem import tensor_calc as tc
    elem = space.elements[space.cell_class[ci]]
    gens = PolyField.generators(space.mesh.cell_simplices[ci].basis(elem.basis.degree),
                                elem.comp_gens)
    if op == "divdiv":
        gens = gens.div().div()
    elif op == "symcurl":
        gens = tc.field_sym(gens.curl())
    return np.moveaxis(np.tensordot(elem.Vinv, gens.eval(pts), axes=(0, 0)), 0, 1)


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_assemble_forms_matches_nodal_reference(eb_systems, spec):
    """The seven MMS loads equal quadrature against the nodal basis (or its
    divdiv / symcurl) from exact coefficient calculus; the divdiv and symcurl
    loads are D3^T and D2^T of value loads."""
    sys = eb_systems(spec)
    m = mms.trig_mms()
    s, e, b = m.sigma_terms[0], m.E_terms[0], m.B_terms[0]
    reqs = [("q", s.shape), ("q", e.dshape), ("divxi", s.shape), ("xi", e.shape),
            ("xi", b.dshape), ("z", b.shape), ("scz", e.shape)]
    slots = {"q": (sys.space_q, None), "divxi": (sys.space_E, "divdiv"),
             "xi": (sys.space_E, None), "z": (sys.space_B, None),
             "scz": (sys.space_B, "symcurl")}
    ref = [np.zeros(slots[slot][0].dim) for slot, _ in reqs]
    for ci in range(sys.mesh.num_cells):
        pts, w = sys._qrule.on(sys.mesh.cell_simplices[ci])
        for out, (slot, fld) in zip(ref, reqs):
            space, op = slots[slot]
            tab = _nodal_reference(space, ci, pts, op)
            vals = fld(pts).reshape(len(w), -1)
            out[space.cell_maps[ci]] += np.einsum(
                "pv,pmv,p->m", vals, tab.reshape(*tab.shape[:2], -1), w)
    qpts, _ = sys.cell_quadrature()

    def at_points(*flds):
        return np.stack([np.stack([f(p) for p in qpts]) for f in flds])

    aq, addq = sys.assemble_forms(sys.space_q, at_points(s.shape, e.dshape))
    axi, ascxi = sys.assemble_forms(sys.space_E, at_points(e.shape, b.dshape))
    (az,) = sys.assemble_forms(sys.space_B, at_points(b.shape))
    o = _oracle(sys)
    got = [aq, addq, o.D3.T @ aq, axi, ascxi, az, o.D2.T @ axi]
    for (slot, _), g, want in zip(reqs, got, ref):
        assert np.abs(g - want).max() <= 1e-10 * np.abs(want).max(), slot


def test_assemble_forms_is_the_transpose_of_cell_values(eb_systems, rng):
    """assemble_forms(space, v) . y is the quadrature of v . cell_values(space, y)."""
    sys = eb_systems("kuhn_cube(1)")
    _, w = sys.cell_quadrature()
    for space in (sys.space_q, sys.space_E, sys.space_B):
        y = rng.standard_normal(space.dim)
        u = sys.cell_values(space, y)
        v = rng.standard_normal((2,) + u.shape)
        got = sys.assemble_forms(space, v) @ y
        want = np.einsum("cp,mcpv,cpv->m", w, v.reshape(2, *w.shape, -1),
                         u.reshape(*w.shape, -1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_mms_driver_evaluates_each_field_once_per_cell(eb_systems):
    """The shape values serve both the loads and the errors: MMSDriver calls
    every shape and dshape once, on all the cells' quadrature points."""
    sys = eb_systems("kuhn_cube(1)")
    m = mms.trig_mms()
    calls, npts = {}, sys.cell_quadrature()[0].size // 3

    def counted(name, fn):
        def wrapped(pts):
            calls[name] = calls.get(name, 0) + 1
            assert pts.shape == (npts, 3)
            return fn(pts)
        return wrapped

    for terms in ("sigma_terms", "E_terms", "B_terms"):
        for term in getattr(m, terms):
            for factor in ("shape", "dshape"):
                if getattr(term, factor) is not None:
                    setattr(term, factor, counted((terms, factor), getattr(term, factor)))
    eb_solver.MMSDriver(sys, m)
    assert len(calls) == 5
    assert set(calls.values()) == {1}


def _eval_cells(space, coeffs, ci, pts):
    """Values of the discrete field coeffs of space on cell ci at physical points."""
    return _cell_field(space, coeffs, ci).eval(pts)


def test_errors_match_cellwise_evaluation(eb_systems, rng):
    """errors() equals quadrature of each cell's field values, cell by cell."""
    sys = eb_systems("kuhn_cube(1)")
    m = mms.trig_mms()
    drv = eb_solver.MMSDriver(sys, m)
    y, t = rng.standard_normal(sys.ntot), 0.3
    ref = np.zeros(3)
    for ci in range(sys.mesh.num_cells):
        pts, w = sys._qrule.on(sys.mesh.cell_simplices[ci])
        for j, (space, coeffs, terms) in enumerate(zip(
                (sys.space_q, sys.space_E, sys.space_B), sys.split(y),
                (m.sigma_terms, m.E_terms, m.B_terms))):
            d = _eval_cells(space, coeffs, ci, pts) - sum(
                tm.g(t) * tm.shape(pts) for tm in terms)
            ref[j] += np.sum(w * (d * d).reshape(len(w), -1).sum(axis=1))
    got = drv.errors(y, t)
    assert all(type(v) is float for v in got)
    np.testing.assert_allclose(got, np.sqrt(ref), rtol=1e-12, atol=0)


def test_zero_triple_projects_to_zero(eb_systems):
    sys = eb_systems("two_tets")
    y = sys.project(np.zeros(sys.ntot))
    assert np.abs(y).max() == 0.0


def test_trig_mms_derivative_factors_consistent(rng):
    """Hand-coded divdiv/symcurl factors of the trig solution agree with
    central differences."""
    m = mms.trig_mms()
    pts = 0.2 + 0.6 * rng.random((6, 3))
    h = 1e-5
    E = m.E_terms[0].shape
    dd_exact = m.E_terms[0].dshape(pts)

    def divdiv_fd(p):
        out = np.zeros(len(p))
        for i in range(3):
            for j in range(3):
                pp = p.copy(); pm = p.copy()
                pij = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    q = p.copy()
                    q[:, i] += si * h
                    q[:, j] += sj * h
                    pij.append(E(q)[:, i, j] * si * sj)
                out += sum(pij) / (4 * h * h)
        return out

    assert np.abs(divdiv_fd(pts) - dd_exact).max() <= 2e-4
    B = m.B_terms[0].shape
    sc_exact = m.B_terms[0].dshape(pts)

    def curl_fd(p):
        out = np.zeros((len(p), 3, 3))
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
        for (l, j, kk), s in eps.items():
            qp = p.copy(); qm = p.copy()
            qp[:, j] += h
            qm[:, j] -= h
            out[:, :, l] += s * (B(qp)[:, :, kk] - B(qm)[:, :, kk]) / (2 * h)
        return out

    sc_fd = 0.5 * (curl_fd(pts) + np.swapaxes(curl_fd(pts), -1, -2))
    assert np.abs(sc_fd - sc_exact).max() <= 2e-4


def _infsup_identity_check(sys, trials: int, seed: int = 0) -> float:
    """The proof's test choice bounds the form below by half the squared norms;
    returns the worst slack (negative = violation)."""
    rng = np.random.default_rng(seed)
    o = _oracle(sys)
    Mq, ME = o.Mq, o.ME
    worst = np.inf
    for _ in range(trials):
        y = rng.standard_normal(sys.ntot)
        sig, e, b = sys.split(y)
        dde = o.D3 @ e
        scb = o.D2 @ b
        test = sys.stack(sig - dde, e + scb, b)
        Ay, Sy = sys.products(y)
        lhs = float(test @ (Ay - Sy))
        rhs = 0.5 * float(y @ Ay + dde @ (Mq @ dde) + scb @ (ME @ scb))
        worst = min(worst, (lhs - rhs) / max(abs(rhs), 1e-300))
    return worst


def test_infsup_identity_on_random_triples(eb_systems):
    sys = eb_systems("kuhn_cube(1)")
    worst = _infsup_identity_check(sys, trials=50, seed=0)
    assert worst >= -1e-12


def _dense_infsup(sys):
    """Smallest singular value of A - S in the graph norm, by dense linear
    algebra: the Cholesky factor L of the equilibrated vnorm_block gives
    beta = sigma_min(L^{-1} P L^{-T}) for the equilibrated A - S = P."""
    N = _equilibrated(sys, eb_solver.vnorm_block(sys)).toarray()
    P = _equilibrated(sys, _lhs(sys, 1.0)).toarray()
    L = np.linalg.cholesky(N)
    X = sla.solve_triangular(L, P, lower=True)
    C = sla.solve_triangular(L, X.T, lower=True).T
    return float(np.linalg.svd(C, compute_uv=False)[-1])


@pytest.mark.parametrize("spec, k, size", [("single_tet", 3, 1), ("two_tets", 3, 1),
                                           ("kuhn_cube(1)", 3, 1), ("two_tets", 4, 1),
                                           ("two_tets", 3, 20)],
                         ids=["single_tet", "two_tets", "kuhn_cube(1)", "two_tets-k4",
                              "two_tets-x20"])
def test_infsup_matches_dense_reference(eb_systems, monkeypatch, spec, k, size):
    """With no ARPACK call.  On unit-size cells divdiv dominates and its
    pencil gives d_max with the E mass factored alone; on two_tets scaled by
    20 symcurl does (its singular values scale as 1/h, divdiv's as 1/h^2),
    its cell bound lies above divdiv's value, and the B mass is factored too."""
    if size == 1:
        sys = eb_systems(spec, k)
    else:
        m = mesh.load(spec)
        sys = eb_solver.EBSystem(mesh.TetMesh(size * m.vertices, m.cells), k)

    def boom(*args, **kwargs):
        raise AssertionError("ARPACK called")

    monkeypatch.setattr(eb_solver.spla, "eigs", boom)
    monkeypatch.setattr(eb_solver.spla, "eigsh", boom)
    factors = []
    cell_interiors = eb_solver.CellInteriors
    monkeypatch.setattr(eb_solver, "CellInteriors",
                        lambda *args: factors.append(args) or cell_interiors(*args))
    beta = eb_solver.infsup_estimate(sys)
    assert abs(beta - _dense_infsup(sys)) <= 1e-10
    assert (np.sqrt(5) - 1) / 2 < beta <= 1
    assert len(factors) == (1 if size == 1 else 2)


@pytest.mark.parametrize("size, symcurl", [(1, False), (8, True)], ids=["unit", "x8"])
def test_infsup_assembles_symcurl_blocks_only_for_its_pencil(monkeypatch, size, symcurl):
    """On kuhn_cube(1) divdiv dominates, and infsup_estimate assembles Mq, ME
    and C3 once each, and neither MB nor C2; on two_tets scaled by 8 the
    symcurl pencil runs too, and MB and C2 are assembled once each.  Every
    assembly goes through assemble_cells, counted here by its shape."""
    m = mesh.load("kuhn_cube(1)" if size == 1 else "two_tets")
    sys = eb_solver.EBSystem(mesh.TetMesh(size * m.vertices, m.cells), 3)
    shapes = []
    for module in (eb_solver, complex_asm):
        monkeypatch.setattr(module, "assemble_cells", lambda *args, assemble=module.assemble_cells:
                            shapes.append(args[3]) or assemble(*args))
    eb_solver.infsup_estimate(sys)
    nq, nE, nB = sys.nq, sys.nE, sys.nB
    want = [(nq, nq), (nE, nE), (nq, nE)] + ([(nE, nB), (nB, nB)] if symcurl else [])
    assert sorted(shapes) == sorted(want)


def test_infsup_independent_of_the_column_block(eb_systems, monkeypatch):
    """Blocks of 7 columns (the last one ragged: nq = 24 on kuhn_cube(1))
    give the pencil of the default block size."""
    sys = eb_systems("kuhn_cube(1)")
    beta = eb_solver.infsup_estimate(sys)
    monkeypatch.setattr(eb_solver, "PENCIL_BLOCK", 7)
    assert abs(eb_solver.infsup_estimate(sys) - beta) <= 1e-14


def test_infsup_rejects_inaccurate_mass_solves(eb_systems, monkeypatch):
    sys = eb_systems("single_tet")
    solve = eb_solver.CellInteriors.solve
    monkeypatch.setattr(eb_solver.CellInteriors, "solve",
                        lambda self, b: (1 + 1e-6) * solve(self, b))
    with pytest.raises(RuntimeError, match="backward error"):
        eb_solver.infsup_estimate(sys)


def test_mms_forcing_consistency(eb_systems):
    """The manufactured trajectory satisfies the forced semidiscrete system."""
    sys = eb_systems("kuhn_cube(1)")
    pm = mms.poly_mms(3, time_degree=2)
    drv = eb_solver.MMSDriver(sys, pm)
    y0 = sys.project(drv.projection_rhs(0.0))
    eps = 1e-4
    ydot = (sys.project(drv.projection_rhs(eps))
            - sys.project(drv.projection_rhs(-eps))) / (2 * eps)
    r = _oracle(sys).A @ ydot - sys.skew_block() @ y0 - drv.forcing(0.0)
    scale = max(np.abs(drv.forcing(0.0)).max(), 1.0)
    assert np.abs(r).max() <= 1e-7 * scale


def test_run_mms_init_without_solution_is_rejected(eb_systems):
    cfg = eb_solver.EBConfig(mesh="two_tets", t_final=0.1, dt=0.05, init="mms", mms="trig")
    with pytest.raises(ValueError, match="manufactured solution"):
        eb_solver.run(eb_systems("two_tets"), cfg)


def test_temporal_convergence_projects_initial_state_once(monkeypatch):
    """Three dt share one projection: 1 factor of A - S plus 3 CN factors."""
    calls = []
    splu = eb_solver.spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(eb_solver.spla, "splu", counting)
    rows = eb_solver.temporal_convergence(
        "two_tets", 3, lambda: mms.poly_mms(3, time_degree=3), t_final=0.1,
        dts=[0.05, 0.025, 0.0125])
    assert len(rows) == 3 and all(np.isfinite(r["err_total"]) for r in rows)
    assert len(calls) == 4


def test_convergence_study_computes_final_errors_only(monkeypatch):
    """The studies read the final state's errors; no per-step series is formed."""
    calls = []
    errors = eb_solver.MMSDriver.errors

    def counting(self, y, t):
        calls.append(t)
        return errors(self, y, t)

    monkeypatch.setattr(eb_solver.MMSDriver, "errors", counting)
    monkeypatch.setattr(eb_solver.MMSDriver, "pointwise_errors", counting)
    rows = eb_solver.temporal_convergence(
        "two_tets", 3, lambda: mms.poly_mms(3, time_degree=3), t_final=0.1,
        dts=[0.05, 0.025])
    assert len(rows) == 2 and calls == [0.1, 0.1]


def test_convergence_study_keeps_only_the_base_system(monkeypatch):
    """mms_convergence builds one EBSystem per level, stores only the base
    level's in systems and drops the finer ones after their run; the temporal
    study reuses the base level's, and systems passed in are not rebuilt."""
    built, system = [], eb_solver.EBSystem

    def counting(m, k):
        sys = system(m, k)
        built.append(weakref.ref(sys))
        return sys

    specs, systems = ["two_tets", "kuhn_cube(1)"], {}
    monkeypatch.setattr(eb_solver, "EBSystem", counting)
    rows = eb_solver.mms_convergence(specs, 3, mms.trig_mms, t_final=0.05,
                                     dt_for_level=lambda lvl: 0.05, systems=systems)
    assert len(rows) == 2 and len(built) == 2
    assert "order" not in rows[1]       # both meshes' shortest edge is 1
    assert list(systems) == [("two_tets", 3)] and systems["two_tets", 3] is built[0]()
    gc.collect()
    assert built[1]() is None
    eb_solver.temporal_convergence("two_tets", 3, lambda: mms.poly_mms(3, time_degree=3),
                                   t_final=0.1, dts=[0.05, 0.025], systems=systems)
    assert len(built) == 2
    prebuilt = {(spec, 3): system(mesh.load(spec), 3) for spec in specs}
    eb_solver.mms_convergence(specs, 3, mms.trig_mms, t_final=0.05,
                              dt_for_level=lambda lvl: 0.05, systems=prebuilt)
    assert len(built) == 2 and len(prebuilt) == 2
