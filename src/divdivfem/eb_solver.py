"""Dual-formulation linearized Einstein-Bianchi solver.

Unknowns: scalar sigma in discontinuous P_{k-2}, symmetric E in the H(divdiv)
space, trace-free B in the H(symcurl) space.  The semidiscrete system couples
them skew-symmetrically; Crank-Nicolson then conserves the discrete energy
exactly with zero forcing.

Boundary conditions: none are imposed (the spaces are unconstrained); the
manufactured-solution machinery therefore defines its forcing at the weak
level, which absorbs all boundary terms consistently.  See README.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .complex_asm import (CellTree, Fronts, GlobalSpace, assemble_cells, assemble_diff,
                          cell_operators)
from .fe3d import EntityCache
from .linalg import blas_threads, one_blas_thread
from .mesh import TetMesh, load as load_mesh
from .quadrature import REF_MEASURE, rule


INITS = ("zero", "random", "mms")
MMS_CHOICES = ("none", "trig", "poly")


@dataclass
class EBConfig:
    mesh: str = "kuhn_cube(1)"
    k: int = 3
    t_final: float = 0.5
    dt: float = 0.03125
    init: str = "zero"          # zero | random | mms
    mms: str = "none"           # none | trig | poly
    seed: int = 0

    @classmethod
    def from_file(cls, path) -> "EBConfig":
        kw = {}
        casts = {"k": int, "seed": int, "t_final": float, "dt": float}
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in cls.__dataclass_fields__:
                    raise ValueError(f"unknown config key {key!r}")
                if key in kw:
                    raise ValueError(f"repeated config key {key!r}")
                kw[key] = casts.get(key, str)(val)
        cfg = cls(**kw)
        cfg.validate()
        return cfg

    def validate(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (np.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError("t_final must be non-negative and finite")
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        for key, allowed in (("init", INITS), ("mms", MMS_CHOICES)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}")
        n = self.t_final / self.dt
        if not np.isfinite(n):
            raise ValueError("t_final / dt overflows: the step count is not finite")
        if abs(n - round(n)) > 1e-9:
            raise ValueError("t_final must be an integral multiple of dt")
        if self.init == "mms" and self.mms == "none":
            raise ValueError("init=mms requires an mms choice")

    @property
    def nsteps(self) -> int:
        return int(round(self.t_final / self.dt))


def class_groups(cell_class: np.ndarray) -> list[tuple]:
    """The translation classes grouped by their number of cells, so that a
    product with a class stack runs once per group, batched over its classes.
    Each group is (sel, classes, cells): sel picks its entries of a class
    stack (every entry, a view, when all classes have as many cells, as on
    Kuhn meshes; else the classes themselves, a copy), and cells
    (classes, size) lists the cells of each class."""
    members = [np.flatnonzero(cell_class == r) for r in range(cell_class.max() + 1)]
    sizes = np.array([len(cells) for cells in members])
    groups = [np.flatnonzero(sizes == size) for size in np.unique(sizes)]
    return [(slice(None) if len(groups) == 1 else cls, cls,
             np.stack([members[r] for r in cls])) for cls in groups]


@functools.cache
def _workers() -> concurrent.futures.ThreadPoolExecutor:
    """The threads that eliminate fronts next to the caller's, started on
    first use and kept for the process, so that each factor reuses their
    malloc arenas: a process making four CN factors on kuhn_cube(3) peaked
    at 456 MB RSS with a pool per factor and at 434 MB with these threads
    kept, and one making two on kuhn_cube(4) at 1042 and 992 MB."""
    return concurrent.futures.ThreadPoolExecutor(thread_name_prefix="divdivfem-fronts")


# a forked child has none of the parent's threads: it starts its own
os.register_at_fork(after_in_child=_workers.cache_clear)


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, which returns the free pages of every malloc
    arena to the system; None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def dense_csc(F: np.ndarray) -> sp.csc_matrix:
    """sp.csc_matrix(F) of a dense F, exact zeros dropped, read off the
    nonzeros of a C-ordered copy of F^T rather than through COO."""
    Ft = np.ascontiguousarray(F.T)                   # row j: column j of F
    nz = Ft != 0
    at = np.flatnonzero(nz)
    indptr = np.zeros(F.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nz, axis=1), out=indptr[1:])
    return sp.csc_matrix((Ft.ravel()[at], (at % F.shape[0]).astype(np.int32), indptr),
                         shape=F.shape)


class CellInteriors:
    """The factor of a matrix lhs with a positive-definite symmetric part,
    assembled from the cell blocks of its translation classes: A - theta S of
    the CN step and the projection, or a mass matrix alone in the inf-sup
    estimate.  Equilibrated, its cell interiors condensed out class by class,
    and the Schur complement eliminated front by front over the cells'
    bisection tree (multifrontal: Duff & Reid, ACM TOMS 1983).

    K = D lhs D, with D the diagonal of scale, is the sum over cells of
    P_c^T K_c P_c, K_c = D_c lhs_r D_c, where lhs_r is the block of the class
    r of cell c.  The interior unknowns I of a cell belong to that cell alone,
    so its rows and columns of K are those of K_c, and their scale D_i is its
    class's (the mass diagonal of its own cell); only the interface scale
    D_F,c differs from cell to cell.  So each class keeps the inverse of
    K_ii = D_i lhs_ii D_i, Xt_r = K_ii^-1 D_i lhs_iF (solved, not applied
    through the inverse) and L_r = lhs_Fi D_i: a cell's X_c = K_ii^-1 K_iF
    is Xt_r D_F,c and its K_Fi is D_F,c L_r.  With T_r = lhs_FF - L_r Xt_r,
    the Schur complement on the interface unknowns F is
    D_F (sum_c P_c T_r P_c^T) D_F; no global matrix is formed.  The lhs_r
    are built CHUNK classes at a time (class_lhs), so the dense transients
    stay small when every cell is its own class.

    Fronts: the leaf front of cell c is D_F,c T_r D_F,c; every other front
    is its children's updates, added at their places (Fronts).  A front
    [[F_OO, F_OB], [F_BO, F_BB]] on its own unknowns O and boundary B keeps
    the inverse of F_OO, X = F_OO^-1 F_OB (solved, not applied through the
    inverse) and L = F_BO, and passes F_BB - L X to its parent: the
    inv_ii/X/L of the interiors, on every level, all on numpy's BLAS.  The
    root's front, its separator's Schur complement, is dense, and is
    factored alone, by SuperLU in its natural order with partial pivoting:
    the benchmark's tracer counts factorisations as splu calls and reads
    the L+U size from cn_factorization()[0], and SuperLU's solve runs
    between numpy's products without contention, where scipy's getrf/getrs
    would alternate the two bundled OpenBLAS pools again.  On a dense
    750 x 750 matrix at one BLAS thread (2-core host, four runs) a numpy
    inverse took 41-65 ms, SuperLU 35-55 ms plus 4-7 ms for dense_csc, and
    LAPACK's getrf (scipy.linalg.lu_factor) 8-14 ms, about a quarter of
    SuperLU's time in every run; a getrf root waits for a benchmark that
    times its getrs solves between numpy's products.

    Workers: the subtrees below the root are independent, so they are
    eliminated on as many workers as numpy's OpenBLAS has threads
    (linalg.blas_threads): the calling thread and the threads of
    _workers(), each given whole subtrees by Fronts.shares.  Once glibc's
    malloc_trim has returned the workers' freed fronts to the system, the
    nodes above them and the root follow on the calling thread.  While
    more than one worker runs, the whole factor, the interiors' chunks
    included, runs under one_blas_thread: fronts of a few hundred rows run
    about as fast on one OpenBLAS thread, and a front's factors are then
    the same bits for any worker count.  One thread
    (OPENBLAS_NUM_THREADS=1, or a caller inside one_blas_thread, as
    infsup_estimate) means one worker, the same code.  On kuhn_cube(2),
    2 cores, the CN factor took 0.43-0.45 s on one worker and 0.22-0.29 s
    on two.

    Interiors and fronts: the inverses keep the solve on numpy's BLAS.  scipy
    bundles a second OpenBLAS, and alternating its getrs with numpy's
    products doubled the 2-thread kuhn_cube(2) CN step.  An applied inverse
    has forward error of order cond u, as LU has (Higham 2002, ch. 14), and
    the equilibrated K_ii have cond <= 1.6e3 up to theta = 1 and 1.3e5 at
    theta = 100 on kuhn_cube(2).

    Pivots: K has a positive-definite symmetric part (A is SPD and S skew),
    and so has each K_ii and every Schur complement taken from it
    (x^T Schur x = z^T K z with z = (-K_ii^-1 K_iF x, x)): every F_OO and
    the root front.  So each is nonsingular in any order of elimination,
    and the tree's order needs no pivot to exist; LAPACK's and SuperLU's
    partial pivoting bound the growth inside a front.  On kuhn_cube(1) the
    componentwise backward error of a solve stays at rounding level,
    below 1e-15, from theta = 0 to 100.
    """

    # classes whose lhs_r are formed at once: 10 MB of dense transients at k = 3
    CHUNK = 8

    def __init__(self, class_lhs, cell_class: np.ndarray, scale: np.ndarray,
                 fronts: Fronts):
        """class_lhs(classes) gives lhs_r of a slice of the translation
        classes, stacked (classes, n, n) in the local order of the fronts'
        maps, the interior unknowns first; cell_class gives each cell's
        class."""
        self.scale, self.fronts = scale, fronts
        self.interior, self.iface, self.cell_iface = fronts.interior, fronts.iface, fronts.cell_iface
        ni, nf = self.interior.shape[1], self.cell_iface.shape[1]
        # the cells of each group of classes as columns: their interior
        # unknowns (classes, ni, cells) and interface numbers (classes, nf, cells)
        groups = class_groups(cell_class)
        self.groups = [(sel, self.interior[cells].transpose(0, 2, 1),
                        self.cell_iface[cells].transpose(0, 2, 1))
                       for sel, _, cells in groups]
        # the interface number of each entry of the groups' (classes, nf,
        # cells) products, concatenated: where they add up
        self.land = np.concatenate([f.ravel() for *_, f in self.groups])
        nclasses = cell_class.max() + 1
        d_i = scale[self.interior[np.unique(cell_class, return_index=True)[1]]]
        if not np.array_equal(scale[self.interior], d_i[cell_class]):
            raise ValueError("interior scales differ within a translation class")
        self.scale_F = scale[self.iface]
        shares, top = fronts.shares(blas_threads())
        # every BLAS call on one thread while more than one worker runs: a
        # front is a few hundred rows, and its factors then do not depend on
        # the worker count
        with one_blas_thread() if len(shares) > 1 else contextlib.nullcontext():
            self.inv_ii = np.empty((nclasses, ni, ni))
            self.X, self.L = np.empty((nclasses, ni, nf)), np.empty((nclasses, nf, ni))
            T = np.empty((nclasses, nf, nf))
            for start in range(0, nclasses, self.CHUNK):
                r = slice(start, start + self.CHUNK)
                lhs = class_lhs(r)                               # [interior | interface]
                d = d_i[r]
                Kii = lhs[:, :ni, :ni] * d[:, :, None] * d[:, None, :]
                self.inv_ii[r] = np.linalg.inv(Kii)
                self.X[r] = np.linalg.solve(Kii, lhs[:, :ni, ni:] * d[:, :, None])
                self.L[r] = lhs[:, ni:, :ni] * d[:, None, :]
                np.subtract(lhs[:, ni:, ni:], self.L[r] @ self.X[r], out=T[r])
            del lhs, Kii             # the last chunk's, before the fronts
            self._eliminate(T, cell_class, shares, top)

    def _eliminate(self, T: np.ndarray, cell_class: np.ndarray, shares: list, top: list):
        """Factor the fronts children first from the class blocks T_r: the
        (inverse, X, L) of each of the fronts' batches in front_factors, a
        stack over its nodes, and the root's SuperLU in lu.

        The subtrees of each share run depth-first, children first, the
        first share on the calling thread and each other one on a thread of
        _workers(); then the nodes of top and the root run on the calling
        thread.  A front's arithmetic is the same whichever thread runs it,
        and each front adds its children's updates in the order of tree.kids,
        so the factors do not depend on the shares."""
        fr = self.fronts
        self.front_factors = [(np.empty((len(nodes), o, o)), np.empty((len(nodes), o, nb)),
                               np.empty((len(nodes), nb, o)))
                              for nodes, own, bnd in fr.batches
                              for o, nb in [(own.shape[1], bnd.shape[1])]]
        updates = {}                # each front's update, until its parent takes it

        def run(subtrees):
            for s in subtrees:
                for n in range(fr.first[s], s + 1):
                    self._front(n, T, cell_class, updates)

        mine, *others = shares or [[]]
        futures = [_workers().submit(run, share) for share in others]
        try:
            run(mine)
        finally:
            concurrent.futures.wait(futures)    # every worker, also when run(mine) raises
        for f in futures:
            f.result()
        if futures and _malloc_trim() is not None:
            # the workers' freed fronts stay in their malloc arenas until
            # trimmed: mms_convergence's peak RSS measured 13 % above the
            # serial factor's without the trim, 5 % with it
            _malloc_trim()(0)
        for n in top:
            self._front(n, T, cell_class, updates)
        root = len(fr.own) - 1
        self.lu = spla.splu(dense_csc(self._assemble(root, T, cell_class, updates)),
                            permc_spec="NATURAL")

    def _assemble(self, n: int, T: np.ndarray, cell_class: np.ndarray, updates: dict) -> np.ndarray:
        """Front n: a leaf's D_F,c T_r D_F,c on its cell's interface unknowns,
        another node's children's updates at their places, the first written
        on zeros and the others added."""
        fr, tree = self.fronts, self.fronts.tree
        if n in fr.perm:
            p = fr.perm[n]
            cell = tree.order[tree.lo[n]]
            d = self.scale_F[self.cell_iface[cell, p]]
            F = T[cell_class[cell]][p[:, None], p]
            F *= d[:, None]
            F *= d
            return F
        F = np.zeros((len(fr.own[n]) + len(fr.bnd[n]),) * 2)
        first, *rest = tree.kids[n]
        F[fr.pos[first][:, None], fr.pos[first]] = updates.pop(first)
        for c in rest:
            F[fr.pos[c][:, None], fr.pos[c]] += updates.pop(c)
        return F

    def _front(self, n: int, T: np.ndarray, cell_class: np.ndarray, updates: dict):
        """Assemble front n below the root and eliminate its own unknowns
        into its batch's slot of front_factors; its update F_BB - L X goes to
        updates[n], computed in place of L X.  A front that owns nothing
        passes itself up whole."""
        fr = self.fronts
        F = self._assemble(n, T, cell_class, updates)
        if n not in fr.slot:
            updates[n] = F
            return
        no = len(fr.own[n])
        b, j = fr.slot[n]
        inv, X, L = (a[j] for a in self.front_factors[b])
        Foo = F[:no, :no]
        inv[...] = np.linalg.inv(Foo)
        X[...] = np.linalg.solve(Foo, F[:no, no:])
        L[...] = F[no:, :no]
        LX = L @ X
        updates[n] = np.subtract(F[no:, no:], LX, out=LX)

    def _interface_solve(self, r: np.ndarray) -> np.ndarray:
        """Schur^-1 r for right-hand sides r (m, nF), one a row: forward
        through the fronts' batches children first, w = F_OO^-1 r_O and
        r_B -= L w, the root's separator by its LU, then back,
        x_O = w - X x_B.  Every product runs on one right-hand side and one
        front, batched along the leading axes."""
        fr = self.fronts
        m, nF = r.shape
        rows = np.arange(m)[:, None, None] * nF
        ws = []
        for (_, own, bnd), (inv, X, L) in zip(fr.batches, self.front_factors):
            w = inv @ np.take(r, own, axis=1)[..., None]              # (m, nodes, o, 1)
            r -= np.bincount((rows + bnd).ravel(), (L @ w).ravel(),
                             minlength=m * nF).reshape(m, nF)
            ws.append(w)
        x = np.empty_like(r)
        root = fr.own[-1]
        x[:, root] = np.stack([self.lu.solve(col) for col in r[:, root]])
        for (_, own, bnd), (inv, X, L), w in zip(reversed(fr.batches),
                                                 reversed(self.front_factors), reversed(ws)):
            x[:, own] = (w - X @ np.take(x, bnd, axis=1)[..., None])[..., 0]
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """lhs^-1 b = D K^-1 D b for c = D b: per class, w = K_ii^-1 c_I on
        all its cells at once; then x_F = Schur^-1 (c_F - D_F P (L w)) and
        x_I = w - Xt (D_F x_F)_c, the products batched over each group of
        classes.  b is one right-hand side (n,) or a block of them (n, m);
        each is solved on its own, batched along a leading axis, so that a
        block's columns are its single solves, bit for bit."""
        c = np.atleast_2d(b.T) * self.scale                         # (m, n)
        m = len(c)
        ws, Lw = [], []
        for sel, inner, _ in self.groups:
            w = self.inv_ii[sel] @ np.take(c, inner, axis=1)        # (m, classes, ni, cells)
            ws.append(w)
            Lw.append((self.L[sel] @ w).reshape(m, -1))
        nF = len(self.iface)
        rows = np.arange(m)[:, None] * nF
        PLw = np.bincount((rows + self.land).ravel(), np.hstack(Lw).ravel(),
                          minlength=m * nF).reshape(m, nF)
        xF = self._interface_solve(c[:, self.iface] - self.scale_F * PLw)
        x = np.empty_like(c)
        x[:, self.iface] = xF
        zF = self.scale_F * xF
        for (sel, inner, f), w in zip(self.groups, ws):
            x[:, inner] = w - self.X[sel] @ np.take(zF, f, axis=1)
        return (x * self.scale).T.reshape(b.shape)


class EBSystem:
    """Spaces and the cell operators of one mesh: the differentials, masses
    and couplings are stored once per translation class, and A and S are
    applied and factored from those class stacks.  The system holds no
    global matrix: each assembled form is built where it is read.

    The spaces are built on mesh.unit, with dimensionless DOFs; their class
    data is shared with every other live system whose classes have the same
    keys (every kuhn_cube(n)), and the stacks are the physical ones, from
    powers of h.  mesh, the quadrature and the cells' tree stay physical."""

    def __init__(self, mesh: TetMesh, k: int):
        self.mesh = mesh
        self.k = k
        cache = EntityCache(mesh.unit, k)
        self.space_q = GlobalSpace(mesh, "dg_scalar", k, cache)
        self.space_E = GlobalSpace(mesh, "hdivdiv_S", k, cache)
        self.space_B = GlobalSpace(mesh, "hsymcurl_T", k, cache)
        spaces = (self.space_q, self.space_E, self.space_B)
        self.cell_class = cache.cell_class
        # the class stacks, one entry per translation class (cell c's is entry
        # cell_class[c]): the differentials divdiv d3 and symcurl d2, and what
        # A, S and every condensed factor come from, the masses of q, E and B
        # and the couplings M_q d3 and M_E d2
        d3 = cell_operators("divdiv", self.space_E, self.space_q)
        d2 = cell_operators("symcurl", self.space_B, self.space_E)
        mq, mE, mB = (space.cell_masses() for space in spaces)
        self._cell_diff = (d3, d2)
        self._cell_mass = (mq, mE, mB)
        # on one BLAS thread, like the class data above, so that the stacks
        # are the same at any thread count
        with one_blas_thread():
            self._cell_coupling = (mq @ d3, mE @ d2)
        # the stacks are all that the solvers read of the elements' DOF
        # groups: the system lets go of them and of the entity cache, which
        # live on only while another space holds them; it keeps each class
        # element's V, which later cell operators on the same classes read
        for space in spaces:
            space.drop_functionals()
        self.nq, self.nE, self.nB = (space.dim for space in spaces)
        self.ntot = self.nq + self.nE + self.nB
        # the global numbers of each cell's unknowns, (ncells, n) in local
        # order [q | E | B]; the condensation order of the local unknowns,
        # the ni interior ones first (every unknown not interior is
        # interface), and the places of q, E and B in it
        self._maps = np.hstack([o + space.cell_maps
                                for o, space in zip((0, self.nq, self.nq + self.nE), spaces)])
        inner = np.concatenate([space.elements[0].interior for space in spaces])
        self._order, self._ni = np.argsort(~inner, kind="stable"), int(inner.sum())
        place = np.argsort(self._order)
        self._places = np.split(place, np.cumsum([s.cell_maps.shape[1] for s in spaces])[:2])
        # each group of classes with the unknowns of its cells (classes, cells,
        # n), and the scatter of the products' cell vectors (A y's, then S y's)
        # in that order
        self._class_groups = class_groups(self.cell_class)
        self._groups = [(sel, self._maps[cells]) for sel, _, cells in self._class_groups]
        gathered = np.concatenate([maps.ravel() for _, maps in self._groups])
        self._scatter = np.concatenate([gathered, gathered + self.ntot])
        # symmetric diagonal equilibration from the mass diagonal: DOF
        # functionals mix point derivatives and moments, so raw systems are
        # badly conditioned, and the scaling changes nothing about the
        # discretisation
        diag = np.hstack([np.diagonal(m, axis1=1, axis2=2) for m in self._cell_mass])
        self.scale = 1.0 / np.sqrt(np.bincount(self._maps.ravel(),
                                               diag[self.cell_class].ravel(),
                                               minlength=self.ntot))
        self._qrule = rule("tet", 2 * k + 6)
        self._cellq = None
        self._tabs: dict = {}
        self._cn = {}               # the CN factor of the latest dt alone
        self._tree = None           # the cells' bisection tree, built on first use
        self._fronts = {}

    # -- block structure -------------------------------------------------------
    def stack(self, sig, e, b) -> np.ndarray:
        return np.concatenate([sig, e, b])

    def split(self, y):
        return (y[: self.nq], y[self.nq: self.nq + self.nE], y[self.nq + self.nE:])

    def skew_block(self) -> sp.csr_matrix:
        """Coupling S with y' A = S y: skew-symmetric by construction,
        assembled from the class stacks when called."""
        (c3, c2), (q, E, B) = self._cell_coupling, (self.space_q, self.space_E, self.space_B)
        C3, C2 = _assembled(c3, q, E), _assembled(c2, E, B)
        return sp.bmat([[None, C3, None], [-C3.T, None, -C2], [None, C2.T, None]],
                       format="csr")

    def energy(self, y) -> float:
        return float(y @ self.products(y)[0])

    def products(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(A y, S y): every CN quantity of the state y is a combination of these.

        Per class, y gathered on its cells (one row each) meets each nonzero
        block once: the three masses and the couplings C3 = M_q d3 and
        C2 = M_E d2 and their transposes, S = [[0, C3, 0], [-C3^T, 0, -C2],
        [0, C2^T, 0]], each block one product batched over a group of
        classes; one bincount adds the cell vectors up."""
        (mq, mE, mB), (c3, c2) = self._cell_mass, self._cell_coupling
        a, b = mq.shape[1], mq.shape[1] + mE.shape[1]
        out = np.empty((2, len(self._maps), self._maps.shape[1]))
        lo = 0
        for sel, maps in self._groups:
            Y = y[maps]                                             # (classes, cells, n)
            q, E, B = Y[..., :a], Y[..., a:b], Y[..., b:]
            hi = lo + maps.shape[0] * maps.shape[1]
            Ay, Sy = out[0, lo:hi].reshape(Y.shape), out[1, lo:hi].reshape(Y.shape)
            Ay[..., :a], Ay[..., a:b], Ay[..., b:] = q @ mq[sel].mT, E @ mE[sel].mT, B @ mB[sel].mT
            Sy[..., :a], Sy[..., b:] = E @ c3[sel].mT, E @ c2[sel]
            Sy[..., a:b] = -(q @ c3[sel]) - B @ c2[sel].mT
            lo = hi
        AS = np.bincount(self._scatter, out.ravel(), minlength=2 * self.ntot)
        return AS[:self.ntot], AS[self.ntot:]

    # -- quadrature: one rule, one tabulation per space --------------------------
    def cell_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Points (ncells, p, 3) and weights (ncells, p) of the degree 2k + 6
        rule, from its barycentric points and every cell's vertices at once."""
        if self._cellq is None:
            m, q = self.mesh, self._qrule
            measure = np.array([cell.measure for cell in m.cell_simplices])
            self._cellq = (q.bary @ m.vertices[m.cells],
                           q.weights * (measure / REF_MEASURE[3])[:, None])
        return self._cellq

    def _tabulation(self, space: GlobalSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(T, G, Vinv): the scalar Bernstein tabulation T (p, N) at the
        barycentric points of the rule, the same on every cell, the generators
        G (C, V), and the inverse Vandermonde of each class (classes, n, n).
        The Vinv stack is built per call: kept, it would raise the peak memory
        of the factorisations that follow the loads."""
        if space.family not in self._tabs:
            elem = space.elements[0]
            gens = np.asarray(elem.comp_gens, dtype=float)
            self._tabs[space.family] = (elem.basis.eval(self._qrule.bary),
                                        gens.reshape(len(gens), -1))
        return self._tabs[space.family] + (np.stack([e.Vinv for e in space.elements]),)

    def cell_values(self, space: GlobalSpace, coeffs: np.ndarray) -> np.ndarray:
        """A discrete field at every cell's quadrature points: (ncells, p, *vshape),
        u_h = T . reshape(Vinv . y_c) . G, each class's Vinv applied to all its
        cells at once."""
        T, G, Vinv = self._tabulation(space)
        co = np.empty(space.cell_maps.shape)
        for sel, _, cells in self._class_groups:
            co[cells] = coeffs[space.cell_maps[cells]] @ Vinv[sel].mT  # (classes, cells, n)
        co = co.reshape(len(co), T.shape[1], len(G))              # (c, N, C)
        vals = (T @ co) @ G                                       # (c, p, V)
        return vals.reshape(*vals.shape[:2], *space.elements[0].vshape)

    def assemble_forms(self, space: GlobalSpace, values: np.ndarray) -> np.ndarray:
        """The loads (m, dim) against the nodal basis of space of m fields given
        at every cell's quadrature points, values (m, ncells, p, *vshape).

        The transpose of cell_values: the weights, G^T and T^T over all cells
        at once, then each class's Vinv^T on all its cells, then the scatter by
        cell_maps.  So assemble_forms(space, v) . y is the quadrature of
        v . cell_values(space, y).
        """
        T, G, Vinv = self._tabulation(space)
        _, w = self.cell_quadrature()
        m = len(values)
        wv = values.reshape(m, *w.shape, -1) * w[:, :, None]      # (m, c, p, V)
        mom = (T.T @ (wv @ G.T)).reshape(m, len(w), -1)           # (m, c, n)
        n = mom.shape[-1]
        loads = np.empty((len(w), m, n))                          # (c, m, n)
        for sel, _, cells in self._class_groups:
            per_class = mom[:, cells].transpose(1, 2, 0, 3).reshape(len(cells), -1, n)
            loads[cells] = (per_class @ Vinv[sel]).reshape(*cells.shape, m, n)
        out = np.zeros((space.dim, m))
        np.add.at(out, space.cell_maps, loads.transpose(0, 2, 1))
        return out.T

    # -- solvers ---------------------------------------------------------------
    def class_lhs(self, classes: slice, theta: float) -> np.ndarray:
        """A_r - theta S_r of a slice of the translation classes, from the
        class stacks: (classes, n, n) in the condensation order of a cell's
        unknowns, its interior ones first, each block written at its places."""
        (mq, mE, mB), (c3, c2) = self._cell_mass, self._cell_coupling
        q, E, B = self._places
        mq, mE, mB = mq[classes], mE[classes], mB[classes]
        K = np.zeros((len(mq),) + (len(self._order),) * 2)
        K[:, q[:, None], q], K[:, E[:, None], E], K[:, B[:, None], B] = mq, mE, mB
        if theta:
            c3, c2 = theta * c3[classes], theta * c2[classes]
            K[:, q[:, None], E], K[:, E[:, None], q] = -c3, c3.transpose(0, 2, 1)
            K[:, E[:, None], B], K[:, B[:, None], E] = c2, -c2.transpose(0, 2, 1)
        return K

    def fronts(self, key: str, maps: np.ndarray, ni: int) -> Fronts:
        """The Fronts of the cell maps (ncells, n), their ni interior unknowns
        first, over the cells' bisection tree: built on the first call with
        key, and shared by every later factor on the same unknowns."""
        if key not in self._fronts:
            if self._tree is None:
                self._tree = CellTree(self.mesh)
            self._fronts[key] = Fronts(self._tree, maps, ni)
        return self._fronts[key]

    def _factorize(self, theta: float) -> CellInteriors:
        """The condensed factor of A - theta S (theta = dt/2 for CN, 1 for the
        projection), from the class stacks alone."""
        return CellInteriors(lambda classes: self.class_lhs(classes, theta), self.cell_class,
                             self.scale, self.fronts("system", self._maps[:, self._order],
                                                     self._ni))

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """The A-projection: (A - S) y = rhs, the CN solve at dt = 2."""
        # the dt = 2 factor is not cached: it would hold a second LU next to
        # the CN one, and the projection runs once per MMS run
        y = self._factorize(1.0).solve(rhs)
        Ay, Sy = self.products(y)
        _check_residual(Ay - Sy - rhs, rhs, 1e-9, "projection")
        return y

    def cn_factorization(self, dt: float):
        """(cells.lu, cells) of the CN step at dt, with cells the
        CellInteriors factor of A - (dt/2) S.  Only the latest dt's factor is
        kept: a study over several dt runs them one after another, and the
        previous factor is dropped before the next one is built.

        The sparse LU comes first: perfbench/tracing.py reads the factor's
        L+U size from the first entry.  Neither side's matrix is kept: a step
        applies A and S to vectors instead.
        """
        if dt not in self._cn:
            self._cn.clear()
            cells = self._factorize(0.5 * dt)
            self._cn[dt] = (cells.lu, cells)
        return self._cn[dt]

    def cn_step(self, y: np.ndarray, dt: float, forcing_hat: np.ndarray | None = None,
                products=None):
        """One Crank-Nicolson step; forcing_hat is the endpoint-averaged load.

        (A - theta S) y1 = (A + theta S) y + dt forcing_hat, theta = dt/2; the
        residual is checked to 1e-8 relative on the full system, interiors
        included.  A y1 and S y1 give that residual and are also the next
        step's right-hand side, so a caller that passes products = (A y, S y)
        of y gets (y1, (A y1, S y1)) back and never applies A or S twice to
        one state; without products the step returns y1 alone.
        """
        _, cells = self.cn_factorization(dt)
        Ay, Sy = self.products(y) if products is None else products
        theta = 0.5 * dt
        b = Ay + theta * Sy
        if forcing_hat is not None:
            b += dt * forcing_hat
        y1 = cells.solve(b)
        Ay1, Sy1 = self.products(y1)
        _check_residual(Ay1 - theta * Sy1 - b, b, 1e-8, "CN")
        return y1 if products is None else (y1, (Ay1, Sy1))


def _assembled(stack: np.ndarray, rows: GlobalSpace, cols: GlobalSpace) -> sp.csr_matrix:
    """The global matrix of a class stack of blocks (classes, rows, cols) in
    the local orders of the spaces rows and cols, scattered cell by cell."""
    return assemble_cells(rows.cell_maps, cols.cell_maps, stack[rows.cell_class],
                          (rows.dim, cols.dim))


def _differentials(sys: EBSystem) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(D3, D2), the global divdiv and symcurl, from their class stacks."""
    d3, d2 = sys._cell_diff
    return (assemble_diff(d3, sys.space_E, sys.space_q),
            assemble_diff(d2, sys.space_B, sys.space_E))


def _check_residual(r: np.ndarray, b: np.ndarray, tol: float, what: str):
    """Raise unless the residual r of a solve with right-hand side b has
    ||r|| <= tol ||b||."""
    resid = np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300)
    if resid > tol:
        raise RuntimeError(f"{what} solve residual {resid:.3e} exceeds {tol}")


# ---------------------------------------------------------------------------
# manufactured solutions: separable terms, weak-level forcing
# ---------------------------------------------------------------------------

@dataclass
class EBTerm:
    g: object           # g(t)
    gdot: object
    shape: object       # shape(pts) -> spatial factor values at points (n, 3)
    dshape: object = None  # divdiv (E terms) / symcurl (B terms) of the shape


@dataclass
class ManufacturedEB:
    """sigma = sum g s(x), E = sum g S(x), B = sum g C(x), with exact
    spatial derivative factors supplied per term."""
    sigma_terms: list
    E_terms: list
    B_terms: list
    label: str = "mms"


# the weak-form loads of a manufactured solution.  For each term list, one row
# per spatial factor of a term: (factor, space it is tested against (0 q, 1 E,
# 2 B), its loads).  A load is (block it loads, differential or None, time
# factor, sign); with a differential D it is D^T times the factor's plain load:
# the divdiv load of a sigma shape is D3^T of its q load, because divdiv maps
# the E space into Q, and the symcurl load of an E shape is D2^T of its E load,
# because symcurl maps the B space into the E space.  The time factor "rate"
# is g'(t) in the forcing and g(t) in the projection; "value" is g(t) in both.
_LOADS = (
    ("sigma_terms", (("shape", 0, ((0, None, "rate", 1.0), (1, "D3", "value", 1.0))),)),
    ("E_terms", (("shape", 1, ((1, None, "rate", 1.0), (2, "D2", "value", -1.0))),
                 ("dshape", 0, ((0, None, "value", -1.0),)))),
    ("B_terms", (("shape", 2, ((2, None, "rate", 1.0),)),
                 ("dshape", 1, ((1, None, "value", 1.0),)))),
)


class MMSDriver:
    """Precomputed spatial vectors so per-step forcing is a small dense combo."""

    def __init__(self, sys: EBSystem, mms: ManufacturedEB):
        self.sys = sys
        self.mms = mms
        pts, _ = sys.cell_quadrature()
        # every spatial factor at every cell's quadrature points, in one call
        # on all the points: per test space, (term, loads, values); the shapes'
        # values are also the exact fields of the errors, per field and term
        tested, self._exact = [[], [], []], [[], [], []]
        for f, (terms, factors) in enumerate(_LOADS):
            for term in getattr(mms, terms):
                for factor, space, loads in factors:
                    vals = getattr(term, factor)(pts.reshape(-1, 3))
                    vals = vals.reshape(pts.shape[:2] + vals.shape[1:])
                    tested[space].append((term, loads, vals))
                    if factor == "shape":
                        self._exact[f].append(vals)
        # (term, block, time factor, sign, load vector): the plain loads of one
        # test space from one assemble_forms call, and D^T of them (D dropped after)
        diffs = dict(zip(("D3", "D2"), _differentials(sys)))
        self._loads = []
        for space, rows in zip((sys.space_q, sys.space_E, sys.space_B), tested):
            if rows:
                vecs = sys.assemble_forms(space, np.stack([vals for *_, vals in rows]))
                self._loads += [(term, block, kind, sign,
                                 vec if op is None else diffs[op].T @ vec)
                                for (term, loads, _), vec in zip(rows, vecs)
                                for block, op, kind, sign in loads]
        self._y0 = None

    def _combo(self, t: float, use_dot: bool) -> np.ndarray:
        sys = self.sys
        r = [np.zeros(sys.nq), np.zeros(sys.nE), np.zeros(sys.nB)]
        for term, block, kind, sign, vec in self._loads:
            g = term.gdot(t) if use_dot and kind == "rate" else term.g(t)
            r[block] += (sign * g) * vec
        return sys.stack(*r)

    def initial_state(self) -> np.ndarray:
        """Projection of the manufactured triple at t = 0, solved once."""
        if self._y0 is None:
            self._y0 = self.sys.project(self.projection_rhs(0.0))
        return self._y0.copy()

    def forcing(self, t: float) -> np.ndarray:
        """Weak residual loads so the manufactured triple solves the system."""
        return self._combo(t, use_dot=True)

    def projection_rhs(self, t: float) -> np.ndarray:
        return self._combo(t, use_dot=False)

    def errors(self, y: np.ndarray, t: float) -> tuple[float, float, float]:
        """L2 errors of (sigma, E, B) by direct quadrature at degree 2k + 6."""
        sys = self.sys
        _, w = sys.cell_quadrature()
        out = []
        for space, coeffs, terms, exact in zip(
                (sys.space_q, sys.space_E, sys.space_B), sys.split(y),
                (self.mms.sigma_terms, self.mms.E_terms, self.mms.B_terms), self._exact):
            d = sys.cell_values(space, coeffs)
            for tm, ex in zip(terms, exact):
                d -= tm.g(t) * ex
            d = d.reshape(*w.shape, -1)
            out.append(float(np.sqrt(np.sum(w * np.sum(d * d, axis=-1)))))
        return tuple(out)

    # one error formula under both names: the CLI and the convergence studies
    # call pointwise_errors, and perfbench/tracing.py times both names
    pointwise_errors = errors


# ---------------------------------------------------------------------------
# driver operations
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Time and energy of every state; with a manufactured solution, also the
    states, whose L2 errors are computed on first read of err_sigma, err_E or
    err_B (the convergence studies read only the final state's errors)."""
    t: list = dc_field(default_factory=list)
    energy: list = dc_field(default_factory=list)
    states: list = dc_field(default_factory=list, repr=False)
    driver: MMSDriver | None = dc_field(default=None, repr=False)

    @cached_property
    def _errors(self) -> tuple[list, list, list]:
        errs = [self.driver.errors(y, t) for t, y in zip(self.t, self.states)]
        return tuple(list(col) for col in zip(*errs)) if errs else ([], [], [])

    err_sigma = property(lambda self: self._errors[0])
    err_E = property(lambda self: self._errors[1])
    err_B = property(lambda self: self._errors[2])


def run(sys: EBSystem, config: EBConfig, mms: ManufacturedEB | None = None,
        driver: MMSDriver | None = None):
    """Time-step the fully discrete system; returns (record, final state
    vector, MMS driver or None)."""
    config.validate()
    if driver is None and mms is not None:
        driver = MMSDriver(sys, mms)
    rng = np.random.default_rng(config.seed)
    if config.init == "zero":
        y = np.zeros(sys.ntot)
    elif config.init == "random":
        y = rng.standard_normal(sys.ntot)
    elif driver is None:
        raise ValueError("init=mms needs a manufactured solution (mms or driver)")
    else:
        y = driver.initial_state()
    rec = RunRecord(driver=driver)

    # (A y, S y) of the current state, carried from step to step: A y gives
    # the energy y . A y, and both give the next right-hand side
    def record(t, y, products):
        rec.t.append(t)
        rec.energy.append(float(y @ products[0]))
        if driver is not None:
            rec.states.append(y)

    products = sys.products(y)
    record(0.0, y, products)
    dt = config.dt
    f_j = driver.forcing(0.0) if driver is not None else None
    for j in range(config.nsteps):
        t1 = (j + 1) * dt
        if f_j is not None:
            f_next = driver.forcing(t1)
            fhat = 0.5 * (f_j + f_next)
            f_j = f_next
        else:
            fhat = None
        y, products = sys.cn_step(y, dt, fhat, products=products)
        record(t1, y, products)
    return rec, y, driver


def get_system(spec: str, k: int, systems: dict | None = None,
               keep: bool = True) -> "EBSystem":
    """The system of (spec, k) from systems if it holds one; else built, and
    stored there when keep."""
    key = (spec, k)
    if systems is not None and key in systems:
        return systems[key]
    sys = EBSystem(load_mesh(spec), k)
    if keep and systems is not None:
        systems[key] = sys
    return sys


def mms_convergence(mesh_specs: list[str], k: int, mms_factory, t_final: float,
                    dt_for_level, seed: int = 0, systems: dict | None = None) -> list[dict]:
    """Final-time L2 errors and observed orders over a mesh hierarchy.

    dt_for_level(level) supplies the time step (spatial studies shrink it
    faster than h so the spatial term dominates).  Only the base level's
    system is stored in systems (the temporal study reuses it); a finer
    level's is taken from systems if it is there, else built, run and dropped.
    A row's h is its mesh's shortest edge (TetMesh.h); a level whose h
    equals the one before it has no order.
    """
    out = []
    prev = None
    for lvl, spec in enumerate(mesh_specs):
        mms = mms_factory()
        dt = dt_for_level(lvl)
        cfg = EBConfig(mesh=spec, k=k, t_final=t_final, dt=dt, init="mms",
                       mms=mms.label, seed=seed)
        cfg.validate()              # before the system is built
        sys = get_system(spec, k, systems, keep=lvl == 0)
        rec, y, driver = run(sys, cfg, mms)
        es, eE, eB = driver.pointwise_errors(y, rec.t[-1])
        err = es + eE + eB
        h = sys.mesh.h
        row = {"mesh": spec, "h": h, "dt": dt,
               "err_sigma": es, "err_E": eE, "err_B": eB, "err_total": err}
        if prev is not None and err > 0 and h != prev["h"]:
            row["order"] = float(np.log2(prev["err_total"] / err)
                                 / np.log2(prev["h"] / h))
        out.append(row)
        prev = row
        del sys, rec, y, driver     # so the next level is built without this one
    return out


def temporal_convergence(mesh_spec: str, k: int, mms_factory, t_final: float,
                         dts: list[float], systems: dict | None = None) -> list[dict]:
    """Fixed mesh, halving dt; use a space-exact solution so only CN error shows."""
    sys = get_system(mesh_spec, k, systems)
    driver = MMSDriver(sys, mms_factory())
    out = []
    prev = None
    for dt in dts:
        cfg = EBConfig(mesh=mesh_spec, k=k, t_final=t_final, dt=dt,
                       init="mms", mms=driver.mms.label)
        rec, y, _ = run(sys, cfg, driver=driver)
        es, eE, eB = driver.pointwise_errors(y, rec.t[-1])
        err = es + eE + eB
        row = {"dt": dt, "err_total": err}
        if prev is not None and err > 0:
            row["order"] = float(np.log2(prev["err_total"] / err)
                                 / np.log2(prev["dt"] / dt))
        out.append(row)
        prev = row
    return out


# ---------------------------------------------------------------------------
# inf-sup
# ---------------------------------------------------------------------------

def vnorm_block(sys: EBSystem) -> sp.csr_matrix:
    """Gram matrix of the graph norm: mass + divdiv- and symcurl-stiffness."""
    Mq, ME, MB = (space.mass(m) for space, m in zip(
        (sys.space_q, sys.space_E, sys.space_B), sys._cell_mass))
    D3, D2 = _differentials(sys)
    Ks = (D3.T @ Mq @ D3).tocsr()
    Kl = (D2.T @ ME @ D2).tocsr()
    return sp.block_diag([Mq, ME + Ks, MB + Kl], format="csr")


# right-hand sides of _pencil_top solved at once: 5 MB a dense block of
# kuhn_cube(3)'s E space, and one pass of each sparse product per block
PENCIL_BLOCK = 64


def _pencil_top(C: sp.csr_matrix, X: sp.csr_matrix, cells: CellInteriors,
                M: sp.csr_matrix) -> float:
    """Largest eigenvalue of the pencil (C X^-1 C^T, M), X factored by cells,
    from H = C Y, Y = X^-1 C^T solved PENCIL_BLOCK columns at a time.
    RuntimeError if the componentwise (Oettli-Prager) backward error of a
    column, |X y_j - c_j| / (|X| |y_j| + |c_j|), exceeds 1e-12: unlike the raw
    residual, it is scale-free."""
    absX, H, err = abs(X), np.empty((C.shape[0], C.shape[0])), 0.0
    for j in range(0, C.shape[0], PENCIL_BLOCK):
        c = C[j:j + PENCIL_BLOCK].toarray().T                      # (n, m)
        y = cells.solve(c)
        r, den = np.abs(X @ y - c), absX @ np.abs(y) + np.abs(c)
        err = np.maximum(err, np.divide(r, den, out=np.zeros_like(r), where=den > 0).max())
        H[:, j:j + PENCIL_BLOCK] = C @ y
    if not err <= 1e-12:
        raise RuntimeError(f"inf-sup: backward error {err:.3e} of the mass solves > 1e-12")
    return float(sla.eigh(H, M.toarray(), eigvals_only=True)[-1])


@one_blas_thread()
def infsup_estimate(sys: EBSystem) -> float:
    """Smallest singular value of the coupled form in the graph norm.

    Because D3 D2 = 0, the form splits in mass inner products into one 2x2
    block per singular value d of D3 or D2 (the Hodge decomposition), whose
    smallest graph-norm singular value g(d) falls from 1 to (sqrt5 - 1)/2 as
    d grows; so beta = g(d_max).  Divdiv's squared singular values are the
    eigenvalues of the nq x nq pencil (C3 ME^-1 C3^T, Mq), C3 = Mq D3.
    Symcurl's are at most max_c ||R_c^-1 C2_c L_c^-T||_2^2 (C2_c = ME_c d2_c,
    ME_c = R_c R_c^T, MB_c = L_c L_c^T), as both its norms are sums over the
    cells (the element eigenvalue theorem).  Divdiv's scale as h^-4 and
    symcurl's as h^-2; on cells so large that the bound is not below divdiv's
    top, symcurl's nE x nE pencil (C2 MB^-1 C2^T, ME), C2 = ME D2, is solved too.
    """
    (mq, mE, mB), (c3, c2) = sys._cell_mass, sys._cell_coupling
    R, L = np.linalg.cholesky(mE), np.linalg.cholesky(mB)         # one per class
    X = np.linalg.solve(L, np.linalg.solve(R, c2).transpose(0, 2, 1))  # (R^-1 C2 L^-T)^T
    bound = float(np.max(np.linalg.norm(X, 2, axis=(1, 2)))) ** 2

    def factor(space, m, lo):
        """The condensed factor of the mass m of space, unknowns lo onwards."""
        inner = space.elements[0].interior
        o = np.argsort(~inner, kind="stable")           # interior unknowns first
        return CellInteriors(lambda r: m[r][:, o[:, None], o], sys.cell_class,
                             sys.scale[lo:lo + space.dim],
                             sys.fronts(space.family, space.cell_maps[:, o], int(inner.sum())))

    # each assembled block is built when its pencil runs: MB and C2 only when
    # the symcurl pencil does
    q, E, B = sys.space_q, sys.space_E, sys.space_B
    Mq, ME = q.mass(mq), E.mass(mE)
    lam = _pencil_top(_assembled(c3, q, E), ME, factor(E, mE, sys.nq), Mq)
    if not bound < lam:
        lam = max(lam, _pencil_top(_assembled(c2, E, B), B.mass(mB),
                                   factor(B, mB, sys.nq + sys.nE), ME))
    u = 1.0 / (1.0 + lam)
    F2 = (1.0 - u) ** 2 + 2.0
    return float(np.sqrt((F2 - np.sqrt(F2 * F2 - 4.0)) / 2.0))
