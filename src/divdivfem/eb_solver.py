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

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .complex_asm import GlobalSpace, assemble_cells, assemble_diff, cell_operators
from .fe3d import EntityCache
from .mesh import TetMesh, load as load_mesh
from .quadrature import rule


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
        for key, allowed in (("init", INITS), ("mms", MMS_CHOICES)):
            if getattr(self, key) not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}")
        n = self.t_final / self.dt
        if abs(n - round(n)) > 1e-9:
            raise ValueError("t_final must be an integral multiple of dt")
        if self.init == "mms" and self.mms == "none":
            raise ValueError("init=mms requires an mms choice")

    @property
    def nsteps(self) -> int:
        return int(round(self.t_final / self.dt))


class CellInteriors:
    """The factor of a matrix lhs with a positive-definite symmetric part,
    assembled from cell blocks lhs_c: A - theta S of the CN step and the
    projection, or a mass matrix alone in the inf-sup estimate.  Equilibrated,
    its cell interiors condensed out cell by cell, and the sparse LU of the
    Schur complement.

    K = D lhs D, with D the diagonal of scale, is the sum over cells of
    P_c^T K_c P_c, K_c = D_c lhs_c D_c.  The interior unknowns I of a cell
    belong to that cell alone, so its rows and columns of K are those of
    K_c: each cell's K_ii, K_iF and K_Fi come from K_c, and K_ii is
    factorised by dense LU (an explicit inverse loses digits that the
    residual checks need).  With X_c = K_ii^-1 K_iF, the Schur complement on
    the interface unknowns F is the sum of the cell blocks K_c,FF - K_Fi X_c,
    scattered once by the interface incidence P; no global matrix is formed.
    The K_c are built CHUNK cells at a time (cell_lhs), so the dense
    transients stay small.

    Pivots: K has a positive-definite symmetric part (A is SPD and S skew),
    and so has each K_ii and the Schur complement (x^T Schur x = z^T K z with
    z = (-K_ii^-1 K_iF x, x)).  Every symmetric permutation of it then has
    nonsingular leading blocks, so LU on diagonal pivots exists in the
    minimum-degree order of its (symmetric) pattern, and its growth is
    bounded by the size of the skew part relative to the symmetric one
    (Golub & Van Loan, "Unsymmetric positive definite linear systems", Linear
    Algebra Appl. 1979).  So the pivot threshold is 0: no pivot leaves the
    diagonal, and the ordering's fill estimate is the fill.  Past theta = 1
    the largest multiplier grows like theta, but || |L| |U| || / || L U ||
    does not (1.72 at theta = 1, 1.66 at 4, 1.63 at 10^4 on kuhn_cube(1)).
    """

    # cells whose K_c are formed at once: 10 MB of dense transients at k = 3
    CHUNK = 8

    def __init__(self, cell_lhs, scale: np.ndarray, maps: np.ndarray, inner: np.ndarray):
        """cell_lhs(cells) gives lhs_c of a slice of the cells, stacked
        (cells, n, n) in the local order of maps (ncells, n), the global
        numbers of each cell's unknowns; inner marks the local interior ones."""
        self.scale = scale
        self.interior = maps[:, inner]
        self.iface = np.setdiff1d(np.arange(len(scale)), self.interior)
        number = np.empty(len(scale), dtype=int)
        number[self.iface] = np.arange(len(self.iface))
        self.cell_iface = number[maps[:, ~inner]]
        ncells, (ni, nf) = len(maps), (self.interior.shape[1], self.cell_iface.shape[1])
        # P = [P_1F^T ... P_nF^T], the interface incidence: it adds the cells'
        # interface vectors v_c, stacked (ncells * nf), into one interface vector
        self.P = sp.csr_matrix((np.ones(ncells * nf), (self.cell_iface.ravel(),
                                                       np.arange(ncells * nf))),
                               shape=(len(self.iface), ncells * nf))
        order = np.concatenate([np.flatnonzero(inner), np.flatnonzero(~inner)])
        lu, piv = np.empty((ncells, ni, ni)), np.empty((ncells, ni), dtype=np.int32)
        self.X, self.KFi = np.empty((ncells, ni, nf)), np.empty((ncells, nf, ni))
        blocks = np.empty((ncells, nf, nf))         # each cell's Schur block
        for start in range(0, ncells, self.CHUNK):
            c = slice(start, start + self.CHUNK)
            d = scale[maps[c][:, order]]
            K = cell_lhs(c)[:, order[:, None], order]          # [interior | interface]
            K *= d[:, :, None]
            K *= d[:, None, :]
            Kii, KiF, KFi, KFF = K[:, :ni, :ni], K[:, :ni, ni:], K[:, ni:, :ni], K[:, ni:, ni:]
            lu[c], piv[c] = sla.lu_factor(Kii, check_finite=False)
            # numpy's batched solve: scipy's lu_solve loops over the cells in Python
            self.X[c] = np.linalg.solve(Kii, KiF)
            self.KFi[c] = KFi
            np.subtract(KFF, KFi @ self.X[c], out=blocks[c])
        self.lu_ii = (lu, piv)
        # the Schur complement P blockdiag(blocks) P^T, scattered by one sparse
        # product, which sums the duplicates without sorting them and drops
        # exact zeros (the E-B blocks at theta = 0); tocsc then sorts by counting
        cols = np.broadcast_to(self.cell_iface[:, None, :], blocks.shape).astype(np.int32)
        cells = sp.csr_matrix((blocks.reshape(-1), cols.reshape(-1),
                               np.arange(0, blocks.size + 1, nf, dtype=np.int32)),
                              shape=(ncells * nf, len(self.iface)))
        del blocks, cols             # owned by cells now
        schur = self.P @ cells
        del cells                    # freed before the CSC copy: peak memory
        schur = schur.tocsc()        # and the CSR before the LU
        self.lu = spla.splu(schur, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """lhs^-1 b = D K^-1 D b: w = K_II^-1 c_I, x_F = Schur^-1 (c_F - K_FI w)
        and x_I = w - X x_F, for c = D b.  b is one right-hand side (n,) or a
        block of them (n, m), solved together."""
        cols = b.shape[1:]                                          # () or (m,)
        c = (self.scale * b.T).T
        w = sla.lu_solve(self.lu_ii, c[self.interior].reshape(*self.interior.shape, -1),
                         check_finite=False)                        # (ncells, ni, m)
        xF = self.lu.solve(c[self.iface] - self.P @ (self.KFi @ w).reshape(-1, *cols))
        x = np.empty_like(c)
        x[self.iface] = xF
        xF = xF[self.cell_iface].reshape(*self.cell_iface.shape, -1)
        x[self.interior] = (w - self.X @ xF).reshape(*self.interior.shape, *cols)
        return (self.scale * x.T).T


class EBSystem:
    """Assembled spaces, mass matrices and discrete differentials for one mesh."""

    def __init__(self, mesh: TetMesh, k: int):
        self.mesh = mesh
        self.k = k
        cache = EntityCache(mesh, k)
        self.space_q = GlobalSpace(mesh, "dg_scalar", k, cache)
        self.space_E = GlobalSpace(mesh, "hdivdiv_S", k, cache)
        self.space_B = GlobalSpace(mesh, "hsymcurl_T", k, cache)
        spaces = (self.space_q, self.space_E, self.space_B)
        d3 = cell_operators("divdiv", self.space_E, self.space_q)
        d2 = cell_operators("symcurl", self.space_B, self.space_E)
        self.D3 = assemble_diff(d3, self.space_E, self.space_q)
        self.D2 = assemble_diff(d2, self.space_B, self.space_E)
        # the cell stacks that A, S and every condensed factor are assembled
        # from: the cell masses of q, E and B, and the cell couplings
        # M_q,c d3_c and M_E,c d2_c
        mq, mE, mB = (space.cell_masses() for space in spaces)
        self._cell_mass = (mq, mE, mB)
        self._cell_coupling = (mq @ d3, mE @ d2)
        del d3, d2
        self.nq, self.nE, self.nB = (space.dim for space in spaces)
        nq, nE, nB = self.nq, self.nE, self.nB
        self.ntot = nq + nE + nB
        # the coupling blocks Mq D3 and ME D2, assembled cell by cell (the
        # global products would add rounding-level entries between neighbours
        # of neighbours), and every block CSR, so that bmat stacks them
        # without a COO round trip
        C3 = assemble_cells(self.space_q.cell_maps, self.space_E.cell_maps,
                            self._cell_coupling[0], (nq, nE))
        C2 = assemble_cells(self.space_E.cell_maps, self.space_B.cell_maps,
                            self._cell_coupling[1], (nE, nB))
        self._S = sp.bmat([
            [sp.csr_matrix((nq, nq)), C3, sp.csr_matrix((nq, nB))],
            [-C3.T.tocsr(), sp.csr_matrix((nE, nE)), -C2],
            [sp.csr_matrix((nB, nq)), C2.T.tocsr(), sp.csr_matrix((nB, nB))]], format="csr")
        # the global numbers of each cell's unknowns, (ncells, n) in local
        # order [q | E | B], and the local interior ones: every unknown not
        # interior is interface
        self._maps = np.hstack([o + space.cell_maps
                                for o, space in zip((0, nq, nq + nE), spaces)])
        self._inner = np.concatenate([space.elements[0].interior for space in spaces])
        # symmetric diagonal equilibration from the mass diagonal: DOF
        # functionals mix point derivatives and moments, so raw systems are
        # badly conditioned, and the scaling changes nothing about the
        # discretisation
        diag = np.hstack([np.diagonal(m, axis1=1, axis2=2) for m in self._cell_mass])
        self.scale = 1.0 / np.sqrt(np.bincount(self._maps.ravel(), diag.ravel(),
                                               minlength=self.ntot))
        self._qrule = rule("tet", 2 * k + 6)
        self._cellq = None
        self._tabs: dict = {}
        self._A = None
        self._cn = {}

    # -- block structure -------------------------------------------------------
    def stack(self, sig, e, b) -> np.ndarray:
        return np.concatenate([sig, e, b])

    def split(self, y):
        return (y[: self.nq], y[self.nq: self.nq + self.nE], y[self.nq + self.nE:])

    def mass_block(self) -> sp.csr_matrix:
        """A = blockdiag(Mq, ME, MB), assembled on first use: the one global
        mass matrix the system keeps."""
        if self._A is None:
            self._A = sp.block_diag([space.mass(m) for space, m in zip(
                (self.space_q, self.space_E, self.space_B), self._cell_mass)], format="csr")
        return self._A

    def mass_blocks(self) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
        """(Mq, ME, MB), sliced out of A: copies, which the system does not keep."""
        A, o = self.mass_block(), np.cumsum([0, self.nq, self.nE, self.nB])
        return tuple(A[a:b, a:b] for a, b in zip(o[:-1], o[1:]))

    def skew_block(self) -> sp.csr_matrix:
        """Coupling S with y' A = S y: skew-symmetric by construction."""
        return self._S

    def energy(self, y) -> float:
        return float(y @ (self.mass_block() @ y))

    def products(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(A y, S y): every CN quantity of the state y is a combination of these."""
        return self.mass_block() @ y, self._S @ y

    # -- quadrature: one rule, one tabulation per space --------------------------
    def cell_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Points (ncells, p, 3) and weights (ncells, p) of the degree 2k + 6 rule."""
        if self._cellq is None:
            pw = [self._qrule.on(elem.simplex) for elem in self.space_E.elements]
            self._cellq = (np.stack([p for p, _ in pw]), np.stack([w for _, w in pw]))
        return self._cellq

    def _tabulation(self, space: GlobalSpace) -> tuple[np.ndarray, np.ndarray]:
        """(T, G): the scalar Bernstein tabulation T (p, N) at the barycentric
        points of the rule, the same on every cell, and the generators G (C, V)."""
        if space.family not in self._tabs:
            elem = space.elements[0]
            gens = np.asarray(elem.comp_gens, dtype=float)
            self._tabs[space.family] = (elem.basis.eval(self._qrule.bary),
                                        gens.reshape(len(gens), -1))
        return self._tabs[space.family]

    def cell_values(self, space: GlobalSpace, coeffs: np.ndarray) -> np.ndarray:
        """A discrete field at every cell's quadrature points: (ncells, p, *vshape),
        u_h = T . reshape(Vinv . y_c) . G."""
        T, G = self._tabulation(space)
        co = np.stack([elem.Vinv @ coeffs[gmap]
                       for elem, gmap in zip(space.elements, space.cell_maps)])
        co = co.reshape(len(co), T.shape[1], len(G))              # (c, N, C)
        vals = (T @ co) @ G                                       # (c, p, V)
        return vals.reshape(*vals.shape[:2], *space.elements[0].vshape)

    def assemble_forms(self, space: GlobalSpace, values: np.ndarray) -> np.ndarray:
        """The loads (m, dim) against the nodal basis of space of m fields given
        at every cell's quadrature points, values (m, ncells, p, *vshape).

        The transpose of cell_values: the weights, G^T and T^T over all cells
        at once, then each cell's Vinv^T, then the scatter by cell_maps.  So
        assemble_forms(space, v) . y is the quadrature of v . cell_values(space, y).
        """
        T, G = self._tabulation(space)
        _, w = self.cell_quadrature()
        m = len(values)
        wv = values.reshape(m, *w.shape, -1) * w[:, :, None]      # (m, c, p, V)
        mom = (T.T @ (wv @ G.T)).reshape(m, len(w), -1)           # (m, c, N C)
        out = np.zeros((space.dim, m))
        np.add.at(out, space.cell_maps, np.stack(
            [elem.Vinv.T @ mom[:, ci].T for ci, elem in enumerate(space.elements)]))
        return out.T

    # -- solvers ---------------------------------------------------------------
    def cell_lhs(self, cells: slice, theta: float) -> np.ndarray:
        """A_c - theta S_c of a slice of the cells, from the cell stacks:
        (cells, n, n) in the local order [q | E | B] of the cell's unknowns."""
        (mq, mE, mB), (c3, c2) = self._cell_mass, self._cell_coupling
        mq, mE, mB = mq[cells], mE[cells], mB[cells]
        a, b = mq.shape[1], mq.shape[1] + mE.shape[1]
        K = np.zeros((len(mq),) + (self._maps.shape[1],) * 2)
        K[:, :a, :a], K[:, a:b, a:b], K[:, b:, b:] = mq, mE, mB
        if theta:
            c3, c2 = theta * c3[cells], theta * c2[cells]
            K[:, :a, a:b], K[:, a:b, :a] = -c3, c3.transpose(0, 2, 1)
            K[:, a:b, b:], K[:, b:, a:b] = c2, -c2.transpose(0, 2, 1)
        return K

    def _factorize(self, theta: float) -> CellInteriors:
        """The condensed factor of A - theta S (theta = dt/2 for CN, 1 for the
        projection), from the cell stacks alone."""
        return CellInteriors(lambda cells: self.cell_lhs(cells, theta), self.scale,
                             self._maps, self._inner)

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """The A-projection: (A - S) y = rhs, the CN solve at dt = 2."""
        # the dt = 2 factor is not cached: it would hold a second LU next to
        # the CN one, and the projection runs once per MMS run
        y = self._factorize(1.0).solve(rhs)
        Ay, Sy = self.products(y)
        _check_residual(Ay - Sy - rhs, rhs, 1e-9, "projection")
        return y

    def cn_factorization(self, dt: float):
        """(cells.lu, cells) of the CN step at dt, factorised once per dt, with
        cells the CellInteriors factor of A - (dt/2) S.

        The sparse LU comes first: perfbench/tracing.py reads the factor's
        L+U size from the first entry.  Neither side's matrix is kept: a step
        applies A and S to vectors instead.
        """
        if dt not in self._cn:
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
    shape: object       # shape(ci, pts) -> spatial factor values
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
        # every spatial factor at every cell's quadrature points, evaluated
        # once: per test space, (term, loads, values); the shapes' values are
        # also the exact fields of the errors, per field and term
        tested, self._exact = [[], [], []], [[], [], []]
        for f, (terms, factors) in enumerate(_LOADS):
            for term in getattr(mms, terms):
                for factor, space, loads in factors:
                    vals = np.stack([getattr(term, factor)(ci, p) for ci, p in enumerate(pts)])
                    tested[space].append((term, loads, vals))
                    if factor == "shape":
                        self._exact[f].append(vals)
        # (term, block, time factor, sign, load vector): the plain loads of one
        # test space from one assemble_forms call, and D^T of them
        self._loads = []
        for space, rows in zip((sys.space_q, sys.space_E, sys.space_B), tested):
            if rows:
                vecs = sys.assemble_forms(space, np.stack([vals for *_, vals in rows]))
                self._loads += [(term, block, kind, sign,
                                 vec if op is None else getattr(sys, op).T @ vec)
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


def get_system(spec: str, k: int, systems: dict | None = None) -> "EBSystem":
    if systems is None:
        return EBSystem(load_mesh(spec), k)
    key = (spec, k)
    if key not in systems:
        systems[key] = EBSystem(load_mesh(spec), k)
    return systems[key]


def mms_convergence(mesh_specs: list[str], k: int, mms_factory, t_final: float,
                    dt_for_level, seed: int = 0, systems: dict | None = None) -> list[dict]:
    """Final-time L2 errors and observed orders over a mesh hierarchy.

    dt_for_level(level) supplies the time step (spatial studies shrink it
    faster than h so the spatial term dominates).
    """
    out = []
    prev = None
    for lvl, spec in enumerate(mesh_specs):
        sys = get_system(spec, k, systems)
        mesh = sys.mesh
        mms = mms_factory()
        dt = dt_for_level(lvl)
        cfg = EBConfig(mesh=spec, k=k, t_final=t_final, dt=dt, init="mms",
                       mms=mms.label, seed=seed)
        rec, y, driver = run(sys, cfg, mms)
        es, eE, eB = driver.pointwise_errors(y, rec.t[-1])
        err = es + eE + eB
        h = float(np.max(np.linalg.norm(
            mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]], axis=1)))
        row = {"mesh": spec, "h": h, "dt": dt,
               "err_sigma": es, "err_E": eE, "err_B": eB, "err_total": err}
        if prev is not None and err > 0:
            row["order"] = float(np.log2(prev["err_total"] / err)
                                 / np.log2(prev["h"] / h))
        out.append(row)
        prev = row
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
    Mq, ME, MB = sys.mass_blocks()
    Ks = (sys.D3.T @ Mq @ sys.D3).tocsr()
    Kl = (sys.D2.T @ ME @ sys.D2).tocsr()
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
    (_, mE, mB), (_, c2) = sys._cell_mass, sys._cell_coupling
    # the cell stacks repeat within a translation class: one cell per class
    reps = sys.space_E.class_reps
    R, L = np.linalg.cholesky(mE[reps]), np.linalg.cholesky(mB[reps])
    X = np.linalg.solve(L, np.linalg.solve(R, c2[reps]).transpose(0, 2, 1))  # (R^-1 C2 L^-T)^T
    bound = float(np.max(np.linalg.norm(X, 2, axis=(1, 2)))) ** 2

    E, B = slice(sys.nq, sys.nq + sys.nE), slice(sys.nq + sys.nE, sys.ntot)
    (Mq, ME, MB), S = sys.mass_blocks(), sys.skew_block()
    lam = _pencil_top(S[:sys.nq, E], ME, CellInteriors(
        lambda c: mE[c], sys.scale[E], sys.space_E.cell_maps,
        sys.space_E.elements[0].interior), Mq)
    if not bound < lam:
        lam = max(lam, _pencil_top(S[E, B], MB, CellInteriors(
            lambda c: mB[c], sys.scale[B], sys.space_B.cell_maps,
            sys.space_B.elements[0].interior), ME))
    u = 1.0 / (1.0 + lam)
    F2 = (1.0 - u) ** 2 + 2.0
    return float(np.sqrt((F2 - np.sqrt(F2 * F2 - 4.0)) / 2.0))


def infsup_identity_check(sys: EBSystem, trials: int, seed: int = 0) -> float:
    """The proof's test choice bounds the form below by half the squared norms;
    returns the worst slack (negative = violation)."""
    rng = np.random.default_rng(seed)
    Mq, ME, _ = sys.mass_blocks()
    worst = np.inf
    for _ in range(trials):
        y = rng.standard_normal(sys.ntot)
        sig, e, b = sys.split(y)
        dde = sys.D3 @ e
        scb = sys.D2 @ b
        test = sys.stack(sig - dde, e + scb, b)
        Ay, Sy = sys.products(y)
        lhs = float(test @ (Ay - Sy))
        rhs = 0.5 * float(y @ Ay + dde @ (Mq @ dde) + scb @ (ME @ scb))
        worst = min(worst, (lhs - rhs) / max(abs(rhs), 1e-300))
    return worst
