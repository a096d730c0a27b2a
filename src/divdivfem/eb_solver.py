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

from .complex_asm import (GlobalSpace, assemble_cells, assemble_coupling, assemble_diff,
                          cell_operators)
from .dofcommon import GeneratorEval
from .fe3d import EntityCache, _symcurl_vals
from .mesh import TetMesh, load as load_mesh
from .quadrature import rule


INITS = ("zero", "random", "mms")
MMS_CHOICES = ("none", "trig", "poly")

# load slot -> (space attribute of EBSystem, integrand on a GeneratorEval)
_SLOTS = {
    "q": ("space_q", lambda ev, P: ev.values(P)),
    "xi": ("space_E", lambda ev, P: ev.values(P)),
    "divxi": ("space_E", lambda ev, P: np.einsum("...pijij->...p", ev.hessians(P))),
    "z": ("space_B", lambda ev, P: ev.values(P)),
    "scz": ("space_B", _symcurl_vals),
}


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


@dataclass
class EBState:
    t: float
    sigma: np.ndarray
    E: np.ndarray
    B: np.ndarray


class CellInteriors:
    """The factor of lhs = A - theta S: equilibrated, its cell interiors
    condensed out, and the sparse LU of the Schur complement.

    K = D lhs D, with D the diagonal of scale.  The interior unknowns I of a
    cell couple only within that cell, so K_II is block diagonal, one dense
    block K_ii per cell, factorised by LU (an explicit inverse loses digits
    that the residual checks need).  With X_c = K_ii^-1 K_iF, the Schur
    complement on the interface unknowns F is K_FF - sum_c P_c^T K_Fi X_c P_c.
    A_ii is SPD and S skew, so each K_ii has a positive-definite symmetric
    part and is nonsingular for every theta.  The Schur complement inherits
    the symmetric pattern and the positive-definite symmetric part, so
    diagonal pivots exist: the ordering is minimum degree on its (symmetric)
    pattern, and a pivot leaves the diagonal only where a multiplier would
    exceed 100.
    """

    def __init__(self, lhs: sp.spmatrix, scale: np.ndarray, interior: np.ndarray,
                 cell_iface: np.ndarray):
        self.scale = scale
        D = sp.diags(scale)
        K = (D @ lhs @ D).tocsr()
        self.interior = interior
        self.iface = np.setdiff1d(np.arange(K.shape[0]), interior)
        number = np.empty(K.shape[0], dtype=int)
        number[self.iface] = np.arange(len(self.iface))
        self.cell_iface = number[cell_iface]
        Kii = np.stack([K[np.ix_(i, i)].toarray() for i in interior])
        KiF = np.stack([K[np.ix_(i, f)].toarray() for i, f in zip(interior, cell_iface)])
        self.lu_ii = sla.lu_factor(Kii, check_finite=False)
        self.X = sla.lu_solve(self.lu_ii, KiF, check_finite=False)
        del Kii, KiF                 # freed before K_Fi and K[F] are formed: peak memory
        nF = len(self.iface)
        KFi = np.stack([K[np.ix_(self.iface[f], i)].toarray()
                        for i, f in zip(interior, self.cell_iface)])
        update = assemble_cells(self.cell_iface, self.cell_iface, KFi @ self.X, (nF, nF))
        del KFi
        KF = K[self.iface]
        del K
        self.KFI = KF[:, interior.ravel()]
        schur = (KF[:, self.iface] - update).tocsc()
        del KF, update
        self.lu = spla.splu(schur, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """lhs^-1 b = D K^-1 D b: w = K_II^-1 c_I, x_F = Schur^-1 (c_F - K_FI w)
        and x_I = w - X x_F, for c = D b."""
        c = self.scale * b
        w = sla.lu_solve(self.lu_ii, c[self.interior][..., None], check_finite=False)[..., 0]
        xF = self.lu.solve(c[self.iface] - self.KFI @ w.ravel())
        x = np.empty_like(c)
        x[self.iface] = xF
        x[self.interior] = w - (self.X @ xF[self.cell_iface][..., None])[..., 0]
        return self.scale * x


class EBSystem:
    """Assembled spaces, mass matrices and discrete differentials for one mesh."""

    def __init__(self, mesh: TetMesh, k: int):
        self.mesh = mesh
        self.k = k
        cache = EntityCache(mesh, k)
        self.space_q = GlobalSpace(mesh, "dg_scalar", k, cache)
        self.space_E = GlobalSpace(mesh, "hdivdiv_S", k, cache)
        self.space_B = GlobalSpace(mesh, "hsymcurl_T", k, cache)
        d3 = cell_operators("divdiv", self.space_E, self.space_q)
        d2 = cell_operators("symcurl", self.space_B, self.space_E)
        self.D3 = assemble_diff(d3, self.space_E, self.space_q)
        self.D2 = assemble_diff(d2, self.space_B, self.space_E)
        self.MB = self.space_B.mass()
        mq, mE = self.space_q.cell_masses(), self.space_E.cell_masses()
        self.Mq = self.space_q.mass(mq)
        self.ME = self.space_E.mass(mE)
        # the coupling blocks Mq D3 and ME D2, assembled cell by cell
        C3 = assemble_coupling(d3, self.space_E, self.space_q, mq)
        C2 = assemble_coupling(d2, self.space_B, self.space_E, mE)
        del mq, mE, d3, d2           # freed before S is stacked
        self.nq, self.nE, self.nB = self.space_q.dim, self.space_E.dim, self.space_B.dim
        nq, nE, nB = self.nq, self.nE, self.nB
        # every block CSR, so that bmat stacks them without a COO round trip
        self._S = sp.bmat([
            [sp.csr_matrix((nq, nq)), C3, sp.csr_matrix((nq, nB))],
            [-C3.T.tocsr(), sp.csr_matrix((nE, nE)), -C2],
            [sp.csr_matrix((nB, nq)), C2.T.tocsr(), sp.csr_matrix((nB, nB))]], format="csr")
        self.ntot = self.nq + self.nE + self.nB
        # symmetric diagonal equilibration from the mass diagonal: DOF
        # functionals mix point derivatives and moments, so raw systems are
        # badly conditioned, and the scaling changes nothing about the
        # discretisation
        self.scale = 1.0 / np.sqrt(np.concatenate(
            [self.Mq.diagonal(), self.ME.diagonal(), self.MB.diagonal()]))
        # each cell's interior unknowns, (ncells, ni), and interface unknowns,
        # (ncells, nf); every unknown not interior is interface
        interior, iface = [], []
        for o, space in zip((0, nq, nq + nE), (self.space_q, self.space_E, self.space_B)):
            inner = space.elements[0].interior
            interior.append(o + space.cell_maps[:, inner])
            iface.append(o + space.cell_maps[:, ~inner])
        self._cells = (np.hstack(interior), np.hstack(iface))
        self._qrule = rule("tet", 2 * k + 6)
        self._cellq = None
        self._tabs: dict = {}
        self._cn = {}

    # -- block structure -------------------------------------------------------
    def stack(self, sig, e, b) -> np.ndarray:
        return np.concatenate([sig, e, b])

    def split(self, y):
        return (y[: self.nq], y[self.nq: self.nq + self.nE], y[self.nq + self.nE:])

    def mass_block(self) -> sp.csr_matrix:
        return sp.block_diag([self.Mq, self.ME, self.MB], format="csr")

    def skew_block(self) -> sp.csr_matrix:
        """Coupling S with y' A = S y: skew-symmetric by construction."""
        return self._S

    def projection_matrix(self) -> sp.csr_matrix:
        """A - S, the CN left-hand side at dt = 2: projecting is one CN solve."""
        return (self.mass_block() - self.skew_block()).tocsr()

    def energy(self, y) -> float:
        s, e, b = self.split(y)
        return float(s @ (self.Mq @ s) + e @ (self.ME @ e) + b @ (self.MB @ b))

    # -- quadrature: one rule, one tabulation per space --------------------------
    def cell_quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Points (ncells, p, 3) and weights (ncells, p) of the degree 2k + 6 rule."""
        if self._cellq is None:
            pw = [self._qrule.on(elem.simplex) for elem in self.space_E.elements]
            self._cellq = (np.stack([p for p, _ in pw]), np.stack([w for _, w in pw]))
        return self._cellq

    def cell_values(self, space: GlobalSpace, coeffs: np.ndarray) -> np.ndarray:
        """A discrete field at every cell's quadrature points: (ncells, p, *vshape).

        The rule is barycentric, so one scalar Bernstein tabulation serves every
        cell: u_h = T . reshape(Vinv . y_c) . generators.
        """
        if space.family not in self._tabs:
            self._tabs[space.family] = space.elements[0].basis.eval(self._qrule.bary)
        T = self._tabs[space.family]
        gens = np.asarray(space.elements[0].comp_gens, dtype=float)
        co = np.stack([elem.Vinv @ coeffs[gmap]
                       for elem, gmap in zip(space.elements, space.cell_maps)])
        co = co.reshape(len(co), T.shape[1], len(gens))           # (c, N, C)
        vals = (T @ co) @ gens.reshape(len(gens), -1)             # (c, p, V)
        return vals.reshape(*vals.shape[:2], *gens.shape[1:])

    def assemble_forms(self, requests) -> list[np.ndarray]:
        """requests: list of (slot, field) with slot in
        q | divxi | xi | z | scz and field(ci, pts) -> values.

        Each load is the moment of the field against the nodal basis (or its
        divdiv / symcurl), by sum factorisation; the requests of one slot form
        the batch axis of one GeneratorEval.moments call per cell.
        """
        by_slot: dict = {}
        for idx, (slot, _) in enumerate(requests):
            if slot not in _SLOTS:
                raise ValueError(f"unknown load slot {slot!r}")
            by_slot.setdefault(slot, []).append(idx)
        spaces = {slot: getattr(self, _SLOTS[slot][0]) for slot in by_slot}
        out = [np.zeros(spaces[slot].dim) for slot, _ in requests]
        allpts, allw = self.cell_quadrature()
        for ci in range(self.mesh.num_cells):
            pts, w = allpts[ci], allw[ci]
            for slot, idxs in by_slot.items():
                space, integrand = spaces[slot], _SLOTS[slot][1]
                elem = space.elements[ci]
                tw = np.stack([requests[i][1](ci, pts) for i in idxs])
                tw = tw * w.reshape(1, -1, *([1] * (tw.ndim - 2)))
                mom = GeneratorEval(elem.basis, elem.comp_gens).moments(
                    lambda ev: integrand(ev, pts), tw)
                loads = elem.Vinv.T @ mom                         # (ndof, m)
                gmap = space.cell_maps[ci]
                for j, i in enumerate(idxs):
                    out[i][gmap] += loads[:, j]
        return out

    # -- solvers ---------------------------------------------------------------
    def _factorize(self, lhs: sp.spmatrix) -> CellInteriors:
        """The condensed factor of lhs = A - theta S (theta = dt/2 for CN, 1 for
        the projection, 0 for the mass block)."""
        return CellInteriors(lhs, self.scale, *self._cells)

    def _solve(self, cells: CellInteriors, lhs: sp.spmatrix, b: np.ndarray,
               tol: float, what: str) -> np.ndarray:
        """Solve lhs y = b with its _factorize() factor; the residual is checked
        on the full lhs, interiors included."""
        y = cells.solve(b)
        resid = np.linalg.norm(lhs @ y - b) / max(np.linalg.norm(b), 1e-300)
        if resid > tol:
            raise RuntimeError(f"{what} solve residual {resid:.3e} exceeds {tol}")
        return y

    def project(self, rhs: np.ndarray) -> np.ndarray:
        # the dt = 2 factor is not cached: it would hold a second LU next to
        # the CN one, and the projection runs once per MMS run
        lhs = self.projection_matrix()
        return self._solve(self._factorize(lhs), lhs, rhs, 1e-9, "projection")

    def cn_factorization(self, dt: float):
        """(cells.lu, cells, rhs, lhs) of the CN step at dt, factorised once
        per dt, with cells the CellInteriors factor of lhs.

        The sparse LU comes first: perfbench/tracing.py reads the factor's
        L+U size from the first entry.
        """
        if dt not in self._cn:
            A, S = self.mass_block(), self.skew_block()
            lhs = (A - 0.5 * dt * S).tocsr()
            rhs = (A + 0.5 * dt * S).tocsr()
            cells = self._factorize(lhs)
            self._cn[dt] = (cells.lu, cells, rhs, lhs)
        return self._cn[dt]

    def cn_step(self, y: np.ndarray, dt: float, forcing_hat: np.ndarray | None = None,
                tol: float = 1e-8) -> np.ndarray:
        """One Crank-Nicolson step; forcing_hat is the endpoint-averaged load."""
        _, cells, rhs_mat, lhs_mat = self.cn_factorization(dt)
        b = rhs_mat @ y
        if forcing_hat is not None:
            b = b + dt * forcing_hat
        return self._solve(cells, lhs_mat, b, tol, "CN")


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


# the weak-form loads of a manufactured solution, in assembly order: for each
# term list, one row per load of each term: (load slot, spatial factor of the
# term, block it loads (0 sigma, 1 E, 2 B), time factor, sign).  The time
# factor "rate" is g'(t) in the forcing and g(t) in the projection; "value" is
# g(t) in both.
_LOADS = (
    ("sigma_terms", (("q", "shape", 0, "rate", 1.0), ("divxi", "shape", 1, "value", 1.0))),
    ("E_terms", (("xi", "shape", 1, "rate", 1.0), ("q", "dshape", 0, "value", -1.0),
                 ("scz", "shape", 2, "value", -1.0))),
    ("B_terms", (("z", "shape", 2, "rate", 1.0), ("xi", "dshape", 1, "value", 1.0))),
)


class MMSDriver:
    """Precomputed spatial vectors so per-step forcing is a small dense combo."""

    def __init__(self, sys: EBSystem, mms: ManufacturedEB):
        self.sys = sys
        self.mms = mms
        loads = [(term, row) for terms, rows in _LOADS
                 for term in getattr(mms, terms) for row in rows]
        vecs = sys.assemble_forms([(slot, getattr(term, factor))
                                   for term, (slot, factor, *_) in loads])
        # (term, block, time factor, sign, load vector), summed in _LOADS order
        self._loads = [(term, block, kind, sign, vec)
                       for (term, (_, _, block, kind, sign)), vec in zip(loads, vecs)]
        # exact values at the quadrature points, per field and term
        pts, _ = sys.cell_quadrature()
        self._exact = [[np.stack([tm.shape(ci, p) for ci, p in enumerate(pts)])
                        for tm in terms]
                       for terms in (mms.sigma_terms, mms.E_terms, mms.B_terms)]
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
    """Time-step the fully discrete system; returns (record, final_state)."""
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

    def record(t, y):
        rec.t.append(t)
        rec.energy.append(sys.energy(y))
        if driver is not None:
            rec.states.append(y)

    record(0.0, y)
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
        y = sys.cn_step(y, dt, fhat)
        record(t1, y)
    return rec, EBState(config.nsteps * dt, *sys.split(y)), driver


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
        rec, state, driver = run(sys, cfg, mms)
        es, eE, eB = driver.pointwise_errors(
            sys.stack(state.sigma, state.E, state.B), state.t)
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
        rec, state, _ = run(sys, cfg, driver=driver)
        es, eE, eB = driver.pointwise_errors(
            sys.stack(state.sigma, state.E, state.B), state.t)
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
    Ks = (sys.D3.T @ sys.Mq @ sys.D3).tocsr()
    Kl = (sys.D2.T @ sys.ME @ sys.D2).tocsr()
    return sp.block_diag([sys.Mq, sys.ME + Ks, sys.MB + Kl], format="csr")


def infsup_estimate(sys: EBSystem) -> float:
    """Smallest singular value of the coupled form in the graph norm.

    Because D3 D2 = 0, the form splits in mass inner products into one 2x2
    block per singular value d of D3 or D2 (the Hodge decomposition), whose
    smallest graph-norm singular value g(d) falls from 1 to (sqrt5 - 1)/2 as
    d grows; so beta = g(d_max).  d_max^2 is the largest eigenvalue of
    K v = lam A v, K = blockdiag(0, D3' Mq D3, D2' ME D2) applied matrix-free:
    one factorisation of the mass block A and one ARPACK call.
    """
    A = sys.mass_block()
    cells = sys._factorize(A)

    def stiff(y):
        _, e, b = sys.split(y)
        return sys.stack(np.zeros(sys.nq), sys.D3.T @ (sys.Mq @ (sys.D3 @ e)),
                         sys.D2.T @ (sys.ME @ (sys.D2 @ b)))

    op = spla.LinearOperator((sys.ntot, sys.ntot), dtype=float,
                             matvec=lambda y: cells.solve(stiff(y)))
    lam, vec = spla.eigs(op, k=1, which="LR", v0=np.ones(sys.ntot))
    lam, v = float(lam[0].real), vec[:, 0].real
    Av = A @ v
    resid = np.linalg.norm(stiff(v) - lam * Av)
    if not (np.isfinite(lam) and lam >= 0 and resid <= 1e-6 * lam * np.linalg.norm(Av)):
        raise RuntimeError(f"inf-sup eigen-solve failed: lambda {lam:.6e}, "
                           f"residual {resid:.3e}")
    u = 1.0 / (1.0 + lam)
    F2 = (1.0 - u) ** 2 + 2.0
    return float(np.sqrt((F2 - np.sqrt(F2 * F2 - 4.0)) / 2.0))


def infsup_identity_check(sys: EBSystem, trials: int, seed: int = 0) -> float:
    """The proof's test choice bounds the form below by half the squared norms;
    returns the worst slack (negative = violation)."""
    rng = np.random.default_rng(seed)
    A = sys.projection_matrix()
    worst = np.inf
    for _ in range(trials):
        y = rng.standard_normal(sys.ntot)
        sig, e, b = sys.split(y)
        dde = sys.D3 @ e
        scb = sys.D2 @ b
        test = sys.stack(sig - dde, e + scb, b)
        lhs = float(test @ (A @ y))
        rhs = 0.5 * float(sig @ (sys.Mq @ sig) + e @ (sys.ME @ e) + b @ (sys.MB @ b)
                          + dde @ (sys.Mq @ dde) + scb @ (sys.ME @ scb))
        worst = min(worst, (lhs - rhs) / max(abs(rhs), 1e-300))
    return worst
