import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from divdivfem import eb_solver, mms
from divdivfem.complex_asm import assemble_cells


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
    rec, state, _ = eb_solver.run(sys, cfg)
    assert max(rec.energy) == 0.0
    assert np.abs(state.E).max() == 0.0


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
    for local, glob in ((C3, sys.Mq @ sys.D3), (C2, sys.ME @ sys.D2)):
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


def _factored_matrices(sys):
    A, S = sys.mass_block(), sys.skew_block()
    return {"cn": (A - 0.5 * 0.0125 * S).tocsr(), "projection": sys.projection_matrix(),
            "mass": A}


@pytest.mark.parametrize("which", ["cn", "projection", "mass"])
@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_condensed_factor_matches_full_lu(eb_systems, spec, which, rng):
    sys = eb_systems(spec)
    lhs = _factored_matrices(sys)[which]
    K, s = _equilibrated(sys, lhs), sys.scale
    b = K @ rng.standard_normal(sys.ntot)
    # lhs = D^-1 K D^-1, so K^-1 b = D^-1 lhs^-1 D^-1 b
    x = sys._factorize(lhs).solve(b / s) / s
    ref = spla.splu(K.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_condensed_interface_kuhn_cube_1(eb_systems):
    """Each cell has 80 interior unknowns (sigma 4, E 32, B 44); the interface
    keeps the rest, and sigma (all interior) leaves the global solve."""
    sys = eb_systems("kuhn_cube(1)")
    cells = sys._factorize(sys.mass_block())
    assert cells.interior.shape == (6, 80)
    assert len(cells.iface) == cells.lu.shape[0] == 950 == sys.ntot - 6 * 80
    assert cells.iface.min() >= sys.nq


def test_schur_complement_one_cell_stencil(eb_systems, monkeypatch):
    sys = eb_systems("kuhn_cube(1)")
    factored = []
    splu = eb_solver.spla.splu
    monkeypatch.setattr(eb_solver.spla, "splu",
                        lambda A, **kw: factored.append(A) or splu(A, **kw))
    cells = sys._factorize(_factored_matrices(sys)["cn"])
    (schur,) = factored
    ncells, nf = cells.cell_iface.shape
    stencil = assemble_cells(cells.cell_iface, cells.cell_iface, np.ones((ncells, nf, nf)),
                             schur.shape)
    rows, cols = schur.nonzero()
    assert len(rows) > 0 and np.all(stencil[rows, cols] > 0)


def test_cn_step_rejects_wrong_condensed_solve(eb_systems, rng, monkeypatch):
    sys = eb_systems("two_tets")
    solve = eb_solver.CellInteriors.solve
    monkeypatch.setattr(eb_solver.CellInteriors, "solve",
                        lambda self, b: (1 + 1e-6) * solve(self, b))
    with pytest.raises(RuntimeError, match="CN solve residual"):
        sys.cn_step(rng.standard_normal(sys.ntot), 0.05)


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

    def fld(space, coeffs, op=None):
        def ev(ci, pts):
            f = space.elements[ci].field_from_dofs(coeffs[space.cell_maps[ci]])
            if op is not None:
                f = op(f)
            return f.eval(pts)
        return ev

    from divdivfem import tensor_calc as tc
    reqs = [("q", fld(sys.space_q, sig)),
            ("q", fld(sys.space_E, e, lambda f: f.div().div())),
            ("xi", fld(sys.space_E, e)),
            ("divxi", fld(sys.space_q, sig)),
            ("xi", fld(sys.space_B, b, lambda f: tc.field_sym(f.curl()))),
            ("z", fld(sys.space_B, b)),
            ("scz", fld(sys.space_E, e))]
    aq, addq, axi, adivxi, ascxi, az, ascz = sys.assemble_forms(reqs)
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
    rec, state, _ = eb_solver.run(sys, cfg, driver=drv)
    errs = drv.pointwise_errors(sys.stack(state.sigma, state.E, state.B), state.t)
    assert max(errs) <= 1e-8


def test_poly_mms_per_step_errors_are_direct_quadrature(eb_systems):
    """Every recorded error of the space-exact run sits at solver precision,
    and the last one is the error of the final state."""
    sys = eb_systems("kuhn_cube(1)")
    drv = eb_solver.MMSDriver(sys, mms.poly_mms(3, time_degree=2))
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=0.5, dt=0.125,
                             init="mms", mms="poly")
    rec, state, _ = eb_solver.run(sys, cfg, driver=drv)
    assert len(rec.err_B) == cfg.nsteps + 1
    assert max(rec.err_sigma + rec.err_E + rec.err_B) <= 1e-8
    final = drv.pointwise_errors(sys.stack(state.sigma, state.E, state.B), state.t)
    assert final == (rec.err_sigma[-1], rec.err_E[-1], rec.err_B[-1])


def _nodal_reference(space, ci, pts, op=None):
    """Nodal basis (or its divdiv / symcurl) of cell ci at pts: (p, ndof, ...),
    from the generators as PolyFields and their exact coefficient calculus."""
    from divdivfem import tensor_calc as tc
    elem = space.elements[ci]
    gens = elem.generator_fields()
    if op == "divdiv":
        gens = gens.div().div()
    elif op == "symcurl":
        gens = tc.field_sym(gens.curl())
    return np.moveaxis(np.tensordot(elem.Vinv, gens.eval(pts), axes=(0, 0)), 0, 1)


@pytest.mark.parametrize("spec", ["two_tets", "kuhn_cube(1)"])
def test_assemble_forms_matches_nodal_reference(eb_systems, spec):
    """Moment loads equal quadrature against the tabulated nodal basis."""
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
        pts, w = sys._qrule.on(sys.space_E.elements[ci].simplex)
        for out, (slot, fld) in zip(ref, reqs):
            space, op = slots[slot]
            tab = _nodal_reference(space, ci, pts, op)
            vals = fld(ci, pts).reshape(len(w), -1)
            out[space.cell_maps[ci]] += np.einsum(
                "pv,pmv,p->m", vals, tab.reshape(*tab.shape[:2], -1), w)
    for (slot, _), got, want in zip(reqs, sys.assemble_forms(reqs), ref):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), slot


def test_errors_match_cellwise_evaluation(eb_systems, rng):
    """errors() equals quadrature of GlobalSpace.eval_cells values, cell by cell."""
    sys = eb_systems("kuhn_cube(1)")
    m = mms.trig_mms()
    drv = eb_solver.MMSDriver(sys, m)
    y, t = rng.standard_normal(sys.ntot), 0.3
    ref = np.zeros(3)
    for ci in range(sys.mesh.num_cells):
        pts, w = sys._qrule.on(sys.space_E.elements[ci].simplex)
        for j, (space, coeffs, terms) in enumerate(zip(
                (sys.space_q, sys.space_E, sys.space_B), sys.split(y),
                (m.sigma_terms, m.E_terms, m.B_terms))):
            d = space.eval_cells(coeffs, ci, pts) - sum(
                tm.g(t) * tm.shape(ci, pts) for tm in terms)
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
    E = lambda p: m.E_terms[0].shape(0, p)
    dd_exact = m.E_terms[0].dshape(0, pts)

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
    B = lambda p: m.B_terms[0].shape(0, p)
    sc_exact = m.B_terms[0].dshape(0, pts)

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


def test_infsup_identity_on_random_triples(eb_systems):
    sys = eb_systems("kuhn_cube(1)")
    worst = eb_solver.infsup_identity_check(sys, trials=50, seed=0)
    assert worst >= -1e-12


def _dense_infsup(sys):
    """Smallest singular value of A - S in the graph norm, by dense linear
    algebra: the Cholesky factor L of the equilibrated vnorm_block gives
    beta = sigma_min(L^{-1} P L^{-T}) for the equilibrated A - S = P."""
    N = _equilibrated(sys, eb_solver.vnorm_block(sys)).toarray()
    P = _equilibrated(sys, sys.projection_matrix()).toarray()
    L = np.linalg.cholesky(N)
    X = sla.solve_triangular(L, P, lower=True)
    C = sla.solve_triangular(L, X.T, lower=True).T
    return float(np.linalg.svd(C, compute_uv=False)[-1])


@pytest.mark.parametrize("spec", ["single_tet", "two_tets", "kuhn_cube(1)"])
def test_infsup_matches_dense_reference(eb_systems, spec):
    sys = eb_systems(spec)
    beta = eb_solver.infsup_estimate(sys)
    assert abs(beta - _dense_infsup(sys)) <= 1e-10
    assert (np.sqrt(5) - 1) / 2 < beta <= 1


def test_infsup_rejects_unconverged_eigenpair(eb_systems, monkeypatch):
    sys = eb_systems("single_tet")
    fake = lambda op, **kw: (np.array([2.0 + 0j]), np.ones((sys.ntot, 1), dtype=complex))
    monkeypatch.setattr(eb_solver.spla, "eigs", fake)
    with pytest.raises(RuntimeError, match="eigen-solve"):
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
    r = sys.mass_block() @ ydot - sys.skew_block() @ y0 - drv.forcing(0.0)
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
