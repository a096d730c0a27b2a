"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import numpy as np
import pytest

from divdivfem import eb_solver, fe2d, fe3d, mesh, mms, poly
from divdivfem import tensor_calc as tc
from divdivfem.cli import random_cells
from divdivfem.complex_asm import complex_audit


def _line(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}"
          + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_unisolvence():
    expected_2d = {"h1_scalar": 21, "hrot_vec": 30, "l2_lagrange": 10,
                   "h1_vec": 42, "hrotrot_s2": 45}
    expected_3d = {"hsymcurl_T": 280, "hdivdiv_S": 120, "h1_vec3": 168}
    worst = 1.0
    for k in (3, 4):
        for fam in expected_2d:
            for cell in [None] + random_cells(2, 5, seed=21):
                e = fe2d.element_2d(fam, k, cell)
                if k == 3 and cell is None:
                    assert e.ndof == expected_2d[fam]
                worst = min(worst, e.sv_ratio())
        for fam in expected_3d:
            for cell in [None] + random_cells(3, 5, seed=22):
                e = fe3d.element_3d(fam, k, cell)
                if k == 3 and cell is None:
                    assert e.ndof == expected_3d[fam]
                worst = min(worst, e.sv_ratio())
    _line(1, "unisolvence of all families, k in {3,4}, reference + 5 random cells",
          worst > 1e-9, f"worst sv ratio {worst:.2e}")


def test_criterion_2_polynomial_complex():
    rows = poly.poly_complex_audit(3, 3, exact_certify=True)
    named = {r["name"]: r for r in rows}
    ok = (all(r["pass"] for r in rows)
          and named["rank devgrad"]["computed"] == 164
          and named["rank symcurl"]["computed"] == 116
          and named["rank divdiv"]["computed"] == 4
          and named["kernel head = RT (dim 4)"]["computed"] == 4)
    _line(2, "3-D polynomial complex ranks 164/116/4, zero compositions, RT head",
          ok)


def test_criterion_3_bubble_audits():
    rows2 = fe2d.bubble_audit_2d(3)
    rows3 = fe3d.bubble_audit_3d(3) + fe3d.bubble_audit_3d(4)
    named2 = {r["name"]: r for r in rows2}
    named3 = {r["name"]: r for r in fe3d.bubble_audit_3d(3)}
    strain_img = named2["dim rotrot_f image of strain bubbles"]["computed"]
    sc_img = named3["dim symcurl B_{k+1,symcurl}"]["computed"]
    tail = named3["measured rank divdiv on bubbles (tail resolution)"]
    ok = (all(r["pass"] for r in rows2 + rows3)
          and strain_img == 3 and sc_img == 32)
    _line(3, "bubble chains: 2-D strain image 3, 3-D symcurl image 32; "
             "tail measured = P_{k-2}/P_1", ok,
          f"divdiv-on-bubbles rank {tail['computed']} (k=3), "
          f"6 at k=4 distinguishes k-2 from k-1")


def test_criterion_4_trace_identities():
    rows = fe3d.trace_identity_audit(3, trials=50, seed=0)
    rows += tc.product_identity_audit(trials=50, seed=0)
    worst = max(r["computed"] for r in rows)
    ok = all(r["pass"] for r in rows)
    _line(4, "trace identities + product identities, 50 trials each",
          ok, f"max residual {worst:.2e}")


@pytest.mark.parametrize("spec", ["single_tet", "two_tets", "kuhn_cube(1)",
                                  "kuhn_cube(2)"])
def test_criterion_5_global_exactness(spec):
    m = mesh.load(spec)
    rows = complex_audit(m, 3)
    ok = all(r["pass"] for r in rows)
    extra = ""
    if spec == "kuhn_cube(1)":
        named = {r["name"]: r for r in rows}
        ker = named["ker divdiv matches proof formula"]["computed"]
        rank = named["rank symcurl matches proof formula"]["computed"]
        ok = ok and ker == 456 and rank == 456
        extra = f"ker(divdiv) = rank(symcurl) = {ker}"
    _line(5, f"global exactness on {spec}", ok, extra)


def test_criterion_6_energy_conservation(eb_systems):
    sys = eb_systems("kuhn_cube(1)")
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=1.0, dt=0.01,
                             init="random", seed=1)
    rec, _, _ = eb_solver.run(sys, cfg)
    en = np.array(rec.energy)
    drift = np.abs(en - en[0]).max() / en[0]
    _line(6, "energy drift over 100 CN steps, random data, zero forcing",
          drift <= 1e-8, f"drift {drift:.2e}")


def test_criterion_7_convergence(eb_systems):
    rows = eb_solver.mms_convergence(
        ["kuhn_cube(1)", "kuhn_cube(2)"], 3, mms.trig_mms,
        t_final=0.4, dt_for_level=lambda lvl: 0.05 / 4 ** lvl,
        systems=eb_systems.cache)
    spatial = rows[-1]["order"]
    trows = eb_solver.temporal_convergence(
        "kuhn_cube(1)", 3, lambda: mms.poly_mms(3, time_degree=3),
        t_final=1.0, dts=[0.25, 0.125, 0.0625], systems=eb_systems.cache)
    temporal = trows[-1]["order"]
    sys = eb_systems("kuhn_cube(1)")
    pm = mms.poly_mms(3, time_degree=2)
    drv = eb_solver.MMSDriver(sys, pm)
    cfg = eb_solver.EBConfig(mesh="kuhn_cube(1)", t_final=0.5, dt=0.125,
                             init="mms", mms="poly")
    rec, y, _ = eb_solver.run(sys, cfg, driver=drv)
    exact_err = max(drv.pointwise_errors(y, rec.t[-1]))
    ok = (abs(spatial - 2.0) <= 0.3 and abs(temporal - 2.0) <= 0.2
          and exact_err <= 1e-8)
    _line(7, "MMS rates: spatial h^2, temporal dt^2, exact reproduction",
          ok, f"spatial {spatial:.3f}, temporal {temporal:.3f}, "
              f"poly/quadratic error {exact_err:.2e}")


def test_criterion_8_infsup(eb_systems):
    b1 = eb_solver.infsup_estimate(eb_systems("kuhn_cube(1)"))
    b2 = eb_solver.infsup_estimate(eb_systems("kuhn_cube(2)"))
    golden = (np.sqrt(5) - 1) / 2
    # 0.6180365770479402: the dense SVD reference on kuhn_cube(1)
    # (test_eb_solver.test_infsup_matches_dense_reference computes it)
    ok = (abs(b1 - 0.6180365770479402) <= 1e-10 and b2 <= b1
          and abs(b2 - 0.6180341778323778) <= 1e-12 and min(b1, b2) > golden)
    _line(8, "inf-sup constants: dense reference, non-increasing, above (sqrt5-1)/2",
          ok, f"beta {b1:.10f} vs {b2:.10f}")
