"""Command-line audits and solver runs with reproducible reports.

Exit codes: 0 all checks pass, 1 any check failed, 2 usage or I/O errors.
Random trials take --seed (default 0) and orderings are fixed, so identical
inputs produce byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import eb_solver, fe2d, fe3d, mesh, mms, poly
from . import tensor_calc as tc
from .fields import Simplex
from .report import Report, check, write_run_csv

_TOTAL_DOFS = {
    "h1_scalar": lambda k: (k + 3) * (k + 4) // 2,
    "hrot_vec": lambda k: (k + 2) * (k + 3),
    "l2_lagrange": lambda k: (k + 1) * (k + 2) // 2,
    "h1_vec": lambda k: (k + 3) * (k + 4),
    "hrotrot_s2": lambda k: 3 * (k + 2) * (k + 3) // 2,
    "hsymcurl_T": lambda k: 4 * (k + 2) * (k + 3) * (k + 4) // 3,
    "hdivdiv_S": lambda k: (k + 1) * (k + 2) * (k + 3),
    "h1_vec3": lambda k: (k + 3) * (k + 4) * (k + 5) // 2,
    "dg_scalar": lambda k: (k - 1) * k * (k + 1) // 6,
}


def random_cells(dim: int, count: int, seed: int) -> list[Simplex]:
    """Random positively oriented affine images of the reference cell."""
    rng = np.random.default_rng(seed)
    ref = poly.reference_cell("triangle" if dim == 2 else "tet").vertices
    out = []
    while len(out) < count:
        A = np.eye(dim) + 0.35 * rng.uniform(-1, 1, (dim, dim))
        b = rng.uniform(-1, 1, dim)
        verts = ref @ A.T + b
        det = np.linalg.det((verts[1:] - verts[0]).T)
        if det > 0.05:
            out.append(Simplex(verts))
    return out


def element_audit(family: str, k: int, seed: int = 0, n_random: int = 5) -> list[dict]:
    """Unisolvence (DOF count + singular value ratio) on reference and random cells."""
    is2d = family in fe2d.FAMILIES
    build = (lambda s: fe2d.element_2d(family, k, s)) if is2d \
        else (lambda s: fe3d.element_3d(family, k, s))
    checks = []
    expected = _TOTAL_DOFS[family](k)
    cells = [None] + random_cells(2 if is2d else 3, n_random, seed)
    for i, cell in enumerate(cells):
        e = build(cell)
        label = "reference" if i == 0 else f"random {i}"
        ratio = e.sv_ratio()
        checks += [check(f"{family} k={k} #DOFs ({label})", expected, e.ndof, "paper"),
                   check(f"{family} k={k} unisolvent sv-ratio > 1e-9 ({label})", "> 1e-9",
                         float(ratio), "paper", ok=ratio > 1e-9)]
        if i == 0 and not is2d:
            checks.append(check(f"{family} attachment tallies", "-",
                                str(fe3d.dof_counts(e)), "paper", ok=True))
    return checks


def _fail_io(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _emit(report: Report, args) -> int:
    print(report.table())
    if getattr(args, "json", None):
        report.to_json(args.json)
    if getattr(args, "csv", None):
        report.to_csv(args.csv)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", help="write the report as JSON (no wall time)")
    common.add_argument("--csv", help="write the report (or run series) as CSV: "
                                      "fixed columns, locale-independent")
    # only the random trials read a seed; elsewhere --seed is an unknown option
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="seed for random trials")
    parser = argparse.ArgumentParser(
        prog="divdivfem",
        description="Audits and Einstein-Bianchi runs for the divdiv-complex elements")
    sub = parser.add_subparsers(dest="cmd", required=True)

    audit = sub.add_parser("audit", help="algebraic audits")
    asub = audit.add_subparsers(dest="what", required=True)
    p = asub.add_parser("poly", parents=[common], help="polynomial complex exactness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p.add_argument("--exact", action="store_true",
                   help="also certify 3-D ranks by exact rational elimination")
    p = asub.add_parser("element", parents=[seeded], help="unisolvence of one family")
    p.add_argument("--family", required=True, choices=sorted(_TOTAL_DOFS))
    p.add_argument("--k", type=int, required=True)
    p = asub.add_parser("lemmas", parents=[seeded],
                        help="trace identities and product identities")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p = asub.add_parser("complex", parents=[common], help="global exactness on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--k", type=int, required=True)
    p = asub.add_parser("bubbles", parents=[common], help="bubble complex rank chains")
    p.add_argument("--k", type=int, required=True)

    eb = sub.add_parser("eb", help="Einstein-Bianchi solver")
    esub = eb.add_subparsers(dest="what", required=True)
    p = esub.add_parser("run", parents=[common], help="time-step a configuration")
    p.add_argument("--config", required=True)
    p = esub.add_parser("convergence", parents=[common],
                        help="manufactured-solution rate study")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--temporal", type=int, default=0,
                   help="extra dt-halving study with this many levels")

    p = sub.add_parser("infsup", parents=[common], help="discrete inf-sup constant")
    p.add_argument("--mesh", required=True)
    p.add_argument("--k", type=int, required=True)

    args = parser.parse_args(argv)
    t0 = time.time()

    try:
        if args.cmd == "audit" and args.what == "poly":
            checks = poly.poly_complex_audit(args.dim, args.k,
                                             exact_certify=args.exact)
            rep = Report("audit poly", {"k": args.k, "dim": args.dim}, checks)
        elif args.cmd == "audit" and args.what == "element":
            checks = element_audit(args.family, args.k, args.seed)
            rep = Report("audit element", {"family": args.family, "k": args.k,
                                           "seed": args.seed}, checks)
        elif args.cmd == "audit" and args.what == "lemmas":
            checks = fe3d.trace_identity_audit(args.k, args.trials, args.seed)
            checks += tc.product_identity_audit(args.trials, args.seed)
            checks.append(check("edge DOF span invariant under frame rotation", True,
                                bool(fe3d.frame_rotation_span_check(args.k, args.seed)),
                                "paper"))
            rep = Report("audit lemmas", {"k": args.k, "trials": args.trials,
                                          "seed": args.seed}, checks)
        elif args.cmd == "audit" and args.what == "complex":
            from .complex_asm import complex_audit
            m = mesh.load(args.mesh)
            checks = complex_audit(m, args.k)
            rep = Report("audit complex", {"mesh": args.mesh, "k": args.k}, checks)
        elif args.cmd == "audit" and args.what == "bubbles":
            checks = fe2d.bubble_audit_2d(args.k) + fe3d.bubble_audit_3d(args.k)
            rep = Report("audit bubbles", {"k": args.k}, checks)
        elif args.cmd == "eb" and args.what == "run":
            cfg = eb_solver.EBConfig.from_file(args.config)
            m = mesh.load(cfg.mesh)
            system = eb_solver.EBSystem(m, cfg.k)
            the_mms = mms.make_mms(cfg.mms, cfg.k) if cfg.mms != "none" else None
            rec, y, driver = eb_solver.run(system, cfg, the_mms)
            checks = [check("run completed", cfg.nsteps, len(rec.t) - 1, "derived"),
                      check("space dimensions (sigma, E, B)", "-",
                            [system.nq, system.nE, system.nB], "derived", ok=True)]
            if driver is None:
                e0 = rec.energy[0]
                drift = max(abs(e - e0) for e in rec.energy) / max(e0, 1e-300)
                checks.append(check("energy drift (zero forcing)", "<= 1e-8", float(drift),
                                    "derived", ok=drift <= 1e-8))
            else:
                errs = [float(e) for e in driver.pointwise_errors(y, rec.t[-1])]
                checks.append(check("final L2 errors finite", "finite", errs, "derived",
                                    ok=np.isfinite(errs).all()))
            rep = Report("eb run", {"config": args.config, **cfg.__dict__}, checks)
            if args.csv:
                write_run_csv(args.csv, rec)
                args.csv = None
        elif args.cmd == "eb" and args.what == "convergence":
            if args.levels < 1:
                return _fail_io("--levels must be >= 1")
            if args.temporal < 0 or args.temporal == 1:
                return _fail_io("--temporal must be 0 (no study) or >= 2: "
                                "an order needs two levels")
            cfg = eb_solver.EBConfig.from_file(args.config)
            if cfg.mms == "poly":
                return _fail_io("mms = poly lies in the discrete spaces: its errors "
                                "are rounding and show no spatial order; use trig")
            mref = mesh._BUILTIN_RE.match(cfg.mesh)
            if not mref:
                return _fail_io("convergence study needs a kuhn_cube(n) base mesh")
            n0 = int(mref.group(1))
            specs = [f"kuhn_cube({n0 * 2**i})" for i in range(args.levels)]
            # the spatial study keeps the base level's system here, and the
            # temporal study reuses it; every finer level is dropped after its run
            systems: dict = {}
            rows = eb_solver.mms_convergence(
                specs, cfg.k, lambda: mms.make_mms(
                    "trig" if cfg.mms == "none" else cfg.mms, cfg.k),
                t_final=cfg.t_final,
                dt_for_level=lambda lvl: cfg.dt / 4**lvl, systems=systems)
            checks = [check(f"errors on {r['mesh']}", "finite",
                            [r["err_sigma"], r["err_E"], r["err_B"]], "derived",
                            ok=np.isfinite(r["err_total"])) for r in rows]
            if len(rows) >= 2 and "order" in rows[-1]:
                order = rows[-1]["order"]
                checks.append(check("observed spatial order", f"{cfg.k - 1} +/- 0.3",
                                    float(order), "paper",
                                    ok=cfg.k - 1 - 0.3 <= order <= cfg.k - 1 + 0.3))
            if args.temporal:
                dts = [cfg.dt / 2**i for i in range(args.temporal)]
                trows = eb_solver.temporal_convergence(
                    specs[0], cfg.k, lambda: mms.poly_mms(cfg.k, time_degree=3),
                    t_final=cfg.t_final, dts=dts, systems=systems)
                if len(trows) >= 2 and "order" in trows[-1]:
                    order = trows[-1]["order"]
                    checks.append(check("observed temporal order", "2 +/- 0.2", float(order),
                                        "paper", ok=1.8 <= order <= 2.2))
            rep = Report("eb convergence", {"config": args.config,
                                            "levels": args.levels,
                                            "temporal": args.temporal}, checks)
        elif args.cmd == "infsup":
            m = mesh.load(args.mesh)
            system = eb_solver.EBSystem(m, args.k)
            beta = eb_solver.infsup_estimate(system)
            checks = [check("inf-sup constant positive", "> 0", float(beta), "paper",
                            ok=beta > 0)]
            rep = Report("infsup", {"mesh": args.mesh, "k": args.k}, checks)
        else:  # pragma: no cover
            return _fail_io("unknown command")
    except (OSError, ValueError) as exc:
        return _fail_io(str(exc))
    except RuntimeError as exc:
        # a solve check failed (projection or CN residual, inf-sup backward
        # error): the inputs were valid, the computation was not accurate
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rep.wall_time_s = time.time() - t0
    return _emit(rep, args)


if __name__ == "__main__":
    sys.exit(main())
