"""The three benchmark workloads: one repetition each, with its correctness gates.

Each workload calls the package's public functions the way the CLI does
(`eb convergence`, `eb run`, `audit complex`, `audit poly`, `infsup`) and
evaluates its gates.  Every gate is one operation.  A workload returns the
raw figures behind its metrics: the steps it took and the seconds they took,
and its accuracy figure `err_l2`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from divdivfem import complex_asm, eb_solver, mesh, mms, poly

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULTS = {
    "mms_convergence": {
        "meshes": ["kuhn_cube(1)", "kuhn_cube(2)"], "k": 3, "t_final": 0.4,
        "dt": 0.05,
        # final-time sigma+E+B L2 error on the finest mesh, recorded at the
        # commit that introduced this benchmark
        "err_ref": 0.06913809564609817, "err_rtol": 1e-6,
        "order": 2.0, "order_tol": 0.3,
    },
    "energy_stepping": {
        # short repetitions, so that a run takes the median of several
        "mesh": "kuhn_cube(1)", "k": 3, "dt": 0.01, "steps": 500,
        "drift_tol": 1e-8,
    },
    "exactness_audit": {
        "meshes": ["kuhn_cube(1)", "kuhn_cube(2)"], "k": 3,
        "ker_ref": {"kuhn_cube(1)": 456},
        "poly_k": 3, "poly_ranks": [164, 116, 4],
        "infsup_mesh": "kuhn_cube(1)",
        "beta_ref": 0.6180365770479402, "beta_tol": 1e-10,
    },
}


def gate_names(workload: str, p: dict) -> list[str]:
    if workload == "mms_convergence":
        return ["observed spatial order", "err_l2 matches recorded value"]
    if workload == "energy_stepping":
        return ["step count as configured", "energy drift within tolerance"]
    names = ["inf-sup matches dense reference", "inf-sup above (sqrt5-1)/2"]
    names += [f"complex_audit rows pass on {spec}" for spec in p["meshes"]]
    names += [f"ker divdiv = rank symcurl = {ref} on {spec}"
              for spec, ref in p["ker_ref"].items()]
    return names + ["poly audit ranks " + "/".join(map(str, p["poly_ranks"]))]


class Gates:
    """Named correctness gates, declared up front so that none can go missing."""

    def __init__(self, names):
        self.results = {name: None for name in names}

    def check(self, name, ok, detail=""):
        if name not in self.results:
            raise KeyError(f"undeclared gate {name!r}")
        self.results[name] = {"pass": bool(ok), "detail": str(detail)}

    def fail_pending(self, reason):
        for name, res in self.results.items():
            if res is None:
                self.results[name] = {"pass": False, "detail": reason}

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results.values() if r is None or not r["pass"])


class SetupClock:
    """Accumulates the time spent in set-up: mesh.load and EBSystem(...)."""

    def __init__(self):
        self.seconds = 0.0

    def mesh(self, spec):
        t = time.perf_counter()
        m = mesh.load(spec)
        self.seconds += time.perf_counter() - t
        return m

    def system(self, spec, k):
        m = self.mesh(spec)
        t = time.perf_counter()
        sys = eb_solver.EBSystem(m, k)
        self.seconds += time.perf_counter() - t
        return sys


def seconds_in_run(spans) -> float:
    """Time inside eb_solver.run (which never calls itself), from its spans."""
    return sum(s[2] - s[1] for s in spans if s[0] == "eb_solver.run")


def mms_convergence(p, seed, spans, gates, clock):
    systems = {(spec, p["k"]): clock.system(spec, p["k"]) for spec in p["meshes"]}
    rows = eb_solver.mms_convergence(
        p["meshes"], p["k"], mms.trig_mms, t_final=p["t_final"],
        dt_for_level=lambda lvl: p["dt"] / 4 ** lvl, seed=seed, systems=systems)
    order = rows[-1].get("order", float("nan"))
    err = rows[-1]["err_total"]
    gates.check("observed spatial order", abs(order - p["order"]) <= p["order_tol"],
                f"{order:.4f}")
    gates.check("err_l2 matches recorded value",
                abs(err - p["err_ref"]) <= p["err_rtol"] * p["err_ref"], repr(float(err)))
    steps = sum(round(p["t_final"] / r["dt"]) for r in rows)
    return {"steps": steps, "step_s": seconds_in_run(spans), "err_l2": err}


def energy_stepping(p, seed, spans, gates, clock):
    sys = clock.system(p["mesh"], p["k"])
    cfg = eb_solver.EBConfig(mesh=p["mesh"], k=p["k"], t_final=p["steps"] * p["dt"],
                             dt=p["dt"], init="random", seed=seed)
    rec, _, _ = eb_solver.run(sys, cfg)
    en = np.array(rec.energy)
    drift = float(np.abs(en - en[0]).max() / en[0])
    gates.check("step count as configured", len(rec.t) - 1 == p["steps"], len(rec.t) - 1)
    gates.check("energy drift within tolerance", drift <= p["drift_tol"], f"{drift:.3e}")
    # no manufactured solution here: a fixed stand-in keeps the metric set whole
    return {"steps": p["steps"], "step_s": seconds_in_run(spans), "err_l2": 1.0}


def exactness_audit(p, seed, spans, gates, clock):
    # inf-sup first, so that its set-up runs as cold as in a set-up-only repetition
    sys = clock.system(p["infsup_mesh"], p["k"])
    t = time.perf_counter()
    beta = eb_solver.infsup_estimate(sys)
    audit_s = time.perf_counter() - t
    nrows = 1
    gates.check("inf-sup matches dense reference",
                abs(beta - p["beta_ref"]) <= p["beta_tol"], repr(beta))
    gates.check("inf-sup above (sqrt5-1)/2", beta > GOLDEN, repr(beta))
    for spec in p["meshes"]:
        m = clock.mesh(spec)
        t = time.perf_counter()
        rows = complex_asm.complex_audit(m, p["k"])
        audit_s += time.perf_counter() - t
        nrows += len(rows)
        gates.check(f"complex_audit rows pass on {spec}", all(r["pass"] for r in rows),
                    [r["name"] for r in rows if not r["pass"]])
        if spec in p["ker_ref"]:
            named = {r["name"]: r["computed"] for r in rows}
            ker = named["ker divdiv matches proof formula"]
            rank = named["rank symcurl matches proof formula"]
            ref = p["ker_ref"][spec]
            gates.check(f"ker divdiv = rank symcurl = {ref} on {spec}",
                        ker == ref and rank == ref, f"{ker}/{rank}")
    t = time.perf_counter()
    rows = poly.poly_complex_audit(3, p["poly_k"], exact_certify=True)
    audit_s += time.perf_counter() - t
    nrows += len(rows)
    named = {r["name"]: r["computed"] for r in rows}
    ranks = [named["rank devgrad"], named["rank symcurl"], named["rank divdiv"]]
    gates.check("poly audit ranks " + "/".join(map(str, p["poly_ranks"])),
                all(r["pass"] for r in rows) and ranks == p["poly_ranks"], ranks)
    # no time stepping here: a step is one reported audit row; no manufactured
    # solution either: the inf-sup constant's distance above its mesh-independent
    # limit stands in as the discretisation's accuracy figure
    return {"steps": nrows, "step_s": audit_s, "err_l2": beta - GOLDEN}


def setup_only(workload, p, clock):
    """The workload's set-up calls alone, in the order the workload makes them."""
    if workload == "exactness_audit":
        clock.system(p["infsup_mesh"], p["k"])
        for spec in p["meshes"]:
            clock.mesh(spec)
    elif workload == "energy_stepping":
        clock.system(p["mesh"], p["k"])
    else:
        for spec in p["meshes"]:
            clock.system(spec, p["k"])


WORKLOADS = {
    "mms_convergence": mms_convergence,
    "energy_stepping": energy_stepping,
    "exactness_audit": exactness_audit,
}
