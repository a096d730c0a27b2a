"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'
where the spec holds "workload", "seed", "trace" (0 or 1) and, optionally,
"setup_only" (run the workload's set-up calls and nothing else).

Prints one JSON line: gate results, wall and set-up time, peak RSS, the
workload's step figures and, when traced, the spans and per-layer metrics.
The parent process sets the BLAS thread caps in the environment before this
process imports numpy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from divdivfem import eb_solver  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def repetition(workload: str, seed: int, trace: bool, params: dict | None = None,
               setup_only: bool = False) -> dict:
    """One repetition; `params` overrides workload defaults (tests use small sizes)."""
    p = {**workloads.DEFAULTS[workload], **(params or {})}
    if setup_only:
        clock = workloads.SetupClock()
        workloads.setup_only(workload, p, clock)
        return {"setup_s": clock.seconds}
    tracer = tracer_for(trace)
    gates = workloads.Gates(workloads.gate_names(workload, p))
    clock = workloads.SetupClock()
    t0 = time.perf_counter()
    try:
        res = workloads.WORKLOADS[workload](p, seed, tracer.spans, gates, clock)
    except RuntimeError as exc:   # a solve whose residual check failed
        gates.fail_pending(f"solve raised: {exc}")
        res = {"steps": 0, "step_s": 1.0, "err_l2": 1.0}
    wall = time.perf_counter() - t0
    tracer.uninstall()
    out = {
        "gates": gates.results,
        "failed": gates.failed,
        "wall_s": wall,
        "setup_s": clock.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_s": res["steps"] / res["step_s"] if res["step_s"] > 0 else 0.0,
        "err_l2": res["err_l2"],
    }
    if trace:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["spans"] = tracer.spans
    return out


def tracer_for(trace: bool) -> tracing.Tracer:
    """Full tracing, or only the one timer steps_per_s needs (eb_solver.run)."""
    tracer = tracing.Tracer()
    if trace:
        return tracer.install()
    tracer.wrap(eb_solver, "run", "eb_solver.run")
    return tracer


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = repetition(spec["workload"], int(spec["seed"]), bool(spec["trace"]),
                        setup_only=bool(spec.get("setup_only")))
    print(json.dumps(result))
