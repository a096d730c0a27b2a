"""divdivfem benchmark: run one workload for a set time and print its metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload mms_convergence --seed 0 --seconds 25 --trace 0

Each repetition runs in a fresh process (perfbench/worker.py), one at a time,
with BLAS threads capped at BLAS_THREADS (at most the number of usable cores).
A repetition starts only while it is expected to end within --seconds, judged
by the longest one so far (at least one; with --trace 1 at least one untraced
and one traced, alternating).  An untraced run then tops set-up up
to SETUP_SAMPLES measurements with set-up-only repetitions.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, medians over
the untraced repetitions; with --trace 1 they are the per-layer ones, medians
over the traced repetitions, and the spans are written to .perfbench_out/.
Exit code 2 means the package source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# every run must end within 180 s; stop starting repetitions well before that
HARD_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "steps_per_s": "1/s", "err_l2": "1"}
# set-up measurements per untraced run, taken from whole repetitions first and
# topped up with set-up-only repetitions; the reported setup_s is their median.
# mms_convergence takes one: three (two 11-15 s set-up-only repetitions more)
# left its spread over ten seeds at 16 %, as with one, since it comes from slow
# drift of the shared machine, and would push 22 runs of each workload past
# the 57 minutes that a full measurement of the benchmark may take
SETUP_SAMPLES = {"mms_convergence": 1, "energy_stepping": 3, "exactness_audit": 3}
WORKLOADS = tuple(SETUP_SAMPLES)
# BLAS threads per workload (None: one per usable core).  energy_stepping is
# sparse matvecs and triangular solves: a second BLAS thread gains it little on
# an idle machine and costs it more whenever another tenant of the shared host
# holds the other core.  The dense QR and SVD of the other two use both cores.
BLAS_THREADS = {"mms_convergence": None, "energy_stepping": 1, "exactness_audit": None}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(spec: dict, env: dict, timeout: float) -> dict | None:
    """One repetition in a fresh process; None if it crashed or ran out of time."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"repetition exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():   # else git would search the directories above
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"commit": commit, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "blas_threads": threads, "src_lines": src_lines}


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "divdivfem" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'divdivfem'}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS[args.workload] or cores, cores)
    env = child_env(threads)
    start = time.perf_counter()
    modes = [0, 1] if args.trace else [0]
    reps, attempted, failed, longest = [], 0, 0, 0.0
    while True:
        mode = modes[len(reps) % len(modes)]
        spec = {"workload": args.workload, "seed": args.seed, "trace": mode}
        t = time.perf_counter()
        res = run_child(spec, env, HARD_LIMIT_S - (t - start))
        longest = max(longest, time.perf_counter() - t)
        if res is None:
            return 1
        res["trace"] = mode
        reps.append(res)
        attempted += len(res["gates"])
        failed += res["failed"]
        print(json.dumps({"rep": len(reps) - 1, "trace": mode, "failed": res["failed"],
                          "wall_s": res["wall_s"], "gates": res["gates"]}))
        elapsed = time.perf_counter() - start
        if len(reps) >= len(modes) and elapsed + longest > min(args.seconds, HARD_LIMIT_S):
            break

    plain = [r for r in reps if r["trace"] == 0]
    setups = [r["setup_s"] for r in plain]
    while not args.trace and len(setups) < SETUP_SAMPLES[args.workload]:
        spec = {"workload": args.workload, "seed": args.seed, "trace": 0,
                "setup_only": True}
        res = run_child(spec, env, HARD_LIMIT_S - (time.perf_counter() - start))
        if res is None:
            return 1
        setups.append(res["setup_s"])
    if args.trace:
        traced = [r for r in reps if r["trace"] == 1]
        values = {name: median([r["layers"][name] for r in traced])
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                      - median([r["wall_s"] for r in plain]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans = [[*s[:4], i] for i, r in enumerate(reps) if r["trace"]
                 for s in r["spans"]]
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rep"],
                       "spans": spans}, fh)
    else:
        values = {name: median([r[name] for r in plain]) for name in END_TO_END}
        values["setup_s"] = median(setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"meta": metadata(threads), "workload": args.workload,
                      "seed": args.seed, "repetitions": len(reps),
                      "setup_samples": None if args.trace else setups}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
