"""Smoke test of the benchmark itself, on a few CN steps on kuhn_cube(1).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q

Repetitions run in this process through `worker.repetition`, with a small step
count; `run.main` is tested with its child-process launcher replaced by them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"steps": 5}


def in_process(params):
    """A stand-in for run.run_child that runs the repetition here, on `params`."""
    def run_child(spec, env, timeout):
        return json.loads(json.dumps(worker.repetition(
            spec["workload"], spec["seed"], bool(spec["trace"]), params,
            bool(spec.get("setup_only")))))
    return run_child


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def go(trace, params=TINY):
        monkeypatch.setattr(run, "run_child", in_process(params))
        code = run.main(["--workload", "energy_stepping", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return go


def check_metrics(out, declared):
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_end_to_end_metrics_print_with_units(bench):
    out = bench(0)
    check_metrics(out, BENCHMARK["end_to_end"])
    assert out["correct"] is True and out["attempted"] == 2 and out["failed"] == 0
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_metrics_and_spans_nest(bench, tmp_path):
    out = bench(1)
    check_metrics(out, BENCHMARK["per_layer"])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["eb_solver.splu.calls"] == 1
    assert m["eb_solver.EBSystem.cn_step.calls"] == TINY["steps"]
    assert m["eb_solver.EBSystem.cn_factorization.hit_ratio"] == (TINY["steps"] - 1) / TINY["steps"]
    assert m["eb_solver.EBSystem.cn_step.solve_flop"] == 2 * TINY["steps"] * m["eb_solver.splu.lu_nnz"]
    dump = json.loads((tmp_path / "spans-energy_stepping-seed3.json").read_text())
    spans = dump["spans"]
    assert spans and {s[4] for s in spans} == {1}   # repetition 1 is the traced one
    for i, (name, start, end, parent, rep) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i and spans[parent][1] <= start and end <= spans[parent][2]
    assert min(tracing.self_times(spans)) >= 0.0


def test_forced_gate_failure_counts_as_failed_operation(bench):
    res = worker.repetition("energy_stepping", 3, False, {**TINY, "drift_tol": -1.0})
    assert res["failed"] == 1 and not res["gates"]["energy drift within tolerance"]["pass"]
    out = bench(0, params={**TINY, "drift_tol": -1.0})
    assert out["correct"] is False and out["attempted"] == 2 and out["failed"] == 1


def test_solve_error_fails_every_pending_gate():
    gates = workloads.Gates(workloads.gate_names("energy_stepping", {}))
    gates.check("step count as configured", True)
    gates.fail_pending("solve raised: CN solve residual")
    assert gates.failed == 1


def test_tracer_restores_what_it_wrapped():
    from divdivfem import complex_asm, eb_solver, quadrature

    before = (complex_asm.build_element, eb_solver.spla.splu, vars(quadrature.QuadRule)["on"],
              vars(eb_solver.EBSystem)["__init__"])
    tracer = tracing.Tracer().install()
    assert eb_solver.spla.splu is not before[1]
    tracer.uninstall()
    after = (complex_asm.build_element, eb_solver.spla.splu, vars(quadrature.QuadRule)["on"],
             vars(eb_solver.EBSystem)["__init__"])
    assert after == before


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "energy_stepping",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip()
