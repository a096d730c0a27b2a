import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divdivfem
from divdivfem import eb_solver
from divdivfem.cli import main


def test_audit_poly_exit_zero(capsys):
    assert main(["audit", "poly", "--k", "3", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def _run_from_source(argv, **env):
    """`python -m divdivfem argv` in a subprocess with the package's parent
    directory first on PYTHONPATH and env added to the environment."""
    src = str(Path(divdivfem.__file__).resolve().parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "divdivfem", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def test_python_dash_m_runs_the_cli_from_the_source_tree():
    """`python -m divdivfem` runs the CLI with only the package's parent
    directory on PYTHONPATH, as from a checkout without an install."""
    assert "0 failures" in _run_from_source(["audit", "poly", "--dim", "3", "--k", "3"]).stdout


_RUN_CONFIG = "mesh = kuhn_cube(2)\nk = 3\nt_final = 0.1\ndt = 0.025\ninit = mms\nmms = trig\n"


@pytest.mark.parametrize("argv", [
    ["audit", "complex", "--mesh", "kuhn_cube(1)", "--k", "3"],
    ["infsup", "--mesh", "kuhn_cube(1)", "--k", "3"],
    ["audit", "poly", "--dim", "3", "--k", "3", "--exact"],
    ["eb", "run", "--config", "run.cfg"],
    ["audit", "element", "--family", "hsymcurl_T", "--k", "3"],
    ["audit", "element", "--family", "hdivdiv_S", "--k", "3"],
], ids=["audit-complex", "infsup", "audit-poly-exact", "eb-run", "audit-element-hsymcurl_T",
        "audit-element-hdivdiv_S"])
def test_json_reports_independent_of_blas_threads(tmp_path, argv):
    """The audits and the inf-sup estimate cap numpy's and scipy's OpenBLAS
    at one thread, and so do the element constructors, so their reports are
    the same at any OPENBLAS_NUM_THREADS (uncapped, 2 threads moved audit
    complex's composition residual rows in the last digits, eb run's final E
    and B errors by 3e-13 and 4e-12 relative, and audit element's sv-ratio
    rows of hsymcurl_T and hdivdiv_S in the last digits).  The CN factor and
    step are bitwise the same at 1 and 2 threads already."""
    (tmp_path / "run.cfg").write_text(_RUN_CONFIG)
    argv = [str(tmp_path / a) if a == "run.cfg" else a for a in argv]
    for threads in ("1", "2"):
        _run_from_source(argv + ["--json", str(tmp_path / f"{threads}.json")],
                         OPENBLAS_NUM_THREADS=threads)
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


def test_audit_poly_exact_in_2d_exit_two(capsys):
    """--exact certifies the 3-D complex only; in 2-D it is refused, not ignored."""
    assert main(["audit", "poly", "--k", "3", "--dim", "2", "--exact"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "3-D" in captured.err
    assert captured.out == ""


def test_audit_element_reports_counts(capsys):
    assert main(["audit", "element", "--family", "hrotrot_s2", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "45" in out


def test_audit_complex_single_tet(capsys):
    assert main(["audit", "complex", "--mesh", "single_tet", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "164" in out and "116" in out


@pytest.mark.parametrize("argv", [
    ["audit", "lemmas", "--k", "3", "--trials", "3"],
    ["infsup", "--mesh", "single_tet", "--k", "3"],
    ["audit", "bubbles", "--k", "3"],
    ["audit", "poly", "--dim", "3", "--k", "3", "--exact"],
], ids=["audit-lemmas", "infsup", "audit-bubbles", "audit-poly-exact"])
def test_json_reports_byte_identical(tmp_path, argv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert all("source" in c for c in payload["checks"])
    assert "wall_time" not in a.read_text()


def test_audit_poly_exact_k4_json(tmp_path):
    out = tmp_path / "poly.json"
    assert main(["audit", "poly", "--dim", "3", "--k", "4", "--exact",
                 "--json", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert [checks[f"rank {op} (exact Q)"]["computed"]
            for op in ("devgrad", "symcurl", "divdiv")] == [248, 200, 10]
    assert all(c["pass"] for c in checks.values())


def test_csv_report(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["audit", "poly", "--k", "3", "--dim", "3",
                 "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,expected,computed,source,pass"


def test_eb_run_zero_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh = two_tets\nk = 3\nt_final = 0.1\ndt = 0.05\ninit = zero\n")
    csv_out = tmp_path / "series.csv"
    assert main(["eb", "run", "--config", str(cfg), "--csv", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "t,energy,err_sigma,err_E,err_B"
    assert len(lines) == 4  # header + 3 states
    assert all(row.split(",")[1] == "0.0" for row in lines[1:])


def test_io_error_exit_two(capsys):
    assert main(["eb", "run", "--config", "/does/not/exist.cfg"]) == 2
    assert main(["audit", "complex", "--mesh", "/does/not/exist.mesh",
                 "--k", "3"]) == 2


def test_mesh_file_with_surplus_lines_exit_two(tmp_path, capsys):
    path = tmp_path / "surplus.mesh"
    path.write_text("tetmesh 4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "0 1 2 3\n0 1 3 2\n9 9 9 9\n")
    assert main(["audit", "complex", "--mesh", str(path), "--k", "3"]) == 2
    assert "beyond" in capsys.readouterr().err


def test_bad_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mesh = two_tets\ndt = 0.3\nt_final = 1.0\n")
    assert main(["eb", "run", "--config", str(cfg)]) == 2
    cfg.write_text("mesh = two_tets\ndt = 0.05\nt_final = 0.1\ndt = 0.025\n")
    assert main(["eb", "run", "--config", str(cfg)]) == 2
    assert "repeated config key 'dt'" in capsys.readouterr().err


def test_eb_run_rejects_bad_config_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("forcing = yes", "t_final = -0.5", "k = 2", "solver_tol = 0"):
        cfg.write_text(f"mesh = two_tets\ndt = 0.05\n{line}\n")
        assert main(["eb", "run", "--config", str(cfg)]) == 2, line


def test_eb_run_step_count_overflow_exit_two(tmp_path, capsys):
    """t_final / dt overflows to inf although both are finite and positive."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("mesh = two_tets\nt_final = 1e300\ndt = 1e-300\n")
    assert main(["eb", "run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    "tetmesh 4 2\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 1 2 3\n0 1 2 3\n",
    "tetmesh 5 2\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0.2 0.2 0.2\n0 1 2 3\n0 1 2 4\n",
], ids=["repeated-cell", "folded-cell"])
def test_mesh_with_cells_on_one_side_of_a_face_exit_two(tmp_path, capsys, text):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    assert main(["infsup", "--mesh", str(path), "--k", "3"]) == 2
    assert "both cells on one side" in capsys.readouterr().err


def test_infsup_command(capsys):
    assert main(["infsup", "--mesh", "single_tet", "--k", "3"]) == 0
    assert "inf-sup" in capsys.readouterr().out


def test_failed_solve_check_exits_one_without_traceback(capsys, monkeypatch):
    def failing(system):
        raise RuntimeError("inf-sup: backward error 1.000e-06 of the mass solves > 1e-12")

    monkeypatch.setattr(eb_solver, "infsup_estimate", failing)
    assert main(["infsup", "--mesh", "single_tet", "--k", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inf-sup: backward error")
    assert "Traceback" not in err


def test_eb_convergence_without_mms_line_uses_trig(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("mesh = kuhn_cube(1)\nk = 3\nt_final = 0.1\ndt = 0.05\n")
    assert main(["eb", "convergence", "--config", str(cfg), "--levels", "1"]) == 0
    assert "errors on kuhn_cube(1)" in capsys.readouterr().out


def test_eb_run_poly_mms_csv_errors_at_solver_precision(tmp_path):
    """The per-step error columns of a space-exact run are direct quadrature."""
    cfg = tmp_path / "poly.cfg"
    cfg.write_text("mesh = kuhn_cube(1)\nk = 3\nt_final = 0.5\ndt = 0.125\n"
                   "init = mms\nmms = poly\n")
    csv_out = tmp_path / "series.csv"
    assert main(["eb", "run", "--config", str(cfg), "--csv", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "t,energy,err_sigma,err_E,err_B"
    assert len(lines) == 6  # header + 5 states
    for row in lines[1:]:
        errs = [float(x) for x in row.split(",")[2:]]
        assert len(errs) == 3 and max(errs) <= 1e-8, row


@pytest.mark.parametrize("flag, value", [
    ("--levels", "0"), ("--levels", "-1"), ("--temporal", "1"), ("--temporal", "-2"),
])
def test_convergence_rejects_bad_level_counts(tmp_path, capsys, flag, value):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("mesh = kuhn_cube(1)\nt_final = 0.1\ndt = 0.05\n")
    assert main(["eb", "convergence", "--config", str(cfg), flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_convergence_rejects_poly_mms_before_assembly(tmp_path, capsys, monkeypatch):
    """The poly solution lies in the discrete spaces: no spatial order to observe."""
    def no_system(*args, **kwargs):
        raise AssertionError("a system was assembled")

    monkeypatch.setattr(eb_solver, "EBSystem", no_system)
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("mesh = kuhn_cube(1)\nt_final = 0.1\ndt = 0.05\nmms = poly\n")
    assert main(["eb", "convergence", "--config", str(cfg)]) == 2
    assert "poly" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eb", "convergence", "--config", "{cfg}"],
    ["eb", "run", "--config", "{cfg}"],
    ["audit", "complex", "--mesh", "single_tet", "--k", "3"],
    ["audit", "poly", "--dim", "3", "--k", "3"],
    ["audit", "bubbles", "--k", "3"],
    ["infsup", "--mesh", "single_tet", "--k", "3"],
], ids=["eb-convergence", "eb-run", "audit-complex", "audit-poly", "audit-bubbles",
        "infsup"])
@pytest.mark.parametrize("seed", ["3", "-1"])
def test_unread_seed_rejected_with_exit_two(tmp_path, capsys, monkeypatch, argv, seed):
    """A subcommand that never reads a seed rejects an explicit --seed (exit 2)
    before any assembly, instead of ignoring it."""
    def no_system(*args, **kwargs):
        raise AssertionError("a system was assembled")

    monkeypatch.setattr(eb_solver, "EBSystem", no_system)
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("mesh = kuhn_cube(1)\nt_final = 0.1\ndt = 0.05\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg) for a in argv] + ["--seed", seed])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["audit", "element", "--family", "hdivdiv_S", "--k", "3"],
    ["audit", "lemmas", "--k", "3", "--trials", "3"],
], ids=["audit-element", "audit-lemmas"])
def test_seeded_audits_read_their_seed(tmp_path, argv):
    """The random trials take --seed: the default is 0, and it is reported."""
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--seed", "0", "--json", str(b)]) == 0
    assert main(argv + ["--seed", "5", "--json", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(c.read_text())["inputs"]["seed"] == 5


def test_convergence_builds_the_base_system_once(tmp_path, capsys, monkeypatch):
    """The spatial and the temporal study share the base level's system."""
    built = []
    init = eb_solver.EBSystem.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(eb_solver.EBSystem, "__init__", counting)
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("mesh = kuhn_cube(1)\nk = 3\nt_final = 0.1\ndt = 0.05\n")
    assert main(["eb", "convergence", "--config", str(cfg),
                 "--levels", "1", "--temporal", "2"]) == 0
    assert "observed temporal order" in capsys.readouterr().out
    assert len(built) == 1
