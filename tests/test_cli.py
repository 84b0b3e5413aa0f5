"""End-to-end tests of the command line driver."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import afem2d.cli as cli
from afem2d.adapt import adapt_loop
from afem2d.cli import build_parser, efficiency_table, format_table_csv, main
from afem2d.mesh import read_mesh
from afem2d.problems import lshaped, lshaped_goal

HEADER = "iter,ndof,eta,err,efficiency,nmarked"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_parser_requires_command_and_problem():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--problem", "annulus"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--problem", "lshaped", "--solver", "qr"])


def test_parser_defaults():
    args = build_parser().parse_args(["run", "--problem", "lshaped"])
    assert (args.estimator, args.marking, args.theta) == ("bw:2,1", "dorfler", 0.5)
    assert (args.degree, args.solver, args.out) == (1, "cg", None)
    assert args.max_dof is None and args.max_iter is None and args.tol is None


# ---------------------------------------------------------------------------
# the run subcommand
# ---------------------------------------------------------------------------


def test_run_writes_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = main([
        "run", "--problem", "lshaped", "--max-iter", "2",
        "--solver", "lu", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 4  # header + iterations 0, 1, 2
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 6
        assert int(fields[0]) == i
        assert float(fields[2]) > 0.0  # eta
        assert float(fields[4]) > 0.0  # efficiency


def test_run_writes_to_stdout_by_default(capsys):
    code = main([
        "run", "--problem", "lshaped", "--max-iter", "0", "--solver", "lu",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(HEADER)


def test_run_emit_mesh_roundtrip(tmp_path):
    out = tmp_path / "trace.csv"
    mesh_path = tmp_path / "final.mesh"
    code = main([
        "run", "--problem", "lshaped", "--max-iter", "2", "--solver", "lu",
        "--out", str(out), "--emit-mesh", str(mesh_path),
    ])
    assert code == 0
    mesh = read_mesh(str(mesh_path))
    assert mesh.num_cells > lshaped().mesh.num_cells
    assert abs(mesh.areas.sum() - 3.0) < 1e-12
    # vertex values are appended after the boundary facet block
    lines = mesh_path.read_text().strip().split("\n")
    nbf = len(mesh.boundary_facets())
    assert len(lines) == 1 + 2 * mesh.num_vertices + mesh.num_cells + nbf


def test_run_rejects_bad_estimator(tmp_path, capsys):
    code = main([
        "run", "--problem", "lshaped", "--max-iter", "0",
        "--estimator", "foo", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("afem2d: ")


def test_usage_error_exits_2_before_any_assembly(monkeypatch, capsys):
    import afem2d.adapt as adapt_module

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran before the configuration was checked")

    monkeypatch.setattr(adapt_module, "assemble_poisson", no_assembly)
    code = main(["run", "--problem", "lshaped", "--max-iter", "1",
                 "--estimator", "zz", "--degree", "2"])
    assert code == 2
    assert "degree 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--max-iter", "-3"], ["--max-dof", "0"], ["--max-dof", "-5", "--max-iter", "1"]]
)
def test_run_rejects_bad_stopping_rules_before_any_assembly(monkeypatch, capsys, flags):
    import afem2d.adapt as adapt_module

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran with a bad stopping rule")

    monkeypatch.setattr(adapt_module, "assemble_poisson", no_assembly)
    assert main(["run", "--problem", "lshaped", *flags]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_run_rejects_infinite_alpha_before_any_assembly(monkeypatch, capsys):
    import afem2d.adapt as adapt_module

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran on a problem with alpha = inf")

    monkeypatch.setattr(adapt_module, "assemble_poisson", no_assembly)
    code = main(["run", "--problem", "boundary-sing", "--alpha", "inf", "--max-iter", "1"])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_run_rejects_nan_tolerance(capsys):
    code = main(["run", "--problem", "lshaped", "--tol", "nan", "--max-iter", "1"])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("error", ["SolverError", "LocalSolveError", "NullspaceError"])
def test_runtime_failure_exits_1(monkeypatch, capsys, error):
    import afem2d.adapt as adapt_module
    from afem2d import bank_weiser, fem

    exc = getattr(fem, error, None) or getattr(bank_weiser, error)

    def failing(*args, **kwargs):
        raise exc("simulated failure")

    monkeypatch.setattr(adapt_module, "solve", failing)
    code = main(["run", "--problem", "lshaped", "--max-iter", "1"])
    assert code == 1
    assert capsys.readouterr().err == "afem2d: simulated failure\n"


def test_run_is_deterministic(tmp_path):
    args = ["run", "--problem", "lshaped", "--max-iter", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_goal_run_uses_reference_cache(tmp_path):
    out = tmp_path / "goal.csv"
    cache = tmp_path / "goal.csv.jref"
    # pre-seed the cache so the driver skips the expensive reference solve
    cache.write_text(
        "lshaped-goal fe degree=1 refinements=4 eps=0.35 xbar=0.2 ybar=0.2\n0.201\n"
    )
    code = main([
        "run", "--problem", "lshaped-goal", "--max-iter", "1",
        "--solver", "lu", "--out", str(out),
    ])
    assert code == 0
    assert cache.read_text().splitlines()[1] == "0.201"
    lines = out.read_text().strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 3
    # recorded errors are relative to the seeded reference value
    first_err = float(lines[1].split(",")[3])
    assert 0.0 < first_err < 0.201


def test_goal_run_emits_primal_mesh(tmp_path):
    out = tmp_path / "goal.csv"
    mesh_path = tmp_path / "goal.mesh"
    (tmp_path / "goal.csv.jref").write_text(
        "lshaped-goal fe degree=1 refinements=4 eps=0.35 xbar=0.2 ybar=0.2\n0.201\n"
    )
    code = main([
        "run", "--problem", "lshaped-goal", "--max-iter", "1", "--solver", "lu",
        "--out", str(out), "--emit-mesh", str(mesh_path),
    ])
    assert code == 0
    mesh = read_mesh(str(mesh_path))
    assert mesh.num_cells > lshaped_goal().mesh.num_cells
    assert abs(mesh.areas.sum() - 3.0) < 1e-12
    lines = mesh_path.read_text().strip().split("\n")
    nbf = len(mesh.boundary_facets())
    values = np.array(lines[1 + mesh.num_vertices + mesh.num_cells + nbf:], dtype=float)
    assert values.shape == (mesh.num_vertices,)
    assert np.all(np.isfinite(values)) and np.any(values != 0.0)


# ---------------------------------------------------------------------------
# the table subcommand
# ---------------------------------------------------------------------------


def test_table_smoke(tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "table", "--problem", "lshaped", "--max-dof", "300", "--solver", "lu",
        "--estimator", "bw:2,1", "--estimator", "res", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kplus,kminus,efficiency"
    assert lines[1].startswith("2,1,")
    assert lines[2].startswith("res,,")
    assert float(lines[1].rsplit(",", 1)[1]) > 0.0
    assert float(lines[2].rsplit(",", 1)[1]) > 0.0


def test_table_strips_padded_selectors(tmp_path):
    """A selector with surrounding blanks labels its row like the bare one,
    so every row keeps the header's three fields."""
    out = tmp_path / "table.csv"
    code = main([
        "table", "--problem", "lshaped", "--max-dof", "300", "--solver", "lu",
        "--estimator", " bw:2,1", "--estimator", "zz ", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert [line.count(",") for line in lines] == [2, 2, 2]
    assert lines[1].startswith("2,1,")
    assert lines[2].startswith("zz,,")


def test_format_table_csv_labels():
    rows = [("bw:4,2", 1.5), ("bw:bubble", 2.0), ("res", 3.25), ("zz", 0.5)]
    lines = format_table_csv(rows).strip().split("\n")
    assert lines[0] == "kplus,kminus,efficiency"
    assert lines[1] == "4,2,1.500000000000e+00"
    assert lines[2] == "bubble,,2.000000000000e+00"
    assert lines[3] == "res,,3.250000000000e+00"
    assert lines[4] == "zz,,5.000000000000e-01"


def test_efficiency_table_direct():
    rows = efficiency_table(
        lshaped(), ["bw:2,1", "zz"], max_dofs=200, solver="lu"
    )
    assert [s for s, _ in rows] == ["bw:2,1", "zz"]
    assert all(np.isfinite(e) and e > 0 for _, e in rows)


def _spy_on_runs(monkeypatch, max_iterations=None):
    """Record (estimator, max_dofs, tol, max_iterations, iterations) per run;
    ``max_iterations`` caps the runs actually made."""
    runs = []

    def spy(problem, config, reference=None):
        capped = config
        if max_iterations is not None:
            capped = dataclasses.replace(config, max_iterations=max_iterations)
        result = adapt_loop(problem, capped, reference)
        runs.append((config.estimator, config.max_dofs, config.tol,
                     config.max_iterations, len(result.trace.rows)))
        return result

    monkeypatch.setattr(cli, "adapt_loop", spy)
    return runs


def test_table_honours_stopping_flags(monkeypatch, tmp_path):
    runs = _spy_on_runs(monkeypatch)
    code = main([
        "table", "--problem", "lshaped", "--max-iter", "1", "--solver", "lu",
        "--estimator", "bw:2,1", "--estimator", "res", "--estimator", "zz",
        "--out", str(tmp_path / "table.csv"),
    ])
    assert code == 0
    assert runs == [(s, None, None, 1, 2) for s in ("bw:2,1", "res", "zz")]


def test_table_default_budget_only_without_stopping_flags(monkeypatch, tmp_path):
    runs = _spy_on_runs(monkeypatch, max_iterations=0)
    assert main(["table", "--problem", "lshaped", "--solver", "lu",
                 "--estimator", "res", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["table", "--problem", "lshaped", "--solver", "lu", "--tol", "1e9",
                 "--estimator", "res", "--out", str(tmp_path / "b.csv")]) == 0
    assert runs == [("res", 20000, None, None, 1), ("res", None, 1e9, None, 1)]


def test_goal_table_computes_one_reference(monkeypatch):
    calls = []

    def reference(problem, degree=1, **kwargs):
        calls.append((problem.name, degree))
        return 0.201

    import afem2d.adapt as adapt_module

    # the loops must be handed the table's value, not compute their own
    monkeypatch.setattr(adapt_module, "reference_goal_value", reference)
    monkeypatch.setattr(cli, "reference_goal_value", reference)
    rows = efficiency_table(lshaped_goal(), ["bw:2,1", "res"], max_dofs=200, solver="lu")
    assert [s for s, _ in rows] == ["bw:2,1", "res"]
    assert calls == [("lshaped-goal", 1)]


def test_import_loads_no_unused_scipy_modules():
    """``import afem2d`` and the CLI need no scipy.integrate (nor the
    scipy.optimize and scipy.special it pulls in).  A fresh interpreter,
    because this process may already hold them."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, afem2d, afem2d.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
