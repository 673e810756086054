"""Command line behavior: formats, determinism, exit codes."""

import json
import pathlib
import shlex

import pytest

from hexacarpet import SubdivisionComplex, analysis, network
from hexacarpet.analysis import LevelCache
from hexacarpet.cli import build_parser, main
from hexacarpet.network import SolverError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_edgelist_line_count(capsys):
    code, out = run(
        capsys, "build", "--family", "hexacarpet", "--level", "2",
        "--format", "edgelist",
    )
    assert code == 0
    lines = out.strip().split("\n")
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 108


def test_build_dual_dot_six_cycle(capsys):
    code, out = run(
        capsys, "build", "--family", "dual", "--level", "1", "--format", "dot"
    )
    assert code == 0
    assert out.count(" -- ") == 6


def test_build_json_schema(capsys):
    code, out = run(
        capsys, "build", "--family", "skeleton", "--level", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["level", "vertices", "edges", "triangles",
                         "barycenters"]
    assert doc["level"] == 1
    assert len(doc["vertices"]) == 7
    assert len(doc["barycenters"]["edges"]) == 12


def test_resistance_json(capsys):
    code, out = run(
        capsys, "resistance", "--family", "hexacarpet", "--level", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["resistance"] - 1.5) < 1e-9
    assert doc["manifest"]["tool"] == "hexacarpet"
    # building the graph and solving are timed apart
    timings = doc["manifest"]["timings"]
    assert list(timings) == ["build_s", "solve_s"]
    assert min(timings.values()) >= 0
    assert doc["manifest"]["peak_rss_mb"] > 0


def test_resistance_json_reports_solver(capsys):
    code, out = run(
        capsys, "resistance", "--family", "skeleton", "--level", "3"
    )
    assert code == 0
    solver = json.loads(out)["manifest"]["solver"]
    # 111 interior vertices, a quarter of them up to the pinned ones
    assert solver == {
        "method": "direct", "unknowns": 27, "group_order": 4,
        "factor_fill": solver["factor_fill"],
    }
    assert solver["factor_fill"] >= 27


def test_resistance_csv(capsys):
    code, out = run(
        capsys, "resistance", "--family", "skeleton", "--level", "2",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "family,level,resistance,disconnected,iterations"
    fields = row.split(",")
    assert abs(float(fields[2]) - 0.50383351588170855) < 1e-9


def test_duality_passes(capsys):
    code, out = run(capsys, "duality", "--max-level", "2")
    assert code == 0
    assert out.startswith("n,R_n,R_n_T,product,ok")


def test_rho_csv_deterministic(capsys):
    code1, out1 = run(capsys, "rho", "--max-level", "2")
    code2, out2 = run(capsys, "rho", "--max-level", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_rho_json_has_meta(capsys):
    # two levels are too few for a fit, which is then null
    for top in ("2", "3"):
        code, out = run(capsys, "rho", "--max-level", top, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["rho_fit"] is None) == (top == "2")
        assert "d_S_upper_formula" in doc["meta"]
        assert "timings" in doc["manifest"]
        assert doc["manifest"]["peak_rss_mb"] > 0


def test_rho_json_has_the_exit_flux(capsys):
    # the binned exit-flux profiles converge at the rate of the ratios
    # of R
    code, out = run(capsys, "rho", "--max-level", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    flux = doc["flux"]
    assert flux["levels"] == doc["levels"] == [1, 2, 3, 4, 5, 6]
    assert flux["q"] == flux["l1"][5] / flux["l1"][4]
    assert abs(flux["q"] - doc["extrapolation"]["R"]["q"]) <= 5e-3


def test_skeleton_note_names_the_abstracts_ends(capsys):
    # the abstract's d_S^T window [2.28, 2.38] is d_S at rho^T = 4/5 and
    # 3/4, to its two decimals; its stated end 2/3 would give 2.585
    d = analysis.spectral_dimension
    assert (round(d(4 / 5), 2), round(d(3 / 4), 2), round(d(2 / 3), 3)) == (2.28, 2.38, 2.585)
    code, out = run(capsys, "rho", "--max-level", "2", "--format", "json")
    assert code == 0
    note = json.loads(out)["meta"]["skeleton_note"]
    assert "spectral_dimension(3/4)" in note and "spectral_dimension(4/5)" in note
    for rho_T, digits in ((3 / 4, 4), (4 / 5, 4), (2 / 3, 3)):
        assert f"{d(rho_T):.{digits}f}" in note


def test_submult_passes(capsys):
    code, out = run(capsys, "submult", "--max-level", "3")
    assert code == 0
    assert out.split("\n")[0] == (
        "m,n,R_mn,R_m_R_n,upper_ok,lower_ok,t_upper_ok,t_lower_ok"
    )
    assert "true" in out and "false" not in out


def test_bounds_passes(capsys):
    code, out = run(capsys, "bounds", "--max-level", "2")
    assert code == 0
    assert out.split("\n")[0] == (
        "n,strands,R_hat,R_hat_solver,R_tilde,hat_le_pow,R_le_pow,"
        "monotone,ratio_ok"
    )


def test_capacity_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HEXACARPET_CAP", "2")
    code = main(["resistance", "--family", "hexacarpet", "--level", "3"])
    assert code == 3

    # a sweep past the cap is refused before its first solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the cap check")

    monkeypatch.setattr(analysis, "effective_resistance", no_solve)
    for cmd in ("rho", "duality", "submult", "bounds"):
        assert main([cmd, "--max-level", "3"]) == 3


def test_bad_family_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "nope", "--level", "1"])
    assert err.value.code == 2


def test_tol_only_on_checking_sweeps(capsys):
    # rho checks nothing, so it has no slack to set
    with pytest.raises(SystemExit) as err:
        main(["rho", "--max-level", "2", "--tol", "1e-8"])
    assert err.value.code == 2
    # a slack below rounding fails the duality check
    assert main(["duality", "--max-level", "3", "--tol", "1e-20"]) == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_exit_code(tol, capsys, monkeypatch):
    # refused before anything is built
    def build(self, n):
        raise AssertionError("a level was built for a bad --tol")

    monkeypatch.setattr(SubdivisionComplex, "ensure_level", build)
    with pytest.raises(SystemExit) as err:
        main(["duality", "--max-level", "1", "--tol", tol])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--tol" in captured.err


def test_zero_tol_still_runs(capsys):
    # the level-1 product is 1 to within rounding, not exactly
    assert main(["duality", "--max-level", "1", "--tol", "0"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("n,R_n,R_n_T,product,ok\n") and out.endswith(",false\n")


def test_bad_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HEXACARPET_CAP", "abc")
    assert main(["duality", "--max-level", "2"]) == 2
    assert capsys.readouterr().err.startswith("config:")


def test_solver_failure_exit_code(capsys, monkeypatch):
    def fail(self, family, n):
        raise SolverError("terminals lie in different components")

    monkeypatch.setattr(LevelCache, "result", fail)
    assert main(["resistance", "--family", "hexacarpet", "--level", "1"]) == 4
    assert capsys.readouterr().err.startswith("solver:")


@pytest.mark.parametrize("error", [
    RuntimeError("SUPERLU_MALLOC fails for buf in mxCallocInt()"),
    MemoryError(),
])
@pytest.mark.parametrize("argv", [
    ["resistance", "--family", "hexacarpet", "--level", "2"],
    ["rho", "--max-level", "2"],
])
def test_sparse_lu_failure_exit_code(capsys, monkeypatch, error, argv):
    # SuperLU running out of memory is a solver failure: one message
    # line and exit 4, not a traceback
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(network.spla, "splu", fail)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver: sparse LU failed") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readme_commands_parse():
    # every command line the README shows is one the parser accepts
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [l.split("#", 1)[0].strip() for l in block.splitlines()]
    commands = [shlex.split(l)[1:] for l in lines if l.startswith("hexacarpet ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_bad_level_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "dual", "--level", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["duality", "--max-level", "2"],
    ["build", "--family", "dual", "--level", "1"],
])
def test_unwritable_out_exit_code(tmp_path, capsys, monkeypatch, argv):
    # the path is refused before any level is built
    def build(self, n):
        raise AssertionError("a level was built for an unwritable --out")

    monkeypatch.setattr(SubdivisionComplex, "ensure_level", build)
    path = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(path) in err


def test_refused_run_leaves_out_alone(tmp_path, capsys):
    # checking that --out is writable neither leaves a new file behind
    # nor touches an existing one
    fresh, kept = tmp_path / "fresh.edges", tmp_path / "kept.edges"
    kept.write_text("old\n")
    for path in (fresh, kept):
        argv = ["build", "--family", "dual", "--level", "99", "--out", str(path)]
        assert main(argv) == 3
    assert not fresh.exists() and kept.read_text() == "old\n"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "g.edges"
    code = main(
        ["build", "--family", "dual", "--level", "1", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text().count("\n") == 8  # 2 headers + 6 edges
