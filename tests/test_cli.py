"""CLI smoke tests driven through main()."""

import json
import math

import pytest

from fingap.cli import main
from fingap.harness import golden_cases
from fingap.model1d import SolverError, lambda1_model


@pytest.fixture
def case_file(tmp_path):
    case = {
        "id": "cli-interval",
        "domain": {"shape": "interval", "length": 1.0},
        "norm": {"family": "euclidean", "dim": 1},
        "weight": {"kind": "lebesgue"},
        "resolutions": [20, 40],
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    return str(path)


def test_model_eig(capsys):
    assert main(["model-eig", "--K", "0", "--N", "3", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert f"{math.pi**2:.6f}"[:6] in out


def test_model_eig_inf(capsys):
    assert main(["model-eig", "--K", "1", "--N", "inf", "--d", "10"]) == 0
    assert "1.00" in capsys.readouterr().out


def test_model_table(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"K": [0.0, 1.0], "N": [2, "inf"], "d": [1.0, 4.0]}))
    out = tmp_path / "table.csv"
    assert main(["model-table", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "K,N,d,lambda"
    assert len(lines) == 9
    # K=1, N=2, d=4 exceeds the admissible length -> NA
    assert any(line.startswith("1.0,2.0,4.0,NA") for line in lines)


def test_geom(case_file, capsys):
    assert main(["geom", "--spec", case_file]) == 0
    out = capsys.readouterr().out
    assert "nodes: 41" in out
    assert "analytic diameter: 1" in out
    assert "lattice diameter: 1" in out


def test_solve_and_dump(case_file, tmp_path, capsys):
    dump = tmp_path / "u.csv"
    assert main(["solve", "--spec", case_file, "--seed", "1",
                 "--dump-u", str(dump)]) == 0
    out = capsys.readouterr().out
    lam = float(out.splitlines()[0].split("=")[1])
    assert abs(lam - math.pi**2) <= 0.01 * math.pi**2
    header = dump.read_text().splitlines()[0]
    assert header == "x1,u"


def test_verify(case_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["verify", "--spec", case_file, "--out", str(out_dir)]) == 0
    header, row, solves, wall = capsys.readouterr().out.splitlines()
    assert row.split()[0] == "cli-interval"
    assert abs(float(row.split()[2])) < 1e-3  # relative error against pi^2
    # the interval is sharp: its bound is pi^2, and the descent's lambda sits
    # within the error bar below it
    assert row.split()[-1] == "holds_within_tol"
    assert float(row.split()[5]) == 1.0  # the diameter used
    assert [w.split("=")[0] for w in solves.split()] == ["r", "it", "ev", "converged"] * 2
    assert wall.startswith("suite wall time")
    assert (out_dir / "summary.json").exists()


@pytest.mark.parametrize("case, ref", [
    ({"shape": "interval", "length": 1.0,
      "norm": {"family": "two_slope_1d", "dim": 1, "a_plus": 2.0, "a_minus": 0.5}},
     math.pi**2 / 4),
    ({"domain": {"shape": "box", "lengths": [1.0, 1.0]},
      "norm": {"family": "quadratic", "dim": 2, "A": [[1.0, 0.0], [0.0, 4.0]]}},
     math.pi**2 / 4),
], ids=["flat-shape-and-norm", "nested-A"])
def test_verify_closed_form_reads_the_parsed_case(tmp_path, capsys, case, ref):
    # the config reader takes shape keys without a domain block, norm
    # params without a params block and A as rows; the closed form reads
    # what it built
    path = tmp_path / "case.json"
    path.write_text(json.dumps(dict(case, id="c", resolutions=[20, 40])))
    assert main(["verify", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    lam, err = float(row[1]), float(row[2])
    assert err == pytest.approx((lam - ref) / ref, rel=1e-2, abs=1e-6)


def test_suite(tmp_path, capsys):
    cases = {
        "cases": [
            {
                "id": "s1",
                "domain": {"shape": "interval", "length": 1.0},
                "norm": {"family": "euclidean", "dim": 1},
                "weight": {"kind": "lebesgue"},
                "resolutions": [20, 40],
            }
        ]
    }
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(cases))
    out_dir = tmp_path / "out"
    assert main(["suite", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "bounds.csv").exists()
    assert (out_dir / "case-s1.csv").exists()


def test_suite_exits_1_on_a_violation(tmp_path):
    # the golden box beside a twin whose certificate K = 12 is false
    box = next(c for c in golden_cases() if c["id"] == "box-euclid")
    false = dict(box, id="box-euclid-false", certificate={"K": 12.0, "N": "inf"})
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": [box, false]}))
    out_dir = tmp_path / "out"
    assert main(["suite", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert (out_dir / "case-box-euclid.csv").exists()
    assert (out_dir / "case-box-euclid-false.csv").exists()


def bad_norm_case(ident):
    """A case that raises: its Randers drift has b^T A^{-1} b >= 1."""
    return {
        "id": ident,
        "domain": {"shape": "box", "lengths": [1.0, 1.0]},
        "norm": {"family": "randers", "dim": 2,
                 "params": {"A": [1, 0, 0, 1], "b": [1.2, 0.0]}},
        "resolutions": [5, 10],
    }


def test_golden_suite_fails_on_error(tmp_path, monkeypatch, capsys):
    # with no --config, fingap suite runs golden_cases()
    good = next(c for c in golden_cases() if c["id"] == "sharp-1d-twoslope-sym")
    for cases, code in (([good], 0), ([bad_norm_case("bad"), good], 2)):
        monkeypatch.setattr("fingap.cli.golden_cases", lambda: cases)
        assert main(["suite", "--out", str(tmp_path / "out")]) == code
    out = capsys.readouterr().out
    assert "bad                          ERROR: " in out
    # the twoslope interval's closed form is pi^2/4
    row = next(line for line in out.splitlines() if line.startswith("sharp-1d"))
    assert abs(float(row.split()[2])) < 1e-4


@pytest.mark.parametrize("with_violation, max_iter, code", [
    (False, None, 2), (True, None, 1), (False, 3, 2),
], ids=["errored", "violated-and-errored", "inconclusive"])
def test_suite_exit_status(tmp_path, monkeypatch, with_violation, max_iter, code):
    # a violation outranks an error; a descent capped at 3 iterations does
    # not converge, so its case is inconclusive
    from fingap import eigensolver

    box = next(c for c in golden_cases() if c["id"] == "box-euclid")
    box = dict(box, resolutions=[10, 20])
    if max_iter is None:
        cases = [bad_norm_case("bad"), box]
    else:
        monkeypatch.setattr(eigensolver, "_MAX_ITER", max_iter)
        cases = [box]
    if with_violation:
        cases[1] = dict(box, certificate={"K": 12.0, "N": "inf"})
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": cases}))
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code


def test_model_table_finishes_after_a_failed_solve(tmp_path, monkeypatch):
    # a SolverError reads "error", the table goes on, and the exit is 2
    def model(K, N, d):
        if (K, d) == (-30.0, 3.0):
            raise SolverError("did not settle")
        return lambda1_model(K, N, d)

    monkeypatch.setattr("fingap.cli.lambda1_model", model)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"K": [-30, 1], "N": ["inf"], "d": [1, 3]}))
    out = tmp_path / "table.csv"
    assert main(["model-table", "--config", str(cfg), "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[2] == "-30.0,inf,3.0,error"
    assert lines[4] == f"1.0,inf,3.0,{lambda1_model(1.0, math.inf, 3.0)!r}"


@pytest.mark.parametrize("command", ["geom", "solve"])
def test_empty_resolutions_rejected(tmp_path, command):
    # an empty list and a missing key alike: the CLI reads the suite's rule
    case = {
        "id": "e",
        "domain": {"shape": "interval", "length": 1.0},
        "norm": {"family": "euclidean", "dim": 1},
        "weight": {"kind": "lebesgue"},
    }
    path = tmp_path / "case.json"
    for cfg in (dict(case, resolutions=[]), case):
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValueError, match="case e: no resolutions given"):
            main([command, "--spec", str(path)])
