"""CLI smoke tests driven through main()."""

import json
import math

import pytest

from fingap.cli import main


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
    assert "verdict=holds" in capsys.readouterr().out
    assert (out_dir / "summary.json").exists()


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
