"""CLI smoke tests driven through main()."""

import itertools
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


# the curvature sweep: d = 1.5 lies past the Myers length pi sqrt((N-1)/K)
# = 1.11 only at K = 4, N = 1.5; N = inf runs the q = 0 member and N = 1.5
# a tan chart with N < 2
SWEEP = {"K": [-4, -2, -1, -0.5, 0, 0.5, 1, 2, 4], "N": [3, "inf", 1.5], "d": [1.5]}


def _model_table(tmp_path, grid):
    """model-table's exit code and CSV lines, None where it wrote none."""
    cfg, out = tmp_path / "grid.json", tmp_path / "table.csv"
    cfg.write_text(json.dumps(grid))
    code = main(["model-table", "--config", str(cfg), "--out", str(out)])
    return code, out.read_text().strip().splitlines() if out.exists() else None


def test_model_table(tmp_path, capsys):
    code, lines = _model_table(tmp_path, {"K": [0.0, 1.0], "N": [2, "inf"],
                                          "d": [1.0, 4.0]})
    assert code == 0
    assert lines[0] == "K,N,d,lambda"
    assert len(lines) == 9
    # K=1, N=2, d=4 exceeds the admissible length -> NA
    assert any(line.startswith("1.0,2.0,4.0,NA") for line in lines)

    # the sharp bound is nondecreasing in K: a model with Ric_N = K' >= K
    # is itself a space with Ric_N >= K
    code, lines = _model_table(tmp_path, SWEEP)
    assert code == 0
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 27
    assert [r for r in rows if r[3] == "NA"] == [["4.0", "1.5", "1.5", "NA"]]
    for N in ("3.0", "inf", "1.5"):
        lams = [float(r[3]) for r in rows if r[1] == N and r[3] != "NA"]
        assert len(lams) == (8 if N == "1.5" else 9)
        assert lams == sorted(lams)


@pytest.mark.parametrize("grid, error", [
    ({"K": ["nan", 0], "N": ["inf"], "d": [1]},
     "model-table point K=nan, N=inf, d=1.0: K must be finite, got nan"),
    ({"K": [0], "N": ["-inf"], "d": [1]},
     "model-table point K=0.0, N=-inf, d=1.0: N must be > 1 (or inf)"),
    ({"K": [0, 1], "N": [1], "d": [1]},
     "model-table point K=1.0, N=1.0, d=1.0: N must be > 1 (or inf)"),
    ({"K": [0], "N": [2], "d": [1, 0]},
     "model-table point K=0.0, N=2.0, d=0.0: d must be positive and finite, got 0.0"),
    ({"K": [0], "N": [2], "d": 1}, "model-table config 'd' must be a list, got 1"),
    ({"K": [0], "N": [2]}, "model-table config 'd' must be a list, got None"),
    ([[0], [2], [1]], "model-table config 'K' must be a list, got None"),
    ({"K": [True], "N": [2], "d": [1]}, "config 'K' must be a number, got True"),
], ids=["K-nan", "N-minus-inf", "N-one", "d-zero", "d-bare", "d-missing", "not-an-object",
        "K-bool"])
def test_model_table_rejects_a_bad_grid(tmp_path, capsys, grid, error):
    # model1d judges each point before any solve, so NA means only "past
    # the maximal length"; N = 1 is a bad point unless K = 0
    cfg, out = tmp_path / "grid.json", tmp_path / "table.csv"
    cfg.write_text(json.dumps(grid))
    assert main(["model-table", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


# K in {-1, 0, 1} x N in {1, 1.5, 3, inf} x d in {0.5, 2, 10}
MODEL_POINTS = list(itertools.product([-1.0, 0.0, 1.0], [1.0, 1.5, 3.0, math.inf],
                                      [0.5, 2.0, 10.0]))


@pytest.mark.parametrize("K, N, d", MODEL_POINTS)
def test_model_table_asks_what_model_eig_asks(tmp_path, capsys, K, N, d):
    # one point alone: the table's lambda is model-eig's to its 12 digits,
    # NA where d is past the maximal length, and a point model1d refuses
    # is a bad input to both
    eig = main(["model-eig", "--K", str(K), "--N", str(N), "--d", str(d)])
    printed, err = capsys.readouterr()
    code, lines = _model_table(tmp_path, {"K": [K], "N": [N], "d": [d]})
    if (K, N, d) in ((1.0, 1.5, 10.0), (1.0, 3.0, 10.0)):
        assert (eig, code, lines[1]) == (2, 0, f"{K},{N},{d},NA")
        assert "exceeds the maximal length" in err
    elif N == 1.0 and K != 0.0:
        assert (eig, code, lines) == (2, 2, None)
        reason = err.removeprefix("error: ")
        assert capsys.readouterr().err == f"error: model-table point K={K}, N={N}, d={d}: {reason}"
    else:
        assert (eig, code, len(lines)) == (0, 0, 2)
        assert printed.split(" = ")[1] == f"{float(lines[1].split(',')[3]):.12g}\n"


def test_geom(case_file, capsys):
    assert main(["geom", "--spec", case_file]) == 0
    out = capsys.readouterr().out
    assert "nodes: 41" in out
    assert "analytic diameter: 1" in out
    assert "lattice diameter: 1" in out


def test_solve_and_dump(case_file, tmp_path, capsys):
    # solve reads the case's seed, so its descent is verify's finest one
    spec = tmp_path / "seeded.json"
    spec.write_text(json.dumps(dict(json.loads((tmp_path / "case.json").read_text()),
                                    seed=1)))
    dump = tmp_path / "u.csv"
    assert main(["solve", "--spec", str(spec), "--dump-u", str(dump)]) == 0
    out = capsys.readouterr().out
    lam = float(out.splitlines()[0].split("=")[1])
    assert abs(lam - math.pi**2) <= 0.01 * math.pi**2
    header = dump.read_text().splitlines()[0]
    assert header == "x1,u"
    main(["verify", "--spec", str(spec), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    residual = summary["cases"][0]["bound_report"]["residual"][-1]
    assert out.splitlines()[1] == f"residual = {residual:.3e}"


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


def test_suite_rows_without_a_closed_form(tmp_path, capsys):
    # the disk's error is against (j'_{1,1}/R)^2; a Randers ball, a
    # non-diagonal quadratic box and a 2-D Randers box have no closed form
    disk, box = {"shape": "ball", "radius": 0.5}, {"shape": "box", "lengths": [1.0, 1.0]}
    randers = {"family": "randers", "dim": 2, "A": [1.0, 0.0, 0.0, 1.0], "b": [0.2, 0.1]}
    cases = {"disk": (disk, {"family": "euclidean", "dim": 2}),
             "randers-ball": (disk, randers),
             "skew-box": (box, {"family": "quadratic", "dim": 2, "A": [2.0, 0.5, 0.5, 1.0]}),
             "randers-box": (box, randers)}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"cases": [
        {"id": i, "domain": domain, "norm": norm, "resolutions": [5, 10]}
        for i, (domain, norm) in cases.items()]}))
    main(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")])
    rows = {row[0]: row for row in map(str.split, capsys.readouterr().out.splitlines())
            if row[0] in cases}
    lam, ref = float(rows["disk"][1]), (1.8411837813 / 0.5) ** 2
    assert rows["disk"][2] == f"{(lam - ref) / ref:+.2e}"
    assert [rows[i][2] for i in ("randers-ball", "skew-box", "randers-box")] == ["-"] * 3


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


def test_suite_config_without_cases_rejected(tmp_path, capsys):
    # a typo for "cases" is a config error; an empty list given on purpose
    # still passes
    cfg = tmp_path / "suite.json"
    for config, code in (({"case": []}, 2), ([], 2), ({"cases": {}}, 2),
                         ({"cases": []}, 0)):
        cfg.write_text(json.dumps(config))
        assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "error: suite config 'cases' must be a list, got None" in err
    assert "error: suite config 'cases' must be a list, got {}" in err


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


# K < 0 with N near 1: cosh(a d/2) passes a double, so the density
# cannot be formed; d is below no maximal length, so the point is no NA
OVERFLOW_POINT = (-0.14842903521691636, 1.0041877451005612, 243.07542550046708)


def test_model_table_density_overflow_is_an_error(tmp_path, capsys):
    # the quotient's LinAlgError (a ValueError) read NA, and the table exited 0
    K, N, d = OVERFLOW_POINT
    code, lines = _model_table(tmp_path, {"K": [K], "N": [N], "d": [d]})
    assert code == 2
    assert lines == ["K,N,d,lambda", f"{K!r},{N!r},{d!r},error"]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["geom", "solve"])
def test_empty_resolutions_rejected(tmp_path, capsys, command):
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
        assert main([command, "--spec", str(path)]) == 2
        assert capsys.readouterr().err == "error: case e: no resolutions given\n"


@pytest.mark.parametrize("argv, error", [
    (["model-eig", "--K", "0", "--N", "2", "--d", "0"], "d must be positive"),
    (["model-eig", "--K", "-30", "--N", "inf", "--d", "3"], "did not settle"),
    (["model-table", "--config", "{bad}"], "Expecting property name"),
    (["geom", "--spec", "{box3}"], "norm dimension must match box dimension"),
    (["solve", "--spec", "{box3}"], "norm dimension must match box dimension"),
    (["verify", "--spec", "{missing}", "--out", "{out}"], "No such file or directory"),
    (["suite", "--config", "{bad}", "--out", "{out}"], "Expecting property name"),
    (["suite", "--config", "{ones}", "--out", "{out}"],
     "case config must be an object, got 1"),
    (["model-eig", *(f"--{k}={v!r}" for k, v in zip("KNd", OVERFLOW_POINT))],
     "the density overflows a double at |t| = 121.388"),
], ids=["model-eig-d", "model-eig-solver", "model-table", "geom", "solve", "verify",
        "suite-json", "suite-entry", "model-eig-overflow"])
def test_bad_input_exits_2(tmp_path, capsys, argv, error):
    # 0 holds, 1 violated, 2 nothing decided: a bad input reads 2 from every
    # command, as one error line and no traceback
    files = {"bad": "{", "ones": json.dumps({"cases": [1]}),
             "box3": json.dumps({"domain": {"shape": "box", "lengths": [1.0, 1.0]},
                                 "norm": {"family": "euclidean", "dim": 3},
                                 "resolutions": [5, 10]})}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {name: str(tmp_path / f"{name}.json") for name in [*files, "missing"]}
    argv = [a.format(out=str(tmp_path / "out"), **paths) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and error in err[0]
    assert not (tmp_path / "out").exists()


def test_geom_reads_the_certificate_verify_reads(tmp_path, capsys):
    # one case reader: a certificate without N is an error to both
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"id": "c", "domain": {"shape": "interval", "length": 1.0},
                                "norm": {"family": "euclidean", "dim": 1},
                                "certificate": {"K": 0}, "resolutions": [5, 10]}))
    assert main(["geom", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == "error: certificate config has no 'N'\n"
    assert main(["verify", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "c                            ERROR: certificate config has no 'N'" in (
        capsys.readouterr().out)
