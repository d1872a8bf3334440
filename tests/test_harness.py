"""Verification harness: bounds, comparisons, suite mechanics."""

import csv
import json
import math
import os

import numpy as np
import pytest

from fingap import model1d
from fingap.domain import CurvatureCertificate, DomainSpec, build_domain
from fingap.eigensolver import EigenResult
from fingap.harness import (
    check_gradient_comparison,
    check_maxima,
    golden_cases,
    lichnerowicz_check,
    run_case,
    run_suite,
    write_eigenfunction_csv,
)
from fingap.model1d import lambda1_model
from fingap.norms import euclidean_norm

PI2 = math.pi**2


def sharp_case(res=(50, 100), a_plus=2.0, a_minus=2.0, ident="sharp"):
    return {
        "id": ident,
        "domain": {"shape": "interval", "length": 1.0},
        "norm": {"family": "two_slope_1d", "dim": 1,
                 "params": {"a_plus": a_plus, "a_minus": a_minus}},
        "weight": {"kind": "lebesgue"},
        "certificate": {"K": 0.0, "N": "inf"},
        "resolutions": list(res),
    }


def box_case(res=(10, 20), ident="box"):
    return {
        "id": ident,
        "domain": {"shape": "box", "lengths": [1.0, 1.0]},
        "norm": {"family": "euclidean", "dim": 2},
        "weight": {"kind": "lebesgue"},
        "resolutions": list(res),
    }


class TestVerifyBound:
    def test_sharp_two_slope(self):
        rep = run_case(sharp_case()).report
        assert rep.diameter_used == pytest.approx(2.0)
        assert rep.bound == pytest.approx(PI2 / 4.0, rel=1e-9)
        assert rep.verdict in ("holds", "holds_within_tol")
        assert abs(rep.margin) <= 2.0 * rep.discretization_tolerance

    def test_box_euclid(self):
        rep = run_case(box_case()).report
        assert rep.diameter_used == pytest.approx(math.sqrt(2))
        assert rep.bound == pytest.approx(PI2 / 2.0, rel=1e-8)
        assert rep.verdict == "holds"
        assert rep.margin > 1.0

    def test_gaussian_weighted_box(self):
        case = {
            "id": "gauss",
            "domain": {"shape": "box", "lengths": [4.0, 4.0]},
            "norm": {"family": "euclidean", "dim": 2},
            "weight": {"kind": "gaussian", "kappa": 1.0},
            "resolutions": [4, 8],
        }
        rep = run_case(case).report
        assert rep.K == 1.0
        assert rep.N == math.inf
        assert rep.bound <= rep.lambda_numeric
        assert rep.verdict == "holds"

    def test_single_resolution_gets_auto_coarse(self):
        case = sharp_case(res=(40,))
        rep = run_case(case).report
        assert len(rep.lambda_by_resolution) == 2

    def test_floor_resolution_alone_rejected(self):
        # resolution 4 has no coarser companion above the floor
        with pytest.raises(ValueError, match="only-four"):
            run_case(sharp_case(res=(4,), ident="only-four"))

    def test_duplicate_resolutions_rejected(self):
        # one lattice solved twice would give a zero error bar
        with pytest.raises(ValueError, match="twice-eight"):
            run_case(sharp_case(res=(8, 8), ident="twice-eight"))

    def test_solver_evidence_per_resolution(self):
        rep = run_case(box_case()).report
        assert rep.converged == [True, True]
        assert all(isinstance(i, int) and 0 < i for i in rep.iterations)
        assert len(rep.residual) == 2 and max(rep.residual) <= 1e-3

    def test_unconverged_solve_is_inconclusive(self, monkeypatch):
        # a capped descent overstates lambda, which would otherwise read holds
        from fingap import eigensolver

        monkeypatch.setattr(eigensolver, "_MAX_ITER", 3)
        rep = run_case(box_case()).report
        assert rep.iterations == [3, 3]
        assert rep.converged == [False, False]
        assert rep.margin > 0.0
        assert rep.verdict == "inconclusive"

    def test_user_certificate_passthrough(self):
        case = box_case()
        case["certificate"] = {"K": -1.0, "N": 4.0}
        rep = run_case(case).report
        assert rep.K == -1.0 and rep.N == 4.0
        assert rep.bound == pytest.approx(lambda1_model(-1.0, 4.0, math.sqrt(2)),
                                          rel=1e-9)


class TestGradientComparison:
    def test_flat_1d_equality(self):
        result = run_case(sharp_case(res=(50, 100)))
        gc = result.gradient_comparison
        assert not gc.inconclusive
        assert gc.fraction == 1.0
        h = 1.0 / 100
        assert gc.max_gap_core <= 30.0 * result.eigen.lam * h**2

    def test_box_fraction(self):
        result = run_case(box_case(res=(10, 20)))
        gc = result.gradient_comparison
        assert not gc.inconclusive
        assert gc.fraction >= 0.99

    @pytest.mark.parametrize("case", golden_cases(), ids=lambda c: c["id"])
    def test_golden_fits_within_tol(self, case):
        # the fitted model spans [-1, k] within the fit's tolerance; at
        # k = 1 - 1e-10 box-quadratic took the power chart's a = 1e8 member,
        # 1.01e-8 below k
        from fingap.harness import _normalized_u
        from fingap.norms import is_reversible

        result = run_case(case)
        _, k = _normalized_u(result.eigen, is_reversible(result.domain.spec.norm))
        fit = model1d.fit_model_solution(result.report.K, result.report.N,
                                         result.eigen.lam, k)
        assert abs(fit.min_value + 1.0) <= model1d._FIT_TOL
        assert abs(fit.max_value - k) <= model1d._FIT_TOL * max(1.0, k)

    def test_threshold_gate_inconclusive(self):
        # eigenvalue exactly at the model threshold -> inconclusive, not failure
        spec = DomainSpec(shape="box", norm=euclidean_norm(2),
                          lengths=(1.0, 1.0), resolution=8)
        dom = build_domain(spec)
        cert = CurvatureCertificate(K=1.0, N=2.0, provenance="user")
        fake = EigenResult(lam=2.0, u=np.linspace(-1, 1, dom.n_nodes),
                           residual=0.0, iterations=0, converged=True)
        rep = check_gradient_comparison(dom, spec, cert, fake)
        assert rep.inconclusive
        assert "threshold" in rep.reason

    def test_negative_curvature_threshold_gate(self):
        # K < 0: at (N-1)|K|/4 the model has no first maximum
        spec = DomainSpec(shape="box", norm=euclidean_norm(2),
                          lengths=(1.0, 1.0), resolution=8)
        dom = build_domain(spec)
        cert = CurvatureCertificate(K=-1.0, N=3.0, provenance="user")
        fake = EigenResult(lam=0.5, u=np.linspace(-1, 1, dom.n_nodes),
                           residual=0.0, iterations=0, converged=True)
        for rep in (check_gradient_comparison(dom, spec, cert, fake),
                    check_maxima(cert, fake, spec)):
            assert rep.inconclusive
            assert rep.reason == "eigenvalue at or below model threshold"


class TestMaxima:
    def test_box_holds(self):
        result = run_case(box_case(res=(10, 20)))
        mx = result.maxima
        assert not mx.inconclusive
        assert mx.fraction == 1.0
        assert mx.worst_violation == 0.0

    def test_one_model_shot_per_case(self, monkeypatch):
        # the fit takes m from model_solution and the maxima check takes
        # m_{K,N} from it: one shot serves both, and no other shot repeats
        shots = []
        first_max = model1d._first_max

        def counting(problem, lam, a, *args, **kwargs):
            shots.append((problem.chart, problem.c, lam, a))
            return first_max(problem, lam, a, *args, **kwargs)

        model1d.model_solution.cache_clear()
        monkeypatch.setattr(model1d, "_first_max", counting)
        result = run_case(box_case(res=(10, 20)))
        assert not result.maxima.inconclusive
        assert not result.gradient_comparison.inconclusive
        assert shots.count(("power", 0.0, result.eigen.lam, 0.0)) == 1, shots
        assert len(set(shots)) == len(shots), shots

    def test_infinite_N_inconclusive(self):
        result = run_case(sharp_case(res=(25, 50)))
        assert result.maxima.inconclusive

    def test_hypothesis_gate(self):
        spec = DomainSpec(shape="box", norm=euclidean_norm(2),
                          lengths=(1.0, 1.0), resolution=8)
        dom = build_domain(spec)
        cert = CurvatureCertificate(K=1.0, N=2.0, provenance="user")
        fake = EigenResult(lam=2.0 + 1e-12, u=np.linspace(-1, 1, dom.n_nodes),
                           residual=0.0, iterations=0, converged=True)
        rep = check_maxima(cert, fake, spec)
        assert rep.inconclusive


class TestLichnerowicz:
    def test_holds_above_threshold(self):
        cert = CurvatureCertificate(K=1.0, N=2.0, provenance="user")
        rep = lichnerowicz_check(cert, 2.5)
        assert rep.applicable and rep.holds
        assert rep.threshold == pytest.approx(2.0)

    def test_boundary_equality(self):
        cert = CurvatureCertificate(K=1.0, N=2.0, provenance="user")
        rep = lichnerowicz_check(cert, lambda1_model(1.0, 2.0, math.pi))
        assert rep.holds

    def test_model_bound_dominates(self):
        cert = CurvatureCertificate(K=1.0, N=3.0, provenance="user")
        rep = lichnerowicz_check(cert, 2.0, bound=lambda1_model(1.0, 3.0, 2.0))
        assert rep.model_bound_holds
        assert lambda1_model(1.0, 3.0, 2.0) >= 1.5 - 1e-8

    def test_not_applicable_for_zero_K(self):
        cert = CurvatureCertificate(K=0.0, N=2.0, provenance="user")
        assert not lichnerowicz_check(cert, 5.0).applicable


class TestSuite:
    def test_empty_config(self, tmp_path):
        result = run_suite({"cases": []}, out_dir=str(tmp_path / "out"))
        assert result.exit_code == 0
        assert result.summaries == []
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["cases"] == []

    def test_error_isolation(self, tmp_path):
        bad = {
            "id": "bad-norm",
            "domain": {"shape": "box", "lengths": [1.0, 1.0]},
            "norm": {"family": "randers", "dim": 2,  # b^T A^{-1} b >= 1
                     "params": {"A": [1, 0, 0, 1], "b": [1.2, 0.0]}},
            "weight": {"kind": "gaussian", "kappa": 1.0},
            "resolutions": [5, 10],
        }
        good = sharp_case(res=(25, 50), ident="good")
        result = run_suite({"cases": [bad, good]}, out_dir=str(tmp_path / "out"))
        by_id = {s["id"]: s for s in result.summaries}
        assert by_id["bad-norm"]["error"] is not None
        assert by_id["good"]["error"] is None
        assert result.exit_code == 0  # errors are not violations

    def test_golden_script_fails_on_error(self, tmp_path, monkeypatch):
        # unlike run_suite, the golden suite's script fails on a case that errors
        import importlib.util
        import sys

        path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                            "run_golden_suite.py")
        loader = importlib.util.spec_from_file_location("run_golden_suite", path)
        script = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(script)
        bad = dict(box_case(res=(5, 10), ident="bad"),
                   norm={"family": "randers", "dim": 2,
                         "params": {"A": [1, 0, 0, 1], "b": [1.2, 0.0]}})
        good = sharp_case(res=(25, 50), ident="good")
        monkeypatch.setattr(sys, "argv", ["run_golden_suite.py", "--out",
                                          str(tmp_path / "out")])
        for cases, code in (([good], 0), ([bad, good], 1)):
            monkeypatch.setattr(script, "golden_cases", lambda: cases)
            assert script.main() == code

    @pytest.mark.parametrize("block, key", [
        ("domain", "norm"), ("certificate", "K"), ("certificate", "N"),
    ], ids=["norm", "K", "N"])
    def test_missing_key_error_named(self, tmp_path, block, key):
        case = {"id": "missing", "domain": {"shape": "box", "lengths": [1.0, 1.0]},
                "norm": {"family": "euclidean", "dim": 2},
                "certificate": {"K": 0.0, "N": 2.0}, "resolutions": [5, 10]}
        del (case if block == "domain" else case[block])[key]
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        assert result.summaries[0]["error"] == f"{block} config has no '{key}'"

    @pytest.mark.parametrize("K, N, error", [
        ("nan", 2.0, "certificate K = 'nan' is not finite"),
        (float("inf"), 2.0, "certificate K = inf is not finite"),
        ("-inf", "inf", "certificate K = '-inf' is not finite"),
        (0.0, "nan", "certificate N = 'nan' is not a number >= the dimension 2, "
                     "as Ric_N needs"),
        (2.0, 1.5, "certificate N = 1.5 is not a number >= the dimension 2, "
                   "as Ric_N needs"),
    ], ids=["K-nan", "K-inf", "K-minus-inf", "N-nan", "N-below-dim"])
    def test_certificate_out_of_range_named(self, tmp_path, K, N, error):
        case = {"id": "bad-cert", "domain": {"shape": "box", "lengths": [1.0, 1.0]},
                "norm": {"family": "euclidean", "dim": 2},
                "certificate": {"K": K, "N": N}, "resolutions": [5, 10]}
        out = tmp_path / "out"
        run_suite({"cases": [case]}, out_dir=str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cases"][0]["error"] == error

    def test_outputs_and_determinism(self, tmp_path):
        cfg = {"cases": [sharp_case(res=(25, 50)), box_case(res=(8, 16))]}
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_suite(cfg, out_dir=out1)
        run_suite(cfg, out_dir=out2)
        s1 = open(os.path.join(out1, "summary.json"), "rb").read()
        s2 = open(os.path.join(out2, "summary.json"), "rb").read()
        assert s1 == s2
        assert os.path.exists(os.path.join(out1, "bounds.csv"))
        assert os.path.exists(os.path.join(out1, "case-sharp.csv"))
        dump = np.loadtxt(os.path.join(out1, "case-box.csv"),
                          delimiter=",", skiprows=1)
        assert dump.shape[1] == 3  # x1, x2, u

    def test_repeated_id_is_an_error(self, tmp_path):
        # the first case keeps its dump; the second would overwrite it
        first = sharp_case(res=(25, 50), ident="dup")
        second = sharp_case(res=(25, 50), a_minus=1.0, ident="dup")
        out = tmp_path / "out"
        result = run_suite({"cases": [first, second]}, out_dir=str(out))
        summary = json.loads((out / "summary.json").read_text())
        assert [c["id"] for c in summary["cases"]] == ["dup", "dup"]
        assert summary["cases"][0]["error"] is None
        assert summary["cases"][1]["error"] == "case id 'dup' repeats an earlier case's id"
        assert result.exit_code == 0
        run_suite({"cases": [first]}, out_dir=str(tmp_path / "alone"))
        assert sorted(p.name for p in out.glob("case-*.csv")) == ["case-dup.csv"]
        assert ((out / "case-dup.csv").read_bytes()
                == (tmp_path / "alone" / "case-dup.csv").read_bytes())

    @pytest.mark.parametrize("ident", ["a/b", "", ".", ".."],
                             ids=["slash", "empty", "dot", "dotdot"])
    def test_id_not_a_file_name_is_an_error(self, tmp_path, ident):
        # the suite does not abort: the other case runs and summary.json is written
        bad = sharp_case(res=(25, 50), ident=ident)
        out = tmp_path / "out"
        run_suite({"cases": [bad, box_case(res=(5, 10))]}, out_dir=str(out))
        by_id = {c["id"]: c for c in json.loads((out / "summary.json").read_text())["cases"]}
        assert by_id[ident]["error"] == f"case id {ident!r} is not a plain file name"
        assert by_id["box"]["error"] is None
        assert sorted(p.name for p in out.iterdir()) == ["bounds.csv", "case-box.csv",
                                                         "summary.json"]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eigenfunction_csv_bytes(self, tmp_path, dim):
        # the same bytes as the csv module's writer, -0.0 and the extremes
        # of repr included
        rng = np.random.default_rng(dim)
        nodes = rng.standard_normal((7, dim))
        nodes[0, 0], nodes[1, -1] = -0.0, 1e300
        u = np.append(rng.standard_normal(6), 1e-300)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([f"x{i+1}" for i in range(dim)] + ["u"])
            for row in np.column_stack([nodes, u]):
                w.writerow([repr(float(x)) for x in row])
        got = tmp_path / "got.csv"
        write_eigenfunction_csv(str(got), nodes, u)
        assert got.read_bytes() == ref.read_bytes()
        assert b"-0.0," in got.read_bytes()

    def test_golden_cases_shape(self):
        cases = golden_cases()
        assert len(cases) >= 8
        ids = [c["id"] for c in cases]
        assert len(set(ids)) == len(ids)
        kinds = {c["domain"]["shape"] for c in cases}
        assert kinds == {"interval", "box", "ball"}


class TestPoincareRestatement:
    def test_random_functions_dominate_bound(self):
        # the minimized quotient of any non-constant u sits above the model
        # bound (up to the discretization tolerance of the case)
        from fingap.eigensolver import rayleigh_quotient
        from fingap.domain import analytic_diameter, domain_spec_from_config

        rng = np.random.default_rng(123)
        for case in [sharp_case(res=(25, 50)), box_case(res=(8, 16))]:
            result = run_case(case)
            rep = result.report
            cfg = dict(case)
            cfg["resolution"] = max(case["resolutions"])
            spec = domain_spec_from_config(cfg)
            dom = result.domain
            floor = rep.bound - rep.discretization_tolerance
            for _ in range(50):
                u = rng.standard_normal(dom.n_nodes)
                assert rayleigh_quotient(dom, spec.norm, u) >= floor
