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
    read_case,
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


def bad_norm_case(ident="bad-norm"):
    """A case that raises: its Randers drift has b^T A^{-1} b >= 1."""
    return {
        "id": ident,
        "domain": {"shape": "box", "lengths": [1.0, 1.0]},
        "norm": {"family": "randers", "dim": 2,
                 "params": {"A": [1, 0, 0, 1], "b": [1.2, 0.0]}},
        "weight": {"kind": "gaussian", "kappa": 1.0},
        "resolutions": [5, 10],
    }


def false_box(ident="false"):
    """A box under the false certificate K = 12: its bound 13.1 lies far
    above lambda = 9.87, so it reads violated."""
    return dict(box_case(ident=ident), certificate={"K": 12.0, "N": "inf"})


# (cases, descent iteration cap or None, exit status): the rows of the
# suite's exit rule; TestNegativeControls has "some case violated"
SUITE_EXITS = [
    pytest.param([sharp_case(res=(25, 50), ident="good")], None, 0, id="holds"),
    pytest.param([bad_norm_case(), false_box()], None, 1, id="violated-and-errored"),
    pytest.param([bad_norm_case(), box_case()], None, 2, id="errored"),
    # a descent capped at 3 iterations does not converge
    pytest.param([box_case()], 3, 2, id="inconclusive"),
]


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

    def test_integral_float_resolutions_accepted(self):
        # JSON may write a whole number as 8.0
        got = read_case(box_case(res=(16.0, 8.0))).resolutions
        assert got == [8, 16]
        assert all(type(r) is int for r in got)

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

    @pytest.mark.parametrize("case", [
        box_case(),
        dict(box_case(ident="ball"), domain={"shape": "ball", "radius": 0.5}),
    ], ids=["box", "ball"])
    def test_run_leaves_stencil_unbuilt(self, case):
        # a run builds the mesh but never the graph stencil: the mesh finds
        # its simplices by index arithmetic
        dom = run_case(case).domain
        assert "mesh" in dom.__dict__
        assert "neighbor_idx" not in dom.__dict__

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

        def counting(K, N, lam, tau):
            shots.append((K, N, lam, tau))
            return first_max(K, N, lam, tau)

        model1d.model_solution.cache_clear()
        monkeypatch.setattr(model1d, "_first_max", counting)
        result = run_case(box_case(res=(10, 20)))
        assert not result.maxima.inconclusive
        assert not result.gradient_comparison.inconclusive
        # model_solution's shot starts at the drift pole, tau = -inf
        pole = (result.report.K, result.report.N, result.eigen.lam, -math.inf)
        assert shots.count(pole) == 1, shots
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
        good = sharp_case(res=(25, 50), ident="good")
        result = run_suite({"cases": [bad_norm_case(), good]}, out_dir=str(tmp_path / "out"))
        by_id = {s["id"]: s for s in result.summaries}
        assert by_id["bad-norm"]["error"] is not None
        assert by_id["good"]["error"] is None
        assert result.exit_code == 2  # a case that raised decides nothing

    @pytest.mark.parametrize("cases, max_iter, code", SUITE_EXITS)
    def test_exit_status(self, tmp_path, monkeypatch, cases, max_iter, code):
        from fingap import eigensolver

        if max_iter is not None:
            monkeypatch.setattr(eigensolver, "_MAX_ITER", max_iter)
        assert run_suite({"cases": cases}, out_dir=str(tmp_path / "out")).exit_code == code

    def test_impossible_bound_fails_before_the_descents(self, tmp_path, monkeypatch):
        # d = sqrt(2) exceeds the Myers length pi/sqrt(K/(N-1)) = 0.314
        from fingap import harness

        calls = []
        solve = harness.minimize_rayleigh
        monkeypatch.setattr(harness, "minimize_rayleigh",
                            lambda *a, **kw: calls.append(a) or solve(*a, **kw))
        case = dict(box_case(), certificate={"K": 100.0, "N": 2.0})
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        assert "exceeds the maximal length" in result.summaries[0]["error"]
        assert calls == []
        assert result.exit_code == 2

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

    @pytest.mark.parametrize("block, key, bad", [
        ("domain", "domain", "box"), ("norm", "norm", "euclidean"),
        ("quadratic", "norm", {"family": "quadratic", "dim": 2, "params": "A"}),
        ("weight", "weight", "kind"), ("certificate", "certificate", [0.0, 2.0]),
    ], ids=["domain", "norm", "params", "weight", "certificate"])
    def test_block_not_an_object_named(self, tmp_path, block, key, bad):
        # a norm's params block is named by its family, as its missing keys are
        case = dict(box_case(), **{key: bad})
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        shown = bad["params"] if block == "quadratic" else bad
        assert (result.summaries[0]["error"]
                == f"{block} config must be an object, got {shown!r}")

    @pytest.mark.parametrize("block, key, value, error", [
        ("certificate", "N", "foo", "config 'N' must be a number, got 'foo'"),
        ("certificate", "N", None, "config 'N' must be a number, got None"),
        ("certificate", "K", True, "config 'K' must be a number, got True"),
        ("weight", "kappa", "big", "config 'kappa' must be a number, got 'big'"),
        ("domain", "lengths", ["1", "x"], "config 'lengths' must be a number, got 'x'"),
        ("domain", "lengths", "12", "config 'lengths' must be a list, got '12'"),
        ("domain", "radius", [0.5], "config 'radius' must be a number, got [0.5]"),
    ], ids=["N-string", "N-null", "K-bool", "kappa", "lengths", "lengths-string", "radius"])
    def test_number_not_a_number_named(self, tmp_path, block, key, value, error):
        # one reader for every number: what float() reads, except a bool; a
        # string of lengths is not read digit by digit
        case = dict(box_case(ident="bad-number"), certificate={"K": 0.0, "N": 2.0},
                    weight={"kind": "gaussian", "kappa": 1.0})
        if key == "radius":
            case["domain"] = {"shape": "ball"}
        case[block] = dict(case[block], **{key: value})
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        assert result.summaries[0]["error"] == error

    def test_unnamed_case_named_case(self, tmp_path):
        # a case without an id is "case" in its row and in its errors
        case = box_case(res=())
        del case["id"]
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        assert result.summaries == [{"id": "case",
                                     "error": "case case: no resolutions given"}]

    def test_entry_not_an_object_rejected(self, tmp_path, monkeypatch):
        # the whole config is refused before any case runs
        from fingap import harness

        monkeypatch.setattr(harness, "run_case", lambda case: pytest.fail("a case ran"))
        with pytest.raises(ValueError, match=r"^case config must be an object, got 1$"):
            run_suite({"cases": [box_case(), 1]}, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("resolutions, error", [
        ([math.nan, 16], "config 'resolutions' must be a whole number, got nan"),
        ([8, math.inf], "config 'resolutions' must be a whole number, got inf"),
        ([8.9, 16], "config 'resolutions' must be a whole number, got 8.9"),
        (["8", 16], "config 'resolutions' must be a whole number, got '8'"),
        (8, "case bad-res: resolutions must be a list, got 8"),
    ], ids=["nan", "inf", "fraction", "string", "bare-int"])
    def test_resolutions_not_whole_named(self, tmp_path, resolutions, error):
        # rejected before any solve, naming the key and the value: 8.9 is not
        # truncated to 8
        case = dict(box_case(ident="bad-res"), resolutions=resolutions)
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        assert result.summaries[0]["error"] == error

    @pytest.mark.parametrize("seed", [1.7, True], ids=["fraction", "bool"])
    def test_seed_not_whole_named(self, tmp_path, seed):
        # the resolutions' rule: 1.7 is not truncated to 1, nor true read as 1
        case = dict(box_case(ident="bad-seed"), seed=seed)
        result = run_suite({"cases": [case]}, out_dir=str(tmp_path / "out"))
        assert (result.summaries[0]["error"]
                == f"config 'seed' must be a whole number, got {seed!r}")

    def test_outputs_and_determinism(self, tmp_path):
        cfg = {"cases": [sharp_case(res=(25, 50)), box_case(res=(8, 16))]}
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_suite(cfg, out_dir=out1)
        run_suite(cfg, out_dir=out2)
        s1 = open(os.path.join(out1, "summary.json"), "rb").read()
        s2 = open(os.path.join(out2, "summary.json"), "rb").read()
        assert s1 == s2
        # N = inf reads inf, as in the model table, not 'inf'
        with open(os.path.join(out1, "bounds.csv")) as f:
            rows = {r["id"]: r for r in csv.DictReader(f)}
        assert rows["sharp"]["N"] == "inf"
        assert rows["box"]["N"] == "2.0"
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
        assert result.exit_code == 2
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


def false_golden(case_id, K, ident=None):
    """A golden case under the certificate (K, inf), false when K exceeds
    the space's curvature; its bound is then false by a known amount."""
    case = next(c for c in golden_cases() if c["id"] == case_id)
    return dict(case, id=ident or case_id, certificate={"K": K, "N": "inf"})


class TestNegativeControls:
    """A certificate that overstates K makes the model bound false; the
    checker must read violated, and the suite must exit 1."""

    def test_box_overstated_K_violated(self):
        # lambda = 9.867; K = 12 lifts the bound to 13.112
        rep = run_case(false_golden("box-euclid", 12.0)).report
        assert rep.verdict == "violated"
        assert rep.bound == pytest.approx(13.112, abs=1e-3)
        assert rep.margin == pytest.approx(-3.245, abs=1e-3)
        assert rep.discretization_tolerance == pytest.approx(1.35e-2, rel=1e-2)

    def test_box_false_bound_below_lambda_holds(self):
        # Ric_inf >= 1 is false on a flat box too, but its bound 5.45 lies
        # below lambda, so no check of lambda can see it
        rep = run_case(false_golden("box-euclid", 1.0)).report
        assert rep.verdict == "holds"

    # (sharp golden, its own K0, the lift dK, verdict, margin, bar): the
    # ladder K0 + dK on every sharp golden
    SHARP_LADDER = [
        ("sharp-1d-twoslope-asym", 0.0, 3e-4, "holds_within_tol", -2.0e-4, 3.04e-4),
        ("sharp-1d-twoslope-asym", 0.0, 1e-3, "violated", -5.5e-4, 3.04e-4),
        ("sharp-1d-twoslope-sym", 0.0, 3e-4, "holds_within_tol", -2.01e-4, 3.04e-4),
        ("sharp-1d-twoslope-sym", 0.0, 1e-3, "violated", -5.51e-4, 3.04e-4),
        ("sharp-1d-gauss-twoslope-asym", 0.25, 3e-4, "holds_within_tol", -2.06e-4, 3.05e-4),
        ("sharp-1d-gauss-twoslope-asym", 0.25, 1e-3, "violated", -5.67e-4, 3.05e-4),
    ]

    @pytest.mark.parametrize("case_id, K0, dK, verdict, margin, bar", SHARP_LADDER,
                             ids=[f"{row[0].removeprefix('sharp-1d-')}-{row[2]:g}"
                                  for row in SHARP_LADDER])
    def test_sharp_detection_threshold(self, case_id, K0, dK, verdict, margin, bar):
        # the K0 bound of a sharp golden is its eigenvalue, so K0 + dK lifts
        # it above the truth by about dK; the bar 2|lam_fine - lam_coarse|
        # misses the bound dK = 3e-4 gives and catches dK = 1e-3's on each.
        # A sharper error bar should move this bracket down.
        rep = run_case(false_golden(case_id, K0 + dK)).report
        assert rep.discretization_tolerance == pytest.approx(bar, rel=1e-2)
        assert rep.margin == pytest.approx(margin, rel=2e-2)
        assert rep.verdict == verdict

    def test_suite_with_a_violation_exits_1(self, tmp_path):
        box = next(c for c in golden_cases() if c["id"] == "box-euclid")
        cfg = {"cases": [box, false_golden("box-euclid", 12.0, ident="box-euclid-false")]}
        out = tmp_path / "out"
        result = run_suite(cfg, out_dir=str(out))
        assert result.exit_code == 1
        verdicts = {s["id"]: s["bound_report"]["verdict"] for s in result.summaries}
        assert verdicts == {"box-euclid": "holds", "box-euclid-false": "violated"}
        assert json.loads((out / "summary.json").read_text())["n_violated"] == 1
        with open(out / "bounds.csv") as f:
            rows = {r["id"]: r["verdict"] for r in csv.DictReader(f)}
        assert rows == verdicts
        assert (out / "case-box-euclid.csv").exists()
        assert (out / "case-box-euclid-false.csv").exists()


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


def _random_norm(rng):
    """A quadratic or Randers norm on R^2: A has eigenvalues in [0.5, 2] along
    a random rotation, and a Randers b has A^-1-length up to 0.5."""
    angle = rng.uniform(0.0, math.pi)
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag(rng.uniform(0.5, 2.0, 2)) @ R.T
    if rng.random() < 0.5:
        return {"family": "quadratic", "dim": 2, "params": {"A": A.ravel().tolist()}}
    u = rng.standard_normal(2)
    b = np.linalg.cholesky(A) @ (rng.uniform(0.0, 0.5) * u / np.linalg.norm(u))
    return {"family": "randers", "dim": 2,
            "params": {"A": A.ravel().tolist(), "b": b.tolist()}}


def random_cases(seed=2011, per_kind=5):
    """Seeded cases of four kinds: boxes with random quadratic and Randers
    norms, thin 1 x 0.03-0.15 boxes (near the sharp 1-D case), balls with
    random norms, and Gaussian 4 x 4 boxes with kappa in 0.2-2."""
    rng = np.random.default_rng(seed)
    lebesgue = {"kind": "lebesgue"}
    cases = []
    for i in range(per_kind):
        cases += [
            {"id": f"box-{i}", "weight": lebesgue, "resolutions": [10, 20],
             "domain": {"shape": "box", "lengths": rng.uniform(0.6, 1.4, 2).tolist()},
             "norm": _random_norm(rng)},
            {"id": f"thin-{i}", "weight": lebesgue, "resolutions": [40, 80],
             "domain": {"shape": "box", "lengths": [1.0, rng.uniform(0.03, 0.15)]},
             "norm": {"family": "euclidean", "dim": 2}},
            {"id": f"ball-{i}", "weight": lebesgue, "resolutions": [10, 20],
             "domain": {"shape": "ball", "radius": rng.uniform(0.3, 0.7)},
             "norm": _random_norm(rng)},
            {"id": f"gauss-{i}", "resolutions": [4, 8],
             "weight": {"kind": "gaussian", "kappa": rng.uniform(0.2, 2.0)},
             "domain": {"shape": "box", "lengths": [4.0, 4.0]},
             "norm": {"family": "euclidean", "dim": 2}},
        ]
    return cases


class TestRandomCases:
    # the smallest relative margin here is 3.0e-3 (thin-1: lambda 9.8683,
    # bound 9.8388), and every gradient comparison reads fraction 1.0
    @pytest.mark.parametrize("case", random_cases(), ids=lambda c: c["id"])
    def test_random_case_holds(self, case):
        result = run_case(case)
        assert result.report.verdict == "holds"
        gc = result.gradient_comparison
        if not gc.inconclusive:
            assert gc.fraction >= 0.99
