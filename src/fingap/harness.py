"""End-to-end verification of the spectral-gap bound and comparison checks.

For each configured case the pipeline

  1. solves the discrete eigenproblem at each listed resolution,
  2. computes the domain diameter, analytic for flat convex shapes
     (overestimating d only weakens the bound); the lattice value of
     ``domain.diameter`` is a cross-check that never exceeds it,
  3. obtains a curvature certificate (K, N) and the model bound
     lambda_1(K, N, d),
  4. emits a BoundReport with margin = lambda_numeric - bound and a
     discretization tolerance from mesh halving,
  5. checks the gradient comparison F*(Du) <= v'(v^{-1}(u)) against a fitted
     1-D model solution, and the maxima comparison max u >= m_{K,N}.

A case is "violated" only when the margin is below minus the discretization
tolerance, and "inconclusive" when otherwise some resolution's descent did
not converge; comparison hypotheses that fail (N = inf for the maxima check,
eigenvalues at the model threshold, unreachable fit targets) are reported as
inconclusive, never as failures.

The eigenfunction is normalized by a positive scale so that min u = -1; a
sign flip to enforce max <= |min| is applied only for reversible norms,
because -u is not an eigenfunction of a non-reversible Laplacian.  For the
pointwise comparison u is additionally shrunk by (1 - 1e-6) so its range
stays strictly inside the model's.

Suites run their cases one after another, never abort on a single case,
and write a deterministic summary.json plus per-case CSV dumps.  The exit
status is 0 when every case reads holds or holds_within_tol, 1 when some
case is violated, and 2 otherwise: some case raised or is inconclusive.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .domain import (
    CurvatureCertificate,
    DiscreteDomain,
    DomainSpec,
    analytic_diameter,
    build_domain,
    curvature_certificate,
    domain_spec_from_config,
    whole_number,
)
from .eigensolver import EigenResult, discrete_gradient, minimize_rayleigh
from .norms import dual_norm_eval, is_reversible, need, real_number
from .model1d import (
    SolverError,
    fit_model_solution,
    lambda1_model,
    model_solution,
    model_threshold,
)

__all__ = [
    "BoundReport",
    "ComparisonReport",
    "LichnerowiczReport",
    "CaseResult",
    "check_gradient_comparison",
    "check_maxima",
    "lichnerowicz_check",
    "Case",
    "read_case",
    "run_case",
    "run_suite",
    "write_eigenfunction_csv",
    "golden_cases",
]


@dataclass
class BoundReport:
    case_id: str
    lambda_numeric: float
    diameter_used: float
    diameter_source: str
    K: float
    N: float
    bound: float
    margin: float
    discretization_tolerance: float
    verdict: str
    lambda_by_resolution: list = field(default_factory=list)
    # the descent's evidence at each resolution, in the same order
    iterations: list = field(default_factory=list)
    evaluations: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    residual: list = field(default_factory=list)


@dataclass
class ComparisonReport:
    fraction: float
    worst_violation: float
    tolerance: float
    inconclusive: bool = False
    reason: Optional[str] = None
    shrink: float = 0.0
    max_gap_core: Optional[float] = None


@dataclass
class LichnerowiczReport:
    applicable: bool
    threshold: float = 0.0
    holds: bool = True
    model_bound_holds: bool = True


@dataclass
class CaseResult:
    case_id: str
    report: BoundReport
    gradient_comparison: ComparisonReport
    maxima: ComparisonReport
    lichnerowicz: Optional[LichnerowiczReport]
    eigen: EigenResult
    domain: DiscreteDomain


def _normalized_u(eigen: EigenResult, reversible: bool):
    """Scale (and for reversible norms possibly flip) so min u = -1."""
    u = eigen.u.copy()
    if reversible and u.max() > -u.min():
        u = -u
    u = u / (-u.min())
    return u, float(u.max())


def case_name(case: dict) -> str:
    """A case's id as a string, "case" when it has none; a case that is not
    an object is a ValueError."""
    if not isinstance(case, dict):
        raise ValueError(f"case config must be an object, got {case!r}")
    return str(case.get("id", "case"))


class Case(NamedTuple):
    """A case config as :func:`read_case` reads it."""
    id: str
    spec: DomainSpec  # at the finest resolution
    resolutions: list
    seed: int
    certificate: CurvatureCertificate


def read_case(case: dict) -> Case:
    """The one reader of a case config.  Resolutions come distinct and
    ascending, a lone one with a half-size companion (the error bar needs
    two lattices); each, and the seed (default 0), is a whole number.  The
    certificate (default: the spec's curvature_certificate) needs a finite K
    and N >= dim.  Anything else is a ValueError naming the key or value."""
    name = case_name(case)
    given = case.get("resolutions", [])
    if not isinstance(given, (list, tuple)):
        raise ValueError(f"case {name}: resolutions must be a list, got {given!r}")
    given = [whole_number(r, "resolutions") for r in given]
    if not given:
        raise ValueError(f"case {name}: no resolutions given")
    if len(given) == 1:
        given.append(max(4, given[0] // 2))
    res = sorted(set(given))
    if len(res) < 2:
        raise ValueError(
            f"case {name}: resolutions {case['resolutions']} give one distinct "
            f"lattice; the error bar needs two (the floor is 4)")
    seed = whole_number(case.get("seed", 0), "seed")
    # built at the coarsest resolution, so DomainSpec checks every one
    spec = replace(domain_spec_from_config(dict(case, resolution=res[0])),
                   resolution=res[-1])
    cfg = case.get("certificate")
    if cfg is None:
        return Case(name, spec, res, seed, curvature_certificate(spec))
    K, N = (real_number(need(cfg, key, "certificate"), key) for key in ("K", "N"))
    if not math.isfinite(K):
        raise ValueError(f"certificate K = {cfg['K']!r} is not finite")
    if not N >= spec.dim:  # NaN too: Ric_N >= K needs N >= dim
        raise ValueError(f"certificate N = {cfg['N']!r} is not a number >= "
                         f"the dimension {spec.dim}, as Ric_N needs")
    return Case(name, spec, res, seed, CurvatureCertificate(K=K, N=N, provenance="user"))


def run_case(case: dict) -> CaseResult:
    """Solve, bound, and compare one case at its listed resolutions."""
    case_id, base, res_list, seed, cert = read_case(case)
    solves = []
    # neither depends on the resolution, and a certificate no space of this
    # diameter can have fails here, before any descent
    d_used = analytic_diameter(base)
    bound = lambda1_model(cert.K, cert.N, d_used)
    for r in res_list:
        spec = replace(base, resolution=r)  # base's NormSpec, with its cached dual
        dom = build_domain(spec)
        solves.append(minimize_rayleigh(dom, spec.norm, seed=seed))
    eigen = solves[-1]
    lams = [e.lam for e in solves]

    lam_num = lams[-1]
    tol_disc = max(2.0 * abs(lams[-1] - lams[-2]), 1e-8)
    margin = lam_num - bound
    # an unfinished descent only overstates lambda: it can still show a
    # violation, but never that the bound holds
    if margin < -tol_disc:
        verdict = "violated"
    elif not all(e.converged for e in solves):
        verdict = "inconclusive"
    elif margin >= 0.0:
        verdict = "holds"
    else:
        verdict = "holds_within_tol"

    report = BoundReport(
        case_id=case_id,
        lambda_numeric=lam_num,
        diameter_used=d_used,
        diameter_source="analytic",
        K=cert.K,
        N=cert.N,
        bound=bound,
        margin=margin,
        discretization_tolerance=tol_disc,
        verdict=verdict,
        lambda_by_resolution=[[r, l] for r, l in zip(res_list, lams)],
        iterations=[e.iterations for e in solves],
        evaluations=[e.evaluations for e in solves],
        converged=[e.converged for e in solves],
        residual=[e.residual for e in solves],
    )
    grad_cmp = check_gradient_comparison(dom, spec, cert, eigen)
    max_cmp = check_maxima(cert, eigen, spec)
    lich = lichnerowicz_check(cert, lam_num, bound) if cert.K > 0 else None
    return CaseResult(case_id=case_id, report=report,
                      gradient_comparison=grad_cmp, maxima=max_cmp,
                      lichnerowicz=lich, eigen=eigen, domain=dom)


def _model_guard(K: float, N: float, lam: float) -> Optional[str]:
    """Why no 1-D model family compares with eigenvalue lam, or None."""
    if N <= 1.0:
        return "certificate N <= 1 has no model family"
    if lam <= model_threshold(K, N) * (1.0 + 1e-9) + 1e-12:
        return "eigenvalue at or below model threshold"
    return None


def check_gradient_comparison(dom: DiscreteDomain, spec: DomainSpec,
                              cert: CurvatureCertificate,
                              eigen: EigenResult) -> ComparisonReport:
    """Pointwise check F*(Du) <= v'(v^{-1}(u)) against a fitted 1-D model.

    The model solution v is fitted (same eigenvalue, range [-1, k] covering
    the normalized u shrunk by 1e-6).  Reported is the fraction of interior
    nodes satisfying the inequality within C*h, C = 10*lambda; the worst gap;
    and the max |F*(Du) - v'(v^{-1}(u))| over the core |u| <= 0.9, which for
    flat cases must shrink at O(h^2).
    """
    K, N, lam = cert.K, cert.N, eigen.lam
    reason = _model_guard(K, N, lam)
    if reason:
        return ComparisonReport(0.0, 0.0, 0.0, inconclusive=True, reason=reason)
    shrink = 1e-6
    u, k = _normalized_u(eigen, is_reversible(spec.norm))
    try:
        v = fit_model_solution(K, N, lam, k)
    except (ValueError, SolverError) as exc:
        return ComparisonReport(0.0, 0.0, 0.0, inconclusive=True,
                                reason=f"model fit failed: {exc}")
    u_c = (1.0 - shrink) * u
    if u_c.max() >= v.max_value or u_c.min() <= -1.0:
        return ComparisonReport(0.0, 0.0, 0.0, inconclusive=True,
                                reason="shrunk range not inside the model range")

    Du = discrete_gradient(dom, u_c)
    fstar = dual_norm_eval(spec.norm, Du)
    W = v.vprime_of_value(u_c)
    interior = ~dom.boundary
    gap = fstar[interior] - W[interior]
    tol = 10.0 * lam * dom.h
    fraction = float(np.mean(gap <= tol))
    core = interior & (np.abs(u_c) <= 0.9)
    max_gap_core = float(np.max(np.abs(fstar[core] - W[core]))) if core.any() else None
    return ComparisonReport(
        fraction=fraction,
        worst_violation=float(gap.max()),
        tolerance=tol,
        shrink=shrink,
        max_gap_core=max_gap_core,
    )


# slack of max u >= m_{K,N} and of the Lichnerowicz threshold
_MAXIMA_TOL = 1e-3
_LICHNEROWICZ_TOL = 1e-8


def check_maxima(cert: CurvatureCertificate, eigen: EigenResult,
                 spec: DomainSpec) -> ComparisonReport:
    """Check max u >= m_{K,N} - _MAXIMA_TOL for the normalized eigenfunction
    (finite N)."""
    K, N, lam, tol = cert.K, cert.N, eigen.lam, _MAXIMA_TOL
    if not math.isfinite(N):
        return ComparisonReport(0.0, 0.0, tol, inconclusive=True,
                                reason="maxima comparison needs finite N")
    reason = _model_guard(K, N, lam)
    if reason:
        return ComparisonReport(0.0, 0.0, tol, inconclusive=True, reason=reason)
    u, k = _normalized_u(eigen, is_reversible(spec.norm))
    m_kn = model_solution(K, N, lam).max_value
    holds = k >= m_kn - tol
    return ComparisonReport(
        fraction=1.0 if holds else 0.0,
        worst_violation=max(0.0, m_kn - k),
        tolerance=tol,
    )


def lichnerowicz_check(cert: CurvatureCertificate, lam_numeric: float,
                       bound: Optional[float] = None) -> LichnerowiczReport:
    """For K > 0: lambda >= N K/(N-1), and the model bound lambda_1(K, N, d),
    if given, dominates it (each within _LICHNEROWICZ_TOL)."""
    if cert.K <= 0:
        return LichnerowiczReport(applicable=False)
    threshold, tol = model_threshold(cert.K, cert.N), _LICHNEROWICZ_TOL
    return LichnerowiczReport(applicable=True, threshold=threshold,
                              holds=lam_numeric >= threshold - tol,
                              model_bound_holds=bound is None or bound >= threshold - tol)


# ---------------------------------------------------------------------------
# suites


def golden_cases() -> list[dict]:
    """The verification suite: sharp 1-D cases, boxes (one 3-D), weighted
    boxes, balls."""
    base = [
        {
            "id": "sharp-1d-twoslope-sym",
            "domain": {"shape": "interval", "length": 1.0},
            "norm": {"family": "two_slope_1d", "dim": 1,
                     "params": {"a_plus": 2.0, "a_minus": 2.0}},
            "weight": {"kind": "lebesgue"},
            "certificate": {"K": 0.0, "N": "inf"},
            "resolutions": [100, 200],
            "sharp": True,
        },
        {
            "id": "sharp-1d-twoslope-asym",
            "domain": {"shape": "interval", "length": 1.0},
            "norm": {"family": "two_slope_1d", "dim": 1,
                     "params": {"a_plus": 2.0, "a_minus": 0.5}},
            "weight": {"kind": "lebesgue"},
            "certificate": {"K": 0.0, "N": "inf"},
            "resolutions": [100, 200],
            "sharp": True,
        },
        {
            "id": "sharp-1d-gauss-twoslope-asym",
            "domain": {"shape": "interval", "length": 1.0},
            "norm": {"family": "two_slope_1d", "dim": 1,
                     "params": {"a_plus": 2.0, "a_minus": 0.5}},
            "weight": {"kind": "gaussian", "kappa": 1.0},
            "resolutions": [100, 200],
            "sharp": True,
        },
        {
            "id": "box-euclid",
            "domain": {"shape": "box", "lengths": [1.0, 1.0]},
            "norm": {"family": "euclidean", "dim": 2},
            "weight": {"kind": "lebesgue"},
            "resolutions": [30, 60],
        },
        {
            "id": "box-quadratic",
            "domain": {"shape": "box", "lengths": [1.0, 1.0]},
            "norm": {"family": "quadratic", "dim": 2,
                     "params": {"A": [1.0, 0.0, 0.0, 4.0]}},
            "weight": {"kind": "lebesgue"},
            "resolutions": [30, 60],
        },
        {
            "id": "box-randers",
            "domain": {"shape": "box", "lengths": [1.0, 1.0]},
            "norm": {"family": "randers", "dim": 2,
                     "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.3, 0.0]}},
            "weight": {"kind": "lebesgue"},
            "resolutions": [30, 60],
        },
        {
            "id": "box-gauss-half",
            "domain": {"shape": "box", "lengths": [5.0, 5.0]},
            "norm": {"family": "euclidean", "dim": 2},
            "weight": {"kind": "gaussian", "kappa": 0.5},
            "resolutions": [6, 12],
        },
        {
            "id": "box-gauss-one",
            "domain": {"shape": "box", "lengths": [4.0, 4.0]},
            "norm": {"family": "euclidean", "dim": 2},
            "weight": {"kind": "gaussian", "kappa": 1.0},
            "resolutions": [8, 16],
        },
        {
            "id": "box-gauss-quadratic",
            "domain": {"shape": "box", "lengths": [4.0, 4.0]},
            "norm": {"family": "quadratic", "dim": 2,
                     "params": {"A": [1.0, 0.0, 0.0, 4.0]}},
            "weight": {"kind": "gaussian", "kappa": 1.0},
            "resolutions": [8, 16],
        },
        {
            "id": "box-gauss-randers",
            "domain": {"shape": "box", "lengths": [4.0, 4.0]},
            "norm": {"family": "randers", "dim": 2,
                     "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.3, 0.0]}},
            "weight": {"kind": "gaussian", "kappa": 1.0},
            "resolutions": [8, 16],
        },
        {
            "id": "box3d-euclid",
            "domain": {"shape": "box", "lengths": [1.0, 1.0, 1.0]},
            "norm": {"family": "euclidean", "dim": 3},
            "weight": {"kind": "lebesgue"},
            "resolutions": [8, 16],
        },
        {
            "id": "ball-euclid",
            "domain": {"shape": "ball", "radius": 0.5},
            "norm": {"family": "euclidean", "dim": 2},
            "weight": {"kind": "lebesgue"},
            "resolutions": [20, 40],
        },
        {
            "id": "ball-randers",
            "domain": {"shape": "ball", "radius": 0.5},
            "norm": {"family": "randers", "dim": 2,
                     "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.2, 0.1]}},
            "weight": {"kind": "lebesgue"},
            "resolutions": [20, 40],
        },
    ]
    return base


def _case_summary(result: CaseResult) -> dict:
    out = {
        "id": result.case_id,
        "error": None,
        "bound_report": asdict(result.report),
        "gradient_comparison": asdict(result.gradient_comparison),
        "maxima": asdict(result.maxima),
        "lichnerowicz": asdict(result.lichnerowicz) if result.lichnerowicz else None,
    }
    if not math.isfinite(out["bound_report"]["N"]):
        out["bound_report"]["N"] = "inf"
    return out


def write_eigenfunction_csv(path: str, nodes: np.ndarray, u: np.ndarray) -> None:
    """One row per node: coordinates x1..x_dim, then u, at full precision.
    The bytes are those of the csv module's default dialect: no field needs
    quoting, and each row ends in CRLF."""
    header = ",".join([f"x{i+1}" for i in range(nodes.shape[1])] + ["u"])
    rows = np.column_stack([nodes, u]).tolist()
    with open(path, "w", newline="") as f:
        f.write(header + "\r\n")
        f.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _pipeline(case: dict, name: str, seen: set):
    """Run one case; its id ``name`` names its CSV dump, so an id that
    repeats one in ``seen`` or is not a plain file name is the case's error."""
    try:
        if name in ("", ".", "..") or "/" in name or os.sep in name:
            raise ValueError(f"case id {name!r} is not a plain file name")
        if name in seen:
            raise ValueError(f"case id {name!r} repeats an earlier case's id")
        seen.add(name)
        result = run_case(case)
        summary = _case_summary(result)
        return name, summary, (result.domain.nodes, result.eigen.u)
    except Exception as exc:  # per-case isolation: record, do not abort
        return name, {"id": name, "error": str(exc)}, None


@dataclass
class SuiteResult:
    summaries: list
    exit_code: int


def run_suite(config: dict, out_dir: str, jobs: int = 1) -> SuiteResult:
    """Run the config's cases in order; write summary.json, bounds.csv and
    per-case eigenfunction dumps.  The exit code is 0 when every case reads
    holds or holds_within_tol, 1 when some case is violated, and 2 when
    none is but some case raised or is inconclusive: a case that decides
    nothing does not pass.  A config whose ``cases`` is missing or is not
    a list of objects is a ValueError, raised before any case runs.
    ``jobs`` must be 1; it is accepted because perfbench's worker passes it.
    """
    if jobs != 1:
        raise ValueError("run_suite runs its cases in order; jobs must be 1")
    cases = config.get("cases") if isinstance(config, dict) else None
    if not isinstance(cases, list):
        raise ValueError(f"suite config 'cases' must be a list, got {cases!r}")
    names = [case_name(case) for case in cases]  # refuses a non-object entry
    os.makedirs(out_dir, exist_ok=True)

    seen = set()
    results = sorted((_pipeline(case, name, seen) for case, name in zip(cases, names)),
                     key=lambda t: t[0])
    summaries, verdicts = [], []  # an error row's verdict is "error"
    for case_id, summary, dump in results:
        summaries.append(summary)
        if summary.get("error") is not None:
            verdicts.append("error")
            continue
        verdicts.append(summary["bound_report"]["verdict"])
        write_eigenfunction_csv(os.path.join(out_dir, f"case-{case_id}.csv"), *dump)
    violated = verdicts.count("violated")

    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump({"cases": summaries, "n_violated": violated},
                  f, indent=2, sort_keys=True)
        f.write("\n")

    with open(os.path.join(out_dir, "bounds.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "lambda_numeric", "diameter", "K", "N", "bound",
                    "margin", "discretization_tolerance", "verdict"])
        for s in summaries:
            if s.get("error") is not None:
                w.writerow([s["id"], "error", "", "", "", "", "", "", s["error"]])
                continue
            r = s["bound_report"]
            w.writerow([r["case_id"], r["lambda_numeric"], r["diameter_used"], r["K"],
                        r["N"], r["bound"], r["margin"],
                        r["discretization_tolerance"], r["verdict"]])

    if violated:
        exit_code = 1
    elif set(verdicts) <= {"holds", "holds_within_tol"}:
        exit_code = 0
    else:
        exit_code = 2
    return SuiteResult(summaries=summaries, exit_code=exit_code)
