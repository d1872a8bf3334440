"""Command-line entry points.

Subcommands:
  model-eig    print lambda_1(K, N, d) for one parameter triple
  model-table  CSV of (K, N, d, lambda) over a config-specified grid
  geom         node count, total measure, analytic and lattice diameters
  solve        discrete eigensolve for one case config
  verify       bound verification for one case config
  suite        the golden suite, or the suite of a config file

verify and suite print one row per case.  Every command exits 0 when it ran
and every case holds (within its tolerance), 1 when some case is violated,
and 2 when nothing is decided: a case raised or is inconclusive, a solve
failed, or the input (a file, grid, or case as harness.read_case reads it)
is bad, which prints one "error:" line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import time

import numpy as np

from .domain import DomainSpec, analytic_diameter, build_domain, diameter
from .eigensolver import minimize_rayleigh
from .harness import (case_name, golden_cases, read_case, run_suite,
                      write_eigenfunction_csv)
from .model1d import SolverError, lambda1_model
from .norms import real_number

_DISK_J11 = 1.8411837813  # first zero of J_1', the Neumann disk eigenvalue


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def cmd_model_eig(args) -> int:
    lam = lambda1_model(args.K, args.N, args.d)
    print(f"lambda1(K={args.K}, N={args.N}, d={args.d}) = {lam:.12g}")
    return 0


def _grid_axis(grid: dict, key: str, admissible, rule: str) -> list[float]:
    """The model-table grid's list under ``key``, each entry read by
    real_number (so N may be the string "inf") and checked against
    ``admissible``."""
    values = grid.get(key) if isinstance(grid, dict) else None
    if not isinstance(values, list):
        raise ValueError(f"model-table config {key!r} must be a list, got {values!r}")
    out = []
    for v in values:
        try:
            x = real_number(v, key)
        except ValueError:
            x = math.nan
        if not admissible(x):
            raise ValueError(f"model-table config {key!r} entry {v!r} is not {rule}")
        out.append(x)
    return out


def cmd_model_table(args) -> int:
    grid = _load_json(args.config)
    Ks = _grid_axis(grid, "K", math.isfinite, "a finite number")
    Ns = _grid_axis(grid, "N", lambda N: N > 1.0, "a number > 1 or inf")
    ds = _grid_axis(grid, "d", lambda d: 0.0 < d < math.inf,
                    "a positive finite number")
    failed = False
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        w = csv.writer(out)
        w.writerow(["K", "N", "d", "lambda"])
        for K, N, d in itertools.product(Ks, Ns, ds):
            try:
                lam = lambda1_model(K, N, d)
            except ValueError:
                lam = "NA"  # past the admissible length: the grid is valid
            except SolverError:
                lam, failed = "error", True
            w.writerow([K, N, d, lam])
    return 2 if failed else 0


def cmd_geom(args) -> int:
    spec = read_case(_load_json(args.spec)).spec
    dom = build_domain(spec)
    print(f"nodes: {dom.n_nodes}")
    print(f"total measure: {dom.total_measure:.12g}")
    print(f"analytic diameter: {analytic_diameter(spec):.12g}")
    print(f"lattice diameter: {diameter(dom, spec.norm):.12g}")
    return 0


def cmd_solve(args) -> int:
    case = read_case(_load_json(args.spec))
    dom = build_domain(case.spec)
    res = minimize_rayleigh(dom, case.spec.norm, seed=case.seed)
    print(f"lambda = {res.lam:.12g}")
    print(f"residual = {res.residual:.3e}")
    print(f"iterations = {res.iterations}")
    print(f"evaluations = {res.evaluations}")
    print(f"converged = {res.converged}")
    if args.dump_u:
        write_eigenfunction_csv(args.dump_u, dom.nodes, res.u)
        print(f"wrote {args.dump_u}")
    return 0


def _closed_form(spec: DomainSpec):
    """The exact first Neumann eigenvalue of the case's continuum problem, or
    None where there is none or lambda1_model cannot give it.

    A case that separates by axis (a 1-D norm, or a Euclidean or diagonal
    quadratic box; Lebesgue or Gaussian) has
    min_k lambda1_model(kappa, inf, L_k) / c_k, with kappa = 0 for the
    Lebesgue weight: the eigenvalue of -u'' + kappa x u' on [-L_k/2, L_k/2]
    over the weight F*(xi)^2 puts on axis k, c_k = A_kk for the box and
    (sqrt(A) + |b|)^2, the larger slope squared, for F(v) = sqrt(A)|v| + bv
    on an interval, whose monotone eigenfunction sees one slope.
    The Euclidean disk of radius R has (j'_{1,1}/R)^2.
    """
    norm = spec.norm
    if spec.shape == "ball":
        if norm.A is None and norm.dim == 2 and spec.weight == "lebesgue":
            return (_DISK_J11 / spec.radius) ** 2
        return None
    A = np.eye(norm.dim) if norm.A is None else norm.A
    if norm.b is None:
        if np.any(A != np.diag(np.diag(A))):
            return None
        c = np.diag(A)
    elif norm.dim == 1:
        c = [(math.sqrt(A[0, 0]) + abs(norm.b[0])) ** 2]
    else:
        return None
    kappa = spec.kappa if spec.weight == "gaussian" else 0.0
    try:
        return min(lambda1_model(kappa, math.inf, L) / c_k
                   for L, c_k in zip(spec.lengths, c))
    except (ValueError, SolverError):
        return None


def _run_and_print(config: dict, out_dir: str) -> int:
    """Run the suite and print each case's row: lambda, its relative error
    against the closed form ("-" where there is none), the gradient
    comparison's fraction of nodes within tolerance and its core gap ("-"
    where the comparison is inconclusive), diameter, bound, margin and
    verdict, then the descent's iterations, evaluations and convergence at
    every resolution; the last line is the suite's wall time."""
    t0 = time.perf_counter()
    result = run_suite(config, out_dir=out_dir)
    wall = time.perf_counter() - t0
    print(f"{'case':28s} {'lambda':>10s} {'rel err':>10s} {'fraction':>8s} "
          f"{'core gap':>10s} {'d':>8s} {'bound':>10s} {'margin':>11s} verdict")
    for s in result.summaries:
        if s.get("error") is not None:
            print(f"{s['id']:28s} ERROR: {s['error']}")
            continue
        r = s["bound_report"]
        # of the cases sharing an id, the first ran and the rest are errors
        case = next(c for c in config["cases"] if case_name(c) == r["case_id"])
        lam, ref = r["lambda_numeric"], _closed_form(read_case(case).spec)
        err = "-" if ref is None else f"{(lam - ref) / ref:+.2e}"
        g = s["gradient_comparison"]
        frac, gap = "-", "-"
        if not g["inconclusive"]:
            frac = f"{g['fraction']:.6f}"
            gap = "-" if g["max_gap_core"] is None else f"{g['max_gap_core']:.3e}"
        print(f"{r['case_id']:28s} {lam:10.6f} {err:>10s} {frac:>8s} {gap:>10s} "
              f"{r['diameter_used']:8.4f} {r['bound']:10.6f} {r['margin']:+11.3e} "
              f"{r['verdict']}")
        solves = zip(r["lambda_by_resolution"], r["iterations"], r["evaluations"],
                     r["converged"])
        print(" " * 28 + "  ".join(f"r={res} it={it} ev={ev} converged={conv}"
                                   for (res, _), it, ev, conv in solves))
    print(f"suite wall time {wall:.2f} s; outputs in {out_dir}")
    return result.exit_code


def cmd_verify(args) -> int:
    return _run_and_print({"cases": [_load_json(args.spec)]}, args.out)


def cmd_suite(args) -> int:
    config = {"cases": golden_cases()} if args.config is None else _load_json(args.config)
    return _run_and_print(config, args.out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="fingap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("model-eig", help="print lambda_1(K, N, d)")
    pe.add_argument("--K", type=float, required=True)
    pe.add_argument("--N", type=float, required=True,
                    help="dimension parameter in (1, inf]; pass 'inf' for infinity")
    pe.add_argument("--d", type=float, required=True)
    pe.set_defaults(fn=cmd_model_eig)

    pt = sub.add_parser("model-table", help="CSV of lambda_1 over a grid")
    pt.add_argument("--config", required=True,
                    help="JSON file with lists under keys K, N, d")
    pt.add_argument("--out", default=None, help="output CSV (default stdout)")
    pt.set_defaults(fn=cmd_model_table)

    pg = sub.add_parser("geom", help="domain geometry summary")
    pg.add_argument("--spec", required=True, help="case config JSON")
    pg.set_defaults(fn=cmd_geom)

    ps = sub.add_parser("solve", help="discrete eigensolve")
    ps.add_argument("--spec", required=True, help="case config JSON")
    ps.add_argument("--dump-u", default=None, help="write eigenfunction CSV")
    ps.set_defaults(fn=cmd_solve)

    pv = sub.add_parser("verify", help="verify the bound for one case")
    pv.add_argument("--spec", required=True, help="case config JSON")
    pv.add_argument("--out", required=True, help="output directory")
    pv.set_defaults(fn=cmd_verify)

    pu = sub.add_parser("suite", help="run a verification suite")
    pu.add_argument("--config", default=None,
                    help="suite config JSON (default: the golden suite)")
    pu.add_argument("--out", required=True, help="output directory")
    pu.set_defaults(fn=cmd_suite)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, SolverError) as exc:  # a bad input: nothing decided
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
