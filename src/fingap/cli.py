"""Command-line entry points.

Subcommands:
  model-eig    print lambda_1(K, N, d) for one parameter triple
  model-table  CSV of (K, N, d, lambda) over a config-specified grid
  geom         node count, total measure, analytic and lattice diameters
  solve        discrete eigensolve for one case config
  verify       bound verification for one case config
  suite        full verification suite from a config file
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys

from .domain import analytic_diameter, build_domain, diameter, domain_spec_from_config
from .eigensolver import minimize_rayleigh
from .harness import case_resolutions, run_suite, write_eigenfunction_csv
from .model1d import lambda1_model


def _load_case(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _finest_spec(case: dict):
    return domain_spec_from_config(dict(case, resolution=case_resolutions(case)[-1]))


def cmd_model_eig(args) -> int:
    lam = lambda1_model(args.K, args.N, args.d)
    print(f"lambda1(K={args.K}, N={args.N}, d={args.d}) = {lam:.12g}")
    return 0


def cmd_model_table(args) -> int:
    with open(args.config) as f:
        grid = json.load(f)
    Ks = [float(k) for k in grid["K"]]
    Ns = [float(n) for n in grid["N"]]
    ds = [float(d) for d in grid["d"]]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(out)
    w.writerow(["K", "N", "d", "lambda"])
    for K, N, d in itertools.product(Ks, Ns, ds):
        try:
            lam = repr(lambda1_model(K, N, d))
        except ValueError:
            lam = "NA"  # outside the admissible length range
        w.writerow([repr(K), "inf" if math.isinf(N) else repr(N), repr(d), lam])
    if args.out:
        out.close()
    return 0


def cmd_geom(args) -> int:
    case = _load_case(args.spec)
    spec = _finest_spec(case)
    dom = build_domain(spec)
    print(f"nodes: {dom.n_nodes}")
    print(f"total measure: {dom.total_measure:.12g}")
    print(f"analytic diameter: {analytic_diameter(spec):.12g}")
    print(f"lattice diameter: {diameter(dom, spec.norm):.12g}")
    return 0


def cmd_solve(args) -> int:
    case = _load_case(args.spec)
    spec = _finest_spec(case)
    dom = build_domain(spec)
    res = minimize_rayleigh(dom, spec.norm, seed=args.seed)
    print(f"lambda = {res.lam:.12g}")
    print(f"residual = {res.residual:.3e}")
    print(f"iterations = {res.iterations}")
    print(f"evaluations = {res.evaluations}")
    print(f"converged = {res.converged}")
    if args.dump_u:
        write_eigenfunction_csv(args.dump_u, dom.nodes, res.u)
        print(f"wrote {args.dump_u}")
    return 0


def cmd_verify(args) -> int:
    case = _load_case(args.spec)
    result = run_suite({"cases": [case]}, out_dir=args.out)
    summary = result.summaries[0]
    if summary.get("error") is not None:
        print(f"error: {summary['error']}")
        return 2
    r = summary["bound_report"]
    print(f"case {r['case_id']}: lambda={r['lambda_numeric']:.8g} "
          f"d={r['diameter_used']:.6g} bound={r['bound']:.8g} "
          f"margin={r['margin']:+.3e} verdict={r['verdict']}")
    return result.exit_code


def cmd_suite(args) -> int:
    result = run_suite(args.config, out_dir=args.out)
    for s in result.summaries:
        if s.get("error") is not None:
            print(f"{s['id']}: ERROR {s['error']}")
            continue
        r = s["bound_report"]
        print(f"{r['case_id']}: lambda={r['lambda_numeric']:.8g} "
              f"bound={r['bound']:.8g} margin={r['margin']:+.3e} "
              f"-> {r['verdict']}")
    print(f"summary written to {result.out_dir}")
    return result.exit_code


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
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--dump-u", default=None, help="write eigenfunction CSV")
    ps.set_defaults(fn=cmd_solve)

    pv = sub.add_parser("verify", help="verify the bound for one case")
    pv.add_argument("--spec", required=True, help="case config JSON")
    pv.add_argument("--out", required=True, help="output directory")
    pv.set_defaults(fn=cmd_verify)

    pu = sub.add_parser("suite", help="run a verification suite")
    pu.add_argument("--config", required=True, help="suite config JSON")
    pu.add_argument("--out", required=True, help="output directory")
    pu.set_defaults(fn=cmd_suite)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
