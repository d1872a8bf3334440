#!/usr/bin/env python3
"""Run the golden verification suite and print the bound table.

Runs harness.golden_cases() into the chosen output directory.  Each case's
line gives lambda's relative error against the case's closed form where one
exists (min_k lambda1_model(kappa, inf, L_k) / c_k for two-slope intervals
and diagonal quadratic boxes, kappa = 0 without a weight, and
(j'_{1,1}/R)^2 for the Euclidean disk; "-" otherwise) and the gradient
comparison's fraction of nodes within tolerance and its core gap
max |F*(Du) - v'(v^{-1}(u))| over |u| <= 0.9 ("-" where the comparison is
inconclusive), and is followed by the descent's iterations, energy+gradient
evaluations and convergence at every resolution; the last line is the
suite's wall time.  This script is the golden suite's entry point; `fingap
suite` runs any other suite config.  Exit status is nonzero iff some case
errors or has a verdict other than holds or holds_within_tol.

Usage: python scripts/run_golden_suite.py [--out OUT_DIR]
"""

import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fingap.harness import golden_cases, run_suite  # noqa: E402
from fingap.model1d import lambda1_model  # noqa: E402

DISK_J11 = 1.8411837813  # first zero of J_1', the Neumann disk eigenvalue


def closed_form(case: dict):
    """The exact first Neumann eigenvalue of the case's continuum problem, or
    None where there is no closed form.

    A case that separates by axis (a two-slope interval, a Euclidean or
    diagonal quadratic box, Lebesgue or Gaussian) has
    min_k lambda1_model(kappa, inf, L_k) / c_k, with kappa = 0 for the
    Lebesgue weight: the eigenvalue of -u'' + kappa x u' on [-L_k/2, L_k/2]
    over the weight F*(xi)^2 puts on axis k, c_k = A_kk for the box and
    a_max^2 for the interval, whose monotone eigenfunction sees one slope.
    """
    shape, norm = case["domain"], case["norm"]
    family, params = norm["family"], norm.get("params", {})
    weight = case.get("weight", {"kind": "lebesgue"})
    if shape["shape"] == "ball":
        if family == "euclidean" and norm["dim"] == 2 and weight["kind"] == "lebesgue":
            return (DISK_J11 / shape["radius"]) ** 2
        return None
    lengths = shape["lengths"] if shape["shape"] == "box" else [shape["length"]]
    if family == "two_slope_1d":
        c = [max(params["a_plus"], params["a_minus"]) ** 2]
    elif family in ("euclidean", "quadratic"):
        dim = norm["dim"]
        A = params.get("A", [float(i == j) for i in range(dim) for j in range(dim)])
        if any(A[i * dim + j] for i in range(dim) for j in range(dim) if i != j):
            return None
        c = [A[k * dim + k] for k in range(dim)]
    else:
        return None
    kappa = weight["kappa"] if weight["kind"] == "gaussian" else 0.0
    return min(lambda1_model(kappa, math.inf, L) / c_k for L, c_k in zip(lengths, c))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/golden")
    args = ap.parse_args()

    t0 = time.perf_counter()
    cases = golden_cases()
    result = run_suite({"cases": cases}, out_dir=args.out)
    wall = time.perf_counter() - t0
    exact = {c["id"]: closed_form(c) for c in cases}
    print(f"{'case':28s} {'lambda':>10s} {'rel err':>10s} {'fraction':>8s} "
          f"{'core gap':>10s} {'bound':>10s} {'margin':>11s} verdict")
    for s in result.summaries:
        if s.get("error") is not None:
            print(f"{s['id']:28s} ERROR: {s['error']}")
            continue
        r = s["bound_report"]
        lam, ref = r["lambda_numeric"], exact[r["case_id"]]
        err = "-" if ref is None else f"{(lam - ref) / ref:+.2e}"
        g = s["gradient_comparison"]
        frac, gap = "-", "-"
        if not g["inconclusive"]:
            frac = f"{g['fraction']:.6f}"
            gap = "-" if g["max_gap_core"] is None else f"{g['max_gap_core']:.3e}"
        print(f"{r['case_id']:28s} {lam:10.6f} {err:>10s} {frac:>8s} {gap:>10s} "
              f"{r['bound']:10.6f} {r['margin']:+11.3e} {r['verdict']}")
        solves = zip(r["lambda_by_resolution"], r["iterations"], r["evaluations"],
                     r["converged"])
        print(" " * 28 + "  ".join(f"r={res} it={it} ev={ev} converged={conv}"
                                   for (res, _), it, ev, conv in solves))
    print(f"suite wall time {wall:.2f} s; outputs in {result.out_dir}")
    passed = all(s.get("error") is None
                 and s["bound_report"]["verdict"] in ("holds", "holds_within_tol")
                 for s in result.summaries)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
