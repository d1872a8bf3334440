#!/usr/bin/env python3
"""Run the golden verification suite and print the bound table.

Runs harness.golden_cases() into the chosen output directory.  Each case's
line is followed by the descent's iterations and convergence at every
resolution; the last line is the suite's wall time.  The tracked
golden_suite.json next to this script is the same suite as a config file for
`fingap suite`; the tests pin the two equal.  Exit status is nonzero iff some
case violates its bound beyond the discretization tolerance.

Usage: python scripts/run_golden_suite.py [--out OUT_DIR] [--jobs K]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fingap.harness import golden_cases, run_suite  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/golden")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    t0 = time.perf_counter()
    result = run_suite({"cases": golden_cases()}, out_dir=args.out, jobs=args.jobs)
    wall = time.perf_counter() - t0
    print(f"{'case':24s} {'lambda':>10s} {'bound':>10s} {'margin':>11s} verdict")
    for s in result.summaries:
        if s.get("error") is not None:
            print(f"{s['id']:24s} ERROR: {s['error']}")
            continue
        r = s["bound_report"]
        print(f"{r['case_id']:24s} {r['lambda_numeric']:10.6f} "
              f"{r['bound']:10.6f} {r['margin']:+11.3e} {r['verdict']}")
        solves = zip(r["lambda_by_resolution"], r["iterations"], r["converged"])
        print(" " * 24 + "  ".join(f"r={res} it={it} converged={conv}"
                                   for (res, _), it, conv in solves))
    print(f"suite wall time {wall:.2f} s; outputs in {result.out_dir}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
