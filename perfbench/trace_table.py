#!/usr/bin/env python3
"""Print the per-layer tables of traced runs.

Usage: python3 perfbench/trace_table.py [TRACE.json ...]

With no arguments it reads every ``.perfbench_out/trace-*.json``.  For each
file it prints the span table (calls, total and self time, share of the
traced wall, tracing overhead); then one table of the per-layer metrics with
a column per workload, which is the layer baseline of ROADMAP.md rebuilt from
the traces.  To make fresh traces of all three workloads:

  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main(argv: list) -> int:
    paths = argv or sorted(glob.glob(os.path.join(".perfbench_out", "trace-*.json")))
    if not paths:
        print("no trace files; run perfbench/run.py with --trace 1 first", file=sys.stderr)
        return 1
    traces = []
    for path in paths:
        with open(path) as f:
            t = json.load(f)
        traces.append(t)
        print(f"== {t['workload']} (seed {t['env']['seed']}, commit "
              f"{t['env']['git_commit']}, src {t['env']['src_sha256']}) {path}")
        print(layers.table(t["spans"], t["traced_wall_s"], t["untraced_wall_s"],
                           t["span_cost_s"]))
        print()
    cols = [f"{t['workload']}/{t['env']['seed']}" for t in traces]
    print(f"{'metric':44s} {'unit':6s} " + " ".join(f"{c:>16s}" for c in cols))
    for name, unit in layers.catalogue("per_layer").items():
        vals = " ".join(f"{t['metrics'][name]:16.6g}" for t in traces)
        moves = layers.MOVES[name]
        print(f"{name:44s} {unit:6s} {vals}  ({moves})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
