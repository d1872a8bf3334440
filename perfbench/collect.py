#!/usr/bin/env python3
"""Repeat the benchmark over seeds and write the baseline.

Usage (from the repository root):

  python3 perfbench/collect.py --seeds 1-10 --workloads golden,model-sweep,mesh-scale \\
      --out perfbench/baseline.json

Runs every workload once per seed, untraced, interleaving the workloads so
that a slow spell of the machine falls on all of them.  For each end-to-end
metric it prints the median and the spread, the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the bound from BENCHMARK.json.  Then it makes one traced run per
workload, on the first seed, and records the per-layer metrics.  Accuracy and fail_frac are
taken from the lines each run prints.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

PRINTED = ("lambda_err_max", "oracle_gap_max", "fail_frac",
           "model_eval_p50_ms", "model_eval_p99_ms")


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[2] == "=" and parts[1] in PRINTED:
            printed[parts[1]] = float(parts[3])
    fails = [line for line in lines if " FAIL " in line]
    env = next(json.loads(line.split(" env ", 1)[1]) for line in lines if " env " in line)
    return {"result": res, "printed": printed, "fails": fails, "env": env}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: the workloads of BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in bench["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = one_run(w, seed, seconds, 0)
            runs[w].append(r)
            m = r["result"]["metrics"]
            print(f"{w:12s} seed {seed:3d} correct={r['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items()), flush=True)
            for line in r["fails"]:
                print("   ", line)

    summary = {}
    print(f"\n{'workload':12s} {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        summary[w] = {"end_to_end": {}, "printed": {}, "failed_runs": {}}
        for name in bounds:
            s = spread([r["result"]["metrics"][name]["value"] for r in runs[w]])
            summary[w]["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  (above a third of the bound)"
            print(f"{w:12s} {name:18s} {s['median']:12.5g} {s['spread']:8.4f} "
                  f"{bounds[name]:6.2f}{flag}")
        for name in PRINTED:
            vals = [r["printed"][name] for r in runs[w] if name in r["printed"]]
            if vals:
                summary[w]["printed"][name] = {"median": statistics.median(vals),
                                               "min": min(vals), "max": max(vals)}
        summary[w]["failed_runs"] = {str(s): r["fails"] for s, r in zip(seeds, runs[w])
                                     if r["fails"]}

    for w in workloads:
        r = one_run(w, seeds[0], seconds, 1)
        summary[w]["per_layer"] = {k: v["value"] for k, v in r["result"]["metrics"].items()}
        summary[w]["per_layer_seed"] = seeds[0]

    if args.out:
        with open(args.out, "w") as f:
            env = dict(next(iter(runs.values()))[0]["env"], seed=None)
            json.dump({"env": env, "seeds": seeds, "run_seconds": seconds,
                       "workloads": summary}, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
