#!/usr/bin/env python3
"""Self-check of the benchmark on tiny inputs (about a minute).

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload with --tiny (model-sweep too), untraced and traced, and asserts that the
last output line is the result object, that it is correct, and that every
metric BENCHMARK.json names is emitted with its unit.  Also checks that
the benchmark fails without a result in a directory holding only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(args: list, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict, label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert res["correct"] is True and res["failed"] == 0, f"{label}:\n{proc.stdout}"
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, label
    assert set(res["metrics"]) == set(expected), \
        f"{label}: metrics differ: {set(res['metrics']) ^ set(expected)}"
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{label}: {name}"
        assert m["unit"] == expected[name], f"{label}: {name} unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{label}: {name} = {m['value']!r}"
    print(f"ok  {label}: {len(res['metrics'])} metrics, {res['attempted']} attempted")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(per_layer) <= set(layers.MOVES), set(per_layer) - set(layers.MOVES)

    for w in WORKLOADS:
        for trace, expected in (("0", e2e), ("1", per_layer)):
            proc = run(["--workload", w, "--seed", "0", "--seconds", "1",
                        "--trace", trace, "--tiny"], root)
            check_result(proc, expected, f"{w} --trace {trace}")

    bare = tempfile.mkdtemp(dir=root, prefix=".perfbench_bare_")
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(root, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "golden", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, \
            "benchmark must fail without the program's sources"
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
