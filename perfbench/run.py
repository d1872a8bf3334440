#!/usr/bin/env python3
"""fingap benchmark: one workload per call, end to end or traced.

Usage (from the repository root):

  python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: golden, model-sweep, mesh-scale (``all`` runs the three in turn).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are BENCHMARK.json's end-to-end ones (setup_s, wall_s,
peak_rss_mb); with ``--trace 1`` its per-layer ones, and the spans
are written to ``.perfbench_out/trace-<workload>-seed<n>.json`` (read them
again with trace_table.py).  Accuracy (lambda_err_max, oracle_gap_max),
fail_frac and the model-eval latencies are printed on the lines before it.

``failed`` counts every item that misses a check, so fail_frac = failed /
attempted.  ``correct`` is false when an output check misses: an exception,
a violated verdict, a reference, oracle, fit or diameter check.  A miss of
solver health alone (converged=False, or a stall) counts in ``failed`` and
is printed, but leaves ``correct`` true, because the outputs were checked.

Set-up (inputs and references with their oracles, made three times for a
median; then the worker's import and warm-up) happens before the timed
passes; the passes run in a separate worker process (worker.py), whose peak
RSS is reported.  BLAS is fixed to one thread.  Exits 2 without a
result when ``src/fingap`` is missing from the current directory.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import TOL, WORKLOADS, make_inputs, references  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3  # inputs and references are made this often; the median counts


def environment(seed: int) -> dict:
    """What a result depends on besides the code: stamped on every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 2.0 has no mode="dicts"
        blas_version = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fingap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def worker_timeout(seconds: float) -> float:
    """Seconds the worker may take.  Its untraced passes end with the first
    pass that ends past ``seconds``; the margin covers that last pass, the
    warm-up and one traced pass of golden on a slow host."""
    return 2.0 * seconds + 150.0


def run_worker(inputs: dict, tmp: str) -> dict:
    inp_path = os.path.join(tmp, "inputs.json")
    out_path = os.path.join(tmp, "result.json")
    with open(inp_path, "w") as f:
        json.dump(inputs, f)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), inp_path, out_path],
        cwd=ROOT, timeout=worker_timeout(inputs["seconds"]), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(out_path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# correctness


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def check_lattice(out: dict, cases: list, refs: dict, oracle: dict,
                  geom: bool, fails: list, acc: dict) -> int:
    """Checks of one pass over lattice cases; returns the cases attempted.

    Each failing case adds (id, reason, gate) to fails.  gate is False when
    the only misses are solver health (converged=False, a stall): those count
    in fail_frac but the outputs themselves were still checked and passed.
    """
    by_id = {s["id"]: s for s in out["summaries"]}
    for cfg in cases:
        cid = cfg["id"]
        s = by_id.get(cid)
        if s is None or s.get("error") is not None:
            fails.append((cid, f"exception: {s.get('error') if s else 'no summary'}", True))
            continue
        gate, health = [], []
        r = s["bound_report"]
        if r["verdict"] not in ("holds", "holds_within_tol"):
            gate.append(f"verdict {r['verdict']}")
        solves = out["solves"].get(cid, [])
        if len(solves) != len(cfg["resolutions"]):
            gate.append(f"{len(solves)} solves for {len(cfg['resolutions'])} resolutions")
        for sv in solves:
            if not sv["converged"]:
                health.append(f"not converged at n={sv['n']}")
            if sv["stall"]:
                health.append(f"stalled at n={sv['n']} (converged while the last 10 "
                              f"steps still dropped by >= 1e-12)")
        lam = r["lambda_numeric"]
        if cid in refs:
            kind, ref = refs[cid]
            err = _rel(lam, ref)
            acc["lambda_err_max"] = max(acc["lambda_err_max"], err)
            if err > TOL[kind]:
                gate.append(f"lambda {lam:.10g} vs {kind} reference {ref:.10g}: "
                            f"rel err {err:.3e} > {TOL[kind]:g}")
        if cid in oracle:
            gap = _rel(lam, oracle[cid])
            acc["oracle_gap_max"] = max(acc["oracle_gap_max"], gap)
            if gap > TOL["oracle_gap"]:
                gate.append(f"oracle gap {gap:.3e} > {TOL['oracle_gap']:g}")
        if geom:
            graph, analytic = out["diameters"][cid]
            if _rel(graph, analytic) > TOL["diameter"]:
                gate.append(f"graph diameter {graph:.6g} vs analytic {analytic:.6g}")
        if gate or health:
            fails.append((cid, "; ".join(gate + health), bool(gate)))
    return len(cases)


def check_model(out: dict, inputs: dict, refs: dict, fails: list, acc: dict) -> int:
    """Checks of one model-sweep pass; returns the items attempted."""
    errors = out["errors"]
    for p in inputs["grid"]:
        pid = p["id"]
        if pid in errors:
            fails.append((pid, f"exception: {errors[pid]}", True))
            continue
        kind, ref = refs[pid]
        err = _rel(out["lams"][pid], ref)
        acc["lambda_err_max"] = max(acc["lambda_err_max"], err)
        if err > TOL[kind]:
            fails.append((pid, f"lambda1_model(K={p['K']:.6g}, N={p['N']}, d={p['d']:.6g}) "
                               f"= {out['lams'][pid]:.12g} vs {kind} {ref:.12g}: "
                               f"rel err {err:.3e} > {TOL[kind]:g}", True))
    tol = TOL["fit"]
    for f in inputs["fits"]:
        fid = f["id"]
        if fid in errors:
            fails.append((fid, f"exception: {errors[fid]}", True))
            continue
        v, bad = out["fits"][fid], []
        if abs(v["min"] + 1.0) > tol:
            bad.append(f"fit min {v['min']:.12g} != -1")
        if abs(v["max"] - f["k"]) > tol * max(1.0, f["k"]):
            bad.append(f"fit max {v['max']:.12g} != k = {f['k']:.12g}")
        if v["lam"] != f["lam"]:
            bad.append(f"fit lambda {v['lam']!r} != {f['lam']!r}")
        if "m_min" in v and (abs(v["m_min"] + 1.0) > tol or not 0.0 < v["m_max"] <= 1.0 + tol):
            bad.append(f"model_solution range [{v['m_min']:.9g}, {v['m_max']:.9g}]")
        if bad:
            fails.append((fid, "; ".join(bad), True))
    return len(inputs["grid"]) + len(inputs["fits"])


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, env: dict) -> dict:
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = make_inputs(workload, seed, tiny)
            ref = references(workload, inputs)
            setups.append((time.perf_counter() - t0, ref["dense_oracle_s"], ref["sl_oracle_s"]))
        refs_s, dense_s, sl_s = (statistics.median(x) for x in zip(*setups))
        if workload == "model-sweep":
            job = {"grid": inputs["grid"], "fits": inputs["fits"]}
        else:
            job = {"cases": [c["config"] for c in inputs["cases"]]}
        job.update(workload=workload, seconds=seconds, trace=trace)
        res = run_worker(job, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    fails: list = []
    acc = {"lambda_err_max": 0.0, "oracle_gap_max": 0.0}
    attempted = 0
    passes = res["passes"] + ([res["traced"]["pass"]] if trace else [])
    for out in passes:
        if workload == "model-sweep":
            attempted += check_model(out, inputs, ref["refs"], fails, acc)
        else:
            attempted += check_lattice(out, job["cases"], ref["refs"], ref["oracle"],
                                       workload == "mesh-scale", fails, acc)

    wall = statistics.median(res["walls"])
    info = {
        "setup_s": refs_s + res["import_s"] + res["warmup_s"],
        "wall_s": wall,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "fail_frac": len(fails) / attempted,
        **acc,
    }
    lines = [f"[{workload}] env {json.dumps(env, sort_keys=True)}",
             f"[{workload}] setup: references {refs_s:.3f} s (median of {SETUP_REPS}; "
             f"dense_oracle {dense_s:.3f} s, sturm_liouville_oracle {sl_s:.3f} s), "
             f"worker import {res['import_s']:.3f} s, warm-up {res['warmup_s']:.3f} s",
             f"[{workload}] passes: {len(res['walls'])}, "
             f"walls {' '.join(f'{w:.3f}' for w in res['walls'])} s"]
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
                       ("lambda_err_max", "ratio"), ("oracle_gap_max", "ratio"),
                       ("fail_frac", "ratio")):
        lines.append(f"[{workload}] {name} = {info[name]!r} {unit}")
    if workload == "model-sweep":
        lat = [1e3 * x for out in res["passes"] for x in out["latency_s"]]
        q = statistics.quantiles(lat, n=100, method="inclusive")
        p50, p99 = q[49], q[98]
        lines.append(f"[{workload}] model_eval_p50_ms = {p50!r} ms (n={len(lat)})")
        lines.append(f"[{workload}] model_eval_p99_ms = {p99!r} ms (n={len(lat)}, "
                     f"{len(lat) - math.ceil(0.99 * len(lat))} samples above)")
    for cid, why, gate in fails:
        lines.append(f"[{workload}] FAIL {cid}: {why}" + ("" if gate else " (health only)"))

    bench = os.path.join(ROOT, "BENCHMARK.json")
    metrics = {k: {"value": info[k], "unit": u}
               for k, u in layers.catalogue("end_to_end", bench).items()}
    if trace:
        tr = res["traced"]
        out_bytes = tr["pass"].get("out_bytes", 0)
        vals = layers.compute(tr["spans"], tr["wall_s"], wall, tr["span_cost_s"],
                              dense_s, sl_s, acc["oracle_gap_max"], out_bytes)
        metrics = {k: {"value": vals[k], "unit": u}
                   for k, u in layers.catalogue("per_layer", bench).items()}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": workload, "env": env, "traced_wall_s": tr["wall_s"],
                       "untraced_wall_s": wall, "span_cost_s": tr["span_cost_s"],
                       "metrics": vals,
                       "span_fields": ["name", "parent", "trace_id", "t0", "t1", "attrs"],
                       "spans": tr["spans"]}, f)
        lines.append(f"[{workload}] per-layer table (traced pass; spans in {path}):")
        lines.append(layers.table(tr["spans"], tr["wall_s"], wall, tr["span_cost_s"]))
    return {"lines": lines, "attempted": attempted, "failed": len(fails),
            "gate_failed": sum(gate for _, _, gate in fails), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs for a quick self-check (smoke.py)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fingap", "__init__.py")):
        print(f"perfbench: no fingap sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment(args.seed)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for w in names:
        r = run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny, env)
        print("\n".join(r["lines"]), flush=True)
        results[w] = r

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    gate_failed = sum(r["gate_failed"] for r in results.values())
    print(json.dumps({"correct": gate_failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
