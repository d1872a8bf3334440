"""The process that runs one workload: import, warm up, timed passes.

Usage: python3 perfbench/worker.py INPUTS.json RESULT.json

Started by run.py in a fresh interpreter, so that its peak resident memory
is that of the workload alone and not of the reference oracles.  It reads
the generated configs, repeats the workload's pass until the requested
seconds are used (at least once), and writes what the program returned,
the pass times and its own peak RSS up to the end of the first pass.  With tracing on it adds one traced
pass after the untraced ones and writes the spans of that pass.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from fingap import domain, eigensolver, harness, model1d  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import OBSERVE, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
MODULES = {"domain": domain, "eigensolver": eigensolver,
           "harness": harness, "model1d": model1d}


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss is not used: Linux
    carries it across exec from the forked parent, oracles included."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def _solves(spans: list) -> dict:
    """Per case id, the convergence record of each of its solves."""
    out: dict = {}
    for name, _, tid, _, _, attrs in spans:
        if name == "eigensolver.minimize_rayleigh":
            out.setdefault(tid, []).append(attrs)
    return out


def lattice_pass(cases: list, tmp: str, tracer: Tracer, geom: bool) -> dict:
    """run_suite over the cases; with geom, each case's finest lattice also
    gets the graph-diameter cross-check the ``fingap geom`` command makes."""
    out_dir = os.path.join(tmp, "suite")
    res = harness.run_suite({"cases": cases}, out_dir=out_dir, jobs=1)
    diam = {}
    if geom:
        for cfg in cases:
            tracer.trace_id = cfg["id"]
            spec = domain.domain_spec_from_config(
                dict(cfg, resolution=max(cfg["resolutions"])))
            dom = domain.build_domain(spec)
            diam[cfg["id"]] = [domain.diameter(dom, spec.norm),
                               domain.analytic_diameter(spec)]
    return {"summaries": res.summaries, "diameters": diam,
            "out_bytes": _dir_bytes(out_dir)}


def model_pass(grid: list, fits: list, tracer: Tracer) -> dict:
    """lambda1_model over the grid (timed per call), then the fits."""
    clock = time.perf_counter
    lams, lat, errors = {}, [], {}
    for p in grid:
        tracer.trace_id = p["id"]
        t0 = clock()
        try:
            lams[p["id"]] = model1d.lambda1_model(p["K"], p["N"], p["d"])
        except Exception as exc:  # counted as a failure by the caller
            errors[p["id"]] = repr(exc)
        lat.append(clock() - t0)
    fitted = {}
    for f in fits:
        tracer.trace_id = f["id"]
        try:
            v = model1d.fit_model_solution(f["K"], f["N"], f["lam"], f["k"])
            rec = {"min": v.min_value, "max": v.max_value, "lam": v.lam}
            if f["N"] != float("inf"):
                m = model1d.model_solution(f["K"], f["N"], f["lam"])
                rec["m_min"], rec["m_max"] = m.min_value, m.max_value
            fitted[f["id"]] = rec
        except Exception as exc:
            errors[f["id"]] = repr(exc)
    return {"lams": lams, "latency_s": lat, "fits": fitted, "errors": errors}


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call: wrapped minus bare no-op calls."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "calibration", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


def warm_up(workload: str, tmp: str) -> None:
    """Run every code path the passes use once, on tiny inputs: each norm
    family, weight, shape and dimension of the lattice workloads."""
    if workload == "model-sweep":
        for K, N in ((1.0, 3.0), (-1.0, float("inf")), (0.0, 2.0)):
            model1d.lambda1_model(K, N, 1.0)
        model1d.fit_model_solution(1.0, 3.0, 6.0, 1.0)
        return
    lebesgue = {"kind": "lebesgue"}
    box2 = {"shape": "box", "lengths": [1.0, 1.0]}
    tiny = [
        {"id": "warm-interval", "domain": {"shape": "interval", "length": 1.0},
         "norm": {"family": "two_slope_1d", "dim": 1,
                  "params": {"a_plus": 2.0, "a_minus": 0.5}},
         "certificate": {"K": 0.0, "N": "inf"}, "resolutions": [10, 20], "sharp": True},
        {"id": "warm-box-randers", "domain": box2,
         "norm": {"family": "randers", "dim": 2,
                  "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.3, 0.0]}},
         "weight": lebesgue, "resolutions": [4, 8]},
        {"id": "warm-box-quadratic", "domain": box2,
         "norm": {"family": "quadratic", "dim": 2, "params": {"A": [1.0, 0.0, 0.0, 4.0]}},
         "weight": lebesgue, "resolutions": [4, 8]},
        {"id": "warm-box-gauss", "domain": {"shape": "box", "lengths": [4.0, 4.0]},
         "norm": {"family": "euclidean", "dim": 2},
         "weight": {"kind": "gaussian", "kappa": 1.0}, "resolutions": [3, 6]},
        {"id": "warm-ball", "domain": {"shape": "ball", "radius": 0.5},
         "norm": {"family": "euclidean", "dim": 2}, "weight": lebesgue,
         "resolutions": [6, 10]},
        {"id": "warm-box3d", "domain": {"shape": "box", "lengths": [1.0, 1.0, 1.0]},
         "norm": {"family": "euclidean", "dim": 3}, "weight": lebesgue,
         "resolutions": [3, 4]},
    ]
    lattice_pass(tiny, os.path.join(tmp, "warm"), Tracer(), geom=True)


def run(inp: dict, tmp: str) -> dict:
    workload, seconds = inp["workload"], float(inp["seconds"])
    t0 = time.perf_counter()
    warm_up(workload, tmp)
    warmup_s = time.perf_counter() - t0

    if workload == "model-sweep":
        def one_pass(tracer):
            return model_pass(inp["grid"], inp["fits"], tracer)
    else:
        cases = inp["cases"]

        def one_pass(tracer):
            return lattice_pass(cases, tmp, tracer, geom=workload == "mesh-scale")

    walls, passes = [], []
    observer = Tracer().install(MODULES, OBSERVE)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = one_pass(observer)
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            # later passes can raise the high-water mark a little (heap
            # fragmentation), which would tie it to how many passes fit
            peak_kb = peak_rss_kb()
        out["solves"] = _solves(observer.spans)
        observer.clear()
        passes.append(out)
        if time.perf_counter() - start >= seconds:
            break
    observer.remove()

    result = {"import_s": IMPORT_S, "warmup_s": warmup_s, "peak_rss_kb": peak_kb,
              "walls": walls, "passes": passes}
    if inp["trace"]:
        tracer = Tracer().install(MODULES)
        with tracer.root("workload.pass"):
            t0 = time.perf_counter()
            out = one_pass(tracer)
            traced = time.perf_counter() - t0
        tracer.remove()
        out["solves"] = _solves(tracer.spans)
        result["traced"] = {"wall_s": traced, "pass": out, "spans": tracer.spans,
                            "span_cost_s": span_cost()}
    return result


def main() -> int:
    inp_path, out_path = sys.argv[1], sys.argv[2]
    with open(inp_path) as f:
        inp = json.load(f)
    tmp = os.path.dirname(os.path.abspath(out_path))
    result = run(inp, tmp)
    shutil.rmtree(os.path.join(tmp, "suite"), ignore_errors=True)
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
