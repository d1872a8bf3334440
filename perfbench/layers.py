"""Per-layer metrics from the spans of one traced pass.

Names, units and directions of the metrics live in BENCHMARK.json
(``catalogue``).  ``MOVES`` adds what BENCHMARK.json has no room for: the
end-to-end metric (workload.metric) each per-layer metric should move.
"""

from __future__ import annotations

import json

import numpy as np

from tracer import self_times


def catalogue(kind: str, path: str = "BENCHMARK.json") -> dict:
    """{name: unit} of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    with open(path) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


GW = "golden.wall_s, mesh-scale.wall_s"
MOVES = {
    "trace.wall_s": "traced pass of the workload; compare its untraced wall_s",
    "trace.untraced_wall_s": "wall_s of the same run, untraced",
    "trace.overhead_s": "tracing cost: traced minus untraced wall",
    "trace.overhead_est_s": "tracing cost: spans times the calibrated cost of one",
    "trace.spans": "spans recorded in the traced pass",
    "trace.self_coverage": "share of the traced wall inside layer spans",
    "eigensolver.minimize_rayleigh.s": GW + "; model-sweep unchanged",
    "eigensolver.minimize_rayleigh.linear_s": GW,
    "eigensolver.minimize_rayleigh.nonlinear_s": GW,
    "eigensolver.minimize_rayleigh.self_s": GW,
    "eigensolver.solves": GW,
    "eigensolver.iterations": GW,
    "eigensolver.energy_evals": GW,
    "eigensolver.accepted_ratio": GW,
    "eigensolver.s_per_eval": GW,
    "eigensolver.stalls": "fail_frac, every lattice workload",
    "eigensolver.residual_max": "fail_frac, every lattice workload",
    "eigensolver.dense_oracle.s": "golden.setup_s, mesh-scale.setup_s",
    "eigensolver.oracle_gap_max": "oracle_gap_max, golden and mesh-scale",
    "norms.dual_norm_eval.calls": GW,
    "norms.dual_norm_eval.s": GW + " (about 3.5% of golden)",
    "norms.legendre_inverse.calls": GW,
    "norms.legendre_inverse.s": GW + " (about 3.5% of golden)",
    "domain.build_domain.s": "mesh-scale.wall_s, golden.wall_s (about 4%)",
    "domain.build_domain.calls": "mesh-scale.wall_s",
    "domain.nodes": "mesh-scale.wall_s, mesh-scale.peak_rss_mb",
    "domain.stencil_slots": "mesh-scale.wall_s",
    "domain.analytic_diameter.s": "mesh-scale.wall_s, golden.wall_s",
    "domain.diameter.s": "mesh-scale.wall_s",
    "domain.diameter.pairs": "mesh-scale.wall_s, mesh-scale.peak_rss_mb",
    "model1d.lambda1_model.s": "model-sweep.wall_s",
    "model1d.lambda1_model.calls": "model-sweep.wall_s",
    "model1d.lambda1_model.p50_ms": "model_eval_p50_ms on model-sweep",
    "model1d.lambda1_model.p99_ms": "model_eval_p99_ms on model-sweep",
    "model1d.shoot.calls": "model-sweep.wall_s",
    "model1d.shoot.steps": "model-sweep.wall_s",
    "model1d.shots_per_eval": "model-sweep.wall_s",
    "model1d.fit_model_solution.s": "golden.wall_s (about 8%), model-sweep.wall_s",
    "model1d.fit_model_solution.calls": "golden.wall_s, model-sweep.wall_s",
    "model1d.model_solution.s": "golden.wall_s, model-sweep.wall_s",
    "model1d.sturm_liouville_oracle.s": "model-sweep.setup_s, golden.setup_s",
    "harness.run_case.s": GW,
    "harness.run_case.self_s": GW,
    "harness.check_gradient_comparison.s": GW,
    "harness.check_maxima.s": GW,
    "harness.run_suite.write_s": GW,
    "harness.out_bytes": GW,
}


def compute(spans: list, traced_wall: float, untraced_wall: float, span_cost_s: float,
            dense_oracle_s: float, sl_oracle_s: float, oracle_gap_max: float,
            out_bytes: int) -> dict:
    """Every metric of MOVES from the traced pass's spans."""
    selfs = self_times(spans)
    names = np.array([s[0] for s in spans])
    dur = np.array([s[4] - s[3] for s in spans])

    def tot(name):
        return float(dur[names == name].sum())

    def cnt(name):
        return int((names == name).sum())

    def self_of(name):
        return float(selfs[names == name].sum())

    def attrs(name):
        return [s[5] for s in spans if s[0] == name]

    eig = [(s[4] - s[3], s[5]) for s in spans if s[0] == "eigensolver.minimize_rayleigh"]
    linear = sum(d for d, a in eig if a["family"] in ("euclidean", "quadratic"))
    evals = cnt("norms.legendre_inverse")  # one per energy+gradient evaluation
    iters = sum(a["iterations"] for _, a in eig)
    doms = attrs("domain.build_domain")
    lam_ms = 1e3 * dur[names == "model1d.lambda1_model"]
    shots = cnt("model1d.shoot")
    root = names == "workload.pass"
    v = {
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_est_s": len(spans) * span_cost_s,
        "trace.spans": len(spans),
        "trace.self_coverage": 1.0 - float(selfs[root].sum()) / traced_wall,
        "eigensolver.minimize_rayleigh.s": tot("eigensolver.minimize_rayleigh"),
        "eigensolver.minimize_rayleigh.linear_s": linear,
        "eigensolver.minimize_rayleigh.nonlinear_s":
            tot("eigensolver.minimize_rayleigh") - linear,
        "eigensolver.minimize_rayleigh.self_s": self_of("eigensolver.minimize_rayleigh"),
        "eigensolver.solves": len(eig),
        "eigensolver.iterations": iters,
        "eigensolver.energy_evals": evals,
        "eigensolver.accepted_ratio": iters / evals if evals else 0.0,
        "eigensolver.s_per_eval": tot("eigensolver.minimize_rayleigh") / evals if evals else 0.0,
        "eigensolver.stalls": sum(a["stall"] for _, a in eig),
        "eigensolver.residual_max": max((a["residual"] for _, a in eig), default=0.0),
        "eigensolver.dense_oracle.s": dense_oracle_s,
        "eigensolver.oracle_gap_max": oracle_gap_max,
        "norms.dual_norm_eval.calls": cnt("norms.dual_norm_eval"),
        "norms.dual_norm_eval.s": tot("norms.dual_norm_eval"),
        "norms.legendre_inverse.calls": evals,
        "norms.legendre_inverse.s": tot("norms.legendre_inverse"),
        "domain.build_domain.s": tot("domain.build_domain"),
        "domain.build_domain.calls": len(doms),
        "domain.nodes": sum(a["nodes"] for a in doms),
        "domain.stencil_slots": sum(a["slots"] for a in doms),
        "domain.analytic_diameter.s": tot("domain.analytic_diameter"),
        "domain.diameter.s": tot("domain.diameter"),
        "domain.diameter.pairs": sum(a["pairs"] for a in attrs("domain.diameter")),
        "model1d.lambda1_model.s": tot("model1d.lambda1_model"),
        "model1d.lambda1_model.calls": lam_ms.size,
        "model1d.lambda1_model.p50_ms": float(np.percentile(lam_ms, 50)) if lam_ms.size else 0.0,
        "model1d.lambda1_model.p99_ms": float(np.percentile(lam_ms, 99)) if lam_ms.size else 0.0,
        "model1d.shoot.calls": shots,
        "model1d.shoot.steps": sum(a["steps"] for a in attrs("model1d.shoot")),
        "model1d.shots_per_eval": shots / lam_ms.size if lam_ms.size else 0.0,
        "model1d.fit_model_solution.s": tot("model1d.fit_model_solution"),
        "model1d.fit_model_solution.calls": cnt("model1d.fit_model_solution"),
        "model1d.model_solution.s": tot("model1d.model_solution"),
        "model1d.sturm_liouville_oracle.s": sl_oracle_s,
        "harness.run_case.s": tot("harness.run_case"),
        "harness.run_case.self_s": self_of("harness.run_case"),
        "harness.check_gradient_comparison.s": tot("harness.check_gradient_comparison"),
        "harness.check_maxima.s": tot("harness.check_maxima"),
        "harness.run_suite.write_s": self_of("harness.run_suite"),
        "harness.out_bytes": out_bytes,
    }
    assert set(v) == set(MOVES)
    return v


def table(spans: list, traced_wall: float, untraced_wall: float,
          span_cost_s: float) -> str:
    """Per span name: calls, total, self time and its share of the traced wall."""
    selfs = self_times(spans)
    rows: dict = {}
    for s, st in zip(spans, selfs):
        r = rows.setdefault(s[0], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s[4] - s[3]
        r[2] += st
    lines = [f"{'span':40s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'self%':>7s}"]
    for name, (n, t, st) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:40s} {n:8d} {t:9.3f} {st:9.3f} {100 * st / traced_wall:6.1f}%")
    total_self = float(selfs.sum())
    lines.append(f"{'sum of self times':40s} {'':8s} {'':9s} {total_self:9.3f} "
                 f"{100 * total_self / traced_wall:6.1f}%")
    lines.append(f"traced wall {traced_wall:.3f} s, untraced wall {untraced_wall:.3f} s, "
                 f"tracing overhead {traced_wall - untraced_wall:+.3f} s "
                 f"({100 * (traced_wall - untraced_wall) / untraced_wall:+.1f}%); "
                 f"{len(spans)} spans at {1e6 * span_cost_s:.2f} us each = "
                 f"{len(spans) * span_cost_s:.3f} s")
    return "\n".join(lines)
