"""Seeded inputs and independent reference values for the three workloads.

The program only ever sees the case configs and grid points made here.  The
seed goes into every case's ``seed`` field (the descent's start noise) and
jitters, by at most 1%, the continuous parameters that leave the lattice
unchanged: Gaussian kappa, quadratic and Randers coefficients, two-slope
slopes.  Box lengths and ball radii stay fixed, because a changed length
changes the lattice and with it the discretization error the references
are compared against.

The golden case list is this benchmark's own copy of the nine golden cases,
so that moving ``harness.golden_cases()`` cannot change the workload
unnoticed.

References are computed here, outside the timed pass, and never by the code
path under test: closed forms, ``dense_oracle`` (same discrete operator,
direct sparse eigensolve) and a Richardson-extrapolated
``sturm_liouville_oracle`` (finite differences, no shooting).
"""

from __future__ import annotations

import math
import time

import numpy as np

WORKLOADS = ("golden", "model-sweep", "mesh-scale")

DISK_J11 = 1.8411837813  # first zero of J_1', the Neumann disk eigenvalue
ORACLE_MAX_NODES = 5000  # dense_oracle refuses larger grids

# relative tolerance of each reference check, by reference kind
TOL = {
    "interval": 1e-3,   # two-slope intervals, r = 200
    "box": 1e-2,        # 2-D radius-2 stencil: +0.25% at r = 60
    "gauss": 1e-3,      # 3e-4 / 2e-5 today
    "disk": 2e-2,       # +0.9% at r = 40, +0.6% at r = 60 (boundary fit)
    "box3d": 0.15,      # known +12..14% error of the 124-slot stencil
    "oracle_gap": 1e-6,
    "model_oracle": 1e-6,
    "model_closed": 1e-8,
    "fit": 1e-6,
    "diameter": 0.05,   # graph diameter vs analytic, relative
}


def _jitter(rng, x: float) -> float:
    return float(x) * (1.0 + 0.01 * rng.uniform(-1.0, 1.0))


def _euclid(dim):
    return {"family": "euclidean", "dim": dim}


def _randers(rng, b):
    return {"family": "randers", "dim": 2,
            "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [_jitter(rng, x) for x in b]}}


def golden_cases(seed: int, rng) -> list[dict]:
    """The nine golden cases, each with its reference (None for Randers)."""
    a_sym = _jitter(rng, 2.0)
    a_plus, a_minus = _jitter(rng, 2.0), _jitter(rng, 0.5)
    q1, q2 = _jitter(rng, 1.0), _jitter(rng, 4.0)
    k_half, k_one = _jitter(rng, 0.5), _jitter(rng, 1.0)
    lebesgue = {"kind": "lebesgue"}
    interval = {"shape": "interval", "length": 1.0}
    unit_box = {"shape": "box", "lengths": [1.0, 1.0]}
    ball = {"shape": "ball", "radius": 0.5}
    cases = [
        ({"id": "sharp-1d-twoslope-sym", "domain": interval,
          "norm": {"family": "two_slope_1d", "dim": 1,
                   "params": {"a_plus": a_sym, "a_minus": a_sym}},
          "weight": lebesgue, "certificate": {"K": 0.0, "N": "inf"},
          "resolutions": [100, 200], "sharp": True},
         ("interval", math.pi**2 / a_sym**2)),
        ({"id": "sharp-1d-twoslope-asym", "domain": interval,
          "norm": {"family": "two_slope_1d", "dim": 1,
                   "params": {"a_plus": a_plus, "a_minus": a_minus}},
          "weight": lebesgue, "certificate": {"K": 0.0, "N": "inf"},
          "resolutions": [100, 200], "sharp": True},
         ("interval", math.pi**2 / max(a_plus, a_minus) ** 2)),
        ({"id": "box-euclid", "domain": unit_box, "norm": _euclid(2),
          "weight": lebesgue, "resolutions": [30, 60]},
         ("box", math.pi**2)),
        ({"id": "box-quadratic", "domain": unit_box,
          "norm": {"family": "quadratic", "dim": 2,
                   "params": {"A": [q1, 0.0, 0.0, q2]}},
          "weight": lebesgue, "resolutions": [30, 60]},
         ("box", math.pi**2 / max(q1, q2))),
        ({"id": "box-randers", "domain": unit_box, "norm": _randers(rng, [0.3, 0.0]),
          "weight": lebesgue, "resolutions": [30, 60]},
         None),
        ({"id": "box-gauss-half", "domain": {"shape": "box", "lengths": [5.0, 5.0]},
          "norm": _euclid(2), "weight": {"kind": "gaussian", "kappa": k_half},
          "resolutions": [6, 12]},
         ("gauss", ("ou", k_half, 5.0))),
        ({"id": "box-gauss-one", "domain": {"shape": "box", "lengths": [4.0, 4.0]},
          "norm": _euclid(2), "weight": {"kind": "gaussian", "kappa": k_one},
          "resolutions": [8, 16]},
         ("gauss", ("ou", k_one, 4.0))),
        ({"id": "ball-euclid", "domain": ball, "norm": _euclid(2),
          "weight": lebesgue, "resolutions": [20, 40]},
         ("disk", (DISK_J11 / 0.5) ** 2)),
        ({"id": "ball-randers", "domain": ball, "norm": _randers(rng, [0.2, 0.1]),
          "weight": lebesgue, "resolutions": [20, 40]},
         None),
    ]
    return _seeded(cases, seed)


def mesh_cases(seed: int, rng, tiny: bool = False) -> list[dict]:
    """Larger lattices: 2-D ball ladder, 3-D box, Randers box."""
    lebesgue = {"kind": "lebesgue"}
    ladder = [20, 40] if tiny else [30, 45, 60]
    cases = [
        ({"id": "mesh-ball-ladder", "domain": {"shape": "ball", "radius": 0.5},
          "norm": _euclid(2), "weight": lebesgue, "resolutions": ladder},
         ("disk", (DISK_J11 / 0.5) ** 2)),
        ({"id": "mesh-box3d", "domain": {"shape": "box", "lengths": [1.0, 1.0, 1.0]},
          "norm": _euclid(3), "weight": lebesgue,
          "resolutions": [4, 5] if tiny else [4, 8]},
         ("box3d", math.pi**2)),
        ({"id": "mesh-box-randers", "domain": {"shape": "box", "lengths": [1.0, 1.0]},
          "norm": _randers(rng, [0.3, 0.0]), "weight": lebesgue,
          "resolutions": [8, 16] if tiny else [20, 40]},
         None),
    ]
    return _seeded(cases, seed)


def _seeded(cases, seed):
    out = []
    for cfg, ref in cases:
        cfg = dict(cfg, seed=int(seed))
        out.append({"config": cfg, "ref": ref})
    return out


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi), one in each of n equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def model_grid(rng, n_points: int) -> list[dict]:
    """Seeded (K, N, d) points covering every chart of lambda1_model.

    The mix of charts is fixed and, within each chart, magnitudes, lengths
    and N are drawn stratified, so every seed covers the same ranges evenly
    and does about the same work.  Every eighth point sits exactly at the
    Myers length.
    """
    Ns = (2.0, 3.0, 5.0, 10.0)
    per = -(-n_points // 8)  # points of each chart
    draws = [(_stratified(rng, per, 0.25, 4.0), _stratified(rng, per, 0.3, 3.0),
              _stratified(rng, per, 0.2, 0.95), rng.permutation(np.resize(Ns, per)))
             for _ in range(8)]
    pts = []
    for i in range(n_points):
        kind, j = i % 8, i // 8
        mags, ds, fracs, Nseq = draws[kind]
        mag, d, N = float(mags[j]), float(ds[j]), float(Nseq[j])
        if kind == 0:            # tanh chart
            K = -mag
        elif kind == 1:          # linear chart, K < 0
            K, N = -mag, math.inf
        elif kind == 2:          # flat chart
            K = 0.0
        elif kind == 3:          # constant chart
            K, N = 0.0, math.inf
        elif kind == 5:          # linear chart, K > 0
            K, N = mag, math.inf
        else:                    # tan chart, interior or at the Myers length
            K = mag
            frac = 1.0 if kind == 7 else float(fracs[j])
            d = frac * math.pi * math.sqrt((N - 1.0) / K)
        pts.append({"id": f"m{i:03d}", "K": K, "N": N, "d": d})
    return pts


def model_fits(rng, n_fits: int) -> list[dict]:
    """Inputs of fit_model_solution / model_solution, one per chart family.

    lam sits 4.5..5.5 above the threshold and k within 15% of 1, inside the
    admissible range [m, 1/m] of every finite-N family used here.  The
    ranges are narrow so that the fits cost about the same for every seed.
    """
    families = [(1.0, 3.0), (-1.0, 3.0), (0.0, 2.0), (0.0, math.inf),
                (1.0, math.inf), (-1.0, math.inf)]
    out = []
    for i in range(n_fits):
        sgn, N = families[i % len(families)]
        K = sgn * float(rng.uniform(0.8, 1.2))
        thresh = max(K * N / (N - 1.0), 0.0) if math.isfinite(N) else max(K, 0.0)
        out.append({"id": f"f{i:02d}", "K": K, "N": N,
                    "lam": thresh + float(rng.uniform(4.5, 5.5)),
                    "k": float(rng.uniform(0.85, 1.15))})
    return out


TINY_GOLDEN = ("sharp-1d-twoslope-sym", "ball-euclid")


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Everything the worker gets: the generated configs and nothing else."""
    rng = np.random.default_rng(seed)
    if workload == "golden":
        cases = golden_cases(seed, rng)
        if tiny:
            cases = [c for c in cases if c["config"]["id"] in TINY_GOLDEN]
        return {"cases": cases}
    if workload == "mesh-scale":
        return {"cases": mesh_cases(seed, rng, tiny)}
    if workload == "model-sweep":
        return {"grid": model_grid(rng, 24 if tiny else 240),
                "fits": model_fits(rng, 3 if tiny else 6)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# references


def sl_reference(K: float, N: float, d: float) -> float:
    """lambda_1(K, N, d) from the finite-difference oracle, Richardson
    extrapolated from 4000 and 8000 nodes (its error is O(h^2))."""
    from fingap.model1d import centered_model, sturm_liouville_oracle

    prob = centered_model(K, N)
    coarse = sturm_liouville_oracle(prob, -d / 2.0, d / 2.0, n_nodes=4000, k=2)[1]
    fine = sturm_liouville_oracle(prob, -d / 2.0, d / 2.0, n_nodes=8000, k=2)[1]
    return float((4.0 * fine - coarse) / 3.0)


def model_reference(K: float, N: float, d: float):
    """(kind, value): closed form where one exists, else the SL oracle."""
    if K == 0.0:
        return "model_closed", math.pi**2 / d**2
    if K > 0 and math.isfinite(N):
        L = math.pi * math.sqrt((N - 1.0) / K)
        if d >= L * (1.0 - 1e-12):
            return "model_closed", K * N / (N - 1.0)
    return "model_oracle", sl_reference(K, N, d)


def references(workload: str, inputs: dict) -> dict:
    """Reference values plus the time each oracle took.

    Returns {"refs": {id: (kind, value)}, "oracle": {id: lambda_2},
    "dense_oracle_s": ..., "sl_oracle_s": ...}.
    """
    from fingap.domain import build_domain, domain_spec_from_config
    from fingap.eigensolver import dense_oracle

    refs, oracle = {}, {}
    dense_s = sl_s = 0.0
    if workload == "model-sweep":
        for p in inputs["grid"]:
            t0 = time.perf_counter()
            refs[p["id"]] = model_reference(p["K"], p["N"], p["d"])
            if refs[p["id"]][0] == "model_oracle":
                sl_s += time.perf_counter() - t0
        return {"refs": refs, "oracle": oracle,
                "dense_oracle_s": dense_s, "sl_oracle_s": sl_s}

    for case in inputs["cases"]:
        cfg, ref = case["config"], case["ref"]
        if ref is not None:
            kind, value = ref
            if isinstance(value, (list, tuple)):  # ("ou", kappa, L)
                t0 = time.perf_counter()
                value = sl_reference(value[1], math.inf, value[2])
                sl_s += time.perf_counter() - t0
            refs[cfg["id"]] = (kind, float(value))
        if cfg["norm"]["family"] in ("euclidean", "quadratic"):
            spec = domain_spec_from_config(dict(cfg, resolution=max(cfg["resolutions"])))
            dom = build_domain(spec)
            if dom.n_nodes <= ORACLE_MAX_NODES:
                t0 = time.perf_counter()
                oracle[cfg["id"]] = float(dense_oracle(dom, spec.norm)[1])
                dense_s += time.perf_counter() - t0
    return {"refs": refs, "oracle": oracle,
            "dense_oracle_s": dense_s, "sl_oracle_s": sl_s}
