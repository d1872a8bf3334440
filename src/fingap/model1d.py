"""1-D comparison operators L v = v'' - T(t) v' and their Neumann eigenvalues.

The drift T depends on a curvature lower bound K and a dimension parameter
N in (1, inf]; it satisfies T' = K + T^2/(N-1) on each chart.  One table,
``_CHARTS``, holds every chart formula:

  chart     K    N       singular at      T(t)                       exp(-int T)
  --------  ---  ------  ---------------  -------------------------  -----------------
  tan       > 0  finite  t = +-pi/(2a)    sqrt(K(N-1)) tan(a t)      cos(a t)^(N-1)
  tanh      < 0  finite  -                -sqrt(-K(N-1)) tanh(a t)   cosh(a t)^(N-1)
  coth      < 0  finite  t = 0            -sqrt(-K(N-1)) coth(a t)   |sinh(a t)|^(N-1)
  power     = 0  finite  t = 0            -(N-1)/t                   |t|^(N-1)
  flat      = 0  finite  -                0                          1
  linear    any  inf     -                K t                        exp(-K t^2/2)
  constant  = 0  inf     -                c                          exp(-c t)

with a = sqrt(|K|/(N-1)); the flat chart also admits N = 1.  The first
nonzero Neumann eigenvalue of L on a centered interval of length d is the
sharp spectral-gap lower bound lambda_1(K, N, d); off-center intervals never
beat the centered one.

Eigenvalues are Rayleigh-Ritz quotients int rho v'^2 / int rho (v - mean)^2,
rho = exp(-int T), over polynomials orthonormal for rho on a Gauss-Jacobi
rule (:func:`lambda1_interval`): upper bounds on lambda_1 up to quadrature
error, with no digits lost where rho spans many orders of magnitude.  The
basis values and their derivatives come from one Stieltjes update per
degree, applied to both as a row pair.  On a centered interval with an
even density (tan, tanh, linear and flat charts: every quotient of
lambda_1(K, N, d)) the first eigenfunction is odd, and the quotient runs
over the odd polynomials x q(x^2) alone, from a recurrence of half the
length in x^2 on the positive nodes.  lambda_1(K, N, d) has two closed
forms, pi^2/d^2 at K = 0 (density 1) and NK/(N-1) at the Myers length; on
a Gaussian interval (K > 0, N = inf) the quotient is taken on
|t| <= sqrt(80/K), past which rho is below e^-40 of its peak.  A
strictly independent finite-difference Sturm-Liouville oracle
(:func:`sturm_liouville_oracle`) cross-validates them.

Model solutions are shots of v'' = T v' - lambda v from v(a) = -1,
v'(a) = 0 by the Prince-Dormand 8(5,3) pair (DOP853), started at singular
chart endpoints (tan at +-pi/(2a), coth/power at 0) from the series
v = -1 + lambda/(2N) (t-a)^2 that the balance v''(a) = lambda/N gives.
Interval fitting walks a one-parameter family of shots (the start a on the
tan, power, coth, tanh and linear charts, the drift c on the constant
chart) until the first maximum v(b) crosses the target, then narrows that
step by Illinois regula falsi (4-14 shots per model-sweep fit,
model_solution's included; a median of 18 steps per shot).  Each shot
integrates once and stops after the step where v' falls through 0;
DOP853's own 7th-order continuous extension of its steps gives b, v(b)
and, for the closest probe only, the 2001 samples of the fitted solution.
No parameter is shot twice.

Everything here is pure and deterministic; parameter sweeps parallelize
trivially.  The module runs on numpy and the standard library alone (the
roots of b and of the fit are :func:`_illinois`); only the oracle imports
``scipy.linalg.lapack``, when it is called, so the model layer loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice, takewhile
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "SolverError",
    "ModelProblem",
    "ModelSolution",
    "centered_model",
    "myers_length",
    "coeff_T",
    "invariant_density",
    "shoot",
    "lambda1_interval",
    "lambda1_model",
    "model_threshold",
    "model_solution",
    "fit_model_solution",
    "sturm_liouville_oracle",
]

_INF = math.inf


class SolverError(RuntimeError):
    """Shooting, bracketing, fitting or the Galerkin eigenvalue failed."""


class _Diverged(SolverError):
    """|v| passed 1e12: before its first maximum, v only rises, so v > 1e12."""


# ---------------------------------------------------------------------------
# chart table

# Drift builders take xp = math (a scalar closure for the integrator, which
# calls it 12 times per step, so the constants are bound once) or xp = np.


def _tan(p, xp):
    cc, al, tan = math.sqrt(p.K * (p.N - 1.0)), p.alpha, xp.tan
    return lambda t: cc * tan(al * t)


def _tanh(p, xp):
    cc, al, tanh = -math.sqrt(-p.K * (p.N - 1.0)), p.alpha, xp.tanh
    return lambda t: cc * tanh(al * t)


def _coth(p, xp):
    cc, al, tanh = -math.sqrt(-p.K * (p.N - 1.0)), p.alpha, xp.tanh
    return lambda t: cc / tanh(al * t)


def _power(p, xp):
    cc = -(p.N - 1.0)
    return lambda t: cc / t


def _linear(p, xp):
    K = p.K
    return lambda t: K * t


def _level(xp, value):
    if xp is math:
        return lambda t: value
    return lambda t: np.full_like(t, value)


class _Chart(NamedTuple):
    K_sign: int | None  # sign K must have; None: any
    finite_N: bool
    singular: str | None  # "edges" (t = +-pi/(2a)), "pole" (t = 0) or None
    drift: Callable  # (problem, xp) -> T
    density: Callable  # (problem, t array) -> exp(-int T)


_CHARTS = {
    "tan": _Chart(1, True, "edges", _tan,
                  lambda p, t: np.cos(p.alpha * t) ** (p.N - 1.0)),
    "tanh": _Chart(-1, True, None, _tanh,
                   lambda p, t: np.cosh(p.alpha * t) ** (p.N - 1.0)),
    "coth": _Chart(-1, True, "pole", _coth,
                   lambda p, t: np.abs(np.sinh(p.alpha * t)) ** (p.N - 1.0)),
    "power": _Chart(0, True, "pole", _power,
                    lambda p, t: np.abs(t) ** (p.N - 1.0)),
    "flat": _Chart(0, True, None, lambda p, xp: _level(xp, 0.0),
                   lambda p, t: np.ones_like(t)),
    "linear": _Chart(None, False, None, _linear,
                     lambda p, t: np.exp(-p.K * t * t / 2.0)),
    "constant": _Chart(0, False, None, lambda p, xp: _level(xp, p.c),
                       lambda p, t: np.exp(-p.c * t)),
}


# ---------------------------------------------------------------------------
# model problems


@dataclass(frozen=True)
class ModelProblem:
    """Operator L v = v'' - T(t) v' for a (K, N) pair on a given chart."""

    K: float
    N: float
    chart: str
    c: float = 0.0

    def __post_init__(self):
        K, N, chart = self.K, self.N, self.chart
        finite = math.isfinite(N)
        # the flat chart has no N dependence, so N = 1 (a 1-D Lebesgue
        # certificate) is admissible there; every other chart needs N > 1
        if finite and N <= 1.0 and not (chart == "flat" and N == 1.0):
            raise ValueError("N must be > 1 (or inf)")
        if chart not in _CHARTS:
            raise ValueError(f"unknown chart {chart!r}")
        spec = _CHARTS[chart]
        sign_ok = {1: K > 0, -1: K < 0, 0: K == 0, None: True}[spec.K_sign]
        if not (sign_ok and spec.finite_N == finite):
            raise ValueError(f"chart {chart!r} incompatible with K={K}, N={N}")

    @property
    def singular(self) -> str | None:
        """Where the drift is singular: "edges" (t = +-pi/(2a)), "pole" (t = 0)
        or None."""
        return _CHARTS[self.chart].singular

    @property
    def alpha(self) -> float:
        """Frequency scale sqrt(|K|/(N-1)) of the trigonometric charts (else 0)."""
        return math.sqrt(abs(self.K) / (self.N - 1.0)) if self.K else 0.0

    @property
    def half_width(self) -> float:
        """Half-length of the chart domain (tan chart only, else inf)."""
        if self.singular == "edges":
            return math.pi / (2.0 * self.alpha)
        return _INF

    def validate_interval(self, a: float, b: float) -> None:
        """Check [a, b] lies in the closure of a single chart component."""
        if not a < b:
            raise ValueError("need a < b")
        if self.singular == "edges":
            h = self.half_width
            tol = 1e-12 * h
            if a < -h - tol or b > h + tol:
                raise ValueError(f"interval [{a}, {b}] exceeds (+-{h})")
        elif self.singular == "pole":
            if not (a >= 0.0 or b <= 0.0):
                raise ValueError("interval must not straddle the pole at t = 0")

    def singular_left(self, a: float) -> bool:
        if self.singular == "edges":
            return a <= -self.half_width * (1.0 - 1e-12)
        return self.singular == "pole" and a == 0.0

    def singular_right(self, b: float) -> bool:
        if self.singular == "edges":
            return b >= self.half_width * (1.0 - 1e-12)
        return self.singular == "pole" and b == 0.0

    def drift(self, xp=math):
        """T(t): a scalar callable for the integrator (``xp=math``) or an
        elementwise one on arrays (``xp=np``)."""
        return _CHARTS[self.chart].drift(self, xp)


def myers_length(K: float, N: float) -> float:
    """Maximal interval length pi*sqrt((N-1)/K) for K > 0, finite N."""
    if K <= 0 or not math.isfinite(N):
        return _INF
    return math.pi * math.sqrt((N - 1.0) / K)


def centered_model(K: float, N: float) -> ModelProblem:
    """The centered chart used by lambda_1(K, N, d)."""
    if not math.isfinite(N):
        if K == 0.0:
            return ModelProblem(K, N, "constant", 0.0)
        return ModelProblem(K, N, "linear")
    if K > 0:
        return ModelProblem(K, N, "tan")
    if K < 0:
        return ModelProblem(K, N, "tanh")
    return ModelProblem(K, N, "flat")


def _check_domain(problem: ModelProblem, t) -> None:
    """Raise unless every t lies in the open chart domain."""
    if problem.singular == "edges" and np.any(np.abs(t) >= problem.half_width):
        raise ValueError(f"t outside the chart domain (+-{problem.half_width})")
    if problem.singular == "pole" and np.any(t == 0.0):
        raise ValueError("t=0 is a pole of the drift")


def coeff_T(problem: ModelProblem, t: float) -> float:
    """Drift coefficient T(t); raises outside the chart domain."""
    _check_domain(problem, t)
    return problem.drift()(float(t))


def invariant_density(problem: ModelProblem, t):
    """Density of the invariant measure exp(-int T), up to normalization.

    The operator is formally self-adjoint in L^2 of this measure, so
    eigenfunctions with Neumann data integrate to zero against it.
    """
    t = np.asarray(t, dtype=float)
    _check_domain(problem, t)
    return _CHARTS[problem.chart].density(problem, t)


# ---------------------------------------------------------------------------
# adaptive Prince-Dormand 8(5,3) (DOP853), specialized to the 2-state
# shooting system; coefficients from Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, section II.10


def _stages(T, lam, t, v, w, h, k1v, k1w):
    """The 12 stages of the DOP853 step of length h from (t, v, w) for
    v' = w, w' = T(t) w - lam v, whose first stage (k1v, k1w) is the
    derivative at the start: (kv, kw, T(t + h)), with kv and kw the tuples of
    the stages' v' and w'.  Plain arithmetic, so the arguments may be scalars
    with a ``math`` drift or arrays over steps with a numpy one."""
    k2v = w + h * (0.05260015195876773 * k1w)
    k2w = (T(t + 0.05260015195876773 * h) * k2v
           - lam * (v + h * (0.05260015195876773 * k1v)))
    k3v = w + h * (0.0197250569845379 * k1w + 0.0591751709536137 * k2w)
    k3w = (T(t + 0.0789002279381516 * h) * k3v
           - lam * (v + h * (0.0197250569845379 * k1v + 0.0591751709536137 * k2v)))
    k4v = w + h * (0.02958758547680685 * k1w + 0.08876275643042054 * k3w)
    k4w = (T(t + 0.1183503419072274 * h) * k4v
           - lam * (v + h * (0.02958758547680685 * k1v + 0.08876275643042054 * k3v)))
    k5v = w + h * (0.2413651341592667 * k1w - 0.8845494793282861 * k3w
                   + 0.924834003261792 * k4w)
    k5w = (T(t + 0.2816496580927726 * h) * k5v
           - lam * (v + h * (0.2413651341592667 * k1v - 0.8845494793282861 * k3v
                             + 0.924834003261792 * k4v)))
    k6v = w + h * (0.037037037037037035 * k1w + 0.17082860872947386 * k4w
                   + 0.12546768756682242 * k5w)
    k6w = (T(t + 0.3333333333333333 * h) * k6v
           - lam * (v + h * (0.037037037037037035 * k1v + 0.17082860872947386 * k4v
                             + 0.12546768756682242 * k5v)))
    k7v = w + h * (0.037109375 * k1w + 0.17025221101954405 * k4w
                   + 0.06021653898045596 * k5w - 0.017578125 * k6w)
    k7w = (T(t + 0.25 * h) * k7v
           - lam * (v + h * (0.037109375 * k1v + 0.17025221101954405 * k4v
                             + 0.06021653898045596 * k5v - 0.017578125 * k6v)))
    k8v = w + h * (0.03709200011850479 * k1w + 0.17038392571223998 * k4w
                   + 0.10726203044637328 * k5w - 0.015319437748624402 * k6w
                   + 0.008273789163814023 * k7w)
    k8w = (T(t + 0.3076923076923077 * h) * k8v
           - lam * (v + h * (0.03709200011850479 * k1v + 0.17038392571223998 * k4v
                             + 0.10726203044637328 * k5v - 0.015319437748624402 * k6v
                             + 0.008273789163814023 * k7v)))
    k9v = w + h * (0.6241109587160757 * k1w - 3.3608926294469414 * k4w
                   - 0.868219346841726 * k5w + 27.59209969944671 * k6w
                   + 20.154067550477894 * k7w - 43.48988418106996 * k8w)
    k9w = (T(t + 0.6512820512820513 * h) * k9v
           - lam * (v + h * (0.6241109587160757 * k1v - 3.3608926294469414 * k4v
                             - 0.868219346841726 * k5v + 27.59209969944671 * k6v
                             + 20.154067550477894 * k7v - 43.48988418106996 * k8v)))
    k10v = w + h * (0.47766253643826434 * k1w - 2.4881146199716677 * k4w
                    - 0.590290826836843 * k5w + 21.230051448181193 * k6w
                    + 15.279233632882423 * k7w - 33.28821096898486 * k8w
                    - 0.020331201708508627 * k9w)
    k10w = (T(t + 0.6 * h) * k10v
            - lam * (v + h * (0.47766253643826434 * k1v - 2.4881146199716677 * k4v
                              - 0.590290826836843 * k5v + 21.230051448181193 * k6v
                              + 15.279233632882423 * k7v - 33.28821096898486 * k8v
                              - 0.020331201708508627 * k9v)))
    k11v = w + h * (-0.9371424300859873 * k1w + 5.186372428844064 * k4w
                    + 1.0914373489967295 * k5w - 8.149787010746927 * k6w
                    - 18.52006565999696 * k7w + 22.739487099350505 * k8w
                    + 2.4936055526796523 * k9w - 3.0467644718982196 * k10w)
    k11w = (T(t + 0.8571428571428571 * h) * k11v
            - lam * (v + h * (-0.9371424300859873 * k1v + 5.186372428844064 * k4v
                              + 1.0914373489967295 * k5v - 8.149787010746927 * k6v
                              - 18.52006565999696 * k7v + 22.739487099350505 * k8v
                              + 2.4936055526796523 * k9v - 3.0467644718982196 * k10v)))
    k12v = w + h * (2.273310147516538 * k1w - 10.53449546673725 * k4w
                    - 2.0008720582248625 * k5w - 17.9589318631188 * k6w
                    + 27.94888452941996 * k7w - 2.8589982771350235 * k8w
                    - 8.87285693353063 * k9w + 12.360567175794303 * k10w
                    + 0.6433927460157636 * k11w)
    T_end = T(t + h)  # the drift at t + h serves k12 and the next step's k1
    k12w = T_end * k12v - lam * (
        v + h * (2.273310147516538 * k1v - 10.53449546673725 * k4v
                 - 2.0008720582248625 * k5v - 17.9589318631188 * k6v
                 + 27.94888452941996 * k7v - 2.8589982771350235 * k8v
                 - 8.87285693353063 * k9v + 12.360567175794303 * k10v
                 + 0.6433927460157636 * k11v))
    return ((k1v, k2v, k3v, k4v, k5v, k6v, k7v, k8v, k9v, k10v, k11v, k12v),
            (k1w, k2w, k3w, k4w, k5w, k6w, k7w, k8w, k9w, k10w, k11w, k12w), T_end)


def _integrate(Tfun, lam, t0, v0, w0, t_end, rtol=1e-10, atol=1e-12, until=None):
    """Integrate v' = w, w' = T(t) w - lam v from t0 to t_end.

    Returns (ts, vs, ws) as float lists of accepted steps, starting at t0.
    With ``until`` the run ends right after the first accepted step for which
    ``until(t, v, w, w_prev)`` is true (see :func:`_downcross`).
    DOP853 in scalar Python arithmetic: the 12 stages of :func:`_stages`,
    the derivative at the end reused as the next step's first stage, and
    the err5/err3 error estimate (step factor err^(-1/8)).  About 12
    microseconds per step; a fit probe at ``_PROBE_TOL`` takes a median of 18.
    The first step is at most a sixteenth of the span and 0.4/sqrt(lam + 1),
    about a sixteenth of the solution's wavelength 2 pi/sqrt(lam).
    """
    t, v, w = float(t0), float(v0), float(w0)
    ts, vs, ws = [t], [v], [w]
    if t_end <= t:
        return ts, vs, ws
    f1v = w
    f1w = Tfun(t) * w - lam * v
    h = min((t_end - t0) / 16.0, 0.4 / math.sqrt(lam + 1.0))
    nsteps = 0
    nreject = 0
    while t < t_end:
        # done once the remaining gap is at the floating-point resolution
        remaining = t_end - t
        if remaining <= 1e-13 * max(1.0, abs(t), abs(t_end)):
            break
        nsteps += 1
        if nsteps > 2_000_000:
            raise SolverError("integration exceeded step budget")
        h = min(h, remaining)
        if h <= 4.45e-16 * abs(t):  # t + h == t: cannot advance
            raise SolverError("step size underflow")

        (k1v, _, _, _, _, k6v, k7v, k8v, k9v, k10v, k11v, k12v), \
            (k1w, _, _, _, _, k6w, k7w, k8w, k9w, k10w, k11w, k12w), T_end = \
            _stages(Tfun, lam, t, v, w, h, f1v, f1w)
        dv = (0.054293734116568765 * k1v + 4.450312892752409 * k6v
              + 1.8915178993145003 * k7v - 5.801203960010585 * k8v
              + 0.3111643669578199 * k9v - 0.1521609496625161 * k10v
              + 0.20136540080403034 * k11v + 0.04471061572777259 * k12v)
        dw = (0.054293734116568765 * k1w + 4.450312892752409 * k6w
              + 1.8915178993145003 * k7w - 5.801203960010585 * k8w
              + 0.3111643669578199 * k9w - 0.1521609496625161 * k10w
              + 0.20136540080403034 * k11w + 0.04471061572777259 * k12w)
        y8v = v + h * dv
        y8w = w + h * dw
        # differences to the embedded 5th- and 3rd-order results, which
        # err5^2 / sqrt(err5^2 + err3^2/100) turns into an estimate of the
        # 8th-order step's error
        e5v = (0.01312004499419488 * k1v - 1.2251564463762044 * k6v
               - 0.4957589496572502 * k7v + 1.6643771824549864 * k8v
               - 0.35032884874997366 * k9v + 0.3341791187130175 * k10v
               + 0.08192320648511571 * k11v - 0.022355307863886294 * k12v)
        e5w = (0.01312004499419488 * k1w - 1.2251564463762044 * k6w
               - 0.4957589496572502 * k7w + 1.6643771824549864 * k8w
               - 0.35032884874997366 * k9w + 0.3341791187130175 * k10w
               + 0.08192320648511571 * k11w - 0.022355307863886294 * k12w)
        e3v = dv - (0.2440944881889764 * k1v + 0.7338466882816118 * k9v
                    + 0.022058823529411766 * k12v)
        e3w = dw - (0.2440944881889764 * k1w + 0.7338466882816118 * k9w
                    + 0.022058823529411766 * k12w)
        scv = atol + rtol * max(abs(v), abs(y8v))
        scw = atol + rtol * max(abs(w), abs(y8w))
        err5 = (e5v / scv) ** 2 + (e5w / scw) ** 2
        err3 = (e3v / scv) ** 2 + (e3w / scw) ** 2
        err = 0.0 if err5 == 0.0 else h * err5 / math.sqrt(2.0 * (err5 + 0.01 * err3))

        if not (math.isfinite(y8v) and math.isfinite(y8w) and math.isfinite(err)):
            nreject += 1
            if nreject > 200:
                raise SolverError("integration produced non-finite state")
            h *= 0.2
            continue

        if err <= 1.0:
            w_prev = w
            t += h
            v, w = y8v, y8w
            f1v, f1w = w, T_end * w - lam * v
            ts.append(t)
            vs.append(v)
            ws.append(w)
            if until is not None and until(t, v, w, w_prev):
                break
            if abs(v) > 1e12:
                raise _Diverged("trajectory diverged")
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
            h *= fac
        else:
            nreject += 1
            h *= max(0.2, 0.9 * err ** -0.125)
    return ts, vs, ws


# ---------------------------------------------------------------------------
# solutions and shooting


@dataclass
class ModelSolution:
    """A shot (or fitted) trajectory of L v = -lambda v with v(a) = -1."""

    a: float
    b: float
    lam: float
    ts: np.ndarray
    vs: np.ndarray
    vps: np.ndarray
    fitted_param: float = field(default=math.nan)

    @property
    def max_value(self) -> float:
        return float(np.max(self.vs))

    @property
    def min_value(self) -> float:
        return float(np.min(self.vs))

    def vprime_of_value(self, y):
        """v'(v^{-1}(y)) by interpolation; valid on monotone solutions."""
        vs, vps = self.vs, self.vps
        run = np.maximum.accumulate(vs)
        mask = np.concatenate([[True], np.diff(run) > 0])
        return np.interp(y, vs[mask], vps[mask])


def _start_state(problem: ModelProblem, lam: float, a: float, span: float):
    """Initial data for the shot; series start at singular endpoints."""
    if problem.singular_left(a):
        if problem.singular == "edges":
            a = -problem.half_width
        eps = 1e-6 * min(span, 1.0 / (problem.alpha + 1.0 / span))
        t0 = a + eps
        v0 = -1.0 + lam / (2.0 * problem.N) * eps * eps
        w0 = lam / problem.N * eps
        return t0, v0, w0, a, True
    return a, -1.0, 0.0, a, False


def shoot(problem: ModelProblem, lam: float, a: float, b: float) -> ModelSolution:
    """Integrate the shooting IVP over [a, b] and return the trajectory.

    Singular left endpoints start from the quadratic series; a singular right
    endpoint is truncated by a relative 1e-9 margin (the drift pole sits on
    the boundary, while the solution itself stays smooth up to it).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    problem.validate_interval(a, b)
    span = b - a
    t0, v0, w0, a_exact, series = _start_state(problem, lam, a, span)
    b_eff = b - 1e-9 * span if problem.singular_right(b) else b
    ts, vs, ws = _integrate(problem.drift(), lam, t0, v0, w0, b_eff)
    if series:
        ts, vs, ws = [a_exact] + ts, [-1.0] + vs, [0.0] + ws
    return ModelSolution(a=a_exact, b=b, lam=lam,
                         ts=np.array(ts), vs=np.array(vs), vps=np.array(ws))


# ---------------------------------------------------------------------------
# Galerkin eigenvalues


@lru_cache(maxsize=8)
def _gauss_jacobi(n: int, alpha: float, beta: float):
    """(x, w/W(x), top): the 2n-node Gauss-Jacobi rule for W = (1-x)^alpha
    (1+x)^beta on (-1, 1), w up to a common factor, and top[j] = (p_(2n-2),
    p_(2n-1))(x_j) for p_0 = 1, p_1, .. orthogonal for W, all of one norm.
    Golub-Welsch: x are the eigenvalues of the Jacobi matrix of the
    orthonormal recurrence and w its eigenvectors' squared first components,
    1/sum_(k<2n) p_k(x)^2: positive terms, exact even for tiny weights."""
    m = 2 * n
    k = np.arange(1.0, m)
    s = 2.0 * k + alpha + beta
    diag = np.r_[(beta - alpha) / (alpha + beta + 2.0), (beta**2 - alpha**2) / (s * (s + 2.0))]
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, cur, total = np.zeros(m), np.ones(m), np.ones(m)
    for j in range(m - 1):
        prev, cur = cur, ((x - diag[j]) * cur - (off[j - 1] if j else 0.0) * prev) / off[j]
        total += cur * cur
    out = (x, 1.0 / (total * (1.0 - x) ** alpha * (1.0 + x) ** beta), np.stack([prev, cur], 1))
    for arr in out:
        arr.flags.writeable = False
    return out


def _stieltjes(x, mu, m):
    """S[k] = (Q_k, Q_k') for k < m as two rows, Q_k = sqrt(mu) pi_k and
    Q_k' = sqrt(mu) pi_k' for the pi_k orthonormal for mu on the nodes x.

    The Stieltjes procedure (Lanczos on diag(x) from sqrt(mu)) with its
    recurrence differentiated, one update per degree for both rows:
    T = x S_k - b_(k-1) S_(k-1), a_k = T[0] . S_k[0], T -= a_k S_k,
    T[1] += S_k[0], S_(k+1) = T / |T[0]|."""
    S = np.zeros((m, 2, x.size))
    S[0, 0] = np.sqrt(mu / mu.sum())
    prev, cur, off = 0.0, S[0], 0.0  # S_(-1) = 0
    for T in S[1:]:  # in place; ndarray.dot costs about half of @ on a row
        np.multiply(x, cur, out=T)
        T -= off * prev
        T0, T1, c0 = T[0], T[1], cur[0]
        T -= T0.dot(c0) * cur
        T1 += c0
        off = math.sqrt(T0.dot(T0))
        T /= off
        prev, cur = cur, T
    return S


# charts whose density is even in t: on a centered interval the Ritz
# vector of :func:`_ritz` is odd
_EVEN_CHARTS = ("tan", "tanh", "linear", "flat")


def _ritz(problem: ModelProblem, a: float, b: float, alpha: float, beta: float, n: int):
    """(lam, tail, r): the Rayleigh-Ritz value over polynomials of degree
    <= n on (a, b), the share of the Ritz vector's v' that its two highest
    basis polynomials carry, and the density's top two coefficients on the
    p_k of :func:`_gauss_jacobi` relative to its mean.

    With mu = rho w/W on the rule's 2n nodes, :func:`_stieltjes` gives the
    mean-free pi_1 .. pi_n orthonormal for mu and their derivatives in n
    steps, which stay orthonormal to about 1e-15.  The Ritz vector is the
    first eigenvector of the stiffness on them, taken as the last left
    singular vector of the rows sqrt(mu) pi_k': good to eps times their
    largest singular value rather than its square, where an eigenvector of
    their Gram matrix D D^T is not.  Its quotient is recomputed from sums of
    squares (the eigenvalue is only good to eps times the largest one).

    On a centered interval with an even density and a symmetric rule
    (every quotient of :func:`lambda1_model`) the first eigenfunction is
    odd, and the pi_k of odd degree are x q_j(x^2) with the q_j orthonormal
    for x^2 mu in y = x^2.  There the recurrence runs in y on the n
    positive nodes for n/2 - 1 steps, and the rows sqrt(mu) p_j = Q_j and
    sqrt(mu) p_j' = (Q_j + 2 y Q_j')/sqrt(y) span the odd degrees below n:
    half the degrees on half the nodes.  The top even coefficient is zero,
    so the top odd polynomial carries the tail, and the density's
    p_(2n-1) coefficient vanishes by symmetry.  On long intervals with
    K < 0, where lambda_1 is below 1e-9 of the largest stiffness eigenvalue,
    an eigenvector of the Gram matrix left the tail at rounding noise near
    1e-7."""
    x, ratio, top = _gauss_jacobi(n, alpha, beta)
    density = _CHARTS[problem.chart].density  # the nodes lie inside (a, b)
    if a == -b and alpha == beta and problem.chart in _EVEN_CHARTS:
        x, top = x[n:], top[n:, :1]
        mu = ratio[n:] * density(problem, b * x)
        y = x * x
        S = _stieltjes(y, y * mu, n // 2)
        Q, D = S[:, 0], (S[:, 0] + 2.0 * y * S[:, 1]) / x
        top_rows = 1
    else:
        mu = ratio * density(problem, a + 0.5 * (b - a) * (x + 1.0))
        S = _stieltjes(x, mu, n + 1)
        Q, D = S[1:, 0], S[1:, 1]
        top_rows = 2
    c = np.linalg.svd(D, full_matrices=False)[0][:, -1]
    tail = c[-top_rows:] @ D[-top_rows:]
    v, dv = c @ Q, c @ D
    dd = float(dv @ dv)
    lam = (2.0 / (b - a)) ** 2 * dd / float(v @ v)
    return lam, math.sqrt(float(tail @ tail) / dd), np.abs(mu @ top).max() / mu.sum()


def lambda1_interval(problem: ModelProblem, a: float, b: float) -> float:
    """First nonzero Neumann eigenvalue of L on (a, b): the quotient of
    :func:`_ritz` on the rule with exponent N - 1 at a singular end (rho
    vanishes there like the distance to that power) and 0 at a regular one.
    n doubles from 24 until the two highest basis polynomials carry at most
    1e-7 of v' (the quotient's error goes like its square) and the density's
    p_(2n-2), p_(2n-1) coefficients, which bound the rule's error on degree
    2n integrands, are below 1e-12 of its mean; SolverError past 384.  On
    a centered interval of an even density (both ends singular or neither)
    the quotient, the tail and the coefficients are those of the odd
    polynomials alone."""
    problem.validate_interval(a, b)
    beta = problem.N - 1.0 if problem.singular_left(a) else 0.0
    alpha = problem.N - 1.0 if problem.singular_right(b) else 0.0
    if problem.singular == "edges":  # a singular end is the pole itself
        a, b = -problem.half_width if beta else a, problem.half_width if alpha else b
    for n in (24, 48, 96, 192, 384):
        lam, tail, r = _ritz(problem, a, b, alpha, beta, n)
        if tail <= 1e-7 and r <= 1e-12:
            return lam
    raise SolverError(f"Galerkin eigenvalue on [{a}, {b}] did not settle by degree 384")


def lambda1_model(K: float, N: float, d: float) -> float:
    """Sharp model eigenvalue lambda_1(K, N, d) on a centered length-d interval.

    Two values are closed forms.  For K = 0 the density is 1 (flat and
    constant charts) and the value is pi^2/d^2.  For K > 0 and finite N the
    length is capped at pi*sqrt((N-1)/K); at the cap the chart degenerates
    and the value is the analytic limit NK/(N-1).  Every other value is the
    quotient of :func:`lambda1_interval`; for K > 0 and N = inf it is taken
    on |t| <= sqrt(80/K) where d/2 is longer, since rho = exp(-K t^2/2) is
    below e^-40 of its peak past that cut and underflows at most nodes of
    a longer interval.
    """
    if not d > 0:  # NaN too
        raise ValueError("d must be positive")
    prob = centered_model(K, N)
    if K == 0.0:
        return math.pi**2 / d**2
    half = d / 2.0
    if K > 0 and math.isfinite(N):
        L = myers_length(K, N)
        if d > L * (1.0 + 1e-9):
            raise ValueError(f"d={d} exceeds the maximal length {L}")
        if d >= L * (1.0 - 1e-12):
            return K * N / (N - 1.0)
    elif K > 0:
        half = min(half, math.sqrt(80.0 / K))
    return lambda1_interval(prob, -half, half)


# ---------------------------------------------------------------------------
# first-maximum solutions and interval fitting


def _downcross(t, v, w, w_prev) -> bool:
    """w passed from positive to <= 0: the first interior maximum of v.
    Stopping there keeps shots away from drift poles past it."""
    return w_prev > 0.0 and w <= 0.0


def _out_of_reach(drift, sign, lam, t, v, w, w_prev) -> bool:
    """:func:`_downcross`, or the first maximum is out of reach: on the tan
    chart before the drift pole (``sign`` +1), on the linear chart with
    K < 0 for good (``sign`` -1).  Those are the sides where |T| grows.

    While v != 0, r = v'/v obeys r' = -(r^2 - T r + lam).  Once sign T > 0
    and T^2 > 4 lam, the lower root r_- of r^2 - T r + lam only decreases as
    |T| grows, and r cannot fall below it.  So with sign v > 0 and r > r_-,
    v keeps its sign: on the tan chart v' > 0 up to the pole, on the linear
    chart v < 0, where v' cannot fall through 0 (there v'' = -lam v > 0).
    r > r_- is r > T/2 or r^2 - T r + lam < 0, times v^2.  Without this a
    failing probe runs, ever stiffer, into the pole until its step size
    underflows, or to the 64 pi/sqrt(lam) horizon.
    """
    if _downcross(t, v, w, w_prev):
        return True
    T = drift(t)
    return (sign * T > 0.0 and sign * v > 0.0 and T * T > 4.0 * lam
            and (v * w > 0.5 * T * v * v or w * w - T * v * w + lam * v * v < 0.0))


# Shots of the fit run at this tolerance: a probe's v(b) must be far below
# the fit tolerance _FIT_TOL off the true maximum.  At the default tolerance
# it can be 1.7e-7 off (K=3, N=inf, lam=3.2, k=3).
_PROBE_TOL = {"rtol": 1e-12, "atol": 1e-14}
_FIT_TOL = 1e-8
_DENSE_SAMPLES = 2000


def _fits(top: float, k: float) -> bool:
    """A first maximum ``top`` fits k within _FIT_TOL, relative to max(1, k):
    at large k, probes that differ in the last bits of a differ by more
    than an absolute 1e-8 in M (1e-7 at k = 1e6, K = -1, N = inf)."""
    return abs(top - k) <= _FIT_TOL * max(1.0, k)


def _illinois(f, ends: list, xtol: float, done=lambda: False) -> list:
    """Illinois regula falsi on the bracket ``ends`` = [(x0, f(x0)), (x1,
    f(x1))], whose values differ in sign (either may be infinite), until
    ``done()`` holds, the bracket is at most ``xtol`` wide or 200 steps are
    taken; returns the last bracket.

    A step bisects where an end has no finite value or the bracket is at
    most 2 xtol wide, and halves the value kept at an end that stayed twice.
    As in Brent's method, the false-position point is kept at least xtol
    inside each end: once an end is the root to rounding, the point would
    round onto that end, and the other end would only move in by halves.
    """
    moved = None
    for _ in range(200):
        (x0, g0), (x1, g1) = ends
        if done() or abs(x1 - x0) <= xtol:
            break
        lo, hi = min(x0, x1) + xtol, max(x0, x1) - xtol
        x = 0.5 * (x0 + x1)
        if math.isfinite(g0) and math.isfinite(g1) and lo < hi:
            x = min(max(x1 - g1 * (x1 - x0) / (g1 - g0), lo), hi)
        gx = f(x)
        side = 0 if (gx < 0.0) == (g0 < 0.0) else 1
        if side == moved:  # the other end stayed twice: halve its value
            ends[1 - side] = (ends[1 - side][0], 0.5 * ends[1 - side][1])
        ends[side], moved = (x, gx), side
    return ends


def _extension(T, lam, t, h, v0, w0, v1, w1):
    """Coefficients (Fv, Fw) of DOP853's 7th-order continuous extension of
    the accepted step of length h from (t, v0, w0) to (v1, w1), for
    :func:`_dense`.  It re-forms the step's stages (:func:`_stages`, the
    integrator's own arithmetic) and evaluates 3 more.  Scalars with a
    ``math`` drift T, or arrays over steps with a numpy one."""
    k1w = T(t) * w0 - lam * v0
    (k1v, _, _, _, _, k6v, k7v, k8v, k9v, k10v, k11v, k12v), \
        (_, _, _, _, _, k6w, k7w, k8w, k9w, k10w, k11w, k12w), T1 = \
        _stages(T, lam, t, v0, w0, h, w0, k1w)
    k13v, k13w = w1, T1 * w1 - lam * v1
    k14v = w0 + h * (0.056167502283047954 * k1w + 0.25350021021662483 * k7w
                     - 0.2462390374708025 * k8w - 0.12419142326381637 * k9w
                     + 0.15329179827876568 * k10w + 0.00820105229563469 * k11w
                     + 0.007567897660545699 * k12w - 0.008298 * k13w)
    k14w = (T(t + 0.1 * h) * k14v
            - lam * (v0 + h * (0.056167502283047954 * k1v + 0.25350021021662483 * k7v
                               - 0.2462390374708025 * k8v - 0.12419142326381637 * k9v
                               + 0.15329179827876568 * k10v + 0.00820105229563469 * k11v
                               + 0.007567897660545699 * k12v - 0.008298 * k13v)))
    k15v = w0 + h * (0.03183464816350214 * k1w + 0.028300909672366776 * k6w
                     + 0.053541988307438566 * k7w - 0.05492374857139099 * k8w
                     - 0.00010834732869724932 * k11w + 0.0003825710908356584 * k12w
                     - 0.00034046500868740456 * k13w + 0.1413124436746325 * k14w)
    k15w = (T(t + 0.2 * h) * k15v
            - lam * (v0 + h * (0.03183464816350214 * k1v + 0.028300909672366776 * k6v
                               + 0.053541988307438566 * k7v - 0.05492374857139099 * k8v
                               - 0.00010834732869724932 * k11v
                               + 0.0003825710908356584 * k12v
                               - 0.00034046500868740456 * k13v
                               + 0.1413124436746325 * k14v)))
    k16v = w0 + h * (-0.42889630158379194 * k1w - 4.697621415361164 * k6w
                     + 7.683421196062599 * k7w + 4.06898981839711 * k8w
                     + 0.3567271874552811 * k9w - 0.0013990241651590145 * k13w
                     + 2.9475147891527724 * k14w - 9.15095847217987 * k15w)
    k16w = (T(t + 0.7777777777777778 * h) * k16v
            - lam * (v0 + h * (-0.42889630158379194 * k1v - 4.697621415361164 * k6v
                               + 7.683421196062599 * k7v + 4.06898981839711 * k8v
                               + 0.3567271874552811 * k9v - 0.0013990241651590145 * k13v
                               + 2.9475147891527724 * k14v - 9.15095847217987 * k15v)))
    coeffs = []
    for y0, y1, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16 in (
            (v0, v1, k1v, k6v, k7v, k8v, k9v, k10v, k11v, k12v, k13v, k14v, k15v, k16v),
            (w0, w1, k1w, k6w, k7w, k8w, k9w, k10w, k11w, k12w, k13w, k14w, k15w,
             k16w)):
        dy = y1 - y0
        coeffs.append((
            dy, h * k1 - dy, 2.0 * dy - h * (k13 + k1),
            h * (-8.428938276109013 * k1 + 0.5667149535193777 * k6
                 - 3.0689499459498917 * k7 + 2.38466765651207 * k8
                 + 2.117034582445028 * k9 - 0.871391583777973 * k10
                 + 2.2404374302607883 * k11 + 0.6315787787694688 * k12
                 - 0.08899033645133331 * k13 + 18.148505520854727 * k14
                 - 9.194632392478356 * k15 - 4.436036387594894 * k16),
            h * (10.427508642579134 * k1 + 242.28349177525817 * k6
                 + 165.20045171727028 * k7 - 374.5467547226902 * k8
                 - 22.113666853125306 * k9 + 7.733432668472264 * k10
                 - 30.674084731089398 * k11 - 9.332130526430229 * k12
                 + 15.697238121770845 * k13 - 31.139403219565178 * k14
                 - 9.35292435884448 * k15 + 35.81684148639408 * k16),
            h * (19.985053242002433 * k1 - 387.0373087493518 * k6
                 - 189.17813819516758 * k7 + 527.8081592054236 * k8
                 - 11.57390253995963 * k9 + 6.8812326946963 * k10
                 - 1.0006050966910838 * k11 + 0.7777137798053443 * k12
                 - 2.778205752353508 * k13 - 60.19669523126412 * k14
                 + 84.32040550667716 * k15 + 11.99229113618279 * k16),
            h * (-25.69393346270375 * k1 - 154.18974869023643 * k6
                 - 231.5293791760455 * k7 + 357.6391179106141 * k8
                 + 93.40532418362432 * k9 - 37.45832313645163 * k10
                 + 104.0996495089623 * k11 + 29.8402934266605 * k12
                 - 43.53345659001114 * k13 + 96.32455395918828 * k14
                 - 39.17726167561544 * k15 - 149.72683625798564 * k16)))
    return tuple(coeffs)


def _dense(x, y0, F):
    """DOP853's continuous extension at x in [0, 1] of a step that starts at
    y0, with F one component's coefficients from :func:`_extension`; scalars
    or arrays."""
    f0, f1, f2, f3, f4, f5, f6 = F
    u = 1.0 - x
    return y0 + x * (f0 + u * (f1 + x * (f2 + u * (f3 + x * (f4 + u * (f5 + x * f6))))))


class _Shot(NamedTuple):
    """A shot from a up to its first maximum top = v(b): its accepted steps,
    the last of which holds b; after a series start ts[0] > a."""

    problem: ModelProblem
    lam: float
    a: float
    b: float
    top: float
    ts: list
    vs: list
    ws: list


def _first_max(problem: ModelProblem, lam: float, a: float, t_cap: float) -> _Shot:
    """Shoot from a at ``_PROBE_TOL`` up to the first interior zero b of v'.

    The integration ends with the step where v' falls through 0: b is the
    root of that step's continuous extension of v' (:func:`_illinois` down
    to a bracket 1e-15 wide in the step's unit interval, each evaluation a
    scalar :func:`_dense`) and v(b) the value of its extension of v
    (:func:`_extension` re-forms the step once), so a shot integrates once.
    On the linear chart with K < 0 and on the tan
    chart it ends as soon as the first maximum is out of reach
    (:func:`_out_of_reach`), and the shot fails.
    """
    Tf = problem.drift()
    span0 = min(math.pi / math.sqrt(lam), t_cap - a)
    t0, v0, w0, a_exact, _ = _start_state(problem, lam, a, span0)
    t_end = min(t_cap, t0 + 64.0 * math.pi / math.sqrt(lam))
    until = _downcross
    if problem.chart == "linear" and problem.K < 0:
        until = partial(_out_of_reach, Tf, -1.0, lam)
    elif problem.chart == "tan":
        until = partial(_out_of_reach, Tf, 1.0, lam)
    ts, vs, ws = _integrate(Tf, lam, t0, v0, w0, t_end, until=until, **_PROBE_TOL)
    if not (len(ts) > 1 and ws[-2] > 0.0 >= ws[-1]):
        raise SolverError("no critical point of v' before the chart boundary "
                          "or horizon")
    h = ts[-1] - ts[-2]
    v0, w0 = vs[-2], ws[-2]
    Fv, Fw = _extension(Tf, lam, ts[-2], h, v0, w0, vs[-1], ws[-1])
    (x0, _), (x1, _) = _illinois(lambda x: _dense(x, w0, Fw),
                                 [(0.0, w0), (1.0, ws[-1])], 1e-15)
    x = 0.5 * (x0 + x1)
    top = _dense(x, v0, Fv)
    return _Shot(problem, lam, a_exact, ts[-2] + x * h, top, ts, vs, ws)


def _solution(shot: _Shot, param: float = math.nan) -> ModelSolution:
    """The shot at _DENSE_SAMPLES + 1 equispaced points of [ts[0], b], each
    from the continuous extension of its step (:func:`_extension`, evaluated
    for every step at once).  On a shot at ``_PROBE_TOL`` the step ends are
    within about 1e-11 of the exact solution; inside a long step the
    extension's own error can reach 5e-10 in v' (the linear-chart fit
    K = 1, lam = 6, k = 1.1).  The first sample is the start state and the
    last is (b, v(b)); a series start puts (a, -1, 0) in front."""
    ts, vs, ws = np.array(shot.ts), np.array(shot.vs), np.array(shot.ws)
    F = np.array(_extension(shot.problem.drift(np), shot.lam, ts[:-1], np.diff(ts),
                            vs[:-1], ws[:-1], vs[1:], ws[1:]))
    s = np.linspace(ts[0], shot.b, _DENSE_SAMPLES + 1)
    j = np.minimum(np.searchsorted(ts, s, side="right") - 1, ts.size - 2)
    x = (s - ts[j]) / (ts[j + 1] - ts[j])
    dvs = _dense(x, vs[j], F[0][:, j])
    dws = _dense(x, ws[j], F[1][:, j])
    dvs[-1] = shot.top
    if ts[0] > shot.a:
        s, dvs, dws = np.r_[shot.a, s], np.r_[-1.0, dvs], np.r_[0.0, dws]
    return ModelSolution(a=shot.a, b=shot.b, lam=shot.lam, ts=s, vs=dvs, vps=dws,
                         fitted_param=param)


def _half_wave(a: float, omega: float, lam: float,
               param: float = math.nan) -> ModelSolution:
    """v = -cos(omega (t - a)) on [a, a + pi/omega] at _DENSE_SAMPLES + 1
    equispaced points: the closed-form solution from min -1 to max 1
    exactly.  It solves L v = -lam v for omega^2 = lam on the flat chart,
    and for the threshold lam at the Myers length on the tan chart."""
    x = np.linspace(0.0, math.pi, _DENSE_SAMPLES + 1)
    return ModelSolution(a=a, b=a + math.pi / omega, lam=lam, ts=a + x / omega,
                         vs=-np.cos(x), vps=omega * np.sin(x), fitted_param=param)


def model_threshold(K: float, N: float) -> float:
    """Lower end of the admissible eigenvalues: N K/(N-1) for K > 0 and
    (N-1)|K|/4 for K <= 0, or max(K, 0) for N = inf.

    For K < 0 the bound is the bottom of the coth chart's oscillating range:
    T tends to -sqrt(|K|(N-1)), and at or below it v' has no zero.
    """
    if not math.isfinite(N):
        return max(K, 0.0)
    if K > 0:
        return K * N / (N - 1.0)
    return abs(K) * (N - 1.0) / 4.0


@lru_cache(maxsize=1)
def model_solution(K: float, N: float, lam: float) -> ModelSolution:
    """Solution v with v(a) = -1, v'(a) = 0 from the chart endpoint, up to the
    first zero b of v'.  Its maximum v(b) is the comparison bound m_{K,N}.

    Requires finite N and lam >= :func:`model_threshold` (strictly above it
    for K <= 0); at equality (K > 0) the solution is the analytic sine mode
    with b at the chart boundary and m = 1.

    The last solution is kept and returned again for equal arguments (a
    lattice case needs it in the fit and in the maxima check), so its arrays
    are read-only.
    """
    if not math.isfinite(N):
        raise ValueError("model_solution requires finite N")
    prob = ModelProblem(K, N, "tan" if K > 0 else "power" if K == 0 else "coth")
    thresh = model_threshold(K, N)
    if K > 0:
        half = myers_length(K, N) / 2.0
        if lam < thresh * (1.0 - 1e-12):
            raise ValueError(f"lambda={lam} below the threshold {thresh}")
        if lam <= thresh * (1.0 + 1e-12):
            sol = _half_wave(-half, math.sqrt(K / (N - 1.0)), thresh)
        else:
            sol = _solution(_first_max(prob, lam, -half, t_cap=half * (1.0 - 1e-12)))
    elif lam <= thresh:
        raise ValueError(f"lambda={lam} must exceed the threshold {thresh}")
    else:
        sol = _solution(_first_max(prob, lam, 0.0, t_cap=_INF))
    for x in (sol.ts, sol.vs, sol.vps):
        x.flags.writeable = False
    return sol


def _reflect(sol: ModelSolution, kprime: float) -> ModelSolution:
    """Map a solution with range [-1, k'] to one with range [-1, 1/k'].

    Valid because every chart drift is odd, so w(t) = -v(-t)/k' solves the
    same equation on the reflected interval.
    """
    return ModelSolution(
        a=-sol.b, b=-sol.a, lam=sol.lam,
        ts=-sol.ts[::-1], vs=-sol.vs[::-1] / kprime, vps=sol.vps[::-1] / kprime,
        fitted_param=sol.fitted_param,
    )


def _walk(p, grow=lambda p: p * 2.0):
    """p, grow(p), grow(grow(p)), ... without end."""
    while True:
        yield p
        p = grow(p)


def _fit_param(family, k: float, p0: float, offsets, rising: bool,
               m: float | None = None) -> ModelSolution | None:
    """The member p of a family of shots whose first maximum M(p) =
    family(p).top fits k (:func:`_fits`), sampled from its own shot, or
    None if ``offsets`` ends first.

    M is monotone in p, rising if ``rising``.  M(p0) is ``m`` or is shot;
    p then runs over p0 +- offsets, on the side where M moves toward k,
    until M crosses k, and :func:`_illinois` on g = M - k narrows that
    step.  A probe with no first maximum counts as M = +inf if M rises and
    0 if it falls (on the linear and constant charts the maximum escapes to
    infinity past a finite parameter, where M tends to that limit); one
    whose v diverges counts as M = +inf.  Only the closest probe's shot is
    kept.
    If the bracket collapses first: ValueError naming the closest M if
    probes failed (k is out of reach), else SolverError.
    """
    best = None  # (|g|, p, shot) of the closest probe
    failed = False

    def g(p):
        nonlocal best, failed
        try:
            shot = family(p)
        except SolverError as exc:
            failed = True
            return _INF if rising or isinstance(exc, _Diverged) else -_INF
        g_p = shot.top - k
        if best is None or abs(g_p) < best[0]:
            best = (abs(g_p), p, shot)
        return g_p

    def done():
        return best is not None and _fits(best[2].top, k)

    g_prev = g(p0) if m is None else m - k
    if done():
        return _solution(best[2], best[1])
    up, prev = g_prev < 0.0, p0
    sign = 1.0 if up == rising else -1.0
    for q in offsets:
        p = p0 + sign * q
        g_p = g(p)
        if (g_p >= 0.0) if up else (g_p <= 0.0):
            break
        prev, g_prev = p, g_p
    else:
        return None

    _illinois(g, [(prev, g_prev), (p, g_p)],
              1e-15 * (1.0 + abs(prev) + abs(p)), done)
    if done():
        return _solution(best[2], best[1])
    if failed and best is not None:
        raise ValueError(f"k={k} is out of reach: probes next to it find no first "
                         f"maximum, and the closest one reached is {best[2].top}")
    raise SolverError(f"interval fit did not reach max = {k}")


def _fit_from_zero(family, k: float, step: float, rising: bool,
                   grow=lambda q: q * 2.0) -> ModelSolution:
    """:func:`_fit_param` from the family member 0, shot first, out along
    step, grow(step), ... (80 steps at most)."""
    sol = _fit_param(family, k, 0.0, islice(_walk(step, grow), 80), rising)
    if sol is None:
        raise SolverError("interval fit failed to bracket")
    return sol


def _fit_below_finite(K: float, N: float, lam: float, k: float,
                      m: float) -> ModelSolution:
    """Fit an interval with min v = -1, max v = k for m <= k <= 1, finite N;
    m is the first maximum of :func:`model_solution`, the family's member
    at the singular chart end."""
    if K > 0:
        half = myers_length(K, N) / 2.0
        tan = partial(_first_max, ModelProblem(K, N, "tan"), lam,
                      t_cap=half * (1.0 - 1e-12))
        # M(-half) = m <= k <= 1 < M(0), so one step brackets a: from a = 0
        # the energy (v'^2 + lam v^2)/2 grows (its derivative is T v'^2 with
        # T > 0), so v(b)^2 > v(0)^2 = 1
        return _fit_param(tan, k, -half, [half], True, m)

    if K == 0:
        power = partial(_first_max, ModelProblem(K, N, "power"), lam, t_cap=_INF)
        a_cap = 1e8
        if k < 1.0:  # k = 1 is met only as a -> inf: straight to the tail
            # 1 - M falls only like c/a, so a k near 1 lies far out: the walk
            # starts one stride of 4 short of where that asymptote meets k
            c = (N - 1.0) * math.pi / (2.0 * math.sqrt(lam))
            start = max(0.3 / math.sqrt(lam), c / (4.0 * (1.0 - k)))
            walk = takewhile(lambda p: p <= a_cap, _walk(start, lambda p: 4.0 * p))
            sol = _fit_param(power, k, 0.0, walk, True, m)
            if sol is not None:
                return sol
        # past a_cap, 1 - M(a) = c/a to first order: one shot at the a where
        # that asymptote, fit at a_cap, meets k
        shot = power(a_cap)
        if not _fits(1.0, k):
            a = a_cap * (1.0 - shot.top) / (1.0 - k)
            tail = power(a)
            if _fits(tail.top, k):
                return _solution(tail, a)
        # k this close to 1 is reached only in the a -> inf limit, the flat
        # member with max 1: take whichever of it and a = 1e8 is closer
        if abs(k - shot.top) <= 1.0 - k:
            return _solution(shot, a_cap)
        return _half_wave(0.0, math.sqrt(lam), lam, _INF)

    # K < 0: the family spans the coth branch, then the tanh branch
    scale = 1.0 / math.sqrt(-K / (N - 1.0))
    coth = partial(_first_max, ModelProblem(K, N, "coth"), lam, t_cap=_INF)
    a_big = 40.0 * scale
    big = coth(a_big)
    if k <= big.top:
        walk = takewhile(lambda p: p <= a_big, _walk(0.3 * scale))
        sol = _fit_param(coth, k, 0.0, walk, True, m)
        return _solution(big, a_big) if sol is None else sol

    # M decreases in a on the tanh branch
    tanh = partial(_first_max, ModelProblem(K, N, "tanh"), lam, t_cap=_INF)
    return _fit_from_zero(tanh, k, 0.3 * scale, rising=False)


def _fit_infinite(K: float, lam: float, k: float) -> ModelSolution:
    """Fit for N = inf: linear chart in a for K != 0, constant chart in c."""
    if K != 0.0:
        # M(a) rises with a when K > 0 and falls when K < 0; past a finite a*
        # the first maximum escapes to infinity
        linear = partial(_first_max, ModelProblem(K, _INF, "linear"), lam, t_cap=_INF)
        scale = 1.0 / math.sqrt(abs(K))
        return _fit_from_zero(linear, k, 0.3 * scale, rising=K > 0)

    # K = 0, N = inf: sweep the constant drift c; max value is exp(c pi/(2 w)),
    # and c stays below the overdamped 2 sqrt(lam)
    def constant(c):
        return _first_max(ModelProblem(0.0, _INF, "constant", c=c), lam, 0.0, _INF)

    sq = math.sqrt(lam)
    return _fit_from_zero(constant, k, 0.2 * sq, rising=True,
                          grow=lambda q: min(q * 2.0, 0.5 * (q + 2.0 * sq)))


def fit_model_solution(K: float, N: float, lam: float, k: float) -> ModelSolution:
    """Interval with first Neumann eigenvalue lam whose eigenfunction has
    min = -1 and max = k, to within _FIT_TOL = 1e-8 relative to max(1, k).

    For K = 0 and finite N, 1 - M(a) falls only like c/a, c = (N-1) pi/(2
    sqrt(lam)), so the walk over a starts at max(0.3/sqrt(lam),
    c/(4(1 - k))), one stride of 4 short of where that asymptote meets k,
    and a k above M(1e8) is fit on that tail by one shot at
    a = c'/(1 - k), c' = 1e8 (1 - M(1e8)).  A k within _FIT_TOL of 1, or
    one that shot misses, gets the closer of the a = 1e8 member and the
    flat member -cos(sqrt(lam) t) (the a -> inf end, max 1,
    ``fitted_param`` inf); k = 1 goes there with no walk.

    For finite N the admissible range is k in [m, 1/m] with m the maximum of
    :func:`model_solution`.  For N = inf every k > 0 is reached when K = 0;
    on the linear chart with K > 0 the first maximum escapes to infinity past
    a finite start, probes there fail, and a large k (e.g. 20 at K = 3,
    lam = 3.2) raises ValueError naming the closest maximum reached.  Values
    k > 1 are produced by reflecting the fit for 1/k (every drift is odd).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    thresh = model_threshold(K, N)
    if lam <= thresh:
        raise ValueError(f"lambda={lam} must exceed the threshold {thresh}")
    if not math.isfinite(N):
        return _fit_infinite(K, lam, k)

    ms = model_solution(K, N, lam)
    m = ms.max_value
    if not (m * (1.0 - 1e-9) <= k <= (1.0 + 1e-9) / m):
        raise ValueError(f"k={k} outside the admissible range [{m}, {1/m}]")
    if _fits(m, k):
        return ms
    if k > 1.0:
        kp = 1.0 / k
        base = ms if _fits(m, kp) else _fit_below_finite(K, N, lam, kp, m)
        return _reflect(base, kp)
    return _fit_below_finite(K, N, lam, k, m)


# ---------------------------------------------------------------------------
# finite-difference oracle


def _lowest_eigenvalues(d: np.ndarray, off: np.ndarray, k: int,
                        sigma: float) -> np.ndarray:
    """The k lowest eigenvalues, sorted, of the symmetric tridiagonal matrix A
    with diagonal d and off-diagonal off, where A + sigma I is positive
    definite.

    Shift-invert Lanczos: A + sigma I is factored once (LAPACK ``dpttrf``),
    and each step is one solve with it (``dpttrs``), from the start vector
    cos(0), cos(1), ..., with full reorthogonalization in two Gram-Schmidt
    passes.  A Ritz value theta of (A + sigma I)^{-1} with residual r and
    distance gap to the nearest other Ritz value gives 1/theta - sigma within
    min(r, r^2/gap)/theta^2 of an eigenvalue of A; the iteration stops once
    that bound is at most eps ||A||_1 for the first k, the default absolute
    tolerance of LAPACK's bisection (``dstebz``).  Raises SolverError if the
    factorization finds A + sigma I not positive definite, or the bound is
    not met within min(n, 200) steps.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    n = d.size
    a_off = np.abs(off)
    tol = np.finfo(float).eps * float(np.max(np.abs(d) + np.r_[a_off, 0.0]
                                             + np.r_[0.0, a_off]))
    df, ef, info = dpttrf(d + sigma, off)
    if info != 0:
        raise SolverError(f"shifted oracle matrix is not positive definite "
                          f"(dpttrf info {info})")
    steps = min(n, 200)
    Q = np.empty((steps + 1, n))  # Lanczos vectors; only used rows are touched
    H = np.zeros((steps, steps))  # the Lanczos tridiagonal
    q = np.cos(np.arange(n, dtype=float))
    Q[0] = q / np.linalg.norm(q)
    for j in range(steps):
        w, _ = dpttrs(df, ef, Q[j])
        basis = Q[:j + 1]
        for _ in range(2):
            c = basis @ w
            w -= c @ basis
            H[j, j] += c[j]
        beta = float(np.linalg.norm(w))
        if j + 1 >= k:
            theta, S = np.linalg.eigh(H[:j + 1, :j + 1])
            theta, S = theta[::-1], S[:, ::-1]  # largest first
            gaps = np.diff(-theta)
            gap = np.minimum(np.r_[_INF, gaps], np.r_[gaps, _INF])[:k]
            r = beta * np.abs(S[j, :k])
            if np.all(np.minimum(r, r * r / gap) <= tol * theta[:k] ** 2):
                return np.sort(1.0 / theta[:k] - sigma)
        if beta == 0.0:  # an invariant subspace holding fewer than k
            break
        Q[j + 1] = w / beta
        H[j, j + 1] = H[j + 1, j] = beta
    raise SolverError(f"oracle Lanczos did not converge in {j + 1} steps")


def sturm_liouville_oracle(problem: ModelProblem, a: float, b: float,
                           n_nodes: int = 4000, k: int = 5) -> np.ndarray:
    """First k Neumann eigenvalues by finite differences.

    Three-point interior discretization of v'' - T v' with second-order
    one-sided Neumann rows, boundary unknowns eliminated, and the resulting
    tridiagonal matrix symmetrized by a diagonal similarity.  Fully
    independent of the Galerkin quotient and of the shots.  Endpoints must
    be regular.

    The matrix is positive semidefinite (its lowest eigenvalue is 0 up to
    rounding), so shifted by sigma = (pi/(b - a))^2 it is positive definite:
    :func:`_lowest_eigenvalues` runs shift-invert Lanczos on it, about 7-18
    steps of one tridiagonal solve each, and stops once every one of the k
    values is within eps ||A||_1 (the tolerance of LAPACK's bisection).

    Rounding sets a floor of about eps/h^2 absolute (the matrix entries are
    of order 1/h^2), which refining the grid raises: for
    ``lambda1_model(-4, 5, 8)`` = 1.077458e-5 the oracle gives 1.077424e-5 /
    1.077464e-5 / 1.077378e-5 at 8000 / 16000 / 32000 nodes (-3.2e-5 /
    +5.6e-6 / -7.4e-5 relative), no closer on finer grids, so it cannot
    referee an exponentially small eigenvalue.
    """
    problem.validate_interval(a, b)
    if problem.singular_left(a) or problem.singular_right(b):
        raise ValueError("oracle requires regular endpoints")
    ts = np.linspace(a, b, n_nodes)
    h = ts[1] - ts[0]
    T = problem.drift(np)(ts)

    # rows of -(v'' - T v') on interior nodes 1..n-2
    d = np.full(n_nodes - 2, 2.0 / h**2)
    lo = -(1.0 / h**2 + T[1:-1] / (2.0 * h))  # coefficient on v_{i-1}
    up = -(1.0 / h**2 - T[1:-1] / (2.0 * h))  # coefficient on v_{i+1}
    # eliminate v_0 = (4 v_1 - v_2)/3 and v_{n-1} = (4 v_{n-2} - v_{n-3})/3
    d[0] += (4.0 / 3.0) * lo[0]
    up[0] -= (1.0 / 3.0) * lo[0]
    d[-1] += (4.0 / 3.0) * up[-1]
    lo[-1] -= (1.0 / 3.0) * up[-1]

    prod = up[:-1] * lo[1:]
    if np.any(prod <= 0):
        raise SolverError("oracle grid too coarse to symmetrize the drift")
    return _lowest_eigenvalues(d, np.sqrt(prod), k, (math.pi / (b - a)) ** 2)
