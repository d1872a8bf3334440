"""1-D comparison operators L v = v'' - T(t) v' and their Neumann eigenvalues.

The drift T depends on a curvature lower bound K and a dimension parameter
N in (1, inf] and solves the Riccati equation T' = K + q T^2, q = 1/(N-1)
(0 for N = inf), so a chart is fixed by its start drift tau = T(0) (Bakry
and Qian, Adv. Math. 155, 2000).  ``_CHARTS`` holds each chart's K, N and tau:

  chart     K    N       tau
  tan       > 0  finite  0
  tanh      < 0  finite  0
  coth      < 0  finite  -inf (a drift pole at t = 0)
  power     = 0  finite  -inf
  flat      = 0  finite  0 (N = 1 admitted too)
  linear    any  inf     0
  constant  = 0  inf     c

With (c, s) the solutions of y'' = -qK y with (y, y') = (1, 0) and (0, 1)
at 0, at the frequency a = sqrt(|K|/(N-1)) (:func:`_cos_sin`), and
y = c - q tau s (|s| from a pole), T = -y'/(q y) = (K s + tau c)/y
(:func:`_flow`), the invariant density exp(-int T) is y^(N-1)
(exp(-tau t - K t^2/2) for N = inf), and the drift poles are the zeros of
y (:func:`_pole_ahead`): t = +-pi/(2a) on tan, t = 0 on coth and power.
The first nonzero Neumann eigenvalue of L on a centered interval of length
d is the sharp spectral-gap lower bound lambda_1(K, N, d); off-center
intervals never beat the centered one.

Eigenvalues are Rayleigh-Ritz quotients int rho v'^2 / int rho (v - mean)^2,
rho = exp(-int T), over polynomials orthonormal for rho on a Gauss-Jacobi
rule (:func:`lambda1_interval`): upper bounds on lambda_1 up to quadrature
error, with no digits lost where rho spans many orders of magnitude.  On a
centered interval with tau = 0 (every quotient of :func:`lambda1_model`)
the flow from 0 is odd and rho even, and the quotient runs over the odd
polynomials alone (:func:`_ritz`).  A strictly independent
finite-difference Sturm-Liouville oracle (:func:`sturm_liouville_oracle`)
cross-validates them.

Model solutions are shots of v'' = T v' - lambda v from v(0) = -1,
v'(0) = 0 by Taylor steps of order 20, each fixed by its start drift
T(0) = tau like a chart; tau = -inf starts at a drift pole from the
Frobenius series of the solution regular there.  The Riccati equation
gives the Taylor coefficients of T, and with them those of v and v',
exactly (Jorba and Zou, Experimental Mathematics 14, 2005); between steps
T follows its flow exactly.  The first maximum M(tau) rises with tau, so
one Illinois regula falsi bracket in theta = atan(tau/sqrt(lambda)) fits
every max k <= 1, and a k > 1 is the reflection of the fit for 1/k (the
model-sweep fits of seeds 1-3 take 6-10 shots each, model_solution's
included: 160 shots of 649 steps, a median of 4 a shot and 8 at most).
Each shot integrates once and stops after the step where v' falls
through 0; that step's polynomials give b, v(b) and, for the closest
probe only, the 2001 samples of the fitted solution.
No start drift is shot twice.

Everything here is pure and deterministic; parameter sweeps parallelize
trivially.  The module runs on numpy and the standard library alone (the
roots of b and of the fit are :func:`_illinois`); only the oracle imports
``scipy.linalg.lapack``, when it is called, so the model layer loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "SolverError",
    "ModelProblem",
    "ModelSolution",
    "centered_model",
    "check_model",
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
# the Riccati family T' = K + q T^2 and its charts


def _q(N: float) -> float:
    """q = 1/(N-1) of T' = K + q T^2; 0 for N = inf and N = 1 (flat: T = 0)."""
    return 1.0 / (N - 1.0) if N > 1.0 else 0.0


def _omega(K: float, N: float) -> float:
    """The frequency sqrt(|K|/(N-1)) of y'' = -qK y; 0 where qK = 0."""
    return math.sqrt(abs(K) / (N - 1.0)) if K else 0.0


def _cos_sin(K: float, N: float, h, xp=math):
    """(c, s) at h: the solutions of y'' = -qK y with (y, y') = (1, 0) and
    (0, 1) at 0, by the cos and sin of ``xp``: math on a float (the shots),
    numpy on an array (the charts)."""
    om = _omega(K, N)
    if om == 0.0:
        return 1.0, h
    x = om * h
    if K > 0.0:
        return xp.cos(x), xp.sin(x) / om
    return xp.cosh(x), xp.sinh(x) / om


def _flow(K: float, N: float, tau: float, h, xp=math):
    """The drift h after T = tau along T' = K + q T^2: the Moebius map
    (K s + tau c)/(c - q tau s) of :func:`_cos_sin`, and -c/(q s) from a
    pole (tau = -inf)."""
    c, s = _cos_sin(K, N, h, xp)
    q = _q(N)
    return -c / (q * s) if tau == -_INF else (K * s + tau * c) / (c - q * tau * s)


def _pole_ahead(K: float, N: float, tau: float) -> float:
    """Distance from a start at T = tau to the drift's next pole, the first
    zero of y = c - q tau s (:func:`_cos_sin`); inf if there is none."""
    om, x = _omega(K, N), _q(N) * tau
    if om == 0.0:
        return 1.0 / x if x > 0.0 else _INF
    if K > 0.0:
        return math.atan2(om, x) / om
    return math.atanh(om / x) / om if x > om else _INF


class _Chart(NamedTuple):
    K_sign: int | None  # sign K must have; None: any
    finite_N: bool
    tau: float | None  # start drift T(0); None: the problem's own c


_CHARTS = {
    "tan": _Chart(1, True, 0.0),
    "tanh": _Chart(-1, True, 0.0),
    "coth": _Chart(-1, True, -_INF),
    "power": _Chart(0, True, -_INF),
    "flat": _Chart(0, True, 0.0),
    "linear": _Chart(None, False, 0.0),
    "constant": _Chart(0, False, None),
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
        if not math.isfinite(K):
            raise ValueError(f"K must be finite, got {K}")
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")
        # the flat chart has no N dependence, so N = 1 (a 1-D Lebesgue
        # certificate) is admissible there; every other chart needs N > 1
        if not (N > 1.0 or (chart == "flat" and N == 1.0)):
            raise ValueError("N must be > 1 (or inf)")
        if chart not in _CHARTS:
            raise ValueError(f"unknown chart {chart!r}")
        spec = _CHARTS[chart]
        sign_ok = {1: K > 0, -1: K < 0, 0: K == 0, None: True}[spec.K_sign]
        if not (sign_ok and spec.finite_N == math.isfinite(N)):
            raise ValueError(f"chart {chart!r} incompatible with K={K}, N={N}")

    @property
    def _tau(self) -> float:
        """The chart's start drift T(0)."""
        tau = _CHARTS[self.chart].tau
        return self.c if tau is None else tau

    @property
    def alpha(self) -> float:
        """Frequency scale sqrt(|K|/(N-1)) of the trigonometric charts (else 0)."""
        return _omega(self.K, self.N)

    @property
    def half_width(self) -> float:
        """Half-length of the chart domain (tan chart only, else inf): the
        distance from t = 0 to the drift pole ahead (:func:`_pole_ahead`).
        Every chart's drift is odd or constant, so the pole behind is as
        far, and a pole start adds one at t = 0."""
        return _pole_ahead(self.K, self.N, self._tau)

    def _pole_near(self, t: float) -> float | None:
        """The drift pole within a relative 1e-12 of t (+-half_width, or 0
        from a pole start), or None."""
        h = self.half_width
        if abs(t) >= h * (1.0 - 1e-12):
            return math.copysign(h, t)
        return 0.0 if t == 0.0 and self._tau == -_INF else None

    def validate_interval(self, a: float, b: float) -> None:
        """Check [a, b] lies in the closure of a single chart component."""
        if not a < b:
            raise ValueError("need a < b")
        h = self.half_width
        if a < -h - 1e-12 * h or b > h + 1e-12 * h:
            raise ValueError(f"interval [{a}, {b}] exceeds (+-{h})")
        if self._tau == -_INF and a < 0.0 < b:
            raise ValueError("interval must not straddle the pole at t = 0")

    def singular_left(self, a: float) -> bool:
        return self._pole_near(a) is not None

    def singular_right(self, b: float) -> bool:
        return self._pole_near(b) is not None


def myers_length(K: float, N: float) -> float:
    """Maximal interval length pi*sqrt((N-1)/K) for K > 0, finite N (the tan chart's)."""
    return 2.0 * centered_model(K, N).half_width


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


def check_model(K: float, N: float, d: float) -> ModelProblem:
    """The chart of lambda_1(K, N, d), without a solve: :func:`centered_model`
    judges (K, N), then d must be positive and finite; the Myers cap is lambda1_model's."""
    prob = centered_model(K, N)
    if not 0.0 < d < _INF:  # NaN too
        raise ValueError(f"d must be positive and finite, got {d}")
    return prob


def _check_domain(problem: ModelProblem, t) -> None:
    """Raise unless every t lies in the open chart domain."""
    h = problem.half_width
    if h < _INF and np.any(np.abs(t) >= h):
        raise ValueError(f"t outside the chart domain (+-{h})")
    if problem._tau == -_INF and np.any(t == 0.0):
        raise ValueError("t=0 is a pole of the drift")


def coeff_T(problem: ModelProblem, t):
    """Drift coefficient T(t), a float for a scalar t and elementwise on
    arrays; raises outside the chart domain."""
    t = np.asarray(t, dtype=float)
    _check_domain(problem, t)
    T = _flow(problem.K, problem.N, problem._tau, t, np)
    return T if t.ndim else float(T)


def _density(problem: ModelProblem, t: np.ndarray):
    """exp(-int_0^t T) up to a constant factor, without the domain check."""
    K, N, tau = problem.K, problem.N, problem._tau
    if not math.isfinite(N):
        return np.exp(-(tau * t + K * t * t / 2.0))
    c, s = _cos_sin(K, N, t, np)
    return (np.abs(s) if tau == -_INF else c - _q(N) * tau * s) ** (N - 1.0)


def invariant_density(problem: ModelProblem, t):
    """Density of the invariant measure exp(-int T), up to normalization.

    The operator is formally self-adjoint in L^2 of this measure, so
    eigenfunctions with Neumann data integrate to zero against it.
    """
    t = np.asarray(t, dtype=float)
    _check_domain(problem, t)
    return _density(problem, t)


# ---------------------------------------------------------------------------
# Taylor steps from the Riccati identity T' = K + T^2/(N-1)

# series order of a step; its two top coefficients set the step size
_ORDER = 20


def _series(T0, K, q, lam, v0, w0):
    """Taylor coefficients (v_n), (w_n), n <= _ORDER, at a regular point of
    v' = w, w' = T w - lam v, where T = T0 there: T' = K + q T^2 gives
    T_(n+1) = (K [n = 0] + q sum_(i<=n) T_i T_(n-i))/(n+1), then
    v_(n+1) = w_n/(n+1) and w_(n+1) = (sum_(i<=n) T_i w_(n-i) - lam v_n)/(n+1).
    With q = 0 the drift series stops at T_1 = K."""
    Tc, vc, wc = [T0, K + q * T0 * T0], [v0], [w0]
    for n in range(_ORDER):
        wc.append((sum(map(mul, Tc, wc[::-1])) - lam * vc[n]) / (n + 1))
        vc.append(wc[n] / (n + 1))
        if q:
            Tc.append(q * sum(map(mul, Tc, Tc[::-1])) / (n + 2))
    return vc, wc


def _pole_series(K, q, N, lam, v0):
    """Taylor coefficients (v_n), (w_n), n <= _ORDER, in s = t - pole of the
    solution regular at a drift pole, v = v0 + O(s^2) (the Frobenius series).
    There T = -(N-1)/s + sum R_n s^n with R_0 = 0 and (n+2) R_n =
    K [n = 1] + q sum_(i+j=n-1) R_i R_j (R_1 = K/3: tan at its edges, coth
    at 0), and v'' = T v' - lam v gives v_1 = 0 and
    (n+2)(n+N) v_(n+2) = sum_(m<=n) R_m w_(n-m) - lam v_n, w_j = (j+1) v_(j+1)."""
    R, vc, wc = [0.0], [v0, 0.0], [0.0]
    for n in range(_ORDER):
        if n:
            R.append(((K if n == 1 else 0.0) + q * sum(map(mul, R, R[::-1]))) / (n + 2))
        vc.append((sum(map(mul, R, wc[::-1])) - lam * vc[n]) / ((n + 2) * (n + N)))
        wc.append((n + 2) * vc[n + 2])
    return vc[:_ORDER + 1], wc


def _poly(c, s):
    """sum c_n s^n by Horner, with the coefficients c from the top degree
    down: any iterable, of scalars or of arrays (gathered one at a time)."""
    c = iter(c)
    acc = next(c)
    for cn in c:
        acc = acc * s + cn
    return acc


def _integrate(K, N, lam, tau, t_end, tol=1e-10, until=None):
    """Integrate v' = w, w' = T w - lam v from v(0) = -1, w(0) = 0 and
    T(0) = tau up to t_end by Taylor steps; t_end must lie short of the
    drift's pole ahead (:func:`_pole_ahead`).

    Returns (ts, vs, ws, steps): the step ends as float lists, starting at
    0, and for each step its coefficient lists (cv, cw) in s = t - ts[i],
    lowest degree first (:func:`_series`): its dense output.  Between steps
    T follows its Riccati equation T' = K + q T^2 (:func:`_q`) exactly by
    its Moebius flow (:func:`_flow`), not by T's own Taylor series, which
    would need a step rule of its own: its radius is the distance back to
    the last pole.  tau = -inf starts at a drift pole itself, from the
    series of the solution regular there (:func:`_pole_series`).  With
    ``until`` the run ends right after the first step for which
    ``until(T, v, w, w_prev)`` is true (see :func:`_out_of_reach`).
    A step is h = 0.7 min (tol max(1, |v|, |w|)/|c_e|)^(1/e) over the
    coefficients c_e of v and w of degree e = _ORDER and _ORDER - 1, clipped
    to the span left.  SolverError on step underflow, a non-finite state or
    2,000,000 steps; _Diverged once |v| passes 1e12.
    """
    q = _q(N)
    t, v, w, T = 0.0, -1.0, 0.0, tau
    ts, vs, ws, steps = [t], [v], [w], []
    while t < t_end:
        # done once the remaining gap is at the floating-point resolution
        remaining = t_end - t
        if remaining <= 1e-13 * max(1.0, t_end):
            break
        if len(steps) >= 2_000_000:
            raise SolverError("integration exceeded step budget")
        if T == -_INF:
            cv, cw = _pole_series(K, q, N, lam, v)
        else:
            cv, cw = _series(T, K, q, lam, v, w)
        h = remaining
        scale = tol * max(1.0, abs(v), abs(w))
        for e in (_ORDER, _ORDER - 1):
            for c in (cv[e], cw[e]):
                if c:
                    h = min(h, 0.7 * (scale / abs(c)) ** (1.0 / e))
        if h <= 4.45e-16 * t:  # t + h == t: cannot advance
            raise SolverError("step size underflow")
        T = _flow(K, N, T, h)
        w_prev = w
        t, v, w = t + h, _poly(reversed(cv), h), _poly(reversed(cw), h)
        if not (math.isfinite(v) and math.isfinite(w)):
            raise SolverError("integration produced non-finite state")
        ts.append(t)
        vs.append(v)
        ws.append(w)
        steps.append((cv, cw))
        if until is not None and until(T, v, w, w_prev):
            break
        if abs(v) > 1e12:
            raise _Diverged("trajectory diverged")
    return ts, vs, ws, steps


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


def shoot(problem: ModelProblem, lam: float, a: float, b: float) -> ModelSolution:
    """Integrate the shooting IVP over [a, b] and return the step ends.

    The shot starts from the drift T(a) of the chart (:func:`_integrate`).
    A singular left endpoint starts at the drift pole from the series of the
    solution regular there; a singular right endpoint is truncated by a
    relative 1e-9 margin (the drift pole sits on the boundary, while the
    solution itself stays smooth up to it).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    problem.validate_interval(a, b)
    b_eff = b - 1e-9 * (b - a) if problem.singular_right(b) else b
    pole = problem._pole_near(a)
    a, tau = (a, coeff_T(problem, a)) if pole is None else (pole, -_INF)
    ts, vs, ws, _ = _integrate(problem.K, problem.N, lam, tau, b_eff - a)
    return ModelSolution(a=a, b=b, lam=lam,
                         ts=a + np.array(ts), vs=np.array(vs), vps=np.array(ws))


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


def _symmetric(problem: ModelProblem, a: float, b: float) -> bool:
    """[a, b] is centered and the chart's start drift is 0: the flow from 0
    is odd and the density even, so the Ritz vector of :func:`_ritz` is odd
    and the oracle's matrix persymmetric."""
    return a == -b and problem._tau == 0.0


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

    On a centered interval with an even density (:func:`_symmetric`) and a
    symmetric rule (every quotient of :func:`lambda1_model`) the first
    eigenfunction is odd, and the pi_k of odd degree are x q_j(x^2) with
    the q_j orthonormal for x^2 mu in y = x^2.  There the recurrence runs in y on the n
    positive nodes for n/2 - 1 steps, and the rows sqrt(mu) p_j = Q_j and
    sqrt(mu) p_j' = (Q_j + 2 y Q_j')/sqrt(y) span the odd degrees below n:
    half the degrees on half the nodes.  The top even coefficient is zero,
    so the top odd polynomial carries the tail, and the density's
    p_(2n-1) coefficient vanishes by symmetry."""
    x, ratio, top = _gauss_jacobi(n, alpha, beta)
    # the nodes lie inside (a, b), so rho skips the domain check
    if alpha == beta and _symmetric(problem, a, b):
        x, top = x[n:], top[n:, :1]
        mu = ratio[n:] * _density(problem, b * x)
        y = x * x
        S = _stieltjes(y, y * mu, n // 2)
        Q, D = S[:, 0], (S[:, 0] + 2.0 * y * S[:, 1]) / x
        top_rows = 1
    else:
        mu = ratio * _density(problem, a + 0.5 * (b - a) * (x + 1.0))
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
    pa, pb = problem._pole_near(a), problem._pole_near(b)  # a singular end is the pole
    beta, a = (0.0, a) if pa is None else (problem.N - 1.0, pa)
    alpha, b = (0.0, b) if pb is None else (problem.N - 1.0, pb)
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
    prob = check_model(K, N, d)
    if K == 0.0:
        return math.pi**2 / d**2
    half, L = d / 2.0, 2.0 * prob.half_width  # L: the Myers length, or inf
    if d > L * (1.0 + 1e-9):
        raise ValueError(f"d={d} exceeds the maximal length {L}")
    if d >= L * (1.0 - 1e-12):
        return model_threshold(K, N)
    if K > 0 and not math.isfinite(N):
        half = min(half, math.sqrt(80.0 / K))
    return lambda1_interval(prob, -half, half)


# ---------------------------------------------------------------------------
# first-maximum solutions and interval fitting


def _out_of_reach(K, q, lam, T, v, w, w_prev) -> bool:
    """w passed from positive to <= 0 (the first interior maximum of v), or
    the first maximum is out of reach.  That needs |T| to grow,
    T (K + q T^2) > 0, and v to have the sign of T.

    While v != 0, r = v'/v obeys r' = -(r^2 - T r + lam).  Once |T| grows
    and T^2 > 4 lam, the lower root r_- of r^2 - T r + lam only decreases,
    and r cannot fall below it.  So with T v > 0 and r > r_-, v keeps its
    sign: with T > 0, v' > 0 up to the pole ahead; with T < 0, v < 0, where
    v' cannot fall through 0 (there v'' = -lam v > 0).  r > r_- is r > T/2
    or r^2 - T r + lam < 0, times v^2.  Without this a failing probe runs
    into the pole, its steps shrinking with the distance (about 155 steps
    to the 1e-12 cap, against 12-14 with it), or to the 64 pi/sqrt(lam)
    horizon (about 4600 steps, against 3-5).
    """
    if w_prev > 0.0 >= w:
        return True
    return (T * (K + q * T * T) > 0.0 and T * v > 0.0 and T * T > 4.0 * lam
            and (v * w > 0.5 * T * v * v or w * w - T * v * w + lam * v * v < 0.0))


# Shots of the fit run at this step tolerance: a probe's v(b) must be far
# below the fit tolerance _FIT_TOL off the true maximum.  Against shots at
# 1e-16, v(b) was at most 2.3e-14 off over the charts (M = 13.5 from a = -3,
# K = -1, N = inf, lam = 0.3).
_PROBE_TOL = 1e-12
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


class _Shot(NamedTuple):
    """A shot from t = 0 up to its first maximum top = v(b): its step ends
    ts and each step's coefficients (:func:`_integrate`); the last step
    holds b.  A shot with no first maximum has b = nan."""

    lam: float
    b: float
    top: float
    ts: list
    steps: list


def _first_max(K: float, N: float, lam: float, tau: float) -> _Shot:
    """Shoot the family member T(0) = tau at ``_PROBE_TOL`` up to the first
    interior zero b of v'.

    The integration ends with the step where v' falls through 0: b is the
    root of that step's polynomial for v' (:func:`_illinois` down to a
    bracket 1e-15 of the step wide, each evaluation a scalar :func:`_poly`)
    and v(b) the value of its polynomial for v, so a shot integrates once.
    The shot ends at the 64 pi/sqrt(lam) horizon or a relative 1e-12 short
    of the drift's pole ahead, whichever is nearer, or once its first
    maximum is out of reach (:func:`_out_of_reach`).  One that finds no
    first maximum reads top = +inf if v > 0 at its end, its v diverges or
    its span ends at the pole ahead, where T -> +inf (a first maximum there
    would need v' to fall through 0 against a drift that only grows), and
    0 if v < 0 at the end of a span up to the horizon.
    """
    q = _q(N)
    horizon = 64.0 * math.pi / math.sqrt(lam)
    pole = _pole_ahead(K, N, tau) * (1.0 - 1e-12)
    try:
        ts, vs, ws, steps = _integrate(K, N, lam, tau, min(horizon, pole), _PROBE_TOL,
                                       partial(_out_of_reach, K, q, lam))
    except _Diverged:
        return _Shot(lam, math.nan, _INF, [], [])
    if not (len(ts) > 1 and ws[-2] > 0.0 >= ws[-1]):
        return _Shot(lam, math.nan, _INF if vs[-1] > 0.0 or pole < horizon else 0.0,
                     ts, steps)
    cv, cw = steps[-1]
    h = ts[-1] - ts[-2]
    (s0, _), (s1, _) = _illinois(lambda s: _poly(reversed(cw), s),
                                 [(0.0, ws[-2]), (h, ws[-1])], 1e-15 * h)
    s = 0.5 * (s0 + s1)
    return _Shot(lam, ts[-2] + s, _poly(reversed(cv), s), ts, steps)


def _solution(shot: _Shot, tau: float) -> ModelSolution:
    """The shot at _DENSE_SAMPLES + 1 equispaced points of [0, b], each from
    the polynomials of its step (:func:`_poly` on every sample at once, the
    coefficients gathered one degree at a time: all at once they take
    0.7 MB).  The first sample is the start state (0, -1, 0), at a drift
    pole too, and the last is (b, v(b))."""
    ts, C = np.array(shot.ts), np.array(shot.steps).T[::-1]  # degree, v/v', step
    s = np.linspace(0.0, shot.b, _DENSE_SAMPLES + 1)
    j = np.minimum(np.searchsorted(ts, s, side="right") - 1, ts.size - 2)
    vs, vps = _poly((cn.take(j, axis=1) for cn in C), s - ts[j])
    vs[-1] = shot.top
    return ModelSolution(a=0.0, b=shot.b, lam=shot.lam, ts=s, vs=vs, vps=vps,
                         fitted_param=tau)


def model_threshold(K: float, N: float) -> float:
    """Lower end of the admissible eigenvalues: N K/(N-1) for K > 0 and
    (N-1)|K|/4 for K <= 0, or max(K, 0) for N = inf.

    For K < 0 the bound is the bottom of the coth chart's oscillating range:
    T tends to -sqrt(|K|(N-1)), and at or below it v' has no zero.
    """
    if not N > 1.0:  # NaN too
        raise ValueError("N must be > 1 (or inf)")
    if not math.isfinite(N):
        return max(K, 0.0)
    if K > 0:
        return K * N / (N - 1.0)
    return abs(K) * (N - 1.0) / 4.0


def _check_fit_args(K: float, lam: float) -> None:
    if not math.isfinite(K):
        raise ValueError(f"K must be finite, got {K}")
    if math.isnan(lam):
        raise ValueError(f"lam must be a number, got {lam}")


@lru_cache(maxsize=1)
def model_solution(K: float, N: float, lam: float) -> ModelSolution:
    """Solution v with v(0) = -1, v'(0) = 0 from a drift pole, T(0) = -inf,
    up to the first zero b of v'.  Its maximum v(b) is the comparison bound
    m_{K,N}; ``fitted_param`` is -inf.

    Requires finite N > 1 and lam >= :func:`model_threshold` (strictly above
    it for K <= 0); at equality (K > 0) the solution is the analytic sine
    mode -cos(sqrt(K/(N-1)) t), whose b is the pole ahead, with m = 1.

    The last solution is kept and returned again for equal arguments (a
    lattice case needs it in the fit and in the maxima check), so its arrays
    are read-only.
    """
    _check_fit_args(K, lam)
    if not math.isfinite(N):
        raise ValueError("model_solution requires finite N")
    thresh = model_threshold(K, N)
    if K > 0 and lam < thresh * (1.0 - 1e-12):
        raise ValueError(f"lambda={lam} below the threshold {thresh}")
    if K > 0 and lam <= thresh * (1.0 + 1e-12):
        omega = _omega(K, N)
        x = np.linspace(0.0, math.pi, _DENSE_SAMPLES + 1)
        sol = ModelSolution(a=0.0, b=_pole_ahead(K, N, -_INF), lam=thresh, ts=x / omega,
                            vs=-np.cos(x), vps=omega * np.sin(x), fitted_param=-_INF)
    elif lam <= thresh:
        raise ValueError(f"lambda={lam} must exceed the threshold {thresh}")
    else:
        shot = _first_max(K, N, lam, -_INF)
        if math.isnan(shot.b):
            raise SolverError("no first maximum before the pole ahead or the horizon")
        sol = _solution(shot, -_INF)
    for x in (sol.ts, sol.vs, sol.vps):
        x.flags.writeable = False
    return sol


def fit_model_solution(K: float, N: float, lam: float, k: float) -> ModelSolution:
    """Interval with first Neumann eigenvalue lam whose eigenfunction has
    min = -1 and max = k, to within _FIT_TOL = 1e-8 relative to max(1, k).

    Every model solution is a shot from t = 0 with v = -1, v' = 0 and drift
    T(0) = tau (:func:`_first_max`), and its first maximum M(tau) rises with
    tau.  So for k <= 1, one :func:`_illinois` bracket on M - k in
    theta = atan(tau/sqrt(lam)) in [-pi/2, pi/2) fits k, from M = m at
    theta = -pi/2 (the pole start of :func:`model_solution` for finite N,
    and 0 for N = inf) and M = +inf at pi/2; ``fitted_param`` is tau, the
    returned solution's start drift.  A probe that finds no first maximum
    counts as M = +inf or 0 (:func:`_first_max`), and a tau > 0 with
    K + tau^2/(N-1) >= 0, whose M exceeds 1, as +inf unshot.

    Each k > 1 is the reflection w(t) = -v(L - t)/M of the fit v for 1/k
    on [0, L], stopped once 1/M fits k: -T(L - t) solves the drift's
    Riccati equation too, so w is the shot from its start drift -T(L), on
    [0, L] with min -1 exactly like every fit.  Where w lands more than
    1e-8 off k, the shots from the reflected start drifts of the last
    bracket's two ends bracket k too, and an Illinois bracket over them
    takes the closest of them if it is closer: where M is steep in tau,
    their M can be resolved finer than 1/M (k = 1e4, K = -1, N = inf: 1/M
    steps by 5e-8 per ulp of tau, their M by 5e-11).

    For finite N the admissible range is k in [m, 1/m] with m the maximum of
    :func:`model_solution`.  For N = inf every k > 0 is reached when K = 0,
    and a k past the family's reach raises ValueError naming the closest
    maximum reached.
    """
    _check_fit_args(K, lam)
    if not k > 0:  # NaN too
        raise ValueError(f"k must be positive, got {k}")
    thresh = model_threshold(K, N)
    if lam <= thresh:
        raise ValueError(f"lambda={lam} must exceed the threshold {thresh}")
    kp = min(k, 1.0 / k)  # the max the bracket fits; k > 1 reflects that fit

    def reached(top):  # the max of the solution a shot with max top gives
        return top if k <= 1.0 else 1.0 / top

    low, sol = 0.0, None  # M at theta = -pi/2
    if math.isfinite(N):
        ms = model_solution(K, N, lam)
        low = ms.max_value
        if kp * (1.0 + 1e-9) < low:
            raise ValueError(f"k={k} outside the admissible range [{low}, {1/low}]")
        sol = ms if _fits(reached(low), k) else None

    best = None  # (|g|, tau, shot) of the closest probe; only its shot is kept
    ends, b_of = [], {}  # b_of: tau -> b of each probe, nan where it failed
    sq, q = math.sqrt(lam), _q(N)

    def g(target, tau):
        nonlocal best
        if target <= 1.0 and tau > 0.0 and K + q * tau * tau >= 0.0:
            # T stays >= tau > 0, so the energy (v'^2 + lam v^2)/2 grows (its
            # derivative is T v'^2) and M > 1 >= target: unshot
            return _INF
        shot = _first_max(K, N, lam, tau)
        b_of[tau] = shot.b
        if shot.b > 0.0 and (best is None or abs(shot.top - target) < best[0]):
            best = (abs(shot.top - target), tau, shot)
        return shot.top - target

    def done():
        return best is not None and _fits(reached(best[2].top), k)

    if sol is None:
        ends = _illinois(lambda theta: g(kp, sq * math.tan(theta)),
                         [(-0.5 * math.pi, low - kp), (0.5 * math.pi, _INF)], 1e-15 * math.pi, done)
        ends = [(sq * math.tan(th), gx) for th, gx in ends]
        if not done():
            if best is not None and any(map(math.isnan, b_of.values())):
                raise ValueError(f"k={k} is out of reach: probes next to it find no "
                                 f"first maximum, and the closest one reached is "
                                 f"{reached(best[2].top)}")
            raise SolverError(f"interval fit did not reach max = {k}")
        sol = _solution(best[2], best[1])
    if k <= 1.0:
        return sol
    top, L = sol.vs[-1], sol.b  # the reflection of the fit for 1/k
    sol = ModelSolution(a=0.0, b=L, lam=sol.lam, ts=L - sol.ts[::-1], vs=-sol.vs[::-1] / top,
                        vps=sol.vps[::-1] / top, fitted_param=-_flow(K, N, sol.fitted_param, L))
    if abs(sol.max_value - k) > _FIT_TOL and ends and all(b_of.get(t, 0.0) > 0.0
                                                          for t, _ in ends):
        ends = [(-_flow(K, N, t, b_of[t]), 1.0 / (gx + kp) - k) for t, gx in ends]
        best = None
        _illinois(partial(g, k), ends, 1e-15 * max(abs(t) for t, _ in ends),
                  lambda: best is not None and best[0] <= _FIT_TOL)
        if best is not None and best[0] < abs(sol.max_value - k):
            sol = _solution(best[2], best[1])
    return sol


# ---------------------------------------------------------------------------
# finite-difference oracle

# the oracle's shift as a share of (pi/(b - a))^2, the flat interval's
# lambda_1: far above eps ||A||_1, so A + sigma I stays definite, and close
# to the low end of the spectrum, so the wanted values converge first
_ORACLE_SHIFT = 0.1
# the most Lanczos steps a run takes: k values need k + 1 of them, unless
# the run has at most this many unknowns and fills their space
_LANCZOS_STEPS = 200


def _lowest_eigenvalues(d: np.ndarray, off: np.ndarray, k: int, sigma: float,
                        tol: float) -> np.ndarray:
    """The k lowest eigenvalues, sorted, of the symmetric tridiagonal matrix A
    with diagonal d and off-diagonal off, where A + sigma I is positive
    definite, each within tol (up to rounding once the Krylov space is all
    of R^n).

    Shift-invert Lanczos: A + sigma I is factored once (LAPACK ``dpttrf``),
    and each step is one solve with it (``dpttrs``, in place), from the start
    vector cos(0), cos(1), ..., with full reorthogonalization in two
    Gram-Schmidt passes.  The Ritz values theta of (A + sigma I)^{-1} are the
    eigenvalues of the Lanczos tridiagonal (``dstev``).  One with residual r
    and distance gap to the nearest other Ritz value gives 1/theta - sigma
    within min(r, r^2/gap)/theta^2 of an eigenvalue of A; the iteration
    stops once that bound is at most tol for the k largest theta, which
    takes k + 1 Ritz values: a lone one has no gap to bound it.  Raises
    SolverError if the factorization finds A + sigma I not positive
    definite, or the bound is not met within min(n, _LANCZOS_STEPS) steps.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs, dstev

    n = d.size
    df, ef, info = dpttrf(d + sigma, off)
    if info != 0:
        raise SolverError(f"shifted oracle matrix is not positive definite "
                          f"(dpttrf info {info})")
    steps = min(n, _LANCZOS_STEPS)
    alpha, beta = np.zeros(steps), np.zeros(steps)  # the Lanczos tridiagonal
    Q = np.empty((min(steps, 31) + 1, n))  # Lanczos vectors, doubled when full
    q = np.cos(np.arange(n, dtype=float))
    Q[0] = q / np.linalg.norm(q)
    for j in range(steps):
        if j + 1 == len(Q):
            Q = np.concatenate((Q, np.empty_like(Q)))
        w = Q[j + 1]
        w[:] = Q[j]
        dpttrs(df, ef, w, overwrite_b=1)
        basis = Q[:j + 1]
        for _ in range(2):
            c = basis @ w
            w -= c @ basis
            alpha[j] += c[j]
        beta[j] = np.linalg.norm(w)
        if j >= k or j + 1 == n:
            theta, S, _ = dstev(alpha[:j + 1], beta[:max(j, 1)])
            if j + 1 == n:  # the Krylov space is all of R^n
                return np.sort(1.0 / theta[-k:] - sigma)
            theta, s = theta[:-k - 2:-1], S[j, :-k - 2:-1]  # k + 1 largest first
            g = theta[:-1] - theta[1:]
            gap = g.copy()
            gap[1:] = np.minimum(g[1:], g[:-1])
            r = beta[j] * np.abs(s[:k])
            if np.all(np.minimum(r, r * r / gap) <= tol * theta[:k] ** 2):
                return np.sort(1.0 / theta[:k] - sigma)
        if beta[j] == 0.0:  # an invariant subspace holding fewer than k
            break
        w /= beta[j]
    raise SolverError(f"oracle Lanczos did not converge in {j + 1} steps")


def _oracle_matrix(problem: ModelProblem, a: float, b: float,
                   n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, off): the diagonal and the positive off-diagonal of the oracle's
    symmetric tridiagonal matrix on the n_nodes - 2 interior unknowns of
    :func:`sturm_liouville_oracle`.

    On a centered interval of a chart with start drift 0 (:func:`_symmetric`)
    the drift is odd: it is evaluated on the left half of the nodes and
    mirrored, with T = 0 at a centre node, so the matrix is exactly
    persymmetric (d and off read the same backwards)."""
    ts = np.linspace(a, b, n_nodes)
    h = ts[1] - ts[0]
    if _symmetric(problem, a, b):
        left = coeff_T(problem, ts[:n_nodes // 2])
        T = np.concatenate((left, np.zeros(n_nodes % 2), -left[::-1]))
    else:
        T = coeff_T(problem, ts)

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
    return d, np.sqrt(prod)


def sturm_liouville_oracle(problem: ModelProblem, a: float, b: float,
                           n_nodes: int = 4000, k: int = 5) -> np.ndarray:
    """First k Neumann eigenvalues by finite differences, 1 <= k <= n_nodes - 2.

    Three-point interior discretization of v'' - T v' with second-order
    one-sided Neumann rows, boundary unknowns eliminated, and the resulting
    tridiagonal matrix A symmetrized by a diagonal similarity
    (:func:`_oracle_matrix`).  Fully independent of the Galerkin quotient
    and of the shots.  Endpoints must be regular.

    Every row of the unsymmetrized matrix sums to zero and its off-diagonal
    entries are negative, so (Gershgorin) A is positive semidefinite and its
    lowest eigenvalue is 0, the constant mode's; shifted by
    sigma = (pi/(b - a))^2/10 it is positive definite:
    :func:`_lowest_eigenvalues` runs shift-invert Lanczos on it and stops
    once every one of the k values is within eps ||A||_1 (the default
    tolerance of LAPACK's bisection).

    On a centered interval of a chart with start drift 0 (:func:`_symmetric`:
    every model reference) A is persymmetric, J A J = A for the reversal J, and
    splits into two tridiagonal blocks on the first half of the unknowns,
    one for the eigenvectors with J x = x and one for J x = -x (Cantoni and
    Butler, Linear Algebra Appl. 13, 1976).  The off-diagonals are positive,
    so the constant mode alternates in sign and lies in the block of parity
    (-1)^(n_nodes - 3); the j-th eigenvector of a tridiagonal matrix has j
    sign changes, so the parities alternate, and the k lowest values are
    the ceil(k/2) lowest of that block and the floor(k/2) lowest of the
    other.  For k <= 2 the constant-mode block is not searched: its lowest
    value is the constant mode's, 0.0.  Lanczos runs on each searched block
    with the tolerance of the whole matrix, on half the unknowns: the model
    references (4000 and 8000 nodes, k = 2) take 3-8 steps, 5 at the
    median, each one solve of half the length.  A run asked for
    _LANCZOS_STEPS or more values on more unknowns than that cannot stop,
    and such a k raises ValueError before any solve.

    Rounding sets a floor of about eps/h^2 absolute (the matrix entries are
    of order 1/h^2), which refining the grid raises: for
    ``lambda1_model(-4, 5, 8)`` = 1.077458e-5 the oracle gives 1.077436e-5 /
    1.077409e-5 / 1.077415e-5 at 8000 / 16000 / 32000 nodes (-2.1e-5 /
    -4.6e-5 / -4.0e-5 relative), no closer on finer grids, so it cannot
    referee an exponentially small eigenvalue.
    """
    problem.validate_interval(a, b)
    if problem.singular_left(a) or problem.singular_right(b):
        raise ValueError("oracle requires regular endpoints")
    if not 1 <= k <= n_nodes - 2:
        raise ValueError(f"k = {k} is outside [1, n_nodes - 2] = [1, {n_nodes - 2}]")
    folded, n = _symmetric(problem, a, b), n_nodes - 2
    # the largest run: ceil(k/2) values on the larger half when folded
    want, size = ((k + 1) // 2, n - n // 2) if folded else (k, n)
    if want >= _LANCZOS_STEPS and size > _LANCZOS_STEPS:
        raise ValueError(f"k = {k} needs {want} values from one Lanczos run on {size} "
                         f"unknowns, which its cap of {_LANCZOS_STEPS} steps cannot give")
    d, off = _oracle_matrix(problem, a, b, n_nodes)
    rows = np.abs(d)
    rows[1:] += off
    rows[:-1] += off
    tol = np.finfo(float).eps * float(rows.max())  # eps ||A||_1
    sigma = _ORACLE_SHIFT * (math.pi / (b - a)) ** 2
    if not folded:
        return _lowest_eigenvalues(d, off, k, sigma, tol)

    m, odd = divmod(d.size, 2)

    def block(parity):  # A on the vectors with J x = parity x
        if odd and parity > 0:  # the centre unknown, scaled by 1/sqrt(2)
            return d[:m + 1], np.append(off[:m - 1], math.sqrt(2.0) * off[m - 1])
        if odd:
            return d[:m], off[:m - 1]
        return np.append(d[:m - 1], d[m - 1] + parity * off[m - 1]), off[:m - 1]

    const = 1 if odd else -1  # the constant mode's parity
    low = (np.zeros(1) if k <= 2 else
           _lowest_eigenvalues(*block(const), (k + 1) // 2, sigma, tol))
    if k == 1:
        return low
    high = _lowest_eigenvalues(*block(-const), k // 2, sigma, tol)
    return np.sort(np.concatenate((low, high)))
