"""1-D model operators: drift identities, shooting goldens, eigenvalues, fits."""

import importlib.util
import math
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.special import j0, jn_zeros, spherical_jn

from fingap import model1d
from fingap.model1d import (
    ModelProblem,
    centered_model,
    coeff_T,
    fit_model_solution,
    invariant_density,
    lambda1_interval,
    lambda1_model,
    model_solution,
    myers_length,
    shoot,
    sturm_liouville_oracle,
)

INF = math.inf


def finite_charts():
    return [
        ModelProblem(1.0, 2.0, "tan"),
        ModelProblem(0.5, 4.0, "tan"),
        ModelProblem(-1.0, 2.0, "tanh"),
        ModelProblem(-0.7, 3.5, "tanh"),
        ModelProblem(-1.0, 3.0, "coth"),
        ModelProblem(0.0, 2.5, "power"),
        ModelProblem(0.0, 5.0, "flat"),
    ]


def all_charts():
    return finite_charts() + [
        ModelProblem(2.0, INF, "linear"),
        ModelProblem(-0.5, INF, "linear"),
        ModelProblem(0.0, INF, "constant", c=-1.3),
    ]


def interior_points(p, rng, n):
    """n random points inside the chart domain, away from its singularities."""
    if p.chart == "tan":
        return rng.uniform(-0.9, 0.9, n) * p.half_width
    if p.chart in ("coth", "power"):
        return rng.uniform(0.2, 3.0, n)
    return rng.uniform(-3.0, 3.0, n)


def scalar_drift(p):
    """T(t) of chart p written out with the math module, for scipy's
    right-hand sides and as the reference for coeff_T."""
    cc, al = math.sqrt(abs(p.K) * (p.N - 1.0)), p.alpha
    return {"tan": lambda t: cc * math.tan(al * t),
            "tanh": lambda t: -cc * math.tanh(al * t),
            "coth": lambda t: -cc / math.tanh(al * t),
            "power": lambda t: -(p.N - 1.0) / t,
            "flat": lambda t: 0.0,
            "linear": lambda t: p.K * t,
            "constant": lambda t: p.c}[p.chart]


def chart_start(p, tau):
    """The point a0 of chart p where T(a0) = tau, the chart's pole for
    tau = -inf: a model solution with start drift tau, shifted by a0, is a
    solution on p's coordinates."""
    cc = math.sqrt(abs(p.K) * (p.N - 1.0)) if math.isfinite(p.N) else 0.0
    return {"tan": lambda: math.atan(tau / cc) / p.alpha,
            "tanh": lambda: -math.atanh(tau / cc) / p.alpha,
            "coth": lambda: math.atanh(-cc / tau) / p.alpha,
            "power": lambda: -(p.N - 1.0) / tau,
            "linear": lambda: tau / p.K,
            "constant": lambda: 0.0}[p.chart]()


def riccati_shot(K, N, lam, t_span, y0, t_eval=None):
    """(v, w, T) by scipy's DOP853 on v' = w, w' = T w - lam v,
    T' = K + T^2/(N-1) from y0 = (v, w, T) at t_span[0]: a shot of the
    model family independent of the Taylor steps."""
    q = 0.0 if N == INF else 1.0 / (N - 1.0)
    sol = solve_ivp(lambda t, y: (y[1], y[2] * y[1] - lam * y[0], K + q * y[2] * y[2]),
                    t_span, y0, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval)
    assert sol.success
    return sol.y


class TestDrift:
    def test_flat_zero(self):
        assert coeff_T(ModelProblem(0.0, 5.0, "flat"), 0.3) == 0.0

    def test_tan_value(self):
        # sqrt(K(N-1)) = 1, sqrt(K/(N-1)) = 1 for K=1, N=2
        assert coeff_T(ModelProblem(1.0, 2.0, "tan"), 0.5) == pytest.approx(
            math.tan(0.5)
        )

    def test_linear_value(self):
        assert coeff_T(ModelProblem(2.0, INF, "linear"), 0.3) == pytest.approx(0.6)

    def test_tanh_value(self):
        assert coeff_T(ModelProblem(-1.0, 2.0, "tanh"), 1.0) == pytest.approx(
            -math.tanh(1.0)
        )

    def test_tan_domain_error(self):
        p = ModelProblem(1.0, 2.0, "tan")
        with pytest.raises(ValueError):
            coeff_T(p, math.pi / 2)

    def test_power_pole(self):
        with pytest.raises(ValueError):
            coeff_T(ModelProblem(0.0, 3.0, "power"), 0.0)

    def test_chart_compatibility(self):
        with pytest.raises(ValueError):
            ModelProblem(-1.0, 2.0, "tan")
        with pytest.raises(ValueError):
            ModelProblem(1.0, INF, "flat")
        with pytest.raises(ValueError):
            ModelProblem(1.0, 0.5, "tan")
        # a non-finite start drift read an SVD failure in the quotient
        for c in (math.nan, INF):
            with pytest.raises(ValueError, match="c must be finite"):
                ModelProblem(0.0, INF, "constant", c)

    def test_riccati_identity_100_points(self):
        # T' = K + T^2/(N-1) by central differences on every finite-N chart
        rng = np.random.default_rng(0)
        for p in finite_charts():
            ts = interior_points(p, rng, 100)
            h = 1e-6
            for t in ts:
                Tp = (coeff_T(p, t + h) - coeff_T(p, t - h)) / (2 * h)
                rhs = p.K + coeff_T(p, t) ** 2 / (p.N - 1.0)
                assert Tp == pytest.approx(rhs, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("p", all_charts(), ids=lambda p: f"{p.chart}-{p.K}")
    def test_array_drift_matches_scalar(self, p):
        # the one flow formula from the chart's start drift, on an array and
        # on each point, against the drift written out with the math module
        ts = interior_points(p, np.random.default_rng(1), 200)
        vec = coeff_T(p, ts)
        scalar = np.array([coeff_T(p, float(t)) for t in ts])
        assert vec.shape == ts.shape
        assert all(isinstance(x, float) for x in scalar.tolist())
        np.testing.assert_array_max_ulp(vec, scalar, maxulp=0)
        form = scalar_drift(p)
        np.testing.assert_array_max_ulp(vec, [form(float(t)) for t in ts], maxulp=4)


class TestInvariantDensity:
    def test_tan_cos_power(self):
        p = ModelProblem(1.0, 2.0, "tan")
        assert invariant_density(p, 0.0) == pytest.approx(1.0)
        assert invariant_density(p, 0.5) == pytest.approx(math.cos(0.5))

    def test_flat_one(self):
        p = ModelProblem(0.0, 5.0, "flat")
        assert np.all(invariant_density(p, np.linspace(-3, 3, 7)) == 1.0)

    def test_gaussian_density_matches_quadrature(self):
        # exp(-int_0^t T) for the linear chart, checked by numerical quadrature
        p = ModelProblem(1.0, INF, "linear")
        for t in (0.5, 1.0, 2.0):
            s = np.linspace(0.0, t, 20001)
            integral = np.trapezoid(coeff_T(p, s), s)
            assert invariant_density(p, t) == pytest.approx(
                math.exp(-integral), rel=1e-8
            )
        assert invariant_density(p, 1.3) == pytest.approx(math.exp(-1.3**2 / 2))

    def test_density_matches_exp_integral_all_charts(self):
        for p in finite_charts():
            if p.chart == "tan":
                t0, t1 = 0.1 * p.half_width, 0.7 * p.half_width
            elif p.chart in ("coth", "power"):
                t0, t1 = 0.4, 1.9
            else:
                t0, t1 = -0.8, 1.7
            s = np.linspace(t0, t1, 20001)
            integral = np.trapezoid(coeff_T(p, s), s)
            ratio = invariant_density(p, t1) / invariant_density(p, t0)
            assert ratio == pytest.approx(math.exp(-integral), rel=1e-7)


class TestShoot:
    def test_tan_sine(self):
        p = ModelProblem(1.0, 2.0, "tan")
        sol = shoot(p, 2.0, -math.pi / 2, math.pi / 2)
        assert np.max(np.abs(sol.vs - np.sin(sol.ts))) <= 1e-6

    def test_flat_cosine(self):
        p = ModelProblem(0.0, 3.0, "flat")
        sol = shoot(p, math.pi**2, 0.0, 1.0)
        assert np.max(np.abs(sol.vs + np.cos(math.pi * sol.ts))) <= 1e-8

    def test_power_sinc(self):
        p = ModelProblem(0.0, 3.0, "power")
        lam = math.pi**2
        sol = shoot(p, lam, 0.0, 1.2)
        x = math.sqrt(lam) * sol.ts[1:]
        assert np.max(np.abs(sol.vs[1:] + np.sin(x) / x)) <= 1e-6

    def test_initial_conditions(self):
        p = ModelProblem(0.0, 3.0, "flat")
        sol = shoot(p, 4.0, -0.3, 0.9)
        assert sol.vs[0] == -1.0
        assert sol.vps[0] == 0.0

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            shoot(ModelProblem(0.0, 3.0, "flat"), -1.0, 0.0, 1.0)

    def test_invariant_measure_orthogonality(self):
        # int (v'' - T v') dmu = 0 for Neumann solutions; along the
        # trajectory v'' - T v' equals -lam v exactly
        for p in [ModelProblem(0.0, 3.0, "flat"), ModelProblem(1.0, 2.0, "tan"),
                  ModelProblem(1.0, INF, "linear")]:
            a, b = (-1.2, 1.2)
            lam = lambda1_interval(p, a, b)
            T = scalar_drift(p)
            sol = solve_ivp(lambda t, y: (y[1], T(t) * y[1] - lam * y[0]), (a, b),
                            (-1.0, 0.0), method="DOP853", max_step=(b - a) / 4000,
                            rtol=1e-10, atol=1e-12)
            ts, (vs, vps) = sol.t, sol.y
            mu = invariant_density(p, ts)
            drift = coeff_T(p, ts)
            vpp = drift * vps - lam * vs
            resid = abs(np.trapezoid((vpp - drift * vps) * mu, ts))
            scale = np.trapezoid(np.abs(vpp) * mu, ts)
            assert resid <= 1e-6 * scale


# lambda1_model at the quotient with one recurrence for the basis values
# and a second for their derivatives, on a grid drawn with default_rng(27):
# every centered chart, eight tan lengths within 1e-6..1e-3 of the Myers
# length, and 15 points whose degree reached 48 or 96
FROZEN_MODEL = [
    (-4.26198, 1.5, 2.08874, 1.3019467595511787),
    (-0.946883, 2.0, 2.14447, 1.755055337381356),
    (-5.60447, 3.0, 4.8011, 0.007275888005037891),
    (-0.30761, 5.0, 1.43392, 4.64865477981818),
    (-1.9354, 10.0, 5.67747, 0.007313465124437435),
    (-2.56976, 20.0, 1.33635, 4.346539490577866),
    (-5.19723, 1.5, 5.4703, 0.03759037498877856),
    (-1.98505, 2.0, 2.32463, 1.169442131599987),
    (-4.58293, 3.0, 1.82955, 1.4618528703618416),
    (-4.78918, 5.0, 2.86979, 0.16916546412040245),
    (-19.5003, INF, 2.51416, 1.695951374222409e-05),
    (-1.1222, INF, 1.57618, 3.4371485122312806),
    (-23.1687, INF, 1.64938, 0.025746778671125004),
    (-3.56143, INF, 3.5936, 0.02777938515660357),
    (-29.1096, INF, 0.327221, 78.36119311251935),
    (-13.2115, INF, 1.37078, 1.1135080360196081),
    (-27.0234, INF, 0.385314, 53.84869088585099),
    (-25.6872, INF, 0.77297, 6.791805053182516),
    (-2.90921, INF, 2.01892, 1.2430633019972623),
    (-9.00021, INF, 2.37015, 0.04184016293937922),
    (0.281522, INF, 5.96967, 0.4404561484533235),
    (2.5678, INF, 2.5295, 3.158402130280234),
    (2.04071, INF, 3.3922, 2.2414673348083363),
    (5.07668, INF, 2.54563, 5.248665243931813),
    (3.82943, INF, 0.791136, 17.75838220493983),
    (1.05663, INF, 0.611134, 26.957442399684254),
    (3.9647, INF, 2.79539, 4.131194697714636),
    (0.366859, INF, 2.83389, 1.4211959615648482),
    (5.45672, INF, 2.0834, 5.981095077612831),
    (0.797299, INF, 3.39426, 1.31442798475711),
    (0.0, 1.0, 3.96738, 0.6270355240796536),
    (0.0, 2.0, 1.75099, 3.2190847730043726),
    (0.0, 3.0, 2.83026, 1.2321031795577575),
    (0.0, 10.0, 1.38004, 5.182226567414793),
    (0.0, 2.0, 1.98309, 2.5096600434772647),
    (0.0, 5.0, 0.495196, 40.24810983240921),
    (0.0, INF, 2.56115, 1.5046299972217594),
    (0.0, INF, 3.02895, 1.0757603588130433),
    (0.0, INF, 1.82754, 2.9550576833048656),
    (0.0, INF, 0.799809, 15.428623164807657),
    (2.58423, 1.5, 1.08563549742, 10.150336113750969),
    (2.33573, 2.0, 1.3698742758, 6.753471579339413),
    (2.96351, 3.0, 0.96824215587, 12.154266505524577),
    (2.73738, 5.0, 2.27368494542, 3.829276113012956),
    (2.38374, 10.0, 3.65696418413, 2.6759121054620536),
    (2.86031, 20.0, 3.01740819814, 3.1607382810228732),
    (3.74681, 1.5, 0.675695750739, 23.811193510291435),
    (3.0172, 2.0, 1.55100554919, 6.480458510153461),
    (0.370819, 3.0, 6.92682923168, 0.5566972742993203),
    (0.280648, 5.0, 8.32440300354, 0.36229050329862217),
    (1.27404, 10.0, 5.97301107922, 1.4163649102439702),
    (3.92273, 20.0, 2.41019606194, 4.4496331280941055),
    (3.99188, 1.5, 0.889852338041, 15.252818801494533),
    (1.67979, 2.0, 2.08194875715, 3.603219080504658),
    (1.04203, 3.0, 2.56929355817, 2.157273826627369),
    (1.97177, 5.0, 1.71216012683, 4.502641353778976),
    (3.89798, 2.0, 1.59099187184095, 7.79596059002794),
    (3.58303, 3.0, 2.34709166020515, 5.374545000000381),
    (3.02676, 5.0, 3.61135697498808, 3.7834500000000006),
    (3.26334, 10.0, 5.21700805603258, 3.625933333333334),
    (1.3351, 2.0, 2.71888453326264, 2.67020000025604),
    (0.991656, 3.0, 4.46117987035421, 1.487484000004955),
    (0.428326, 5.0, 9.60004139978256, 0.5354075000000001),
    (1.07655, 10.0, 9.08330517526065, 1.1961666666666668),
]
# lambda1_interval there on coth, power and tan intervals, half of them
# with a singular end (a Gauss-Jacobi exponent N - 1)
FROZEN_INTERVAL = [
    (-2.76188, 1.5, 'coth', -2.51034, 0.0, 2.086222771333048),
    (-0.358715, 2.0, 'coth', 0.637442, 2.490192, 3.2448640130802118),
    (-1.58628, 3.0, 'coth', 0.0, 2.46749, 3.721304867553807),
    (-2.47825, 5.0, 'coth', -1.22071, -0.901287, 103.50289507280831),
    (-3.58949, 10.0, 'coth', 0.0, 1.27868, 52.061624995237544),
    (-2.87684, 20.0, 'coth', 0.11117, 2.2911799999999998, 49.02423310722916),
    (0.0, 2.0, 'power', -0.381882, 0.0, 100.67600520498647),
    (0.0, 3.0, 'power', 0.292581, 1.670241, 7.681597158200989),
    (0.0, 5.0, 'power', 0.0, 1.50306, 14.70326589238921),
    (0.0, 10.0, 'power', -1.5880049999999999, -0.142485, 30.510014401954216),
    (0.0, 20.0, 'power', 0.0, 2.19171, 43.621541658842524),
    (0.0, 1.5, 'power', 0.965282, 3.5465020000000003, 1.5520708170735689),
    (3.93724, 2.0, 'tan', -0.7916330780378035, -0.695559696054, 1590.665442240872),
    (3.48942, 3.0, 'tan', -0.438598182553, 0.594604588416, 11.27183725427086),
    (2.31642, 5.0, 'tan', -2.064149837432375, -1.52668856691, 113.85220596366747),
    (2.2996, 10.0, 'tan', -2.4314476085, 1.55376375412, 2.6236644166602905),
]

# lambda1_interval on centered intervals (K, N, chart, half-length) as the
# quotient over every degree reads it: the tan chart with both ends
# singular (a Gauss-Jacobi exponent N - 1 at each; half-length None, the
# whole chart), and tanh and linear intervals whose degree reaches 96 or
# 192.  The three rows marked * hold a 32-digit evaluation of the same
# Galerkin problem instead, which that quotient read 1.0e-13, -1.4e-14 and
# 1.8e-14 off
FROZEN_CENTERED = [
    (0.7, 1.2, "tan", None, 4.200000000000001),
    (3.0, 1.5, "tan", None, 9.000000000000002),
    (1.3, 2.0, "tan", None, 2.6),
    (0.4, 2.5, "tan", None, 0.666666666666667),
    (2.2, 5.0, "tan", None, 2.7499999999999987),
    (5.0, 10.0, "tan", None, 5.555555555555557),
    (-1.0, 1.5, "tanh", 4.0, 0.04455294247614338),  # n = 96
    (-5.0, 1.5, "tanh", 4.0, 0.0049330813124698536),  # 192
    (-20.0, 3.0, "tanh", 4.0, 8.245406717214417e-10),  # 192 *
    (-5.0, 10.0, "tanh", 4.0, 1.2852748561637398e-08),  # 96
    (-50.0, 3.0, "tanh", 2.0, 4.1223075507586617e-07),  # 192 *
    (-50.0, INF, "linear", 1.0, 3.835856599455988e-09),  # 96 *
    (5.0, INF, "linear", 6.0, 4.999999999999996),  # 96
    (30.0, INF, "linear", 4.0, 30.000000000000064),  # 192
]


def _shot_midpoint(K, N, d, lam):
    """v(0) for the shot v(-d/2) = 1, v'(-d/2) = 0 on the centered interval
    of length d, by scipy's DOP853 at rtol 2.3e-14.  The first eigenfunction
    is odd, so v(0) > 0 below lambda_1 and < 0 just above it."""
    p = centered_model(K, N)
    T = scalar_drift(p)
    sol = solve_ivp(lambda t, y: (y[1], T(t) * y[1] - lam * y[0]), (-d / 2, 0.0),
                    (1.0, 0.0), method="DOP853", rtol=2.3e-14, atol=1e-20)
    return sol.y[0, -1]


class TestLambda1:
    def test_flat_interval_pi2(self):
        p = ModelProblem(0.0, 2.0, "flat")
        lam = lambda1_interval(p, -0.5, 0.5)
        assert lam == pytest.approx(math.pi**2, rel=1e-10)

    def test_full_sphere_interval(self):
        p = ModelProblem(1.0, 2.0, "tan")
        lam = lambda1_interval(p, -math.pi / 2, math.pi / 2)
        assert lam == pytest.approx(2.0, rel=1e-6)

    def test_power_interval_exceeds_flat(self):
        lam = lambda1_interval(ModelProblem(0.0, 2.0, "power"), 1.0, 2.0)
        assert lam >= math.pi**2

    def test_model_flat_values(self):
        for N in (1.0, 2.0, 3.0, 10.0, INF):
            for d in (0.5, 1.0, 2.0):
                assert lambda1_model(0.0, N, d) == math.pi**2 / d**2
        with pytest.raises(ValueError, match="d must be positive"):
            lambda1_model(0.0, 2.0, math.nan)

    @pytest.mark.parametrize("p", [
        ModelProblem(0.0, 1.0, "flat"), ModelProblem(0.0, 2.0, "flat"),
        ModelProblem(0.0, 10.0, "flat"), ModelProblem(0.0, INF, "constant", 0.0)])
    @pytest.mark.parametrize("a, b", [(-0.5, 0.5), (0.3, 1.7), (-2.6, -0.1)])
    def test_flat_interval_quotient(self, p, a, b):
        # lambda1_model answers K = 0 in closed form, so the quotient on a
        # density-1 chart is checked here
        assert lambda1_interval(p, a, b) == pytest.approx(math.pi**2 / (b - a)**2,
                                                          rel=1e-13, abs=0)

    def test_model_lichnerowicz_endpoint(self):
        assert lambda1_model(1.0, 2.0, math.pi) == pytest.approx(2.0, abs=1e-6)

    def test_model_myers_violation(self):
        with pytest.raises(ValueError):
            lambda1_model(1.0, 2.0, math.pi + 0.01)

    def test_N_checked_by_the_problem(self):
        # ModelProblem rejects N <= 1 except on the flat chart, where N = 1
        # (a 1-D Lebesgue certificate) is admissible
        with pytest.raises(ValueError, match="N must be > 1"):
            lambda1_model(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="N must be > 1"):
            model_solution(0.0, 1.0, 5.0)
        assert lambda1_model(0.0, 1.0, 1.0) == pytest.approx(math.pi**2, rel=1e-10)

    @pytest.mark.parametrize("K, N, d, match", [
        (0.0, math.nan, 1.0, "N must be > 1"), (0.0, -INF, 1.0, "N must be > 1"),
        (0.0, 3.0, INF, "d must be positive"), (-INF, 3.0, 1.0, "K must be finite"),
        (-1.0, INF, INF, "d must be positive")])
    def test_impossible_parameters_rejected(self, K, N, d, match):
        # these read pi^2, pi^2, 0.0, a RuntimeWarning and an SVD failure
        with pytest.raises(ValueError, match=match):
            lambda1_model(K, N, d)

    @pytest.mark.parametrize("K", [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0])
    @pytest.mark.parametrize("d", [0.3, 1.0, 1.5, 2.5, 3.0])
    def test_gaussian_curvature_shift(self, K, d):
        # v' of the first Neumann mode for drift K t is the Dirichlet ground
        # state with eigenvalue lambda - K; e^(-K t^2/2) v' is then the
        # Dirichlet ground state for drift -K t with eigenvalue lambda, whose
        # Neumann value is lambda - K
        assert lambda1_model(K, INF, d) == pytest.approx(lambda1_model(-K, INF, d) + K,
                                                         rel=1e-13, abs=0)

    def test_model_gaussian_large_interval(self):
        assert lambda1_model(1.0, INF, 10.0) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("K, d", [(1.0, math.sqrt(8000.0)), (200.0, 10.0),
                                      (1000.0, 10.0)])
    def test_model_gaussian_underflow(self, K, d):
        # rho = exp(-K t^2 / 2) underflows at most nodes of [-d/2, d/2];
        # lambda_1 is within e^-40 of K, the full line's value
        assert lambda1_model(K, INF, d) == pytest.approx(K, rel=1e-14, abs=0)

    def test_frozen_model_values(self):
        got = [lambda1_model(K, N, d) for K, N, d, _ in FROZEN_MODEL]
        assert got == pytest.approx([row[-1] for row in FROZEN_MODEL], rel=1e-14, abs=0)

    def test_frozen_interval_values(self):
        got = [lambda1_interval(ModelProblem(K, N, chart), a, b)
               for K, N, chart, a, b, _ in FROZEN_INTERVAL]
        assert got == pytest.approx([row[-1] for row in FROZEN_INTERVAL], rel=1e-14, abs=0)

    def test_frozen_centered_values(self):
        got = []
        for K, N, chart, h, _ in FROZEN_CENTERED:
            p = ModelProblem(K, N, chart)
            h = p.half_width if h is None else h
            got.append(lambda1_interval(p, -h, h))
        assert got == pytest.approx([row[-1] for row in FROZEN_CENTERED], rel=1e-14, abs=0)

    # centered intervals whose degree stops at 24, 48, 96, 192 and 384
    ODD_POINTS = [(2.0, 10.0, "tan", None), (1.0, 3.0, "tan", 1.2), (4.0, 2.0, "tan", 0.7),
                  (-3.0, 2.0, "tanh", 2.0), (-1.0, 1.5, "tanh", 4.0),
                  (-5.0, 1.5, "tanh", 4.0), (-50.0, 1.5, "tanh", 2.0),
                  (2.0, INF, "linear", 1.5), (-2.0, INF, "linear", 3.0),
                  (5.0, INF, "linear", 6.0), (20.0, INF, "linear", 5.0),
                  (30.0, INF, "linear", 6.0), (-20.0, 3.0, "tanh", 4.0)]
    # lambda_1(-20, 3, 8) = 8.2e-10: the full quotient is 1.7e-14 off the
    # odd one with the Ritz vector a singular vector, and 1.0e-13 off with
    # it an eigenvector of the Gram matrix; its tails of about 5e-8 at
    # degree 192 are rounding noise.  (value rel, tail floor) per point
    ODD_TOL = {(-20.0, 3.0, "tanh", 4.0): (5e-14, 1e-7)}

    @pytest.mark.parametrize("K, N, chart, h", ODD_POINTS)
    def test_odd_quotient_matches_full(self, monkeypatch, K, N, chart, h):
        # the quotient over odd polynomials against the one over every
        # degree (no chart counted even): the same value, the same stop
        # decision at every degree, and the same tail where it is above
        # rounding noise and the degree resolves v (on a wide Gaussian the
        # stiffness of 24 or 48 full degrees is not even positive)
        p = ModelProblem(K, N, chart)
        h = p.half_width if h is None else h
        ritz = model1d._ritz

        def run():
            tails = []

            def recording(problem, a, b, alpha, beta, n):
                out = ritz(problem, a, b, alpha, beta, n)
                tails.append((n, out[1]))
                return out

            monkeypatch.setattr(model1d, "_ritz", recording)
            return lambda1_interval(p, -h, h), tails

        odd, odd_tails = run()
        monkeypatch.setattr(model1d, "_symmetric", lambda problem, a, b: False)
        full, full_tails = run()
        assert [n for n, _ in odd_tails] == [n for n, _ in full_tails]
        rel, floor = self.ODD_TOL.get((K, N, chart, h), (1e-14, 1e-8))
        assert odd == pytest.approx(full, rel=rel, abs=0)
        for (_, t_odd), (_, t_full) in zip(odd_tails, full_tails):
            if floor < t_full < 1e-2:
                assert t_odd == pytest.approx(t_full, rel=1e-3)

    def test_model_negative_curvature_vs_oracle(self):
        lam = lambda1_model(-1.0, 3.0, 2.0)
        vals = sturm_liouville_oracle(ModelProblem(-1.0, 3.0, "tanh"), -1.0, 1.0)
        assert lam == pytest.approx(vals[1], rel=1e-6)

    def test_symmetric_consistency_same_code_path(self):
        p = centered_model(-0.5, 4.0)
        d = 1.7
        assert lambda1_model(-0.5, 4.0, d) == lambda1_interval(p, -d / 2, d / 2)

    def test_oracle_agreement_sample_charts(self):
        cases = [
            (ModelProblem(1.0, 2.0, "tan"), -1.0, 1.0),
            (ModelProblem(-1.0, 2.0, "tanh"), -1.0, 1.0),
            (ModelProblem(-1.0, 3.0, "coth"), 0.5, 2.5),
            (ModelProblem(0.0, 3.0, "power"), 0.3, 1.7),
            (ModelProblem(0.0, 2.0, "flat"), -0.5, 0.5),
            (ModelProblem(2.0, INF, "linear"), 0.5, 3.0),
        ]
        for p, a, b in cases:
            lam = lambda1_interval(p, a, b)
            vals = sturm_liouville_oracle(p, a, b)
            assert vals[0] == pytest.approx(0.0, abs=1e-6 * vals[1])
            assert lam == pytest.approx(vals[1], rel=1e-6)

    # a centered point on every chart, the last at 0.9 of the Myers length
    # pi sqrt((N-1)/K)
    WORK_POINTS = [(-1.0, 3.0, 2.0), (-3.0, 5.0, 1.0), (-2.0, INF, 2.5),
                   (0.0, 4.0, 1.0), (0.0, INF, 0.5), (1.0, 3.0, 2.0),
                   (3.0, INF, 2.0), (0.5, 2.0, 4.0),
                   (2.0, 10.0, 0.9 * math.pi * math.sqrt(4.5))]

    @pytest.mark.parametrize("K, N, d", WORK_POINTS)
    def test_work_bound(self, monkeypatch, K, N, d):
        # at most one doubling of the Galerkin degree from 24; none at all
        # for K = 0, whose value is pi^2/d^2
        degrees = []
        ritz = model1d._ritz

        def counting(problem, a, b, alpha, beta, n):
            degrees.append(n)
            return ritz(problem, a, b, alpha, beta, n)

        monkeypatch.setattr(model1d, "_ritz", counting)
        lambda1_model(K, N, d)
        assert len(degrees) <= (0 if K == 0.0 else 2), degrees

    # lambda_1 is within rel of lambda1_model where the shot's v(0) changes
    # sign across lambda1_model (1 -+ rel).  The first four are small
    # eigenvalues, which a Pruefer-phase secant read 6.7e-8, 1.5e-6, 1.6e-4
    # and 2.5e-7 high; on (5, inf, 10) rho spans 27 decades, where a
    # polynomial basis not orthonormal for rho loses digits
    @pytest.mark.parametrize("K, N, d, rel", [
        (-4.0, 5.0, 8.0, 1e-10), (-4.0, 5.0, 10.0, 1e-8), (-20.0, INF, 3.0, 1e-8),
        (-30.0, INF, 2.0, 1e-8), (5.0, INF, 10.0, 1e-8)])
    def test_pinned_points_against_a_shot(self, K, N, d, rel):
        lam = lambda1_model(K, N, d)
        assert _shot_midpoint(K, N, d, lam * (1.0 - rel)) > 0.0
        assert _shot_midpoint(K, N, d, lam * (1.0 + rel)) < 0.0
        if (K, N, d) == (-4.0, 5.0, 8.0):
            assert lam == pytest.approx(1.0774582207451494e-05, rel=rel)

    @pytest.mark.parametrize("K", [0.5, 3.0])
    @pytest.mark.parametrize("frac", [0.87, 0.9, 0.93, 0.95])
    def test_near_myers_length(self, K, frac):
        # lambda_1 sits within 1e-4 of N K/(N-1) here, and the drift is
        # large at both ends of the interval
        N = 10.0
        d = frac * myers_length(K, N)
        lam = lambda1_model(K, N, d)
        assert 0.0 < lam - K * N / (N - 1.0) <= 1e-4 * lam
        vals = sturm_liouville_oracle(centered_model(K, N), -d / 2, d / 2)
        assert lam == pytest.approx(vals[1], rel=1e-6)

    @pytest.mark.parametrize("K, N, d", [(-0.05, INF, 20.0), (-0.05, 10.0, 20.0),
                                         (-0.2, INF, 10.0)])
    def test_long_interval_returns_first_eigenvalue(self, K, N, d):
        # lambda_1 and lambda_2 both lie below 4 pi^2/d^2, where the
        # search once started; the reference is the oracle extrapolated
        # from 4000 and 8000 nodes (its error is O(h^2))
        p = centered_model(K, N)
        coarse = sturm_liouville_oracle(p, -d / 2, d / 2, n_nodes=4000, k=3)
        fine = sturm_liouville_oracle(p, -d / 2, d / 2, n_nodes=8000, k=3)
        ref = (4.0 * fine - coarse) / 3.0
        assert ref[2] < 4.0 * math.pi**2 / d**2
        assert lambda1_model(K, N, d) == pytest.approx(ref[1], rel=1e-6)

    @pytest.mark.parametrize("p, a, b, want", [
        # radial Laplacian on the N-ball: v' vanishes at j_{N/2,1}/sqrt(lam)
        (ModelProblem(0.0, 10.0, "power"), -1.0, 0.0, jn_zeros(5, 1)[0] ** 2),
        (ModelProblem(0.0, 3.0, "power"), -1.2, 0.0, (4.493409457909064 / 1.2) ** 2),
        # the first mode sin(a t) spans the whole tan chart
        (ModelProblem(2.0, 6.0, "tan"), -math.pi * 0.5 * math.sqrt(2.5),
         math.pi * 0.5 * math.sqrt(2.5), 2.4),
    ])
    def test_singular_right_endpoint(self, p, a, b, want):
        # a shot into the pole at b diverged for N = 10
        assert lambda1_interval(p, a, b) == pytest.approx(want, rel=1e-9)
        assert lambda1_interval(p, -b, -a) == pytest.approx(want, rel=1e-9)

    def test_monotone_decreasing_in_d(self):
        for K, N, dmax in [(1.0, 3.0, 0.95 * myers_length(1.0, 3.0)),
                           (-1.0, 2.5, 6.0), (0.0, 4.0, 3.0), (2.0, INF, 5.0)]:
            ds = np.linspace(0.3, dmax, 6)
            lams = [lambda1_model(K, N, d) for d in ds]
            assert all(l1 > l2 for l1, l2 in zip(lams, lams[1:]))


class TestModelSolution:
    def test_sphere_threshold_sine(self):
        # from the pole at t = 0 to the pole ahead at pi
        ms = model_solution(1.0, 2.0, 2.0)
        assert ms.a == 0.0
        assert ms.b == pytest.approx(math.pi, abs=1e-12)
        assert ms.max_value == pytest.approx(1.0, abs=1e-12)
        assert ms.vs[0] == pytest.approx(-1.0)

    def test_sinc_case(self):
        # v = -sin(sqrt(lam) t)/(sqrt(lam) t); b from the first root of tan x = x
        ms = model_solution(0.0, 3.0, math.pi**2)
        from scipy.optimize import brentq
        xstar = brentq(lambda x: math.tan(x) - x, math.pi + 0.1, 1.5 * math.pi - 1e-9)
        assert ms.b == pytest.approx(xstar / math.pi, rel=1e-8)
        assert ms.max_value == pytest.approx(-math.cos(xstar), rel=1e-8)
        assert ms.vs[0] == -1.0

    def test_bessel_case(self):
        # N = 2: v = -J_0(sqrt(lam) t), first max at j_{1,1}
        j11 = jn_zeros(1, 1)[0]
        ms = model_solution(0.0, 2.0, 4.0)
        assert ms.b == pytest.approx(j11 / 2.0, rel=1e-8)
        assert ms.max_value == pytest.approx(-j0(j11), rel=1e-8)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            model_solution(1.0, 2.0, 1.5)

    def test_requires_finite_N(self):
        with pytest.raises(ValueError):
            model_solution(1.0, INF, 3.0)

    def test_negative_curvature_threshold(self):
        # at or below (N-1)|K|/4 v' has no zero on the coth chart
        assert model1d.model_threshold(-1.0, 3.0) == 0.5
        assert model1d.model_threshold(-4.0, 2.0) == 1.0
        assert model1d.model_threshold(0.0, 3.0) == 0.0
        with pytest.raises(ValueError, match="threshold 0.5"):
            model_solution(-1.0, 3.0, 0.5)
        with pytest.raises(ValueError, match="threshold 1.0"):
            fit_model_solution(-4.0, 2.0, 0.5, 0.9)

    @pytest.mark.parametrize("N", [1.0, 0.5, math.nan])
    def test_threshold_needs_N_above_one(self, N):
        # N = 1 divided by zero, and N = 0.5 read a threshold of -1.0
        with pytest.raises(ValueError, match="N must be > 1"):
            model1d.model_threshold(1.0, N)
        with pytest.raises(ValueError, match="N must be > 1"):
            fit_model_solution(1.0, N, 5.0, 1.0)

    @pytest.mark.parametrize("fn, args, match", [
        (model_solution, (math.nan, 3.0, 6.0), "K must be finite, got nan"),
        (model_solution, (-INF, 3.0, 6.0), "K must be finite, got -inf"),
        (model_solution, (1.0, 3.0, math.nan), "lam must be a number, got nan"),
        (fit_model_solution, (math.nan, 3.0, 6.0, 0.9), "K must be finite, got nan"),
        (fit_model_solution, (1.0, 3.0, math.nan, 0.9), "lam must be a number, got nan"),
        (fit_model_solution, (1.0, 3.0, 6.0, math.nan), "k must be positive, got nan"),
    ], ids=["solution-K", "solution-K-inf", "solution-lam", "fit-K", "fit-lam", "fit-k"])
    def test_nan_arguments_named(self, fn, args, match):
        # each raised SolverError, or probed for 0.13 s first (k = NaN)
        with pytest.raises(ValueError, match=match):
            fn(*args)

    def test_vprime_positive_interior(self):
        ms = model_solution(-1.0, 3.0, 4.0)
        assert np.all(ms.vps[1:-1] > 0)


class TestFit:
    def test_k_at_m_returns_model_solution(self):
        ms = model_solution(0.0, 3.0, math.pi**2)
        fit = fit_model_solution(0.0, 3.0, math.pi**2, ms.max_value)
        assert fit.a == ms.a
        assert fit.b == pytest.approx(ms.b, rel=1e-12, abs=0)

    def test_centered_symmetric_for_k_one(self):
        fit = fit_model_solution(0.0, INF, math.pi**2, 1.0)
        assert fit.b - fit.a == pytest.approx(1.0, rel=1e-8)
        assert fit.max_value == pytest.approx(1.0, abs=1e-8)

    def test_power_fit_half_reshoots(self):
        lam = math.pi**2
        fit = fit_model_solution(0.0, 3.0, lam, 0.5)
        assert abs(fit.max_value - 0.5) <= 1e-8
        p = ModelProblem(0.0, 3.0, "power")
        a = chart_start(p, fit.fitted_param)
        re = shoot(p, lam, a, a + fit.b - fit.a)
        assert abs(float(re.vs.max()) - 0.5) <= 1e-6
        assert abs(re.vps[-1]) <= 1e-6

    def test_constant_chart_analytic_drift(self):
        # max value of the constant-drift family is exp(c pi / (2 omega))
        lam, k = math.pi**2, 0.55
        fit = fit_model_solution(0.0, INF, lam, k)
        c = fit.fitted_param
        om = math.sqrt(lam - c * c / 4.0)
        assert math.exp(c * math.pi / (2 * om)) == pytest.approx(k, abs=1e-7)
        assert fit.b - fit.a == pytest.approx(math.pi / om, rel=1e-6)

    def test_reflection_for_k_above_one(self):
        fit = fit_model_solution(0.0, 3.0, math.pi**2, 2.0)
        assert fit.max_value == pytest.approx(2.0, abs=1e-7)
        assert fit.min_value == -1.0
        # fitted_param is the reflected solution's own start drift, T > 0:
        # on the power chart it starts left of the pole
        p = ModelProblem(0.0, 3.0, "power")
        a = chart_start(p, fit.fitted_param)
        assert a < 0.0
        re = shoot(p, math.pi**2, a, a + fit.b - fit.a)
        assert float(re.vs.max()) == pytest.approx(2.0, abs=1e-5)

    def test_k_out_of_range(self):
        m = model_solution(0.0, 3.0, math.pi**2).max_value
        with pytest.raises(ValueError):
            fit_model_solution(0.0, 3.0, math.pi**2, 0.5 * m)
        with pytest.raises(ValueError):
            fit_model_solution(0.0, 3.0, math.pi**2, 2.5 / m)

    def test_fit_positive_curvature(self):
        fit = fit_model_solution(1.0, 2.0, 2.5, 0.8)
        assert fit.max_value == pytest.approx(0.8, abs=1e-7)

    def test_fit_negative_curvature_branches(self):
        for k in (0.25, 0.5, 0.95, 1.8):
            fit = fit_model_solution(-1.0, 3.0, 4.0, k)
            assert fit.max_value == pytest.approx(k, abs=1e-7)

    def test_fitted_interval_eigenvalue_matches(self):
        # the fitted interval really has first eigenvalue lam
        lam = math.pi**2
        fit = fit_model_solution(0.0, 3.0, lam, 0.6)
        p = ModelProblem(0.0, 3.0, "power")
        a = chart_start(p, fit.fitted_param)
        assert lambda1_interval(p, a, a + fit.b - fit.a) == pytest.approx(lam, rel=1e-7)


def _downcross(T, v, w, w_prev):
    """v' fell through 0: a stop at the first maximum and nowhere else."""
    return w_prev > 0.0 >= w


def _count_probes(monkeypatch):
    """(K, N, lam, start drift) of every later _first_max call."""
    shots = []
    first_max = model1d._first_max

    def counting_first_max(K, N, lam, tau):
        shots.append((K, N, lam, tau))
        return first_max(K, N, lam, tau)

    monkeypatch.setattr(model1d, "_first_max", counting_first_max)
    return shots


class TestFitBranches:
    # each input is a corner of the family that the cases above miss
    @pytest.mark.parametrize("K, N, lam, k, tol", [
        (-4.0, 2.0, 20.0, 0.5, 1e-8),         # K < 0, tau in the tanh range
        (0.5, INF, 0.7, 0.3, 1e-8),           # linear chart, failing probes
        (1.0, 2.0, 3.0, 0.7, 1e-8),           # tan chart, a failing probe
        (0.0, 2.0, 0.2, 0.99999999, 1e-7),    # power chart, next to flat
        (0.0, 4.0, 0.5, 1.0 - 3.3e-8, 1e-8),  # the 1/a tail, 3.3e-8 off flat
        (0.0, 4.0, 0.5, 1.0 - 5e-9, 1e-8),    # power chart, flat member
        (0.0, INF, 10.0, 0.2, 1e-8),          # constant chart, c < 0
        # with probes at the default tolerance this fit ends 1.7e-7 off k;
        # it is the reflection of the fit for 1/3
        (3.0, INF, 3.2, 3.0, 1e-8),
        # K < 0 with N < 2: a probe past tau = sqrt(|K| (N-1)) runs into
        # the pole ahead, where v can be negative (it reads M = +inf)
        (-1.0, 1.5, 2.0, 0.9, 1e-8),
        (-3.0, 1.2, 5.0, 1.02, 1e-8),
        # tan chart with N < 2: 4 of the 12 probes find no first maximum
        (1.0, 1.2, 6.05, 0.997, 1e-8),
        (1.0, 1.2, 6.05, 1.003, 1e-8),
    ])
    def test_fit_reaches_k(self, K, N, lam, k, tol):
        # tol is relative to max(1, k), as the fit's own tolerance
        fit = fit_model_solution(K, N, lam, k)
        assert abs(fit.max_value - k) <= tol * max(1.0, k)
        assert fit.min_value == -1.0

    @pytest.mark.parametrize("K, lam", [(3.0, 3.2), (0.5, 0.7)])
    def test_linear_fit_reaches_large_k(self, K, lam):
        # k = 20 is the reflection of the fit for 1/20.  A walk up the
        # family toward 20 raised "out of reach" here: near tau = -3.832
        # (K = 3) M climbs from 2.3 to 5.6 within 0.01, and probes past it
        # find no first maximum
        k = 20.0
        fit = fit_model_solution(K, INF, lam, k)
        assert abs(fit.max_value - k) <= 1e-8 * k
        assert fit.min_value == -1.0
        assert fit.a == fit.ts[0] == 0.0 and fit.ts[-1] == fit.b  # on [0, L] as every fit
        # the fit for 1/20 by scipy: from the reflected solution's end
        # drift -T(b), v rises to its first maximum 1/20 at the length b - a
        L = fit.b - fit.a
        v, w, _ = riccati_shot(K, INF, lam, (0.0, L), (-1.0, 0.0, -(fit.fitted_param + K * L)),
                               t_eval=fit.b - fit.ts[::-1])
        assert np.all(w[1:-1] > 0.0)
        assert abs(w[-1]) <= 1e-9
        assert abs(v[-1] - 1.0 / k) <= 1e-9 / k
        assert np.max(np.abs(fit.vs - (-v[::-1] / v[-1]))) <= 1e-8 * k

    @pytest.mark.parametrize("K, lam, k", [(-4.0, 0.2, 0.3), (-1.0, 0.5, 20.0)])
    def test_linear_negative_curvature(self, K, lam, k):
        # M(a) falls towards 0 as a nears the end of the family, past which
        # probes find no first maximum; both took 94-207 s and then failed,
        # walking away from k with each failing probe run to the horizon
        t0 = time.perf_counter()
        fit = fit_model_solution(K, INF, lam, k)
        assert time.perf_counter() - t0 < 5.0
        assert abs(fit.max_value - k) <= 1e-8
        assert fit.min_value == -1.0

    @pytest.mark.parametrize("a, reached", [(-1.0, True), (-0.5, False),
                                            (0.0, False), (0.5, False)])
    def test_escape_ends_only_failing_probes(self, a, reached):
        # K = -1, lam = 0.5: a first maximum exists for a <= -1 only; the
        # escape test ends the other probes early and never a reachable one
        K, lam = -1.0, 0.5
        tau = K * a  # the drift at a on the linear chart
        horizon = 64.0 * math.pi / math.sqrt(lam)
        plain = model1d._integrate(K, INF, lam, tau, horizon, until=_downcross)
        early = model1d._integrate(K, INF, lam, tau, horizon,
                                   until=partial(model1d._out_of_reach, K, 0.0, lam))
        assert (plain[2][-1] <= 0.0) == reached
        if reached:
            assert early == plain
        else:
            assert len(early[0]) < len(plain[0]) / 100

    @pytest.mark.parametrize("a, reached", [(-1.2, True), (-1.0, True),
                                            (-0.9, False), (-0.8, False)])
    def test_pole_stop_ends_only_failing_probes(self, a, reached):
        # tan chart, K = 1, N = 2, lam = 2.5: the pole is at pi/2 and a first
        # maximum exists for a <= -1 here; the pole stop ends the other
        # probes early and never a reachable one
        lam = 2.5
        tau = math.tan(a)  # the drift at a on the tan chart
        cap = (0.5 * math.pi - a) * (1.0 - 1e-12)
        early = model1d._integrate(1.0, 2.0, lam, tau, cap,
                                   until=partial(model1d._out_of_reach, 1.0, 1.0, lam))
        near = 0.5 * math.pi * (1.0 - 1e-6) - a
        plain = model1d._integrate(1.0, 2.0, lam, tau, cap if reached else near,
                                   until=_downcross)
        assert (plain[2][-1] <= 0.0) == reached
        if reached:
            assert early == plain
        else:
            assert early[2][-1] > 0.0
            assert len(early[0]) < len(plain[0])

    @pytest.mark.parametrize("K, N, lam", [(-1.0, 1.5, 2.0), (0.0, 1.5, 2.0),
                                            (0.0, 1.2, 5.0)])
    def test_pole_ahead_probes_read_large_maxima(self, K, N, lam):
        # with N < 2, v stays finite up to a drift pole ahead and can be
        # negative there; such a probe has no first maximum and, as every
        # probe past the fitted start drift, reads M = +inf
        q, tau = 1.0 / (N - 1.0), 1.0
        cap = model1d._pole_ahead(K, N, tau) * (1.0 - 1e-12)
        ts, vs, ws, _ = model1d._integrate(K, N, lam, tau, cap, 1e-12,
                                           partial(model1d._out_of_reach, K, q, lam))
        assert ts[-1] == pytest.approx(cap, rel=1e-12)
        assert vs[-1] < 0.0 and np.all(np.array(ws[1:]) > 0.0)
        shot = model1d._first_max(K, N, lam, tau)
        assert math.isnan(shot.b) and shot.top == INF

    def test_tanh_fit_eigenvalue_matches(self):
        lam = 20.0
        fit = fit_model_solution(-4.0, 2.0, lam, 0.5)
        p = ModelProblem(-4.0, 2.0, "tanh")
        a = chart_start(p, fit.fitted_param)
        assert fit.a == 0.0
        assert coeff_T(p, a) == pytest.approx(fit.fitted_param, rel=1e-14)
        assert lambda1_interval(p, a, a + fit.b - fit.a) == pytest.approx(lam, rel=1e-7)

    @pytest.mark.parametrize("K, N, lam, k", [
        (1.0, 3.0, 6.0, 0.9), (-1.0, 3.0, 4.0, 0.25), (-1.0, 3.0, 4.0, 0.95),
        (0.0, 2.0, 5.0, 1.3), (0.0, INF, 5.0, 0.9), (1.0, INF, 6.0, 1.1),
        (-1.0, INF, 5.0, 0.9), (1.0, 3.0, 6.0, 1.2), (1.0, 2.0, 3.0, 0.7),
        (-4.0, 2.0, 20.0, 0.5), (0.0, 2.0, 5.0, 0.9), (0.5, INF, 0.7, 0.3),
    ])
    def test_only_accepted_fit_sampled_densely(self, monkeypatch, K, N, lam, k):
        # the accepted fit (and model_solution, for m) is sampled from its
        # own shot's steps: no start drift is shot twice, since the fit
        # keeps its closest probe's steps and takes m from model_solution
        shots = _count_probes(monkeypatch)
        fit = fit_model_solution(K, N, lam, k)
        assert abs(fit.max_value - k) <= 1e-8
        assert len(set(shots)) == len(shots), shots

    def test_diverging_probes_count_as_large_maxima(self):
        # on the linear chart with K < 0 a probe far out in a found M above
        # 1e12 and diverged; counted as M = 0 it sent the walk past k and the
        # fit ended in "failed to bracket".  k is now the reflection of the
        # fit for 1e-4, next to where probes find no first maximum: it lands
        # 2.3e-6 off, and the bracket over the reflected start drifts within
        # 1e-8
        k = 1e4
        try:
            fit = fit_model_solution(-1.0, INF, 0.3, k)
        except ValueError as exc:
            assert "closest one reached" in str(exc)
        else:
            assert abs(fit.max_value - k) <= 1e-8
            assert fit.min_value == -1.0

    def test_fit_out_of_reach_raises(self):
        # the linear family's first maximum stops short of 1e9: the probes
        # next to it find none, and the error names the closest one reached
        with pytest.raises(ValueError, match=r"^k=1000000000.0 is out of reach: probes "
                           r"next to it find no first maximum, and the closest one "
                           r"reached is 99999"):
            fit_model_solution(-1.0, INF, 0.3, 1e9)

    def test_fit_ends_within_tol_or_raises(self):
        # M is so steep in a here that probes 1.3e-14 apart differ by 1e-7;
        # the fit once settled for a probe 3.7e-8 below k, and with an
        # absolute 1e-8 tolerance it raised "out of reach" with its closest
        # probe 1.02e-8 above k.  The tolerance is relative to max(1, k).
        k = 1e6
        fit = fit_model_solution(-1.0, INF, 0.3, k)
        assert abs(fit.max_value - k) <= 1e-8 * k
        assert fit.min_value == -1.0

    def test_tan_fit_failing_probes_end_early(self, monkeypatch):
        # the probes at a = 0 and a = -pi/4 find no first maximum; each ran
        # into the drift pole until its step size underflowed (0.8 s apiece)
        steps = []
        integrate = model1d._integrate

        def counting(*args, **kwargs):
            try:
                out = integrate(*args, **kwargs)
            except model1d.SolverError:
                steps.append(INF)  # a step size underflow, say
                raise
            steps.append(len(out[0]))
            return out

        monkeypatch.setattr(model1d, "_integrate", counting)
        fit = fit_model_solution(1.0, 2.0, 2.5, 0.8)
        assert abs(fit.max_value - 0.8) <= 1e-8
        assert sum(steps) <= 4000


def _scipy_first_max(K, N, lam, tau):
    """The first maximum M(tau) of the family member T(0) = tau by
    :func:`riccati_shot`'s equations, ended by scipy's event on v' falling
    through 0."""
    q = 0.0 if N == INF else 1.0 / (N - 1.0)

    def downcross(t, y):
        return y[1]

    downcross.terminal, downcross.direction = True, -1
    sol = solve_ivp(lambda t, y: (y[1], y[2] * y[1] - lam * y[0], K + q * y[2] * y[2]),
                    (0.0, 64.0 * math.pi / math.sqrt(lam)), (-1.0, 0.0, tau),
                    method="DOP853", rtol=1e-12, atol=1e-14, events=downcross)
    assert sol.status == 1, (K, N, lam, tau)
    return sol.y_events[0][0, 0]


class TestFamily:
    # (K, N, lam) and a span of start drifts tau on which every member has
    # a first maximum: tan; K < 0 with finite N across the constant drift
    # tau = -sqrt(|K| (N-1)) (coth below it, tanh above); K = 0 with finite
    # N (power, the flat member tau = 0, then a pole ahead); linear with K
    # of either sign; constant
    FAMILIES = [(1.0, 3.0, 6.0, -8.0, 0.5), (-1.0, 3.0, 4.0, -3.0 * math.sqrt(2.0), 1.2),
                (0.0, 2.0, 5.0, -10.0, 0.5), (1.0, INF, 6.0, -4.0, 2.0),
                (-1.0, INF, 5.0, -1.5, 4.0), (0.0, INF, 10.0, -5.5, 5.5)]

    @pytest.mark.parametrize("K, N, lam, lo, hi", FAMILIES)
    def test_first_max_rises_with_start_drift(self, K, N, lam, lo, hi):
        # M(tau) by scipy on (v, w, T), apart from the Taylor steps, rises
        # on a seeded ladder of tau; the shots of the fit agree with it
        taus = np.sort(np.random.default_rng(7).uniform(lo, hi, 10))
        if K < 0 and math.isfinite(N):
            taus = np.sort(np.r_[taus, -math.sqrt(-K * (N - 1.0))])
        tops = np.array([_scipy_first_max(K, N, lam, t) for t in taus])
        assert np.all(np.diff(tops) > 0.0), tops
        shots = [model1d._first_max(K, N, lam, t).top for t in taus]
        assert shots == pytest.approx(tops, rel=1e-8, abs=0)


class TestFitWork:
    # the six model-sweep fit families, lam 4.5-5.5 above the threshold and
    # k in 0.85-1.15; each took 24-28 probes while the fit bisected, and
    # 8-13 shots with model_solution's and the accepted one's counted
    @pytest.mark.parametrize("K, N, above, k", [
        (1.0, 3.0, 4.5, 0.85), (1.2, 3.0, 5.5, 1.15),
        (-1.0, 3.0, 5.0, 0.95), (-0.8, 3.0, 4.5, 1.1),
        (0.0, 2.0, 5.0, 0.995), (0.0, 2.0, 4.5, 1.15),
        (0.0, INF, 5.0, 0.9), (0.0, INF, 5.5, 1.05),
        (1.0, INF, 4.5, 1.1), (0.8, INF, 5.0, 0.87),
        (-1.0, INF, 5.0, 0.9), (-1.2, INF, 4.5, 1.12),
    ])
    def test_probes_per_fit(self, monkeypatch, K, N, above, k):
        lam = model1d.model_threshold(K, N) + above
        shots = _count_probes(monkeypatch)
        fit = fit_model_solution(K, N, lam, k)
        assert abs(fit.max_value - k) <= 1e-8
        assert len(shots) <= 16

    def test_power_walk_starts_at_asymptote(self, monkeypatch):
        # 1 - M(a) falls like c/a on the power chart; a walk from
        # a = 0.3/sqrt(lam) took 17 shots to reach a k this close to 1.  In
        # the start drift tau = -(N-1)/a, 1 - M is linear next to the flat
        # member tau = 0, the bracket's first probe
        K, N, lam, k = 0.0, 3.0, 9.743419838555312, 1.0 - 1.46e-8
        shots = _count_probes(monkeypatch)
        fit = fit_model_solution(K, N, lam, k)
        assert model1d._fits(fit.max_value, k)
        assert len(shots) <= 5

    def test_model_sweep_steps(self, monkeypatch):
        # the 160 shots of the model-sweep fits of seeds 1-3 took 620 Taylor
        # steps by the chart walks, at most 6 a shot; DOP853 took 3150, and
        # up to 64 a shot
        steps = []
        integrate = model1d._integrate

        def counting(*args, **kwargs):
            out = integrate(*args, **kwargs)
            steps.append(len(out[3]))
            return out

        monkeypatch.setattr(model1d, "_integrate", counting)
        for seed in (1, 2, 3):
            for f in _model_sweep_fits(seed):
                fit = fit_model_solution(f["K"], f["N"], f["lam"], f["k"])
                assert model1d._fits(fit.max_value, f["k"])
                if math.isfinite(f["N"]):
                    model_solution(f["K"], f["N"], f["lam"])
        assert max(steps) <= 8
        assert sum(steps) <= 700

    def test_k_one_is_flat_member(self, monkeypatch):
        # k = 1 is the flat member tau = 0, v = -cos(sqrt(lam) t): the
        # bracket's first probe, after model_solution
        shots = _count_probes(monkeypatch)
        fit = fit_model_solution(0.0, 2.0, 5.0, 1.0)
        assert fit.fitted_param == 0.0
        assert abs(fit.max_value - 1.0) <= 1e-15
        assert np.max(np.abs(fit.vs + np.cos(math.sqrt(5.0) * fit.ts))) <= 1e-13
        assert len(shots) <= 2


def _model_sweep_fits(seed):
    """The fit inputs of the benchmark's model-sweep workload for ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_inputs("model-sweep", seed)["fits"]


class TestQuinticRoots:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_model_sweep_roots_take_few_evaluations(self, monkeypatch, seed):
        # once an end of the bracket was the root to rounding, the
        # false-position point rounded onto that end and the other end moved
        # in by halves: a fifth of these roots took 21-38 evaluations of the
        # last step's interpolant.  Counted here: the scalar polynomial
        # evaluations a shot makes after its integration returns
        evals = []
        poly, integrate = model1d._poly, model1d._integrate

        def counting_poly(c, s):
            if evals and evals[-1] is not None and np.isscalar(s):
                evals[-1] += 1
            return poly(c, s)

        def counting_integrate(*args, **kwargs):
            evals.append(None)  # the integration's own step ends do not count
            out = integrate(*args, **kwargs)
            evals[-1] = -1  # the shot's last scalar evaluation is v(b)
            return out

        monkeypatch.setattr(model1d, "_poly", counting_poly)
        monkeypatch.setattr(model1d, "_integrate", counting_integrate)
        for f in _model_sweep_fits(seed):
            fit = fit_model_solution(f["K"], f["N"], f["lam"], f["k"])
            assert model1d._fits(fit.max_value, f["k"])
            if math.isfinite(f["N"]):
                model_solution(f["K"], f["N"], f["lam"])
        # failed shots end before a root
        roots = [n for n in evals if n is not None and n >= 0]
        assert roots
        assert max(roots) <= 12


def _capped_reference(problem, sol, start):
    """v and v' at sol.ts[start:] from scipy's DOP853 run from that sample
    on, at the integrator's default tolerance with steps capped at
    (b - a)/2000, read at the samples by its own continuous extension.
    The drift is the chart's own at the samples moved to the chart point
    whose drift is the solution's start drift ``fitted_param``
    (:func:`chart_start`)."""
    shift = chart_start(problem, sol.fitted_param) - sol.a
    T = scalar_drift(problem)
    ref = solve_ivp(lambda t, y: (y[1], T(t + shift) * y[1] - sol.lam * y[0]),
                    (sol.ts[start], sol.ts[-1]), (sol.vs[start], sol.vps[start]),
                    method="DOP853", t_eval=sol.ts[start:], max_step=(sol.b - sol.a) / 2000,
                    rtol=1e-10, atol=1e-12)
    return ref.y


class TestFitSampling:
    # chart, then fit_model_solution(K, N, lam, k), or model_solution(K, N,
    # lam) where k is None (a start at the chart's drift pole)
    @pytest.mark.parametrize("chart, K, N, lam, k", [
        ("tan", 1.0, 3.0, 6.0, 0.9),
        ("tan", 1.0, 3.0, 6.0, None),
        ("tanh", -1.0, 3.0, 4.0, 0.95),
        ("coth", -1.0, 3.0, 4.0, 0.25),
        ("coth", -1.0, 3.0, 4.0, None),
        ("power", 0.0, 3.0, math.pi**2, 0.6),
        ("power", 0.0, 3.0, math.pi**2, None),
        ("power", 0.0, 3.0, math.pi**2, 2.0),  # reflected from k = 0.5
        ("linear", 1.0, INF, 6.0, 1.1),  # reflected from k = 1/1.1
        ("linear", -1.0, INF, 5.0, 0.9),
        ("constant", 0.0, INF, 10.0, 0.2),
    ])
    def test_samples_match_capped_reintegration(self, chart, K, N, lam, k):
        if k is None:
            sol = model_solution(K, N, lam)
        else:
            sol = fit_model_solution(K, N, lam, k)
        c = sol.fitted_param if chart == "constant" else 0.0
        problem = ModelProblem(K, N, chart, c=c)
        # a shot from the drift pole has its start (a, -1, 0) as sample 0; the
        # reference starts at sample 1, since T is infinite at the pole
        series = k is None
        assert sol.ts.size == model1d._DENSE_SAMPLES + 1
        assert np.all(np.diff(sol.ts) > 0)
        ref_v, ref_w = _capped_reference(problem, sol, int(series))
        assert np.max(np.abs(sol.vs[series:] - ref_v)) <= 1e-9
        assert np.max(np.abs(sol.vps[series:] - ref_w)) <= 1e-9
        if series:
            assert sol.vps[0] == 0.0
        assert sol.max_value == sol.vs[-1]
        # the reflection of the fit for 1/k is divided by that fit's own
        # maximum, so it too starts at -1 exactly
        assert sol.vs[0] == -1.0

    # the checks below compare with closed forms, not with the integrator

    @pytest.mark.parametrize("lam", [2.0, math.pi**2, 40.0])
    def test_samples_match_sinc(self, lam):
        # N = 3, K = 0: v = -sin(x)/x = -j_0(x) with x = sqrt(lam) t, so
        # v' = sqrt(lam) j_1(x), and b is the first root of tan x = x
        sol = model_solution(0.0, 3.0, lam)
        x = math.sqrt(lam) * sol.ts
        assert np.max(np.abs(sol.vs + spherical_jn(0, x))) <= 1e-13
        assert np.max(np.abs(sol.vps - math.sqrt(lam) * spherical_jn(1, x))) <= 1e-13
        # relative, as the shot's tolerance: at lam = 2 b is 3.18
        assert sol.b == pytest.approx(4.493409457909064 / math.sqrt(lam), rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam, k", [(10.0, 0.2), (math.pi**2, 0.55), (5.0, 3.0)])
    def test_samples_match_constant_drift(self, lam, k):
        # T = c: v = e^{ct/2} (-cos(wt) + c/(2w) sin(wt)) with w^2 = lam - c^2/4,
        # so v' = (lam/w) e^{ct/2} sin(wt)
        sol = fit_model_solution(0.0, INF, lam, k)
        c = sol.fitted_param
        om = math.sqrt(lam - c * c / 4.0)
        t = sol.ts - sol.a
        grow = np.exp(0.5 * c * t)
        v = grow * (-np.cos(om * t) + c / (2.0 * om) * np.sin(om * t))
        assert np.max(np.abs(sol.vs - v)) <= 1e-13
        assert np.max(np.abs(sol.vps - lam / om * grow * np.sin(om * t))) <= 1e-13

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_model_sweep_fits_rise_up_to_b(self, seed):
        # a fitted solution rises from -1 to its first maximum at b; a step
        # of the shot that jumped over a maximum and the minimum after it
        # would show here as v' < 0 at the samples inside it
        for f in _model_sweep_fits(seed):
            sols = [fit_model_solution(f["K"], f["N"], f["lam"], f["k"])]
            if math.isfinite(f["N"]):
                sols.append(model_solution(f["K"], f["N"], f["lam"]))
            for sol in sols:
                assert np.min(sol.vps) >= -1e-9


class TestOracle:
    # every chart, and tanh at (-4, 5, 8), where lambda_1 is about 1.1e-5
    CASES = [(p, a, b) for p, (a, b) in zip(all_charts(), [
        (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (0.5, 2.5),
        (0.3, 1.7), (-0.5, 0.5), (0.5, 3.0), (-1.0, 2.0), (-1.0, 1.0)])]
    CASES.append((centered_model(-4.0, 5.0), -4.0, 4.0))

    # the centered intervals with an even density, whose matrix the oracle
    # folds: those above and criterion 3's (tan and tanh on (-1, 1) are in
    # both)
    FOLDED = [(p, a, b) for p, a, b in CASES
              if model1d._symmetric(p, a, b)]
    FOLDED += [(ModelProblem(0.0, 2.0, "flat"), -0.5, 0.5),
               (ModelProblem(1.0, INF, "linear"), -2.0, 2.0)]

    @staticmethod
    def norm1(d, off):
        return np.max(np.abs(d) + np.r_[off, 0.0] + np.r_[0.0, off])

    @pytest.mark.parametrize("p, a, b", CASES, ids=[
        f"{p.chart}-K{p.K:g}-N{p.N:g}" for p, _, _ in CASES])
    def test_lanczos_matches_bisection(self, monkeypatch, p, a, b):
        # the reference is LAPACK bisection on the full matrix the oracle
        # builds; both are accurate to eps ||A||_1, its default tolerance.
        # A folded oracle solves only with its half blocks
        lengths, dpttrs = [], scipy.linalg.lapack.dpttrs

        def counting(df, *args, **kwargs):
            lengths.append(df.size)
            return dpttrs(df, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counting)
        folded = (p, a, b) in self.FOLDED
        for n in (400, 4000, 4001, 32000):
            d, off = model1d._oracle_matrix(p, a, b, n)
            if folded:
                assert np.array_equal(d, d[::-1]) and np.array_equal(off, off[::-1])
            tol = np.finfo(float).eps * self.norm1(d, off)
            for k in (1, 2, 3, 5):
                lengths.clear()
                vals = sturm_liouville_oracle(p, a, b, n_nodes=n, k=k)
                ref = eigh_tridiagonal(d, off, eigvals_only=True, select="i",
                                       select_range=(0, k - 1))
                assert vals.shape == (k,)
                assert np.all(np.diff(vals) > 0)
                assert np.max(np.abs(vals - ref)) <= 2.0 * tol
                assert len(lengths) <= 30
                if folded:  # half the n - 2 unknowns, rounded up
                    assert max(lengths, default=0) <= (n - 1) // 2
                    assert bool(lengths) == (k > 1)
                else:
                    assert set(lengths) == {n - 2}

    @pytest.mark.parametrize("p, a, b", FOLDED, ids=[
        f"{p.chart}-K{p.K:g}-N{p.N:g}-{b:g}" for p, _, b in FOLDED])
    def test_fold_matches_full_path(self, p, a, b):
        # the same persymmetric matrix, unfolded, through the full-matrix
        # Lanczos with the oracle's shift and tolerance.  At k = 1 its stop
        # rule must wait for a second Ritz value, whose gap bounds the first
        for n in (400, 4000, 4001):
            d, off = model1d._oracle_matrix(p, a, b, n)
            tol = np.finfo(float).eps * self.norm1(d, off)
            sigma = model1d._ORACLE_SHIFT * (math.pi / (b - a)) ** 2
            for k in (1, 2, 3, 5):
                full = model1d._lowest_eigenvalues(d, off, k, sigma, tol)
                folded = sturm_liouville_oracle(p, a, b, n_nodes=n, k=k)
                assert np.max(np.abs(folded - full)) <= 2.0 * tol

    @pytest.mark.parametrize("k", [0, -1, 399])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"k = {k} "):
            sturm_liouville_oracle(centered_model(-1.0, 3.0), -1.0, 1.0,
                                   n_nodes=400, k=k)

    @pytest.mark.parametrize("n", [10, 11])
    def test_k_up_to_all_unknowns(self, n):
        # every eigenvalue of a small matrix, folded and not: the Krylov
        # space fills R^n before k + 1 Ritz values exist.  Far above the
        # shift, shift-invert keeps about eps (lambda + sigma)^2/sigma
        for p, a, b in [(centered_model(-1.0, 3.0), -1.0, 1.0),
                        (ModelProblem(2.0, INF, "linear"), 0.5, 3.0)]:
            d, off = model1d._oracle_matrix(p, a, b, n)
            ref = eigh_tridiagonal(d, off, eigvals_only=True)
            for k in (n - 3, n - 2):
                vals = sturm_liouville_oracle(p, a, b, n_nodes=n, k=k)
                np.testing.assert_allclose(vals, ref[:k], rtol=1e-12, atol=1e-13)

    def test_k_past_the_lanczos_cap(self):
        # k + 1 Ritz values need k + 1 steps: one run of 201 values on 3998
        # unknowns cannot stop (it raised after 200 steps and about 1 s),
        # while the folded matrix splits them into runs of 101 and 100
        p = ModelProblem(2.0, INF, "linear")
        with pytest.raises(ValueError, match="k = 201 .* cap of 200 steps"):
            sturm_liouville_oracle(p, 0.5, 3.0, n_nodes=4000, k=201)
        vals = sturm_liouville_oracle(p, -1.5, 1.5, n_nodes=4000, k=201)
        assert vals.shape == (201,) and np.all(np.diff(vals) > 0)
        low = sturm_liouville_oracle(p, -1.5, 1.5, n_nodes=4000, k=5)
        assert vals[:5] == pytest.approx(low, rel=1e-10, abs=1e-10)

    def test_shift_not_positive_definite(self):
        # tridiag(-1, 2, -1) has eigenvalues in (0, 4): shifted by -1 it is
        # indefinite
        with pytest.raises(model1d.SolverError, match="not positive definite"):
            model1d._lowest_eigenvalues(np.full(50, 2.0), np.full(49, -1.0), 2, -1.0,
                                        1e-15)


class TestOffCenterIntervals:
    def test_offcenter_at_least_centered_quick(self):
        rng = np.random.default_rng(42)
        # a few samples per chart; the acceptance suite runs the full 50
        for chart in ("tan", "tanh", "coth", "power", "linear"):
            for _ in range(5):
                if chart == "tan":
                    K = rng.uniform(0.3, 2.0)
                    N = rng.uniform(1.5, 6.0)
                    L = myers_length(K, N)
                    a = rng.uniform(-0.45, 0.2) * L
                    b = a + rng.uniform(0.25, 0.9) * (L / 2 - a)
                    p = ModelProblem(K, N, "tan")
                elif chart == "tanh":
                    K, N = -rng.uniform(0.3, 2.0), rng.uniform(1.5, 6.0)
                    s = math.sqrt((N - 1) / -K)
                    a = rng.uniform(-2.0, 1.0) * s
                    b = a + rng.uniform(0.4, 2.5) * s
                    p = ModelProblem(K, N, "tanh")
                elif chart == "coth":
                    K, N = -rng.uniform(0.3, 2.0), rng.uniform(1.5, 6.0)
                    s = math.sqrt((N - 1) / -K)
                    a = rng.uniform(0.05, 2.0) * s
                    b = a + rng.uniform(0.4, 2.5) * s
                    p = ModelProblem(K, N, "coth")
                elif chart == "power":
                    K, N = 0.0, rng.uniform(1.5, 6.0)
                    a = rng.uniform(0.05, 2.0)
                    b = a + rng.uniform(0.3, 2.5)
                    p = ModelProblem(K, N, "power")
                else:
                    K, N = rng.choice([-1, 1]) * rng.uniform(0.3, 2.0), INF
                    s = 1 / math.sqrt(abs(K))
                    a = rng.uniform(-2.0, 1.0) * s
                    b = a + rng.uniform(0.4, 2.5) * s
                    p = ModelProblem(K, N, "linear")
                lam_int = lambda1_interval(p, a, b)
                lam_cen = lambda1_model(K, N, b - a)
                assert lam_int >= lam_cen - 1e-8, (chart, K, N, a, b)
