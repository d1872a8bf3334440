"""Norm family examples and invariants: homogeneity, duality, Fenchel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fingap import norms
from fingap.norms import (
    NormSpec,
    _sphere_search,
    dual_norm_eval,
    dual_norm_numeric,
    euclidean_norm,
    from_config,
    is_reversible,
    legendre,
    legendre_inverse,
    norm_eval,
    quadratic_norm,
    randers_norm,
    two_slope_norm,
)


def all_test_norms():
    return [
        euclidean_norm(2),
        euclidean_norm(3),
        quadratic_norm(np.diag([4.0, 1.0])),
        quadratic_norm(np.array([[2.0, 0.5], [0.5, 1.0]])),
        randers_norm(np.eye(2), [0.5, 0.0]),
        randers_norm(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.2, -0.4]),
        two_slope_norm(2.0, 0.5),
        two_slope_norm(1.0, 1.0),
    ]


class TestExamples:
    def test_euclidean_pythagorean(self):
        assert norm_eval(euclidean_norm(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_quadratic_norm(self):
        q = quadratic_norm(np.diag([4.0, 1.0]))
        assert norm_eval(q, [1.0, 0.0]) == pytest.approx(2.0)

    def test_randers_directional(self):
        r = randers_norm(np.eye(2), [0.5, 0.0])
        assert norm_eval(r, [1.0, 0.0]) == pytest.approx(1.5)
        assert norm_eval(r, [-1.0, 0.0]) == pytest.approx(0.5)

    def test_norm_at_zero(self):
        for n in all_test_norms():
            assert norm_eval(n, np.zeros(n.dim)) == 0.0

    def test_dual_euclidean_self(self):
        assert dual_norm_eval(euclidean_norm(2), [3.0, 4.0]) == pytest.approx(5.0)

    def test_dual_quadratic(self):
        q = quadratic_norm(np.diag([4.0, 1.0]))
        assert dual_norm_eval(q, [2.0, 0.0]) == pytest.approx(1.0)

    def test_dual_randers_example(self):
        r = randers_norm(np.eye(2), [0.5, 0.0])
        assert dual_norm_eval(r, [1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert dual_norm_numeric(r, [1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_legendre_euclidean_identity(self):
        v = np.array([1.0, 2.0])
        assert np.allclose(legendre(euclidean_norm(2), v), v)
        assert np.allclose(legendre_inverse(euclidean_norm(2), [3.0, 4.0]), [3.0, 4.0])

    def test_legendre_quadratic(self):
        q = quadratic_norm(np.diag([4.0, 1.0]))
        v = np.array([1.0, 2.0])
        assert np.allclose(legendre(q, v), q.A @ v)
        assert np.allclose(legendre_inverse(q, [2.0, 0.0]), [0.5, 0.0])

    def test_legendre_zero(self):
        for n in all_test_norms():
            z = np.zeros(n.dim)
            assert np.all(legendre(n, z) == 0.0)
            assert np.all(legendre_inverse(n, z) == 0.0)

    def test_randers_drift_too_large(self):
        with pytest.raises(ValueError, match="drift too large"):
            randers_norm(np.eye(2), [1.1, 0.0])

    def test_two_slope_requires_positive(self):
        with pytest.raises(ValueError):
            two_slope_norm(-1.0, 2.0)

    def test_drift_needs_a_matrix(self):
        with pytest.raises(ValueError, match="drift b needs a matrix A"):
            NormSpec(dim=2, b=np.array([0.1, 0.0]))

    def test_family_follows_A_and_b(self):
        assert NormSpec(dim=2).family == "euclidean"
        assert NormSpec(dim=2, A=4.0 * np.eye(2)).family == "quadratic"
        assert NormSpec(dim=2, A=np.eye(2), b=np.zeros(2)).family == "randers"
        assert two_slope_norm(2.0, 0.5).family == "randers"
        # a family cannot be given, so it cannot disagree with A: A = 4I is
        # 2|v| with the dual |xi|/2
        with pytest.raises(TypeError):
            NormSpec(family="euclidean", dim=2, A=4.0 * np.eye(2))
        n = NormSpec(dim=2, A=4.0 * np.eye(2))
        assert norm_eval(n, [1.0, 0.0]) == 2.0
        assert dual_norm_eval(n, [1.0, 0.0]) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            norm_eval(euclidean_norm(2), [1.0, 2.0, 3.0])

    def test_reversibility(self):
        assert is_reversible(euclidean_norm(2))
        assert is_reversible(two_slope_norm(1.0, 1.0))
        assert not is_reversible(two_slope_norm(2.0, 0.5))
        assert not is_reversible(randers_norm(np.eye(2), [0.1, 0.0]))


class TestInvariants:
    def test_homogeneity_100_samples(self):
        rng = np.random.default_rng(0)
        for n in all_test_norms():
            v = rng.standard_normal((100, n.dim))
            t = rng.uniform(1e-3, 10.0, size=100)
            Fv = norm_eval(n, v)
            Ftv = norm_eval(n, t[:, None] * v)
            assert np.all(np.abs(Ftv - t * Fv) <= 1e-12 * (1.0 + Ftv))

    def test_duality_f_of_legendre(self):
        rng = np.random.default_rng(1)
        for n in all_test_norms():
            v = rng.standard_normal((100, n.dim))
            v = v[norm_eval(n, v) > 1e-8]
            err = np.abs(dual_norm_eval(n, legendre(n, v)) - norm_eval(n, v))
            assert np.max(err) <= 1e-8

    def test_fenchel_inequality(self):
        rng = np.random.default_rng(2)
        for n in all_test_norms():
            v = rng.standard_normal((100, n.dim))
            xi = rng.standard_normal((100, n.dim))
            pair = np.einsum("ni,ni->n", xi, v)
            prod = norm_eval(n, v) * dual_norm_eval(n, xi)
            assert np.all(pair <= prod * (1.0 + 1e-10) + 1e-300)

    def test_dual_closed_form_vs_oracle_100(self):
        rng = np.random.default_rng(4)
        for n in all_test_norms():
            count = 100 if n.dim <= 2 else 25
            for _ in range(count):
                xi = rng.standard_normal(n.dim)
                if np.linalg.norm(xi) < 1e-6:
                    continue
                closed = float(dual_norm_eval(n, xi))
                oracle = dual_norm_numeric(n, xi)
                assert abs(closed - oracle) <= 1e-8 * max(1.0, abs(closed))

    def test_legendre_round_trip(self):
        rng = np.random.default_rng(5)
        for n in all_test_norms():
            v = rng.standard_normal((100, n.dim))
            back = legendre_inverse(n, legendre(n, v))
            err = np.linalg.norm(back - v, axis=-1)
            assert np.max(err) <= 1e-8 * np.maximum(np.linalg.norm(v, axis=-1), 1e-8).max()

    def test_legendre_pairing_identity(self):
        # xi(l^{-1}(xi)) = F*(xi)^2
        rng = np.random.default_rng(6)
        for n in all_test_norms():
            xi = rng.standard_normal((50, n.dim))
            v = legendre_inverse(n, xi)
            pair = np.einsum("ni,ni->n", xi, v)
            assert np.allclose(pair, dual_norm_eval(n, xi) ** 2, rtol=1e-9, atol=1e-12)


def reference_dual(n):
    """(F*, l^{-1}) on batched covectors, each family's closed form written
    out on its own as the reference for evaluating through ``norm.dual``."""
    if n.family == "euclidean":
        return (lambda xi: np.sqrt(np.einsum("...i,...i->...", xi, xi)),
                lambda xi: xi.copy())
    if n.family == "quadratic":
        return (lambda xi: np.sqrt(np.einsum("...i,ij,...j->...", xi, n.A_inv, xi)),
                lambda xi: np.einsum("ij,...j->...i", n.A_inv, xi))
    s = float(n.b @ n.A_inv @ n.b)
    p = n.A_inv @ n.b
    dual_A = ((1.0 - s) * n.A_inv + np.outer(p, p)) / (1.0 - s) ** 2
    dual_b = -p / (1.0 - s)

    def fstar(xi):
        alpha = np.sqrt(np.einsum("...i,ij,...j->...", xi, dual_A, xi))
        return alpha + np.einsum("...i,i->...", xi, dual_b)

    def linv(xi):
        Axi = np.einsum("ij,...j->...i", dual_A, xi)
        alpha = np.sqrt(np.einsum("...i,...i->...", xi, Axi))
        Fs = alpha + np.einsum("...i,i->...", xi, dual_b)
        safe = np.where(alpha == 0.0, 1.0, alpha)
        out = Fs[..., None] * (Axi / safe[..., None] + dual_b)
        return np.where(alpha[..., None] == 0.0, 0.0, out)

    return fstar, linv


def slope_forms(a_plus, a_minus):
    """(F, F*, l, l^{-1}) of the two-slope norm a_plus v^+ + a_minus v^-,
    each written from the slopes on batched 1-D input: the reference for
    the Randers form that ``two_slope_norm`` builds."""

    def piecewise(up, down, covector=False):
        def form(v):
            x = v[..., 0]
            out = np.where(x >= 0, up(x), down(x))
            return out[..., None] if covector else out
        return form

    return (piecewise(lambda x: a_plus * x, lambda x: -a_minus * x),
            piecewise(lambda x: x / a_plus, lambda x: -x / a_minus),
            piecewise(lambda x: a_plus**2 * x, lambda x: a_minus**2 * x, True),
            piecewise(lambda x: x / a_plus**2, lambda x: x / a_minus**2, True))


def slope_rtol(a_plus, a_minus):
    """Rounding bound of the Randers form against the slope formulas: p|v|
    and qv cancel along the smaller slope, as do 1 and s in the dual."""
    return 4.0 * np.finfo(float).eps * max(a_plus, a_minus) / min(a_plus, a_minus)


def dual_family_norms():
    A3 = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 0.7]])
    return [
        euclidean_norm(2),
        euclidean_norm(3),
        quadratic_norm(np.array([[2.0, 0.5], [0.5, 1.0]])),
        quadratic_norm(A3),
        randers_norm(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.2, -0.4]),
        randers_norm(np.eye(3), [0.3, 0.1, 0.1]),
        randers_norm(A3, [0.2, -0.3, 0.25]),
    ]


def turned(ev, b):
    """(R diag(ev) R^T, R b) for a seeded rotation R.  For a hard case, b
    keeps a weight of rounding size on A's computed top eigenspace, and eigh
    splits a repeated top eigenvalue by rounding."""
    R = np.linalg.qr(np.random.default_rng(24).standard_normal((len(ev),) * 2))[0]
    A = R @ np.diag(ev) @ R.T
    return (A + A.T) / 2, R @ np.asarray(b)


class TestDualNorm:
    def test_same_values_as_written_out_forms(self):
        rng = np.random.default_rng(21)
        for n in dual_family_norms():
            fstar, linv = reference_dual(n)
            xi = rng.standard_normal((200, n.dim))
            xi[0] = 0.0
            assert np.array_equal(dual_norm_eval(n, xi), fstar(xi)), n
            assert np.array_equal(legendre_inverse(n, xi), linv(xi)), n
            assert np.array_equal(dual_norm_eval(n, xi[3]), fstar(xi[3])), n

    def test_two_slope_within_rounding(self):
        # the Randers form against the slope formulas, within slope_rtol
        rng = np.random.default_rng(22)
        x = rng.standard_normal((500, 1)) * 10.0
        for a_plus, a_minus in ((1.7, 0.3), (3.1, 0.9), (0.37, 2.9)):
            n = two_slope_norm(a_plus, a_minus)
            _, fstar, _, linv = slope_forms(a_plus, a_minus)
            rtol = slope_rtol(a_plus, a_minus)
            np.testing.assert_allclose(dual_norm_eval(n, x), fstar(x), rtol=rtol, atol=0)
            np.testing.assert_allclose(legendre_inverse(n, x), linv(x), rtol=rtol, atol=0)

    def test_two_slope_ratio_sweep(self):
        # F, F*, l and l^{-1} for slope ratios 1 to 1e6, either slope the
        # larger, at scales 1e-2 to 1e2
        rng = np.random.default_rng(26)
        x = np.concatenate([[[0.0]], rng.standard_normal((300, 1)) * 10.0])
        kernels = (norm_eval, dual_norm_eval, legendre, legendre_inverse)
        for ratio in np.concatenate([[1.0, 1e6], 10.0 ** rng.uniform(0.0, 6.0, 40)]):
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            slopes = (scale * ratio, scale)
            if rng.random() < 0.5:
                slopes = slopes[::-1]
            n = two_slope_norm(*slopes)
            rtol = slope_rtol(*slopes)
            for kernel, form in zip(kernels, slope_forms(*slopes), strict=True):
                np.testing.assert_allclose(kernel(n, x), form(x), rtol=rtol, atol=0,
                                           err_msg=f"{kernel.__name__} at {slopes}")

    def test_dual_of_dual_is_the_norm(self):
        for n in dual_family_norms() + [two_slope_norm(1.7, 0.3)]:
            dd = n.dual.dual
            assert dd.family == n.family and n.dual.family == n.family
            if n.family in ("quadratic", "randers"):
                np.testing.assert_allclose(dd.A, n.A, rtol=0, atol=1e-12)
            if n.family == "randers":
                np.testing.assert_allclose(dd.b, n.b, rtol=0, atol=1e-12)
        # a two-slope norm's dual has the slopes 1/a_plus, 1/a_minus, and
        # the dual of that has the norm's own
        ends = np.array([[1.0], [-1.0]])
        for a_plus, a_minus in ((1.7, 0.3), (0.37, 2.9)):
            n = two_slope_norm(a_plus, a_minus)
            np.testing.assert_allclose(norm_eval(n.dual, ends), [1 / a_plus, 1 / a_minus],
                                       rtol=1e-12)
            np.testing.assert_allclose(norm_eval(n.dual.dual, ends), [a_plus, a_minus],
                                       rtol=1e-12)

    def test_dual_is_cached(self):
        n = randers_norm(np.eye(2), [0.2, 0.1])
        assert n.dual is n.dual
        assert euclidean_norm(2).dual.family == "euclidean"

    def test_sphere_max_closed_forms(self):
        assert euclidean_norm(3).sphere_max == 1.0
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert quadratic_norm(A).sphere_max == pytest.approx(
            np.sqrt(np.linalg.eigvalsh(A).max()), rel=1e-15, abs=0)
        assert two_slope_norm(2.0, 0.5).sphere_max == 2.0
        assert two_slope_norm(0.5, 2.0).sphere_max == 2.0
        assert two_slope_norm(0.3, 1.7).sphere_max == pytest.approx(1.7, rel=1e-15, abs=0)

    def test_sphere_max_randers(self):
        # A = I: the max of |u| + b.u on the unit sphere is 1 + |b| at u = b/|b|
        rng = np.random.default_rng(23)
        for b in ([0.2, 0.1], [0.5, 0.0], [0.3, 0.1, 0.1], [-0.2, 0.4, 0.1]):
            n = randers_norm(np.eye(len(b)), b)
            assert n.sphere_max == pytest.approx(1.0 + np.linalg.norm(b), rel=1e-12, abs=0)
        # general A: no sampled direction beats it, and min F* on the sphere
        # is its reciprocal
        n = dual_family_norms()[-1]
        u = rng.standard_normal((20000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        F, Fs = norm_eval(n, u), dual_norm_eval(n, u)
        assert n.sphere_max - 1e-3 <= np.max(F) <= n.sphere_max
        assert 1.0 / n.sphere_max <= np.min(Fs) <= 1.0 / n.sphere_max + 1e-3

    @pytest.mark.parametrize("A, b", [
        (np.eye(2), [0.2, 0.1]),
        (np.array([[2.0, 0.5], [0.5, 1.0]]), [0.3, -0.2]),
        (np.eye(3), [-0.1, 0.25, 0.2]),
        (np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.5]]),
         [0.4, -0.3, 0.2]),
        # hard cases: b has no weight on the top eigenspace
        (np.diag([1.0, 2.0]), [0.1, 0.0]),
        (np.diag([1.0, 2.0]), [0.9, 0.0]),
        (np.diag([1.0, 2.0, 2.0]), [0.2, 0.0, 0.0]),
        turned([1.0, 2.0], [0.9, 0.0]),
        turned([1.0, 2.0, 2.0], [0.2, 0.0, 0.0]),
    ])
    def test_sphere_max_matches_search_oracle(self, A, b):
        n = randers_norm(A, b)
        want = _sphere_search(lambda w: norm_eval(n, w) / np.linalg.norm(w, axis=-1),
                              n.dim, seed=4321, tol=1e-13)
        assert n.sphere_max == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("A, b", [
        ([[1.0, 1e-3], [1e-3, 1.0001]], [1e-3, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0001]], [1e-4, 0.0]),
    ])
    def test_sphere_max_nearly_isotropic(self, monkeypatch, A, b):
        # near the hard case: the secular root t is 7e-4 above max s on the
        # first, and the second sits on the hard case's boundary
        calls = []
        inner = norms.norm_eval

        def counted(norm, v):
            calls.append(1)
            return inner(norm, v)

        monkeypatch.setattr(norms, "norm_eval", counted)
        n = randers_norm(A, b)
        got = n.sphere_max
        want = _sphere_search(lambda w: norm_eval(n, w) / np.linalg.norm(w, axis=-1),
                              n.dim, seed=4321, tol=1e-13)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        assert len(calls) <= 50


finite2 = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(vx=finite2, vy=finite2, t=st.floats(0.01, 50.0))
def test_hypothesis_homogeneity_randers(vx, vy, t):
    r = randers_norm(np.eye(2), [0.3, -0.2])
    v = np.array([vx, vy])
    assert float(norm_eval(r, t * v)) == pytest.approx(t * float(norm_eval(r, v)),
                                                       rel=1e-10, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(vx=finite2, vy=finite2, xx=finite2, xy=finite2)
def test_hypothesis_fenchel_quadratic(vx, vy, xx, xy):
    q = quadratic_norm(np.array([[2.0, 0.5], [0.5, 1.0]]))
    v = np.array([vx, vy])
    xi = np.array([xx, xy])
    assert float(xi @ v) <= float(norm_eval(q, v) * dual_norm_eval(q, xi)) * (1 + 1e-10) + 1e-12


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-100.0, 100.0))
def test_hypothesis_two_slope_dual(x):
    n = two_slope_norm(2.0, 0.5)
    xi = np.array([x])
    expected = x / 2.0 if x >= 0 else -x / 0.5
    assert float(dual_norm_eval(n, xi)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestValidationAndConfig:
    def test_config_round_trip(self):
        # each norm of all_test_norms() from the config record a case file
        # gives for it; A flat row-major or nested, params nested or flat
        records = [
            {"family": "euclidean", "dim": 2},
            {"family": "euclidean", "dim": 3},
            {"family": "quadratic", "dim": 2, "params": {"A": [4.0, 0.0, 0.0, 1.0]}},
            {"family": "quadratic", "dim": 2, "params": {"A": [[2.0, 0.5], [0.5, 1.0]]}},
            {"family": "randers", "dim": 2,
             "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.5, 0.0]}},
            {"family": "randers", "dim": 2,
             "params": {"A": [2.0, 0.3, 0.3, 1.0], "b": [0.2, -0.4]}},
            {"family": "two_slope_1d", "dim": 1,
             "params": {"a_plus": 2.0, "a_minus": 0.5}},
            {"family": "two_slope_1d", "dim": 1, "a_plus": 1.0, "a_minus": 1.0},
        ]
        rng = np.random.default_rng(9)
        for n, cfg in zip(all_test_norms(), records, strict=True):
            n2 = from_config(cfg)
            assert (n2.family, n2.dim) == (n.family, n.dim)
            v = rng.standard_normal((20, n.dim))
            assert np.array_equal(norm_eval(n, v), norm_eval(n2, v))

    @pytest.mark.parametrize("record, key, what", [
        ({"dim": 2}, "family", "norm"),
        ({"family": "euclidean"}, "dim", "norm"),
        ({"family": "quadratic", "dim": 2, "params": {}}, "A", "quadratic"),
        ({"family": "randers", "dim": 2, "params": {"b": [0.1, 0.0]}}, "A", "randers"),
        ({"family": "randers", "dim": 2, "params": {"A": [1.0, 0.0, 0.0, 1.0]}},
         "b", "randers"),
        ({"family": "two_slope_1d", "dim": 1, "a_minus": 1.0}, "a_plus", "two_slope_1d"),
        ({"family": "two_slope_1d", "dim": 1, "a_plus": 1.0}, "a_minus", "two_slope_1d"),
    ], ids=["family", "dim", "quadratic-A", "randers-A", "randers-b", "a_plus",
            "a_minus"])
    def test_config_missing_key_named(self, record, key, what):
        with pytest.raises(ValueError, match=f"{what} config has no '{key}'"):
            from_config(record)

    @pytest.mark.parametrize("record, message", [
        ({"family": "two_slope_1d", "dim": 2, "a_plus": 2.0, "a_minus": 0.5},
         "two_slope_1d config has 'dim' 2; the family is 1-D"),
        ({"family": "quadratic", "dim": 3, "params": {"A": [1.0, 0.0, 0.0, 1.0]}},
         "quadratic config 'A' has 4 entries; 'dim' 3 needs 9"),
        ({"family": "randers", "dim": 2, "A": [[1.0, 0.0, 0.0]], "b": [0.1, 0.0]},
         "randers config 'A' has 3 entries; 'dim' 2 needs 4"),
        ({"family": "randers", "dim": 2, "A": [1.0, 0.0, 0.0, 1.0],
          "b": [0.1, 0.0, 0.0]},
         "randers config 'b' has 3 entries; 'dim' 2 needs 2"),
    ], ids=["two_slope-dim", "quadratic-A", "randers-A", "randers-b"])
    def test_config_wrong_size_named(self, record, message):
        with pytest.raises(ValueError, match=message):
            from_config(record)

    @pytest.mark.parametrize("build, message", [
        (lambda: randers_norm(np.eye(2), [0.1, np.nan]), "b has a non-finite entry"),
        (lambda: randers_norm([[1.0, 0.0], [0.0, np.nan]], [0.1, 0.0]),
         "A has a non-finite entry"),
        (lambda: quadratic_norm([[np.inf, 0.0], [0.0, 1.0]]),
         "A has a non-finite entry"),
        (lambda: two_slope_norm(np.inf, 1.0), "must be positive and finite, got inf, 1.0"),
        (lambda: two_slope_norm(1.0, np.inf), "must be positive and finite, got 1.0, inf"),
        (lambda: two_slope_norm(np.nan, 1.0), "must be positive and finite, got nan, 1.0"),
        (lambda: from_config({"family": "quadratic", "dim": 2,
                              "A": [1.0, 0.0, 0.0, np.nan]}),
         "A has a non-finite entry"),
        # finite entries whose drift b^T A^{-1} b overflows to inf - inf
        (lambda: randers_norm(np.array([[10.0, 9.0], [9.0, 10.0]]) / 19.0,
                              [1e308, 1e307]), "drift too large: .* = nan"),
    ], ids=["randers-b-nan", "randers-A-nan", "quadratic-A-inf", "two_slope-plus-inf",
            "two_slope-minus-inf", "two_slope-nan", "config-A-nan", "drift-nan"])
    def test_non_finite_rejected(self, build, message):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("dim", [2.5, np.nan, True, "2"])
    def test_config_dim_must_be_whole(self, dim):
        # 2.5 must not be read as a 2-D norm, nor True as a 1-D one
        with pytest.raises(ValueError, match="'dim'"):
            from_config({"family": "euclidean", "dim": dim})

    @pytest.mark.parametrize("a_plus", [True, "steep", None], ids=["bool", "string", "null"])
    def test_config_slope_not_a_number_named(self, a_plus):
        # true is not read as the slope 1
        with pytest.raises(ValueError, match=r"^config 'a_plus' must be a number, got "):
            from_config({"family": "two_slope_1d", "dim": 1, "a_plus": a_plus,
                         "a_minus": 1.0})

    def test_config_integral_float_dim(self):
        assert from_config({"family": "euclidean", "dim": 2.0}).dim == 2

    def test_config_matrix_row_major(self):
        cfg = {"family": "quadratic", "dim": 2, "params": {"A": [2.0, 0.5, 0.5, 1.0]}}
        assert np.array_equal(from_config(cfg).A, [[2.0, 0.5], [0.5, 1.0]])
        cfg = {"family": "randers", "dim": 3,
               "params": {"A": [3.0, 0.1, 0.2, 0.1, 2.0, 0.3, 0.2, 0.3, 1.0],
                          "b": [0.1, 0.0, 0.2]}}
        assert np.array_equal(from_config(cfg).A,
                              [[3.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 1.0]])


def legendre_inverse_fd(norm, xi):
    """Inverse Legendre transform of one covector by central differences of
    F*^2/2 at step h = 1e-6 max(1, |xi|); O(h^2) accurate."""
    h = 1e-6 * max(1.0, float(np.linalg.norm(xi)))
    e = h * np.eye(norm.dim)
    fp = dual_norm_eval(norm, xi + e) ** 2
    fm = dual_norm_eval(norm, xi - e) ** 2
    return (fp - fm) / (4.0 * h)


class TestFiniteDifferenceOracle:
    def test_legendre_inverse_matches_fd_gradient(self):
        # closed forms vs central differences of F*^2/2 at h = 1e-6 max(1,|xi|)
        rng = np.random.default_rng(11)
        for n in all_test_norms():
            for _ in range(10):
                xi = rng.standard_normal(n.dim)
                if float(dual_norm_eval(n, xi)) < 1e-3:
                    continue
                closed = legendre_inverse(n, xi)
                fd = legendre_inverse_fd(n, xi)
                assert np.max(np.abs(closed - fd)) <= 1e-6 * (
                    1.0 + np.max(np.abs(closed))
                )
