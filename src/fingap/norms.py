"""Minkowski norms on R^n with duals and Legendre transforms.

A Minkowski norm F is positively 1-homogeneous (F(tv) = tF(v) for t > 0),
positive away from the origin, and strongly convex: the Hessian of F^2/2 is
positive definite at every v != 0.  Non-reversible norms (F(-v) != F(v)) are
fully supported; nothing here symmetrizes.

Every norm here is one formula, F(v) = sqrt(v^T A v) + b.v with A
symmetric positive definite and b^T A^{-1} b < 1; ``A`` is None for the
identity and ``b`` None for zero.  The family is read off the two, and each
is closed under duality F*(xi) = sup {xi(v) : F(v) <= 1}, so
``NormSpec.dual`` is a norm of the same family:

  family      A     b      dual
  euclidean   None  None   F* = F
  quadratic   A     None   matrix A^{-1}
  randers     A     b      A* = ((1-s) A^{-1} + p p^T)/(1-s)^2,  b* = -p/(1-s),
                           with p = A^{-1} b and s = b^T A^{-1} b

In 1-D every Minkowski norm is a Randers norm: the two-slope norm
a+ v^+ + a- v^- is (a+ + a-)/2 |v| + (a+ - a-)/2 v (:func:`two_slope_norm`),
and its dual has the slopes 1/a+, 1/a-.  Covectors are plain arrays of
components.  The Legendre transform l maps a vector v to the covector
g_v(v, .); its inverse is the gradient of F*^2/2, which is the Legendre
transform of the dual.  So F* and l^{-1} are ``norm_eval`` and ``legendre``
of ``norm.dual``, and each formula is written once.  The dual closed forms
are cross-checked in the test suite against a generic numeric supremum
oracle (``dual_norm_numeric``), the only user of ``scipy.optimize`` in
fingap, which imports it when called.

``NormSpec.sphere_max`` is max F(u) over the Euclidean unit sphere.  F is
the support function of an ellipsoid, so it is the distance from 0 to that
ellipsoid's farthest point, from an exact secular equation
(:func:`_far_direction`); for a two-slope norm that is max(a+, a-).  By
duality, min F*(xi) over |xi| = 1 is its reciprocal.

All evaluation functions accept batched input with the vector components on
the last axis and are pure; NormSpec values are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = [
    "NormSpec",
    "euclidean_norm",
    "quadratic_norm",
    "randers_norm",
    "two_slope_norm",
    "norm_eval",
    "dual_norm_eval",
    "dual_norm_numeric",
    "legendre",
    "legendre_inverse",
    "is_reversible",
    "from_config",
    "need",
    "real_number",
    "whole_number",
]


@dataclass(frozen=True, eq=False)
class NormSpec:
    """The Minkowski norm F(v) = sqrt(v^T A v) + b.v on R^dim.

    ``A`` None stands for the identity and ``b`` None for zero; a ``b``
    needs an ``A``.  Use the constructors (:func:`euclidean_norm` etc.)
    rather than building instances directly.  ``dual`` and ``sphere_max``
    are computed on first use and cached.
    """

    dim: int
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    # derived, filled in __post_init__
    A_inv: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.A is None:
            if self.b is not None:
                raise ValueError("a drift b needs a matrix A")
            return
        A = np.asarray(self.A, dtype=float)
        if A.shape != (self.dim, self.dim):
            raise ValueError("A must be dim x dim")
        if not np.all(np.isfinite(A)):
            raise ValueError(f"A has a non-finite entry: {A.tolist()}")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ValueError("A must be positive definite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "A_inv", np.linalg.inv(A))
        if self.b is not None:
            b = np.asarray(self.b, dtype=float)
            if b.shape != (self.dim,):
                raise ValueError("b must have length dim")
            if not np.all(np.isfinite(b)):
                raise ValueError(f"b has a non-finite entry: {b.tolist()}")
            s = float(b @ self.A_inv @ b)
            if not s < 1.0:  # NaN too
                raise ValueError(
                    f"randers drift too large: |b|_Ainv^2 = {s:.6g} >= 1"
                )
            object.__setattr__(self, "b", b)

    def __hash__(self):
        return id(self)

    @property
    def family(self) -> str:
        """"euclidean" without A, "quadratic" without b, else "randers"."""
        if self.A is None:
            return "euclidean"
        return "quadratic" if self.b is None else "randers"

    @cached_property
    def dual(self) -> NormSpec:
        """The dual norm F* on covectors, a norm of the same family."""
        if self.b is None:
            return self if self.A is None else quadratic_norm(self.A_inv)
        # support function of the unit ball {v : v^T(A - bb^T)v + 2b.v <= 1}
        s = float(self.b @ self.A_inv @ self.b)
        p = self.A_inv @ self.b
        return randers_norm(((1.0 - s) * self.A_inv + np.outer(p, p)) / (1.0 - s) ** 2,
                            -p / (1.0 - s))

    @cached_property
    def sphere_max(self) -> float:
        """max F(u) over the Euclidean unit sphere |u| = 1."""
        return float(norm_eval(self, _far_direction(self)))


def euclidean_norm(dim: int) -> NormSpec:
    """Standard Euclidean norm on R^dim."""
    return NormSpec(dim=dim)


def quadratic_norm(A) -> NormSpec:
    """Riemannian-type norm sqrt(v^T A v) for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    return NormSpec(dim=A.shape[0], A=A)


def randers_norm(A, b) -> NormSpec:
    """Randers norm sqrt(v^T A v) + b.v; requires b^T A^{-1} b < 1."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return NormSpec(dim=A.shape[0], A=A, b=b)


def two_slope_norm(a_plus: float, a_minus: float) -> NormSpec:
    """The general 1-D Minkowski norm a_plus v^+ + a_minus v^-, as the
    Randers norm p|v| + q v with p = (a_plus + a_minus)/2 and
    q = (a_plus - a_minus)/2.

    Its rounding grows like eps max(a_plus, a_minus)/min(a_plus, a_minus),
    where the slope formulas (a_plus x, x / a_plus, ...) are within an ulp:
    along the smaller slope p|v| and qv nearly cancel, as do 1 and s in the
    dual.  Against the slope formulas, F, F*, l and l^{-1} were at most
    1.4e-15 off (relative) at a slope ratio of 4, 2.6e-14 at 100 and
    2.4e-10 at 1e6, over 1e5 samples at five scales, both ways round.
    """
    a_plus, a_minus = float(a_plus), float(a_minus)
    if not (0 < a_plus < np.inf and 0 < a_minus < np.inf):
        raise ValueError(f"two-slope coefficients must be positive and finite, "
                         f"got {a_plus!r}, {a_minus!r}")
    p, q = 0.5 * (a_plus + a_minus), 0.5 * (a_plus - a_minus)
    return randers_norm([[p * p]], [q])


def _check_dim(norm: NormSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape == () and norm.dim == 1:
        x = x.reshape(1)
    if x.shape[-1] != norm.dim:
        raise ValueError(f"expected last axis {norm.dim}, got shape {x.shape}")
    return x


def norm_eval(norm: NormSpec, v) -> np.ndarray:
    """Evaluate F(v).  Batched over leading axes; F(0) = 0."""
    v = _check_dim(norm, v)
    if norm.A is None:
        alpha = np.sqrt(np.einsum("...i,...i->...", v, v))
    else:
        alpha = np.sqrt(np.einsum("...i,ij,...j->...", v, norm.A, v))
    return alpha if norm.b is None else alpha + np.einsum("...i,i->...", v, norm.b)


def dual_norm_eval(norm: NormSpec, xi) -> np.ndarray:
    """Evaluate the dual norm F*(xi) = sup {xi(v) : F(v) <= 1} in closed form."""
    return norm_eval(norm.dual, xi)


def legendre(norm: NormSpec, v) -> np.ndarray:
    """Legendre transform l(v) = g_v(v, .) as a covector; l(0) = 0."""
    v = _check_dim(norm, v)
    Av = v.copy() if norm.A is None else np.einsum("ij,...j->...i", norm.A, v)
    if norm.b is None:
        return Av
    alpha = np.sqrt(np.einsum("...i,...i->...", v, Av))
    F = alpha + np.einsum("...i,i->...", v, norm.b)
    safe = np.where(alpha == 0.0, 1.0, alpha)
    # grad(F^2/2) = F * (Av/alpha + b), and = 0 at v = 0
    out = F[..., None] * (Av / safe[..., None] + norm.b)
    return np.where(alpha[..., None] == 0.0, 0.0, out)


def legendre_inverse(norm: NormSpec, xi) -> np.ndarray:
    """Inverse Legendre transform: the gradient of xi -> F*^2(xi)/2.

    Satisfies F(l^{-1}(xi)) = F*(xi) and xi(l^{-1}(xi)) = F*(xi)^2.
    """
    return legendre(norm.dual, xi)


def is_reversible(norm: NormSpec) -> bool:
    """True iff F(-v) = F(v) identically."""
    return norm.b is None or bool(np.all(norm.b == 0.0))


def _far_direction(norm: NormSpec) -> np.ndarray:
    """The unit u maximizing F(u) = sqrt(u^T A u) + b.u over |u| = 1.

    F is the support function of the ellipsoid E = {A^{1/2} w + b : |w| <= 1},
    so its maximizer is x/|x| for the point x of E farthest from 0.  In A's
    eigenbasis (eigenvalues s, c = Q^T b) that point is x_i = c_i t/(t - s_i)
    with t >= max s the root of the decreasing secular function
    phi(t) = sum s_i c_i^2/(t - s_i)^2 = 1 (More and Sorensen 1983), found
    by bisection to adjacent floats.  When c has little or no weight on the
    top eigenspace, t - max s falls below rounding, so there x takes the
    length that puts it on E instead, along c's part on that eigenspace or,
    with none (the hard case), along the top eigenvector.  F is stationary
    at u, so an error in u enters F(u) squared.
    """
    A = np.eye(norm.dim) if norm.A is None else norm.A
    s, Q = np.linalg.eigh(A)
    c = Q.T @ (np.zeros(norm.dim) if norm.b is None else norm.b)
    top = s == s[-1]
    s_off, c_off = s[~top], c[~top]
    c_top = np.linalg.norm(c[top])

    def phi_off(t):
        return float(np.sum(s_off * c_off**2 / (t - s_off) ** 2))

    lo, hi = s[-1], s[-1] + np.sqrt(s[-1]) * np.linalg.norm(c)  # phi(hi) <= 1
    while lo < (t := 0.5 * (lo + hi)) < hi:
        if phi_off(t) + s[-1] * c_top**2 / (t - s[-1]) ** 2 > 1.0:
            lo = t
        else:
            hi = t
    x = np.empty(norm.dim)
    x[~top] = c_off * hi / (hi - s_off)
    z = c[top] / c_top if c_top > 0.0 else np.eye(top.sum())[-1]
    x[top] = c[top] + np.sqrt(s[top]) * z * np.sqrt(max(0.0, 1.0 - phi_off(hi)))
    u = Q @ x
    return u / np.linalg.norm(u)


def _sphere_search(ratio, dim: int, seed: int, tol: float) -> float:
    """max of a 0-homogeneous ``ratio(w)`` over directions w in R^dim.

    Samples max(64*dim, 128) seeded random directions plus
    the +-coordinate axes.  In 2-D the best sampled angle is polished by
    bounded Brent (xatol ``tol``) between its two neighbouring samples in
    angle, where a local maximum lies; it is the only one when ``ratio`` is
    a linear functional over a convex unit ball, as in the dual norm.  In
    3-D the best three are polished with Nelder-Mead (xatol ``tol``, fatol
    ``tol/10``).  ``ratio`` takes batched rows.
    """
    if dim == 1:
        return float(np.max(ratio(np.array([[1.0], [-1.0]]))))
    from scipy.optimize import minimize, minimize_scalar

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((max(64 * dim, 128), dim))
    dirs = np.concatenate([dirs, np.eye(dim), -np.eye(dim)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = ratio(dirs)

    if dim == 2:
        ang = np.arctan2(dirs[:, 1], dirs[:, 0])
        order = np.argsort(ang)
        ang, vals = ang[order], vals[order]
        i = int(np.argmax(vals))
        ring = np.r_[ang[-1] - 2.0 * np.pi, ang, ang[0] + 2.0 * np.pi]
        res = minimize_scalar(lambda t: -float(ratio(np.array([np.cos(t), np.sin(t)]))),
                              bounds=(ring[i], ring[i + 2]), method="bounded",
                              options={"xatol": tol})
        return float(max(vals[i], -res.fun))

    def objective(w):
        if np.linalg.norm(w) == 0.0:
            return np.inf
        return -float(ratio(w))

    best = -np.inf
    for i in np.argsort(vals)[-3:]:
        res = minimize(objective, dirs[i], method="Nelder-Mead",
                       options={"xatol": tol, "fatol": tol / 10.0, "maxiter": 4000})
        best = max(best, -res.fun)
    return float(best)


def dual_norm_numeric(norm: NormSpec, xi) -> float:
    """Numeric supremum oracle for the dual norm.

    Maximizes xi(v) over the unit ball {F(v) <= 1} by coarse sampling of
    directions (at least 64*dim) followed by local refinement.  Ground truth
    for the closed forms in :func:`dual_norm_eval`.
    """
    xi = _check_dim(norm, xi)
    if np.linalg.norm(xi) == 0.0:
        return 0.0
    return _sphere_search(lambda w: (w @ xi) / norm_eval(norm, w), norm.dim,
                          seed=12345, tol=1e-14)


def whole_number(value, key: str) -> int:
    """An int, or an integral float such as JSON's 8.0, read as an int."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"config {key!r} must be a whole number, got {value!r}")


def real_number(value, key: str) -> float:
    """What float() reads, so the string "inf" too, except a bool."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"config {key!r} must be a number, got {value!r}")


def _numbers(value, key: str) -> np.ndarray:
    """A (nested) list as an array of what real_number reads in each entry."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        return real_number(value, key)
    rows = [_numbers(v, key) for v in value]
    if len({np.shape(r) for r in rows}) > 1:
        raise ValueError(f"config {key!r} must be a list of numbers or of lists of one "
                         f"length, got {value!r}")
    return np.array(rows)


def need(block: dict, key: str, what: str):
    """``block[key]`` of the config block named ``what``; a block that is not
    an object, or has no ``key``, is a ValueError that names it."""
    if not isinstance(block, dict):
        raise ValueError(f"{what} config must be an object, got {block!r}")
    if key not in block:
        raise ValueError(f"{what} config has no {key!r}")
    return block[key]


def from_config(cfg: dict) -> NormSpec:
    """Rebuild a NormSpec from a config record (accepts flat or nested A).
    A missing key is a ValueError that names it.  ``two_slope_1d`` (keys
    ``a_plus``, ``a_minus``, dim 1) builds :func:`two_slope_norm`."""
    family = need(cfg, "family", "norm")
    dim = whole_number(need(cfg, "dim", "norm"), "dim")
    params = cfg.get("params", cfg)
    if family == "euclidean":
        return euclidean_norm(dim)
    if family == "two_slope_1d":
        if dim != 1:
            raise ValueError(f"two_slope_1d config has 'dim' {dim}; the family is 1-D")
        return two_slope_norm(*(real_number(need(params, key, family), key)
                                for key in ("a_plus", "a_minus")))
    if family not in ("quadratic", "randers"):
        raise ValueError(f"unknown norm family {family!r}")
    A = np.asarray(_numbers(need(params, "A", family), "A"), dtype=float)
    if A.size != dim * dim:
        raise ValueError(f"{family} config 'A' has {A.size} entries; "
                         f"'dim' {dim} needs {dim * dim}")
    b = None
    if family == "randers":
        raw = need(params, "b", family)
        b = np.asarray(_numbers(raw, "b"), dtype=float)
        if b.ndim != 1:
            raise ValueError(f"randers config 'b' must be a flat list of numbers, got {raw!r}")
        if b.size != dim:
            raise ValueError(f"randers config 'b' has {b.size} entries; "
                             f"'dim' {dim} needs {dim}")
    return NormSpec(dim=dim, A=A.reshape(dim, dim), b=b)
