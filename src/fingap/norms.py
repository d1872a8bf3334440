"""Minkowski norm families on R^n with duals and Legendre transforms.

A Minkowski norm F is positively 1-homogeneous (F(tv) = tF(v) for t > 0),
positive away from the origin, and strongly convex: the Hessian of F^2/2 is
positive definite at every v != 0.  Non-reversible norms (F(-v) != F(v)) are
fully supported; nothing here symmetrizes.

Supported families:

  euclidean      F(v) = |v|_2
  quadratic      F(v) = sqrt(v^T A v),  A symmetric positive definite
  randers        F(v) = sqrt(v^T A v) + b.v,  with b^T A^{-1} b < 1
  two_slope_1d   F(v) = a_plus*v for v >= 0, a_minus*(-v) for v < 0  (dim 1)

The dual norm is F*(xi) = sup {xi(v) : F(v) <= 1} on covectors.  Covectors are
represented as plain arrays of components.  Every family is closed under
duality, so ``NormSpec.dual`` is a norm of the same family:

  euclidean      F* = F
  quadratic      matrix A^{-1}
  randers        A* = ((1-s) A^{-1} + p p^T)/(1-s)^2,  b* = -p/(1-s),
                 with p = A^{-1} b and s = b^T A^{-1} b
  two_slope_1d   slopes 1/a_plus, 1/a_minus

The Legendre transform l maps a vector v to the covector g_v(v, .); its
inverse is the gradient of F*^2/2, which is the Legendre transform of the
dual.  So F* and l^{-1} are ``norm_eval`` and ``legendre`` of ``norm.dual``,
and each formula is written once.  The dual closed forms are cross-checked
in the test suite against a generic numeric supremum oracle
(``dual_norm_numeric``), the only user of ``scipy.optimize`` in fingap, which
imports it when called.

``NormSpec.sphere_max`` is max F(u) over the Euclidean unit sphere: 1,
sqrt(lambda_max(A)) and max(a_plus, a_minus) in closed form, a batched
monotone ascent from seeded starts finished by Newton steps on the sphere
for Randers.  By duality, min F*(xi) over |xi| = 1 is its reciprocal.

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
    "legendre_inverse_fd",
    "is_reversible",
    "from_config",
]

_FAMILIES = ("euclidean", "quadratic", "randers", "two_slope_1d")


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A parametric Minkowski norm on R^dim.

    Use the constructors (:func:`euclidean_norm` etc.) rather than building
    instances directly; they validate parameters.  ``dual`` and
    ``sphere_max`` are computed on first use and cached.
    """

    family: str
    dim: int
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    a_plus: Optional[float] = None
    a_minus: Optional[float] = None
    # derived, filled in __post_init__
    A_inv: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family == "two_slope_1d":
            if self.dim != 1:
                raise ValueError("two_slope_1d requires dim == 1")
            if self.a_plus is None or self.a_minus is None:
                raise ValueError("two_slope_1d requires a_plus and a_minus")
            if self.a_plus <= 0 or self.a_minus <= 0:
                raise ValueError("two-slope coefficients must be positive")
        if self.family in ("quadratic", "randers"):
            A = np.asarray(self.A, dtype=float)
            if A.shape != (self.dim, self.dim):
                raise ValueError("A must be dim x dim")
            if not np.allclose(A, A.T, atol=1e-12):
                raise ValueError("A must be symmetric")
            if np.linalg.eigvalsh(A).min() <= 0:
                raise ValueError("A must be positive definite")
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "A_inv", np.linalg.inv(A))
        if self.family == "randers":
            b = np.asarray(self.b, dtype=float)
            if b.shape != (self.dim,):
                raise ValueError("b must have length dim")
            s = float(b @ self.A_inv @ b)
            if s >= 1.0:
                raise ValueError(
                    f"randers drift too large: |b|_Ainv^2 = {s:.6g} >= 1"
                )
            object.__setattr__(self, "b", b)

    def __hash__(self):
        return id(self)

    @cached_property
    def dual(self) -> NormSpec:
        """The dual norm F* on covectors, a norm of the same family."""
        if self.family == "euclidean":
            return self
        if self.family == "quadratic":
            return quadratic_norm(self.A_inv)
        if self.family == "two_slope_1d":
            # the unit ball is [-1/a_minus, 1/a_plus]
            return two_slope_norm(1.0 / self.a_plus, 1.0 / self.a_minus)
        # support function of the unit ball {v : v^T(A - bb^T)v + 2b.v <= 1}
        s = float(self.b @ self.A_inv @ self.b)
        p = self.A_inv @ self.b
        return randers_norm(((1.0 - s) * self.A_inv + np.outer(p, p)) / (1.0 - s) ** 2,
                            -p / (1.0 - s))

    @cached_property
    def sphere_max(self) -> float:
        """max F(u) over the Euclidean unit sphere |u| = 1."""
        if self.family == "euclidean":
            return 1.0
        if self.family == "quadratic":
            return float(np.sqrt(np.linalg.eigvalsh(self.A).max()))
        if self.family == "two_slope_1d":
            return max(self.a_plus, self.a_minus)
        return _sphere_ascent(self, seed=4321)


def euclidean_norm(dim: int) -> NormSpec:
    """Standard Euclidean norm on R^dim."""
    return NormSpec(family="euclidean", dim=dim)


def quadratic_norm(A) -> NormSpec:
    """Riemannian-type norm sqrt(v^T A v) for symmetric positive definite A."""
    A = np.asarray(A, dtype=float)
    return NormSpec(family="quadratic", dim=A.shape[0], A=A)


def randers_norm(A, b) -> NormSpec:
    """Randers norm sqrt(v^T A v) + b.v; requires b^T A^{-1} b < 1."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return NormSpec(family="randers", dim=A.shape[0], A=A, b=b)


def two_slope_norm(a_plus: float, a_minus: float) -> NormSpec:
    """The general 1-D Minkowski norm: two linear pieces with slopes a+/a-."""
    return NormSpec(
        family="two_slope_1d", dim=1, a_plus=float(a_plus), a_minus=float(a_minus)
    )


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
    if norm.family == "euclidean":
        return np.sqrt(np.einsum("...i,...i->...", v, v))
    if norm.family == "quadratic":
        return np.sqrt(np.einsum("...i,ij,...j->...", v, norm.A, v))
    if norm.family == "randers":
        alpha = np.sqrt(np.einsum("...i,ij,...j->...", v, norm.A, v))
        return alpha + np.einsum("...i,i->...", v, norm.b)
    # two_slope_1d
    x = v[..., 0]
    return np.where(x >= 0, norm.a_plus * x, -norm.a_minus * x)


def dual_norm_eval(norm: NormSpec, xi) -> np.ndarray:
    """Evaluate the dual norm F*(xi) = sup {xi(v) : F(v) <= 1} in closed form."""
    return norm_eval(norm.dual, xi)


def legendre(norm: NormSpec, v) -> np.ndarray:
    """Legendre transform l(v) = g_v(v, .) as a covector; l(0) = 0."""
    v = _check_dim(norm, v)
    if norm.family == "euclidean":
        return v.copy()
    if norm.family == "quadratic":
        return np.einsum("ij,...j->...i", norm.A, v)
    if norm.family == "randers":
        Av = np.einsum("ij,...j->...i", norm.A, v)
        alpha = np.sqrt(np.einsum("...i,...i->...", v, Av))
        F = alpha + np.einsum("...i,i->...", v, norm.b)
        safe = np.where(alpha == 0.0, 1.0, alpha)
        # grad(F^2/2) = F * (Av/alpha + b), and = 0 at v = 0
        out = F[..., None] * (Av / safe[..., None] + norm.b)
        return np.where(alpha[..., None] == 0.0, 0.0, out)
    x = v[..., 0]
    return np.where(x >= 0, norm.a_plus**2 * x, norm.a_minus**2 * x)[..., None]


def legendre_inverse(norm: NormSpec, xi) -> np.ndarray:
    """Inverse Legendre transform: the gradient of xi -> F*^2(xi)/2.

    Satisfies F(l^{-1}(xi)) = F*(xi) and xi(l^{-1}(xi)) = F*(xi)^2.
    """
    return legendre(norm.dual, xi)


def legendre_inverse_fd(norm: NormSpec, xi) -> np.ndarray:
    """Inverse Legendre transform by central differences of F*^2/2.

    Step h = 1e-6 * max(1, |xi|).  Reference implementation for validating
    the closed forms in :func:`legendre_inverse`; O(h^2) accurate.
    """
    xi = _check_dim(norm, xi)
    if xi.ndim != 1:
        raise ValueError("legendre_inverse_fd takes a single covector")
    h = 1e-6 * max(1.0, float(np.linalg.norm(xi)))
    out = np.empty(norm.dim)
    for i in range(norm.dim):
        e = np.zeros(norm.dim)
        e[i] = h
        fp = float(dual_norm_eval(norm, xi + e)) ** 2
        fm = float(dual_norm_eval(norm, xi - e)) ** 2
        out[i] = (fp - fm) / (4.0 * h)
    return out


def is_reversible(norm: NormSpec) -> bool:
    """True iff F(-v) = F(v) identically."""
    if norm.family in ("euclidean", "quadratic"):
        return True
    if norm.family == "randers":
        return bool(np.all(norm.b == 0.0))
    return norm.a_plus == norm.a_minus


def _sphere_ascent(norm: NormSpec, seed: int) -> float:
    """max of a Randers norm over |u| = 1: the fixed point
    u <- grad F(u) / |grad F(u)|, grad F(u) = Au / sqrt(u^T A u) + b, then
    Newton's method on the sphere.

    F is convex and 1-homogeneous, so at the new point v
    F(v) >= grad F(u).v = |grad F(u)| >= grad F(u).u = F(u): every start
    climbs.  Starts are 64 seeded directions plus the +-coordinate axes,
    stepped together until the best F climbs by at most 1e-6 F.  That rate
    is linear, and slow on nearly isotropic norms, so every start then takes
    Newton steps (:func:`_sphere_newton_step`), each kept only where F rises.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(norm.dim)
    u = np.concatenate([rng.standard_normal((64, norm.dim)), eye, -eye])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    F, best = norm_eval(norm, u), -np.inf
    for _ in range(1000):
        if F.max() - best <= 1e-6 * F.max():
            break
        best = F.max()
        g = legendre(norm, u)  # F grad F(u)
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        F = norm_eval(norm, u)
    for _ in range(20):
        v = _sphere_newton_step(norm, u)
        F_new = norm_eval(norm, v)
        better = F_new > F
        if not np.any(better):
            break
        u[better], F[better] = v[better], F_new[better]
    return float(F.max())


def _sphere_newton_step(norm: NormSpec, u: np.ndarray) -> np.ndarray:
    """One Newton step for max F on the unit sphere from each row of u.

    With a = sqrt(u^T A u), the gradient g = Au/a + b has g.u = F and the
    Hessian H = A/a - (Au)(Au)^T/a^3 has H u = 0, so on the tangent space
    the Riemannian gradient is g - F u and the Riemannian Hessian is H - F I.
    The step xi solves [[H - F I, u], [u^T, 0]] [xi, mu] = [F u - g, 0].
    """
    n, dim = u.shape
    Au = u @ norm.A
    a = np.sqrt(np.einsum("ni,ni->n", u, Au))
    F = a + u @ norm.b
    g = Au / a[:, None] + norm.b
    M = np.zeros((n, dim + 1, dim + 1))
    M[:, :dim, :dim] = (norm.A / a[:, None, None]
                        - np.einsum("ni,nj->nij", Au, Au) / a[:, None, None] ** 3
                        - F[:, None, None] * np.eye(dim))
    M[:, :dim, dim] = M[:, dim, :dim] = u
    rhs = np.concatenate([F[:, None] * u - g, np.zeros((n, 1))], axis=1)
    xi = np.einsum("nij,nj->ni", np.linalg.pinv(M), rhs)[:, :dim]
    v = u + xi
    return v / np.linalg.norm(v, axis=1, keepdims=True)


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


def from_config(cfg: dict) -> NormSpec:
    """Rebuild a NormSpec from a config record (accepts flat or nested A).
    A missing key is a ValueError that names it."""

    def need(block: dict, key: str, what: str = "norm"):
        if key not in block:
            raise ValueError(f"{what} config has no {key!r}")
        return block[key]

    family = need(cfg, "family")
    dim = int(need(cfg, "dim"))
    params = cfg.get("params", cfg)
    if family == "euclidean":
        return euclidean_norm(dim)
    if family == "quadratic":
        A = np.asarray(need(params, "A", family), dtype=float).reshape(dim, dim)
        return quadratic_norm(A)
    if family == "randers":
        A = np.asarray(need(params, "A", family), dtype=float).reshape(dim, dim)
        return randers_norm(A, np.asarray(need(params, "b", family), dtype=float))
    if family == "two_slope_1d":
        return two_slope_norm(need(params, "a_plus", family),
                              need(params, "a_minus", family))
    raise ValueError(f"unknown norm family {family!r}")
