"""First nonzero Neumann eigenvalue of the discrete Finsler-Laplacian.

The eigenvalue is defined variationally as the infimum of the Rayleigh
quotient

    R(u) = sum_T mu_T F*(grad u_T)^2 / sum_i m_i (u_i - mean)^2

over non-constant node functions: the optimal Poincare constant of the
discrete space.  u is continuous and piecewise linear (P1) on the lattice's
own Kuhn mesh (``DiscreteDomain.mesh``), so grad u_T is constant on each
simplex T and the masses m are the lattice's node measure; no boundary rows
are imposed, so the Neumann condition arises naturally from the quotient.
P1 has no checkerboard null mode and needs no stabilization.

The stiffness S = D^T (diag(mu) (x) B) D, with B the dual norm's matrix A*
(I for Euclidean), is the exact energy for Euclidean and quadratic norms:
``dense_oracle`` solves S u = lam M u directly, and the descent result must
agree with it.  For Randers norms, two-slope included, F* is not quadratic,
S only preconditions, and certification rests on the weak-form residual
plus mesh refinement.

Descent is preconditioned steepest descent on the weighted mean-zero sphere
(LOBPCG's single-vector form, Knyazev 2001), alike for every norm: direction
-L^{-1} r, r = g/2 - R M u, made mean-zero and M-orthogonal to u, with L =
S + 1e-3 M factored once per solve.  L is SPD, so SuperLU factors it on its
diagonal pivots in a symmetric minimum-degree ordering (MMD on A^T + A).
Each trial step costs one energy+gradient evaluation, and one norm kernel:
F*(Du)^2 = Du . l^{-1}(Du), so ``legendre_inverse`` gives the energy and the
gradient together.  Armijo backtracking (constant 1e-4) cuts a rejected step
a to t a, t the quadratic interpolant's minimum in units of a, kept within
0.1-0.5; after an accepted step a the next iteration first tries a min(t, 2),
with t = inf where the interpolant is not convex.  Once the predicted
decrease a*slope is below 1e-14 R the line search is an iteration with zero
progress and resets the step to 1.  An iteration that started from step 1
and made no progress leaves u, R, the gradient and the step as they were,
so every later iteration would repeat it bit for bit: those are not
computed, only their history entries appended until the 10-iteration window
closes.  The residual is that of the last evaluation.  Deterministic given
(domain, norm, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import DiscreteDomain, MeshOperator
from .norms import NormSpec, dual_norm_eval, legendre_inverse

__all__ = [
    "EigenResult",
    "discrete_gradient",
    "rayleigh_quotient",
    "minimize_rayleigh",
    "dense_oracle",
]


@dataclass
class EigenResult:
    """Converged (or best-effort) minimizer of the Rayleigh quotient."""

    lam: float
    u: np.ndarray
    residual: float
    iterations: int
    converged: bool
    # energy+gradient evaluations, the initial one included
    evaluations: int = 0
    history: list = field(default_factory=list, repr=False)


def discrete_gradient(domain: DiscreteDomain, u) -> np.ndarray:
    """Nodal differential, shape (n, dim): the mu-weighted mean of the
    element gradients around each node, summed over the mesh's vertex table.
    Exact for affine u; zero for constant u.
    """
    op, n = domain.mesh, domain.n_nodes
    at, k = op.verts.ravel(), op.verts.shape[1]
    G = op.mu[:, None] * op.gradient(np.asarray(u, dtype=float))
    total = np.column_stack([np.bincount(at, np.repeat(g, k), n) for g in G.T])
    return total / np.bincount(at, np.repeat(op.mu, k), n)[:, None]


def _variance(m: np.ndarray, u: np.ndarray) -> float:
    """sum m (u - mean)^2; rejects (numerically) constant u."""
    mean = float(m @ u) / float(m.sum())
    den = float(m @ (u - mean) ** 2)
    if den <= 1e-30 * float(m.sum()) * max(1.0, float(np.max(np.abs(u))) ** 2):
        raise ValueError("Rayleigh quotient undefined for constant u")
    return den


def rayleigh_quotient(domain: DiscreteDomain, norm: NormSpec, u) -> float:
    """The minimized quotient sum mu F*(Du)^2 / sum m (u - mean)^2; scale
    invariant.  For any non-constant u it dominates the discrete spectral gap,
    so it certifies the Poincare inequality from above."""
    u = np.asarray(u, dtype=float)
    op = domain.mesh
    den = _variance(op.m, u)
    return float(op.mu @ dual_norm_eval(norm, op.gradient(u)) ** 2) / den


def _energy_and_grad(op: MeshOperator, norm: NormSpec, u: np.ndarray):
    """Numerator E(u) and its exact gradient, from one norm kernel:
    F*(Du)^2 = Du . l^{-1}(Du) (:func:`legendre_inverse`)."""
    Du = op.gradient(u)
    z = 2.0 * op.mu[:, None] * legendre_inverse(norm, Du)
    return 0.5 * float(Du.ravel() @ z.ravel()), op.D.T @ z.ravel()


def _stiffness(op: MeshOperator, norm: NormSpec):
    """S = D^T (diag(mu) (x) B) D, B = ``norm.dual.A`` (I where None)."""
    from scipy.sparse import diags, kron

    B = np.eye(op.dim) if norm.dual.A is None else norm.dual.A
    return (op.D.T @ kron(diags(op.mu), B) @ op.D).tocsc()


_MAX_ITER = 50_000  # descent iterations before a solve is flagged unconverged


def minimize_rayleigh(domain: DiscreteDomain, norm: NormSpec,
                      seed: int = 0) -> EigenResult:
    """Minimize the Rayleigh quotient on the mean-zero sphere.

    Start: first coordinate function minus its weighted mean, plus seeded
    1e-3 noise to break grid symmetries.  Terminates when the relative
    decrease of the quotient over 10 iterations falls below 1e-12 (or after
    _MAX_ITER iterations, flagged as not converged).
    """
    if domain.n_nodes < 3:
        raise ValueError("domain too small for an eigenvalue")
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    op = domain.mesh
    m = op.m
    Mtot = float(m.sum())
    # L is SPD: a symmetric minimum-degree ordering on its diagonal pivots
    lu = splu(_stiffness(op, norm) + diags(1e-3 * m, format="csc"),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})

    def project(w):
        return w - (float(m @ w) / Mtot)

    def normalize(w):
        return w / math.sqrt(float(m @ (w * w)))

    rng = np.random.default_rng(seed)
    u = project(domain.nodes[:, 0].astype(float))
    scale = float(np.max(np.abs(u))) or 1.0
    u = normalize(project(u + 1e-3 * scale * rng.standard_normal(domain.n_nodes)))

    R, g = _energy_and_grad(op, norm, u)
    history = [R]
    evaluations = 1
    step = 1.0
    # the last iteration started from step 1 and made no progress, so each
    # later one would repeat it bit for bit: only its history entry is kept
    stuck = False
    converged = False

    while len(history) <= _MAX_ITER:
        if not stuck:
            # preconditioned residual; the quotient's derivative along d is 2 r.d
            r = 0.5 * g - R * m * u
            d = -project(lu.solve(r))
            d -= float((m * u) @ d) * u
            slope = -2.0 * float(r @ d)
            if slope <= 1e-30 * max(1.0, R * R):
                converged = True
                break

            a = step
            while a * slope > 1e-14 * R:
                u_try = normalize(project(u + a * d))
                R_try, g_try = _energy_and_grad(op, norm, u_try)
                evaluations += 1
                # the quadratic interpolant along d has its minimum at t a
                curv = R_try - R + slope * a
                t = 0.5 * slope * a / curv if curv > 0.0 else math.inf
                if R_try <= R - 1e-4 * a * slope:
                    step = a * min(t, 2.0)
                    u, R, g = u_try, R_try, g_try
                    break
                a *= min(max(t, 0.1), 0.5)
            else:  # predicted decrease below rounding: a zero-progress iteration
                stuck = step == 1.0
                step = 1.0
        history.append(R)
        if len(history) > 10 and history[-11] - R < 1e-12 * max(R, 1e-300):
            converged = True
            break

    defect = np.abs(0.5 * g - R * m * u)
    scale = max(R * float(np.max(m * np.abs(u))), 1e-300)
    return EigenResult(lam=R, u=u, residual=float(defect.max()) / scale,
                       iterations=len(history) - 1, converged=converged,
                       evaluations=evaluations, history=history)


_ORACLE_EIGS = 5  # eigenvalues returned by dense_oracle


def dense_oracle(domain: DiscreteDomain, norm: NormSpec) -> np.ndarray:
    """First _ORACLE_EIGS Neumann eigenvalues from the assembled linear problem.

    Only valid for Euclidean/quadratic norms, where F*(xi)^2 = xi^T A^{-1} xi
    makes the energy u^T S u: a generalized symmetric eigenproblem
    S u = lam M u on the same mesh as the descent.  The first eigenvalue is
    ~0 (constants); the second is the spectral gap.
    """
    if norm.b is not None:
        raise ValueError("dense oracle requires a euclidean or quadratic norm")
    if domain.n_nodes > 5000:
        raise ValueError("dense oracle limited to 5000 nodes")
    from scipy.sparse import diags
    from scipy.sparse.linalg import eigsh

    op = domain.mesh
    S, m = _stiffness(op, norm), op.m
    M = diags(m).tocsc()
    x = domain.nodes[:, 0] - float(m @ domain.nodes[:, 0]) / float(m.sum())
    ref = float(x @ (S @ x)) / float(m @ (x * x))
    sigma = -0.1 * max(ref, 1e-8)
    v0 = np.cos(np.arange(domain.n_nodes, dtype=float))
    vals = eigsh(S, k=_ORACLE_EIGS, M=M, sigma=sigma, which="LM",
                 v0=v0, return_eigenvectors=False)
    return np.sort(vals)
