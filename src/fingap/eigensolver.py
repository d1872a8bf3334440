"""First nonzero Neumann eigenvalue of the discrete Finsler-Laplacian.

The eigenvalue is defined variationally as the infimum of the Rayleigh
quotient

    R(u) = sum_i m_i F*(Du_i)^2 / sum_i m_i (u_i - mean)^2

over non-constant node functions: the optimal Poincare constant of the
discrete space.  Du is a per-node least-squares fit of a linear form to the
stencil differences; no boundary rows are imposed, so the Neumann condition
arises naturally from the quotient.

Stabilization: any centered difference fit is blind to the odd/even lattice
mode (u = (-1)^i has zero fitted gradient at interior nodes), which would
fill the low spectrum with spurious sawtooth modes.  The minimized energy
therefore adds the fit's own consistency defect,

    E(u) = sum_i m_i [ F*(Du_i)^2
                       + (beta/h^2) sum_j (u_j - u_i - Du_i . d_ij)^2 ],

with beta = 0.05.  The penalty vanishes on affine functions, is O(h^2)
relative on smooth ones (second-order convergence survives), and prices
checkerboards at O(1/h^2) where they physically belong.

Operators: each lattice's stencil is assembled once (``stencil_operator``,
cached on the domain) into two sparse matrices,

  * D (n*dim x n): the least-squares gradient, (D u)[i*dim + k] = (Du_i)_k;
  * P (n x n): the penalty's quadratic form,
    u^T P u = sum_i m_i sum_j (u_j - u_i - Du_i . d_ij)^2.

At the least-squares optimum sum_j r_ij^2 = sum_j (u_j - u_i)^2 -
Du_i^T G_i Du_i with G_i = sum_j d_ij d_ij^T, so P = L_m - D^T blockdiag(m_i
G_i) D, where L_m is the m-weighted edge Laplacian.  One energy and gradient
evaluation is then E = m . F*(Du)^2 + c u^T P u and grad E = D^T (2 m l(Du))
+ 2 c P u, with l the inverse Legendre map and c = beta / (h^2 F_max^2),
F_max = max_{|u|=1} F(u) (``NormSpec.sphere_max``), so that c matches the
smallest energy min_{|xi|=1} F*(xi)^2 = 1/F_max^2 per unit gradient.

For quadratic norms the same energy is a generalized symmetric eigenproblem
S u = lam M u with S = D^T (M (x) A^{-1}) D + c P, and ``dense_oracle``
solves it directly; the descent result must agree with it to certify
correctness.  For genuinely nonlinear norms (Randers, two-slope)
certification rests on the weak-form residual plus mesh refinement.

Descent is preconditioned steepest descent on the weighted mean-zero sphere
(LOBPCG's single-vector form, Knyazev 2001), alike for every norm: direction
-L^{-1} r, r = g/2 - R M u, made mean-zero and M-orthogonal to u.  L, factored
once per solve, is the Laplacian of the stencil's 2*dim axis edges, i -> j
along axis k weighted m_i w_k / h_k^2 (w_k = A*_kk of the dual norm; 1 for
Euclidean, the dual slopes' product for two-slope), plus 1e-3 M.  Armijo
backtracking (constant 1e-4; each cut to the quadratic interpolant's minimum,
kept within 0.1-0.5 of the step) starts from the last accepted step, doubled
after a first-try acceptance; no descent in 60 cuts is an iteration with zero
progress and resets the step to 1.  Deterministic given (domain, norm, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, diags, kron
from scipy.sparse.linalg import eigsh, splu

from .domain import DiscreteDomain, _stencil_offsets
from .norms import NormSpec, dual_norm_eval, legendre_inverse

__all__ = [
    "EigenResult",
    "StencilOperator",
    "STABILIZATION_BETA",
    "stencil_operator",
    "discrete_gradient",
    "rayleigh_quotient",
    "stabilized_quotient",
    "minimize_rayleigh",
    "dense_oracle",
]

STABILIZATION_BETA = 0.05


@dataclass
class EigenResult:
    """Converged (or best-effort) minimizer of the Rayleigh quotient."""

    lam: float
    u: np.ndarray
    residual: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class StencilOperator:
    """Least-squares gradient D and consistency-penalty form P of a lattice
    (see the module docstring)."""

    D: csr_matrix
    P: csr_matrix
    dim: int

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Du as per-node covectors, shape (n, dim)."""
        return (self.D @ u).reshape(-1, self.dim)


def stencil_operator(domain: DiscreteDomain) -> StencilOperator:
    """The lattice's D and P, assembled on first use and cached on the domain."""
    op = domain._cache.get("stencil_operator")
    if op is None:
        op = _assemble(domain)
        domain._cache["stencil_operator"] = op
    return op


def _assemble(domain: DiscreteDomain) -> StencilOperator:
    disp, mask = domain.neighbor_disp, domain.neighbor_mask
    n, dim = domain.n_nodes, domain.dim
    m = domain.node_measure

    G = np.einsum("nsd,nse->nde", disp, disp)
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("rank-deficient stencil at some node") from exc
    W = np.einsum("nde,nse->nsd", Ginv, disp)  # zero on padded slots

    # slot_sum(coef) u has row i*dim + k equal to sum_s coef[i, s, k] (u_j - u_i),
    # j the neighbor in slot s of node i
    i_idx, s_idx = np.nonzero(mask)
    j_idx = domain.neighbor_idx[i_idx, s_idx]
    rows = np.concatenate([(i_idx[:, None] * dim + np.arange(dim)).ravel(),
                           np.arange(n * dim)])
    cols = np.concatenate([np.repeat(j_idx, dim), np.repeat(np.arange(n), dim)])

    def slot_sum(coef):
        vals = np.concatenate([coef[i_idx, s_idx].ravel(), -coef.sum(axis=1).ravel()])
        return csr_matrix((vals, (rows, cols)), shape=(n * dim, n))

    D = slot_sum(W)
    # D^T blockdiag(m_i G_i) D, using G_i W_i = d_i: the second factor sums
    # m_i d_ij (u_j - u_i); its rounding is symmetrized below so that the
    # gradient 2 P u is exact for the form u^T P u
    K = D.T @ (diags(np.repeat(m, dim)) @ slot_sum(disp))
    P = (_edge_laplacian(n, i_idx, j_idx, m[i_idx]) - 0.5 * (K + K.T)).tocsr()
    return StencilOperator(D=D, P=P, dim=dim)


def _edge_laplacian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray):
    """Laplacian of the directed edges i -> j with weights w, symmetrized."""
    edges = csr_matrix((w, (i, j)), shape=(n, n))
    deg = np.asarray(edges.sum(axis=0)).ravel() + np.asarray(edges.sum(axis=1)).ravel()
    return diags(deg) - edges - edges.T


def discrete_gradient(domain: DiscreteDomain, u, i: int | None = None):
    """Least-squares differential Du as per-node covectors.

    Returns the full (n, dim) array, or a single covector when ``i`` is
    given.  Exact for affine u; zero for constant u.
    """
    out = stencil_operator(domain).gradient(np.asarray(u, dtype=float))
    return out if i is None else out[int(i)]


def _variance(m: np.ndarray, u: np.ndarray) -> float:
    """sum m (u - mean)^2; rejects (numerically) constant u."""
    mean = float(m @ u) / float(m.sum())
    den = float(m @ (u - mean) ** 2)
    if den <= 1e-30 * float(m.sum()) * max(1.0, float(np.max(np.abs(u))) ** 2):
        raise ValueError("Rayleigh quotient undefined for constant u")
    return den


def rayleigh_quotient(domain: DiscreteDomain, norm: NormSpec, u) -> float:
    """Raw quotient sum m F*(Du)^2 / sum m (u - mean)^2; scale invariant.

    This is the unstabilized quotient; the solver minimizes this plus the
    consistency penalty (see module docstring).
    """
    u = np.asarray(u, dtype=float)
    m = domain.node_measure
    den = _variance(m, u)
    num = float(m @ dual_norm_eval(norm, discrete_gradient(domain, u)) ** 2)
    return num / den


def stabilized_quotient(domain: DiscreteDomain, norm: NormSpec, u) -> float:
    """The quotient actually minimized by the solver: raw numerator plus the
    consistency penalty, over the weighted variance.  For any non-constant u
    this dominates the discrete spectral gap, so it certifies the Poincare
    inequality from above.
    """
    u = np.asarray(u, dtype=float)
    m = domain.node_measure
    den = _variance(m, u)
    op = stencil_operator(domain)
    num, _ = _energy_and_grad(op, norm, m, u, _penalty_coefficient(norm, domain.h))
    return num / den


def _penalty_coefficient(norm: NormSpec, h: float) -> float:
    """c = beta / (h^2 max_{|u|=1} F(u)^2), shared by the descent and the oracle."""
    return STABILIZATION_BETA / norm.sphere_max**2 / h**2


def _energy_and_grad(op: StencilOperator, norm: NormSpec, m: np.ndarray,
                     u: np.ndarray, c: float):
    """Stabilized numerator E(u) and its exact gradient; c is the penalty
    coefficient."""
    Du = op.gradient(u)
    Pu = op.P @ u
    num = float(m @ dual_norm_eval(norm, Du) ** 2) + c * float(u @ Pu)
    z = 2.0 * m[:, None] * legendre_inverse(norm, Du)
    grad = op.D.T @ z.ravel() + (2.0 * c) * Pu
    return num, grad


def _preconditioner(domain: DiscreteDomain, norm: NormSpec):
    """splu factor of the axis-edge Laplacian plus 1e-3 M (module docstring)."""
    m, dual = domain.node_measure, norm.dual
    if norm.family == "two_slope_1d":
        w_axis = np.array([dual.a_plus * dual.a_minus])
    else:
        w_axis = np.ones(norm.dim) if dual.A is None else np.diag(dual.A)
    axis = np.abs(_stencil_offsets(domain.dim)).sum(axis=1) == 1
    idx, disp = domain.neighbor_idx[:, axis], domain.neighbor_disp[:, axis]
    i_idx, s_idx = np.nonzero(idx >= 0)
    k = np.argmax(np.abs(disp[i_idx, s_idx]), axis=1)
    w = m[i_idx] * w_axis[k] / disp[i_idx, s_idx, k] ** 2
    L = _edge_laplacian(domain.n_nodes, i_idx, idx[i_idx, s_idx], w)
    return splu((L + diags(1e-3 * m)).tocsc())


def minimize_rayleigh(domain: DiscreteDomain, norm: NormSpec, seed: int = 0,
                      max_iter: int = 50_000) -> EigenResult:
    """Minimize the stabilized Rayleigh quotient on the mean-zero sphere.

    Start: first coordinate function minus its weighted mean, plus seeded
    1e-3 noise to break grid symmetries.  Terminates when the relative
    decrease of the quotient over 10 iterations falls below 1e-12 (or at
    the iteration cap, flagged as not converged).
    """
    if domain.n_nodes < 3:
        raise ValueError("domain too small for an eigenvalue")
    m = domain.node_measure
    Mtot = float(m.sum())
    op = stencil_operator(domain)
    lu = _preconditioner(domain, norm)

    def project(w):
        return w - (float(m @ w) / Mtot)

    def normalize(w):
        return w / math.sqrt(float(m @ (w * w)))

    rng = np.random.default_rng(seed)
    u = project(domain.nodes[:, 0].astype(float))
    scale = float(np.max(np.abs(u))) or 1.0
    u = normalize(project(u + 1e-3 * scale * rng.standard_normal(domain.n_nodes)))

    c_pen = _penalty_coefficient(norm, domain.h)
    R, g = _energy_and_grad(op, norm, m, u, c_pen)
    history = [R]
    step = 1.0
    converged = False

    for _ in range(max_iter):
        # preconditioned residual; the quotient's derivative along d is 2 r.d
        r = 0.5 * g - R * m * u
        d = -project(lu.solve(r))
        d -= float((m * u) @ d) * u
        slope = -2.0 * float(r @ d)
        if slope <= 1e-30 * max(1.0, R * R):
            converged = True
            break

        a = step
        for bt in range(60):
            u_try = normalize(project(u + a * d))
            R_try, g_try = _energy_and_grad(op, norm, m, u_try, c_pen)
            if R_try <= R - 1e-4 * a * slope:
                u, R, g = u_try, R_try, g_try
                step = 2.0 * a if bt == 0 else a
                break
            a *= min(max(0.5 * slope * a / (R_try - R + slope * a), 0.1), 0.5)
        else:  # no descent at fp resolution: a zero-progress iteration
            step = 1.0
        history.append(R)
        if len(history) > 10 and history[-11] - R < 1e-12 * max(R, 1e-300):
            converged = True
            break

    u = normalize(project(u))
    _, gfin = _energy_and_grad(op, norm, m, u, c_pen)
    defect = np.abs(0.5 * gfin - R * m * u)
    scale = max(R * float(np.max(m * np.abs(u))), 1e-300)
    return EigenResult(lam=R, u=u, residual=float(defect.max()) / scale,
                       iterations=len(history) - 1, converged=converged,
                       history=history)


def dense_oracle(domain: DiscreteDomain, norm: NormSpec, k: int = 5) -> np.ndarray:
    """First k Neumann eigenvalues from the assembled linear problem.

    Only valid for Euclidean/quadratic norms, where F*(xi)^2 = xi^T A^{-1} xi
    makes the stabilized energy a generalized symmetric eigenproblem
    S u = lam M u with S = D^T (M (x) A^{-1}) D + c P, built from the same
    operators as the descent.  The first eigenvalue is ~0 (constants); the
    second is the spectral gap.
    """
    if norm.family not in ("euclidean", "quadratic"):
        raise ValueError("dense oracle requires a euclidean or quadratic norm")
    if domain.n_nodes > 5000:
        raise ValueError("dense oracle limited to 5000 nodes")

    op = stencil_operator(domain)
    m = domain.node_measure
    A_inv = np.eye(domain.dim) if norm.family == "euclidean" else norm.A_inv
    S = (op.D.T @ kron(diags(m), A_inv) @ op.D
         + _penalty_coefficient(norm, domain.h) * op.P).tocsc()

    M = diags(m).tocsc()
    x = domain.nodes[:, 0] - float(m @ domain.nodes[:, 0]) / float(m.sum())
    ref = float(x @ (S @ x)) / float(m @ (x * x))
    sigma = -0.1 * max(ref, 1e-8)
    v0 = np.cos(np.arange(domain.n_nodes, dtype=float))
    vals = eigsh(S, k=k, M=M, sigma=sigma, which="LM",
                 v0=v0, return_eigenvectors=False)
    return np.sort(vals)
