"""Discrete Finsler measure spaces on convex flat domains.

A DomainSpec pairs a convex shape (centered interval, box, or ball) with a
Minkowski norm and a smooth weight; build_domain rasterizes it to a tensor
lattice: the nodes of per-axis coordinates, numbered row-major on their
integer index box, and boundary flags (a node at either end of an axis).
Every neighbour is found by index arithmetic on that box, so nothing else
is stored.  A ball is its box's lattice under a node map that sends the box
boundary onto the sphere.  The lattice owns its P1 mesh
(``DiscreteDomain.mesh``, built on first use), whose lumped masses are the
one node measure.

Geodesics of a Minkowski norm in flat space are straight lines, so on these
convex shapes the distance from x to y is F(y - x); for a non-reversible
norm it depends on the order, and a diameter is a maximum over ordered
pairs.  :func:`analytic_diameter` is the continuum shape's exact value (max
F-length of a straight segment); :func:`diameter`, the maximum over the
lattice's node pairs, is a cross-check that never exceeds it.
``DiscreteDomain.edge_graph`` weighs each edge of the radius-2 stencil by F
of its own displacement, for shortest-path checks on the lattice graph.

Curvature certificates record a pair (K, N) with Ric_N >= K.  In a
Minkowski space straight lines are geodesics and the Lebesgue measure has
zero S-curvature, so for m = e^{-Psi} dx, Ric_inf(v) = D^2 Psi(v, v) (Ohta
2009; Ohta and Sturm 2009).  Every supported (norm, weight) pair gets its
certificate from that one formula (:func:`curvature_certificate`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .norms import NormSpec, from_config as norm_from_config, norm_eval, whole_number

__all__ = [
    "DomainSpec",
    "DiscreteDomain",
    "MeshOperator",
    "CurvatureCertificate",
    "build_domain",
    "diameter",
    "analytic_diameter",
    "curvature_certificate",
    "domain_spec_from_config",
    "whole_number",
]

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Convex flat domain + norm + weight + lattice resolution (cells/unit)."""

    shape: str  # interval | box | ball
    norm: NormSpec
    lengths: tuple = ()
    radius: float = 0.0
    weight: str = "lebesgue"  # lebesgue | gaussian
    kappa: float = 0.0
    resolution: int = 8

    def __post_init__(self):
        if self.shape not in ("interval", "box", "ball"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.weight not in ("lebesgue", "gaussian"):
            raise ValueError(f"unknown weight {self.weight!r}")
        if self.resolution < 4:
            raise ValueError("resolution must be >= 4")
        if not all(map(math.isfinite, self.lengths)):
            raise ValueError(f"lengths must be finite, got {self.lengths}")
        if not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")
        if self.shape == "interval":
            if len(self.lengths) != 1 or self.lengths[0] <= 0:
                raise ValueError("interval needs one positive length")
            if self.norm.dim != 1:
                raise ValueError("interval requires a 1-D norm")
        elif self.shape == "box":
            if not self.lengths or any(L <= 0 for L in self.lengths):
                raise ValueError("box needs positive side lengths")
            if self.norm.dim != len(self.lengths):
                raise ValueError("norm dimension must match box dimension")
        else:
            if self.radius <= 0:
                raise ValueError("ball needs a positive radius")
            if self.norm.dim < 2:
                raise ValueError("ball requires dim >= 2")

    @property
    def dim(self) -> int:
        return self.norm.dim

    def weight_at(self, x: np.ndarray) -> np.ndarray:
        """exp(-Psi(x)) for the configured weight."""
        x = np.asarray(x, dtype=float)
        if self.weight == "lebesgue":
            return np.ones(x.shape[:-1])
        r2 = np.einsum("...i,...i->...", x, x)
        return np.exp(-self.kappa * r2 / 2.0)


@dataclass(eq=False)
class DiscreteDomain:
    """Lattice nodes, boundary flags, spacing and the lattice's P1 mesh.

    ``idx`` is each node's integer index on the lattice box, from 0 per
    axis, and node i is the row-major number of ``idx[i]`` on that box, so
    a neighbour is found by index arithmetic (:func:`_offset_nodes`).
    ``neighbor_idx`` (built on first use, for the graph distances only) is
    (n, slots), the node at each radius-2 stencil offset
    (:func:`_stencil_offsets`) or -1 where there is none; ``neighbor_mask``
    is ``neighbor_idx >= 0``.
    Box axis k has spacing h_k = L_k / round(L_k r), which is 1/r when L_k r
    is a whole number; a ball's ``spacing`` is that of its box [-R, R]^dim,
    2R / round(2R c_d r) (:func:`build_domain`).  ``h`` is the largest h_k.
    ``mesh`` (:func:`_build_mesh`) is built on first use and kept; its lumped
    masses ``mesh.m`` are the node measure, and ``total_measure`` is their
    sum.  Immutable after build.
    """

    spec: DomainSpec
    nodes: np.ndarray
    boundary: np.ndarray
    idx: np.ndarray
    spacing: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def h(self) -> float:
        return float(self.spacing.max())

    @functools.cached_property
    def neighbor_idx(self) -> np.ndarray:
        return _offset_nodes(self.idx, _stencil_offsets(self.dim))

    @property
    def neighbor_mask(self) -> np.ndarray:
        return self.neighbor_idx >= 0

    @functools.cached_property
    def mesh(self) -> MeshOperator:
        return _build_mesh(self)

    @property
    def total_measure(self) -> float:
        return float(self.mesh.m.sum())

    def edge_graph(self, norm: NormSpec) -> csr_matrix:
        """Directed sparse matrix of F(displacement) edge weights, row i
        holding node i's neighbors in slot order."""
        from scipy.sparse import csr_matrix

        rows, slots = np.nonzero(self.neighbor_mask)  # row-major: rows ascend
        cols = self.neighbor_idx[rows, slots]
        w = norm_eval(norm, self.nodes[cols] - self.nodes[rows])
        indptr = np.searchsorted(rows, np.arange(self.n_nodes + 1))
        return csr_matrix((w, cols, indptr), shape=(self.n_nodes,) * 2)


def _axis_nodes(L: float, resolution: float):
    """round(L r) + 1 nodes across [-L/2, L/2], and the stretch L r / round(L r)
    of their spacing against 1/r: exactly 1 when L r is a whole number."""
    cells = int(round(L * resolution))
    if cells < 1:
        raise ValueError("resolution too coarse for this length")
    return np.linspace(-L / 2.0, L / 2.0, cells + 1), L * resolution / cells


@functools.cache
def _stencil_offsets(dim: int) -> np.ndarray:
    """All integer offsets with max-norm <= 2, excluding the origin."""
    return np.array(
        [o for o in itertools.product(range(-2, 3), repeat=dim) if any(o)],
        dtype=np.int64,
    )


def _strides(top: np.ndarray) -> np.ndarray:
    """Row-major strides of the index box whose far corner is top."""
    return np.cumprod(np.r_[1, top[:0:-1] + 1])[::-1]


def _offset_nodes(idx: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n, len(offsets)) node numbers of idx + each offset on the row-major
    index box whose far corner is idx[-1], and -1 off the box."""
    top = idx[-1]
    stride = _strides(top)
    on = ((idx[:, None] >= -offsets) & (idx[:, None] <= top - offsets)).all(axis=2)
    return np.where(on, (idx @ stride)[:, None] + offsets @ stride, -1)


def build_domain(spec: DomainSpec) -> DiscreteDomain:
    """Rasterize the spec to a lattice with its boundary flags.

    A ball of radius R is the box [-R, R]^dim at resolution c_d r, where
    c_d^dim = |B^dim| / 2^dim keeps about |B^dim| (R r)^dim nodes, and each
    node x moves to x |x|_inf / |x|_2: every cube shell lands on a sphere."""
    r, lengths, d = spec.resolution, spec.lengths, spec.dim
    if spec.shape == "ball":
        r *= (math.pi ** (d / 2) / math.gamma(d / 2 + 1) / 2**d) ** (1.0 / d)
        lengths = (2.0 * spec.radius,) * d
    axes, stretch = zip(*[_axis_nodes(L, r) for L in lengths])
    idx = np.indices([a.size for a in axes]).reshape(d, -1).T
    nodes = np.stack([a[i] for a, i in zip(axes, idx.T)], axis=1)
    if spec.shape == "ball":
        l2 = np.linalg.norm(nodes, axis=1, keepdims=True)
        nodes *= np.abs(nodes).max(axis=1, keepdims=True) / np.where(l2 > 0, l2, 1.0)
    return DiscreteDomain(
        spec=spec,
        nodes=nodes,
        boundary=((idx == 0) | (idx == idx.max(axis=0))).any(axis=1),
        idx=idx,
        spacing=(1.0 / r) * np.array(stretch),
    )


# ---------------------------------------------------------------------------
# the P1 mesh


@dataclass(frozen=True)
class MeshOperator:
    """P1 element gradients D, element measures mu and lumped masses m of a
    lattice, and each element's vertices v_0..v_dim (see :func:`_build_mesh`)."""

    D: csr_matrix
    mu: np.ndarray
    m: np.ndarray
    verts: np.ndarray
    dim: int

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Du as per-element covectors, shape (n_el, dim)."""
        return (self.D @ u).reshape(-1, self.dim)


@functools.cache
def _kuhn_offsets(dim: int) -> np.ndarray:
    """(types, dim+1, dim) index offsets of v_0..v_dim for every reflected
    Kuhn simplex at a node, v_0 at the origin."""
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim - 1):
            s, v, path = (1,) + signs, [0] * dim, [[0] * dim]
            for k in perm:
                v[k] += s[k]
                path.append(list(v))
            out.append(path)
    return np.array(out, dtype=np.int64)


def _inverse_and_det(E: np.ndarray):
    """Inverse and determinant of each edge matrix E (rows e_1..e_dim) by the
    adjugate: 1/e in 1-D, [[d, -b], [-c, a]]/det in 2-D, and the columns
    (e2 x e3, e3 x e1, e1 x e2)/det in 3-D."""
    dim = E.shape[-1]
    if dim == 1:
        return 1.0 / E, E[:, 0, 0]
    if dim == 2:
        a, b, c, d = E.reshape(-1, 4).T
        det = a * d - b * c
        adj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
    elif dim == 3:
        e1, e2, e3 = E[:, 0], E[:, 1], E[:, 2]
        adj = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=2)
        det = np.einsum("ni,ni->n", e1, adj[:, :, 0])
    else:
        return np.linalg.inv(E), np.linalg.det(E)
    return adj / det[:, None, None], det


def _build_mesh(domain: DiscreteDomain) -> MeshOperator:
    """The lattice's P1 operator.

    For every permutation pi of the axes and every sign vector s with
    s_0 = +1, the simplex v_0 = i, v_{k+1} = v_k + s_pi(k) e_pi(k) at every
    node i whose vertices all exist.  Each sign vector (up to an overall
    sign) is one Kuhn triangulation; a single one breaks the lattice's
    reflection symmetry and splits degenerate eigenpairs, so all 2^(dim-1)
    are averaged: each volume is divided by 2^(dim-1).  The element
    measure is mu_T = |T| times the mean of e^{-Psi} over the vertices of T,
    and the mass m_i is e^{-Psi(x_i)} times the lumped P1 volume: on
    intervals and boxes, the cell volume halved once per axis at whose end
    the node lies.  D ((n_el*dim) x n, dim+1 nonzeros per row) maps u to the
    element gradients, so one energy and gradient evaluation is
    E = mu . F*(Du)^2 and grad E = D^T (2 mu l(Du)), with l the inverse
    Legendre map.  A simplex type's vertices lie at fixed index offsets
    (:func:`_kuhn_offsets`), so the base nodes whose simplex fits in the
    index box are those within per-axis bounds, and its vertices are
    numbered by the box's strides; elements run by base node, then by type.
    The element geometry is closed-form: each edge matrix is inverted by its
    adjugate (cross products in 3-D), and D is written straight into CSR.
    """
    from scipy.sparse import csr_matrix

    n, dim, spec, x = domain.n_nodes, domain.dim, domain.spec, domain.nodes

    idx, off = domain.idx, _kuhn_offsets(dim)
    top = idx[-1]
    fits = (idx[:, None] >= -off.min(axis=1)) & (idx[:, None] <= top - off.max(axis=1))
    base, kind = np.nonzero(fits.all(axis=2))  # node i is idx[i]'s row-major number
    verts = base[:, None] + (off @ _strides(top))[kind]  # (n_el, dim+1)

    # u(v_k) - u(v_0) = E_k . grad u, so grad u = E^{-1} (u(v_k) - u(v_0))
    Einv, det = _inverse_and_det(x[verts[:, 1:]] - x[verts[:, :1]])
    vol = np.abs(det) / (math.factorial(dim) * 2 ** (dim - 1))
    coef = np.concatenate([-Einv.sum(axis=2, keepdims=True), Einv], axis=2)
    n_el, k = verts.shape
    D = csr_matrix((coef.ravel(), np.repeat(verts, dim, axis=0).ravel(),
                    np.arange(0, n_el * dim * k + 1, k)), shape=(n_el * dim, n))

    w = spec.weight_at(x)
    mu = vol * w[verts].mean(axis=1)
    m = w * np.bincount(verts.ravel(), np.repeat(vol / k, k), n)
    return MeshOperator(D=D, mu=mu, m=m, verts=verts, dim=dim)


def diameter(domain: DiscreteDomain, norm: NormSpec) -> float:
    """Lattice diameter: max over ordered node pairs of F(x_j - x_i).

    Straight segments are geodesics of a Minkowski norm in flat space, so
    F(x_j - x_i) is the distance from node i to node j.  Every node lies in
    the convex hull of the boundary nodes (a ball's interior nodes lie within
    radius R - h, inside the polytope its boundary nodes span on the sphere)
    and F is convex, so the maximum is attained on a pair of boundary nodes.
    One ``norm_eval`` call of b rows per boundary node keeps memory O(b dim),
    for b boundary nodes.  The nodes lie in the shape, so the value never
    exceeds :func:`analytic_diameter`, and equals it on boxes and intervals,
    whose corners are nodes.
    """
    x = domain.nodes[domain.boundary]
    return float(max(norm_eval(norm, x - xi).max() for xi in x))


def analytic_diameter(spec: DomainSpec) -> float:
    """Exact diameter of the continuum shape under the Minkowski norm.

    Straight segments are geodesics in flat space, so the diameter is the
    max F-length of a segment: over ordered vertex pairs for boxes and
    intervals, and 2R * max_{|u|=1} F(u) for balls.
    """
    if spec.shape == "ball":
        return 2.0 * spec.radius * spec.norm.sphere_max
    corners = np.array(
        list(itertools.product(*[(-L / 2.0, L / 2.0) for L in spec.lengths]))
    )
    diffs = (corners[None, :, :] - corners[:, None, :]).reshape(-1, spec.dim)
    return float(np.max(norm_eval(spec.norm, diffs)))


@dataclass(frozen=True)
class CurvatureCertificate:
    """A certified lower bound Ric_N >= K for the weighted space."""

    K: float
    N: float  # in [dim, inf]
    provenance: str  # minkowski_lebesgue | gaussian_weight | user


def curvature_certificate(spec: DomainSpec) -> CurvatureCertificate:
    """Certificate for any Minkowski norm with either weight.

    Lebesgue measure: (K, N) = (0, dim).  Gaussian weight Psi = kappa |x|^2/2:
    Ric_inf(v) = kappa |v|^2, and F(v)/|v| lies between 1/dual.sphere_max and
    sphere_max, so K = kappa / sphere_max^2 for kappa >= 0 and
    kappa dual.sphere_max^2 for kappa < 0, with N = inf.  Both sphere maxima
    are exactly 1 for the Euclidean norm, where K = kappa.
    """
    if spec.weight == "lebesgue":
        return CurvatureCertificate(K=0.0, N=float(spec.dim),
                                    provenance="minkowski_lebesgue")
    kappa, norm = spec.kappa, spec.norm
    K = kappa / norm.sphere_max**2 if kappa >= 0 else kappa * norm.dual.sphere_max**2
    return CurvatureCertificate(K=K, N=math.inf, provenance="gaussian_weight")


# ---------------------------------------------------------------------------
# config records


def domain_spec_from_config(cfg: dict) -> DomainSpec:
    """Build a DomainSpec from a config block {shape/domain, norm, weight,
    resolution}; a missing norm, resolution, weight kind or Gaussian kappa
    is a ValueError that names it, and a missing or bad size fails in
    DomainSpec's own checks."""
    for key in ("norm", "resolution"):
        if key not in cfg:
            raise ValueError(f"domain config has no {key!r}")
    shape_cfg = cfg.get("domain", cfg)
    shape = shape_cfg.get("shape")
    weight_cfg = cfg.get("weight", {"kind": "lebesgue"})
    if "kind" not in weight_cfg:
        raise ValueError("weight config has no 'kind'")
    if weight_cfg["kind"] == "gaussian" and "kappa" not in weight_cfg:
        raise ValueError("weight config has no 'kappa'")
    if shape == "interval":
        lengths = [shape_cfg["length"]] if "length" in shape_cfg else []
    else:
        lengths = shape_cfg.get("lengths", [])
    return DomainSpec(shape=shape, norm=norm_from_config(cfg["norm"]),
                      lengths=tuple(float(L) for L in lengths),
                      radius=float(shape_cfg.get("radius", 0.0)),
                      weight=weight_cfg["kind"],
                      kappa=float(weight_cfg.get("kappa", 0.0)),
                      resolution=whole_number(cfg["resolution"], "resolution"))
