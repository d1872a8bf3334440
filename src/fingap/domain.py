"""Discrete Finsler measure spaces on convex flat domains.

A DomainSpec pairs a convex shape (centered interval, box, or ball) with a
Minkowski norm and a smooth weight; build_domain rasterizes it to a regular
lattice: the nodes of per-axis coordinates (a ball keeps those inside it), a
radius-2 neighbor stencil, and boundary flags (a node one of whose axis
neighbors is missing).  The lattice owns its P1 mesh
(``DiscreteDomain.mesh``, built on first use), whose lumped masses are the
one node measure.

Distances are directed shortest paths with edge weight F(displacement).  A
stencil slot's displacement is its offset times the per-axis spacing, so
each weight is a function of the slot alone: F is evaluated once per slot
(24 in 2-D, 124 in 3-D) and the edge graph is written straight into CSR.
Non-reversible norms give order-dependent distances and the diameter is a
supremum over ordered pairs; diameter() gets it exactly, in O(n) memory,
from a few pruned Dijkstra sweeps.  A sweep runs one Dijkstra when the edge
graph equals its transpose (a reversible norm), and bounds every node of its
source's orbit under the lattice symmetries (signed axis permutations that
keep the node set and every slot weight).

Geodesics of a Minkowski norm in flat space are straight lines, so for the
supported shapes the diameter also has an exact analytic value (max F-length
of a straight segment); the graph value serves as a cross-check.

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

from .norms import NormSpec, from_config as norm_from_config, norm_eval

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
    """Lattice nodes, a symmetric radius-2 stencil, boundary flags and the
    lattice's P1 mesh.

    ``neighbor_idx`` is (n, slots), the node at each stencil offset
    (:func:`_stencil_offsets`) or -1 where there is none; ``neighbor_mask``
    is ``neighbor_idx >= 0``.  ``idx`` is each node's integer index on the
    lattice box, from 0 per axis.
    The radius-2 stencil serves the graph distances and the boundary flags;
    the mesh reads its Kuhn simplices off the max-norm-1 slots.
    Box axis k has spacing h_k = L_k / round(L_k r), which is 1/r when L_k r
    is a whole number (``spacing``, 1/r on every axis of a ball); ``h`` is
    the largest h_k.
    ``mesh`` (:func:`_build_mesh`) is built on first use and kept; its lumped
    masses ``mesh.m`` are the node measure, and ``total_measure`` is their
    sum.  Immutable after build.
    """

    spec: DomainSpec
    nodes: np.ndarray
    neighbor_idx: np.ndarray
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

        mask = self.neighbor_mask
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=indptr[1:])
        w = _slot_weights(norm, self.spacing)[np.nonzero(mask)[1]]
        return csr_matrix((w, self.neighbor_idx[mask], indptr),
                          shape=(self.n_nodes, self.n_nodes))


def _slot_weights(norm: NormSpec, spacing: np.ndarray) -> np.ndarray:
    """F of each stencil slot's displacement, offset times spacing."""
    return norm_eval(norm, _stencil_offsets(spacing.size) * spacing)


def _axis_nodes(L: float, resolution: int):
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


@functools.cache
def _slot_of(dim: int) -> np.ndarray:
    """The stencil slot of each offset o at index o + 2, -1 at the origin."""
    offsets = _stencil_offsets(dim)
    slot_of = np.full((5,) * dim, -1)
    slot_of[tuple((offsets + 2).T)] = np.arange(offsets.shape[0])
    return slot_of


def _lattice_grid(idx: np.ndarray) -> np.ndarray:
    """Node numbers on the bounding box of the lattice indices, padded by the
    stencil radius 2 and -1 off the nodes: node i sits at idx[i] + 2."""
    pos = idx + 2
    grid = np.full(tuple(pos.max(axis=0) + 3), -1, dtype=np.int64)
    grid[tuple(pos.T)] = np.arange(pos.shape[0])
    return grid


def _stencil_neighbors(grid: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(n, slots) node numbers of idx + each stencil offset, -1 off the nodes."""
    strides = np.array(grid.strides) // grid.itemsize
    offsets = _stencil_offsets(idx.shape[1])
    return grid.ravel()[((idx + 2) @ strides)[:, None] + offsets @ strides]


def build_domain(spec: DomainSpec) -> DiscreteDomain:
    """Rasterize the spec to a lattice with its stencil and boundary flags."""
    h = 1.0 / spec.resolution
    if spec.shape == "ball":
        m = int(math.floor(spec.radius / h))
        axes = [np.arange(-m, m + 1) * h] * spec.dim
        spacing = np.full(spec.dim, h)
    else:
        axes, stretch = zip(*[_axis_nodes(L, spec.resolution) for L in spec.lengths])
        spacing = h * np.array(stretch)
    index_grids = np.meshgrid(*[np.arange(a.size) for a in axes], indexing="ij")
    idx = np.stack([g.reshape(-1) for g in index_grids], axis=1)
    nodes = np.stack([a[i] for a, i in zip(axes, idx.T)], axis=1)
    if spec.shape == "ball":
        R = spec.radius
        inside = np.einsum("ni,ni->n", nodes, nodes) <= R * R + 1e-12
        idx, nodes = idx[inside], nodes[inside]

    nb_idx = _stencil_neighbors(_lattice_grid(idx), idx)
    # a node is on the boundary if an axis neighbor is missing
    axis_slots = np.abs(_stencil_offsets(spec.dim)).sum(axis=1) == 1
    return DiscreteDomain(
        spec=spec,
        nodes=nodes,
        neighbor_idx=nb_idx,
        boundary=(nb_idx[:, axis_slots] < 0).any(axis=1),
        idx=idx,
        spacing=spacing,
    )


# ---------------------------------------------------------------------------
# the P1 mesh


@dataclass(frozen=True)
class MeshOperator:
    """P1 element gradients D, element measures mu, lumped masses m and the
    mu-weighted element-to-node mean of a lattice (see :func:`_build_mesh`)."""

    D: csr_matrix
    mu: np.ndarray
    m: np.ndarray
    node_mean: csr_matrix
    dim: int

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Du as per-element covectors, shape (n_el, dim)."""
        return (self.D @ u).reshape(-1, self.dim)


def _kuhn_slots(dim: int) -> np.ndarray:
    """Stencil slots of v_1..v_dim for every reflected Kuhn simplex at a node."""
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim - 1):
            s, v = (1,) + signs, [0] * dim
            for k in perm:
                v[k] += s[k]
                out.append(list(v))
    return _slot_of(dim)[tuple((np.array(out) + 2).T)].reshape(-1, dim)


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
    are averaged: each volume is divided by 2^(dim-1).  Ball boundary nodes
    are moved radially onto the sphere inside the mesh only.  The element
    measure is mu_T = |T| times the mean of e^{-Psi} over the vertices of T,
    and the mass m_i is e^{-Psi(x_i)} times the lumped P1 volume: on
    intervals and boxes, the cell volume halved once per axis at whose end
    the node lies.  D ((n_el*dim) x n, dim+1 nonzeros per row) maps u to the
    element gradients, so one energy and gradient evaluation is
    E = mu . F*(Du)^2 and grad E = D^T (2 mu l(Du)), with l the inverse
    Legendre map.  The element geometry is closed-form: each edge matrix is
    inverted by its adjugate (cross products in 3-D), and D and the node
    mean are written straight into CSR.
    """
    from scipy.sparse import csr_matrix

    n, dim, spec = domain.n_nodes, domain.dim, domain.spec
    x = domain.nodes.astype(float)
    if spec.shape == "ball":
        b = domain.boundary
        x[b] *= spec.radius / np.linalg.norm(x[b], axis=1)[:, None]

    rest = domain.neighbor_idx[:, _kuhn_slots(dim)].reshape(-1, dim)  # v_1..v_dim
    v0 = np.repeat(np.arange(n), rest.shape[0] // n)
    keep = (rest >= 0).all(axis=1)
    verts = np.column_stack([v0[keep], rest[keep]])  # (n_el, dim+1)
    count = np.bincount(verts.ravel(), minlength=n)
    if count.min() == 0:
        raise ValueError("some lattice node lies in no simplex")

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
    # row i of node_mean: the elements around node i, in element order,
    # weighted by mu and divided by their sum
    el = np.argsort(verts.ravel(), kind="stable") // k
    start = np.concatenate([[0], np.cumsum(count)])
    mu_el = mu[el]
    data = mu_el / np.repeat(np.add.reduceat(mu_el, start[:-1]), count)
    node_mean = csr_matrix((data, el, start), shape=(n, n_el))
    return MeshOperator(D=D, mu=mu, m=m, node_mean=node_mean, dim=dim)


def _lattice_symmetries(domain: DiscreteDomain, norm: NormSpec) -> list:
    """Node permutations pi of the graph automorphisms that come from signed
    axis permutations of the lattice index box.

    Each edge weight is its slot's weight (:func:`_slot_weights`).  So if
    ``neighbor_idx`` is the full radius-2 stencil on the node set, a signed
    axis permutation P gives an automorphism when it maps the node set onto
    itself and w(P o) = w(o) bit for bit for every offset o.  A hand-cut
    edge (a -1 in ``neighbor_idx`` where the stencil has a node) gives no
    symmetries.
    """
    idx = domain.idx
    grid = _lattice_grid(idx)
    if not np.array_equal(domain.neighbor_idx, _stencil_neighbors(grid, idx)):
        return []
    w_slot = _slot_weights(norm, domain.spacing)

    dim = idx.shape[1]
    offsets, slot_of = _stencil_offsets(dim), _slot_of(dim)
    ext = idx.max(axis=0)
    candidates = itertools.product(itertools.permutations(range(dim)),
                                   itertools.product((1, -1), repeat=dim))
    next(candidates)  # the identity
    perms = []
    for perm, signs in candidates:
        perm, signs = list(perm), np.array(signs)
        if not np.array_equal(ext[perm], ext):
            continue
        sigma = slot_of[tuple((offsets[:, perm] * signs + 2).T)]
        if not np.array_equal(w_slot[sigma], w_slot):
            continue
        image = np.where(signs > 0, idx[:, perm], ext - idx[:, perm])
        pi = grid[tuple((image + 2).T)]
        if np.all(pi >= 0):
            perms.append(pi)
    return perms


def diameter(domain: DiscreteDomain, norm: NormSpec) -> float:
    """Graph diameter: max over ordered node pairs of the directed distance.

    Exact bounding-diameter sweeps (Takes & Kosters 2011, for directed
    graphs), in O(n) memory.  A sweep runs Dijkstra from a source s forward,
    giving ecc(s), and on the transposed graph, giving d(., s); so ecc(i) <=
    ub(i) = min over sources of d(i, s) + ecc(s).  When the graph equals its
    transpose (a reversible norm) the forward run is also d(., s).  Each
    lattice symmetry pi (:func:`_lattice_symmetries`) is a graph
    automorphism, so d(pi i, pi s) = d(i, s) and ecc(pi s) = ecc(s): the
    sweep bounds ub(pi i) too and retires the whole orbit of s.  That holds
    for the computed floats as well: when every weight raises a path sum
    (fl(d + w) > d), Dijkstra's distances are the unique solution of the
    rounded Bellman equation d(v) = min_u fl(d(u) + w(u, v)), which pi maps
    onto itself.
    Nodes with ub <= best * (1 - 1e-12), best the largest source
    eccentricity, are dropped: the margin covers rounding in path sums, so
    the result is the all-pairs max, bit for bit.  The next source is the
    live node with the largest ub.  A node that cannot reach a source keeps
    ub = inf until its own sweep fails.  The symmetries add at most
    2^dim dim! - 1 index arrays of length n.
    """
    from scipy.sparse.csgraph import dijkstra

    g = domain.edge_graph(norm)
    gt = g.T.tocsr()
    undirected = (g != gt).nnz == 0
    perms = _lattice_symmetries(domain, norm)
    ub = np.full(domain.n_nodes, np.inf)
    live = np.ones(domain.n_nodes, dtype=bool)
    best = 0.0
    s = 0
    while True:
        out = dijkstra(g, directed=True, indices=s)
        if not np.all(np.isfinite(out)):
            raise ValueError("domain graph is disconnected")
        into = out if undirected else dijkstra(gt, directed=True, indices=s)
        ecc = float(out.max())
        best = max(best, ecc)
        bound = into + ecc
        np.minimum(ub, bound, out=ub)
        live[s] = False
        for pi in perms:
            ub[pi] = np.minimum(ub[pi], bound)
            live[pi[s]] = False
        live &= ub > best * (1.0 - 1e-12)
        if not live.any():
            return best
        s = int(np.argmax(np.where(live, ub, -np.inf)))


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
                      resolution=int(cfg["resolution"]))
