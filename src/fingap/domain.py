"""Discrete Finsler measure spaces on convex flat domains.

A DomainSpec pairs a convex shape (centered interval, box, or ball) with a
Minkowski norm and a smooth weight; build_domain rasterizes it to a regular
lattice carrying per-node measures (cell volume times exp(-Psi)), a radius-2
neighbor stencil, and boundary flags.  Distances are directed shortest paths
with edge weight F(displacement).  A stencil slot's displacement is its
offset times the per-axis spacing, so each weight is a function of the slot
alone: F is evaluated once per slot (24 in 2-D, 124 in 3-D) and the edge
graph is written straight into CSR.  Non-reversible norms give
order-dependent distances and the diameter is a supremum over ordered pairs;
diameter() gets it exactly, in O(n) memory, from a few pruned Dijkstra
sweeps.  A sweep runs one Dijkstra when the edge graph equals its transpose
(a reversible norm), and bounds every node of its source's orbit under the
lattice symmetries (signed axis permutations that keep the node set and
every slot weight).

Geodesics of a Minkowski norm in flat space are straight lines, so for the
supported shapes the diameter also has an exact analytic value (max F-length
of a straight segment); the graph value serves as a cross-check.

Curvature certificates record a pair (K, N) with Ric_N >= K:

  * any Minkowski norm with the Lebesgue measure has Ric_N >= 0 at N = dim;
  * the Euclidean norm with Gaussian weight Psi = kappa |x|^2 / 2 has
    Ric_inf = (Psi o line)'' = kappa along unit-speed straight lines.

Other (norm, weight) pairs need a user-supplied certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .norms import NormSpec, from_config as norm_from_config, norm_eval

__all__ = [
    "DomainSpec",
    "DiscreteDomain",
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
    """Lattice nodes with measures, a symmetric radius-2 stencil, and flags.

    ``neighbor_idx`` is (n, slots), the node at each stencil offset
    (:func:`_stencil_offsets`) or -1 where there is none; ``neighbor_mask``
    is ``neighbor_idx >= 0``.  ``idx`` is each node's integer index on the
    lattice box, from 0 per axis.
    The radius-2 stencil serves only the graph distances and the boundary
    flags; the eigensolver reads its Kuhn simplices off the max-norm-1 slots.
    Box axis k has spacing h_k = L_k / round(L_k r), which is 1/r when L_k r
    is a whole number (``spacing``, 1/r on every axis of a ball); ``h`` is
    the largest h_k.
    Immutable after build; ``_cache`` holds derived data only (the
    eigensolver's mesh operator).
    """

    spec: DomainSpec
    nodes: np.ndarray
    node_measure: np.ndarray
    neighbor_idx: np.ndarray
    boundary: np.ndarray
    idx: np.ndarray
    spacing: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

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

    @property
    def total_measure(self) -> float:
        return float(self.node_measure.sum())

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


_OFFSET_CACHE: dict = {}


def _stencil_offsets(dim: int) -> np.ndarray:
    """All integer offsets with max-norm <= 2, excluding the origin."""
    out = _OFFSET_CACHE.get(dim)
    if out is None:
        out = np.array(
            [o for o in itertools.product(range(-2, 3), repeat=dim) if any(o)],
            dtype=np.int64,
        )
        _OFFSET_CACHE[dim] = out
    return out


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
    """Rasterize the spec to a lattice with measures, stencil and flags."""
    h = 1.0 / spec.resolution
    dim = spec.dim

    if spec.shape in ("interval", "box"):
        axes, stretch = zip(*[_axis_nodes(L, spec.resolution) for L in spec.lengths])
        spacing = h * np.array(stretch)
        index_grids = np.meshgrid(*[np.arange(a.size) for a in axes], indexing="ij")
        idx = np.stack([g.reshape(-1) for g in index_grids], axis=1)
        nodes = np.stack(
            [axes[d][idx[:, d]] for d in range(dim)], axis=1
        )
        # cells of h^dim times the stretches; half cells at the two ends of
        # each axis
        cell = np.full(idx.shape[0], h**dim * math.prod(stretch))
        boundary = np.zeros(idx.shape[0], dtype=bool)
        for d in range(dim):
            at_end = (idx[:, d] == 0) | (idx[:, d] == axes[d].size - 1)
            cell[at_end] *= 0.5
            boundary |= at_end
    else:
        R = spec.radius
        m = int(math.floor(R / h))
        rng = np.arange(-m, m + 1)
        grids = np.meshgrid(*[rng] * dim, indexing="ij")
        idx = np.stack([g.reshape(-1) for g in grids], axis=1)
        nodes = idx * h
        inside = np.einsum("ni,ni->n", nodes, nodes) <= R * R + 1e-12
        idx, nodes = idx[inside] + m, nodes[inside]
        cell = np.full(idx.shape[0], h**dim)
        spacing = np.full(dim, h)

    if nodes.shape[0] == 0:
        raise ValueError("domain is empty at this resolution")

    nb_idx = _stencil_neighbors(_lattice_grid(idx), idx)
    if spec.shape == "ball":
        # a ball node is on the boundary if an axis neighbor is missing
        axis_slots = np.abs(_stencil_offsets(dim)).sum(axis=1) == 1
        boundary = (nb_idx[:, axis_slots] < 0).any(axis=1)

    return DiscreteDomain(
        spec=spec,
        nodes=nodes,
        node_measure=cell * spec.weight_at(nodes),
        neighbor_idx=nb_idx,
        boundary=boundary,
        idx=idx,
        spacing=spacing,
    )


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
    offsets = _stencil_offsets(dim)
    slot_of = np.full((5,) * dim, -1)
    slot_of[tuple((offsets + 2).T)] = np.arange(offsets.shape[0])
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
    """Certificate for the supported (norm, weight) families.

    Lebesgue measure: (K, N) = (0, dim) for any Minkowski norm.  Euclidean
    norm with Gaussian weight kappa: (K, N) = (kappa, inf), since the weight
    restricted to any unit-speed straight line has second derivative kappa.
    """
    if spec.weight == "lebesgue":
        return CurvatureCertificate(K=0.0, N=float(spec.dim),
                                    provenance="minkowski_lebesgue")
    if spec.norm.family == "euclidean":
        return CurvatureCertificate(K=spec.kappa, N=math.inf,
                                    provenance="gaussian_weight")
    raise ValueError(
        "no certificate for a non-Euclidean norm with Gaussian weight; "
        "supply a user certificate in the case config"
    )


# ---------------------------------------------------------------------------
# config records


def domain_spec_from_config(cfg: dict) -> DomainSpec:
    """Build a DomainSpec from a config block {shape/domain, norm, weight, resolution}."""
    shape_cfg = cfg.get("domain", cfg)
    shape = shape_cfg["shape"]
    norm = norm_from_config(cfg["norm"])
    weight_cfg = cfg.get("weight", {"kind": "lebesgue"})
    kind = weight_cfg.get("kind", "lebesgue")
    kappa = float(weight_cfg.get("kappa", 0.0))
    resolution = int(cfg["resolution"])
    if shape == "interval":
        lengths = (float(shape_cfg["length"]),)
        return DomainSpec(shape="interval", norm=norm, lengths=lengths,
                          weight=kind, kappa=kappa, resolution=resolution)
    if shape == "box":
        lengths = tuple(float(L) for L in shape_cfg["lengths"])
        return DomainSpec(shape="box", norm=norm, lengths=lengths,
                          weight=kind, kappa=kappa, resolution=resolution)
    if shape == "ball":
        return DomainSpec(shape="ball", norm=norm,
                          radius=float(shape_cfg["radius"]),
                          weight=kind, kappa=kappa, resolution=resolution)
    raise ValueError(f"unknown shape {shape!r}")
