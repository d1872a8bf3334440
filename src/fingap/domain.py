"""Discrete Finsler measure spaces on convex flat domains.

A DomainSpec pairs a convex shape (centered interval, box, or ball) with a
Minkowski norm and a smooth weight; build_domain rasterizes it to a regular
lattice carrying per-node measures (cell volume times exp(-Psi)), a radius-2
neighbor stencil, and boundary flags.  Distances are directed shortest paths
with edge weight F(displacement), so non-reversible norms give order-dependent
distances and the diameter is a supremum over ordered pairs; diameter() gets
it exactly, in O(n) memory, from a few pruned Dijkstra sweeps.

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
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .norms import NormSpec, from_config as norm_from_config, norm_eval, to_config as norm_to_config

__all__ = [
    "DomainSpec",
    "DiscreteDomain",
    "CurvatureCertificate",
    "build_domain",
    "asymmetric_distance",
    "diameter",
    "analytic_diameter",
    "curvature_certificate",
    "domain_spec_from_config",
    "domain_spec_to_config",
]


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

    ``neighbor_idx`` is (n, max_deg) with -1 padding; ``neighbor_disp`` holds
    the exact displacement vectors node -> neighbor; masks mark real slots.
    The radius-2 stencil serves only the graph distances and the boundary
    flags; the eigensolver reads its Kuhn simplices off the max-norm-1 slots.
    Box axis k has spacing h_k = L_k / round(L_k r), which is 1/r when L_k r
    is a whole number; ``h`` is the largest h_k (1/r on balls).
    Immutable after build; ``_cache`` holds derived data only (edge graphs,
    the eigensolver's mesh operator).
    """

    spec: DomainSpec
    nodes: np.ndarray
    node_measure: np.ndarray
    neighbor_idx: np.ndarray
    neighbor_disp: np.ndarray
    neighbor_mask: np.ndarray
    boundary: np.ndarray
    h: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def total_measure(self) -> float:
        return float(self.node_measure.sum())

    def edge_graph(self, norm: NormSpec) -> csr_matrix:
        """Directed sparse matrix of F(displacement) edge weights."""
        key = json.dumps(norm_to_config(norm), sort_keys=True)
        g = self._cache.get(key)
        if g is None:
            mask = self.neighbor_mask
            rows = np.repeat(np.arange(self.n_nodes), mask.sum(axis=1))
            cols = self.neighbor_idx[mask]
            w = norm_eval(norm, self.neighbor_disp[mask])
            g = csr_matrix((w, (rows, cols)), shape=(self.n_nodes, self.n_nodes))
            self._cache[key] = g
        return g


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

    # node numbers on the bounding grid, padded by the stencil radius and -1
    # off the domain, so the neighbor lookup is one fancy index
    pos = idx + 2
    grid = np.full(tuple(pos.max(axis=0) + 3), -1, dtype=np.int64)
    grid[tuple(pos.T)] = np.arange(pos.shape[0])
    offsets = _stencil_offsets(dim)
    nb_idx = grid[tuple(np.moveaxis(pos[:, None, :] + offsets, -1, 0))]
    if spec.shape == "ball":
        # a ball node is on the boundary if an axis neighbor is missing
        axis_slots = np.abs(offsets).sum(axis=1) == 1
        boundary = (nb_idx[:, axis_slots] < 0).any(axis=1)

    measure = cell * spec.weight_at(nodes)
    nb_mask = nb_idx >= 0
    nb_disp = np.where(nb_mask[:, :, None], offsets[None, :, :] * spacing, 0.0)

    return DiscreteDomain(
        spec=spec,
        nodes=nodes,
        node_measure=measure,
        neighbor_idx=nb_idx,
        neighbor_disp=nb_disp,
        neighbor_mask=nb_mask,
        boundary=boundary,
        h=float(spacing.max()),
    )


def asymmetric_distance(domain: DiscreteDomain, norm: NormSpec, i: int, j: int) -> float:
    """Directed shortest-path distance node i -> node j on the stencil graph."""
    g = domain.edge_graph(norm)
    d = dijkstra(g, directed=True, indices=[int(i)])[0]
    out = d[int(j)]
    if not np.isfinite(out):
        raise ValueError(f"nodes {i} and {j} are not connected")
    return float(out)


def diameter(domain: DiscreteDomain, norm: NormSpec) -> float:
    """Graph diameter: max over ordered node pairs of the directed distance.

    Exact bounding-diameter sweeps (Takes & Kosters 2011, for directed
    graphs), in O(n) memory.  A sweep runs Dijkstra from a source s forward,
    giving ecc(s), and on the transposed graph, giving d(., s); so ecc(i) <=
    ub(i) = min over sources of d(i, s) + ecc(s).  Nodes with ub <= best *
    (1 - 1e-12), best the largest source eccentricity, are dropped: the margin
    covers rounding in path sums, so the result is the all-pairs max, bit for
    bit.  The next source is the live node with the largest ub.  A node that
    cannot reach a source keeps ub = inf until its own sweep fails.
    """
    g = domain.edge_graph(norm)
    gt = g.T.tocsr()
    ub = np.full(domain.n_nodes, np.inf)
    live = np.ones(domain.n_nodes, dtype=bool)
    best = 0.0
    s = 0
    while True:
        out = dijkstra(g, directed=True, indices=s)
        into = dijkstra(gt, directed=True, indices=s)
        if not np.all(np.isfinite(out)):
            raise ValueError("domain graph is disconnected")
        ecc = float(out.max())
        best = max(best, ecc)
        np.minimum(ub, into + ecc, out=ub)
        live[s] = False
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


def domain_spec_to_config(spec: DomainSpec) -> dict:
    shape_cfg: dict = {"shape": spec.shape}
    if spec.shape == "interval":
        shape_cfg["length"] = spec.lengths[0]
    elif spec.shape == "box":
        shape_cfg["lengths"] = list(spec.lengths)
    else:
        shape_cfg["radius"] = spec.radius
    weight_cfg = {"kind": spec.weight}
    if spec.weight == "gaussian":
        weight_cfg["kappa"] = spec.kappa
    return {
        "domain": shape_cfg,
        "norm": norm_to_config(spec.norm),
        "weight": weight_cfg,
        "resolution": spec.resolution,
    }
