"""Discrete domains: construction, directed distances, diameters, certificates."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra
from scipy.special import erf

from fingap import domain as domain_mod
from fingap.domain import (
    CurvatureCertificate,
    DomainSpec,
    analytic_diameter,
    build_domain,
    curvature_certificate,
    diameter,
    domain_spec_from_config,
)
from fingap.norms import (_far_direction, euclidean_norm, norm_eval, quadratic_norm,
                          randers_norm, two_slope_norm)


def interval_spec(norm=None, L=1.0, res=10, weight="lebesgue", kappa=0.0):
    return DomainSpec(shape="interval", norm=norm or euclidean_norm(1),
                      lengths=(L,), resolution=res, weight=weight, kappa=kappa)


def box_spec(norm=None, lengths=(1.0, 1.0), res=10, weight="lebesgue", kappa=0.0):
    return DomainSpec(shape="box", norm=norm or euclidean_norm(2),
                      lengths=lengths, resolution=res, weight=weight, kappa=kappa)


def weighted_spec(norm, kappa):
    """The unit interval or cube of the norm's dimension with Gaussian weight."""
    shape = "interval" if norm.dim == 1 else "box"
    return DomainSpec(shape=shape, norm=norm, lengths=(1.0,) * norm.dim,
                      resolution=8, weight="gaussian", kappa=kappa)


def reference_build(spec):
    """Per-node dict-lookup lattice builder: the arrays build_domain must
    match, and under "measure" the cell measures (cell volume, halved per
    axis end, times the weight) that the mesh's lumped masses equal on
    intervals and boxes.  A ball of radius R is the box [-R, R]^dim at
    resolution c r, c^dim the unit ball's volume over 2^dim, with every node
    x then moved to x |x|_inf / |x|_2."""
    dim = spec.dim
    if spec.shape == "ball":
        res = spec.resolution * ({2: math.pi / 4, 3: math.pi / 6}[dim]) ** (1 / dim)
        lengths = (2.0 * spec.radius,) * dim
    else:
        res, lengths = spec.resolution, spec.lengths
    h = 1.0 / res
    # round(L r) cells per axis, of width (1/r) (L r / round(L r))
    cells = [int(round(L * res)) for L in lengths]
    axes = [np.linspace(-L / 2.0, L / 2.0, c + 1) for L, c in zip(lengths, cells)]
    stretch = [L * res / c for L, c in zip(lengths, cells)]
    spacing = h * np.array(stretch)
    idx = np.array(list(itertools.product(*[range(a.size) for a in axes])),
                   dtype=np.int64)
    nodes = np.stack([axes[k][idx[:, k]] for k in range(dim)], axis=1)
    cell = np.ones(idx.shape[0]) * h**dim * math.prod(stretch)
    boundary = np.zeros(idx.shape[0], dtype=bool)
    for k in range(dim):
        at_end = (idx[:, k] == 0) | (idx[:, k] == axes[k].size - 1)
        cell[at_end] *= 0.5
        boundary |= at_end
    if spec.shape == "ball":
        cell = None
        for x in nodes:
            l2 = math.sqrt(sum(t * t for t in x))
            if l2 > 0:
                x *= max(abs(x)) / l2
    lookup = {tuple(k): i for i, k in enumerate(idx)}
    offsets = np.array([o for o in itertools.product(range(-2, 3), repeat=dim)
                        if any(o)], dtype=np.int64)
    nb_idx = np.full((idx.shape[0], offsets.shape[0]), -1, dtype=np.int64)
    for i, k in enumerate(idx):
        for slot, o in enumerate(offsets):
            nb_idx[i, slot] = lookup.get(tuple(k + o), -1)
    return {"nodes": nodes, "neighbor_idx": nb_idx, "boundary": boundary,
            "spacing": spacing, "idx": idx,
            "measure": None if cell is None else cell * spec.weight_at(nodes)}


class TestBuild:
    def test_interval_node_count_and_measure(self):
        d = build_domain(interval_spec(res=10))
        assert d.n_nodes == 11
        interior = ~d.boundary
        assert np.allclose(d.mesh.m[interior], 0.1)
        assert np.allclose(d.mesh.m[d.boundary], 0.05)
        assert d.total_measure == pytest.approx(1.0)

    def test_box_node_count(self):
        d = build_domain(box_spec(res=10))
        assert d.n_nodes == 121

    def test_gaussian_weighting(self):
        spec = interval_spec(L=2.0, res=10, weight="gaussian", kappa=1.0)
        d = build_domain(spec)
        x = d.nodes[:, 0]
        interior = ~d.boundary
        assert np.allclose(d.mesh.m[interior],
                           0.1 * np.exp(-x[interior] ** 2 / 2))

    @pytest.mark.parametrize("res", [67, 69])
    def test_non_integer_cell_count(self, res):
        # L r = 100.5 or 103.5: round(L r) cells of width L / round(L r)
        d = build_domain(interval_spec(L=1.5, res=res))
        cells = d.n_nodes - 1
        assert np.diff(d.nodes[:, 0]) == pytest.approx(1.5 / cells, rel=1e-12, abs=0)
        assert d.spacing == pytest.approx([1.5 / cells], rel=1e-12, abs=0)
        assert d.total_measure == pytest.approx(1.5, rel=1e-12, abs=0)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            interval_spec(res=3)

    def test_stencil_graph_symmetry(self):
        d = build_domain(box_spec(res=5))
        pairs = set()
        for i in range(d.n_nodes):
            for s in range(d.neighbor_idx.shape[1]):
                if d.neighbor_mask[i, s]:
                    pairs.add((i, int(d.neighbor_idx[i, s])))
        assert all((j, i) in pairs for (i, j) in pairs)

    @pytest.mark.parametrize("spec", [
        interval_spec(norm=two_slope_norm(2.0, 0.5)),
        box_spec(norm=randers_norm(np.eye(2), [0.3, 0.1]), lengths=(1.0, 0.6),
                 res=17),
        box_spec(norm=quadratic_norm(np.diag([2.0, 1.0, 3.0])),
                 lengths=(1.0, 1.0, 1.0), res=6),
        DomainSpec(shape="ball", norm=randers_norm(np.eye(2), [0.2, 0.1]),
                   radius=0.5, resolution=12),
    ], ids=["twoslope-interval", "randers-box", "quadratic-box3d", "randers-ball"])
    def test_edge_weights_are_norm_of_node_displacement(self, spec):
        # one weight per stencil slot is F of every edge's own displacement
        d = build_domain(spec)
        g = d.edge_graph(spec.norm).tocoo()
        assert g.nnz == d.neighbor_mask.sum()
        want = norm_eval(spec.norm, d.nodes[g.col] - d.nodes[g.row])
        np.testing.assert_allclose(g.data, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", [
        interval_spec(res=10),
        box_spec(lengths=(1.0, 0.6), res=17),
        box_spec(norm=euclidean_norm(3), lengths=(1.0, 1.0, 1.0), res=6),
        DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                   resolution=7),
        DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                   resolution=30),
        DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                   resolution=45),
        DomainSpec(shape="ball", norm=euclidean_norm(3), radius=0.5,
                   resolution=9),
        box_spec(lengths=(5.0, 5.0), res=6, weight="gaussian", kappa=0.5),
    ], ids=["interval", "box-unequal", "box3d", "ball-r7", "ball-r30",
            "ball-r45", "ball3d", "box-gauss"])
    def test_matches_reference_builder(self, spec):
        d = build_domain(spec)
        ref = reference_build(spec)
        measure = ref.pop("measure")
        for name, want in ref.items():
            got = getattr(d, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        if spec.shape != "ball":
            np.testing.assert_allclose(d.mesh.m, measure, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("spec", [
        interval_spec(res=10),
        box_spec(lengths=(1.0, 0.6), res=17),
        DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                   resolution=7),
        box_spec(norm=euclidean_norm(3), lengths=(1.0, 1.0, 1.0), res=8),
    ], ids=["interval", "box", "ball", "box3d"])
    def test_stencil_neighbors_flat_index(self, spec):
        # index arithmetic on the row-major index box finds the neighbours
        # that the reference builder's dict lookup finds
        d = build_domain(spec)
        want = reference_build(spec)["neighbor_idx"]
        got = domain_mod._offset_nodes(d.idx, domain_mod._stencil_offsets(spec.dim))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_measures_positive(self):
        for spec in [interval_spec(), box_spec(),
                     DomainSpec(shape="ball", norm=euclidean_norm(2),
                                radius=0.5, resolution=12)]:
            d = build_domain(spec)
            assert np.all(d.mesh.m > 0)
            assert d.total_measure > 0

    def test_geometry_leaves_mesh_unbuilt(self):
        # the geometry path (build, edge graph, diameter) never assembles
        # the P1 mesh; it is built on first use and kept
        spec = DomainSpec(shape="ball", norm=randers_norm(np.eye(2), [0.2, 0.1]),
                          radius=0.5, resolution=12)
        d = build_domain(spec)
        d.edge_graph(spec.norm)
        diameter(d, spec.norm)
        assert "mesh" not in d.__dict__
        assert d.mesh is d.mesh
        assert "mesh" in d.__dict__


def distance(d, norm, i, j):
    """Directed shortest-path distance node i -> node j on the stencil graph."""
    return dijkstra(d.edge_graph(norm), directed=True, indices=i)[j]


class TestDistances:
    def test_two_slope_interval_endpoints(self):
        spec = interval_spec(norm=two_slope_norm(2.0, 0.5))
        d = build_domain(spec)
        i0 = int(np.argmin(d.nodes[:, 0]))
        i1 = int(np.argmax(d.nodes[:, 0]))
        assert distance(d, spec.norm, i0, i1) == pytest.approx(2.0)
        assert distance(d, spec.norm, i1, i0) == pytest.approx(0.5)
        assert distance(d, spec.norm, i0, i0) == 0.0

    def test_one_dim_distance_is_segment_integral(self):
        spec = interval_spec(norm=two_slope_norm(3.0, 0.7), res=8)
        d = build_domain(spec)
        xs = d.nodes[:, 0]
        for i in range(d.n_nodes):
            for j in range(d.n_nodes):
                gap = xs[j] - xs[i]
                expect = 3.0 * gap if gap >= 0 else -0.7 * gap
                assert distance(d, spec.norm, i, j) == pytest.approx(
                    expect, abs=1e-12
                )

    def test_box_diagonal_euclidean(self):
        spec = box_spec(res=10)
        d = build_domain(spec)
        c00 = int(np.argmin(d.nodes[:, 0] + d.nodes[:, 1]))
        c11 = int(np.argmax(d.nodes[:, 0] + d.nodes[:, 1]))
        dist = distance(d, spec.norm, c00, c11)
        assert dist <= math.sqrt(2) * 1.03
        assert dist >= math.sqrt(2) - 1e-12

    def test_randers_straight_segment(self):
        norm = randers_norm(np.eye(2), [0.5, 0.0])
        spec = box_spec(norm=norm, res=10)
        d = build_domain(spec)
        mid = np.abs(d.nodes[:, 1])
        left = int(np.argmin(d.nodes[:, 0] * 100 + mid))
        right = int(np.argmax(d.nodes[:, 0] * 100 - mid))
        assert distance(d, norm, left, right) == pytest.approx(1.5)
        assert distance(d, norm, right, left) == pytest.approx(0.5)

    def test_directed_triangle_inequality_1000(self):
        norm = randers_norm(np.eye(2), [0.4, -0.2])
        spec = box_spec(norm=norm, res=6)
        d = build_domain(spec)
        from scipy.sparse.csgraph import dijkstra
        full = dijkstra(d.edge_graph(norm), directed=True)
        rng = np.random.default_rng(0)
        n = d.n_nodes
        trip = rng.integers(0, n, size=(1000, 3))
        x, y, z = trip[:, 0], trip[:, 1], trip[:, 2]
        assert np.all(full[x, z] <= full[x, y] + full[y, z] + 1e-12)


class TestDiameter:
    def test_two_slope_interval(self):
        spec = interval_spec(norm=two_slope_norm(2.0, 0.5))
        d = build_domain(spec)
        assert diameter(d, spec.norm) == pytest.approx(2.0)
        assert analytic_diameter(spec) == pytest.approx(2.0)

    def test_box_euclidean(self):
        spec = box_spec(res=8)
        d = build_domain(spec)
        assert analytic_diameter(spec) == pytest.approx(math.sqrt(2))
        assert diameter(d, spec.norm) == analytic_diameter(spec)

    def test_interval_euclidean(self):
        spec = interval_spec()
        assert analytic_diameter(spec) == pytest.approx(1.0)
        assert diameter(build_domain(spec), spec.norm) == analytic_diameter(spec)

    def test_ball_euclidean(self):
        spec = DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                          resolution=16)
        assert analytic_diameter(spec) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("dim, R", [(2, 0.5), (2, 0.7), (3, 1.3)])
    def test_ball_euclidean_exact(self, dim, R):
        spec = DomainSpec(shape="ball", norm=euclidean_norm(dim), radius=R,
                          resolution=8)
        assert analytic_diameter(spec) == 2.0 * R

    def test_ball_randers(self):
        norm = randers_norm(np.eye(2), [0.2, 0.1])
        spec = DomainSpec(shape="ball", norm=norm, radius=0.5, resolution=16)
        expect = 1.0 * (1.0 + math.hypot(0.2, 0.1))
        assert analytic_diameter(spec) == pytest.approx(expect, rel=1e-8)

    def test_refinement_stability(self):
        for norm in (euclidean_norm(2), randers_norm(np.eye(2), [0.3, 0.1])):
            vals = []
            for res in (4, 8, 16):
                spec = box_spec(norm=norm, res=res)
                vals.append(diameter(build_domain(spec), norm))
            assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]
            assert abs(vals[2] - vals[1]) <= 0.02 * vals[1]

    @pytest.mark.parametrize("spec", [
        interval_spec(norm=two_slope_norm(2.0, 0.5), res=40),
        box_spec(res=20),
        box_spec(norm=quadratic_norm(np.diag([1.0, 4.0])), res=20),
        box_spec(norm=randers_norm(np.eye(2), [0.3, 0.1]), res=20),
        DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                   resolution=30),
        DomainSpec(shape="ball", norm=randers_norm(np.eye(2), [0.3, 0.1]),
                   radius=0.5, resolution=30),
        box_spec(norm=euclidean_norm(3), lengths=(1.0, 1.0, 1.0), res=6),
        DomainSpec(shape="ball", norm=randers_norm(np.eye(3), [0.2, 0.0, 0.1]),
                   radius=0.5, resolution=8),
        # partly symmetric: only some signed axis permutations are automorphisms
        box_spec(lengths=(1.0, 0.6), res=20),
        box_spec(norm=euclidean_norm(3), lengths=(1.0, 0.6, 1.0), res=7),
        box_spec(norm=randers_norm(np.eye(2), [0.3, 0.0]), res=20),
        box_spec(norm=randers_norm(np.eye(2), [0.2, 0.2]), res=20),
        box_spec(norm=quadratic_norm(np.diag([2.0, 1.0, 2.0])),
                 lengths=(1.0, 1.0, 1.0), res=7),
        interval_spec(norm=two_slope_norm(2.0, 2.0), res=40),
        # the coarsest mapped balls, where the interior nodes come closest to
        # the polytope of the boundary nodes
        *[DomainSpec(shape="ball", norm=norm, radius=0.5, resolution=res)
          for norm in (euclidean_norm(2), randers_norm(np.eye(2), [0.3, 0.1]),
                       euclidean_norm(3), randers_norm(np.eye(3), [0.2, 0.0, 0.1]))
          for res in (4, 5)],
    ], ids=["twoslope-interval", "box-euclid", "box-quadratic", "box-randers",
            "ball-euclid-r30", "ball-randers-r30", "box3d", "ball3d-randers",
            "box-unequal", "box3d-unequal", "randers-axis", "randers-diagonal",
            "box3d-quadratic", "twoslope-symmetric",
            *[f"ball{dim}d-{name}-r{res}" for dim in (2, 3)
              for name in ("euclid", "randers") for res in (4, 5)]])
    def test_sweeps_match_all_pairs(self, spec):
        # the boundary pairs give the all-pairs max of F(x_j - x_i), bit for
        # bit, and the lattice never reaches past the continuum shape; the
        # corners of boxes and intervals are nodes, so there it is exact
        d = build_domain(spec)
        diffs = d.nodes[None, :, :] - d.nodes[:, None, :]
        full = float(norm_eval(spec.norm, diffs).max())
        assert diameter(d, spec.norm) == full
        assert full <= analytic_diameter(spec)
        if spec.shape != "ball":
            assert full == analytic_diameter(spec)

    def test_one_norm_eval_per_boundary_node(self, monkeypatch):
        # memory guard without a timer: b calls of at most b rows each
        spec = DomainSpec(shape="ball", norm=randers_norm(np.eye(2), [0.3, 0.1]),
                          radius=0.5, resolution=30)
        d = build_domain(spec)
        rows = []

        def counting(norm, v):
            rows.append(np.shape(v)[0])
            return norm_eval(norm, v)

        monkeypatch.setattr(domain_mod, "norm_eval", counting)
        diameter(d, spec.norm)
        b = int(d.boundary.sum())
        assert len(rows) == b
        assert max(rows) <= b < d.n_nodes


class TestMeasureConvergence:
    def test_disk_total_measure(self):
        # the mapped disk's boundary nodes lie on the circle: the inscribed
        # polygon misses O(h^2) of the area
        spec = DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                          resolution=20)
        assert build_domain(spec).total_measure == pytest.approx(
            math.pi * 0.25, rel=2e-3)

    def test_gaussian_box_total_mass(self):
        kappa = 1.0
        exact_1d = math.sqrt(2 * math.pi / kappa) * erf(0.5 * math.sqrt(kappa / 2))
        exact = exact_1d**2
        totals = []
        for res in (8, 16):
            spec = box_spec(res=res, weight="gaussian", kappa=kappa)
            totals.append(build_domain(spec).total_measure)
        assert abs(totals[-1] - exact) <= 0.01 * exact
        assert abs(totals[-1] - exact) <= abs(totals[0] - exact)


class TestCertificates:
    def test_lebesgue_any_norm(self):
        cert = curvature_certificate(box_spec(norm=randers_norm(np.eye(2), [0.3, 0.0])))
        assert cert.K == 0.0
        assert cert.N == 2.0
        assert cert.provenance == "minkowski_lebesgue"

    def test_gaussian_euclidean(self):
        spec = box_spec(weight="gaussian", kappa=1.0)
        cert = curvature_certificate(spec)
        assert cert.K == 1.0
        assert math.isinf(cert.N)

    def test_gaussian_any_norm(self):
        # Ric_inf(v) = kappa |v|^2 >= K F(v)^2: K = kappa / sphere_max^2 for
        # kappa >= 0, and kappa dual.sphere_max^2 below
        for norm, kappa, K in [
            (quadratic_norm(np.diag([1.0, 4.0])), 1.0, 0.25),
            (randers_norm(np.eye(2), [0.3, 0.0]), 1.0, 1.0 / 1.69),
            (randers_norm(np.eye(2), [0.3, 0.0]), -1.0, -1.0 / 0.49),
            (two_slope_norm(2.0, 0.5), 1.0, 0.25),
            (two_slope_norm(2.0, 0.5), -1.0, -4.0),
        ]:
            cert = curvature_certificate(weighted_spec(norm, kappa))
            assert cert.K == pytest.approx(K, rel=1e-12, abs=0)
            assert math.isinf(cert.N)
            assert cert.provenance == "gaussian_weight"
        # both sphere maxima are exactly 1 for the Euclidean norm
        for dim in (1, 2, 3, 4):
            for kappa in (1.0, 0.3, 0.0, -0.7):
                cert = curvature_certificate(weighted_spec(euclidean_norm(dim), kappa))
                assert cert.K == kappa

    def test_gaussian_bound_sampled(self):
        # kappa |v|^2 >= K F(v)^2 on random vectors of random norms of every
        # family, with equality along the sphere maximizer for kappa >= 0;
        # a two-slope norm's is the side of its larger slope
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(6):
            dim = int(rng.integers(2, 4))
            M = rng.standard_normal((dim, dim))
            A = M @ M.T + 0.1 * np.eye(dim)
            b = rng.standard_normal(dim)
            b *= math.sqrt(rng.uniform(0.0, 0.9) / (b @ np.linalg.solve(A, b)))
            euclid = euclidean_norm(int(rng.integers(1, 5)))
            a_plus, a_minus = rng.uniform(0.2, 3.0, 2)
            cases += [(n, _far_direction(n))
                      for n in (euclid, quadratic_norm(A), randers_norm(A, b))]
            cases.append((two_slope_norm(a_plus, a_minus),
                          np.array([1.0 if a_plus >= a_minus else -1.0])))
        for norm, far in cases:
            v = rng.standard_normal((200, norm.dim))
            for kappa in (1.5, -1.5):
                K = curvature_certificate(weighted_spec(norm, kappa)).K
                F2 = norm_eval(norm, v) ** 2
                assert np.all(kappa * np.sum(v * v, axis=1) - K * F2
                              >= -1e-12 * np.abs(K * F2))
                if kappa >= 0:
                    assert K * float(norm_eval(norm, far)) ** 2 == pytest.approx(
                        kappa * float(far @ far), rel=1e-12, abs=0)

    def test_user_passthrough(self):
        cert = CurvatureCertificate(K=-1.0, N=4.0, provenance="user")
        assert cert.K == -1.0


class TestConfig:
    @pytest.mark.parametrize("shape_cfg, dim, message", [
        ({"shape": "interval"}, 1, "interval needs one positive length"),
        ({"shape": "box"}, 2, "box needs positive side lengths"),
        ({"shape": "ball"}, 2, "ball needs a positive radius"),
    ], ids=["interval", "box", "ball"])
    def test_missing_size_rejected(self, shape_cfg, dim, message):
        cfg = {"domain": shape_cfg, "norm": {"family": "euclidean", "dim": dim},
               "resolution": 8}
        with pytest.raises(ValueError, match=message):
            domain_spec_from_config(cfg)

    @pytest.mark.parametrize("block, key", [
        ("domain", "norm"), ("domain", "resolution"), ("weight", "kind"),
        ("weight", "kappa"),
    ], ids=["norm", "resolution", "kind", "kappa"])
    def test_missing_key_named(self, block, key):
        cfg = {"domain": {"shape": "box", "lengths": [1.0, 1.0]},
               "norm": {"family": "euclidean", "dim": 2},
               "weight": {"kind": "gaussian", "kappa": 0.5}, "resolution": 8}
        del (cfg if block == "domain" else cfg[block])[key]
        with pytest.raises(ValueError, match=f"{block} config has no '{key}'"):
            domain_spec_from_config(cfg)

    @pytest.mark.parametrize("shape_cfg, weight_cfg, message", [
        ({"shape": "box", "lengths": [math.nan, 1.0]}, None,
         r"lengths must be finite, got \(nan, 1.0\)"),
        ({"shape": "box", "lengths": [1.0, math.inf]}, None,
         r"lengths must be finite, got \(1.0, inf\)"),
        ({"shape": "ball", "radius": math.nan}, None, "radius must be finite, got nan"),
        ({"shape": "ball", "radius": math.inf}, None, "radius must be finite, got inf"),
        ({"shape": "box", "lengths": [1.0, 1.0]}, {"kind": "gaussian", "kappa": math.nan},
         "kappa must be finite, got nan"),
        ({"shape": "box", "lengths": [1.0, 1.0]}, {"kind": "gaussian", "kappa": math.inf},
         "kappa must be finite, got inf"),
    ], ids=["length-nan", "length-inf", "radius-nan", "radius-inf", "kappa-nan",
            "kappa-inf"])
    def test_non_finite_rejected(self, shape_cfg, weight_cfg, message):
        cfg = {"domain": shape_cfg, "norm": {"family": "euclidean", "dim": 2},
               "weight": weight_cfg or {"kind": "lebesgue"}, "resolution": 8}
        with pytest.raises(ValueError, match=message):
            domain_spec_from_config(cfg)

    @pytest.mark.parametrize("resolution", [math.nan, math.inf, 8.9, "8", True],
                             ids=["nan", "inf", "fraction", "string", "bool"])
    def test_resolution_not_whole_rejected(self, resolution):
        cfg = {"domain": {"shape": "box", "lengths": [1.0, 1.0]},
               "norm": {"family": "euclidean", "dim": 2}, "resolution": resolution}
        with pytest.raises(ValueError, match=r"config 'resolution' must be a whole "
                           rf"number, got {re.escape(repr(resolution))}$"):
            domain_spec_from_config(cfg)

    def test_integral_float_resolution_accepted(self):
        # JSON may write a whole number as 8.0
        cfg = {"domain": {"shape": "box", "lengths": [1.0, 1.0]},
               "norm": {"family": "euclidean", "dim": 2}, "resolution": 8.0}
        resolution = domain_spec_from_config(cfg).resolution
        assert resolution == 8 and type(resolution) is int

    def test_round_trip(self):
        # each spec with the config record a case file gives for it
        lebesgue = {"kind": "lebesgue"}
        for spec, shape_cfg, norm_cfg, weight_cfg in [
            (interval_spec(norm=two_slope_norm(2.0, 0.5)),
             {"shape": "interval", "length": 1.0},
             {"family": "two_slope_1d", "dim": 1,
              "params": {"a_plus": 2.0, "a_minus": 0.5}}, lebesgue),
            (box_spec(norm=quadratic_norm(np.diag([1.0, 4.0]))),
             {"shape": "box", "lengths": [1.0, 1.0]},
             {"family": "quadratic", "dim": 2,
              "params": {"A": [1.0, 0.0, 0.0, 4.0]}}, lebesgue),
            (DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                        weight="gaussian", kappa=0.5, resolution=8),
             {"shape": "ball", "radius": 0.5}, {"family": "euclidean", "dim": 2},
             {"kind": "gaussian", "kappa": 0.5}),
            # an explicit kappa 0 is kept (only a missing one is an error)
            (DomainSpec(shape="box", norm=euclidean_norm(2), lengths=(1.0, 1.0),
                        weight="gaussian", kappa=0.0, resolution=8),
             {"shape": "box", "lengths": [1.0, 1.0]}, {"family": "euclidean", "dim": 2},
             {"kind": "gaussian", "kappa": 0}),
        ]:
            cfg = {"domain": shape_cfg, "norm": norm_cfg,
                   "weight": weight_cfg, "resolution": spec.resolution}
            spec2 = domain_spec_from_config(cfg)
            assert spec2.shape == spec.shape
            assert spec2.lengths == spec.lengths
            assert spec2.radius == spec.radius
            assert spec2.weight == spec.weight
            assert spec2.kappa == spec.kappa
            assert spec2.norm.family == spec.norm.family
            v = np.random.default_rng(0).standard_normal((8, spec.dim))
            assert np.array_equal(norm_eval(spec2.norm, v), norm_eval(spec.norm, v))
