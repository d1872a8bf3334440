"""Discrete eigensolver: gradients, quotient, descent vs dense oracle."""

import itertools
import math

import numpy as np
import pytest

from fingap.domain import DomainSpec, build_domain, domain_spec_from_config
import fingap.eigensolver as eigensolver
from fingap.eigensolver import (
    _energy_and_grad,
    dense_oracle,
    discrete_gradient,
    minimize_rayleigh,
    rayleigh_quotient,
)
from fingap.harness import golden_cases
from fingap.model1d import ModelProblem, lambda1_interval
from fingap.norms import (
    dual_norm_eval,
    euclidean_norm,
    quadratic_norm,
    randers_norm,
    two_slope_norm,
)

PI2 = math.pi**2
DISK_J11 = 1.8411837813  # first zero of J_1', the Neumann disk eigenvalue
BALL3D_J11 = 2.0815759778  # first zero of j_1', the Neumann 3-D ball eigenvalue


def interval_domain(res, L=1.0, norm=None, weight="lebesgue", kappa=0.0):
    spec = DomainSpec(shape="interval", norm=norm or euclidean_norm(1),
                      lengths=(L,), resolution=res, weight=weight, kappa=kappa)
    return build_domain(spec), spec


def box_domain(res, norm=None):
    spec = DomainSpec(shape="box", norm=norm or euclidean_norm(2),
                      lengths=(1.0, 1.0), resolution=res)
    return build_domain(spec), spec


def per_element_fit(d, u):
    """Explicit loop over the reflected Kuhn simplices, found by lattice
    coordinates: per element its gradient (solved from the vertex values),
    measure and vertices, plus the lumped node masses."""
    x, key = d.nodes, d.idx
    where = {tuple(k): i for i, k in enumerate(key)}
    w = d.spec.weight_at(x)
    grads, mus, elems = [], [], []
    vol_lumped = np.zeros(d.n_nodes)
    for i in range(d.n_nodes):
        for perm in itertools.permutations(range(d.dim)):
            for signs in itertools.product((1, -1), repeat=d.dim - 1):
                s, v, verts = (1,) + signs, key[i].copy(), [i]
                for k in perm:
                    v[k] += s[k]
                    verts.append(where.get(tuple(v), -1))
                if min(verts) < 0:
                    continue
                E = x[verts[1:]] - x[verts[0]]
                vol = abs(np.linalg.det(E)) / math.factorial(d.dim) / 2 ** (d.dim - 1)
                grads.append(np.linalg.solve(E, u[verts[1:]] - u[verts[0]]))
                mus.append(vol * np.mean(w[verts]))
                elems.append(verts)
                vol_lumped[verts] += vol / (d.dim + 1)
    return np.array(grads), np.array(mus), elems, w * vol_lumped


class TestDiscreteGradient:
    def test_affine_exact(self):
        d, _ = box_domain(8)
        u = 2.0 * d.nodes[:, 0] + 3.0 * d.nodes[:, 1] - 0.7
        Du = discrete_gradient(d, u)
        assert np.max(np.abs(Du - np.array([2.0, 3.0]))) <= 1e-12

    def test_constant_zero(self):
        d, _ = box_domain(6)
        Du = discrete_gradient(d, np.ones(d.n_nodes))
        assert np.max(np.abs(Du)) <= 1e-13

    def test_cosine_second_order(self):
        d, _ = interval_domain(100)
        x = d.nodes[:, 0]
        u = np.cos(math.pi * (x + 0.5))
        Du = discrete_gradient(d, u)[:, 0]
        exact = -math.pi * np.sin(math.pi * (x + 0.5))
        # the mean of the two element slopes at an interior node is the
        # centered difference, O(h^2); the end nodes see one element
        inner = ~d.boundary
        err = np.max(np.abs(Du[inner] - exact[inner]))
        assert err <= 5.0 * math.pi**3 * d.h**2

    def test_adjoint_is_transpose(self):
        # the transpose of the assembled D (used by the descent) is the
        # adjoint of the per-element fit
        d, _ = box_domain(7)
        D = d.mesh.D
        rng = np.random.default_rng(0)
        u = rng.standard_normal(d.n_nodes)
        grads = per_element_fit(d, u)[0]
        z = rng.standard_normal(grads.shape)
        lhs = float(np.sum(z * grads))
        rhs = float((D.T @ z.ravel()) @ u)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_node_mean_weights(self):
        # the nodal gradient is the mu-weighted mean of the element
        # gradients around the node; a Gaussian-weighted ball makes the
        # weights unequal (weight and mapped nodes)
        d = build_domain(DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                                    weight="gaussian", kappa=1.0, resolution=6))
        u = np.sin(3.0 * d.nodes[:, 0]) * d.nodes[:, 1]
        grads, mus, elems, _ = per_element_fit(d, u)
        want = np.zeros((d.n_nodes, 2))
        total = np.zeros(d.n_nodes)
        for g, mu, verts in zip(grads, mus, elems):
            want[verts] += mu * g
            total[verts] += mu
        want /= total[:, None]
        assert np.allclose(discrete_gradient(d, u), want, rtol=1e-12, atol=1e-14)

    def test_operator_assembled_once(self):
        d, _ = box_domain(6)
        assert d.mesh is d.mesh


def coo_reference(d, u):
    """D, mu, m, the element vertices and the nodal gradient of u written the
    long way: each element's inverse and determinant from LAPACK, every
    operator assembled from COO triplets, and the mu-weighted element mean
    as a sparse matrix."""
    from scipy.sparse import coo_matrix, diags

    x = d.nodes
    verts = np.array(per_element_fit(d, np.zeros(d.n_nodes))[2])
    n, dim, (n_el, k) = d.n_nodes, d.dim, verts.shape
    E = x[verts[:, 1:]] - x[verts[:, :1]]
    Einv = np.linalg.inv(E)
    vol = np.abs(np.linalg.det(E)) / (math.factorial(dim) * 2 ** (dim - 1))
    coef = np.concatenate([-Einv.sum(axis=2, keepdims=True), Einv], axis=2)
    D = coo_matrix((coef.ravel(), (np.repeat(np.arange(n_el * dim), k),
                                   np.repeat(verts, dim, axis=0).ravel())),
                   shape=(n_el * dim, n))
    w = d.spec.weight_at(x)
    mu = vol * w[verts].mean(axis=1)
    m = w * np.bincount(verts.ravel(), np.repeat(vol / k, k), n)
    incidence = coo_matrix((np.repeat(mu, k), (verts.ravel(),
                            np.repeat(np.arange(n_el), k))), shape=(n, n_el)).tocsr()
    node_mean = diags(1.0 / np.asarray(incidence.sum(axis=1)).ravel()) @ incidence
    return {"D": D.toarray(), "mu": mu, "m": m, "verts": verts,
            "gradient": node_mean @ (D @ u).reshape(-1, dim)}


class TestMeshAssembly:
    @pytest.mark.parametrize("spec", [
        DomainSpec(shape="box", norm=euclidean_norm(2), lengths=(1.0, 0.6),
                   resolution=7),
        DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                   weight="gaussian", kappa=1.0, resolution=6),
        DomainSpec(shape="box", norm=euclidean_norm(3), lengths=(1.0, 1.0, 1.0),
                   resolution=4),
    ], ids=["box", "ball-gauss", "box3d"])
    def test_matches_coo_reference(self, spec):
        # the closed-form geometry and the in-place CSR give the operators
        # of the LAPACK and COO assembly up to rounding, the elements in the
        # same order, and the nodal gradient the mu-weighted mean of theirs
        d = build_domain(spec)
        op = d.mesh
        u = np.random.default_rng(1).standard_normal(d.n_nodes)
        got = {"D": op.D.toarray(), "mu": op.mu, "m": op.m, "verts": op.verts,
               "gradient": discrete_gradient(d, u)}
        for name, want in coo_reference(d, u).items():
            assert got[name].shape == want.shape, name
            err = np.max(np.abs(got[name] - want))
            assert err <= 1e-13 * np.max(np.abs(want)), name


class TestRayleighQuotient:
    def test_cosine_value(self):
        d, spec = interval_domain(200)
        x = d.nodes[:, 0]
        u = np.cos(math.pi * (x + 0.5))
        assert rayleigh_quotient(d, spec.norm, u) == pytest.approx(PI2, rel=1e-3)

    def test_scale_invariance_exact(self):
        d, spec = interval_domain(50)
        u = d.nodes[:, 0] ** 3
        assert rayleigh_quotient(d, spec.norm, 2.0 * u) == rayleigh_quotient(
            d, spec.norm, u
        )

    def test_linear_function_value(self):
        d, spec = interval_domain(200)
        u = d.nodes[:, 0]
        assert rayleigh_quotient(d, spec.norm, u) == pytest.approx(12.0, rel=1e-3)

    def test_constant_rejected(self):
        d, spec = interval_domain(10)
        with pytest.raises(ValueError):
            rayleigh_quotient(d, spec.norm, np.full(d.n_nodes, 3.0))


def energy_cases():
    """Interval, 2-D box, ball and 3-D box, each with every norm family, and
    a Gaussian-weighted box."""
    out = [DomainSpec(shape="box", norm=euclidean_norm(2), lengths=(1.0, 1.2),
                      weight="gaussian", kappa=1.0, resolution=7)]
    for norm in (euclidean_norm(1), quadratic_norm(np.array([[2.0]])),
                 randers_norm(np.eye(1), [0.3]), two_slope_norm(2.0, 0.5)):
        out.append(DomainSpec(shape="interval", norm=norm, lengths=(1.0,),
                              resolution=20))
    for dim in (2, 3):
        A = np.eye(dim) + 0.3 * np.diag(np.ones(dim - 1), 1)
        A = A + A.T
        for norm in (euclidean_norm(dim), quadratic_norm(A),
                     randers_norm(np.eye(dim), [0.3] + [0.1] * (dim - 1))):
            if dim == 2:
                out.append(DomainSpec(shape="box", norm=norm, lengths=(1.0, 1.2),
                                      resolution=7))
                out.append(DomainSpec(shape="ball", norm=norm, radius=0.5,
                                      resolution=8))
            else:
                out.append(DomainSpec(shape="box", norm=norm,
                                      lengths=(1.0, 1.0, 1.0), resolution=4))
    return out


class TestEnergyAssembly:
    def test_matches_per_slot_loop(self):
        # E(u) = sum_T mu_T F*(grad u_T)^2 and the lumped masses, written out
        # element by element, against the assembled D, mu and m
        rng = np.random.default_rng(11)
        for spec in energy_cases():
            d = build_domain(spec)
            op = d.mesh
            for u in (rng.standard_normal(d.n_nodes),
                      np.sin(3.0 * d.nodes @ np.arange(1.0, d.dim + 1))):
                grads, mus, _, m = per_element_fit(d, u)
                assert np.allclose(op.m, m, rtol=1e-12, atol=0), spec
                raw = float(sum(mu * float(dual_norm_eval(spec.norm, g)) ** 2
                                for mu, g in zip(mus, grads)))
                var = float(m @ (u - float(m @ u) / float(m.sum())) ** 2)
                assert rayleigh_quotient(d, spec.norm, u) * var == pytest.approx(
                    raw, rel=1e-12, abs=0), spec

    def test_one_norm_kernel_per_evaluation(self, monkeypatch):
        # the energy comes from the gradient's kernel, F*(Du)^2 = Du.l^{-1}(Du)
        calls = []
        inner = eigensolver.legendre_inverse

        def counted(norm, xi):
            calls.append(1)
            return inner(norm, xi)

        def forbidden(norm, xi):
            raise AssertionError("dual_norm_eval called")

        monkeypatch.setattr(eigensolver, "legendre_inverse", counted)
        monkeypatch.setattr(eigensolver, "dual_norm_eval", forbidden)
        rng = np.random.default_rng(5)
        for spec in energy_cases():
            op = build_domain(spec).mesh
            u = rng.standard_normal(op.m.size)
            calls.clear()
            num, _ = _energy_and_grad(op, spec.norm, u)
            assert len(calls) == 1, spec
            ref = float(op.mu @ dual_norm_eval(spec.norm, op.gradient(u)) ** 2)
            assert num == pytest.approx(ref, rel=1e-13, abs=0), spec

    # every golden lattice of a quadratic norm (Euclidean or quadratic, no
    # drift b), at each of its resolutions
    QUADRATIC_LATTICES = [dict(c, resolution=r) for c in golden_cases()
                          if c["norm"]["family"] in ("euclidean", "quadratic")
                          for r in c["resolutions"]]

    @pytest.mark.parametrize("cfg", QUADRATIC_LATTICES,
                             ids=[f"{c['id']}-r{c['resolution']}" for c in QUADRATIC_LATTICES])
    def test_quadratic_energy_is_the_stiffness_form(self, cfg):
        # F*(xi)^2 = xi.B xi, so the element energy and gradient are u.S u
        # and 2 S u of the assembled S the preconditioner factors: on random
        # u, within 1.1e-15 (energy) and 2.7e-15 (gradient, 3-D) relative
        spec = domain_spec_from_config(cfg)
        op = build_domain(spec).mesh
        S = eigensolver._stiffness(op, spec.norm)
        rng = np.random.default_rng(3)
        for u in rng.standard_normal((2, op.m.size)):
            E, g = _energy_and_grad(op, spec.norm, u)
            Su = S @ u
            assert E == pytest.approx(float(u @ Su), rel=1e-13, abs=0)
            assert np.abs(g - 2.0 * Su).max() <= 1e-13 * np.abs(2.0 * Su).max()

    def test_mass_is_node_measure(self):
        # the reflection average makes the lumped P1 volumes the lattice's
        # cell measures, on faces and corners too; one Kuhn orientation
        # gives a 2-D corner 1/6 or 1/3 of a cell instead of 1/4.  The 4-D
        # box runs the LAPACK branch of the element geometry
        specs = [s for s in energy_cases() if s.shape != "ball"]
        specs.append(DomainSpec(shape="box", norm=euclidean_norm(4),
                                lengths=(1.0,) * 4, resolution=4))
        for spec in specs:
            d = build_domain(spec)
            ends = (d.idx == 0) | (d.idx == d.idx.max(axis=0))
            cell = (np.prod(d.spacing) * 0.5 ** ends.sum(axis=1)
                    * spec.weight_at(d.nodes))
            assert np.allclose(d.mesh.m, cell, rtol=1e-13, atol=0), spec
        assert d.n_nodes == 625


class TestGradientCorrectness:
    def test_directional_derivative_20_pairs(self):
        rng = np.random.default_rng(7)
        specs = [s for s in energy_cases() if s.shape != "ball"]
        checked = 0
        for spec in specs:
            d = build_domain(spec)
            op = d.mesh
            for _ in range(2):
                u = rng.standard_normal(d.n_nodes)
                w = rng.standard_normal(d.n_nodes)
                _, g = _energy_and_grad(op, spec.norm, u)
                eps = 1e-6
                np_, _ = _energy_and_grad(op, spec.norm, u + eps * w)
                nm_, _ = _energy_and_grad(op, spec.norm, u - eps * w)
                fd = (np_ - nm_) / (2 * eps)
                assert float(g @ w) == pytest.approx(fd, rel=1e-6)
                checked += 1
        assert checked >= 20


class TestMinimize:
    def test_interval_pi2(self):
        d, spec = interval_domain(200)
        res = minimize_rayleigh(d, spec.norm, seed=0)
        assert res.converged
        assert res.lam == pytest.approx(PI2, rel=0.005)
        orc = dense_oracle(d, spec.norm)
        assert res.lam == pytest.approx(orc[1], rel=1e-6)

    def test_normalization_invariants(self):
        d, spec = interval_domain(60)
        res = minimize_rayleigh(d, spec.norm, seed=0)
        m = d.mesh.m
        assert abs(float(m @ res.u)) <= 1e-12 * float(m @ np.abs(res.u))
        assert float(m @ res.u**2) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_monotone_descent(self):
        d, spec = interval_domain(40)
        res = minimize_rayleigh(d, spec.norm, seed=1)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_determinism(self):
        d, spec = interval_domain(40)
        r1 = minimize_rayleigh(d, spec.norm, seed=3)
        r2 = minimize_rayleigh(d, spec.norm, seed=3)
        assert r1.lam == r2.lam
        assert np.array_equal(r1.u, r2.u)

    def test_box_oracle_agreement_coarse(self):
        d, spec = box_domain(20)
        res = minimize_rayleigh(d, spec.norm, seed=0)
        orc = dense_oracle(d, spec.norm)
        assert res.lam == pytest.approx(orc[1], rel=1e-6)
        assert res.lam == pytest.approx(PI2, rel=0.03)

    def test_quadratic_box_coarse(self):
        norm = quadratic_norm(np.diag([1.0, 4.0]))
        d, spec = box_domain(20, norm=norm)
        res = minimize_rayleigh(d, norm, seed=0)
        orc = dense_oracle(d, norm)
        assert res.lam == pytest.approx(orc[1], rel=1e-6)
        assert res.lam == pytest.approx(PI2 / 4.0, rel=0.03)

    def test_randers_descent_converges(self):
        norm = randers_norm(np.eye(2), [0.3, 0.0])
        d, spec = box_domain(15, norm=norm)
        res = minimize_rayleigh(d, norm, seed=0)
        assert res.converged
        assert res.residual <= 1e-4
        # orientation matters: the cheap direction sets the value
        assert res.lam < PI2

    def test_box3d_converges_on_window_for_all_seeds(self):
        # the 3-D box at r=4: a failed line search must not end the descent
        # while the 10-iteration window still shows progress
        spec = DomainSpec(shape="box", norm=euclidean_norm(3),
                          lengths=(1.0, 1.0, 1.0), resolution=4)
        d = build_domain(spec)
        for seed in range(1, 11):
            res = minimize_rayleigh(d, spec.norm, seed=seed)
            hist = res.history
            assert res.converged, seed
            assert hist[-11] - hist[-1] < 1e-12 * hist[-1], seed

    def test_two_slope_orientation(self):
        norm = two_slope_norm(2.0, 0.5)
        d, _ = interval_domain(100, norm=norm)
        res = minimize_rayleigh(d, norm, seed=0)
        assert res.lam == pytest.approx(PI2 / 4.0, rel=0.01)

    def test_mesh_convergence_factor(self):
        vals = []
        for r in (50, 100, 200):
            d, spec = interval_domain(r)
            vals.append(minimize_rayleigh(d, spec.norm, seed=0).lam)
        assert (vals[0] - vals[1]) / (vals[1] - vals[2]) >= 3.0

    @pytest.mark.parametrize("res", [67, 69])
    def test_non_integer_cell_count(self, res):
        # L r = 100.5 and 103.5 at r = 67 and 69: the node spacing is
        # L / round(L r), not 1/r
        d, spec = interval_domain(res, L=1.5)
        lam = minimize_rayleigh(d, spec.norm, seed=0).lam
        assert lam == pytest.approx(PI2 / 2.25, rel=1e-3)

    @pytest.mark.parametrize("case_id, res", [
        ("box-quadratic", 60), ("box-gauss-one", 16)])
    def test_golden_lattice_oracle_agreement(self, case_id, res):
        case = {c["id"]: c for c in golden_cases()}[case_id]
        spec = domain_spec_from_config(dict(case, resolution=res))
        d = build_domain(spec)
        lam = minimize_rayleigh(d, spec.norm, seed=0).lam
        assert lam == pytest.approx(dense_oracle(d, spec.norm)[1], rel=1e-8)

    def test_weighted_gaussian_cross_check(self):
        d, spec = interval_domain(25, L=4.0, weight="gaussian", kappa=1.0)
        res = minimize_rayleigh(d, spec.norm, seed=0)
        model = lambda1_interval(ModelProblem(1.0, math.inf, "linear"), -2.0, 2.0)
        assert res.lam == pytest.approx(model, rel=0.01)


class TestAnalyticValues:
    def test_box3d_within_one_percent(self):
        spec = DomainSpec(shape="box", norm=euclidean_norm(3),
                          lengths=(1.0, 1.0, 1.0), resolution=12)
        lam = minimize_rayleigh(build_domain(spec), spec.norm, seed=0).lam
        assert lam == pytest.approx(PI2, rel=0.01)

    def test_disk_ladder(self):
        # the mapped ball's boundary nodes lie on the circle, so the disk
        # converges at second order: small at r=40 and quartering per halving
        exact = (DISK_J11 / 0.5) ** 2
        errs = []
        for r in (20, 40, 80):
            spec = DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                              resolution=r)
            lam = minimize_rayleigh(build_domain(spec), spec.norm, seed=0).lam
            errs.append((lam - exact) / exact)
        assert abs(errs[1]) <= 5e-4
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(abs(coarse / fine)) >= 1.8

    def test_ball3d_within_half_percent(self):
        spec = DomainSpec(shape="ball", norm=euclidean_norm(3), radius=0.5,
                          resolution=12)
        lam = minimize_rayleigh(build_domain(spec), spec.norm, seed=0).lam
        assert lam == pytest.approx((BALL3D_J11 / 0.5) ** 2, rel=5e-3)


def work_bound_lattices():
    """Finest lattice of every golden case, and the benchmark's larger ones:
    the 2-D ball ladder, the 3-D box and the Randers box."""
    out = [(c["id"], dict(c, resolution=max(c["resolutions"])))
           for c in golden_cases()]
    ball = {"domain": {"shape": "ball", "radius": 0.5},
            "norm": {"family": "euclidean", "dim": 2}}
    box3d = {"domain": {"shape": "box", "lengths": [1.0, 1.0, 1.0]},
             "norm": {"family": "euclidean", "dim": 3}}
    randers = {"domain": {"shape": "box", "lengths": [1.0, 1.0]},
               "norm": {"family": "randers", "dim": 2,
                        "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.3, 0.0]}}}
    for name, cfg, ladder in (("ball", ball, (30, 45, 60)), ("box3d", box3d, (4, 8)),
                              ("randers-box", randers, (20, 40))):
        out += [(f"{name}-r{r}", dict(cfg, resolution=r)) for r in ladder]
    return out


WORK_BOUND_LATTICES = work_bound_lattices()


@pytest.mark.parametrize("cfg", [c for _, c in WORK_BOUND_LATTICES],
                         ids=[i for i, _ in WORK_BOUND_LATTICES])
def test_preconditioned_work_bound(cfg, monkeypatch):
    # deterministic work: each of these takes 15-29 iterations, so 60 leaves
    # room for rounding but not for a lost preconditioner; a line search
    # that cuts into rounding noise shows as more than two energy
    # evaluations (one legendre_inverse call each) per iteration
    calls = []
    inner = eigensolver.legendre_inverse

    def counted(norm, xi):
        calls.append(1)
        return inner(norm, xi)

    monkeypatch.setattr(eigensolver, "legendre_inverse", counted)
    spec = domain_spec_from_config(cfg)
    res = minimize_rayleigh(build_domain(spec), spec.norm, seed=1)
    assert res.converged
    assert res.iterations <= 60
    assert len(calls) <= 2 * res.iterations + 2
    assert res.evaluations == len(calls)


def reference_descent(domain, norm, seed):
    """minimize_rayleigh written out with every iteration computed in full,
    repeats included: (lam, u, residual, history, LU solves)."""
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    op = domain.mesh
    m, Mtot = op.m, float(op.m.sum())
    lu = splu(eigensolver._stiffness(op, norm) + diags(1e-3 * m, format="csc"),
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
    history, step, solves = [R], 1.0, 0
    for _ in range(eigensolver._MAX_ITER):
        r = 0.5 * g - R * m * u
        d = -project(lu.solve(r))
        solves += 1
        d -= float((m * u) @ d) * u
        slope = -2.0 * float(r @ d)
        if slope <= 1e-30 * max(1.0, R * R):
            break
        a, step = step, 1.0  # kept only if a step is accepted
        while a * slope > 1e-14 * R:
            u_try = normalize(project(u + a * d))
            R_try, g_try = _energy_and_grad(op, norm, u_try)
            curv = R_try - R + slope * a
            t = 0.5 * slope * a / curv if curv > 0.0 else math.inf
            if R_try <= R - 1e-4 * a * slope:
                u, R, g, step = u_try, R_try, g_try, a * min(t, 2.0)
                break
            a *= min(max(t, 0.1), 0.5)
        history.append(R)
        if len(history) > 10 and history[-11] - R < 1e-12 * max(R, 1e-300):
            break
    defect = np.abs(0.5 * g - R * m * u)
    residual = float(defect.max()) / max(R * float(np.max(m * np.abs(u))), 1e-300)
    return R, u, residual, history, solves


@pytest.mark.parametrize("cfg", [
    {"domain": {"shape": "interval", "length": 1.0}, "resolution": 200,
     "norm": {"family": "two_slope_1d", "dim": 1,
              "params": {"a_plus": 2.0, "a_minus": 0.5}}},
    {"domain": {"shape": "box", "lengths": [1.0, 1.0]}, "resolution": 40,
     "norm": {"family": "randers", "dim": 2,
              "params": {"A": [1.0, 0.0, 0.0, 1.0], "b": [0.3, 0.0]}}},
    {"domain": {"shape": "box", "lengths": [1.0, 1.0, 1.0]}, "resolution": 8,
     "norm": {"family": "euclidean", "dim": 3}},
    {"domain": {"shape": "ball", "radius": 0.5}, "resolution": 60,
     "norm": {"family": "euclidean", "dim": 2}},
], ids=["two-slope-interval", "randers-box", "box3d", "ball"])
def test_skipped_repeats_match_reference(cfg, monkeypatch):
    # iterations that only repeat a stuck one are skipped, LU solve and all,
    # with the result bit for bit that of the loop that computes each of them
    import scipy.sparse.linalg

    spec = domain_spec_from_config(cfg)
    dom = build_domain(spec)
    lam, u, residual, history, ref_solves = reference_descent(dom, spec.norm, seed=1)
    solves = []
    splu = scipy.sparse.linalg.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, r):
            solves.append(1)
            return self.lu.solve(r)

    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: Counted(splu(*args, **kwargs)))
    res = minimize_rayleigh(dom, spec.norm, seed=1)
    assert res.converged
    assert res.lam == lam
    assert np.array_equal(res.u, u)
    assert res.history == history
    assert res.iterations == len(history) - 1
    assert res.residual == residual
    assert len(solves) < res.iterations < ref_solves + 1


class TestDenseOracle:
    def test_interval_spectrum(self):
        d, spec = interval_domain(100)
        vals = dense_oracle(d, spec.norm)
        assert vals[0] <= 1e-10
        assert vals[1] == pytest.approx(PI2, rel=1e-3)
        assert vals[2] == pytest.approx(4 * PI2, rel=5e-3)

    def test_box_degenerate_pair(self):
        d, spec = box_domain(16)
        vals = dense_oracle(d, spec.norm)
        assert vals[0] <= 1e-10
        assert vals[1] == pytest.approx(PI2, rel=0.04)
        assert vals[2] == pytest.approx(vals[1], rel=1e-6)
        # the reflection average keeps the mesh's symmetric pairs degenerate;
        # a single Kuhn orientation splits them by up to 7e-3
        gauss = {c["id"]: c for c in golden_cases()}["box-gauss-half"]
        for spec in (DomainSpec(shape="ball", norm=euclidean_norm(2), radius=0.5,
                                resolution=40),
                     DomainSpec(shape="box", norm=euclidean_norm(3),
                                lengths=(1.0, 1.0, 1.0), resolution=8),
                     domain_spec_from_config(dict(gauss, resolution=12))):
            vals = dense_oracle(build_domain(spec), spec.norm)
            assert vals[2] == pytest.approx(vals[1], rel=1e-10), spec

    def test_rejects_nonlinear_norm(self):
        norm = randers_norm(np.eye(2), [0.3, 0.0])
        d, _ = box_domain(6, norm=norm)
        with pytest.raises(ValueError):
            dense_oracle(d, norm)

    def test_rejects_large_grids(self):
        spec = DomainSpec(shape="interval", norm=euclidean_norm(1),
                          lengths=(1.0,), resolution=5100)
        d = build_domain(spec)
        with pytest.raises(ValueError):
            dense_oracle(d, spec.norm)
