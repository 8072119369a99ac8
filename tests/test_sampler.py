import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmetric.core import delta, local_isometry_radius, lower_bound_certificate
from chainmetric.finite import dphi_exact
from chainmetric.rays import ConeParam
from chainmetric.sampler import (
    NodeSet,
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    convergence_run,
    euclid_context,
    make_net_solver,
)
from chainmetric.std_map import harmonic_radius, net_index

from conftest import zero_weight_context


@pytest.fixture
def std_ctx():
    return euclid_context("std_phi", dim=2)


def small_config(**kw):
    defaults = dict(dimension=2, max_sphere_index=3, angular_resolution=0.8,
                    radial_steps=2, seed=0)
    defaults.update(kw)
    return SamplerConfig(**defaults)


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(dimension=1)
        with pytest.raises(ValueError):
            SamplerConfig(max_sphere_index=0)
        with pytest.raises(ValueError):
            SamplerConfig(angular_resolution=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(radial_steps=-1)


class TestBuildSample:
    def test_interior_endpoints_single_sphere(self):
        cfg = small_config(max_sphere_index=1)
        nodes = build_sample(cfg, [np.array([0.1, 0.0]), np.array([0.0, 0.2])])
        tags = set(nodes.provenance)
        assert tags == {"endpoint", "sphere(1)"}

    def test_endpoint_already_on_sphere_projects_to_itself(self):
        a3 = harmonic_radius(3)
        cfg = small_config(max_sphere_index=3)
        e = np.array([a3, 0.0])
        nodes = build_sample(cfg, [e, np.array([0.1, 0.0])])
        match = np.linalg.norm(nodes.points - e, axis=1) < 1e-12
        assert match.sum() == 1  # projection coincides with the endpoint

    def test_projection_radii_for_between_point(self):
        cfg = small_config(max_sphere_index=2)
        e = np.array([2.0, 0.0])  # between a_3 ~ 1.8333 and a_4 ~ 2.0833
        nodes = build_sample(cfg, [e])
        norms = np.linalg.norm(nodes.points, axis=1)
        assert np.any(np.abs(norms - harmonic_radius(3)) < 1e-12)
        assert np.any(np.abs(norms - harmonic_radius(4)) < 1e-12)

    def test_ray_ladder_nodes_on_spheres(self):
        cfg = small_config(max_sphere_index=4)
        cone = ConeParam(delta=0.6, dim=2)
        nodes = build_sample(cfg, [np.array([0.5, 0.5])], "ray_psi", cone)
        ladder = [p for p, t in zip(nodes.points, nodes.provenance)
                  if t == "ray-ladder"]
        for p in ladder:
            n = np.linalg.norm(p)
            nearest = min(abs(n - harmonic_radius(m)) for m in range(1, 6))
            assert nearest < 1e-9

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_sample(small_config(), [np.array([1.0, 0.0, 0.0])])


class TestBuildGraph:
    def test_two_node_graph_single_edge(self, std_ctx):
        nodes = NodeSet(points=np.array([[0.1, 0.0], [0.3, 0.0]]),
                        provenance=["endpoint", "endpoint"])
        graph = build_graph(std_ctx, nodes)
        assert np.isfinite(graph.link[0, 1:]).sum() == 1
        value, witness = approx_dphi(graph, nodes.points[0], nodes.points[1])
        assert value == pytest.approx(
            delta(std_ctx, nodes.points[0], nodes.points[1]), abs=1e-15
        )
        assert len(witness.points) == 2

    def test_complete_edge_count(self, std_ctx, rng):
        pts = rng.normal(size=(9, 2))
        nodes = NodeSet(points=pts, provenance=["endpoint"] * 9)
        graph = build_graph(std_ctx, nodes)
        off_diagonal = ~np.eye(9, dtype=bool)
        assert np.isfinite(graph.link[off_diagonal]).sum() == 9 * 8


class TestApproxDphi:
    def test_matches_finite_oracle_on_three_point_line(self, three_point_line):
        # same geometry embedded in the plane with the zero weight
        ctx = zero_weight_context(dim=2)
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [-10.0, 0.0]])
        nodes = NodeSet(points=pts, provenance=["endpoint"] * 3)

        class _Ctx:
            weight_kind = "zero"
            cone = None

            @staticmethod
            def link_matrix(P):
                n = len(P)
                W = np.zeros((n, n))
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            W[i, j] = delta(ctx, P[i], P[j])
                return W

        graph = build_graph(_Ctx, nodes)
        value, _ = approx_dphi(graph, pts[1], pts[2])
        exact = dphi_exact(three_point_line.context(), three_point_line)
        assert value == pytest.approx(exact.values[1, 2], abs=1e-12)

    def test_radial_pair_upper_bound(self, std_ctx):
        a100 = harmonic_radius(100)
        x = np.array([1.0, 0.0])
        y = np.array([a100, 0.0])
        cfg = small_config(max_sphere_index=2)
        nodes = build_sample(cfg, [x, y])
        graph = build_graph(std_ctx, nodes)
        value, _ = approx_dphi(graph, x, y)
        cap = 0.5 + 1.0 / (1.0 + a100)  # radial identification detour
        assert value <= cap + 1e-12
        assert value >= lower_bound_certificate(std_ctx, x, y) - 1e-12

    def test_sandwich_on_random_pairs(self, rng):
        for weight, s in [(w, s) for w in ("std_phi", "ray_psi") for s in (2, 3)]:
            ctx = euclid_context(weight, dim=s)
            cfg = small_config(dimension=s)
            for _ in range(10):
                x, y = rng.normal(size=s, scale=3), rng.normal(size=s, scale=3)
                nodes = build_sample(cfg, [x, y], weight, ctx.cone)
                graph = build_graph(ctx, nodes)
                value, _ = approx_dphi(graph, x, y)
                assert value <= delta(ctx, x, y) + 1e-12
                assert value >= lower_bound_certificate(ctx, x, y) - 1e-12

    def test_monotone_under_node_superset(self, std_ctx, rng):
        cfg = small_config()
        x, y = np.array([2.0, 0.5]), np.array([-1.5, 1.0])
        nodes = build_sample(cfg, [x, y])
        graph = build_graph(std_ctx, nodes)
        v1, _ = approx_dphi(graph, x, y)
        extra = NodeSet(
            points=np.vstack([nodes.points, rng.normal(size=(10, 2), scale=2)]),
            provenance=nodes.provenance + ["radial"] * 10,
        )
        graph2 = build_graph(std_ctx, extra)
        v2, _ = approx_dphi(graph2, x, y)
        assert v2 <= v1 + 1e-12

    def test_local_isometry_ball(self, std_ctx, rng):
        cfg = small_config(max_sphere_index=1)
        for _ in range(20):
            x = rng.normal(size=2, scale=3)
            r = local_isometry_radius(std_ctx, x)
            y = x + rng.normal(size=2) * (0.3 * r / 2.0)
            z = x + rng.normal(size=2) * (0.3 * r / 2.0)
            nodes = build_sample(cfg, [y, z])
            graph = build_graph(std_ctx, nodes)
            value, _ = approx_dphi(graph, y, z)
            assert value == pytest.approx(np.linalg.norm(y - z), abs=1e-9)


class TestConvergenceRun:
    def test_identical_endpoints_all_zero(self, std_ctx):
        x = np.array([1.0, 1.0])
        rows = convergence_run(std_ctx, x, x, 2, small_config())
        assert all(r[2] == 0.0 for r in rows)

    def test_non_increasing(self, std_ctx):
        x = np.array([harmonic_radius(5), 0.0])
        y = np.array([0.0, harmonic_radius(5)])
        rows = convergence_run(std_ctx, x, y, 3, small_config())
        values = [r[2] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        counts = [r[1] for r in rows]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        weight_kind=st.sampled_from(["std_phi", "ray_psi"]),
        log_norms=st.tuples(st.floats(np.log(0.5), np.log(12.0)),
                            st.floats(np.log(0.5), np.log(12.0))),
        angles=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    )
    def test_refinement_never_raises_the_bound(self, weight_kind, log_norms, angles):
        # Each level keeps every earlier node, so the complete graph's
        # shortest path can only shorten.
        x, y = (np.exp(r) * np.array([np.cos(a), np.sin(a)])
                for r, a in zip(log_norms, angles))
        ctx = euclid_context(weight_kind, dim=2)
        rows = convergence_run(ctx, x, y, 3, SamplerConfig(dimension=2))
        counts = [r[1] for r in rows]
        values = [r[2] for r in rows]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_levels(self, std_ctx):
        with pytest.raises(ValueError):
            convergence_run(std_ctx, np.zeros(2), np.ones(2), 0)


class TestCauchyDecay:
    def test_ladder_pairs_bounded_by_detour(self, std_ctx):
        u = np.array([np.cos(0.7), np.sin(0.7)])
        pts = np.array([harmonic_radius(i) * u for i in range(1, 16)])
        nodes = NodeSet(points=pts, provenance=["radial"] * len(pts))
        graph = build_graph(std_ctx, nodes)
        for i in range(0, 15, 3):
            for j in range(i + 1, 15, 4):
                value, _ = approx_dphi(graph, pts[i], pts[j])
                bound = 1.0 / (1.0 + harmonic_radius(i + 1)) + 1.0 / (
                    1.0 + harmonic_radius(j + 1)
                )
                assert value <= bound + 1e-12


class TestNetSolver:
    def test_far_point_covered(self):
        eps = 0.99
        k = net_index(eps)
        from chainmetric.std_map import epsilon_net

        net = epsilon_net(eps, 2)
        solver = make_net_solver(k)
        x = harmonic_radius(150) * np.array([np.cos(2.0), np.sin(2.0)])
        bounds = solver(x[None, :], net.centers)
        assert bounds.shape == (1,)
        assert bounds[0] < eps
