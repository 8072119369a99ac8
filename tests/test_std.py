import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmetric import std_map
from chainmetric.core import Chain, chain_cost
from chainmetric.sampler import _CenterGrid, euclid_context, make_net_solver
from chainmetric.std_map import (
    BoundaryRepStd,
    boundary_map_h_std,
    boundary_map_k_std,
    epsilon_net,
    h_pq_std,
    harmonic_radius,
    net_index,
    net_plan,
    node_columns,
    phi_std,
    phi_std_matrix,
    sphere_bracket,
    sphere_index,
    sphere_net_radius,
)


class TestHarmonicRadius:
    def test_first_values(self):
        assert harmonic_radius(1) == 1.0
        assert harmonic_radius(2) == 1.5
        assert harmonic_radius(4) == pytest.approx(25.0 / 12.0, abs=1e-15)

    def test_strictly_increasing(self):
        values = [harmonic_radius(m) for m in range(1, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_increments(self):
        for m in (1, 5, 50, 500):
            assert harmonic_radius(m + 1) - harmonic_radius(m) == pytest.approx(
                1.0 / (m + 1), abs=1e-12
            )

    def test_radii_do_not_depend_on_growth_order(self, monkeypatch):
        top = 70_000
        expected, a = [], 0.0
        for m in range(1, top + 1):
            a += 1.0 / m
            expected.append(a)
        for steps in ([top], [2, 5, 1024, 3000, 40_000, top]):
            monkeypatch.setattr(std_map, "_RADII", np.array([1.0]))
            for m in steps:
                std_map._radii_upto(m)
            assert std_map._radii_upto(top).tolist() == expected

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            harmonic_radius(0)


class TestSphereClassification:
    def test_exact_radii_classified(self):
        for m in (1, 2, 7, 100):
            assert sphere_index(harmonic_radius(m)) == m

    def test_off_sphere_is_none(self):
        assert sphere_index(0.5) == 0
        assert sphere_index(1.2) == 0  # between a_1 = 1 and a_2 = 1.5

    def test_bracket(self):
        assert sphere_bracket(2.0) == 3  # a_3 ~ 1.833 <= 2 < a_4 ~ 2.083
        assert sphere_bracket(1.0) == 1
        with pytest.raises(ValueError):
            sphere_bracket(0.5)

    def test_bracket_of_an_array(self):
        norms = np.array([2.0, 1.0, harmonic_radius(7), harmonic_radius(3000) + 1e-5])
        brackets = sphere_bracket(norms)
        assert brackets.tolist() == [sphere_bracket(float(n)) for n in norms] == [3, 1, 7, 3000]
        assert sphere_bracket(np.empty(0)).shape == (0,)
        with pytest.raises(ValueError, match="below the first sphere"):
            sphere_bracket(np.array([2.0, 0.5]))
        with pytest.raises(ValueError, match="beyond sphere index cap"):
            sphere_bracket(np.array([2.0, 20.0]))


class TestRadialIdentification:
    def test_basic_scaling(self):
        out = h_pq_std(np.array([1.0, 0.0]), 1, 2)
        assert np.allclose(out, [1.5, 0.0])

    def test_identity(self):
        x = np.array([0.0, 1.5])
        assert np.allclose(h_pq_std(x, 2, 2), x)

    def test_derived_scaling(self):
        out = h_pq_std(np.array([0.0, 1.5]), 2, 4)
        assert np.allclose(out, [0.0, 25.0 / 12.0], atol=1e-12)

    def test_inverse_pair(self, rng):
        for _ in range(50):
            p, q = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            x = harmonic_radius(p) * u
            back = h_pq_std(h_pq_std(x, p, q), q, p)
            assert np.linalg.norm(back - x) < 1e-12

    def test_rejects_off_sphere_point(self):
        with pytest.raises(ValueError):
            h_pq_std(np.array([1.2, 0.0]), 1, 2)


class TestStdWeight:
    def test_identified_pair_is_free(self):
        assert phi_std(np.array([1.0, 0.0]), np.array([1.5, 0.0])) == 0.0

    def test_same_sphere_rescaled_chord(self):
        x, y = np.array([1.5, 0.0]), np.array([0.0, 1.5])
        assert phi_std(x, y) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_generic_pair_plain_distance(self):
        x, y = np.array([0.3, 0.4]), np.array([2.0, 7.0])
        assert phi_std(x, y) == pytest.approx(np.sqrt(46.45), abs=1e-12)

    def test_symmetric_nonnegative(self, rng):
        for _ in range(100):
            x, y = rng.normal(size=2, scale=3), rng.normal(size=2, scale=3)
            v = phi_std(x, y)
            assert v >= 0.0
            assert v == phi_std(y, x)

    def test_matrix_agrees_with_scalar(self, rng):
        pts = [rng.normal(size=2, scale=2) for _ in range(8)]
        pts += [harmonic_radius(m) * np.array([np.cos(t), np.sin(t)])
                for m, t in ((1, 0.0), (1, 1.0), (3, 0.0), (3, 2.0), (5, 0.0))]
        P = np.array(pts)
        cols = node_columns(P)
        W = phi_std_matrix(cols, cols, *cols.distances(cols))
        for i in range(len(P)):
            for j in range(len(P)):
                assert W[i, j] == pytest.approx(phi_std(P[i], P[j]), abs=1e-12)


class TestBoundaryMaps:
    def test_interior_blowup(self):
        rep = boundary_map_h_std(np.array([0.5, 0.0]))
        assert rep.kind == "interior"
        assert np.allclose(rep.point, [1.0, 0.0])

    def test_origin_fixed(self):
        rep = boundary_map_h_std(np.zeros(2))
        assert rep.kind == "interior"
        assert np.allclose(rep.point, 0.0)

    def test_unit_vector_maps_to_ladder(self):
        rep = boundary_map_h_std(np.array([0.0, 1.0]))
        assert rep.kind == "at_infinity"
        assert np.allclose(rep.representative(3), [0.0, harmonic_radius(3)])

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            boundary_map_h_std(np.array([1.5, 0.0]))

    def test_k_compresses_interior(self):
        rep = BoundaryRepStd(kind="interior", point=np.array([3.0, 0.0]))
        assert np.allclose(boundary_map_k_std(rep), [0.75, 0.0])

    def test_k_fixes_directions(self):
        rep = BoundaryRepStd(kind="at_infinity", point=np.array([0.0, 1.0]))
        assert np.allclose(boundary_map_k_std(rep), [0.0, 1.0])

    def test_roundtrip_on_random_ball_points(self, rng):
        for _ in range(200):
            x = rng.normal(size=2)
            x *= rng.uniform() / max(1.0, np.linalg.norm(x))
            back = boundary_map_k_std(boundary_map_h_std(x))
            assert np.linalg.norm(back - x) < 1e-12


class TestEpsilonNet:
    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            net_index(3.0)
        with pytest.raises(ValueError):
            net_index(0.0)
        with pytest.raises(ValueError):
            epsilon_net(1.0, 2)

    def test_index_anchors(self):
        assert net_index(0.99) == 12
        assert net_index(0.5) == 616

    def test_sphere_centers_lie_on_sphere(self):
        net = epsilon_net(0.99, 2)
        ak = harmonic_radius(net.k)
        sphere_part = net.centers[: net.sphere_center_count]
        norms = np.linalg.norm(sphere_part, axis=1)
        assert np.max(np.abs(norms - ak)) < 1e-9

    def test_sphere_net_spacing(self):
        net = epsilon_net(0.99, 2)
        ak = harmonic_radius(net.k)
        sphere_part = net.centers[: net.sphere_center_count]
        # every sphere point within R (Euclidean) of some center
        angles = np.linspace(0.0, 2 * np.pi, 500, endpoint=False)
        probes = ak * np.column_stack([np.cos(angles), np.sin(angles)])
        d = np.linalg.norm(probes[:, None, :] - sphere_part[None, :, :], axis=2)
        assert d.min(axis=1).max() <= sphere_net_radius(ak, net_plan(0.99, 2).n, 2)

    def test_ball_net_covers(self, rng):
        net = epsilon_net(0.9, 2)
        ball_part = net.centers[net.sphere_center_count:]
        radius = harmonic_radius(net.k + 1)
        for _ in range(200):
            x = rng.normal(size=2)
            x *= rng.uniform(0.0, radius) / max(np.linalg.norm(x), 1e-9)
            d = np.linalg.norm(ball_part - x, axis=1).min()
            assert d <= 0.9 + 1e-9

    def test_grid_projection_net_in_3d(self):
        net = epsilon_net(0.99, 3)
        ak = harmonic_radius(net.k)
        sphere_part = net.centers[: net.sphere_center_count]
        rng = np.random.default_rng(5)
        probes = rng.normal(size=(300, 3))
        probes = ak * probes / np.linalg.norm(probes, axis=1)[:, None]
        d = np.linalg.norm(probes[:, None, :] - sphere_part[None, :, :], axis=2)
        assert d.min(axis=1).max() <= sphere_net_radius(ak, net_plan(0.99, 3).n, 3)


def open_floats(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


def certificate_probes(net, n, dim, rng):
    """Points at which the certificate's bounds are tightest: the directions
    of the worst-covered points of sphere k on spheres k, k+1 and beyond,
    and random points inside the ball of radius a_{k+1} and in the shell
    just beyond it.  The worst-covered points are taken among the midpoints
    between centres in 2-D and, for s >= 3, among the radial images of the
    corners of every face cell of the cube (cube edges and vertices
    included), where the sphere net's covering bound is tightest.  Returns
    the probes, the largest sphere-k coverage distance found and the
    worst-covered directions."""
    k = net.k
    ak, ak1 = harmonic_radius(k), harmonic_radius(k + 1)
    sphere = net.centers[:net.sphere_center_count]
    if dim == 2:
        angles = (np.arange(len(sphere)) + 0.5) * (2.0 * np.pi / len(sphere))
        U = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        axis = -1.0 + 2.0 * np.arange(n + 1) / n
        face = np.stack(np.meshgrid(*[axis] * (dim - 1), indexing="ij"), axis=-1)
        face = face.reshape(-1, dim - 1)
        U = np.vstack([np.insert(face, j, sign, axis=1) for j in range(dim) for sign in (-1.0, 1.0)])
        U /= np.linalg.norm(U, axis=1)[:, None]
    gap = np.linalg.norm(sphere[_CenterGrid(sphere).nearest(ak * U)] - ak * U, axis=1)
    worst = U[np.argsort(gap)[-8:]]
    inside = rng.normal(size=(40, dim))
    inside *= rng.uniform(0.0, ak1, size=(40, 1)) / np.linalg.norm(inside, axis=1)[:, None]
    shell = rng.normal(size=(40, dim))
    shell *= rng.uniform(ak1, ak1 + 2.0, size=(40, 1)) / np.linalg.norm(shell, axis=1)[:, None]
    radii = [ak, ak1] + [harmonic_radius(int(m)) for m in rng.integers(k + 2, 3 * k + 10, size=4)]
    X = np.vstack([inside, shell] + [a * worst for a in radii])
    return X, float(gap.max()), worst


def detour_chain_costs(net, U, dim):
    """Costs, priced link by link by ``core.chain_cost``, of the
    certificate's own chain a_m u -> a_k u -> the sphere-k centre nearest
    a_k u, for each direction u of ``U``.  The spheres m lie between k + 1
    and 6k where the identification detour 1/(1+a_m) + 1/(1+a_k) is no
    dearer than the radial link a_m - a_k.  The detour falls as m grows, so
    the chain costs most on the first of them; twelve log-spaced ones from
    there to 6k are priced."""
    k = net.k
    ak = harmonic_radius(k)
    sphere = net.centers[:net.sphere_center_count]
    nearest = sphere[_CenterGrid(sphere).nearest(ak * U)]
    am = std_map._radii_upto(6 * k)[k:]
    binds = np.flatnonzero(1.0 / (1.0 + am) + 1.0 / (1.0 + ak) <= am - ak) + k + 1
    spheres = np.unique(np.geomspace(binds[0], binds[-1], 12).round().astype(int))
    ctx = euclid_context("std_phi", dim=dim)
    return [chain_cost(ctx, Chain([harmonic_radius(int(m)) * u, ak * u, c]))
            for u, c in zip(U, nearest) for m in spheres]


class TestNetCertificate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(epsilon=open_floats(0.3, 0.99), dim=st.integers(2, 5))
    def test_below_epsilon(self, epsilon, dim):
        assert net_plan(epsilon, dim).certified_radius < epsilon

    # Each net built here, with its probes and solve, takes at most about a
    # second: 3-D nets to epsilon = 0.33 (0.93 M centres; below about 0.325
    # they pass the size cap) and 4-D nets to 0.85, where the nearest-centre
    # search from the 55,000 face-cell corners takes most of the time.
    # test_below_epsilon covers the rest.
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(case=st.one_of(st.tuples(st.just(2), open_floats(0.3, 0.99)),
                          st.tuples(st.just(3), open_floats(0.33, 0.99))),
           seed=st.integers(0, 2**32 - 1))
    def test_bounds_the_sampled_solver(self, case, seed):
        self.check(*case, seed)

    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(epsilon=st.floats(0.85, 0.99, exclude_max=True), seed=st.integers(0, 2**32 - 1))
    def test_bounds_the_sampled_solver_in_4d(self, epsilon, seed):
        self.check(4, epsilon, seed)

    @staticmethod
    def check(dim, epsilon, seed):
        net, plan = epsilon_net(epsilon, dim), net_plan(epsilon, dim)
        assert net.certified_radius == plan.certified_radius < epsilon
        X, gap, worst = certificate_probes(net, plan.n, dim, np.random.default_rng(seed))
        R = sphere_net_radius(harmonic_radius(net.k), plan.n, dim)
        assert gap <= R
        assert make_net_solver(net.k)(X, net.centers).max() <= net.certified_radius
        assert max(detour_chain_costs(net, worst, dim)) <= net.certified_radius
