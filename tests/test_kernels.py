"""The batched kernels (sphere classification, pairwise distances, ray
inversion, shortest paths) against their loop-per-element references and
the brute-force oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmetric.finite import dphi_bruteforce, dphi_exact, shortest_paths
from chainmetric.rays import ConeParam, ray_bases, ray_of
from chainmetric.sampler import _bellman_ford
from chainmetric.std_map import harmonic_radius, pairwise_distances, sphere_index

from conftest import random_finite_space
from reference import dijkstra_reference, ray_through_reference, sphere_index_reference

deltas = st.floats(0.1, 0.75)
dims = st.sampled_from([2, 3])
seeds = st.integers(0, 2**32 - 1)


def unit_at(polar: float, azimuth: float, dim: int) -> np.ndarray:
    """Unit vector at the given polar angle from the first axis."""
    if dim == 2:
        return np.array([np.cos(polar), np.copysign(np.sin(polar), np.cos(azimuth))])
    return np.array([np.cos(polar), np.sin(polar) * np.cos(azimuth),
                     np.sin(polar) * np.sin(azimuth)])


taus = st.sampled_from([1e-9, 1e-6, 1e-3])


@st.composite
def norms_near_spheres(draw, tau):
    """Norms on the tau band of a sphere and just outside it, below the first
    sphere, between two spheres, and beyond the last one, inf and NaN."""
    m = draw(st.integers(1, 5000))
    a, b = harmonic_radius(m), harmonic_radius(m + 1)
    return draw(st.sampled_from([
        a, a * (1.0 - tau), a * (1.0 + tau), a * (1.0 - 1.01 * tau), a * (1.0 + 1.01 * tau),
        0.5 * (a + b), 1.0 - tau, 1.0 - 2.0 * tau, 0.0,
        draw(st.floats(0.0, 1.0 - 2.0 * tau)),
        draw(st.floats(harmonic_radius(10**6) * 1.001, 1e300)),
        np.inf, np.nan,
    ]))


class TestSphereIndex:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), tau=taus)
    def test_matches_scalar_lookup(self, data, tau):
        norms = data.draw(st.lists(norms_near_spheres(tau), min_size=1, max_size=8))
        idx = sphere_index(np.array(norms), tau)
        expected = [sphere_index_reference(v, tau) or 0 for v in norms]
        assert idx.dtype.kind == "i"
        assert idx.tolist() == expected

    def test_one_large_norm_grows_the_table_for_the_others(self, monkeypatch):
        monkeypatch.setattr("chainmetric.std_map._RADII", np.array([1.0]))
        norms = [harmonic_radius(3), 1.2, harmonic_radius(5000), 0.5]
        assert sphere_index(np.array(norms)).tolist() == [3, 0, 5000, 0]

    def test_scalar_norm_gives_a_scalar_index(self):
        assert sphere_index(harmonic_radius(7)).shape == ()
        assert sphere_index(harmonic_radius(7)) == 7


class TestPairwiseDistances:
    @pytest.mark.parametrize("s", range(2, 8))
    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    def test_bit_equal_to_norm_of_differences(self, s, n):
        rng = np.random.default_rng(100 * s + n)
        P = rng.normal(size=(n, s)) * rng.uniform(0.01, 50.0, size=(n, 1))
        expected = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
        assert np.array_equal(pairwise_distances(P), expected)


class TestRayBases:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(delta=deltas, dim=dims, seed=seeds)
    def test_matches_scalar_bisection(self, delta, dim, seed):
        cone = ConeParam(delta=delta, dim=dim)
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(12, dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        Y = dirs * rng.uniform(1.0, 20.0, size=(12, 1))
        expected = np.array([ray_through_reference(y, cone)[0].base for y in Y])
        assert np.max(np.abs(ray_bases(Y, cone) - expected)) <= 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        delta=deltas,
        dim=dims,
        polar=st.one_of(
            st.floats(0.0, np.pi),
            st.sampled_from([0.0, 1e-14, 1e-9, np.pi - 1e-9, np.pi]),
        ),
        azimuth=st.floats(0.0, 2.0 * np.pi),
        t=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    )
    def test_inverts_the_forward_map(self, delta, dim, polar, azimuth, t):
        cone = ConeParam(delta=delta, dim=dim)
        u = unit_at(polar, azimuth, dim)
        y = ray_of(u, cone).point_at(t)
        base = ray_bases(y[None, :], cone)[0]
        assert np.linalg.norm(base - u) <= 1e-8

    def test_cone_interiors_and_axis(self):
        cone = ConeParam(delta=0.6, dim=3)
        U = np.array([unit_at(a, 0.4, 3) for a in (0.0, 0.3, np.pi - 0.3, np.pi)])
        Y = np.array([ray_of(u, cone).point_at(2.5) for u in U])
        assert np.allclose(ray_bases(Y, cone), U, atol=1e-12)

    def test_norm_one_is_its_own_base(self):
        cone = ConeParam(delta=0.4, dim=2)
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.6, 0.8]])
        assert np.allclose(ray_bases(Y, cone), Y, atol=1e-12)

    def test_point_inside_ball_raises(self):
        cone = ConeParam(delta=0.6, dim=2)
        with pytest.raises(ValueError):
            ray_bases(np.array([[3.0, 0.0], [0.5, 0.5]]), cone)


def random_costs(rng, n, masked: bool) -> np.ndarray:
    """Asymmetric nonnegative costs; small integers force distance ties."""
    W = rng.integers(0, 4, size=(n, n)).astype(float)
    W += rng.choice([0.0, 0.5], size=(n, n)) * rng.uniform(size=(n, n))
    if masked:
        W[rng.uniform(size=(n, n)) < 0.5] = np.inf
    np.fill_diagonal(W, 0.0)
    return W


class TestShortestPaths:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 14), masked=st.booleans(), seed=seeds)
    def test_all_sources_equal_heap_reference(self, n, masked, seed):
        W = random_costs(np.random.default_rng(seed), n, masked)
        dist, pred = shortest_paths(W, np.arange(n))
        for s in range(n):
            ref_dist, ref_pred = dijkstra_reference(W, s)
            assert np.array_equal(dist[s], ref_dist)
            assert np.array_equal(pred[s], ref_pred)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 14), masked=st.booleans(), seed=seeds)
    def test_early_exit_keeps_target_path(self, n, masked, seed):
        rng = np.random.default_rng(seed)
        W = random_costs(rng, n, masked)
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        dist, pred = shortest_paths(W, [s], target=t)
        ref_dist, ref_pred = dijkstra_reference(W, s)
        assert dist[0, t] == ref_dist[t]
        if np.isfinite(ref_dist[t]):
            v = t
            while v != s:
                assert pred[0, v] == ref_pred[v]
                v = int(pred[0, v])


class TestNetSolverRounds:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 9), masked=st.booleans(), seed=seeds)
    def test_equal_heap_reference(self, n, masked, seed):
        W = random_costs(np.random.default_rng(seed), n, masked)
        for s in range(n):
            assert np.array_equal(_bellman_ford(W, s), dijkstra_reference(W, s)[0])


class TestDphiExact:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(3, 8), seed=seeds)
    def test_equals_bruteforce(self, n, seed):
        space = random_finite_space(n, np.random.default_rng(seed))
        ctx = space.context()
        exact = dphi_exact(ctx, space).values
        brute = dphi_bruteforce(ctx, space).values
        scale = float(np.max(space.distances))
        assert np.max(np.abs(exact - brute)) <= 1e-12 * scale
