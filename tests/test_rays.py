import numpy as np
import pytest

from chainmetric.rays import (
    ConeParam,
    Ray,
    bend_angle,
    boundary_map_h_ray,
    h_pq_ray,
    polar_angle,
    psi,
    psi_matrix,
    ray_distance,
    ray_of,
    ray_through,
    spherical_distance,
    spherical_to_cartesian,
)
from chainmetric.std_map import harmonic_radius, pairwise_distances


@pytest.fixture
def cone2():
    return ConeParam(delta=0.6, dim=2)


@pytest.fixture
def cone3():
    return ConeParam(delta=0.6, dim=3)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestConeParam:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConeParam(delta=0.0)
        with pytest.raises(ValueError):
            ConeParam(delta=np.pi / 4)

    def test_axis(self, cone3):
        assert np.allclose(cone3.axis, [1.0, 0.0, 0.0])


class TestBendAngle:
    def test_halfway_is_right_angle(self, cone2):
        x = np.array([0.0, 1.0])
        assert bend_angle(x, cone2) == pytest.approx(np.pi / 2.0, abs=1e-12)

    def test_derived_value(self, cone2):
        x = np.array([np.cos(1.0), np.sin(1.0)])
        assert bend_angle(x, cone2) == pytest.approx(0.647220, abs=1e-6)

    def test_rejects_cone_interior(self, cone2):
        with pytest.raises(ValueError):
            bend_angle(np.array([1.0, 0.0]), cone2)


class TestRayOf:
    def test_axis_base(self, cone2):
        r = ray_of(np.array([1.0, 0.0]), cone2)
        assert np.allclose(r.base, [1.0, 0.0])
        assert np.allclose(r.direction, [1.0, 0.0])

    def test_negative_axis_base(self, cone2):
        r = ray_of(np.array([-1.0, 0.0]), cone2)
        assert np.allclose(r.direction, [-1.0, 0.0])

    def test_perpendicular_base_is_radial(self, cone2):
        r = ray_of(np.array([0.0, 1.0]), cone2)
        assert np.allclose(r.direction, [0.0, 1.0], atol=1e-12)

    def test_derived_direction(self, cone3):
        x = np.array([np.cos(1.0), np.sin(1.0), 0.0])
        r = ray_of(x, cone3)
        want = np.array([np.cos(0.647220), np.sin(0.647220), 0.0])
        assert np.linalg.norm(r.direction - want) < 1e-6

    def test_angle_to_radial_bounded_by_delta(self, cone3, rng):
        for _ in range(500):
            x = unit(rng.normal(size=3))
            r = ray_of(x, cone3)
            cosang = np.clip(np.dot(r.direction, x), -1.0, 1.0)
            assert np.arccos(cosang) <= cone3.delta + 1e-9

    def test_stays_in_half_plane_of_base(self, cone3, rng):
        for _ in range(100):
            x = unit(rng.normal(size=3))
            if abs(polar_angle(x) - np.pi / 2) > 1.0:
                continue
            r = ray_of(x, cone3)
            w = x.copy()
            w[0] = 0.0
            assert np.dot(r.direction, w) >= -1e-12


class TestRayThrough:
    def test_radial_case(self, cone2):
        ray, res = ray_through(np.array([0.0, 5.0]), cone2)
        assert np.allclose(ray.base, [0.0, 1.0], atol=1e-9)
        assert res < 1e-10

    def test_axis_case(self, cone2):
        ray, _ = ray_through(np.array([3.0, 0.0]), cone2)
        assert np.allclose(ray.base, [1.0, 0.0])

    def test_forward_inverse_roundtrip(self, cone2):
        x = np.array([np.cos(1.0), np.sin(1.0)])
        fwd = ray_of(x, cone2)
        y = fwd.point_at(2.0)
        ray, res = ray_through(y, cone2)
        assert res < 1e-10
        assert polar_angle(ray.base) == pytest.approx(1.0, abs=1e-9)

    def test_random_roundtrips_3d(self, cone3, rng):
        for _ in range(200):
            x = unit(rng.normal(size=3))
            t = rng.uniform(0.0, 5.0)
            y = ray_of(x, cone3).point_at(t)
            ray, res = ray_through(y, cone3)
            assert res < 1e-10
            assert np.linalg.norm(ray.base - x) < 1e-8

    def test_rejects_interior_point(self, cone2):
        with pytest.raises(ValueError):
            ray_through(np.array([0.1, 0.1]), cone2)


class TestRayIdentification:
    def test_radial_descent(self, cone2):
        out = h_pq_ray(np.array([0.0, 1.5]), 1, cone2)
        assert np.allclose(out, [0.0, 1.0], atol=1e-9)

    def test_axis_descent(self, cone2):
        out = h_pq_ray(np.array([1.5, 0.0]), 1, cone2)
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)

    def test_identity_on_same_sphere(self, cone2):
        x = np.array([0.0, 1.5])
        assert np.linalg.norm(h_pq_ray(x, 2, cone2) - x) < 1e-10

    def test_roundtrip_across_spheres(self, cone2):
        x = np.array([np.cos(1.0), np.sin(1.0)])
        up = h_pq_ray(x, 5, cone2)
        assert abs(np.linalg.norm(up) - harmonic_radius(5)) < 1e-10
        back = h_pq_ray(up, 1, cone2)
        assert np.linalg.norm(back - x) < 1e-10
        # Inside the unit ball but within tau of it: its radial projection's ray.
        assert np.linalg.norm(h_pq_ray((1.0 - 5e-10) * x, 5, cone2) - up) < 1e-10

    def test_rejects_off_sphere_point(self, cone2):
        with pytest.raises(ValueError):
            h_pq_ray(np.array([1.2, 0.0]), 2, cone2)

    def test_array_of_indices_is_one_point_per_index(self, cone3):
        x = harmonic_radius(2) * unit([0.3, 0.9, -0.2])
        q = np.array([[1, 4], [2, 9]])
        out = h_pq_ray(x, q, cone3)
        assert out.shape == (2, 2, 3)
        for i, j in np.ndindex(q.shape):
            assert np.array_equal(out[i, j], h_pq_ray(x, int(q[i, j]), cone3))
        with pytest.raises(ValueError):
            h_pq_ray(x, np.array([3, 0]), cone3)


class TestRayWeight:
    def test_same_first_sphere(self, cone2):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert psi(x, y, cone2) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identified_pair_is_free(self, cone2):
        x = np.array([np.cos(1.0), np.sin(1.0)])
        y = h_pq_ray(x, 3, cone2)
        assert psi(x, y, cone2) == 0.0
        assert psi((1.0 - 5e-10) * x, y, cone2) == 0.0

    def test_generic_pair(self, cone2):
        x, y = np.array([0.3, 0.4]), np.array([2.0, 7.0])
        assert psi(x, y, cone2) == pytest.approx(np.sqrt(46.45), abs=1e-12)

    def test_symmetric_nonnegative(self, cone2, rng):
        for _ in range(50):
            x, y = rng.normal(size=2, scale=3), rng.normal(size=2, scale=3)
            v = psi(x, y, cone2)
            assert v >= 0.0
            assert v == psi(y, x, cone2)

    def test_matrix_agrees_with_scalar(self, cone2, rng):
        pts = [rng.normal(size=2, scale=2) for _ in range(6)]
        base = unit([np.cos(1.0), np.sin(1.0)])
        pts += [base, h_pq_ray(base, 3, cone2), np.array([1.5, 0.0]), (1.0 - 5e-10) * base]
        P = np.array(pts)
        W = psi_matrix(P, pairwise_distances(P), cone2)
        for i in range(len(P)):
            for j in range(len(P)):
                assert W[i, j] == pytest.approx(psi(P[i], P[j], cone2), abs=1e-12)


class TestRayDistance:
    def test_identical_rays(self, cone2):
        r = ray_of(np.array([0.0, 1.0]), cone2)
        assert ray_distance(r, r) == 0.0

    def test_opposite_radial_rays(self):
        r1 = Ray(base=np.array([0.0, 1.0]), direction=np.array([0.0, 1.0]))
        r2 = Ray(base=np.array([0.0, -1.0]), direction=np.array([0.0, -1.0]))
        assert ray_distance(r1, r2) == pytest.approx(2.0, abs=1e-12)

    @staticmethod
    def _sampled_distance(r1, r2):
        # Coarse 2-D grid to bracket the minimizer, then a 1e-3 grid around it.
        def grid_min(t1s, t2s):
            p1 = r1.base[None, :] + t1s[:, None] * r1.direction[None, :]
            p2 = r2.base[None, :] + t2s[:, None] * r2.direction[None, :]
            d = np.sqrt(((p1[:, None, :] - p2[None, :, :]) ** 2).sum(axis=2))
            i, j = np.unravel_index(np.argmin(d), d.shape)
            return d[i, j], t1s[i], t2s[j]

        coarse = np.arange(0.0, 30.0, 0.05)
        _, t1, t2 = grid_min(coarse, coarse)
        fine1 = np.arange(max(0.0, t1 - 0.1), t1 + 0.1, 1e-3)
        fine2 = np.arange(max(0.0, t2 - 0.1), t2 + 0.1, 1e-3)
        value, _, _ = grid_min(fine1, fine2)
        return value

    def test_matches_dense_sampling(self, cone3, rng):
        for _ in range(20):
            r1 = ray_of(unit(rng.normal(size=3)), cone3)
            r2 = ray_of(unit(rng.normal(size=3)), cone3)
            closed = ray_distance(r1, r2)
            sampled = self._sampled_distance(r1, r2)
            assert closed <= sampled + 1e-6
            assert sampled <= closed + 1e-3

    def test_separation_floor(self, cone3, rng):
        factor = 1.0 / (2.0 * np.sqrt(2.0))
        for _ in range(500):
            x, y = unit(rng.normal(size=3)), unit(rng.normal(size=3))
            sep = ray_distance(ray_of(x, cone3), ray_of(y, cone3))
            assert sep >= factor * np.linalg.norm(x - y) - 1e-9


class TestSphericalDistance:
    def test_same_point(self):
        assert spherical_distance((1.0, 0.3, 0.4), (1.0, 0.3, 0.4)) == 0.0

    def test_antipodal_equator(self):
        assert spherical_distance(
            (1.0, np.pi / 2, 0.0), (1.0, np.pi / 2, np.pi)
        ) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_units(self):
        assert spherical_distance(
            (1.0, np.pi / 2, 0.0), (1.0, np.pi / 2, np.pi / 2)
        ) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_agrees_with_cartesian(self, rng):
        for _ in range(500):
            p1 = (rng.uniform(0, 5), rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            p2 = (rng.uniform(0, 5), rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            cart = np.linalg.norm(
                spherical_to_cartesian(p1) - spherical_to_cartesian(p2)
            )
            assert spherical_distance(p1, p2) == pytest.approx(cart, abs=1e-12)

    def test_rejects_bad_polar_angle(self):
        with pytest.raises(ValueError):
            spherical_distance((1.0, 4.0, 0.0), (1.0, 0.0, 0.0))


class TestBoundaryMapRay:
    def test_inner_blowup(self, cone2):
        x = 0.25 * unit([1.0, 1.0])
        rep = boundary_map_h_ray(x, cone2)
        assert rep.kind == "interior"
        assert np.allclose(rep.point, x / 0.75)

    def test_junction_value(self, cone2):
        u = unit([np.cos(1.0), np.sin(1.0)])
        rep = boundary_map_h_ray(0.5 * u, cone2)
        assert np.linalg.norm(rep.point - u) < 1e-12

    def test_junction_continuity(self, cone2, rng):
        for _ in range(50):
            u = unit(rng.normal(size=2))
            lo = boundary_map_h_ray((0.5 - 1e-10) * u, cone2)
            hi = boundary_map_h_ray((0.5 + 1e-10) * u, cone2)
            assert np.linalg.norm(lo.point - hi.point) < 1e-9

    def test_outer_travels_along_ray(self, cone2):
        u = unit([np.cos(1.0), np.sin(1.0)])
        rep = boundary_map_h_ray(0.75 * u, cone2)
        ray = ray_of(u, cone2)
        # arc parameter (0.75 - 0.5) / 0.25 = 1 from the base
        assert np.linalg.norm(rep.point - ray.point_at(1.0)) < 1e-12

    def test_unit_maps_to_ladder(self, cone2):
        u = unit([np.cos(1.0), np.sin(1.0)])
        rep = boundary_map_h_ray(u, cone2)
        assert rep.kind == "at_infinity"
        third = rep.representative(3)
        assert abs(np.linalg.norm(third) - harmonic_radius(3)) < 1e-10

    def test_rejects_outside_ball(self, cone2):
        with pytest.raises(ValueError):
            boundary_map_h_ray(np.array([2.0, 0.0]), cone2)
