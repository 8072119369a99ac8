"""The batched kernels (the finite link table, sphere classification,
coordinate-at-a-time distances, the ray field, its inversion and ray separation, the
structured sample, shortest paths, link-cost rows priced on demand, stacked
link costs, the epsilon-net solver, the net's candidate-center lookup, the
sphere and ball nets and the triangle screen of the axiom check) against their loop-per-element
references, the scalar link cost ``core.delta`` and the brute-force oracle."""
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainmetric import finite
from chainmetric.core import AXIOM_TOL, delta as link_cost, verify_metric_axioms
from chainmetric.finite import (FiniteSpace, dphi_bruteforce, dphi_exact, link_table,
                                shortest_path, shortest_paths)
from chainmetric.rays import (ConeParam, Ray, h_pq_ray, ray_bases, ray_crossings,
                              ray_directions, ray_distance, ray_distances, ray_of)
from chainmetric.sampler import (
    SamplerConfig,
    _level_config,
    _merge,
    _row_norms,
    approx_dphi,
    build_graph,
    build_sample,
    euclid_context,
    make_net_solver,
)
from chainmetric.std_map import (
    TAU,
    _ball_axis,
    _ball_net,
    _sphere_net,
    coordinate_distances,
    epsilon_net,
    harmonic_radius,
    net_index,
    net_plan,
    sphere_index,
)

from conftest import random_finite_space
from reference import (
    approx_dphi_reference,
    ball_net_reference,
    build_sample_reference,
    dijkstra_reference,
    link_matrix_reference,
    link_table_reference,
    net_cells_reference,
    net_solver_reference,
    ray_crossing_reference,
    ray_distance_reference,
    ray_bases_reference,
    ray_of_reference,
    ray_through_reference,
    sphere_index_reference,
    sphere_net_reference,
    verify_metric_axioms_reference,
)

deltas = st.floats(0.1, 0.75)
dims = st.sampled_from([2, 3])
seeds = st.integers(0, 2**32 - 1)


def unit_at(polar: float, azimuth: float, dim: int) -> np.ndarray:
    """Unit vector at the given polar angle from the first axis."""
    if dim == 2:
        return np.array([np.cos(polar), np.copysign(np.sin(polar), np.cos(azimuth))])
    return np.array([np.cos(polar), np.sin(polar) * np.cos(azimuth),
                     np.sin(polar) * np.sin(azimuth)])


@st.composite
def norms_near_spheres(draw):
    """Norms on the TAU band of a sphere and just outside it, below the first
    sphere, between two spheres, and beyond the last one, inf and NaN."""
    m = draw(st.integers(1, 5000))
    a, b = harmonic_radius(m), harmonic_radius(m + 1)
    return draw(st.sampled_from([
        a, a * (1.0 - TAU), a * (1.0 + TAU), a * (1.0 - 1.01 * TAU), a * (1.0 + 1.01 * TAU),
        0.5 * (a + b), 1.0 - TAU, 1.0 - 2.0 * TAU, 0.0,
        draw(st.floats(0.0, 1.0 - 2.0 * TAU)),
        draw(st.floats(harmonic_radius(10**6) * 1.001, 1e300)),
        np.inf, np.nan,
    ]))


class TestSphereIndex:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_scalar_lookup(self, data):
        norms = data.draw(st.lists(norms_near_spheres(), min_size=1, max_size=8))
        idx = sphere_index(np.array(norms))
        expected = [sphere_index_reference(v) or 0 for v in norms]
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
        assert np.array_equal(coordinate_distances(P.T, P.T), expected)


open_deltas = st.floats(0.0, np.pi / 4.0, exclude_min=True, exclude_max=True)
inversion_deltas = st.one_of(st.sampled_from([0.05, 0.78]), open_deltas)
# The largest sphere radius, a_{10^6}, about 14.39.
A_MAX = harmonic_radius(10**6)


@st.composite
def exterior_rows(draw, dim, delta, kind=None):
    """Points for the ray-field inversion, shape (n, dim), built as (p, q) in
    an (axis, w_hat) half-plane, in the near (p > 0) or far (p < 0) cone or
    between, at norms from exactly 1 to a_{10^6}: in a cone, on the axis, at
    q = sin(delta) or one float either side, bent, near the axial cut-off
    q = 1e-12, and on a sphere's TAU band, divided by min(|y|, 1) as
    psi_matrix does.  ``kind`` fixes the kind of every row."""
    rng = np.random.default_rng(draw(seeds))
    sin_delta = np.sin(delta)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        k = kind or draw(st.sampled_from(["cone", "axial", "edge", "bent", "near-axis", "tau"]))
        r = draw(st.one_of(st.just(1.0), st.floats(1.0, A_MAX)))
        if k == "tau":
            m = draw(st.one_of(st.just(1), st.integers(1, 10**6)))
            r = harmonic_radius(m) * (1.0 + TAU * draw(st.floats(-1.0, 1.0)))
        if k == "cone":
            q = draw(st.floats(0.0, sin_delta))
        elif k == "axial":
            q = draw(st.sampled_from([0.0, 5e-13, np.nextafter(1e-12, 0.0)]))
        elif k == "edge":
            q = np.nextafter(sin_delta, draw(st.sampled_from([-np.inf, sin_delta, np.inf])))
        elif k == "bent":
            q = draw(st.floats(sin_delta, r, exclude_min=True))
        elif k == "near-axis":
            q = draw(st.sampled_from([1e-12, np.nextafter(1e-12, 1.0), 2e-12]))
        else:
            q = draw(st.floats(0.0, r))
        p = draw(st.sampled_from([1.0, -1.0])) * np.sqrt(max(r * r - q * q, 0.0))
        if draw(st.booleans()):
            w = rng.normal(size=dim - 1)
            w /= np.linalg.norm(w)
        else:
            w = np.zeros(dim - 1)
            w[draw(st.integers(0, dim - 2))] = draw(st.sampled_from([1.0, -1.0]))
        rows.append(np.concatenate([[p], q * w]))
    Y = np.array(rows)
    return Y / np.minimum(np.linalg.norm(Y, axis=1), 1.0)[:, None]


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(2, 5), delta=inversion_deltas)
    def test_matches_batched_bisection(self, data, dim, delta):
        cone = ConeParam(delta=delta, dim=dim)
        Y = data.draw(exterior_rows(dim, delta))
        assert np.max(np.abs(ray_bases(Y, cone) - ray_bases_reference(Y, cone))) <= 1e-14

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(2, 5), delta=inversion_deltas)
    def test_each_row_bit_equal_to_its_own_call(self, data, dim, delta):
        """Each row's base is bit-equal to that of the row solved alone, in a
        batch mixing cone, bent and axial rows: every row stops on its own
        rule, so no row's last bits depend on the others.  The stacked link
        matrix, bit-equal slice by slice to unstacked calls, rests on this."""
        cone = ConeParam(delta=delta, dim=dim)
        Y = np.vstack([data.draw(exterior_rows(dim, delta, kind))
                       for kind in ("cone", "bent", "axial", None)])
        Y = Y[data.draw(st.permutations(range(len(Y))))]
        B = ray_bases(Y, cone)
        for i in range(len(Y)):
            assert B[i].tobytes() == ray_bases(Y[i:i + 1], cone)[0].tobytes()


def same_bits(a, b) -> bool:
    """Equal shapes and equal float bits, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def field_bases(draw, dim, delta):
    """Unit bases of the ray field, shape (n, dim): on the axis either way,
    inside either cone, at or one float off a cone edge, and anywhere.  The
    part orthogonal to the axis is random, or one signed coordinate axis
    with signed zeros elsewhere."""
    rng = np.random.default_rng(draw(seeds))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["axis", "cone", "edge", "any"]))
        if kind == "axis":
            rows.append(draw(st.sampled_from([1.0, -1.0])) * np.eye(dim)[0])
            continue
        if kind == "cone":
            polar = draw(st.floats(0.0, delta))
        elif kind == "edge":
            polar = np.nextafter(delta, draw(st.sampled_from([-np.inf, 0.0, np.inf])))
        else:
            polar = draw(st.floats(0.0, np.pi))
        if kind != "any" and draw(st.booleans()):
            polar = np.pi - polar
        if draw(st.booleans()):
            v = rng.normal(size=dim - 1)
            v /= np.linalg.norm(v)
        else:
            v = np.zeros(dim - 1) * draw(st.sampled_from([1.0, -1.0]))
            v[draw(st.integers(0, dim - 2))] = draw(st.sampled_from([1.0, -1.0]))
        rows.append(np.concatenate([[np.cos(polar)], np.sin(polar) * v]))
    return np.array(rows)


class TestRayField:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(2, 5), delta=open_deltas)
    def test_directions_bit_equal_to_per_point_reference(self, data, dim, delta):
        cone = ConeParam(delta=delta, dim=dim)
        B = data.draw(field_bases(dim, delta))
        expected = [ray_of_reference(b, cone).direction for b in B]
        assert same_bits(ray_directions(B, cone), expected)
        assert same_bits(ray_of(B[0], cone).direction, expected[0])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(2, 5), delta=open_deltas, per_row=st.booleans())
    def test_crossings_bit_equal_to_per_point_reference(self, data, dim, delta, per_row):
        cone = ConeParam(delta=delta, dim=dim)
        B = data.draw(field_bases(dim, delta))
        m = data.draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=6))
        radii = [harmonic_radius(j) for j in m] + [data.draw(st.floats(1.0, 20.0))]
        if per_row:  # one row of radii per base
            radii = np.roll(np.tile(radii, (len(B), 1)), 1, axis=0)
        R = np.broadcast_to(radii, (len(B), len(m) + 1))
        expected = [[ray_crossing_reference(ray_of_reference(b, cone), r) for r in row]
                    for b, row in zip(B, R)]
        assert same_bits(ray_crossings(B, radii, cone), expected)


@st.composite
def ray_pairs(draw, cone):
    """Paired rays, four arrays ``B1, D1, B2, D2`` of shape (n, s): bases from
    ``field_bases`` with their field directions, each partner another field
    base, the same base, its antipode, or the base tilted by 1e-9 so that the
    rays are parallel to within the kernel's 1e-14 cut-off.  A pair may take
    random unit directions instead, since rays of the field never reach the
    interior critical point of their distance."""
    B1 = draw(field_bases(cone.dim, cone.delta))
    others = draw(field_bases(cone.dim, cone.delta))
    B2 = np.empty_like(B1)
    for i, b in enumerate(B1):
        kind = draw(st.sampled_from(["other", "same", "antipodal", "tilted"]))
        if kind == "other":
            B2[i] = others[i % len(others)]
        elif kind == "tilted":
            t = b + 1e-9 * np.roll(b, 1)
            B2[i] = t / np.linalg.norm(t)
        else:
            B2[i] = b if kind == "same" else -b
    D1, D2 = ray_directions(B1, cone), ray_directions(B2, cone)
    free = np.array(draw(st.lists(st.booleans(), min_size=len(B1), max_size=len(B1))))
    R = np.random.default_rng(draw(seeds)).normal(size=(2, len(B1), cone.dim))
    R /= np.linalg.norm(R, axis=2, keepdims=True)
    D1[free], D2[free] = R[0, free], R[1, free]
    return B1, D1, B2, D2


class TestRayDistances:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(2, 5), delta=open_deltas)
    def test_bit_equal_to_per_pair_reference(self, data, dim, delta):
        B1, D1, B2, D2 = data.draw(ray_pairs(ConeParam(delta=delta, dim=dim)))
        rays = [(Ray(b1, d1), Ray(b2, d2)) for b1, d1, b2, d2 in zip(B1, D1, B2, D2)]
        expected = [ray_distance_reference(r1, r2) for r1, r2 in rays]
        assert same_bits(ray_distances(B1, D1, B2, D2), expected)
        assert same_bits(ray_distance(*rays[0]), expected[0])

    def test_parallel_antiparallel_and_identical_rays(self):
        cone = ConeParam(delta=0.7, dim=3)  # polar angles 0, 0.45 and 0.64 lie in its cone
        B1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.8, 0.6, 0.0], [0.8, 0.6, 0.0]])
        B2 = np.array([[0.9, 0.0, np.sqrt(0.19)], [0.0, 1.0, 0.0], [-0.8, 0.6, 0.0],
                       [0.8, 0.0, 0.6]])
        D1, D2 = ray_directions(B1, cone), ray_directions(B2, cone)
        got = ray_distances(B1, D1, B2, D2)
        # Parallel rays in one cone: the later base's distance to the other
        # ray; antiparallel rays in opposite cones: their bases' distance.
        assert got[0] == pytest.approx(np.sqrt(0.19), abs=1e-15)
        assert got[1] == 0.0
        assert got[2] == pytest.approx(1.6, abs=1e-15)
        assert got[3] == pytest.approx(np.sqrt(0.72), abs=1e-15)


@st.composite
def sample_endpoints(draw, dim):
    """Endpoints of a sample: inside the unit ball, within tau below it,
    exactly on sphere 1 or sphere m, between two spheres, anywhere up to
    norm 14."""
    rng = np.random.default_rng(draw(seeds))
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    axis = np.eye(dim)[draw(st.integers(0, dim - 1))] * draw(st.sampled_from([1.0, -1.0]))
    m = draw(st.integers(1, 40))
    return draw(st.sampled_from([
        0.5 * u, (1.0 - 5e-10) * u, axis, harmonic_radius(m) * axis, harmonic_radius(m) * u,
        0.5 * (harmonic_radius(m) + harmonic_radius(m + 1)) * u, rng.uniform(0.0, 14.0) * u,
    ]))


class TestBuildSample:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), weight=st.sampled_from(["std_phi", "ray_psi"]),
           dim=st.integers(2, 4), delta=deltas)
    def test_bit_equal_to_per_point_reference(self, data, weight, dim, delta):
        config = SamplerConfig(
            dimension=dim,
            max_sphere_index=data.draw(st.integers(1, 6)),
            angular_resolution=data.draw(st.sampled_from([0.4, 0.5, 1.0, 2.5])),
            radial_steps=data.draw(st.integers(0, 3)),
            seed=data.draw(st.integers(0, 3)),
        )
        endpoints = data.draw(st.lists(sample_endpoints(dim), max_size=3))
        cone = ConeParam(delta=delta, dim=dim)
        nodes = build_sample(config, endpoints, weight, cone)
        expected = build_sample_reference(config, endpoints, weight, cone)
        assert same_bits(nodes.points, expected.points)
        assert nodes.provenance == expected.provenance


@st.composite
def spec_endpoints(draw, dim):
    """Endpoints where the link-cost cases turn: on sphere m <= 5, inside its
    TAU band at a_m(1 +- 0.99 TAU) and just outside it at a_m(1 +- 1.01 TAU),
    within the band of sphere 1 inside the ball at 1 - TAU/2, and off every
    sphere; along a random direction or a signed coordinate axis."""
    rng = np.random.default_rng(draw(seeds))
    u = rng.normal(size=dim)
    if draw(st.booleans()):
        u = np.eye(dim)[draw(st.integers(0, dim - 1))] * draw(st.sampled_from([1.0, -1.0]))
    a = harmonic_radius(draw(st.integers(1, 5)))
    scale = draw(st.sampled_from([1.0, 1.0 - 0.99 * TAU, 1.0 + 0.99 * TAU,
                                  1.0 - 1.01 * TAU, 1.0 + 1.01 * TAU]))
    norm = draw(st.sampled_from([a * scale, 1.0 - TAU / 2.0, rng.uniform(0.0, 6.0)]))
    return norm * u / np.linalg.norm(u)


class TestLinkMatrixAgainstDelta:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), weight=st.sampled_from(["std_phi", "ray_psi"]), dim=dims,
           delta=deltas)
    def test_sample_link_costs_equal_the_scalar_link_cost(self, data, weight, dim, delta):
        config = SamplerConfig(
            dimension=dim,
            max_sphere_index=data.draw(st.integers(1, 5)),
            angular_resolution=data.draw(st.sampled_from([0.8, 1.0, 2.0])),
            radial_steps=data.draw(st.integers(0, 2)),
            seed=data.draw(st.integers(0, 3)),
        )
        endpoints = [data.draw(spec_endpoints(dim)), data.draw(spec_endpoints(dim))]
        cone = ConeParam(delta=delta, dim=dim)
        ctx = euclid_context(weight, cone=cone, dim=dim)
        P = build_sample(config, endpoints, weight, cone).points
        W = ctx.link_matrix(P)
        # Every pair with an endpoint, and 200 others: a scalar link cost
        # between two nodes on spheres inverts both under the ray weight.
        rng = np.random.default_rng(data.draw(seeds))
        n = len(P)
        pairs = [(e, j) for e in (0, 1) for j in range(n)]
        pairs += zip(rng.integers(n, size=200).tolist(), rng.integers(n, size=200).tolist())
        for i, j in pairs:
            value = link_cost(ctx, P[i], P[j])
            assert abs(W[i, j] - value) <= 1e-12 * max(1.0, abs(value)), (i, j)


@st.composite
def row_endpoints(draw, dim, weight, cone):
    """Two endpoints of ``spec_endpoints``, or a first one on a sphere and
    the second its identification onto another sphere, so that the two
    share a radial unit vector or a ray base."""
    x = draw(spec_endpoints(dim))
    m = int(sphere_index(float(np.linalg.norm(x))))
    if not m or draw(st.booleans()):
        return [x, draw(spec_endpoints(dim))]
    k = draw(st.sampled_from([k for k in range(1, 7) if k != m]))
    if weight == "std_phi":
        y = harmonic_radius(k) * x / np.linalg.norm(x)
    else:
        y = h_pq_ray(x, k, cone)
    return [x, y] if draw(st.booleans()) else [y, x]


def sample_configs(data, spheres=5, dims=dims):
    """A small sampler config with up to ``spheres`` spheres, 2-D or 3-D
    unless ``dims`` draws other dimensions."""
    return SamplerConfig(
        dimension=data.draw(dims, label="dim"),
        max_sphere_index=data.draw(st.integers(1, spheres)),
        angular_resolution=data.draw(st.sampled_from([0.8, 1.0, 2.0])),
        radial_steps=data.draw(st.integers(0, 2)),
        seed=data.draw(st.integers(0, 3)),
    )


class TestPricedRows:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), weight=st.sampled_from(["std_phi", "ray_psi"]), delta=deltas)
    def test_each_row_bit_equal_to_the_dense_reference(self, data, weight, delta):
        config = sample_configs(data, dims=st.integers(2, 4))
        dim = config.dimension
        cone = ConeParam(delta=delta, dim=dim)
        ctx = euclid_context(weight, cone=cone, dim=dim)
        endpoints = data.draw(row_endpoints(dim, weight, cone))
        graph = build_graph(ctx, build_sample(config, endpoints, weight, cone))
        dense = link_matrix_reference(ctx, graph.nodes.points)
        assert same_bits(ctx.link_matrix(graph.nodes.points), dense)
        n = len(graph.nodes)
        for i in range(n):
            assert same_bits(graph.link_rows(slice(i, i + 1)), dense[i:i + 1]), i
        # Blocks of unsorted, non-contiguous nodes, one-element ones included.
        rng = np.random.default_rng(data.draw(seeds))
        for size in (1, 1, 2, 7, n):
            block = rng.choice(n, size=min(size, n), replace=False)
            assert same_bits(graph.link_rows(block), dense[block]), block

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), weight=st.sampled_from(["std_phi", "ray_psi"]), delta=deltas)
    def test_bound_and_witness_equal_the_dense_reference(self, data, weight, delta):
        config = sample_configs(data, spheres=4)
        dim = config.dimension
        cone = ConeParam(delta=delta, dim=dim)
        ctx = euclid_context(weight, cone=cone, dim=dim)
        x, y = data.draw(row_endpoints(dim, weight, cone))
        # The refinement levels of a convergence run, each merged into the
        # nodes of the levels before it.
        nodes = None
        for level in range(data.draw(st.integers(1, 3 if dim == 2 else 2))):
            fresh = build_sample(_level_config(config, level), [x, y], weight, cone)
            nodes = fresh if nodes is None else _merge(nodes, fresh)
            value, witness = approx_dphi(build_graph(ctx, nodes), x, y)
            ref_value, ref_witness = approx_dphi_reference(ctx, nodes, x, y)
            assert same_bits(value, ref_value)
            assert same_bits(witness.points, ref_witness)


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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(2, 30), costs=st.sampled_from(["ties", "masked", "line"]),
           most=st.integers(1, 8), seed=seeds)
    def test_early_exit_keeps_target_path(self, n, costs, most, seed):
        rng = np.random.default_rng(seed)
        if costs == "line":
            # Distinct powers of two on a line: an exact metric without
            # distance ties, so the source's row holds the final distances.
            x = 2.0 ** rng.permutation(n)
            W = np.abs(x[:, None] - x[None, :])
        else:
            W = random_costs(rng, n, costs == "masked")
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        blocks = []

        def rows(block):
            assert isinstance(block, slice) or block.dtype.kind == "i"
            blocks.append(block)
            return W[block]

        with mock.patch.object(finite, "_ROW_BUDGET", most * n):  # blocks of <= most rows
            dist, pred = shortest_path(rows, n, s, t)
        settled = []
        ref_dist, ref_pred = dijkstra_reference(W, s, settled)
        if t in settled:
            settled = settled[:settled.index(t)]
        assert dist[t] == ref_dist[t]
        if np.isfinite(ref_dist[t]):
            v = t
            while v != s:
                assert pred[v] == ref_pred[v]
                v = int(pred[v])
        # The source's row alone, then one row and at most twice as many per
        # block up to `most`; every settled node is priced, each node at most
        # once, the target never.
        assert blocks[0] == slice(s, s + 1)
        nodes = [np.arange(n)[b].tolist() for b in blocks]
        assert all(len(v) <= min(2 ** max(k - 1, 0), most) for k, v in enumerate(nodes))
        priced = sum(nodes, [])
        assert t not in priced and len(set(priced)) == len(priced)
        assert set(settled) <= set(priced)
        # Relaxations can lower an unpriced node below the ones priced ahead,
        # but on a metric the frontier is final after the source's row: the
        # blocks then price the settle order in consecutive runs.
        if costs == "line":
            assert len(priced) == len(settled)
            lo = 0
            for v in nodes:
                assert sorted(v) == sorted(settled[lo:lo + len(v)])
                lo += len(v)
            if most > 1 and len(settled) > 3:
                assert len(blocks) < len(settled)


class TestStackedShortestPaths:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 9), depth=st.integers(1, 5), masked=st.booleans(), seed=seeds)
    def test_each_slice_equals_heap_reference(self, n, depth, masked, seed):
        rng = np.random.default_rng(seed)
        W = np.stack([random_costs(rng, n, masked) for _ in range(depth)])
        sources = rng.integers(n, size=depth)
        dist, pred = shortest_paths(W, sources)
        for b, source in enumerate(sources):
            ref_dist, ref_pred = dijkstra_reference(W[b], source)
            assert np.array_equal(dist[b], ref_dist)
            assert np.array_equal(pred[b], ref_pred)


class TestLinkTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), seed=seeds, weighted=st.booleans(), skewed=st.booleans(),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_bit_equal_to_scalar_delta_loop(self, n, seed, weighted, skewed, scale):
        rng = np.random.default_rng(seed)
        base = random_finite_space(n, rng)
        D = base.distances * scale
        if skewed:
            # Each entry moves on its own, so D is symmetric only to within
            # AXIOM_TOL and the two orientations of a pair price differently.
            D = D + rng.uniform(-0.25, 0.25, size=(n, n)) * AXIOM_TOL
            np.fill_diagonal(D, 0.0)
        space = FiniteSpace(distances=D, anchor_index=int(rng.integers(n)),
                            weights=base.weights if weighted else None)
        table = link_table(space)
        assert np.array_equal(table, link_table_reference(space))
        assert np.array_equal(table, table.T)


class TestDphiExact:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(3, 8), seed=seeds)
    def test_equals_bruteforce(self, n, seed):
        space = random_finite_space(n, np.random.default_rng(seed))
        ctx = space.context()
        exact = dphi_exact(space).values
        brute = dphi_bruteforce(ctx, space).values
        scale = float(np.max(space.distances))
        assert np.max(np.abs(exact - brute)) <= 1e-12 * scale


def random_directions(rng, count: int, dim: int) -> np.ndarray:
    U = rng.normal(size=(count, dim))
    return U / np.linalg.norm(U, axis=1)[:, None]


class TestRowNorms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 7), scale=st.sampled_from([1e-3, 1.0, 14.0, 1e150]), seed=seeds)
    def test_bit_equal_to_norm_of_each_row(self, dim, scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, dim)) * rng.uniform(0.0, scale, size=(50, 1))
        expected = [float(np.linalg.norm(x)) for x in X]
        assert _row_norms(X).tolist() == expected


@st.composite
def node_stacks(draw, dim):
    """A stack of node sets: free points, points on spheres and points that
    share a radial line with an earlier node of their set."""
    rng = np.random.default_rng(draw(seeds))
    shape = draw(st.sampled_from([(1,), (3,), (2, 3)]))
    n = draw(st.integers(1, 9))
    P = rng.normal(size=shape + (n, dim)) * rng.uniform(0.1, 6.0, size=shape + (n, 1))
    kinds = rng.integers(0, 3, size=shape + (n,))
    U = P / np.linalg.norm(P, axis=-1, keepdims=True)
    radii = np.array([harmonic_radius(int(m)) for m in range(1, 7)])
    a = radii[rng.integers(0, 6, size=shape + (n,))][..., None]
    P = np.where((kinds == 1)[..., None], a * U, P)
    shared = a * np.roll(U, 1, axis=-2)  # the previous node's direction
    return np.where((kinds == 2)[..., None], shared, P)


class TestStackedLinkMatrix:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dim=dims, kind=st.sampled_from(["std_phi", "ray_psi"]),
           delta=deltas)
    def test_each_slice_bit_equal_to_unstacked_call(self, data, dim, kind, delta):
        P = data.draw(node_stacks(dim))
        ctx = euclid_context(kind, cone=ConeParam(delta=delta, dim=dim), dim=dim)
        W = ctx.link_matrix(P)
        assert W.shape == P.shape[:-1] + P.shape[-2:-1]
        for lead in np.ndindex(P.shape[:-2]):
            assert np.array_equal(W[lead], ctx.link_matrix(P[lead]))


@st.composite
def axiom_matrices(draw):
    """Distance matrices of random metric spaces, some of them larger than
    one pivot block of the triangle screen, with violations planted: raised
    or lowered entries (triangle, nonnegativity), a nonzero diagonal or a
    zero off-diagonal entry (identity) and one-sided changes (symmetry), each
    larger than AXIOM_TOL or within it.  A lowered entry breaks triangles
    through its own two points as pivots only, so some are planted among the
    last points, beyond the screen's first block."""
    n = draw(st.sampled_from([1, 2, 3, 5, 9, 40, 110]))
    rng = np.random.default_rng(draw(seeds))
    M = random_finite_space(n, rng).distances.copy()
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["raise", "lower", "diagonal", "zero", "skew", "tiny"]))
        low = max(0, n - 8) if draw(st.booleans()) else 0
        i, j = (int(v) for v in rng.integers(low, n, size=2))
        if kind == "raise":
            M[i, j] = M[j, i] = M[i, j] + rng.uniform(0.1, 3.0)
        elif kind == "lower":
            M[i, j] = M[j, i] = M[i, j] - rng.uniform(0.1, 3.0)
        elif kind == "diagonal":
            M[i, i] = rng.uniform(-0.5, 0.5)
        elif kind == "zero":
            M[i, j] = M[j, i] = 0.0
        elif kind == "skew":
            M[i, j] += rng.uniform(-0.5, 0.5)
        else:
            M[i, j] += rng.uniform(-1.0, 1.0) * AXIOM_TOL
    return M


class TestAxiomScreen:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(M=axiom_matrices())
    def test_report_equals_the_pivot_loop(self, M):
        assert verify_metric_axioms(M) == verify_metric_axioms_reference(M)


@functools.lru_cache(maxsize=None)
def cached_net(epsilon: float, dim: int):
    return epsilon_net(epsilon, dim)


@st.composite
def net_samples(draw, dim, k, centers):
    """Sample rows for the net solver: random norms up to a_200 and the edge
    cases below 1, exactly 1, exactly on a sphere, and on a center of sphere
    k."""
    rng = np.random.default_rng(draw(seeds))
    count = draw(st.integers(1, 12))
    U = random_directions(rng, count, dim)
    X = U * rng.uniform(0.0, harmonic_radius(200), size=(count, 1))
    axes = np.eye(dim)[rng.integers(0, dim, size=4)] * rng.choice([-1.0, 1.0], size=(4, 1))
    m = [int(v) for v in rng.integers(1, 201, size=2)]
    special = [
        0.5 * U[0],
        np.zeros(dim),
        axes[0],  # norm exactly 1
        harmonic_radius(m[0]) * axes[1],  # norm exactly a_m
        harmonic_radius(m[1]) * U[0],
        harmonic_radius(k) * axes[2],
        harmonic_radius(k + 1) * axes[3],
        harmonic_radius(200) * U[-1],
        centers[int(rng.integers(len(centers)))],
        centers[0],  # a center on sphere k
    ]
    rows = draw(st.lists(st.sampled_from(range(len(special))), max_size=6))
    return np.vstack([X] + [special[i][None, :] for i in rows])


class TestStackedNetSolver:
    """The stacked solve against one reference solve per sample, both given
    the candidate centers of ``EpsilonNet.candidate_centers``, which
    ``TestNetCandidates`` holds to a scan of the centers."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), case=st.sampled_from([(2, 0.99), (2, 0.9), (2, 0.8),
                                                 (3, 0.99), (3, 0.9), (3, 0.8)]))
    def test_bit_equal_to_per_sample_reference(self, data, case):
        dim, epsilon = case
        net = cached_net(epsilon, dim)
        X = data.draw(net_samples(dim, net.k, net.centers))
        reference = net_solver_reference(net.k)
        near = np.column_stack(net.candidate_centers(X))
        expected = [reference(x, net.centers, c) for x, c in zip(X, near)]
        assert make_net_solver()(X, net).tolist() == expected

    @pytest.mark.parametrize("dim", [2, 3])
    def test_blocks_do_not_change_bounds(self, dim, monkeypatch):
        net = cached_net(0.99, dim)
        rng = np.random.default_rng(dim)
        X = random_directions(rng, 40, dim) * rng.uniform(0.0, 8.0, size=(40, 1))
        expected = make_net_solver()(X, net)
        monkeypatch.setattr("chainmetric.sampler._NET_ROWS", 7)
        assert np.array_equal(make_net_solver()(X, net), expected)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_norm_beyond_the_cap_raises(self, dim):
        net = cached_net(0.99, dim)
        X = np.zeros((3, dim))
        X[1, 0] = 20.0  # a_{10^6} is about 14.39
        with pytest.raises(ValueError, match="beyond sphere index cap"):
            make_net_solver()(X, net)
        with pytest.raises(ValueError, match="beyond sphere index cap"):
            net_solver_reference(net.k)(X[1], net.centers, (-1, 0))


@st.composite
def lookup_points(draw, net, dim):
    """Points for the candidate-center lookup: random norms up to a_200, the
    origin, norms below 1 and exactly a_k and a_{k+1}; directions on cube
    edges and vertices (two or all coordinates equal in magnitude) and on
    boundaries of the sphere net's cells; and points on boundaries of the
    ball net's cells."""
    rng = np.random.default_rng(draw(seeds))
    count = draw(st.integers(1, 6))
    n, k = net.n, net.k
    U = random_directions(rng, count, dim)
    norms = lambda: rng.uniform(0.0, harmonic_radius(200), size=(count, 1))
    edges = U.copy()
    i, j = rng.choice(dim, size=2, replace=False)
    edges[:, j] = np.sign(edges[:, j]) * np.abs(edges[:, i])
    vertices = rng.choice([-1.0, 1.0], size=(count, dim))
    if dim == 2:
        angles = (rng.integers(0, n, size=count) + 0.5) * (2.0 * np.pi / n)
        walls = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        walls = -1.0 + 2.0 * rng.integers(0, n + 1, size=(count, dim)) / n
        pick = rng.random(size=(count, dim)) < 0.5
        walls = np.where(pick, walls, rng.uniform(-1.0, 1.0, size=(count, dim)))
        walls[np.arange(count), rng.integers(0, dim, size=count)] = rng.choice([-1.0, 1.0], count)
    axis, g = _ball_axis(harmonic_radius(k + 1), net.epsilon, dim)
    lattice = axis[rng.integers(0, len(axis), size=(count, dim))]
    half = lattice + np.where(rng.random(size=(count, dim)) < 0.5, g / 2.0, 0.0)
    kinds = [
        U * norms(),
        np.zeros((1, dim)),
        U * rng.uniform(0.0, 1.0, size=(count, 1)),
        harmonic_radius(k) * U,
        harmonic_radius(k + 1) * U,
        edges * norms(),
        vertices * norms(),
        walls * norms(),
        harmonic_radius(k) * walls / np.linalg.norm(walls, axis=1)[:, None],
        half,
    ]
    chosen = draw(st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=4, unique=True))
    return np.vstack([kinds[c] for c in chosen])


class TestNetCandidates:
    """``EpsilonNet.candidate_centers`` against a scan of the centers: its
    sphere center's cell holds the point's direction, and its ball center's
    cell holds the point, or no ball center's cell holds it inside."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), case=st.sampled_from([(2, 0.99), (2, 0.8), (3, 0.99), (3, 0.8),
                                                 (4, 0.9), (5, 0.99)]))
    def test_cells_hold_the_point(self, data, case):
        dim, epsilon = case
        net = cached_net(epsilon, dim)
        X = data.draw(lookup_points(net, dim))
        count = net.sphere_center_count
        sphere, ball = net.centers[:count], net.centers[count:]
        g = _ball_axis(harmonic_radius(net.k + 1), epsilon, dim)[1]
        for x, b, q in zip(X, *net.candidate_centers(X)):
            in_sphere, in_ball = net_cells_reference(x, sphere, ball, net.n, g, slack=1e-9)
            assert 0 <= q < count and in_sphere[q]
            if b >= 0:
                assert in_ball[b - count]
            else:
                assert not net_cells_reference(x, sphere, ball, net.n, g, slack=-1e-9)[1].any()


class TestBallNet:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=st.one_of(st.tuples(st.just(2), st.floats(1.0, 8.0)),
                          st.tuples(st.just(3), st.floats(1.0, 5.0)),
                          st.tuples(st.just(4), st.floats(1.0, 3.0)),
                          st.tuples(st.just(5), st.floats(1.0, 2.0))),
           epsilon=st.floats(0.6, 0.99))
    @example(case=(3, harmonic_radius(32)), epsilon=0.8)
    @example(case=(5, harmonic_radius(13)), epsilon=0.99)
    def test_bit_equal_to_the_whole_cube(self, case, epsilon):
        dim, radius = case
        rows, keys = _ball_net(radius, epsilon, dim)
        assert np.array_equal(rows, ball_net_reference(radius, epsilon, dim))
        axis, g = _ball_axis(radius, epsilon, dim)
        grid = np.rint((rows - axis[0]) / g).astype(np.int64)
        assert np.array_equal(np.ravel_multi_index(tuple(grid.T), (len(axis),) * dim), keys)


class TestSphereNet:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=st.one_of(st.tuples(st.just(3), st.integers(1, 20)),
                          st.tuples(st.just(4), st.integers(1, 10)),
                          st.tuples(st.just(5), st.integers(1, 6))),
           radius=st.floats(0.5, 15.0))
    @example(case=(3, 1), radius=1.0)
    @example(case=(5, 1), radius=2.5)
    def test_bit_equal_to_the_point_loop(self, case, radius):
        dim, n = case
        net = _sphere_net(radius, n, dim)
        assert np.array_equal(net, sphere_net_reference(radius, n, dim))
        assert len(net) == 2 * dim * n ** (dim - 1)
        assert len(np.unique(net, axis=0)) == len(net)
        assert np.abs(np.linalg.norm(net, axis=1) - radius).max() <= 1e-12 * radius

    def test_bit_equal_at_the_net_of_epsilon_099(self):
        radius, n = harmonic_radius(12), net_plan(0.99, 3).n
        assert np.array_equal(_sphere_net(radius, n, 3), sphere_net_reference(radius, n, 3))
