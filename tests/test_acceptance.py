"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its measured quantities.  Run with -s to see the lines.
"""
import time

import numpy as np
import pytest

from chainmetric.completion import nonequivalence_experiment
from chainmetric.core import (
    Chain,
    chain_cost,
    delta,
    local_isometry_radius,
    lower_bound_certificate,
    verify_metric_axioms,
)
from chainmetric.finite import dphi_bruteforce, dphi_exact
from chainmetric.rays import (
    ConeParam,
    h_pq_ray,
    ray_crossings,
    ray_distance,
    ray_of,
    ray_through,
    spherical_distance,
    spherical_to_cartesian,
)
from chainmetric.sampler import (
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    convergence_run,
    euclid_context,
    make_net_solver,
)
from chainmetric.std_map import (
    boundary_map_h_std,
    boundary_map_k_std,
    epsilon_net,
    h_pq_std,
    harmonic_radius,
    net_index,
)

from conftest import random_finite_space


def report(number, label, detail=""):
    print(f"criterion {number} ({label}): PASS {detail}".rstrip())


def random_unit(rng, s):
    u = rng.normal(size=s)
    return u / np.linalg.norm(u)


@pytest.fixture(scope="module")
def oracle_runs():
    """200 random finite spaces with both solver outputs, shared by the
    first three criteria."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    runs = []
    for _ in range(200):
        space = random_finite_space(int(rng.integers(2, 9)), rng)
        ctx = space.context()
        exact = dphi_exact(space).values
        brute = dphi_bruteforce(ctx, space).values
        runs.append((space, ctx, exact, brute))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_01_oracle_equivalence(oracle_runs):
    runs, elapsed = oracle_runs
    worst = 0.0
    for _, _, exact, brute in runs:
        worst = max(worst, float(np.max(np.abs(exact - brute))))
    assert worst <= 1e-12
    assert elapsed < 30.0
    report(1, "oracle equivalence",
           f"200 spaces, max deviation {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_metric_axioms(oracle_runs):
    runs, _ = oracle_runs
    for _, _, exact, _ in runs:
        assert verify_metric_axioms(exact).ok
    report(2, "metric axioms", f"{len(runs)} exact matrices at 1e-12")


def test_criterion_03_lower_bound_and_sandwich(oracle_runs):
    runs, _ = oracle_runs
    pairs = 0
    for space, ctx, exact, _ in runs:
        n = len(space)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                pairs += 1
                d = space.distances[i, j]
                dm = space.distances[space.anchor_index, i]
                if abs(exact[i, j] - d) > 1e-9:
                    assert exact[i, j] >= 1.0 / (2.0 * (1.0 + dm)) - 1e-12
                lower = lower_bound_certificate(ctx, i, j)
                link = delta(ctx, i, j)
                assert lower <= exact[i, j] + 1e-12
                assert exact[i, j] <= link + 1e-15
                assert link <= d + 1e-15
    report(3, "lower bound and sandwich", f"{pairs} ordered pairs")


def test_criterion_04_local_isometry():
    checked = 0
    for s in (2, 3):
        ctx = euclid_context("std_phi", dim=s)
        cfg = SamplerConfig(dimension=s, max_sphere_index=1,
                            angular_resolution=2.0, seed=1)
        rng = np.random.default_rng(40 + s)
        for _ in range(50):
            x = random_unit(rng, s) * rng.uniform(0.0, 10.0)
            r = local_isometry_radius(ctx, x)
            # Euclidean distance dominates the transformed one, so points
            # this close to x are inside the transformed-metric ball too.
            y = x + random_unit(rng, s) * rng.uniform(0.0, r / 3.0)
            z = x + random_unit(rng, s) * rng.uniform(0.0, r / 3.0)
            nodes = build_sample(cfg, [y, z])
            graph = build_graph(ctx, nodes)
            value, _ = approx_dphi(graph, y, z)
            assert abs(value - np.linalg.norm(y - z)) <= 1e-9
            checked += 1
    report(4, "local isometry", f"{checked} point triples, s in {{2, 3}}")


def test_criterion_05_refinement_monotonicity():
    ctx = euclid_context("std_phi", dim=2)
    cfg = SamplerConfig(dimension=2, max_sphere_index=3,
                        angular_resolution=1.2, radial_steps=1, seed=5)
    rng = np.random.default_rng(50)
    for _ in range(20):
        x = random_unit(rng, 2) * rng.uniform(0.2, 4.0)
        y = random_unit(rng, 2) * rng.uniform(0.2, 4.0)
        rows = convergence_run(ctx, x, y, 4, cfg)
        values = [r[2] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    report(5, "refinement monotonicity", "20 pairs, 4 levels")


def test_criterion_06_cauchy_decay():
    ctx = euclid_context("std_phi", dim=2)
    rng = np.random.default_rng(60)
    directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                  random_unit(rng, 2)]
    pairs = 0
    for u in directions:
        pts = np.array([harmonic_radius(i) * u for i in range(1, 31)])
        from chainmetric.sampler import NodeSet

        nodes = NodeSet(points=pts, provenance=["radial"] * 30)
        graph = build_graph(ctx, nodes)
        for i in range(1, 31):
            for j in range(i + 1, 31):
                value, _ = approx_dphi(graph, pts[i - 1], pts[j - 1])
                bound = (1.0 / (1.0 + harmonic_radius(i))
                         + 1.0 / (1.0 + harmonic_radius(j)))
                assert value <= bound + 1e-12
                pairs += 1
    report(6, "Cauchy decay", f"{pairs} ladder pairs, 3 directions")


def test_criterion_07_epsilon_net():
    start = time.perf_counter()
    k = net_index(0.99)
    assert k == 12
    solver = make_net_solver()
    calls = []

    def counted(X, net):
        calls.append(X.shape)
        return solver(X, net)

    net = epsilon_net(0.99, 2, solver=counted, samples=10_000,
                      rng=np.random.default_rng(70))
    elapsed = time.perf_counter() - start
    assert calls == [(10_000, 2)]  # one stacked solve for all samples
    assert net.verification["covered"] == net.verification["samples"] == 10_000
    assert elapsed < 60.0
    report(7, "epsilon net",
           f"k=12, {len(net.centers)} centers, 10000 samples covered, "
           f"{elapsed:.2f}s")


def test_criterion_08_round_trips():
    rng = np.random.default_rng(80)
    for _ in range(1000):
        x = random_unit(rng, 2) * rng.uniform(0.0, 1.0)
        back = boundary_map_k_std(boundary_map_h_std(x))
        assert np.linalg.norm(back - x) <= 1e-12

    from chainmetric.rays import boundary_map_h_ray

    cone2 = ConeParam(delta=0.6, dim=2)
    for _ in range(50):
        u = random_unit(rng, 2)
        below = boundary_map_h_ray((0.5 - 1e-10) * u, cone2)
        above = boundary_map_h_ray((0.5 + 1e-10) * u, cone2)
        assert np.linalg.norm(below.point - above.point) <= 1e-9

    cone3 = ConeParam(delta=0.6, dim=3)
    for _ in range(50):
        p, q = int(rng.integers(1, 31)), int(rng.integers(1, 31))
        u2 = random_unit(rng, 2)
        x2 = harmonic_radius(p) * u2
        assert np.linalg.norm(h_pq_std(h_pq_std(x2, p, q), q, p) - x2) <= 1e-10
        x3 = harmonic_radius(p) * random_unit(rng, 3)
        back = h_pq_ray(h_pq_ray(x3, q, cone3), p, cone3)
        assert np.linalg.norm(back - x3) <= 1e-10
    report(8, "round trips",
           "1000 ball points at 1e-12, 50 junction pairs at 1e-9, "
           "50 identification round trips at 1e-10 per system")


def test_criterion_09_ray_separation_and_spherical_distance():
    cone = ConeParam(delta=0.6, dim=3)
    rng = np.random.default_rng(90)
    factor = 1.0 / (2.0 * np.sqrt(2.0))
    for _ in range(10_000):
        x, y = random_unit(rng, 3), random_unit(rng, 3)
        sep = ray_distance(ray_of(x, cone), ray_of(y, cone))
        assert sep >= factor * np.linalg.norm(x - y) - 1e-9

    worst = 0.0
    for _ in range(10_000):
        p1 = (rng.uniform(0.0, 5.0), rng.uniform(0.0, np.pi),
              rng.uniform(0.0, 2.0 * np.pi))
        p2 = (rng.uniform(0.0, 5.0), rng.uniform(0.0, np.pi),
              rng.uniform(0.0, 2.0 * np.pi))
        direct = spherical_distance(p1, p2)
        cart = np.linalg.norm(
            spherical_to_cartesian(p1) - spherical_to_cartesian(p2)
        )
        worst = max(worst, abs(direct - cart))
    assert worst <= 1e-12
    report(9, "ray separation and spherical distance",
           f"10000 pairs each, spherical max deviation {worst:.3g}")


def test_criterion_10_sphere_offset():
    cone = ConeParam(delta=0.6, dim=3)
    rng = np.random.default_rng(100)
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        norm = rng.uniform(harmonic_radius(m), harmonic_radius(m + 1))
        x = norm * random_unit(rng, 3)
        ray, _ = ray_through(x, cone)
        y = ray_crossings(ray.base[None, :], [harmonic_radius(m)], cone)[0, 0]
        assert np.linalg.norm(y - x) <= np.sqrt(2.0) / (m + 1) + 1e-9
    report(10, "sphere offset", "1000 between-sphere points, m up to 50")


def test_criterion_11_nonequivalence():
    rep = nonequivalence_experiment(0.6, 20)
    caps = [row[5] for row in rep.rows]
    for i, row in enumerate(rep.rows, start=1):
        assert row[2] >= 0.104482
        ai = harmonic_radius(i)
        assert row[5] == pytest.approx(2.0 / (1.0 + ai) + 0.3 / ai, abs=1e-12)
        assert row[4] <= row[5] + 1e-12
    assert all(b < a for a, b in zip(caps, caps[1:]))
    assert rep.verdict == "non-equivalent"
    report(11, "non-equivalence",
           f"min psi {min(r[2] for r in rep.rows):.6f} >= 0.104482, "
           f"cap at 20 = {caps[-1]:.6f}, caps strictly decreasing")


def test_criterion_12_chain_floor_spot_check():
    s = 3
    cone = ConeParam(delta=0.6, dim=s)
    std_ctx = euclid_context("std_phi", dim=s)
    ray_ctx = euclid_context("ray_psi", cone=cone, dim=s)
    rng = np.random.default_rng(120)
    for _ in range(1000):
        x = random_unit(rng, s) * rng.uniform(1.0, 4.0)
        y = random_unit(rng, s) * rng.uniform(1.0, 4.0)
        interior = [random_unit(rng, s) * rng.uniform(0.0, 0.999)
                    for _ in range(int(rng.integers(0, 5)))]
        chain = Chain([x] + interior + [y])
        std_floor = np.linalg.norm(
            x / np.linalg.norm(x) - y / np.linalg.norm(y)
        )
        assert chain_cost(std_ctx, chain) >= std_floor - 1e-9
        rx, _ = ray_through(x, cone)
        ry, _ = ray_through(y, cone)
        assert chain_cost(ray_ctx, chain) >= ray_distance(rx, ry) - 1e-9
    report(12, "chain cost floors", "1000 chains through the unit ball")
