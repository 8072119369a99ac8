import numpy as np
import pytest

from chainmetric.core import (
    Chain,
    MetricContext,
    certificate,
    chain_cost,
    delta,
    local_isometry_radius,
    lower_bound_certificate,
    verify_metric_axioms,
)
from chainmetric.finite import dphi_exact

from conftest import random_finite_space, zero_weight_context


class TestDelta:
    def test_coincident_points(self):
        ctx = zero_weight_context()
        x = np.array([3.0, 4.0])
        assert delta(ctx, x, x) == 0.0

    def test_detour_branch_wins_far_from_anchor(self):
        ctx = zero_weight_context()
        x, y = np.array([10.0, 0.0]), np.array([-10.0, 0.0])
        # 1/11 + 0 + 1/11 beats the direct distance 20
        assert delta(ctx, x, y) == pytest.approx(2.0 / 11.0, abs=1e-15)

    def test_distance_branch_wins_near_anchor(self):
        ctx = zero_weight_context()
        x, y = np.array([0.1, 0.0]), np.array([0.2, 0.0])
        assert delta(ctx, x, y) == pytest.approx(0.1, abs=1e-15)

    def test_symmetric_and_dominated_by_base(self, rng):
        ctx = zero_weight_context()
        for _ in range(50):
            x, y = rng.normal(size=2, scale=5), rng.normal(size=2, scale=5)
            d = delta(ctx, x, y)
            assert d == delta(ctx, y, x)
            assert 0.0 <= d <= np.linalg.norm(x - y) + 1e-15

    def test_rejects_non_finite(self):
        ctx = zero_weight_context()
        with pytest.raises(ValueError):
            delta(ctx, np.array([np.nan, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            delta(ctx, np.array([0.0, 0.0]), np.array([np.inf, 1.0]))

    @pytest.mark.parametrize("kind", [int, float, np.float64, np.int64])
    def test_scalar_points_price_as_one_coordinate_arrays(self, kind):
        # Points on the real line with an asymmetric weight, so the value
        # depends on the order that weight_sym gives the pair.
        ctx = MetricContext(base_distance=lambda x, y: abs(float(np.sum(x)) - float(np.sum(y))),
                            weight=lambda x, y: float(np.sum(x)) + 2.0 * float(np.sum(y)),
                            anchor=0.0)
        for x, y in [(3, -2), (-7, 5), (4, 4), (0, 9)]:
            expected = delta(ctx, np.array([float(x)]), np.array([float(y)]))
            assert delta(ctx, kind(x), kind(y)) == expected
            assert delta(ctx, kind(y), kind(x)) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
    def test_rejects_non_finite_scalars(self, bad):
        ctx = zero_weight_context(dim=1)
        with pytest.raises(ValueError, match="non-finite point rejected"):
            delta(ctx, bad, 0.0)
        with pytest.raises(ValueError, match="non-finite point rejected"):
            delta(ctx, 1, bad)


class TestChainCost:
    def test_two_point_chain_equals_delta(self):
        ctx = zero_weight_context()
        x, y = np.array([1.0, 2.0]), np.array([4.0, 6.0])
        assert chain_cost(ctx, Chain([x, y])) == delta(ctx, x, y)

    def test_repeated_point_is_free(self):
        ctx = zero_weight_context()
        x, z, y = np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0])
        assert chain_cost(ctx, Chain([x, z, z, y])) == pytest.approx(
            chain_cost(ctx, Chain([x, z, y])), abs=1e-15
        )

    def test_through_anchor_on_three_point_line(self, three_point_line):
        ctx = three_point_line.context()
        assert chain_cost(ctx, Chain([1, 0, 2])) == pytest.approx(24.0 / 11.0, abs=1e-12)

    def test_rejects_short_chains(self):
        with pytest.raises(ValueError):
            Chain([np.array([0.0, 0.0])])
        with pytest.raises(ValueError):
            Chain([])

    def test_loop_erasure_never_increases_cost(self, rng):
        ctx = zero_weight_context()
        pts = [rng.normal(size=2, scale=3) for _ in range(5)]
        looped = Chain([pts[0], pts[1], pts[2], pts[3], pts[1], pts[4]])
        erased = Chain([pts[0], pts[1], pts[4]])
        assert chain_cost(ctx, erased) <= chain_cost(ctx, looped) + 1e-15


class TestLowerBound:
    def test_coincident(self):
        ctx = zero_weight_context()
        x = np.array([2.0, 2.0])
        assert lower_bound_certificate(ctx, x, x) == 0.0

    def test_far_pair(self):
        ctx = zero_weight_context()
        x, y = np.array([10.0, 0.0]), np.array([-10.0, 0.0])
        assert lower_bound_certificate(ctx, x, y) == pytest.approx(1.0 / 22.0, abs=1e-15)

    def test_close_pair_uses_distance(self):
        ctx = zero_weight_context()
        x, y = np.array([0.0, 0.0]), np.array([0.001, 0.0])
        assert lower_bound_certificate(ctx, x, y) == pytest.approx(0.001, abs=1e-15)

    def test_sandwich_on_finite_spaces(self, rng):
        for _ in range(20):
            space = random_finite_space(int(rng.integers(2, 7)), rng)
            ctx = space.context()
            exact = dphi_exact(space).values
            n = len(space)
            for i in range(n):
                for j in range(n):
                    lo = lower_bound_certificate(ctx, i, j)
                    up = delta(ctx, i, j)
                    assert lo <= exact[i, j] + 1e-12
                    assert exact[i, j] <= up + 1e-12

    def test_certificate_bracket(self):
        ctx = zero_weight_context()
        cert = certificate(ctx, np.array([5.0, 0.0]), np.array([-5.0, 0.0]))
        assert cert.lower <= cert.upper


class TestLocalIsometryRadius:
    def test_at_anchor(self):
        ctx = zero_weight_context()
        assert local_isometry_radius(ctx, np.zeros(2)) == pytest.approx(0.125)

    def test_far_point(self):
        ctx = zero_weight_context()
        assert local_isometry_radius(ctx, np.array([10.0, 0.0])) == pytest.approx(
            1.0 / 88.0
        )

    def test_unit_distance(self):
        ctx = zero_weight_context()
        assert local_isometry_radius(ctx, np.array([1.0, 0.0])) == pytest.approx(0.0625)


class TestVerifyMetricAxioms:
    def test_passes_on_exact_output(self, three_point_line):
        report = verify_metric_axioms(dphi_exact(three_point_line).values)
        assert report.ok

    def test_flags_negative_entry(self):
        M = np.array([[0.0, -1.0], [-1.0, 0.0]])
        report = verify_metric_axioms(M)
        assert report.nonnegativity

    def test_flags_asymmetry(self):
        M = np.array([[0.0, 1.0], [2.0, 0.0]])
        report = verify_metric_axioms(M)
        assert report.symmetry

    def test_flags_triangle_violation(self):
        M = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        report = verify_metric_axioms(M)
        assert report.triangle
        i, k, j, slack = report.triangle[0]
        assert M[i, j] > M[i, k] + M[k, j]

    def test_flags_nonzero_diagonal(self):
        M = np.array([[0.5, 1.0], [1.0, 0.0]])
        assert verify_metric_axioms(M).identity

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            verify_metric_axioms(np.zeros((2, 3)))
