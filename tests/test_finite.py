import numpy as np
import pytest

from chainmetric.core import delta, verify_metric_axioms
from chainmetric.finite import (
    FiniteSpace,
    dphi_bruteforce,
    dphi_exact,
    parse_distance_matrix,
)

from conftest import random_finite_space


def test_single_point_space():
    space = FiniteSpace(distances=np.zeros((1, 1)))
    result = dphi_exact(space)
    assert result.values.shape == (1, 1)
    assert result.values[0, 0] == 0.0


def test_two_point_space_is_single_link():
    D = np.array([[0.0, 3.0], [3.0, 0.0]])
    space = FiniteSpace(distances=D)
    ctx = space.context()
    result = dphi_exact(space)
    assert result.values[0, 1] == pytest.approx(delta(ctx, 0, 1), abs=1e-15)
    brute = dphi_bruteforce(ctx, space)
    assert brute.values[0, 1] == result.values[0, 1]


def test_three_point_line_values(three_point_line):
    result = dphi_exact(three_point_line)
    assert result.values[1, 2] == pytest.approx(2.0 / 11.0, abs=1e-12)
    assert result.values[0, 1] == pytest.approx(12.0 / 11.0, abs=1e-12)
    assert result.values[0, 2] == pytest.approx(12.0 / 11.0, abs=1e-12)


def test_bruteforce_matches_exact_on_three_point_line(three_point_line):
    ctx = three_point_line.context()
    exact = dphi_exact(three_point_line).values
    brute = dphi_bruteforce(ctx, three_point_line).values
    assert np.max(np.abs(exact - brute)) < 1e-12


def test_oracle_equivalence_random_six_point_spaces(rng):
    for _ in range(100):
        space = random_finite_space(6, rng)
        ctx = space.context()
        exact = dphi_exact(space).values
        brute = dphi_bruteforce(ctx, space).values
        assert np.max(np.abs(exact - brute)) < 1e-12


def test_output_is_a_metric_below_link_cost(rng):
    for _ in range(20):
        space = random_finite_space(int(rng.integers(2, 8)), rng)
        ctx = space.context()
        values = dphi_exact(space).values
        assert verify_metric_axioms(values).ok
        n = len(space)
        for i in range(n):
            for j in range(n):
                assert values[i, j] <= delta(ctx, i, j) + 1e-15


def test_bruteforce_rejects_large_spaces(rng):
    space = random_finite_space(6, rng)
    with pytest.raises(ValueError):
        dphi_bruteforce(space.context(), space, max_points=5)


def test_rejects_invalid_distance_matrix():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        FiniteSpace(distances=bad)


@pytest.mark.parametrize("field", ["distances", "weights"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rejects_non_finite_entry(field, value):
    # NaN passes every comparison in the axiom and weight checks.
    matrices = {"distances": np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
                "weights": np.ones((3, 3))}
    matrices[field][0, 2] = matrices[field][2, 0] = value
    with pytest.raises(ValueError, match=rf"entry \(0, 2\) is {value}; {field} must be finite"):
        FiniteSpace(**matrices)


def test_parse_rejects_wrong_count():
    with pytest.raises(ValueError):
        parse_distance_matrix("2\n0 1\n1")
