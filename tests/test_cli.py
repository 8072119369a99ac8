import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmetric.cli import MAX_NET_SAMPLES, main
from chainmetric.core import certificate, delta as link_cost, lower_bound_certificate
from chainmetric.finite import FiniteSpace, link_table
from chainmetric.sampler import euclid_context
from chainmetric.rays import ConeParam, ray_through
from chainmetric.std_map import M_MAX_DEFAULT, EpsilonNet, harmonic_radius, net_plan
from conftest import random_finite_space
from reference import (ball_net_reference, dijkstra_reference, link_table_reference,
                       net_cells_reference, net_solver_reference,
                       ray_distance_reference, ray_of_reference, sphere_net_reference)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


class TestDist:
    def test_identical_points_bracket_is_zero(self, runner):
        result = invoke(runner, ["dist", "1.0,1.0", "1.0,1.0"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "lower 0"
        assert lines[1] == "upper 0"

    def test_bracket_order(self, runner):
        result = invoke(runner, ["dist", "1,0", "0,1"])
        assert result.exit_code == 0
        fields = dict(
            line.split(" ", 1) for line in result.output.splitlines()
        )
        lower, upper, delta = (float(fields[k]) for k in ("lower", "upper", "delta"))
        assert lower <= upper <= delta + 1e-12
        witness = [
            np.array([float(v) for v in part.split(",")])
            for part in fields["witness"].split(" | ")
        ]
        assert np.allclose(witness[0], [1, 0])
        assert np.allclose(witness[-1], [0, 1])

    def test_ray_weight_accepted(self, runner):
        result = invoke(runner, ["--weight", "ray_psi", "--delta", "0.6",
                                 "dist", "1,0", "0.5,0.5"])
        assert result.exit_code == 0

    def test_dimension_mismatch_is_usage_error(self, runner):
        result = invoke(runner, ["dist", "1,0", "1,0,0"])
        assert result.exit_code == 2

    def test_bad_point_is_usage_error(self, runner):
        result = invoke(runner, ["dist", "1;0", "0,1"])
        assert result.exit_code == 2

    def test_nan_coordinate_is_usage_error(self, runner):
        result = invoke(runner, ["dist", "nan,0", "0,1"])
        assert result.exit_code == 2

    def test_overflowing_norm_is_usage_error(self, runner):
        for args in (["dist"], ["--weight", "ray_psi", "dist"], ["converge"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = invoke(runner, args + ["1e300,0", "0,1"])
            assert result.exit_code == 2
            assert "beyond sphere index cap 1000000" in result.output
            assert caught == []

    def test_norm_beyond_sphere_cap_is_usage_error(self, runner):
        result = invoke(runner, ["dist", "20,0", "0,1"])
        assert result.exit_code == 2

    # Each sample is counted from the config and rejected before it is built:
    # 1.3M nodes, then about 1e302 and an uncountable number of directions.
    @pytest.mark.parametrize("flags", [["--spheres", "100000"], ["--resolution", "1e-300"],
                                       ["--resolution", "5e-324"]])
    def test_oversized_sample_is_usage_error(self, runner, flags):
        result = invoke(runner, flags + ["dist", "1,0", "0,1"])
        assert result.exit_code == 2
        assert "more than 5000 nodes" in result.output

    def test_ray_weight_beyond_sphere_cap_is_usage_error(self, runner):
        result = invoke(runner, ["--weight", "ray_psi", "dist", "0,20", "0,1"])
        assert result.exit_code == 2

    def test_negative_radial_steps_is_usage_error(self, runner):
        result = invoke(runner, ["--radial-steps", "-1", "dist", "3,0", "0,3"])
        assert result.exit_code == 2

    # One endpoint at the edge of a sphere's tau band (tau = 1e-9), just
    # inside or outside it, or just beyond the last sphere below the cap;
    # converge prints only upper bounds, so its bracket ends are computed here.
    @settings(max_examples=48, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["dist", "converge"]),
           weight=st.sampled_from(["std_phi", "ray_psi"]), dim=st.sampled_from([2, 3]),
           m=st.integers(1, 12), factor=st.sampled_from([1.0, -1.0, 1.01, -1.01, None]),
           seed=st.integers(0, 2**32 - 1))
    def test_bracket_order_at_the_tau_band_and_the_cap(self, command, weight, dim, m, factor,
                                                        seed):
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(2, dim))
        U /= np.linalg.norm(U, axis=1)[:, None]
        if factor is None:
            norm = harmonic_radius(M_MAX_DEFAULT - 1) * (1.0 + 1e-12)
        else:
            norm = harmonic_radius(m) * (1.0 + factor * 1e-9)
        x, y = norm * U[0], rng.uniform(0.0, 3.0) * U[1]
        points = [",".join("%.17g" % v for v in p) for p in (x, y)]
        if command == "dist":
            result = invoke(CliRunner(), ["--weight", weight, "dist", *points])
        else:
            result = invoke(CliRunner(), ["--weight", weight, "converge", "--levels", "2",
                                          *points])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        if command == "dist":
            fields = dict(line.split(" ", 1) for line in lines)
            lower, delta = float(fields["lower"]), float(fields["delta"])
            uppers = [float(fields["upper"])]
        else:
            ctx = euclid_context(weight, dim=dim)
            lower, delta = lower_bound_certificate(ctx, x, y), certificate(ctx, x, y).upper
            uppers = [float(line.split(",")[2]) for line in lines[1:]]
        for upper in uppers:
            assert lower <= upper + 1e-12 <= delta + 2e-12

    def test_negative_first_coordinate_needs_no_separator(self, runner):
        plain = invoke(runner, ["dist", "0,1", "-1.2,0.3"])
        separated = invoke(runner, ["dist", "--", "0,1", "-1.2,0.3"])
        assert plain.exit_code == 0
        assert plain.output == separated.output
        assert plain.output.splitlines()[3].endswith("| -1.2,0.29999999999999999")

    def test_misspelt_option_is_usage_error(self, runner):
        assert invoke(runner, ["dist", "0,1", "1,0", "--level", "3"]).exit_code == 2
        assert invoke(runner, ["dist", "--level", "0,1"]).exit_code == 2

    def test_internal_value_error_is_not_usage_error(self, runner, monkeypatch):
        def broken(*args):
            raise ValueError("invalid bracket")

        monkeypatch.setattr("chainmetric.cli.certificate", broken)
        result = runner.invoke(main, ["dist", "1,0", "0,1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)


class TestOracle:
    def test_three_point_line_values(self, runner, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("3\n0 10 10\n10 0 20\n10 20 0\n")
        result = invoke(runner, ["oracle", str(path)])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "3"
        values = np.array([[float(v) for v in line.split()]
                           for line in lines[1:]])
        assert values[1, 2] == pytest.approx(2.0 / 11.0, abs=1e-12)
        assert values[0, 1] == pytest.approx(12.0 / 11.0, abs=1e-12)

    def test_invalid_matrix_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n2 0\n")
        result = invoke(runner, ["oracle", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_entry_is_usage_error_without_warnings(self, runner, tmp_path, entry):
        path = tmp_path / "bad.txt"
        path.write_text(f"3\n0 1 {entry}\n1 0 1\n{entry} 1 0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(runner, ["oracle", str(path)])
        assert result.exit_code == 2
        assert f"entry (0, 2) is {entry}" in result.output
        assert "Warning" not in result.output
        assert caught == []

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_stdout_equals_the_scalar_reference(self, runner, tmp_path, rng, n):
        D = random_finite_space(n, rng).distances
        anchor = int(rng.integers(n))
        path = tmp_path / "space.txt"
        write_space(path, D)
        result = invoke(runner, ["oracle", str(path), "--anchor", str(anchor)])
        assert result.exit_code == 0
        assert result.output == expected_oracle_stdout(FiniteSpace(D, anchor_index=anchor))

    def test_calls_delta_once_per_tree_edge(self, runner, tmp_path, rng, monkeypatch):
        # The certificate prices the n - 1 edges of the anchor's shortest-path
        # tree; a per-pair scalar link table would make n(n - 1)/2 calls.
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return link_cost(*args)

        for module in ("core", "finite", "cli"):
            monkeypatch.setattr(f"chainmetric.{module}.delta", counted)
        n = 12
        path = tmp_path / "space.txt"
        write_space(path, random_finite_space(n, rng).distances)
        result = invoke(runner, ["oracle", str(path), "--anchor", "5"])
        assert result.exit_code == 0
        assert len(calls) == n - 1
        assert all(i < j for i, j in calls)

    def test_table_off_by_one_ulp_is_certificate_violation(self, runner, tmp_path, rng,
                                                           monkeypatch):
        def nudged(space):
            table = link_table(space)
            return np.where(table > 0.0, np.nextafter(table, np.inf), table)

        monkeypatch.setattr("chainmetric.finite.link_table", nudged)
        path = tmp_path / "space.txt"
        write_space(path, random_finite_space(7, rng).distances)
        result = invoke(runner, ["oracle", str(path), "--anchor", "3"])
        assert result.exit_code == 1
        assert "certificate violation" in result.output


def write_space(path, D):
    """The text format, each entry with FMT's 17 digits, so it parses back
    to the same floats."""
    path.write_text(f"{len(D)}\n" + "".join(
        " ".join("{:.17g}".format(v) for v in row) + "\n" for row in D))


def expected_oracle_stdout(space):
    """``oracle`` stdout rebuilt from the scalar link-cost loop and one heap
    Dijkstra per source, each value formatted on its own."""
    table = link_table_reference(space)
    lines = [str(len(space))]
    for s in range(len(space)):
        lines.append(" ".join("{:.17g}".format(v) for v in dijkstra_reference(table, s)[0]))
    return "\n".join(lines) + "\n"


def expected_net_stdout(epsilon, dim, samples, seed):
    """``net`` stdout rebuilt from the reference sphere and ball nets of the
    planned size, the candidate centers a scan of them finds (the first
    whose cell holds the sample), the per-sample reference solver and the
    certificate."""
    plan = net_plan(epsilon, dim)
    k = plan.k
    sphere = sphere_net_reference(harmonic_radius(k), plan.n, dim)
    ball = ball_net_reference(harmonic_radius(k + 1), epsilon, dim)
    centers = np.vstack([sphere, ball])
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = rng.uniform(0.0, harmonic_radius(200), size=samples)[:, None] * dirs
    solve = net_solver_reference(k)
    bounds = []
    for x in X:
        in_sphere, in_ball = net_cells_reference(x, sphere, ball, plan.n, epsilon / np.sqrt(dim))
        near = (len(sphere) + int(np.argmax(in_ball)) if in_ball.any() else -1,
                int(np.argmax(in_sphere)))
        bounds.append(solve(x, centers, near))
    row = "%d," + ",".join(["%.17g"] * dim)
    lines = [f"# epsilon-net k={k} centers={len(centers)}"]
    lines += [row % (i, *c) for i, c in enumerate(centers.tolist())]
    lines.append(json.dumps({
        "epsilon": epsilon, "k": k, "center_count": len(centers), "samples": samples,
        "max_min_distance": max(bounds), "covered": sum(b < epsilon for b in bounds),
        "certified_radius": plan.certified_radius,
    }))
    return "\n".join(lines) + "\n"


def expected_rays_stdout(samples, delta, dim, seed):
    """``rays`` stdout rebuilt one pair at a time: the reference rays of two
    drawn bases, their reference distance and the floor, each value formatted
    on its own."""
    cone = ConeParam(delta=delta, dim=dim)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(samples, 2, dim))
    U /= np.linalg.norm(U, axis=2)[..., None]
    lines = []
    for u in U:
        r1, r2 = ray_of_reference(u[0], cone), ray_of_reference(u[1], cone)
        floor = 1.0 / (2.0 * np.sqrt(2.0)) * float(np.linalg.norm(u[0] - u[1]))
        values = [*r1.base, *r1.direction, *r2.base, *r2.direction,
                  ray_distance_reference(r1, r2), floor]
        lines.append(" ".join("{:.17g}".format(v) for v in values) + "\n")
    return "".join(lines)


def first_difference(got: str, want: str) -> str:
    """The first differing line of two outputs, cheap to report however long
    they are."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {i}: {a!r} != {b!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


class TestNet:
    @pytest.mark.parametrize("dim, epsilon", [(2, 0.8), (3, 0.99)])
    def test_output_matches_the_references(self, runner, dim, epsilon):
        result = invoke(runner, ["--seed", "7", "net", "--epsilon", str(epsilon),
                                 "-s", str(dim), "--samples", "30"])
        assert result.exit_code == 0
        expected = expected_net_stdout(epsilon, dim, 30, 7)
        same = result.output == expected
        assert same, first_difference(result.output, expected)

    def test_blocks_do_not_change_the_output(self, runner, monkeypatch):
        args = ["--seed", "3", "net", "--epsilon", "0.9", "--samples", "20"]
        expected = invoke(runner, args).output
        monkeypatch.setattr("chainmetric.cli.TABLE_BLOCK", 7)
        assert invoke(runner, args).output == expected

    def test_coarse_net_reports_coverage(self, runner):
        result = invoke(runner, ["net", "--epsilon", "0.99", "--samples", "200"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("# epsilon-net k=12 ")
        verification = json.loads(lines[-1])
        assert verification["covered"] == verification["samples"] == 200
        assert verification["max_min_distance"] <= verification["certified_radius"] < 0.99

    # The 5-D net is estimated at 1.2e9 centres (a 64^5 ball grid cube and
    # 1.3e8 sphere centres), the net at s = 10^9 at e^100 as its size logs
    # are clipped, and epsilon = 0.2 needs a sphere index past 10^6.
    @pytest.mark.parametrize("args, message", [
        (["--epsilon", "0.5", "-s", "5"], "exceeds the cap"),
        (["--epsilon", "0.9", "-s", "1000000000"], "exceeds the cap"),
        (["--epsilon", "0.2"], "sphere index beyond the cap"),
    ])
    def test_oversized_net_is_usage_error(self, runner, args, message):
        result = invoke(runner, ["net", *args, "--samples", "10"])
        assert result.exit_code == 2
        assert message in result.output

    def test_readme_4d_net_is_accepted(self):
        net_plan(0.95, 4).check()

    @pytest.mark.parametrize("verify", ["--verify", "--no-verify"])
    def test_certificate_at_epsilon_is_violation(self, runner, monkeypatch, verify):
        # Spending more than the whole slack on the sphere net's covering
        # radius lifts the certificate above epsilon.
        monkeypatch.setattr("chainmetric.std_map.SPHERE_SHARE", 1.2)
        result = invoke(runner, ["net", "--epsilon", "0.9", "--samples", "20", verify])
        assert result.exit_code == 1
        assert "certificate violation" in result.output

    def test_sample_beyond_the_certificate_is_violation(self, runner, monkeypatch):
        monkeypatch.setattr("chainmetric.std_map.net_plan", lambda epsilon, s: dataclasses.replace(
            net_plan(epsilon, s), certified_radius=0.1))
        args = ["net", "--epsilon", "0.9", "--samples", "20"]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert "certificate violation" in result.output
        assert invoke(runner, args + ["--no-verify"]).exit_code == 0

    def test_bad_epsilon_is_usage_error(self, runner):
        result = invoke(runner, ["net", "--epsilon", "2.0"])
        assert result.exit_code == 2

    def test_bad_dimension_is_usage_error(self, runner):
        result = invoke(runner, ["net", "--epsilon", "0.9", "--dimension", "1"])
        assert result.exit_code == 2


    def test_negative_samples_is_usage_error(self, runner):
        result = invoke(runner, ["net", "--epsilon", "0.9", "--samples", "-5"])
        assert result.exit_code == 2

    def test_zero_samples_is_usage_error(self, runner):
        result = invoke(runner, ["net", "--epsilon", "0.9", "--samples", "0"])
        assert result.exit_code == 2

    def test_samples_beyond_the_cap_is_usage_error(self, runner, monkeypatch):
        asked = []

        def no_net(epsilon, s, solver=None, samples=0, rng=None):
            asked.append(samples)  # a stand-in: nothing is drawn or allocated
            return EpsilonNet(epsilon=epsilon, k=1, n=1, centers=np.zeros((0, s)),
                              sphere_center_count=0, certified_radius=0.0,
                              ball_keys=np.zeros(0, dtype=np.int64))

        monkeypatch.setattr("chainmetric.cli.epsilon_net", no_net)
        args = ["net", "--epsilon", "0.9", "--no-verify", "--samples"]
        assert invoke(runner, args + [str(MAX_NET_SAMPLES)]).exit_code == 0
        result = invoke(runner, args + [str(MAX_NET_SAMPLES + 1)])
        assert result.exit_code == 2
        assert "--samples" in result.output
        assert asked == [MAX_NET_SAMPLES]

    def test_no_verify_prints_the_centre_table_only(self, runner):
        args = ["--seed", "3", "net", "--epsilon", "0.9", "--samples", "20"]
        verified = invoke(runner, args).output.splitlines()
        result = invoke(runner, args + ["--no-verify"])
        assert result.exit_code == 0
        assert result.output.splitlines() == verified[:-1]
        assert json.loads(verified[-1])["samples"] == 20


class TestConverge:
    def test_table_is_monotone(self, runner):
        result = invoke(runner, ["--spheres", "3", "--resolution", "1.0",
                                 "converge", "2,0", "0,2", "--levels", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "level,node_count,upper_bound"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_dimension_mismatch_is_usage_error(self, runner):
        result = invoke(runner, ["converge", "1,0", "1,0,0"])
        assert result.exit_code == 2

    def test_zero_levels_is_usage_error(self, runner):
        result = invoke(runner, ["converge", "--levels", "0", "1,0", "0,1"])
        assert result.exit_code == 2

    def test_norm_beyond_sphere_cap_is_usage_error(self, runner):
        result = invoke(runner, ["converge", "20,0", "0,1"])
        assert result.exit_code == 2

    # The finer level alone may hold 3519 nodes, and the graph that merges
    # it with the 1770 of the first level up to 5289.
    def test_oversized_refinement_is_usage_error(self, runner):
        result = invoke(runner, ["--resolution", "0.018", "converge", "2,0", "0,2",
                                 "--levels", "2"])
        assert result.exit_code == 2
        assert "more than 5000 nodes" in result.output

    def test_negative_radial_steps_is_usage_error(self, runner):
        result = invoke(runner, ["--radial-steps", "-1", "converge", "3,0", "0,3"])
        assert result.exit_code == 2

    def test_negative_first_coordinate_needs_no_separator(self, runner):
        plain = invoke(runner, ["converge", "-1.2,0.3", "0,-1", "--levels", "2"])
        separated = invoke(runner, ["converge", "--levels", "2", "--", "-1.2,0.3", "0,-1"])
        assert plain.exit_code == 0
        assert plain.output == separated.output
        assert len(plain.output.splitlines()) == 3

    def test_misspelt_option_is_usage_error(self, runner):
        result = invoke(runner, ["converge", "1,0", "0,1", "--level", "3"])
        assert result.exit_code == 2
        assert "--level" in result.output

    def test_internal_value_error_is_not_usage_error(self, runner, monkeypatch):
        def broken(*args):
            raise ValueError("bend angle inside a cone")

        monkeypatch.setattr("chainmetric.cli.convergence_run", broken)
        result = runner.invoke(main, ["converge", "1,0", "0,1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)


class TestNoneq:
    def test_report_and_verdict(self, runner):
        result = invoke(runner, ["noneq", "--delta", "0.6", "--horizon", "6"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "i,a_i,psi_measured,psi_floor,phi_measured,phi_cap"
        summary = json.loads("\n".join(lines[7:]))
        assert summary["verdict"] == "non-equivalent"
        assert summary["floor"] == pytest.approx(0.104482, abs=1e-6)

    def test_bad_delta_is_usage_error(self, runner):
        result = invoke(runner, ["noneq", "--delta", "1.2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("horizon", [M_MAX_DEFAULT, 10**12])
    def test_horizon_beyond_sphere_cap_is_usage_error(self, runner, horizon):
        result = invoke(runner, ["noneq", "--horizon", str(horizon)])
        assert result.exit_code == 2
        assert "sphere index cap" in result.output

    def test_delta_defaults_to_the_group_delta(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.3}))
        for args, delta in [(["--delta", "0.3"], 0.3), (["--config", str(cfg)], 0.3),
                            (["--delta", "0.3", "--config", str(cfg)], 0.3), ([], 0.6)]:
            result = invoke(runner, args + ["noneq", "--horizon", "5"])
            assert result.exit_code == 0
            assert json.loads("\n".join(result.output.splitlines()[6:]))["delta"] == delta
        result = invoke(runner, ["--delta", "0.3", "noneq", "--delta", "0.5", "--horizon", "5"])
        assert json.loads("\n".join(result.output.splitlines()[6:]))["delta"] == 0.5


class TestRayInversionFailure:
    """A point farther than the residual tolerance from the ray found through
    it is a certificate violation; a point inside the unit ball is bad input."""

    @pytest.mark.parametrize("args", [["dist", "2,1", "0,3"],
                                      ["converge", "--levels", "1", "2,1", "0,3"],
                                      ["noneq", "--horizon", "5"]])
    def test_residual_failure_is_certificate_violation(self, runner, monkeypatch, args):
        monkeypatch.setattr("chainmetric.rays._RESIDUAL_TOL", -1.0)
        result = runner.invoke(main, ["--weight", "ray_psi"] + args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "certificate violation: ray search failed to converge" in result.output
        assert "Traceback" not in result.output

    def test_point_inside_ball_is_usage_error(self, runner, monkeypatch):
        def shrunk(y, cone):
            return ray_through(0.5 * y / np.linalg.norm(y), cone)

        monkeypatch.setattr("chainmetric.sampler.ray_through", shrunk)
        result = runner.invoke(main, ["--weight", "ray_psi", "dist", "2,1", "0,3"])
        assert result.exit_code == 2
        assert "inside the unit ball" in result.output
        assert "certificate violation" not in result.output


class TestBoundary:
    def test_h_map_interior(self, runner):
        result = invoke(runner, ["boundary", "--map", "h", "0.5,0"])
        assert result.output.strip() == "interior 1,0"

    def test_k_inverts_h(self, runner):
        result = invoke(runner, ["boundary", "--map", "k", "0.25,0.25"])
        kind, coords = result.output.split()
        assert kind == "ball"
        point = np.array([float(v) for v in coords.split(",")])
        assert np.allclose(point, [0.25, 0.25], atol=1e-12)

    def test_h_ray_at_infinity(self, runner):
        result = invoke(runner, ["--delta", "0.6", "boundary",
                                 "--map", "h-ray", "1,0"])
        assert result.exit_code == 0
        assert result.output.startswith("at_infinity")

    def test_outside_ball_is_usage_error(self, runner):
        result = invoke(runner, ["boundary", "--map", "h", "2,0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("which", ["h", "k", "h-ray"])
    def test_huge_coordinate_is_usage_error_without_warnings(self, runner, which):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(runner, ["boundary", "--map", which, "--", "1e300,0"])
        assert result.exit_code == 2
        assert "outside the closed unit ball" in result.output
        assert caught == []


class TestRaysSweep:
    def test_separation_floor_holds(self, runner):
        result = invoke(runner, ["rays", "--samples", "100", "--delta", "0.6"])
        assert result.exit_code == 0
        for line in result.output.splitlines():
            fields = [float(v) for v in line.split()]
            sep, floor = fields[-2], fields[-1]
            assert sep >= floor - 1e-9


    def test_zero_samples_is_usage_error(self, runner):
        result = invoke(runner, ["rays", "--samples", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("dim, delta, samples", [(2, 0.05, 7), (3, 0.6, 40), (4, 0.78, 9)])
    def test_output_matches_the_per_pair_reference(self, runner, dim, delta, samples):
        result = invoke(runner, ["--seed", "11", "rays", "--samples", str(samples),
                                 "--delta", str(delta), "-s", str(dim)])
        assert result.exit_code == 0
        assert result.output == expected_rays_stdout(samples, delta, dim, 11)

    def test_blocks_do_not_change_the_output(self, runner, monkeypatch):
        args = ["--seed", "4", "rays", "--samples", "23", "-s", "3"]
        expected = invoke(runner, args).output
        for block in (1, 5, 23):
            monkeypatch.setattr("chainmetric.cli.TABLE_BLOCK", block)
            assert invoke(runner, args).output == expected

    def test_delta_defaults_to_the_group_delta(self, runner):
        own = invoke(runner, ["rays", "--samples", "5", "--delta", "0.3"]).output
        assert invoke(runner, ["--delta", "0.3", "rays", "--samples", "5"]).output == own
        assert invoke(runner, ["rays", "--samples", "5"]).output != own


# A run whose output shows every sampler setting: node counts per level.
CONVERGE = ["converge", "--levels", "2", "1,2,0.5", "-2,0.3,1"]


class TestConfigAndDeterminism:
    def test_config_file_applies_and_flags_win(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.txt"
        cfg.write_text(json.dumps({
            "weight_kind": "ray_psi", "delta": 0.5, "seed": 7, "max_sphere_index": 3,
            "angular_resolution": "0.8", "radial_steps": 3, "output": str(out),
        }))
        flags = {"--weight": "ray_psi", "--delta": "0.5", "--seed": "7", "--spheres": "3",
                 "--resolution": "0.8", "--radial-steps": "3"}
        as_args = lambda given: [token for item in given.items() for token in item]
        expected = invoke(runner, as_args(flags) + CONVERGE).output
        assert expected != invoke(runner, CONVERGE).output
        result = invoke(runner, ["--config", str(cfg)] + CONVERGE)
        assert result.exit_code == 0
        assert result.output == ""
        assert out.read_text() == expected
        # A flag beats the config entry for the same option.
        four = invoke(runner, as_args({**flags, "--spheres": "4"}) + CONVERGE).output
        assert four != expected
        result = invoke(runner, ["--config", str(cfg), "--spheres", "4", "--output", ""]
                        + CONVERGE)
        assert result.output == four

    # Each entry is parsed as its flag is: a bad value or an unknown key is a
    # usage error for every command, never a traceback or a silent default.
    @pytest.mark.parametrize("entry", [{"seed": "x"}, {"weight_kind": "nope"}, {"spheres": 3},
                                       {"max_sphere_index": 2.7}, {"output": 5},
                                       {"seed": True}, {"delta": [0.3]}, {"seed": -1}])
    @pytest.mark.parametrize("command", [["dist", "1,0", "0,1"],
                                         ["net", "--epsilon", "0.9", "--samples", "5"],
                                         ["rays", "--samples", "2"]])
    def test_bad_config_entry_is_usage_error(self, runner, tmp_path, entry, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        result = runner.invoke(main, ["--config", str(cfg)] + command)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        error = result.output.splitlines()[-1]
        assert error.startswith("Error: Invalid value for '--config'")
        assert repr(next(iter(entry))) in error  # the config key, not its flag

    def test_same_seed_byte_identical(self, runner):
        args = ["--seed", "3", "net", "--epsilon", "0.9", "--dimension", "3",
                "--samples", "50"]
        out1 = invoke(runner, args).output
        out2 = invoke(runner, args).output
        assert out1 == out2

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "out.txt"
        result = invoke(runner, ["--output", str(target),
                                 "dist", "1,0", "0,1"])
        assert result.exit_code == 0
        assert target.read_text().startswith("lower ")

    def test_unwritable_output_is_usage_error(self, runner, tmp_path):
        target = tmp_path / "missing" / "x"
        result = invoke(runner, ["--output", str(target), "dist", "1,0", "0,1"])
        assert result.exit_code == 2
        assert "cannot write --output" in result.output

    def test_missing_config_is_usage_error(self, runner):
        result = invoke(runner, ["--config", "/nonexistent.json",
                                 "dist", "1,0", "0,1"])
        assert result.exit_code == 2

    def test_non_object_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        result = invoke(runner, ["--config", str(cfg), "dist", "1,0", "0,1"])
        assert result.exit_code == 2


def readme_commands() -> list:
    """The ``chainmetric`` lines of the README's CLI block, as argument lists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("chainmetric ")]


def test_readme_cli_examples_run(runner, tmp_path):
    commands = readme_commands()
    assert len(commands) >= 8
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("space.txt").write_text("3\n0 10 10\n10 0 20\n10 20 0\n")
        for args in commands:
            result = invoke(runner, args)
            assert result.exit_code == 0, (args, result.output)
