import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmetric.cli import main
from chainmetric.std_map import M_MAX_DEFAULT, _ball_net, harmonic_radius, net_index
from reference import net_solver_reference, sphere_net_reference


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
        result = invoke(runner, ["dist", "1e300,0", "0,1"])
        assert result.exit_code == 2

    def test_norm_beyond_sphere_cap_is_usage_error(self, runner):
        result = invoke(runner, ["dist", "20,0", "0,1"])
        assert result.exit_code == 2

    def test_ray_weight_beyond_sphere_cap_is_usage_error(self, runner):
        result = invoke(runner, ["--weight", "ray_psi", "dist", "0,20", "0,1"])
        assert result.exit_code == 2

    def test_negative_radial_steps_is_usage_error(self, runner):
        result = invoke(runner, ["--radial-steps", "-1", "dist", "3,0", "0,3"])
        assert result.exit_code == 2

    # One endpoint at the edge of a sphere's tau band (tau = 1e-9), just
    # inside or outside it, or just beyond the last sphere below the cap.
    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(weight=st.sampled_from(["std_phi", "ray_psi"]), dim=st.sampled_from([2, 3]),
           m=st.integers(1, 12), factor=st.sampled_from([1.0, -1.0, 1.01, -1.01, None]),
           seed=st.integers(0, 2**32 - 1))
    def test_bracket_order_at_the_tau_band_and_the_cap(self, weight, dim, m, factor, seed):
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(2, dim))
        U /= np.linalg.norm(U, axis=1)[:, None]
        if factor is None:
            norm = harmonic_radius(M_MAX_DEFAULT - 1) * (1.0 + 1e-12)
        else:
            norm = harmonic_radius(m) * (1.0 + factor * 1e-9)
        x, y = norm * U[0], rng.uniform(0.0, 3.0) * U[1]
        points = [",".join("%.17g" % v for v in p) for p in (x, y)]
        result = invoke(CliRunner(), ["--weight", weight, "dist", *points])
        assert result.exit_code == 0, result.output
        fields = dict(line.split(" ", 1) for line in result.output.splitlines())
        lower, upper, delta = (float(fields[k]) for k in ("lower", "upper", "delta"))
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


def expected_net_stdout(epsilon, dim, samples, seed):
    """``net`` stdout rebuilt from the reference sphere net, the ball net and
    the per-sample reference solver."""
    k = net_index(epsilon)
    centers = np.vstack([sphere_net_reference(harmonic_radius(k), epsilon / 4.0, dim),
                         _ball_net(harmonic_radius(k + 1), epsilon, dim)])
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = rng.uniform(0.0, harmonic_radius(200), size=samples)[:, None] * dirs
    solve = net_solver_reference(k)
    bounds = [solve(x, centers) for x in X]
    row = "%d," + ",".join(["%.17g"] * dim)
    lines = [f"# epsilon-net k={k} centers={len(centers)}"]
    lines += [row % (i, *c) for i, c in enumerate(centers.tolist())]
    lines.append(json.dumps({
        "epsilon": epsilon, "k": k, "center_count": len(centers), "samples": samples,
        "max_min_distance": max(bounds), "covered": sum(b < epsilon for b in bounds),
    }))
    return "\n".join(lines) + "\n"


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
        monkeypatch.setattr("chainmetric.cli.NET_BLOCK", 7)
        assert invoke(runner, args).output == expected

    def test_coarse_net_reports_coverage(self, runner):
        result = invoke(runner, ["net", "--epsilon", "0.99", "--samples", "200"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("# epsilon-net k=12 ")
        verification = json.loads(lines[-1])
        assert verification["covered"] == verification["samples"] == 200

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


class TestConfigAndDeterminism:
    def test_config_file_applies_and_flags_win(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight_kind": "std_phi", "seed": 7,
                                   "max_sphere_index": 3}))
        result = invoke(runner, ["--config", str(cfg), "dist", "1,0", "0,1"])
        assert result.exit_code == 0

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

    def test_missing_config_is_usage_error(self, runner):
        result = invoke(runner, ["--config", "/nonexistent.json",
                                 "dist", "1,0", "0,1"])
        assert result.exit_code == 2

    def test_non_object_config_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        result = invoke(runner, ["--config", str(cfg), "dist", "1,0", "0,1"])
        assert result.exit_code == 2
