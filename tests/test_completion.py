import numpy as np
import pytest

from chainmetric.completion import _sampled_bound, nonequivalence_experiment
from chainmetric.rays import ConeParam, h_pq_ray
from chainmetric.sampler import SamplerConfig, euclid_context
from chainmetric.std_map import M_MAX_DEFAULT, harmonic_radius


class TestNonequivalence:
    def test_floor_value(self):
        report = nonequivalence_experiment(0.6, 5)
        assert report.floor == pytest.approx(np.sin(0.3) / (2.0 * np.sqrt(2.0)),
                                             abs=1e-12)
        assert report.floor == pytest.approx(0.104482, abs=1e-6)

    def test_caps_and_floor_hold(self):
        report = nonequivalence_experiment(0.6, 20)
        caps = [row[5] for row in report.rows]
        assert all(b < a for a, b in zip(caps, caps[1:]))
        assert caps[0] == pytest.approx(1.3, abs=1e-12)
        a20 = harmonic_radius(20)
        assert caps[-1] == pytest.approx(2.0 / (1.0 + a20) + 0.3 / a20, abs=1e-12)
        assert caps[-1] == pytest.approx(0.518382, abs=1e-5)
        for row in report.rows:
            assert row[2] >= report.floor - 1e-12  # psi measured above floor
            assert row[4] <= row[5] + 1e-12  # phi measured below cap
        assert report.verdict == "non-equivalent"

    def test_report_formats(self, tmp_path):
        report = nonequivalence_experiment(0.6, 5)
        out = tmp_path / "noneq.csv"
        with open(out, "w") as fh:
            report.to_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "i,a_i,psi_measured,psi_floor,phi_measured,phi_cap"
        assert len(lines) == 6
        summary = report.summary()
        assert summary["verdict"] == "non-equivalent"
        assert summary["N"] == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            nonequivalence_experiment(1.0, 20)
        with pytest.raises(ValueError):
            nonequivalence_experiment(0.6, 3)

    def test_horizon_beyond_sphere_cap_fails_before_sampling(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before the horizon was checked")

        monkeypatch.setattr("chainmetric.completion.h_pq_ray", unreachable)
        monkeypatch.setattr("chainmetric.completion.build_sample", unreachable)
        for horizon in (M_MAX_DEFAULT, 10**12):
            with pytest.raises(ValueError, match="sphere index cap"):
                nonequivalence_experiment(0.6, horizon)

    @pytest.mark.parametrize("s", [2, 3])
    def test_cap_is_the_last_pair_that_can_be_sampled(self, s):
        """The largest horizon allowed ends on a pair the samples can bracket;
        one index more cannot, under either weight."""
        cone = ConeParam(delta=0.6, dim=s)
        cfg = SamplerConfig(dimension=s, max_sphere_index=8, angular_resolution=1.0)
        b1 = np.zeros(s)
        b1[0], b1[1] = np.cos(0.3), np.sin(0.3)
        for i in (M_MAX_DEFAULT - 1, M_MAX_DEFAULT):
            a_pt = np.zeros(s)
            a_pt[0] = harmonic_radius(i)
            b_pt = h_pq_ray(b1, np.array([i]), cone)[0]
            for ctx in (euclid_context("ray_psi", cone=cone, dim=s),
                        euclid_context("std_phi", dim=s)):
                if i < M_MAX_DEFAULT:
                    assert _sampled_bound(ctx, a_pt, b_pt, cfg) > 0.0
                else:
                    with pytest.raises(ValueError, match="beyond sphere index cap"):
                        _sampled_bound(ctx, a_pt, b_pt, cfg)
