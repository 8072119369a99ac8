"""The non-equivalence run between the two compactifications of R^s.

The axis ladder and a ladder of field-ray points at polar angle delta/2 are
tracked under both weights.  Each index's shortest-path upper bounds are
checked against the ray weight's analytic floor and the radial weight's
strictly decreasing analytic cap; the verdict rests on those certificates,
not on any estimated limit, because the harmonic radii grow logarithmically
and true limits are unreachable at desk scale.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .rays import ConeParam, h_pq_ray
from .sampler import (
    EuclidContext,
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    euclid_context,
)
from .std_map import M_MAX_DEFAULT, harmonic_radius


def _sampled_bound(ctx: EuclidContext, x, y, config: SamplerConfig) -> float:
    """Shortest-path upper bound between ``x`` and ``y`` over the sample of
    ``config``."""
    nodes = build_sample(config, [x, y], ctx.weight_kind, ctx.cone)
    value, _ = approx_dphi(build_graph(ctx, nodes), x, y)
    return value


@dataclass
class NoneqReport:
    """Per-index evidence that the two compactifications differ: the ray
    distance stays above an analytic floor while the radial distance is
    capped by a strictly decreasing sequence."""

    delta: float
    horizon: int
    floor: float
    rows: list  # (i, a_i, psi_measured, psi_floor, phi_measured, phi_cap)
    verdict: str

    def to_csv(self, fh) -> None:
        fh.write("i,a_i,psi_measured,psi_floor,phi_measured,phi_cap\n")
        for row in self.rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def summary(self) -> dict:
        return {
            "delta": self.delta,
            "N": self.horizon,
            "floor": self.floor,
            "min_psi": min(r[2] for r in self.rows),
            "max_phi_cap_at_N": self.rows[-1][5],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2)


def nonequivalence_experiment(
    delta: float,
    horizon: int,
    s: int = 2,
    seed: int = 0,
) -> NoneqReport:
    """Track the axis ladder against the ladder of a base at polar angle
    delta/2 under both weights.

    Under the ray weight the pair separates by at least sin(delta/2)/(2*sqrt(2))
    at every index; under the radial weight its distance is capped by
    2/(1+a_i) + delta/(2 a_i), which decreases strictly.  A persistent gap
    between floor and caps witnesses that no base-point-fixing homeomorphism
    can match the two completions.
    """
    if not 0.0 < delta < np.pi / 4.0:
        raise ValueError(f"delta must be in (0, pi/4), got {delta}")
    # Every sample brackets its endpoints between spheres, and no sphere lies
    # beyond index M_MAX_DEFAULT, so the last pair's norm a_horizon must be
    # below a_{M_MAX_DEFAULT}.
    if not 5 <= horizon < M_MAX_DEFAULT:
        raise ValueError(f"horizon must be in [5, {M_MAX_DEFAULT}), below the sphere index "
                         f"cap, got {horizon}")
    cone = ConeParam(delta=delta, dim=s)
    psi_ctx = euclid_context("ray_psi", cone=cone, dim=s)
    phi_ctx = euclid_context("std_phi", dim=s)
    cfg = SamplerConfig(dimension=s, max_sphere_index=min(horizon, 8),
                        angular_resolution=1.0, seed=seed)

    b1 = np.zeros(s)
    b1[0], b1[1] = np.cos(delta / 2.0), np.sin(delta / 2.0)
    floor = float(np.sin(delta / 2.0) / (2.0 * np.sqrt(2.0)))
    rows = []
    ok = True
    prev_cap = np.inf
    b_pts = h_pq_ray(b1, np.arange(1, horizon + 1), cone)
    for i, b_pt in enumerate(b_pts, start=1):
        ai = harmonic_radius(i)
        a_pt = np.zeros(s)
        a_pt[0] = ai
        psi_measured = _sampled_bound(psi_ctx, a_pt, b_pt, cfg)
        phi_measured = _sampled_bound(phi_ctx, a_pt, b_pt, cfg)
        cap = 2.0 / (1.0 + ai) + delta / (2.0 * ai)
        rows.append((i, ai, psi_measured, floor, phi_measured, cap))
        if psi_measured < floor - 1e-12 or phi_measured > cap + 1e-12:
            ok = False
        if cap >= prev_cap:
            ok = False
        prev_cap = cap
    verdict = "non-equivalent" if ok else "certificate-violation"
    return NoneqReport(
        delta=delta, horizon=horizon, floor=floor, rows=rows, verdict=verdict
    )
