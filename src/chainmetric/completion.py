"""Completion points, limit-distance estimates and the non-equivalence run.

Completion points are represented canonically: a finite point, or a
direction at infinity realized by the harmonic-radius ladder along it.
Arbitrary Cauchy sequences are only ever handled through truncations at a
finite horizon; every numeric claim is reported as a certified bracket
rather than as a limit, because the harmonic radii grow logarithmically
and true limits are unreachable at desk scale.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import delta as link_cost
from .core import lower_bound_certificate
from .rays import ConeParam, h_pq_ray
from .sampler import (
    EuclidContext,
    NodeSet,
    SamplerConfig,
    approx_dphi,
    build_graph,
    build_sample,
    euclid_context,
)
from .std_map import harmonic_radius


@dataclass(frozen=True)
class CauchyTruncation:
    """Finite truncation of a sequence: generator index -> point, realized up
    to the horizon."""

    generator: Callable[[int], np.ndarray]
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @property
    def realized(self) -> list[np.ndarray]:
        return [np.asarray(self.generator(i), dtype=float) for i in range(1, self.horizon + 1)]


def constant_truncation(x, horizon: int) -> CauchyTruncation:
    x = np.asarray(x, dtype=float)
    return CauchyTruncation(generator=lambda i: x, horizon=horizon)


def ladder_truncation(direction, horizon: int) -> CauchyTruncation:
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    return CauchyTruncation(generator=lambda i: harmonic_radius(i) * u, horizon=horizon)


@dataclass
class RhoEstimate:
    """Per-index approximations of the limit distance, each with its
    certified bracket [analytic floor, single-link cost]."""

    values: list  # (index, approx, lower, upper)
    trend: str  # decreasing | bounded-below | inconclusive

    def final(self) -> float:
        return self.values[-1][1]


def _default_solver(ctx: EuclidContext, config: Optional[SamplerConfig] = None):
    def solve(x, y) -> float:
        cfg = config or SamplerConfig(
            dimension=len(np.asarray(x, float)), max_sphere_index=4,
            angular_resolution=1.0,
        )
        nodes = build_sample(cfg, [x, y], ctx.weight_kind, ctx.cone)
        graph = build_graph(ctx, nodes)
        value, _ = approx_dphi(graph, x, y)
        return value

    return solve


def _classify_trend(vals: np.ndarray) -> str:
    third = max(1, len(vals) // 3)
    first, last = vals[:third], vals[-third:]
    if np.mean(last) < 0.9 * np.mean(first) or np.max(last) < 1e-12:
        return "decreasing"
    if np.min(last) > 0.0 and np.mean(last) >= 0.5 * np.mean(first):
        return "bounded-below"
    return "inconclusive"


def rho_estimate(
    ctx: EuclidContext,
    a: CauchyTruncation,
    b: CauchyTruncation,
    solver: Optional[Callable] = None,
    horizon: Optional[int] = None,
) -> RhoEstimate:
    """Tabulate approx distances between paired sequence entries.

    For constant sequences this reduces to the single-pair value, matching
    the fact that the limit distance between constant classes is the plain
    transformed distance.
    """
    N = horizon or min(a.horizon, b.horizon)
    if N < 2:
        raise ValueError("need a horizon of at least 2")
    solver = solver or _default_solver(ctx)
    rows = []
    for i in range(1, N + 1):
        xi = np.asarray(a.generator(i), dtype=float)
        yi = np.asarray(b.generator(i), dtype=float)
        if np.allclose(xi, yi, atol=0.0):
            rows.append((i, 0.0, 0.0, 0.0))
            continue
        approx = float(solver(xi, yi))
        lower = lower_bound_certificate(ctx, xi, yi)
        upper = link_cost(ctx, xi, yi)
        rows.append((i, approx, lower, upper))
    return RhoEstimate(values=rows, trend=_classify_trend(np.array([r[1] for r in rows])))


@dataclass(frozen=True)
class SequenceClass:
    """Canonical classification of a truncated sequence."""

    kind: str  # finite | at_infinity | inconclusive
    point: Optional[np.ndarray] = None
    detail: str = ""


def classify_sequence(
    seq: CauchyTruncation,
    ctx: EuclidContext,
    solver: Optional[Callable] = None,
    direction_tol: float = 1e-6,
) -> SequenceClass:
    """Sort a numerically-Cauchy sequence into its canonical completion form.

    Bounded norm trails classify as a finite point (the tail limit);
    unbounded ones as the direction at infinity their normalizations settle
    on.  Direction non-convergence is reported, never guessed.
    """
    pts = seq.realized
    solver = solver or _default_solver(ctx)
    norms = np.array([np.linalg.norm(p) for p in pts])
    third = max(2, len(pts) // 3)
    tail = pts[-third:]
    # Finite-horizon Cauchy screen over the tail: consecutive increments
    # plus the full tail span, judged against the certified bracket widths
    # (with an absolute fallback when the brackets pin the value exactly).
    pairs = [(i, i + 1) for i in range(len(tail) - 1)] + [(0, len(tail) - 1)]
    spans = [float(solver(tail[i], tail[j])) for i, j in pairs]
    widths = [
        link_cost(ctx, tail[i], tail[j])
        - lower_bound_certificate(ctx, tail[i], tail[j])
        for i, j in pairs
    ]
    screen = max(10.0 * max(widths), 1e-3)
    if max(spans) > screen:
        return SequenceClass(
            kind="inconclusive",
            detail=f"tail span {max(spans)} exceeds the Cauchy screen {screen}",
        )
    # Norms still climbing at the horizon mean the sequence is escaping; a
    # flat norm trail means it has settled near a finite point.
    escape = float(norms[-1] - norms[-min(len(norms), 2 * third)])
    if escape <= 0.1:
        spread = max(
            float(np.linalg.norm(tail[i] - tail[-1])) for i in range(len(tail))
        )
        if spread < 1e-3:
            return SequenceClass(kind="finite", point=tail[-1])
        return SequenceClass(
            kind="inconclusive",
            detail=f"bounded but unsettled: tail spread {spread}",
        )
    units = [p / np.linalg.norm(p) for p in tail if np.linalg.norm(p) > 0]
    drift = max(
        float(np.linalg.norm(units[i] - units[-1])) for i in range(len(units))
    )
    if drift > direction_tol:
        return SequenceClass(
            kind="inconclusive",
            detail=f"direction drift {drift} over the last third",
        )
    return SequenceClass(kind="at_infinity", point=units[-1])


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
    psi_solver: Optional[Callable] = None,
    phi_solver: Optional[Callable] = None,
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
    if horizon < 5:
        raise ValueError("horizon must be >= 5")
    cone = ConeParam(delta=delta, dim=s)
    psi_ctx = euclid_context("ray_psi", cone=cone, dim=s)
    phi_ctx = euclid_context("std_phi", dim=s)
    cfg = SamplerConfig(dimension=s, max_sphere_index=min(horizon, 8),
                        angular_resolution=1.0, seed=seed)
    psi_solver = psi_solver or _default_solver(psi_ctx, cfg)
    phi_solver = phi_solver or _default_solver(phi_ctx, cfg)

    b1 = np.zeros(s)
    b1[0], b1[1] = np.cos(delta / 2.0), np.sin(delta / 2.0)
    floor = float(np.sin(delta / 2.0) / (2.0 * np.sqrt(2.0)))
    rows = []
    ok = True
    prev_cap = np.inf
    for i in range(1, horizon + 1):
        ai = harmonic_radius(i)
        a_pt = np.zeros(s)
        a_pt[0] = ai
        b_pt = h_pq_ray(b1, i, cone)
        psi_measured = float(psi_solver(a_pt, b_pt))
        phi_measured = float(phi_solver(a_pt, b_pt))
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
