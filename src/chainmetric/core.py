"""Link-cost and chain-cost primitives of the metric transform.

The transformed distance between x and y is the infimum, over all finite
point chains joining them, of summed link costs

    link(x, y) = min{ d(x, y),  1/(1+d(m,x)) + w(x,y) + 1/(1+d(m,y)) }

where d is the base metric, w a nonnegative symmetric weight and m a fixed
anchor point.  The second branch is a "detour" whose price shrinks as both
endpoints move away from the anchor; a well chosen weight makes far-apart
points cheap to connect, which is what turns an unbounded space into a
totally bounded one.

This module only deals with link costs (``delta`` one pair at a time, the
specification; ``link_costs`` every pair of a matrix at once), explicit
chains and analytic bound certificates.  Exact evaluation of the infimum
on finite spaces lives in :mod:`chainmetric.finite`; sampled upper bounds
on R^s live in :mod:`chainmetric.sampler`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


# A point of a finite space is an index; Python scalars (np.float64 is a
# float) skip numpy's per-call cost, which dominates ``delta`` on them.
_SCALARS = (int, float)


def _require_finite(x) -> None:
    if isinstance(x, _SCALARS):
        finite = math.isfinite(x)
    else:
        finite = np.all(np.isfinite(np.asarray(x, dtype=float)))
    if not finite:
        raise ValueError(f"non-finite point rejected: {x!r}")


def _order_key(p):
    if isinstance(p, _SCALARS):
        return (float(p),)
    return tuple(np.atleast_1d(np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class MetricContext:
    """Base metric d, symmetric weight w and anchor m defining the transform.

    ``base_distance`` and ``weight`` are callables over whatever point
    representation the space uses (coordinate arrays, indices, ...).  The
    weight is always evaluated on the canonically ordered pair so that a
    floating-point asymmetric implementation cannot leak asymmetry into the
    link cost.
    """

    base_distance: Callable
    weight: Callable
    anchor: object

    def weight_sym(self, x, y) -> float:
        if _order_key(y) < _order_key(x):
            x, y = y, x
        return float(self.weight(x, y))

    def anchor_distance(self, x) -> float:
        return float(self.base_distance(self.anchor, x))


@dataclass(frozen=True)
class Chain:
    """An ordered finite point sequence joining its two endpoints."""

    points: tuple

    def __init__(self, points: Sequence):
        object.__setattr__(self, "points", tuple(points))
        if len(self.points) < 2:
            raise ValueError("a chain needs at least 2 points")

    @property
    def endpoints(self):
        return self.points[0], self.points[-1]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class BoundCertificate:
    """Certified bracket [lower, upper] around the true transformed distance."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"invalid bracket: {self.lower} > {self.upper}")


def delta(ctx: MetricContext, x, y) -> float:
    """Single-link cost: min of the direct distance and the detour branch."""
    _require_finite(x)
    _require_finite(y)
    direct = float(ctx.base_distance(x, y))
    detour = (
        1.0 / (1.0 + ctx.anchor_distance(x))
        + ctx.weight_sym(x, y)
        + 1.0 / (1.0 + ctx.anchor_distance(y))
    )
    return min(direct, detour)


def link_costs(D: np.ndarray, inv: np.ndarray, weight,
               rows: slice | np.ndarray | None = None) -> np.ndarray:
    """All link costs at once: ``D`` holds the base distances ``(..., n, n)``,
    ``inv`` the anchor terms ``1/(1+d(m,x))`` ``(..., n)`` and ``weight`` the
    pair weights (a matrix or a scalar).  Each entry sums ``inv_i + w_ij +
    inv_j`` in ``delta``'s order, so it is bit-equal to ``delta`` on the pair
    ``(i, j)``; a zero diagonal of ``D`` stays zero.  With ``rows``, a slice
    or an int array, ``D`` and ``weight`` hold only those rows
    ``(..., len(rows), n)``, and so does the result, each row bit-equal to
    its node's row of the whole matrix."""
    rows = slice(None) if rows is None else rows
    return np.minimum(D, inv[..., rows, None] + weight + inv[..., None, :])


def chain_cost(ctx: MetricContext, chain: Chain) -> float:
    """Sum of link costs along the chain."""
    pts = chain.points
    return sum(delta(ctx, pts[i - 1], pts[i]) for i in range(1, len(pts)))


def lower_bound_certificate(ctx: MetricContext, x, y) -> float:
    """Analytic lower bound on the transformed distance.

    Whenever the transformed distance differs from d(x,y) it is at least
    1/(2(1+d(m,x))); by symmetry the same holds with y in place of x.  The
    min with d(x,y) covers the remaining case, so the returned value never
    exceeds the true transformed distance.
    """
    _require_finite(x)
    _require_finite(y)
    direct = float(ctx.base_distance(x, y))
    floor_x = 1.0 / (2.0 * (1.0 + ctx.anchor_distance(x)))
    floor_y = 1.0 / (2.0 * (1.0 + ctx.anchor_distance(y)))
    return min(direct, max(floor_x, floor_y))


def certificate(ctx: MetricContext, x, y) -> BoundCertificate:
    """Certified bracket from the analytic floor and the single-link cost."""
    return BoundCertificate(
        lower=lower_bound_certificate(ctx, x, y),
        upper=delta(ctx, x, y),
    )


def local_isometry_radius(ctx: MetricContext, x) -> float:
    """Radius of the ball around x on which the transform equals d.

    Inside the transformed-metric ball of this radius around x, the
    transformed distance between any two points coincides with the base
    distance.
    """
    _require_finite(x)
    return 1.0 / (8.0 * (1.0 + ctx.anchor_distance(x)))


@dataclass
class AxiomReport:
    """Violations of the metric axioms found in a square distance matrix."""

    nonnegativity: list = field(default_factory=list)
    identity: list = field(default_factory=list)
    symmetry: list = field(default_factory=list)
    triangle: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.nonnegativity or self.identity or self.symmetry or self.triangle
        )

    def summary(self) -> str:
        if self.ok:
            return "all metric axioms hold"
        parts = []
        for name in ("nonnegativity", "identity", "symmetry", "triangle"):
            wit = getattr(self, name)
            if wit:
                parts.append(f"{name}: {len(wit)} violation(s), first {wit[0]}")
        return "; ".join(parts)


AXIOM_TOL = 1e-12  # absolute slack of every metric-axiom check
# Entries of the (n, pivots, n) temporary of each block of the triangle
# screen, which bounds its memory; blocks of 512 KB, which stay in cache, ran
# faster than larger ones at n = 80 and n = 300.
_SCREEN_BLOCK = 2**16


def _shortest_two_links(M: np.ndarray) -> np.ndarray:
    """``min_k M[i, k] + M[k, j]`` over every pivot k for each pair, a running
    min-plus product over blocks of pivots; NaN sums are skipped (``fmin``),
    so each entry is at most every non-NaN sum."""
    n = len(M)
    step = max(1, _SCREEN_BLOCK // max(1, n * n))
    best = np.full(M.shape, np.inf)
    for lo in range(0, n, step):
        block = M[:, lo:lo + step, None] + M[None, lo:lo + step, :]
        np.fmin(best, np.fmin.reduce(block, axis=1), out=best)
    return best


def verify_metric_axioms(matrix) -> AxiomReport:
    """Check nonnegativity, identity, symmetry and the triangle inequality.

    Every violation is recorded with its witnessing indices.  ``identity``
    records nonzero diagonal entries and vanishing off-diagonal entries
    (distinct points at distance 0).
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    report = AxiomReport()

    for i, j in zip(*np.nonzero(M < -AXIOM_TOL)):
        report.nonnegativity.append((int(i), int(j), float(M[i, j])))
    for i in range(n):
        if abs(M[i, i]) > AXIOM_TOL:
            report.identity.append((i, i, float(M[i, i])))
    off = np.abs(M) <= AXIOM_TOL
    np.fill_diagonal(off, False)
    for i, j in zip(*np.nonzero(off)):
        report.identity.append((int(i), int(j), float(M[i, j])))
    asym = np.abs(M - M.T) > AXIOM_TOL
    for i, j in zip(*np.nonzero(np.triu(asym, 1))):
        report.symmetry.append((int(i), int(j), float(M[i, j] - M[j, i])))
    # The pivot loop only runs when the screen finds a pair with some slack
    # above AXIOM_TOL: float subtraction is monotone and the screen's pivots
    # include the loop's, so a screen that passes means the loop finds none.
    if not np.any(M - _shortest_two_links(M) > AXIOM_TOL):
        return report
    for k in range(n):
        slack = M - (M[:, k, None] + M[None, k, :])
        bad = slack > AXIOM_TOL
        bad[:, k] = False
        bad[k, :] = False
        for i, j in zip(*np.nonzero(bad)):
            report.triangle.append((int(i), int(k), int(j), float(slack[i, j])))
    return report
