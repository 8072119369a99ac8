"""Bent-ray compactification weight on (R^s, d_E).

Instead of identifying spheres along radial lines, this weight identifies
them along a field of straight rays based on the unit sphere: inside two
polar cones around the first coordinate axis the rays run parallel to the
axis, and in between they bend by an angle that interpolates linearly in
the polar angle.  The ray field fills the region outside the unit ball,
with exactly one ray through every exterior point.  Because distinct rays
stay a definite distance apart (at least d_E(x,y)/(2*sqrt(2)) for bases x,
y), the resulting compactification is not equivalent to the radial one.

The field's forward map is batched over stacks of bases: ray directions
(:func:`ray_directions`) and sphere crossings (:func:`ray_crossings`);
:func:`ray_bases` inverts it, and :func:`ray_distances` gives the distance
between the rays of paired rows.  :func:`ray_of`, :func:`ray_through`,
:func:`h_pq_ray` and :func:`ray_distance` are one-row calls of these kernels.

The inversion works in each point's (axis, w_hat) half-plane.  A point with
``q <= sin(delta)``, its distance from the axis, lies on a cone ray and has
its base in closed form; any other point lies on a bent ray, whose base
polar angle is the root of a cross-product offset in ``[delta, pi - delta]``,
found by Newton's method kept inside a per-row bracket.  A row stops once its
step or its bracket is at most an ulp of pi, or after ``_MAX_STEPS`` steps;
a point farther than ``_RESIDUAL_TOL`` from the ray found raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .std_map import (BALL_TOL, TAU, NodeColumns, _radii_upto, _row_norms, ball_norm,
                      sphere_index, sphere_weight)


@dataclass(frozen=True)
class ConeParam:
    """Half-angle of the polar cones; must satisfy 0 < delta < pi/4."""

    delta: float = 0.6
    dim: int = 2

    def __post_init__(self):
        if not 0.0 < self.delta < np.pi / 4.0:
            raise ValueError(f"cone half-angle must be in (0, pi/4), got {self.delta}")
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")

    @property
    def axis(self) -> np.ndarray:
        a = np.zeros(self.dim)
        a[0] = 1.0
        return a


@dataclass(frozen=True)
class Ray:
    """Half-line from a unit-sphere base point, in the plane spanned by the
    base and the cone axis."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        if abs(np.linalg.norm(self.base) - 1.0) > 1e-9:
            raise ValueError("ray base must lie on the unit sphere")
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-9:
            raise ValueError("ray direction must be a unit vector")

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.direction


def polar_angle(x: np.ndarray) -> float:
    """Angle between x and the cone axis, in [0, pi]."""
    x = np.asarray(x, dtype=float)
    c = float(x[0] / np.linalg.norm(x))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _field_direction(alpha, delta: float):
    """The law of the ray field, vectorized over base polar angles: the ray
    direction (cos theta, sin theta) in the (axis, w_hat) half-plane, with
    theta = pi/(pi - 2*delta) * (alpha - delta) clamped to [0, pi].

    The clamp makes the rays parallel to the axis inside the polar cones
    alpha <= delta and alpha >= pi - delta; sin theta is exactly 0 there.
    """
    theta = np.pi / (np.pi - 2.0 * delta) * (alpha - delta)
    theta = np.minimum(np.maximum(theta, 0.0), np.pi)
    return np.cos(theta), np.sin(theta) * (theta < np.pi)


def bend_angle(x, cone: ConeParam) -> float:
    """Direction angle from the axis for a base point outside both cones:
    theta = pi/(pi - 2*delta) * (polar angle - delta)."""
    alpha = polar_angle(x)
    dx, dy = _field_direction(alpha, cone.delta)
    if dy == 0.0:
        raise ValueError(f"base at polar angle {alpha} lies inside a cone")
    return float(np.arctan2(dy, dx))


def ray_directions(bases, cone: ConeParam) -> np.ndarray:
    """Directions of the rays of the field based at the rows of ``bases``,
    unit-sphere points of shape ``(n, s)``: ``dx * axis`` inside the cones,
    and ``dx * axis + dy * w_hat`` in between, where ``w_hat`` is the unit
    vector orthogonal to the axis on the base's side of it."""
    B = np.asarray(bases, dtype=float)
    alpha = np.arccos(np.clip(B[:, 0] / _row_norms(B), -1.0, 1.0))
    dx, dy = _field_direction(alpha, cone.delta)
    D = dx[:, None] * cone.axis
    bent = dy != 0.0
    W = B[bent]
    W[:, 0] = 0.0
    D[bent] += dy[bent, None] * (W / _row_norms(W)[:, None])
    return D


def ray_crossings(bases, radii, cone: ConeParam) -> np.ndarray:
    """Points where the rays of the field based at the rows of ``bases``
    cross the spheres of ``radii`` >= 1, a vector of k radii or one row of k
    per base: shape ``(n, k, s)``.  The norm along a ray increases strictly
    (its direction is within pi/4 of the outward radial at the base), so the
    crossing is the larger root."""
    B = np.asarray(bases, dtype=float)
    D = ray_directions(B, cone)
    R = np.asarray(radii, dtype=float)
    bd = np.vecdot(B, D)[:, None]
    t = -bd + np.sqrt(bd * bd - (1.0 - R * R))
    return B[:, None, :] + t[..., None] * D[:, None, :]


def ray_of(x, cone: ConeParam) -> Ray:
    """The ray of the field based at a unit-sphere point."""
    return Ray(base=x, direction=ray_directions([x], cone)[0])


# Largest distance between a point and the ray found through it.
_RESIDUAL_TOL = 1e-10


class RayResidualError(RuntimeError):
    """A point lies farther than ``_RESIDUAL_TOL`` from the ray found through
    it, so the uniqueness of the field's rays failed to certify."""


# A bent row stops once its Newton step, or its bracket, is at most an ulp of pi.
_STEP_TOL = float(np.spacing(np.pi))
# Most steps per bent row: more than the 52 halvings that take its bracket,
# narrower than pi, below _STEP_TOL, so a row whose every step falls back to
# the midpoint still stops before it.  Measured rows (2-5-D, delta from 1e-9
# to pi/4, norms 1 to a_{10^6}) stop within 5 steps.
_MAX_STEPS = 64


def _bent_polar_angles(p, q, delta: float) -> np.ndarray:
    """Base polar angles of the bent rays through the half-plane points
    ``(p, q)`` with ``q > sin(delta)``, by safeguarded Newton on
    ``F(b) = cos(theta) (q - sin b) - sin(theta) (p - cos b)`` over
    ``[delta, pi - delta]``, where ``theta = k (b - delta)``.

    ``F(delta) = q - sin(delta) > 0`` and ``F(pi - delta) < 0``, and at the
    root ``F'(b) = -k t - cos(theta - b) < 0`` with ``t >= 0`` the ray
    parameter of the point, since ``|theta - b| <= delta < pi/4``.  Each row
    keeps its own bracket, takes the midpoint whenever a Newton step would
    leave it or ``F' >= 0``, and stops on a step of at most ``_STEP_TOL`` (a
    row with ``F == 0`` takes a zero step) or once the bracket is that narrow
    (its ends may then be adjacent floats, where the step is a little longer
    but the midpoint no longer moves).  A stopped row is frozen, so its
    result does not depend on the other rows of the batch.
    """
    k = np.pi / (np.pi - 2.0 * delta)
    lo = np.full(len(p), delta)
    hi = np.full(len(p), np.pi - delta)
    # The polar angle of a point at norm r on the ray is roughly the mean of
    # its base's (weight 1) and its direction's (weight r - 1).
    r = np.hypot(p, q)
    guess = (r * np.arctan2(q, p) + (r - 1.0) * k * delta) / (1.0 + (r - 1.0) * k)
    beta = np.clip(guess, lo, hi)
    active = np.ones(len(p), dtype=bool)
    for _ in range(_MAX_STEPS):
        cb, sb = np.cos(beta), np.sin(beta)
        theta = k * (beta - delta)
        ct, st = np.cos(theta), np.sin(theta)
        vx, vy = p - cb, q - sb
        f = ct * vy - st * vx
        df = -k * (ct * vx + st * vy) - (ct * cb + st * sb)
        lo = np.where(f > 0.0, beta, lo)
        hi = np.where(f < 0.0, beta, hi)
        descending = df < 0.0
        step = np.divide(f, df, out=np.zeros_like(f), where=descending)
        newton = beta - step
        small = descending & (np.abs(step) <= _STEP_TOL)
        inside = descending & (lo < newton) & (newton < hi)
        beta = np.where(active, np.where(small | inside, newton, 0.5 * (lo + hi)), beta)
        done = small | (hi - lo <= _STEP_TOL)
        active &= ~done
        if not active.any():
            break
    return beta


def ray_bases(Y, cone: ConeParam) -> np.ndarray:
    """Base points of the unique rays of the field through the rows of ``Y``.

    Each row is solved for its base polar angle in its own (axis, w_hat)
    half-plane, where it is ``(p, q)``.  A row with ``q <= sin(delta)`` lies
    on an axis-parallel cone ray, since a bent ray keeps ``q > sin(delta)``
    along its whole length: its base is at ``arcsin(q)`` for ``p > 0`` and at
    ``pi - arcsin(q)`` for ``p < 0``.  The other rows are bent and are solved
    by safeguarded Newton inside ``[delta, pi - delta]``
    (:func:`_bent_polar_angles`), stopping per row once its step or bracket
    is within an ulp of pi, or after ``_MAX_STEPS`` steps.  Raises ``ValueError`` for a point inside
    the unit ball, and :class:`RayResidualError` for a residual distance
    above ``_RESIDUAL_TOL`` between a point and its ray, since uniqueness of
    the ray is an assumption the construction relies on and silent failure
    would mask its violation.  Each row's base is bit-equal to that of the
    row solved on its own.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    norms = np.linalg.norm(Y, axis=1)
    inside = norms < 1.0 - 1e-12
    if np.any(inside):
        ny = float(norms[np.argmax(inside)])
        raise ValueError(f"point with norm {ny} is inside the unit ball")
    W = Y.copy()
    W[:, 0] = 0.0
    q = np.linalg.norm(W, axis=1)
    p = Y[:, 0]
    bases = np.zeros_like(Y)
    # Near the axis the half-plane is undefined; the axis rays pass there.
    axial = q < 1e-12
    bases[axial, 0] = np.where(p[axial] > 0, 1.0, -1.0)
    rows = ~axial
    if not np.any(rows):
        return bases
    p, q = p[rows], q[rows]
    w_hat = W[rows] / q[:, None]

    in_cone = q <= np.sin(cone.delta)
    beta = np.empty(len(p))
    near = np.arcsin(q[in_cone])
    beta[in_cone] = np.where(p[in_cone] > 0.0, near, np.pi - near)
    bent = ~in_cone
    beta[bent] = _bent_polar_angles(p[bent], q[bent], cone.delta)
    cb, sb = np.cos(beta), np.sin(beta)

    dx, dy = _field_direction(beta, cone.delta)
    vx, vy = p - cb, q - sb
    t = np.maximum(0.0, vx * dx + vy * dy)
    residual = np.hypot(vx - t * dx, vy - t * dy)
    bad = residual > _RESIDUAL_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RayResidualError(
            f"ray search failed to converge: residual {residual[k]} "
            f"at point {Y[rows][k]}"
        )
    sub = sb[:, None] * w_hat
    sub[:, 0] = cb
    bases[rows] = sub
    return bases


def ray_through(y, cone: ConeParam) -> tuple[Ray, float]:
    """The unique ray of the field through an exterior point, with the
    residual distance from the point to it; see :func:`ray_bases`."""
    y = np.asarray(y, dtype=float)
    ray = ray_of(ray_bases(y[None, :], cone)[0], cone)
    t = max(0.0, float(np.dot(y - ray.base, ray.direction)))
    return ray, float(np.linalg.norm(y - ray.point_at(t)))


def h_pq_ray(x, q, cone: ConeParam) -> np.ndarray:
    """Ray identification: slide a point of its sphere onto sphere q along
    the unique ray of the field through it; an array of indices q gives one
    point per index, shape ``q.shape + x.shape``."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if not sphere_index(nx):
        raise ValueError(f"point with norm {nx} is not on an identification sphere")
    q = np.asarray(q)
    if np.any(q < 1):
        raise ValueError(f"sphere index must be >= 1, got {q.min()}")
    base = ray_bases(x[None, :] / min(nx, 1.0), cone)
    points = ray_crossings(base, _radii_upto(int(q.max()))[q.ravel() - 1], cone)
    return points.reshape(q.shape + x.shape)


def psi(x, y, cone: ConeParam) -> float:
    """Ray weight: 0 on ray-identified sphere pairs, base-point distance on a
    shared sphere, Euclidean distance otherwise.  A point of sphere 1's TAU
    band inside the unit ball has the base of its radial projection."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    p, q = sphere_index([nx, ny])
    if p and q:
        bx, by = ray_bases([x / min(nx, 1.0), y / min(ny, 1.0)], cone)
        if float(np.linalg.norm(bx - by)) <= TAU:
            return 0.0
        if p == q:
            return float(np.linalg.norm(bx - by))
    return float(np.linalg.norm(x - y))


def identification_bases(X, norms, cone: ConeParam) -> np.ndarray:
    """Ray bases of the rows of ``X``, points on spheres whose norms are
    ``norms``; a point of sphere 1's TAU band inside the unit ball has the
    base of its radial projection, as in :func:`psi`."""
    return ray_bases(X / np.minimum(norms, 1.0)[:, None], cone)


def psi_matrix(rows: NodeColumns, cols: NodeColumns, D, base_dist) -> np.ndarray:
    """Ray weight between nodes ``rows`` and ``cols`` of a set whose bases
    are ray bases (:func:`identification_bases`), ``base_dist`` apart, and
    whose distances are ``D``: identification and a shared sphere both
    compare ray bases, as in :func:`psi`."""
    return sphere_weight(D, rows, cols, base_dist, base_dist)


def ray_distances(B1, D1, B2, D2) -> np.ndarray:
    """Infimum Euclidean distance between paired rays, row by row: bases
    ``B1`` and ``B2``, directions ``D1`` and ``D2`` (closed form, clamped).

    The squared distance is a convex quadratic over the parameter quadrant,
    so the minimum is either the unconstrained critical point or lies on a
    boundary where one parameter is zero and the other is a clamped
    projection.
    """
    B1, D1, B2, D2 = (np.asarray(a, dtype=float) for a in (B1, D1, B2, D2))
    w = B1 - B2
    b = np.vecdot(D1, D2)
    c1 = np.vecdot(D1, w)
    c2 = np.vecdot(D2, w)
    denom = 1.0 - b * b
    oblique = denom > 1e-14  # not parallel, so the critical point exists
    safe = np.where(oblique, denom, 1.0)
    t1 = (b * c2 - c1) / safe
    t2 = (c2 - b * c1) / safe
    crit = _row_norms((B1 + t1[:, None] * D1) - (B2 + t2[:, None] * D2))
    best = np.where(oblique & (t1 >= 0.0) & (t2 >= 0.0), crit, np.inf)
    best = np.minimum(best, _row_norms(B1 - (B2 + np.maximum(0.0, c2)[:, None] * D2)))
    return np.minimum(best, _row_norms((B1 + np.maximum(0.0, -c1)[:, None] * D1) - B2))


def ray_distance(r1: Ray, r2: Ray) -> float:
    """Infimum Euclidean distance between two rays; see :func:`ray_distances`."""
    return float(ray_distances([r1.base], [r1.direction], [r2.base], [r2.direction])[0])


def spherical_distance(p1, p2) -> float:
    """Euclidean distance from spherical coordinates (rho, phi, theta)."""
    r1, f1, t1 = p1
    r2, f2, t2 = p2
    for r, f in ((r1, f1), (r2, f2)):
        if r < 0.0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        if not 0.0 <= f <= np.pi:
            raise ValueError(f"polar angle must be in [0, pi], got {f}")
    cos_angle = np.sin(f1) * np.sin(f2) * np.cos(t1 - t2) + np.cos(f1) * np.cos(f2)
    sq = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * cos_angle
    return float(np.sqrt(max(0.0, sq)))


def spherical_to_cartesian(p) -> np.ndarray:
    r, f, t = p
    return np.array(
        [r * np.sin(f) * np.cos(t), r * np.sin(f) * np.sin(t), r * np.cos(f)]
    )


@dataclass(frozen=True)
class BoundaryRepRay:
    """Canonical completion point under the ray weight: a finite point or the
    ladder class along the ray based at a unit-sphere point."""

    kind: str  # 'interior' | 'at_infinity'
    point: np.ndarray
    cone: Optional[ConeParam] = None

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))

    def representative(self, i: int) -> np.ndarray:
        if self.kind == "interior":
            return self.point
        return h_pq_ray(self.point, i, self.cone)


def boundary_map_h_ray(x, cone: ConeParam) -> BoundaryRepRay:
    """Closed-ball parameterization of the ray compactification.

    Below norm 1/2 points blow up radially; from 1/2 outward they travel
    along the ray based at their direction, a distance (|x|-1/2)/(1-|x|)
    from the base; unit vectors map to the ladder class of their ray.  Both
    formulas give the base point itself at the junction norm 1/2.
    """
    x = np.asarray(x, dtype=float)
    n = ball_norm(x)
    if n >= 1.0 - BALL_TOL:
        return BoundaryRepRay(kind="at_infinity", point=x / n, cone=cone)
    if n < 0.5:
        return BoundaryRepRay(kind="interior", point=x / (1.0 - n))
    ray = ray_of(x / n, cone)
    t = (n - 0.5) / (1.0 - n)
    return BoundaryRepRay(kind="interior", point=ray.point_at(t))
