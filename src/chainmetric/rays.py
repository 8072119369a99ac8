"""Bent-ray compactification weight on (R^s, d_E).

Instead of identifying spheres along radial lines, this weight identifies
them along a field of straight rays based on the unit sphere: inside two
polar cones around the first coordinate axis the rays run parallel to the
axis, and in between they bend by an angle that interpolates linearly in
the polar angle.  The ray field fills the region outside the unit ball,
with exactly one ray through every exterior point.  Because distinct rays
stay a definite distance apart (at least d_E(x,y)/(2*sqrt(2)) for bases x,
y), the resulting compactification is not equivalent to the radial one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .std_map import harmonic_radius, pairwise_distances, sphere_index, sphere_weight


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


def polar_angle(x: np.ndarray, cone: ConeParam) -> float:
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
    alpha = polar_angle(x, cone)
    dx, dy = _field_direction(alpha, cone.delta)
    if dy == 0.0:
        raise ValueError(f"base at polar angle {alpha} lies inside a cone")
    return float(np.arctan2(dy, dx))


def _half_plane_unit(x: np.ndarray, cone: ConeParam) -> np.ndarray:
    """Unit vector orthogonal to the axis, on x's side of it."""
    w = x.copy()
    w[0] = 0.0
    n = float(np.linalg.norm(w))
    if n == 0.0:
        raise ValueError("point on the axis spans no half-plane")
    return w / n


def ray_of(x, cone: ConeParam) -> Ray:
    """The ray of the field based at a unit-sphere point."""
    x = np.asarray(x, dtype=float)
    dx, dy = _field_direction(polar_angle(x, cone), cone.delta)
    if dy == 0.0:  # inside a cone: parallel to the axis
        return Ray(base=x, direction=dx * cone.axis)
    direction = dx * cone.axis + dy * _half_plane_unit(x, cone)
    return Ray(base=x, direction=direction)


def _point_to_ray_distance(y: np.ndarray, ray: Ray) -> float:
    t = max(0.0, float(np.dot(y - ray.base, ray.direction)))
    return float(np.linalg.norm(y - ray.point_at(t)))


# Largest distance between a point and the ray found through it.
_RESIDUAL_TOL = 1e-10


def ray_bases(Y, cone: ConeParam) -> np.ndarray:
    """Base points of the unique rays of the field through the rows of ``Y``.

    Bisects the base polar angle of every row at once, each inside its own
    (axis, w_hat) half-plane.  Raises for a point inside the unit ball, and
    for a residual distance above ``_RESIDUAL_TOL`` between a point and its
    ray, since uniqueness of the ray is an assumption the construction relies
    on and silent failure would mask its violation.
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

    # The 2-D cross product of the ray direction with (y - base) is positive
    # while the ray passes below y and negative above; it brackets on
    # [0, pi] always: offset(0) = q > 0, offset(pi) = -q < 0.
    lo = np.zeros(len(p))
    hi = np.full(len(p), np.pi)
    while np.max(hi - lo) >= 1e-15:
        mid = 0.5 * (lo + hi)
        dx, dy = _field_direction(mid, cone.delta)
        below = dx * (q - np.sin(mid)) - dy * (p - np.cos(mid)) > 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    beta = 0.5 * (lo + hi)
    cb, sb = np.cos(beta), np.sin(beta)

    dx, dy = _field_direction(beta, cone.delta)
    vx, vy = p - cb, q - sb
    t = np.maximum(0.0, vx * dx + vy * dy)
    residual = np.hypot(vx - t * dx, vy - t * dy)
    bad = residual > _RESIDUAL_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RuntimeError(
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
    return ray, _point_to_ray_distance(y, ray)


def _ray_sphere_param(ray: Ray, radius: float) -> float:
    """Parameter t >= 0 where the ray meets the sphere of the given radius.

    The norm along the ray is strictly increasing on t >= 0 (the direction
    makes an angle < pi/4 with the outward radial at the base), so for
    radius >= 1 the admissible root is the larger one.
    """
    bd = float(np.dot(ray.base, ray.direction))
    disc = bd * bd - (1.0 - radius * radius)
    if disc < 0.0:
        raise RuntimeError(f"ray misses sphere of radius {radius}")
    return -bd + np.sqrt(disc)


def h_pq_ray(x, q: int, cone: ConeParam, tau: float = 1e-9) -> np.ndarray:
    """Ray identification: slide a point of its sphere onto sphere q along
    the unique ray of the field through it."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if not sphere_index(nx, tau):
        raise ValueError(f"point with norm {nx} is not on an identification sphere")
    ray, _ = ray_through(x / min(nx, 1.0), cone)
    t = _ray_sphere_param(ray, harmonic_radius(q))
    return ray.point_at(t)


def psi(x, y, cone: ConeParam, tau: float = 1e-9) -> float:
    """Ray weight: 0 on ray-identified sphere pairs, base-point distance on a
    shared sphere, Euclidean distance otherwise.  A point of sphere 1's tau
    band inside the unit ball has the base of its radial projection."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    p, q = sphere_index([nx, ny], tau)
    if p and q:
        bx = ray_through(x / min(nx, 1.0), cone)[0].base
        by = ray_through(y / min(ny, 1.0), cone)[0].base
        if float(np.linalg.norm(bx - by)) <= tau:
            return 0.0
        if p == q:
            return float(np.linalg.norm(bx - by))
    return float(np.linalg.norm(x - y))


def psi_matrix(points, D, cone: ConeParam, tau: float = 1e-9) -> np.ndarray:
    """Ray weight over a point set (rows of ``points``, or a stack of sets of
    shape ``(..., n, s)``) whose distance matrix is ``D``: identification and
    a shared sphere both compare ray bases, as in :func:`psi`."""
    P = np.asarray(points, dtype=float)
    norms = np.linalg.norm(P, axis=-1)
    idx = sphere_index(norms, tau)
    on = idx > 0
    bases = np.zeros_like(P)
    bases[on] = ray_bases(P[on] / np.minimum(norms[on], 1.0)[:, None], cone)
    base_dist = pairwise_distances(bases)
    return sphere_weight(D, idx, base_dist, base_dist, tau)


def ray_distance(r1: Ray, r2: Ray) -> float:
    """Infimum Euclidean distance between two rays (closed-form, clamped).

    The squared distance is a convex quadratic over the parameter quadrant,
    so the minimum is either the unconstrained critical point or lies on a
    boundary where one parameter is zero and the other is a clamped
    projection.
    """
    b1, d1 = r1.base, r1.direction
    b2, d2 = r2.base, r2.direction
    w = b1 - b2
    b = float(np.dot(d1, d2))
    c1 = float(np.dot(d1, w))
    c2 = float(np.dot(d2, w))
    best = np.inf
    denom = 1.0 - b * b
    if denom > 1e-14:
        t1 = (b * c2 - c1) / denom
        t2 = (c2 - b * c1) / denom
        if t1 >= 0.0 and t2 >= 0.0:
            best = float(np.linalg.norm(r1.point_at(t1) - r2.point_at(t2)))
    t2 = max(0.0, c2)
    best = min(best, float(np.linalg.norm(b1 - r2.point_at(t2))))
    t1 = max(0.0, -c1)
    best = min(best, float(np.linalg.norm(r1.point_at(t1) - b2)))
    return best


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


def boundary_map_h_ray(x, cone: ConeParam, tol: float = 1e-12) -> BoundaryRepRay:
    """Closed-ball parameterization of the ray compactification.

    Below norm 1/2 points blow up radially; from 1/2 outward they travel
    along the ray based at their direction, a distance (|x|-1/2)/(1-|x|)
    from the base; unit vectors map to the ladder class of their ray.  Both
    formulas give the base point itself at the junction norm 1/2.
    """
    x = np.asarray(x, dtype=float)
    n = float(np.linalg.norm(x))
    if n > 1.0 + tol:
        raise ValueError(f"point with norm {n} outside the closed unit ball")
    if n >= 1.0 - tol:
        return BoundaryRepRay(kind="at_infinity", point=x / n, cone=cone)
    if n < 0.5:
        return BoundaryRepRay(kind="interior", point=x / (1.0 - n))
    ray = ray_of(x / n, cone)
    t = (n - 0.5) / (1.0 - n)
    return BoundaryRepRay(kind="interior", point=ray.point_at(t))
