"""The radial compactification weight on (R^s, d_E).

Identification spheres sit at the harmonic radii a_m = 1 + 1/2 + ... + 1/m.
Points on different spheres that share a radial line are identified for
free; points on the same sphere pay the chord length rescaled by 1/a_m;
everything else pays the plain Euclidean distance.  Because the radii grow
without bound while the detour price 1/(1+a_m) shrinks, the transformed
space becomes totally bounded and its completion is homeomorphic to the
closed unit ball, with the unit sphere as boundary at infinity.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_RADII_LOCK = threading.Lock()
_RADII = np.array([1.0])  # _RADII[m-1] = a_m, grown lazily
M_MAX_DEFAULT = 10**6
# Relative sphere tolerance: a norm within TAU * a_m of a_m lies on sphere m,
# and unit vectors or ray bases at most TAU apart are identified.
TAU = 1e-9
# Norms within BALL_TOL of 1 lie on the boundary sphere of the closed ball.
BALL_TOL = 1e-12


def _radii_upto(m: int) -> np.ndarray:
    """Cached harmonic partial sums a_1..a_m.  A grown table is summed afresh
    (cumsum is sequential), so a_m = a_{m-1} + 1/m exactly, whatever order
    the table grew in."""
    global _RADII
    if m > len(_RADII):
        with _RADII_LOCK:
            if m > len(_RADII):
                grow_to = max(m, 2 * len(_RADII))
                _RADII = np.cumsum(1.0 / np.arange(1, grow_to + 1))
    return _RADII[:m]


def _radii_reaching(norm: float) -> np.ndarray:
    """The radii table a_1..a_L, grown from L = 1024 in doubling steps until
    a_L >= ``norm`` or L = M_MAX_DEFAULT."""
    radii = _radii_upto(1024)
    while radii[-1] < norm and len(radii) < M_MAX_DEFAULT:
        radii = _radii_upto(min(M_MAX_DEFAULT, 2 * len(radii)))
    return radii


def harmonic_radius(m: int) -> float:
    """a_m = 1 + 1/2 + ... + 1/m."""
    if m < 1:
        raise ValueError(f"sphere index must be >= 1, got {m}")
    return float(_radii_upto(m)[m - 1])


def sphere_index(norms) -> np.ndarray:
    """Index m with |norm - a_m| <= TAU * a_m for each of ``norms``, or 0 where
    a norm is off every sphere; the result has the shape of ``norms``."""
    norms = np.asarray(norms, dtype=float)
    idx = np.zeros(norms.shape, dtype=int)
    live = ~(norms < 1.0 - TAU)  # NaN stays live and matches no sphere
    if not np.any(live):
        return idx
    radii = _radii_reaching(np.fmax.reduce(norms[live]) * (1.0 + TAU))
    pos = np.searchsorted(radii, norms)  # a_pos < norm <= a_{pos+1}
    for cand in (pos + 1, pos):  # the lower sphere wins a shared band
        a = radii[np.clip(cand, 1, len(radii)) - 1]
        hit = live & (cand >= 1) & (cand <= len(radii)) & (np.abs(norms - a) <= TAU * a)
        idx = np.where(hit, cand, idx)
    return idx


def sphere_bracket(norms):
    """Index m with a_m <= norm < a_{m+1} for each of ``norms``, all >= 1; an
    int for a scalar, an array of the shape of ``norms`` otherwise."""
    N = np.asarray(norms, dtype=float)
    if np.any(N < 1.0):
        raise ValueError(f"norm {N[N < 1.0].max()} below the first sphere radius")
    top = np.fmax.reduce(N, axis=None, initial=1.0)
    radii = _radii_reaching(np.nextafter(top, np.inf))  # a_L > top
    if radii[-1] <= top:
        raise ValueError(f"norm {top} beyond sphere index cap {M_MAX_DEFAULT}")
    m = np.searchsorted(radii, N, side="right")
    return int(m) if m.ndim == 0 else m


def h_pq_std(x, p: int, q: int) -> np.ndarray:
    """Radial identification: scale a point of sphere p onto sphere q."""
    x = np.asarray(x, dtype=float)
    ap, aq = harmonic_radius(p), harmonic_radius(q)
    norm = float(np.linalg.norm(x))
    if abs(norm - ap) > TAU * ap:
        raise ValueError(f"point with norm {norm} is not on sphere {p} (radius {ap})")
    return (aq / ap) * x


def pairwise_distances(P: np.ndarray) -> np.ndarray:
    """Euclidean distance matrices between the rows of each ``(n, s)`` slice of
    ``P``, shape ``(..., n, n)``, summed one coordinate at a time (no
    n x n x s temporary); for s <= 7 that is
    ``np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)`` bit for bit."""
    P = np.asarray(P, dtype=float)
    sq = np.zeros(P.shape[:-1] + P.shape[-2:-1])
    for j in range(P.shape[-1]):
        c = P[..., j]
        d = c[..., :, None] - c[..., None, :]
        sq += d * d
    return np.sqrt(sq)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``X``, bit-equal to
    ``float(np.linalg.norm(x))`` on the row alone (both take the dot product;
    ``np.linalg.norm(X, axis=1)`` sums squares and can differ in the last bit)."""
    return np.sqrt(np.vecdot(X, X))


def sphere_weight(D, idx, base_dist, same_cost) -> np.ndarray:
    """The weight law of both compactifications: a pair pays its Euclidean
    distance ``D`` unless both nodes lie on spheres (``idx > 0``); then it
    pays ``same_cost`` on a shared sphere, and 0 when its identification
    bases are at most ``TAU`` apart (``base_dist``).  Leading axes of ``idx``
    and of the ``(..., n, n)`` matrices index independent node sets."""
    W = D.copy()
    on = idx > 0
    both = on[..., :, None] & on[..., None, :]
    same = both & (idx[..., :, None] == idx[..., None, :])
    W[same] = same_cost[same]
    W[both & (base_dist <= TAU)] = 0.0
    return W


def phi_std(x, y) -> float:
    """Radial weight: 0 on identified pairs, rescaled chord on a shared sphere,
    Euclidean distance otherwise.  Cases are tested in that order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    p, q = sphere_index([nx, ny])
    if p and q:
        if float(np.linalg.norm(x / nx - y / ny)) <= TAU:
            return 0.0
        if p == q:
            return float(np.linalg.norm(x - y)) / harmonic_radius(p)
    return float(np.linalg.norm(x - y))


def phi_std_matrix(points, D) -> np.ndarray:
    """Radial weight over a point set (rows of ``points``, or a stack of sets
    of shape ``(..., n, s)``) whose distance matrix is ``D``: identification
    compares radial unit vectors, and a shared sphere m rescales the chord by
    1/a_m."""
    P = np.asarray(points, dtype=float)
    norms = np.linalg.norm(P, axis=-1)
    idx = sphere_index(norms)
    am = _radii_upto(int(idx.max(initial=1)))[np.maximum(idx, 1) - 1]
    units = P / np.where(norms > 0, norms, 1.0)[..., None]
    return sphere_weight(D, idx, pairwise_distances(units), D / am[..., :, None])


@dataclass(frozen=True)
class BoundaryRepStd:
    """Canonical completion point: a finite point or a direction at infinity.

    ``representative(i)`` realizes a Cauchy sequence in the class: constant
    for interior points, the harmonic-radius ladder along the direction for
    points at infinity.
    """

    kind: str  # 'interior' | 'at_infinity'
    point: np.ndarray

    def __post_init__(self):
        if self.kind not in ("interior", "at_infinity"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        if self.kind == "at_infinity":
            n = float(np.linalg.norm(self.point))
            if abs(n - 1.0) > 1e-12:
                raise ValueError(f"direction must be unit, got norm {n}")

    def representative(self, i: int) -> np.ndarray:
        if self.kind == "interior":
            return self.point
        return harmonic_radius(i) * self.point


def ball_norm(x: np.ndarray) -> float:
    """Norm of a point of the closed unit ball; raises ValueError for a point
    outside it, checking its coordinates first so that no norm overflows."""
    n = float(np.max(np.abs(x), initial=0.0))
    if n <= 1.0 + BALL_TOL:
        n = float(np.linalg.norm(x))
    if n > 1.0 + BALL_TOL:
        raise ValueError(f"point of norm at least {n} outside the closed unit ball")
    return n


def boundary_map_h_std(x) -> BoundaryRepStd:
    """Closed-ball parameterization of the completion: interior points blow up
    by 1/(1 - |x|), unit vectors map to their ladder class at infinity."""
    x = np.asarray(x, dtype=float)
    n = ball_norm(x)
    if n >= 1.0 - BALL_TOL:
        return BoundaryRepStd(kind="at_infinity", point=x / n)
    return BoundaryRepStd(kind="interior", point=x / (1.0 - n))


def boundary_map_k_std(rep: BoundaryRepStd) -> np.ndarray:
    """Inverse of :func:`boundary_map_h_std`, back into the closed unit ball."""
    if rep.kind == "interior":
        y = rep.point
        return y / (1.0 + float(np.linalg.norm(y)))
    return rep.point


# Share of the certificate's slack, epsilon less the beyond-the-ball chain's
# three fixed terms, that the sphere net's covering radius R spends.  The
# remaining 5% keeps the certified radius below epsilon by far more than
# any rounding; the net has about a third of the sphere centres that a
# spacing of epsilon/4 gives.
SPHERE_SHARE = 0.95
# The most centres an epsilon net may hold, as ``net_plan`` estimates them,
# and the most grid rows one slab of its sphere sweep may hold.  4-D builds
# cost the most per centre (about four projected points each): the 4-D
# epsilon = 0.9 net, estimated at 1.66 M and built with 1.26 M centres,
# peaked at 335 MB RSS, so a net at the cap peaks near 0.4 GB, the scale of
# ``net``'s sample cap.  The 4-D epsilon = 0.95 net is estimated at 1.21 M.
MAX_NET_POINTS = 2 * 10**6


def _up(x: float) -> float:
    """The next float above ``x``: one step of outward rounding."""
    return math.nextafter(x, math.inf)


def net_index(epsilon: float) -> int:
    """Smallest k with 1/(1+k) < eps/4 and 1/(1+a_k) < eps/4; a ValueError
    when that k lies beyond the sphere index cap M_MAX_DEFAULT."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    quarter = epsilon / 4.0
    radii = _radii_reaching(1.0 / quarter + 1.0)  # 1/(1+a_L) < quarter
    # a_k <= k, so the second condition implies the first.
    k = int(np.argmax(1.0 / (1.0 + radii) < quarter)) + 1
    if not 1.0 / (1.0 + radii[k - 1]) < quarter:
        raise ValueError(f"epsilon {epsilon} needs a sphere index beyond the cap {M_MAX_DEFAULT}")
    return k


def _circle_count(radius: float, spacing: float) -> int:
    """Points of the 2-D sphere net: the fewest equal steps round the circle
    whose chord is at most ``spacing``."""
    step = 2.0 * np.arcsin(min(1.0, spacing / (2.0 * radius)))
    return int(np.ceil(2.0 * np.pi / step))


def sphere_net_radius(radius: float, spacing: float, s: int) -> float:
    """Guaranteed Euclidean covering radius R of ``_sphere_net(radius,
    spacing, s)``: every point of the sphere lies within R of a centre.

    In 2-D it is the chord of half the step actually used, 2 radius
    sin(step/4); for s >= 3 it is spacing (1/2 + sqrt(s)/4), as derived in
    ``_sphere_net``.  It is widened by 1e-12 of the radius, far more than
    the few ulps of the radius by which the centres' coordinates and this
    formula can be off, and rounded up.
    """
    if s == 2:
        R = 2.0 * radius * math.sin(math.pi / (2 * _circle_count(radius, spacing)))
    else:
        R = spacing * (0.5 + math.sqrt(s) / 4.0)
    return _up(R + 1e-12 * radius)


@dataclass(frozen=True)
class NetPlan:
    """An epsilon net as ``net_plan`` sizes it, before anything is built:
    its sphere index k, the spacing of its sphere-k net, its certified
    covering radius, and its estimated centres and sphere-sweep slab rows
    (0 in 2-D)."""

    k: int
    spacing: float
    certified_radius: float
    centres: int
    slab_rows: int

    def check(self) -> None:
        """Raise ValueError when the net is too large to build."""
        if max(self.centres, self.slab_rows) > MAX_NET_POINTS:
            raise ValueError(f"epsilon net of about {self.centres:.3g} centres and "
                             f"{self.slab_rows:.3g} grid rows a slab exceeds the cap of "
                             f"{MAX_NET_POINTS:.3g}")


def net_plan(epsilon: float, s: int) -> NetPlan:
    """Size ``epsilon_net(epsilon, s)`` from epsilon and s alone.

    The certified radius bounds the transformed distance from every point of
    R^s to the nearest centre.  It is the larger of two bounds, each term
    rounded outward:

    - inside the ball of radius a_{k+1}, the ball net's eps/2, its half cell
      diagonal;
    - beyond it, for a_m <= |x| < a_{m+1} with m >= k+1, the link costs of
      the chain x -> a_m u -> a_k u -> the nearest sphere centre: at most
      |x| - a_m < 1/(k+2), then 1/(1+a_m) + 1/(1+a_k) (an identified pair,
      weight 0) <= 1/(1+a_{k+1}) + 1/(1+a_k), then d_E <= R, with R =
      ``sphere_net_radius``.

    The sphere spacing is the coarsest at which R spends ``SPHERE_SHARE``
    of what the chain's other three terms leave of epsilon.

    The ball net's estimated centres are its whole grid cube, which it
    builds.  The sphere net's are the circle's point count in 2-D; for
    s >= 3 they are the mean number of spacing/4 dedupe cells that a sphere
    of its area crosses, area * s * E|u_1| / (spacing/4)^(s-1) for a uniform
    unit vector u, as each cell keeps at most one centre.  Grid sizes are
    len(np.arange(...)), computed without building the axis.
    """
    k = net_index(epsilon)
    if s < 2:
        raise ValueError(f"dimension must be >= 2, got {s}")
    ak, ak1 = harmonic_radius(k), harmonic_radius(k + 1)
    chain = _up(1.0 / (k + 2))
    for a in (ak1, ak):
        chain = _up(chain + _up(1.0 / math.nextafter(1.0 + a, 0.0)))
    target = SPHERE_SHARE * (epsilon - chain)
    # Sizes are taken as logs, clipped where they are far past any cap.
    size = lambda log: round(math.exp(min(log, 100.0)))
    g = epsilon / math.sqrt(s)
    centres = size(s * math.log(math.ceil((2.0 * ak1 + g) / g)))
    rows = 0
    if s == 2:
        # _sphere_net steps by the angle whose chord is the spacing, and a
        # step of 4 arcsin(target / 2a_k) makes R = 2 a_k sin(step/4) = target.
        spacing = 2.0 * ak * math.sin(2.0 * math.asin(target / (2.0 * ak)))
        centres += _circle_count(ak, spacing)
    else:
        spacing = target / (0.5 + math.sqrt(s) / 4.0)
        g = spacing / (2.0 * math.sqrt(s))
        rows = size((s - 1) * math.log(math.ceil((2.0 * ak + 3.0 * g) / g)))
        # area * s * E|u_1|, with area s pi^(s/2) / Gamma(s/2 + 1) ak^(s-1)
        # and E|u_1| = Gamma(s/2) / (sqrt(pi) Gamma((s+1)/2)).
        centres += size(2 * math.log(s) + (s - 1) / 2 * math.log(math.pi)
                        - math.lgamma(s / 2 + 1) + math.lgamma(s / 2) - math.lgamma((s + 1) / 2)
                        + (s - 1) * math.log(4.0 * ak / spacing))
    radius = max(_up(epsilon / 2.0), _up(chain + sphere_net_radius(ak, spacing, s)))
    return NetPlan(k=k, spacing=spacing, certified_radius=radius, centres=centres,
                   slab_rows=rows)


def _sphere_net(radius: float, spacing: float, s: int) -> np.ndarray:
    """Centres within ``sphere_net_radius(radius, spacing, s)`` of every
    point of the sphere of the given radius.

    In 2-D they are the ``_circle_count`` evenly spaced points of the circle.
    For s >= 3 this is the grid-projection net: the points of an axis grid of
    cell diagonal spacing/2 whose norm is within spacing/2 of the radius,
    projected radially onto the sphere in row-major grid order, keeping the
    first point of each spacing/4 cell.  The grid is swept one slab of fixed
    first coordinate at a time, and within a slab only the rows whose squared
    norm lies in the shell's window, widened by 1e-9 of its outer end, so no
    row the shell test keeps is skipped.  Each norm sums the squares from
    first*first onwards, one coordinate at a time, which for s <= 7 is
    ``np.linalg.norm(grid, axis=1)`` bit for bit; the net is then the one
    ``tests/reference.py:sphere_net_reference`` builds from the whole cube.
    """
    if s == 2:
        count = _circle_count(radius, spacing)
        angles = np.arange(count) * (2.0 * np.pi / count)
        return radius * np.column_stack([np.cos(angles), np.sin(angles)])
    # Covering radius spacing (1/2 + sqrt(s)/4): a sphere point lies within
    # half a grid cell diagonal, spacing/4, of a grid point, which is then in
    # the shell; projecting that grid point onto the sphere moves it at most
    # spacing/4 again; and the point kept in its spacing/4 cell lies within
    # that cell's diagonal, spacing sqrt(s)/4, of it.  From s = 5 on the
    # bound exceeds spacing.
    g = spacing / (2.0 * np.sqrt(s))
    half = spacing / 2.0
    axis = np.arange(-radius - g, radius + 2 * g, g)
    rest = [c.ravel() for c in np.meshgrid(*([axis] * (s - 1)), indexing="ij")]
    rest_sq = sum(c * c for c in rest)
    outer = (radius + half) ** 2
    window = (max(radius - half, 0.0) ** 2 - 1e-9 * outer, outer * (1.0 + 1e-9))
    # One int64 key per spacing/4 cell: cell coordinates lie in [-span, span].
    # (2 span + 1)^s < 2^63 whenever one slab of the grid fits in memory, as
    # the grid has about sqrt(s)/2 (2 span + 1) points per axis.
    cell = spacing / 4.0
    span = int(np.ceil(radius / cell)) + 1
    slabs, keys = [], []
    for first in axis:
        f2 = first * first
        rows = np.flatnonzero((rest_sq >= window[0] - f2) & (rest_sq <= window[1] - f2))
        sq = f2
        for c in rest:
            sq = sq + c[rows] * c[rows]
        norms = np.sqrt(sq)
        keep = np.abs(norms - radius) <= half
        rows, scale = rows[keep], radius / norms[keep]
        pts = np.empty((len(rows), s))
        pts[:, 0] = first * scale
        for j, c in enumerate(rest, 1):
            pts[:, j] = c[rows] * scale
        key = np.zeros(len(rows), dtype=np.int64)
        for j in range(s):
            key = key * (2 * span + 1) + (np.round(pts[:, j] / cell).astype(np.int64) + span)
        slabs.append(pts)
        keys.append(key)
    # The stable sort behind return_index keeps each cell's first point.
    first_of_cell = np.sort(np.unique(np.concatenate(keys), return_index=True)[1])
    del keys
    net = np.empty((len(first_of_cell), s))
    lo = done = 0
    for i, pts in enumerate(slabs):
        hi = lo + len(pts)
        take = first_of_cell[done:np.searchsorted(first_of_cell, hi)]
        net[done:done + len(take)] = pts[take - lo]
        done += len(take)
        slabs[i], lo = None, hi
    return net


def _ball_net(radius: float, spacing: float, s: int) -> np.ndarray:
    """Euclidean ``spacing``-net of the closed ball of the given radius."""
    g = spacing / np.sqrt(s)
    axis = np.arange(-radius, radius + g, g)
    mesh = np.stack(np.meshgrid(*([axis] * s), indexing="ij"), axis=-1).reshape(-1, s)
    return mesh[np.linalg.norm(mesh, axis=1) <= radius + spacing / 2.0]


@dataclass
class EpsilonNet:
    """Finite center set whose transformed-metric eps-balls cover all of R^s:
    every point lies within ``certified_radius`` of a center."""

    epsilon: float
    k: int
    centers: np.ndarray
    sphere_center_count: int
    certified_radius: float
    verification: dict = field(default_factory=dict)


def epsilon_net(
    epsilon: float,
    s: int,
    solver: Optional[Callable] = None,
    samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> EpsilonNet:
    """Constructive total-boundedness: a finite eps-cover of (R^s, transformed).

    Centers are a net of the identification sphere k at the spacing that
    ``net_plan`` chooses, union a Euclidean eps-net of the ball of radius
    a_{k+1}; Euclidean nets suffice because the transform never exceeds
    d_E.  Every point of R^s lies within the plan's certified radius of a
    center.  ``solver(X, centers) -> upper bounds``, when provided,
    cross-checks the certificate's implementation for ``samples`` points at
    once, drawn with uniform norm up to a_200 and uniform direction.  A net
    too large to build is a ValueError, raised before anything is built.
    """
    plan = net_plan(epsilon, s)
    plan.check()
    k = plan.k
    sphere_centers = _sphere_net(harmonic_radius(k), plan.spacing, s)
    ball_centers = _ball_net(harmonic_radius(k + 1), epsilon, s)
    centers = np.vstack([sphere_centers, ball_centers])
    net = EpsilonNet(
        epsilon=epsilon,
        k=k,
        centers=centers,
        sphere_center_count=len(sphere_centers),
        certified_radius=plan.certified_radius,
    )
    if solver is not None:
        rng = rng or np.random.default_rng(0)
        dirs = rng.normal(size=(samples, s))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        norms = rng.uniform(0.0, harmonic_radius(200), size=samples)
        bounds = solver(norms[:, None] * dirs, centers)
        net.verification = {
            "epsilon": epsilon,
            "k": k,
            "center_count": int(len(centers)),
            "samples": int(samples),
            "max_min_distance": float(np.max(bounds, initial=0.0)),
            "covered": int(np.count_nonzero(bounds < epsilon)),
            "certified_radius": net.certified_radius,
        }
    return net
