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


def net_index(epsilon: float) -> int:
    """Smallest k with 1/(1+k) < eps/4 and 1/(1+a_k) < eps/4."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    quarter = epsilon / 4.0
    k = 1
    while 1.0 / (1.0 + k) >= quarter or 1.0 / (1.0 + harmonic_radius(k)) >= quarter:
        k += 1
    return k


def _sphere_net(radius: float, spacing: float, s: int) -> np.ndarray:
    """Euclidean ``spacing``-net of the sphere of the given radius.

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
        step = 2.0 * np.arcsin(min(1.0, spacing / (2.0 * radius)))
        count = int(np.ceil(2.0 * np.pi / step))
        angles = np.arange(count) * (2.0 * np.pi / count)
        return radius * np.column_stack([np.cos(angles), np.sin(angles)])
    # An axis grid of cell diagonal <= spacing/2 has a point within spacing/2
    # of every sphere point; projecting that grid point to the sphere moves it
    # by at most another spacing/2.
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
    """Finite center set whose transformed-metric eps-balls cover all of R^s."""

    epsilon: float
    k: int
    centers: np.ndarray
    sphere_center_count: int
    verification: dict = field(default_factory=dict)


def epsilon_net(
    epsilon: float,
    s: int,
    solver: Optional[Callable] = None,
    samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> EpsilonNet:
    """Constructive total-boundedness: a finite eps-cover of (R^s, transformed).

    Centers are a Euclidean (eps/4)-net of the identification sphere k union
    a Euclidean eps-net of the ball of radius a_{k+1}; Euclidean nets suffice
    because the transform never exceeds d_E.  Points beyond the ball reach a
    sphere-net center through the projection / identification chain of cost
    < eps, which ``solver(X, centers) -> upper bounds`` certifies
    numerically, when provided, for ``samples`` points at once, drawn with
    uniform norm up to a_200 and uniform direction.
    """
    if s < 2:
        raise ValueError(f"dimension must be >= 2, got {s}")
    k = net_index(epsilon)
    ak = harmonic_radius(k)
    sphere_centers = _sphere_net(ak, epsilon / 4.0, s)
    ball_centers = _ball_net(harmonic_radius(k + 1), epsilon, s)
    centers = np.vstack([sphere_centers, ball_centers])
    net = EpsilonNet(
        epsilon=epsilon,
        k=k,
        centers=centers,
        sphere_center_count=len(sphere_centers),
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
        }
    return net
