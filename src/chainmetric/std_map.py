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


def coordinate_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between the columns of each ``(s, m)`` slice of
    ``A`` and the columns of the matching ``(s, n)`` slice of ``B`` (points
    stored one coordinate per row), shape ``(..., m, n)``, summed one
    coordinate at a time from 0 (no m x n x s temporary).  So each entry
    depends on its two points alone, and a block of rows is bit-equal to the
    same rows of the whole matrix; for s <= 7, ``coordinate_distances(P.T,
    P.T)`` is ``np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)`` bit
    for bit."""
    sq = None
    for j in range(A.shape[-2]):
        d = A[..., j, :, None] - B[..., j, None, :]
        d *= d
        if sq is None:  # 0 + d*d is d*d: d*d is never -0
            sq = d
        else:
            sq += d
    return np.sqrt(sq, out=sq)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``X``, bit-equal to
    ``float(np.linalg.norm(x))`` on the row alone (both take the dot product;
    ``np.linalg.norm(X, axis=1)`` sums squares and can differ in the last bit)."""
    return np.sqrt(np.vecdot(X, X))


@dataclass(slots=True)
class NodeColumns:
    """What the link-cost rows of a node set read of each node, computed once
    per set, with the nodes along the last axis.  ``coords[..., 0, :, i]`` is
    node i's point and ``coords[..., 1, :, i]`` its identification base
    (radial unit vector or ray base), stored one coordinate per row; ``inv``
    holds the anchor terms ``1/(1+|x|)``, ``sphere`` the sphere indices and
    ``radius`` their radii a_m.  Off every sphere a node's base and sphere
    index are NaN, so no pair with such a node compares as identified or as
    sharing a sphere, and its radius is 1.  Leading axes index independent
    node sets."""

    coords: np.ndarray  # (..., 2, s, n)
    inv: np.ndarray  # (..., n)
    sphere: np.ndarray  # (..., n)
    radius: np.ndarray  # (..., n)

    def __len__(self) -> int:
        """Nodes per set; perfbench's link_matrix counter takes the length of
        the columns it is passed."""
        return self.inv.shape[-1]

    def take(self, rows) -> "NodeColumns":
        """The columns of the nodes ``rows`` (a slice or an int array) of each
        set.  An int array goes through ``ndarray.take``, whose result is
        contiguous: fancy indexing on the last axis is not, and made the
        distances of a two-row block take twice as long."""
        columns = (self.coords, self.inv, self.sphere, self.radius)
        if isinstance(rows, slice):
            return NodeColumns(*(a[..., rows] for a in columns))
        return NodeColumns(*(a.take(rows, axis=-1) for a in columns))

    def distances(self, rows: "NodeColumns"):
        """Euclidean distances ``(..., m, n)`` from the nodes ``rows`` to these
        nodes, and the distances between their identification bases (NaN
        where either node is off every sphere), by
        :func:`coordinate_distances`."""
        both = coordinate_distances(rows.coords, self.coords)
        return both[..., 0, :, :], both[..., 1, :, :]


def radial_bases(X, norms) -> np.ndarray:
    """Radial unit vectors of the rows of ``X``, whose norms are ``norms``."""
    return X / norms[:, None]


def node_columns(points, bases=radial_bases) -> NodeColumns:
    """The columns of a node set (rows of ``points``) or of a stack of sets
    ``(..., n, s)``; ``bases(X, norms)`` maps the rows on spheres to their
    identification bases, radial unit vectors by default."""
    P = np.asarray(points, dtype=float)
    norms = np.linalg.norm(P, axis=-1)
    idx = sphere_index(norms)
    on = idx > 0
    base = np.full_like(P, np.nan)
    if np.any(on):
        base[on] = bases(P[on], norms[on])
    return NodeColumns(coords=np.stack([P, base], axis=-3).swapaxes(-1, -2).copy(),
                       inv=1.0 / (1.0 + norms),
                       sphere=np.where(on, idx, np.nan),
                       radius=_radii_upto(int(idx.max(initial=1)))[np.maximum(idx, 1) - 1])


def sphere_weight(D, rows: NodeColumns, cols: NodeColumns, base_dist, same_cost) -> np.ndarray:
    """The weight law of both compactifications between nodes ``rows`` and
    ``cols`` of a set, whose distances are ``D`` ``(..., m, n)``: a pair pays
    its Euclidean distance unless both nodes lie on spheres; then it pays
    ``same_cost`` on a shared sphere, and 0 when its identification bases are
    at most ``TAU`` apart (``base_dist``, NaN unless both are on spheres)."""
    W = np.where(rows.sphere[..., :, None] == cols.sphere[..., None, :], same_cost, D)
    np.copyto(W, 0.0, where=base_dist <= TAU)
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


def phi_std_matrix(rows: NodeColumns, cols: NodeColumns, D, base_dist) -> np.ndarray:
    """Radial weight between nodes ``rows`` and ``cols`` of a set (columns
    from :func:`node_columns`), whose distances are ``D`` and whose unit
    vectors are ``base_dist`` apart: identification compares radial unit
    vectors, and a shared sphere m rescales the chord by 1/a_m."""
    return sphere_weight(D, rows, cols, base_dist, D / rows.radius[..., :, None])


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
# any rounding.
SPHERE_SHARE = 0.95
# The most centres an epsilon net may hold, as ``net_plan`` estimates them.
# Most of the estimate is the ball net's grid cube, counted whole.  Close to
# the cap, ``net --samples 10`` peaked at 112 MB RSS in 3-D (epsilon = 0.33,
# estimated at 1.70 M centres, 0.93 M built), 100 MB in 4-D (0.65: 1.40 M,
# 0.62 M) and 117 MB in 5-D (0.99: 1.55 M, 0.71 M), so a net at the cap
# peaks below 0.2 GB.
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


def sphere_net_radius(radius: float, n: int, s: int) -> float:
    """Guaranteed Euclidean covering radius R of ``_sphere_net(radius, n,
    s)``: every point of the sphere lies within R of a centre.

    In 2-D it is the chord of half the step between the n points, 2 radius
    sin(pi/2n).  For s >= 3 it is radius sqrt(s-1)/n.  A unit vector u
    meets the surface of the cube [-1, 1]^s at y = u/|u|_inf, on a face
    whose cell of side 2/n has its centre q within half a cell diagonal,
    sqrt(s-1)/n, of y.  Both y and q have norm at least 1, and there
    x -> x/|x| is the metric projection onto the closed unit ball, which is
    nonexpansive, so |u - q/|q|| <= |y - q|; the sphere of the given radius
    scales this by the radius.  R is widened by 1e-12 of the radius, far
    more than the few ulps of the radius by which the centres' coordinates
    and this formula can be off, and rounded up.
    """
    if s == 2:
        R = 2.0 * radius * math.sin(math.pi / (2 * n))
    else:
        R = radius * math.sqrt(s - 1) / n
    return _up(R + 1e-12 * radius)


@dataclass(frozen=True)
class NetPlan:
    """An epsilon net as ``net_plan`` sizes it, before anything is built:
    its sphere index k, the size n of its sphere-k net (see ``_sphere_net``),
    its certified covering radius and its estimated centres."""

    k: int
    n: int
    certified_radius: float
    centres: int

    def check(self) -> None:
        """Raise ValueError when the net is too large to build."""
        if self.centres > MAX_NET_POINTS:
            raise ValueError(f"epsilon net of about {self.centres:.3g} centres exceeds the cap "
                             f"of {MAX_NET_POINTS:.3g}")


def net_plan(epsilon: float, s: int) -> NetPlan:
    """Size ``epsilon_net(epsilon, s)`` from epsilon and s alone.

    The certified radius bounds the transformed distance from every point of
    R^s to the nearest centre.  It is the larger of two bounds, each term
    rounded outward:

    - inside the ball of radius a_{k+1}, the ball net's eps/2, its half cell
      diagonal;
    - beyond it, for a_m <= |x| < a_{m+1} with m >= k+1, the link costs of
      the chain x -> a_m u -> a_k u -> the sphere centre of u's cell: at most
      |x| - a_m < 1/(k+2), then 1/(1+a_m) + 1/(1+a_k) (an identified pair,
      weight 0) <= 1/(1+a_{k+1}) + 1/(1+a_k), then d_E <= R, with R =
      ``sphere_net_radius``: for s >= 3 the cube-face half cell diagonal
      sqrt(s-1)/n, which the radial projection onto the sphere does not
      lengthen, times a_k.

    The sphere net's n is the smallest at which R spends at most
    ``SPHERE_SHARE`` of what the chain's other three terms leave of
    epsilon.

    The ball net's estimated centres are its whole grid cube, which it
    builds, of len(np.arange(...)) points a side, computed without building
    the axis.  The sphere net's are n in 2-D and 2s n^(s-1) for s >= 3.
    Both are taken as logs, so a huge s costs no more to size than a small
    one.
    """
    k = net_index(epsilon)
    if s < 2:
        raise ValueError(f"dimension must be >= 2, got {s}")
    ak, ak1 = harmonic_radius(k), harmonic_radius(k + 1)
    chain = _up(1.0 / (k + 2))
    for a in (ak1, ak):
        chain = _up(chain + _up(1.0 / math.nextafter(1.0 + a, 0.0)))
    target = SPHERE_SHARE * (epsilon - chain)
    # n from the radius formula inverted, then moved the step or two that
    # outward rounding can take it.
    if s == 2:
        n = math.ceil(math.pi / (2.0 * math.asin(target / (2.0 * ak))))
    else:
        n = math.ceil(ak * math.sqrt(s - 1) / target)
    while sphere_net_radius(ak, n, s) > target:
        n += 1
    while n > 1 and sphere_net_radius(ak, n - 1, s) <= target:
        n -= 1
    # Sizes are taken as logs, clipped where they are far past any cap.
    size = lambda log: round(math.exp(min(log, 100.0)))
    g = epsilon / math.sqrt(s)
    sphere = math.log(n) if s == 2 else math.log(2 * s) + (s - 1) * math.log(n)
    centres = size(s * math.log(math.ceil((2.0 * ak1 + g) / g))) + size(sphere)
    radius = max(_up(epsilon / 2.0), _up(chain + sphere_net_radius(ak, n, s)))
    return NetPlan(k=k, n=n, certified_radius=radius, centres=centres)


def _sphere_net(radius: float, n: int, s: int) -> np.ndarray:
    """Centres within ``sphere_net_radius(radius, n, s)`` of every point of
    the sphere of the given radius.

    In 2-D they are n evenly spaced points of the circle.  For s >= 3 this
    is the cubed sphere (Ronchi, Iacono and Paolucci, J. Comput. Phys. 124,
    1996): each of the 2s faces of the cube [-1, 1]^s holds the n^(s-1)
    cell centres of a uniform grid, at -1 + (2i + 1)/n, and each centre q
    is scaled radially to radius q/|q|.  A sphere point's radial image on
    the cube lies within half a cell diagonal, sqrt(s-1)/n, of a centre on
    its face, and the radial map back to the sphere is nonexpansive off the
    open unit ball, as ``sphere_net_radius`` shows.  Faces come in axis
    order, the face at -1 before the face at +1, and each face's centres
    in row-major order of their other coordinates.  Every face shares one
    scale: |q|^2 is summed as 1 (the face coordinate) plus the other
    coordinates' squares in order, so the net is
    ``tests/reference.py:sphere_net_reference`` bit for bit.  Points of
    different faces differ in which coordinate is largest in magnitude, so
    all 2s n^(s-1) are distinct.
    """
    if s == 2:
        angles = np.arange(n) * (2.0 * np.pi / n)
        return radius * np.column_stack([np.cos(angles), np.sin(angles)])
    axis = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    face = np.stack(np.meshgrid(*([axis] * (s - 1)), indexing="ij"), axis=-1).reshape(-1, s - 1)
    sq = 1.0
    for c in face.T:
        sq = sq + c * c
    scale = radius / np.sqrt(sq)
    face *= scale[:, None]
    net = np.empty((s, 2, len(face), s))
    for j in range(s):
        net[j, :, :, :j] = face[:, :j]
        net[j, :, :, j + 1:] = face[:, j:]
        net[j, 0, :, j] = -scale
        net[j, 1, :, j] = scale
    return net.reshape(-1, s)


def _ball_axis(radius: float, spacing: float, s: int):
    """One axis of the ball net's cubic grid, and the grid's step
    spacing/sqrt(s), whose half cell diagonal is spacing/2."""
    g = spacing / np.sqrt(s)
    return np.arange(-radius, radius + g, g), g


def _ball_net(radius: float, spacing: float, s: int):
    """Euclidean ``spacing``-net of the closed ball of the given radius: the
    points of the grid cube of ``_ball_axis`` within radius + spacing/2, in
    row-major order, and their ascending flat row-major keys in the cube.
    Squared norms are summed over an open grid one coordinate at a time, as
    ``np.linalg.norm`` sums a row, so the rows are
    ``tests/reference.py:ball_net_reference`` bit for bit while only one
    float cube is built."""
    axis, _ = _ball_axis(radius, spacing, s)
    cube = (len(axis),) * s
    norms = np.zeros(cube)
    for j in range(s):
        norms += np.reshape(axis * axis, (-1,) + (1,) * (s - 1 - j))
    np.sqrt(norms, out=norms)
    keys = np.flatnonzero(norms <= radius + spacing / 2.0)
    del norms
    return np.column_stack([axis[i] for i in np.unravel_index(keys, cube)]), keys


@dataclass
class EpsilonNet:
    """Finite center set whose transformed-metric eps-balls cover all of R^s:
    every point lies within ``certified_radius`` of a center.  The centers
    are the sphere-k net of size ``n`` (``_sphere_net``), then the ball net
    (``_ball_net``), whose flat grid keys are ``ball_keys``."""

    epsilon: float
    k: int
    n: int
    centers: np.ndarray
    sphere_center_count: int
    certified_radius: float
    ball_keys: np.ndarray = field(repr=False)
    verification: dict = field(default_factory=dict)

    def candidate_centers(self, X):
        """The two centers the certificate names for each row x of ``X``, as
        indices into ``centers``, found from the nets' layout:

        - the ball net's grid point of x's cell (x's coordinates rounded to
          the grid), within eps/2 of x, or -1 where it is not a center;
        - the sphere-k center of the cell of x's direction u, within
          ``sphere_net_radius`` of a_k u: in 2-D the nearest of the n
          angles; for s >= 3 the cell that holds u/|u|_inf on the cube face
          of u's largest coordinate in magnitude (at x = 0, a cell of the
          first axis's +1 face).
        """
        X = np.asarray(X, dtype=float)
        rows, s = X.shape
        n = self.n
        if s == 2:
            turn = np.rint(np.arctan2(X[:, 1], X[:, 0]) * (n / (2.0 * np.pi)))
            sphere = turn.astype(np.int64) % n
        else:
            j = np.argmax(np.abs(X), axis=1)
            top = X[np.arange(rows), j]
            Y = X[np.arange(s) != j[:, None]].reshape(rows, s - 1)
            Y /= np.where(top == 0.0, 1.0, np.abs(top))[:, None]
            cells = np.clip(np.floor((Y + 1.0) * (n / 2.0)), 0, n - 1).astype(np.int64)
            face = 2 * j + (top >= 0.0)
            sphere = face * n ** (s - 1) + np.ravel_multi_index(tuple(cells.T), (n,) * (s - 1))
        axis, g = _ball_axis(harmonic_radius(self.k + 1), self.epsilon, s)
        grid = np.rint((X - axis[0]) / g)
        inside = np.all((grid >= 0) & (grid < len(axis)), axis=1)
        grid = np.where(inside[:, None], grid, 0).astype(np.int64)
        key = np.ravel_multi_index(tuple(grid.T), (len(axis),) * s)
        at = np.minimum(np.searchsorted(self.ball_keys, key), len(self.ball_keys) - 1)
        hit = inside & (self.ball_keys[at] == key)
        return np.where(hit, self.sphere_center_count + at, -1), sphere


def epsilon_net(
    epsilon: float,
    s: int,
    solver: Optional[Callable] = None,
    samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> EpsilonNet:
    """Constructive total-boundedness: a finite eps-cover of (R^s, transformed).

    Centers are a net of the identification sphere k of the size that
    ``net_plan`` chooses, union a Euclidean eps-net of the ball of radius
    a_{k+1}; Euclidean nets suffice because the transform never exceeds
    d_E.  Every point of R^s lies within the plan's certified radius of a
    center.  ``solver(X, net) -> upper bounds``, when provided, cross-checks
    the certificate's implementation for ``samples`` points at once, drawn
    with uniform norm up to a_200 and uniform direction, by pricing chains
    to the two centers ``EpsilonNet.candidate_centers`` names for each.  A net
    too large to build is a ValueError, raised before anything is built.
    """
    plan = net_plan(epsilon, s)
    plan.check()
    k = plan.k
    sphere_centers = _sphere_net(harmonic_radius(k), plan.n, s)
    ball_centers, ball_keys = _ball_net(harmonic_radius(k + 1), epsilon, s)
    centers = np.vstack([sphere_centers, ball_centers])
    net = EpsilonNet(
        epsilon=epsilon,
        k=k,
        n=plan.n,
        centers=centers,
        sphere_center_count=len(sphere_centers),
        certified_radius=plan.certified_radius,
        ball_keys=ball_keys,
    )
    if solver is not None:
        rng = rng or np.random.default_rng(0)
        dirs = rng.normal(size=(samples, s))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        norms = rng.uniform(0.0, harmonic_radius(200), size=samples)
        bounds = solver(norms[:, None] * dirs, net)
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
