"""Loop-per-element reference implementations for the vectorized kernels.

These are the scalar algorithms the library used before its batched
kernels: one scalar link cost per pair of a finite space, one sphere
lookup per norm, the ray of one base point at a time
and its crossing with one sphere at a time, the distance between one pair
of rays at a time, a sample built one direction
and one sphere at a time, one bisection per point for the ray base and
one bisection of all points at once, a binary-heap Dijkstra per source,
a sample graph's whole link matrix and the shortest path through it,
one shortest-path solve per epsilon-net sample, a scan of the net's centers
for the cells that hold a point, whole-cube grids for the sphere and ball
nets and one triangle check per pivot.  They exist only
so the tests can hold the kernels to them.
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from chainmetric.core import AXIOM_TOL, AxiomReport, delta
from chainmetric.finite import FiniteSpace
from chainmetric.rays import _RESIDUAL_TOL, ConeParam, Ray, _field_direction, ray_bases
from chainmetric.sampler import NodeSet, SamplerConfig, _dedupe, _net_directions, euclid_context
from chainmetric.std_map import (M_MAX_DEFAULT, TAU, _radii_upto, harmonic_radius, sphere_bracket,
                                sphere_index)


def link_table_reference(space: FiniteSpace) -> np.ndarray:
    """All-pairs single-link costs, one ``core.delta`` call per pair in its
    ``(i, j)``, ``i < j`` orientation, mirrored."""
    ctx = space.context()
    n = len(space)
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = delta(ctx, i, j)
    return table


def sphere_index_reference(norm: float, m_max: int = M_MAX_DEFAULT):
    """Index m with |norm - a_m| <= TAU * a_m, or None if off every sphere."""
    if norm < 1.0 - TAU:
        return None
    radii = _radii_upto(min(m_max, 1024))
    while radii[-1] < norm * (1.0 + TAU) and len(radii) < m_max:
        radii = _radii_upto(min(m_max, 2 * len(radii)))
    pos = int(np.searchsorted(radii, norm))
    for m in (pos, pos + 1):
        if 1 <= m <= len(radii) and abs(norm - radii[m - 1]) <= TAU * radii[m - 1]:
            return m
    return None


def ray_of_reference(x, cone: ConeParam) -> Ray:
    """The ray of the field based at one unit-sphere point: its polar angle,
    the field law at that angle and, outside the cones, the unit vector
    orthogonal to the axis on x's side of it."""
    x = np.asarray(x, dtype=float)
    alpha = float(np.arccos(np.clip(float(x[0] / np.linalg.norm(x)), -1.0, 1.0)))
    dx, dy = _field_direction(alpha, cone.delta)
    if dy == 0.0:  # inside a cone: parallel to the axis
        return Ray(base=x, direction=dx * cone.axis)
    w = x.copy()
    w[0] = 0.0
    return Ray(base=x, direction=dx * cone.axis + dy * (w / float(np.linalg.norm(w))))


def _point_to_ray_distance(y: np.ndarray, ray: Ray) -> float:
    t = max(0.0, float(np.dot(y - ray.base, ray.direction)))
    return float(np.linalg.norm(y - ray.point_at(t)))


def ray_crossing_reference(ray: Ray, radius: float) -> np.ndarray:
    """The point where a ray meets the sphere of the given radius >= 1: the
    larger root of |base + t direction| = radius."""
    bd = float(np.dot(ray.base, ray.direction))
    return ray.point_at(-bd + np.sqrt(bd * bd - (1.0 - radius * radius)))


def ray_distance_reference(r1: Ray, r2: Ray) -> float:
    """Infimum Euclidean distance between two rays: the unconstrained
    critical point when it lies in the parameter quadrant, else the better
    of the two clamped projections of one base onto the other ray."""
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


def build_sample_reference(config: SamplerConfig, endpoints, weight_kind: str = "std_phi",
                           cone: ConeParam = None) -> NodeSet:
    """The sample built point by point: the endpoints, the net direction by
    direction and sphere by sphere, then for each endpoint of norm >= 1 its
    sphere pair, its ladder and its radial steps."""
    if weight_kind == "ray_psi":
        cone = cone or ConeParam(dim=config.dimension)
    pts = [np.asarray(e, dtype=float) for e in endpoints]
    prov = ["endpoint"] * len(pts)
    M = config.max_sphere_index
    dirs = _net_directions(config)
    if weight_kind == "std_phi":
        for m in range(1, M + 1):
            for u in dirs:
                pts.append(harmonic_radius(m) * u)
                prov.append(f"sphere({m})")
    else:
        for u in dirs:
            pts.append(u)
            prov.append("sphere(1)")
            ray = ray_of_reference(u, cone)
            for m in range(2, M + 1):
                pts.append(ray_crossing_reference(ray, harmonic_radius(m)))
                prov.append("ray-ladder")
    for e in endpoints:
        e = np.asarray(e, dtype=float)
        n = float(np.linalg.norm(e))
        if n < 1.0:
            continue
        m = sphere_bracket(n) if n > 1.0 else 1
        if weight_kind == "std_phi":
            anchor, ladder = e / n, "radial"
            at = lambda j: harmonic_radius(j) * anchor
        else:
            ray = ray_of_reference(ray_bases(e[None, :], cone)[0], cone)
            anchor, ladder = ray.base, "ray-ladder"
            at = lambda j: ray_crossing_reference(ray, harmonic_radius(j))
        for j in (m, m + 1):
            pts.append(at(j))
            prov.append(f"sphere({j})")
        for j in range(1, M + 1):
            pts.append(at(j))
            prov.append(ladder)
        for j in range(1, config.radial_steps + 1):
            f = j / (config.radial_steps + 1)
            pts.append((1.0 - f) * anchor + f * e)
            prov.append("radial")
    return _dedupe(pts, prov)


def ray_through_reference(y, cone: ConeParam, max_iter: int = 200):
    """Ray of the field through y by scalar bisection on the base polar angle
    inside y's half-plane; returns the ray and its residual distance to y."""
    y = np.asarray(y, dtype=float)
    ny = float(np.linalg.norm(y))
    if ny < 1.0 - 1e-12:
        raise ValueError(f"point with norm {ny} is inside the unit ball")
    w = y.copy()
    w[0] = 0.0
    q = float(np.linalg.norm(w))
    if q < 1e-12:
        ray = ray_of_reference(cone.axis if y[0] > 0 else -cone.axis, cone)
        return ray, _point_to_ray_distance(y, ray)
    w_hat = w / q
    p = float(y[0])

    def base_at(beta: float) -> np.ndarray:
        return np.cos(beta) * cone.axis + np.sin(beta) * w_hat

    def signed_offset(beta: float) -> float:
        ray = ray_of_reference(base_at(beta), cone)
        dx = float(np.dot(ray.direction, cone.axis))
        dy = float(np.dot(ray.direction, w_hat))
        vx = p - float(np.dot(ray.base, cone.axis))
        vy = q - float(np.dot(ray.base, w_hat))
        return dx * vy - dy * vx

    lo, hi = 0.0, np.pi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if signed_offset(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    ray = ray_of_reference(base_at(0.5 * (lo + hi)), cone)
    return ray, _point_to_ray_distance(y, ray)


def ray_bases_reference(Y, cone: ConeParam) -> np.ndarray:
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


def dijkstra_reference(W: np.ndarray, source: int, settled: list | None = None):
    """Binary-heap Dijkstra over a dense cost matrix (``inf`` = no edge);
    returns distances and predecessors (-1 where there is none), and appends
    the nodes to ``settled`` in the order it settles them."""
    n = len(W)
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=int)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if settled is not None:
            settled.append(u)
        for v in range(n):
            if done[v] or not np.isfinite(W[u, v]):
                continue
            nd = d + W[u, v]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def _distance_matrix(X: np.ndarray) -> np.ndarray:
    """Euclidean distance matrices between the rows of each ``(n, s)`` slice
    of ``X``, summed one coordinate at a time from 0."""
    sq = np.zeros(X.shape[:-1] + X.shape[-2:-1])
    for j in range(X.shape[-1]):
        c = X[..., j]
        d = c[..., :, None] - c[..., None, :]
        sq += d * d
    return np.sqrt(sq)


def link_matrix_reference(ctx, points) -> np.ndarray:
    """All link costs of a node set as one dense matrix, priced the way the
    sampler priced every sample graph before it priced rows on demand: whole
    distance matrices of the points and of their radial unit vectors or ray
    bases, the weight law applied through boolean masks, and ``inv_i + w_ij +
    inv_j`` with the diagonal set to 0."""
    P = np.asarray(points, dtype=float)
    D = _distance_matrix(P)
    norms = np.linalg.norm(P, axis=-1)
    idx = sphere_index(norms)
    on = idx > 0
    if ctx.weight_kind == "std_phi":
        am = _radii_upto(int(idx.max(initial=1)))[np.maximum(idx, 1) - 1]
        base_dist = _distance_matrix(P / np.where(norms > 0, norms, 1.0)[..., None])
        same_cost = D / am[..., :, None]
    else:
        bases = np.zeros_like(P)
        bases[on] = ray_bases(P[on] / np.minimum(norms[on], 1.0)[:, None], ctx.cone)
        base_dist = same_cost = _distance_matrix(bases)
    W = D.copy()
    both = on[..., :, None] & on[..., None, :]
    same = both & (idx[..., :, None] == idx[..., None, :])
    W[same] = same_cost[same]
    W[both & (base_dist <= TAU)] = 0.0
    inv = 1.0 / (1.0 + norms)
    L = np.minimum(D, inv[..., :, None] + W + inv[..., None, :])
    diag = np.arange(L.shape[-1])
    L[..., diag, diag] = 0.0
    return L


def approx_dphi_reference(ctx, nodes: NodeSet, x, y):
    """The shortest-path bound between nodes ``x`` and ``y`` of a sample and
    its node chain, from the whole link matrix and a heap Dijkstra."""
    P = nodes.points
    i, j = (int(np.argmin(np.linalg.norm(P - np.asarray(p, dtype=float), axis=1)))
            for p in (x, y))
    if i == j:
        return 0.0, [P[i], P[j]]
    dist, pred = dijkstra_reference(link_matrix_reference(ctx, P), i)
    path = [j]
    while path[-1] != i:
        path.append(int(pred[path[-1]]))
    return float(dist[j]), [P[k] for k in reversed(path)]


def verify_metric_axioms_reference(matrix) -> AxiomReport:
    """The metric-axiom check with the triangle inequality tested pivot by
    pivot: every ``(i, k, j)`` with distinct ``k`` whose slack
    ``M[i, j] - (M[i, k] + M[k, j])`` exceeds ``AXIOM_TOL``."""
    M = np.asarray(matrix, dtype=float)
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
    for k in range(n):
        slack = M - (M[:, k, None] + M[None, k, :])
        bad = slack > AXIOM_TOL
        bad[:, k] = False
        bad[k, :] = False
        for i, j in zip(*np.nonzero(bad)):
            report.triangle.append((int(i), int(k), int(j), float(slack[i, j])))
    return report


def net_solver_reference(k: int):
    """Per-sample epsilon-net coverage solve: the sample, its ladder toward
    sphere k and its candidate centers ``near`` (ball index, -1 for none,
    and sphere index), one link matrix and one heap Dijkstra per call;
    returns the bound to the nearer center."""

    def solve(x, centers, near) -> float:
        x = np.asarray(x, dtype=float)
        n = float(np.linalg.norm(x))
        pts = [x]
        cand = [int(near[0])] if near[0] >= 0 else []
        if n >= 1.0:
            u = x / n
            m = sphere_bracket(n) if n > 1.0 else 1
            ladder = {1, m, m + 1, k, k + 1}
            for j in sorted(ladder):
                pts.append(harmonic_radius(j) * u)
            cand.append(int(near[1]))
        first_center = len(pts)
        for c in cand:
            pts.append(np.asarray(centers[c], dtype=float))
        ctx = euclid_context("std_phi", dim=len(x))
        dist, _ = dijkstra_reference(ctx.link_matrix(np.array(pts)), 0)
        return float(dist[first_center:].min(initial=np.inf))

    return solve


def net_cells_reference(x, sphere, ball, n: int, g: float, slack: float = 0.0):
    """Which centers' cells hold the point ``x``, by a scan of the centers:
    two boolean vectors, over the sphere net ``sphere`` of size n and over
    the ball net ``ball`` of grid step g.  A ball center's cell is the cube
    of side g around it.  A sphere center's cell is, in 2-D, the arc of
    angles within pi/n of its own; for s >= 3, the cell of side 2/n on its
    cube face around its image q/|q|_inf, and it holds x when x/|x|_inf
    lies in it on that face.  Every sphere cell holds x = 0.  Each cell is
    widened by ``slack`` of its half width, or narrowed when ``slack`` is
    negative."""
    x = np.asarray(x, dtype=float)
    gap = np.abs(ball - x).max(axis=1)
    in_ball = gap <= (1.0 + slack) * g / 2.0
    top = np.abs(x).max()
    if top == 0.0:
        return np.ones(len(sphere), dtype=bool), in_ball
    if len(x) == 2:
        turn = np.arctan2(x[1], x[0]) - np.arctan2(sphere[:, 1], sphere[:, 0])
        turn = np.abs((turn + np.pi) % (2.0 * np.pi) - np.pi)
        return turn <= (1.0 + slack) * np.pi / n, in_ball
    # q's face: its coordinate j largest in magnitude, where x's image
    # must lie too; there both images read sign(q_j).
    face = np.abs(sphere).max(axis=1)
    j = np.argmax(np.abs(sphere), axis=1)
    on_face = np.sign(sphere[np.arange(len(sphere)), j]) * x[j] >= top
    offset = np.abs(x / top - sphere / face[:, None]).max(axis=1)
    in_sphere = on_face & (offset <= (1.0 + slack) / n)
    return in_sphere, in_ball


def sphere_net_reference(radius: float, n: int, s: int) -> np.ndarray:
    """The sphere net of size n, one point at a time: n evenly spaced points
    of the circle in the plane; for s >= 3 the cubed sphere, face by face
    (axis j, the face at -1 first) and cell by cell in row-major order.  Each
    cell centre q, its face coordinate first, is scaled by radius/|q|, with
    |q|^2 summed one coordinate at a time."""
    if s == 2:
        angles = np.arange(n) * (2.0 * np.pi / n)
        return radius * np.column_stack([np.cos(angles), np.sin(angles)])
    axis = [-1.0 + (2 * i + 1) / n for i in range(n)]
    rows = []
    for j in range(s):
        for sign in (-1.0, 1.0):
            for others in itertools.product(axis, repeat=s - 1):
                sq = 0.0
                for v in (sign, *others):
                    sq += v * v
                scale = radius / math.sqrt(sq)
                point = [v * scale for v in others]
                point.insert(j, sign * scale)
                rows.append(point)
    return np.array(rows)


def ball_net_reference(radius: float, spacing: float, s: int) -> np.ndarray:
    """The ball net as a whole grid cube: every point of the meshgrid of the
    net's axis, kept when its ``np.linalg.norm`` is within radius +
    spacing/2."""
    g = spacing / np.sqrt(s)
    axis = np.arange(-radius, radius + g, g)
    mesh = np.stack(np.meshgrid(*([axis] * s), indexing="ij"), axis=-1).reshape(-1, s)
    return mesh[np.linalg.norm(mesh, axis=1) <= radius + spacing / 2.0]
