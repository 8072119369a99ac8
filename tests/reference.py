"""Loop-per-element reference implementations for the vectorized kernels.

These are the scalar algorithms the library used before its batched
kernels: one sphere lookup per norm, one bisection per point for the ray
base, a binary-heap Dijkstra per source, one shortest-path solve per
epsilon-net sample, a whole-cube grid for the 3-D sphere net and a
brute-force nearest-center search.  They
exist only so the tests can hold the kernels to them.
"""
from __future__ import annotations

import heapq

import numpy as np

from chainmetric.rays import ConeParam, _point_to_ray_distance, ray_of
from chainmetric.sampler import euclid_context
from chainmetric.std_map import M_MAX_DEFAULT, _radii_upto, harmonic_radius, sphere_bracket


def sphere_index_reference(norm: float, tau: float = 1e-9, m_max: int = M_MAX_DEFAULT):
    """Index m with |norm - a_m| <= tau * a_m, or None if off every sphere."""
    if norm < 1.0 - tau:
        return None
    radii = _radii_upto(min(m_max, 1024))
    while radii[-1] < norm * (1.0 + tau) and len(radii) < m_max:
        radii = _radii_upto(min(m_max, 2 * len(radii)))
    pos = int(np.searchsorted(radii, norm))
    for m in (pos, pos + 1):
        if 1 <= m <= len(radii) and abs(norm - radii[m - 1]) <= tau * radii[m - 1]:
            return m
    return None


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
        ray = ray_of(cone.axis if y[0] > 0 else -cone.axis, cone)
        return ray, _point_to_ray_distance(y, ray)
    w_hat = w / q
    p = float(y[0])

    def base_at(beta: float) -> np.ndarray:
        return np.cos(beta) * cone.axis + np.sin(beta) * w_hat

    def signed_offset(beta: float) -> float:
        ray = ray_of(base_at(beta), cone)
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
    ray = ray_of(base_at(0.5 * (lo + hi)), cone)
    return ray, _point_to_ray_distance(y, ray)


def dijkstra_reference(W: np.ndarray, source: int):
    """Binary-heap Dijkstra over a dense cost matrix (``inf`` = no edge);
    returns distances and predecessors (-1 where there is none)."""
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
        for v in range(n):
            if done[v] or not np.isfinite(W[u, v]):
                continue
            nd = d + W[u, v]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def net_solver_reference(k: int):
    """Per-sample epsilon-net coverage solve: the sample, its ladder toward
    sphere k and its two candidate centers, one link matrix and one heap
    Dijkstra per call; returns the bound to the nearer center."""
    ak = harmonic_radius(k)

    def solve(x, centers) -> float:
        x = np.asarray(x, dtype=float)
        n = float(np.linalg.norm(x))
        pts = [x]
        cand = [int(np.argmin(np.linalg.norm(centers - x, axis=1)))]
        if n >= 1.0:
            u = x / n
            m = sphere_bracket(n) if n > 1.0 else 1
            ladder = {1, m, m + 1, k, k + 1}
            for j in sorted(ladder):
                pts.append(harmonic_radius(j) * u)
            z = ak * u
            cand.append(int(np.argmin(np.linalg.norm(centers - z, axis=1))))
        first_center = len(pts)
        for c in dict.fromkeys(cand):
            pts.append(np.asarray(centers[c], dtype=float))
        ctx = euclid_context("std_phi", dim=len(x))
        dist, _ = dijkstra_reference(ctx.link_matrix(np.array(pts)), 0)
        return float(dist[first_center:].min())

    return solve


def sphere_net_reference(radius: float, spacing: float, s: int) -> np.ndarray:
    """``spacing``-net of the sphere: evenly spaced points of the circle in
    the plane; for s >= 3 the grid-projection net, built from the whole
    ``(2 radius / g)^s`` grid cube at once."""
    if s == 2:
        step = 2.0 * np.arcsin(min(1.0, spacing / (2.0 * radius)))
        count = int(np.ceil(2.0 * np.pi / step))
        angles = np.arange(count) * (2.0 * np.pi / count)
        return radius * np.column_stack([np.cos(angles), np.sin(angles)])
    g = spacing / (2.0 * np.sqrt(s))
    axis = np.arange(-radius - g, radius + 2 * g, g)
    mesh = np.stack(np.meshgrid(*([axis] * s), indexing="ij"), axis=-1).reshape(-1, s)
    norms = np.linalg.norm(mesh, axis=1)
    keep = np.abs(norms - radius) <= spacing / 2.0
    pts = mesh[keep] * (radius / norms[keep])[:, None]
    cells = np.round(pts / (spacing / 4.0)).astype(int)
    return pts[np.sort(np.unique(cells, axis=0, return_index=True)[1])]


def nearest_center_reference(points, centers) -> np.ndarray:
    """Index of the Euclidean-nearest center to each row of ``points``, the
    first on a tie, by brute force: squares summed one coordinate at a time,
    as in ``np.linalg.norm(centers - x, axis=1)``."""
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    nearest = np.empty(len(points), dtype=np.intp)
    for i, x in enumerate(points):
        sq = np.zeros(len(centers))
        for j in range(len(x)):
            d = centers[:, j] - x[j]
            sq += d * d
        nearest[i] = np.sqrt(sq).argmin()
    return nearest
