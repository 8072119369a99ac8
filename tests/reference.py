"""Loop-per-element reference implementations for the vectorized kernels.

These are the scalar algorithms the library used before its batched
kernels: one sphere lookup per norm, one bisection per point for the ray
base, and a binary-heap Dijkstra per source.  They exist only so the tests
can hold the kernels to them.
"""
from __future__ import annotations

import heapq

import numpy as np

from chainmetric.rays import ConeParam, _point_to_ray_distance, ray_of
from chainmetric.std_map import M_MAX_DEFAULT, _radii_upto


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
