"""Sampled upper bounds for the chain-infimum transform on R^s.

The infimum over all chains is approximated from above by restricting the
intermediate points to a structured finite sample: nets on the
identification spheres, radial or ray ladders, the query endpoints and
their sphere projections.  These are exactly the chain shapes the
underlying constructions use, so they capture the optimal-chain geometry
at far lower node counts than uniform sampling.  Shortest paths on the
link-cost graph then give certified upper bounds, with the analytic floor
from :mod:`chainmetric.core` closing the bracket from below.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Chain, MetricContext, link_costs
from .finite import shortest_path, shortest_paths
from .rays import (ConeParam, identification_bases, psi, psi_matrix, ray_crossings,
                   ray_through)
from .std_map import (
    M_MAX_DEFAULT,
    NodeColumns,
    _radii_upto,
    _row_norms,
    harmonic_radius,
    node_columns,
    phi_std,
    phi_std_matrix,
    sphere_bracket,
)


@dataclass(frozen=True)
class SamplerConfig:
    dimension: int = 2
    max_sphere_index: int = 5
    angular_resolution: float = 0.5
    radial_steps: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if self.max_sphere_index < 1:
            raise ValueError("max_sphere_index must be >= 1")
        if not self.angular_resolution > 0:
            raise ValueError("angular_resolution must be positive")
        if self.radial_steps < 0:
            raise ValueError(f"radial_steps must be >= 0, got {self.radial_steps}")


@dataclass(frozen=True)
class EuclidContext(MetricContext):
    """Euclidean base metric with the origin anchor and one of the two
    compactification weights; ``link_matrix`` prices rows of a sample with
    ``core.link_costs`` from the sample's ``columns``, computing each block
    of distances once for weight and link."""

    weight_kind: str = "std_phi"
    cone: Optional[ConeParam] = None

    def columns(self, points) -> NodeColumns:
        """The per-node data the link-cost rows of ``points`` read, with the
        identification bases of this weight."""
        if self.weight_kind == "std_phi":
            return node_columns(points)
        return node_columns(points, lambda X, norms: identification_bases(X, norms, self.cone))

    def link_matrix(self, nodes, rows: Optional[slice] = None) -> np.ndarray:
        """Link costs from the nodes in the slice ``rows`` (all by default) of
        a node set to all of its nodes, shape ``(len(rows), n)``; ``nodes`` is
        the set's points ``(n, s)`` or their ``columns``.  Each row is
        bit-equal to the same row of the whole matrix, and a stack of node
        sets ``(..., n, s)`` gives one matrix per set, ``(..., n, n)``, each
        bit-equal to the call on its own set."""
        cols = nodes if isinstance(nodes, NodeColumns) else self.columns(nodes)
        block = cols if rows is None else cols.take(rows)
        D, base_dist = cols.distances(block)
        weight = phi_std_matrix if self.weight_kind == "std_phi" else psi_matrix
        return link_costs(D, cols.inv, weight(block, cols, D, base_dist), rows)


def euclid_context(
    weight_kind: str = "std_phi",
    cone: Optional[ConeParam] = None,
    dim: int = 2,
) -> EuclidContext:
    if weight_kind not in ("std_phi", "ray_psi"):
        raise ValueError(f"unknown weight kind {weight_kind!r}")
    if weight_kind == "ray_psi":
        cone = cone or ConeParam(dim=dim)
        weight = lambda x, y: psi(x, y, cone)
    else:
        weight = phi_std
    dist = lambda x, y: float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    return EuclidContext(
        base_distance=dist,
        weight=weight,
        anchor=np.zeros(dim),
        weight_kind=weight_kind,
        cone=cone,
    )


@dataclass
class NodeSet:
    """Sample points with provenance tags; endpoints come first."""

    points: np.ndarray
    provenance: list

    def __len__(self) -> int:
        return len(self.points)


# The most nodes a sample graph may hold.  A graph's memory is O(n): its
# search prices one row of n link costs per node it settles, so whole
# `converge` runs over a 4846-node 2-D sample and a 4014-node 3-D one peak
# at 33 MB and 39 MB resident (the dense n x n link matrices they used to
# build peaked at 830 MB and 622 MB).  The cap now bounds time, about 0.5 s
# for such a graph, rather than memory.
MAX_NODES = 5000


def _direction_count(config: SamplerConfig) -> float:
    """Directions of the sphere nets of ``config``, as a float (inf when there
    are too many to count)."""
    s, res = config.dimension, config.angular_resolution
    if s == 2:
        return max(1.0, np.ceil(2.0 * np.pi / res))
    with np.errstate(over="ignore"):
        return min(2000.0, max(8.0, np.ceil(np.float64(np.pi / res) ** (s - 1))))


def _net_directions(config: SamplerConfig) -> np.ndarray:
    s, count = config.dimension, int(_direction_count(config))
    if s == 2:
        angles = np.arange(count) * (2.0 * np.pi / count)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(config.seed)
    dirs = rng.normal(size=(count, s))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def _level_config(config: SamplerConfig, level: int) -> SamplerConfig:
    """Refinement level ``level`` of ``config``: each level halves the angular
    resolution and doubles the radial step count."""
    return replace(
        config,
        angular_resolution=config.angular_resolution / (2**level),
        radial_steps=config.radial_steps * (2**level),
    )


def check_sample(config: SamplerConfig, endpoints, levels: int = 1) -> None:
    """Raise ValueError for an endpoint that is not finite, has the wrong
    dimension or lies beyond the last sphere, and when the samples of the
    first ``levels`` refinement levels of ``config`` may hold more than
    ``MAX_NODES`` nodes in all; the count comes from the config alone, before
    any sample is built."""
    for e in endpoints:
        e = np.asarray(e, dtype=float)
        if e.shape != (config.dimension,) or not np.all(np.isfinite(e)):
            raise ValueError(f"bad endpoint {e!r} for dimension {config.dimension}")
        # a_m <= 1 + ln m: a larger coordinate puts the endpoint beyond the
        # last sphere, and is caught before its norm can overflow.
        if np.max(np.abs(e)) > 1.0 + np.log(M_MAX_DEFAULT):
            raise ValueError(f"endpoint coordinate {np.max(np.abs(e))} "
                             f"beyond sphere index cap {M_MAX_DEFAULT}")
    norms = _row_norms(np.reshape(np.asarray(endpoints, dtype=float), (-1, config.dimension)))
    sphere_bracket(norms[norms > 1.0])  # raises beyond the last sphere
    nodes = 0.0
    for level in range(levels):
        cfg = _level_config(config, level)
        # Either count alone above MAX_NODES decides; clamped, no product overflows.
        M, R = (min(v, MAX_NODES + 1) for v in (cfg.max_sphere_index, cfg.radial_steps))
        nodes += _direction_count(cfg) * M + len(endpoints) * (3 + M + R)
        if nodes > MAX_NODES:
            raise ValueError(f"the sample may hold more than {MAX_NODES} nodes")


def _dedupe(points, provenance: list) -> NodeSet:
    """Keep the first of the points that agree to 12 decimals, in order."""
    P = np.asarray(points, dtype=float)
    first = {}
    for i, key in enumerate(map(tuple, np.round(P, 12).tolist())):
        first.setdefault(key, i)
    keep = list(first.values())
    return NodeSet(points=P[keep], provenance=[provenance[i] for i in keep])


def build_sample(
    config: SamplerConfig,
    endpoints,
    weight_kind: str = "std_phi",
    cone: Optional[ConeParam] = None,
) -> NodeSet:
    """Structured sample: endpoints, their sphere projections and ladders,
    plus angular nets placed exactly on the identification spheres."""
    if weight_kind == "ray_psi":
        cone = cone or ConeParam(dim=config.dimension)
    check_sample(config, endpoints)
    s, M, R = config.dimension, config.max_sphere_index, config.radial_steps

    def ladder(bases, radii):
        """The identification map through each base onto each of ``radii``, a
        vector or one row per base: shape ``(bases, radii, s)``."""
        if weight_kind == "std_phi":
            return radii[..., None] * bases[:, None, :]
        return ray_crossings(bases, radii, cone)

    dirs = _net_directions(config)
    if weight_kind == "std_phi":  # sphere by sphere
        net = ladder(dirs, _radii_upto(M)).swapaxes(0, 1)
        net_prov = [f"sphere({m})" for m in range(1, M + 1) for _ in dirs]
    else:  # ray by ray, from its base on sphere 1
        net = np.concatenate([dirs[:, None], ladder(dirs, _radii_upto(M)[1:])], axis=1)
        net_prov = (["sphere(1)"] + ["ray-ladder"] * (M - 1)) * len(dirs)

    E = np.asarray(endpoints, dtype=float).reshape(-1, s)
    norms = _row_norms(E)
    far = norms >= 1.0
    m, X = sphere_bracket(norms[far]), E[far]  # a_m <= |x| < a_{m+1}
    if weight_kind == "std_phi":
        anchors, name = X / norms[far, None], "radial"
    else:
        anchors, name = np.reshape([ray_through(x, cone)[0].base for x in X], (-1, s)), "ray-ladder"
    # Each endpoint of norm >= 1: its sphere pair, its ladder, its radial steps.
    j = np.column_stack([m, m + 1, np.broadcast_to(np.arange(1, M + 1), (len(m), M))])
    f = np.arange(1, R + 1)[:, None] / (R + 1)
    ladders = np.concatenate([ladder(anchors, _radii_upto(int(j.max(initial=M)))[j - 1]),
                              (1.0 - f) * anchors[:, None, :] + f * X[:, None, :]], axis=1)
    prov = [p for k in m
            for p in [f"sphere({k})", f"sphere({k + 1})"] + [name] * M + ["radial"] * R]
    points = np.vstack([E, net.reshape(-1, s), ladders.reshape(-1, s)])
    return _dedupe(points, ["endpoint"] * len(E) + net_prov + prov)


@dataclass
class SampleGraph:
    """Complete link-cost graph over a node set, priced a row at a time from
    the nodes' columns; shortest paths certify upper bounds, and every extra
    pair can only tighten them."""

    nodes: NodeSet
    context: EuclidContext = field(repr=False)
    columns: NodeColumns = field(repr=False)
    # A class constant, not a field: perfbench's build_graph counter reads it.
    mode = "complete"

    def link_row(self, i: int) -> np.ndarray:
        """Link costs from node ``i`` to every node."""
        return self.context.link_matrix(self.columns, slice(i, i + 1))[0]

    def node_index(self, x) -> int:
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(self.nodes.points - x, axis=1)
        i = int(np.argmin(d))
        if d[i] > 1e-9:
            raise KeyError(f"point {x} is not a graph node (nearest at {d[i]})")
        return i


def build_graph(ctx: EuclidContext, nodes: NodeSet) -> SampleGraph:
    """The complete link-cost graph over ``nodes``: the columns of every node,
    from which each row of link costs is priced when a search asks for it."""
    if len(nodes) < 2:
        raise ValueError("need at least 2 nodes")
    return SampleGraph(nodes=nodes, context=ctx, columns=ctx.columns(nodes.points))


def approx_dphi(graph: SampleGraph, x, y) -> tuple[float, Chain]:
    """Shortest-path upper bound between two graph nodes, with the realizing
    node chain as witness; only the rows of the nodes the search settles are
    priced."""
    i, j = graph.node_index(x), graph.node_index(y)
    if i == j:
        return 0.0, Chain([graph.nodes.points[i], graph.nodes.points[j]])
    dist, pred = shortest_path(graph.link_row, len(graph.nodes), i, j)
    if not np.isfinite(dist[j]):
        raise RuntimeError("graph is disconnected between the query endpoints")
    path = [j]
    while path[-1] != i:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return float(dist[j]), Chain([graph.nodes.points[k] for k in path])


def _merge(a: NodeSet, b: NodeSet) -> NodeSet:
    return _dedupe(np.vstack([a.points, b.points]), a.provenance + b.provenance)


def convergence_run(
    ctx: EuclidContext,
    x,
    y,
    levels: int,
    config: Optional[SamplerConfig] = None,
) -> list[tuple[int, int, float]]:
    """Refinement table: each level halves the angular resolution and doubles
    the radial step count, keeping all previous nodes, so the upper bound
    can only go down."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    config = config or SamplerConfig(dimension=len(np.asarray(x, float)))
    check_sample(config, [x, y], levels)
    rows = []
    nodes = None
    for level in range(levels):
        fresh = build_sample(_level_config(config, level), [x, y], ctx.weight_kind, ctx.cone)
        nodes = fresh if nodes is None else _merge(nodes, fresh)
        graph = build_graph(ctx, nodes)
        value, _ = approx_dphi(graph, x, y)
        rows.append((level, len(nodes), value))
    return rows


# Centers per grid cell on average in the nearest-center search, centers
# per column of its distance table; queries per search and rows of cells
# per block of a search, which bound its temporaries.
_CELL_FILL = 2
_CELL_ROW = 4
_CELL_QUERIES = 2**9
_CELL_BLOCK = 2**14
# Samples per stacked solve, which bounds its (S, 8, 8) temporaries.
_NET_ROWS = 2**12


class _CenterGrid:
    """The centers bucketed in a uniform grid of cubic cells, for exact
    nearest-center search (fixed-radius cell lists; Bentley, Stanat &
    Williams 1977).

    ``nearest`` searches all queries at once, in two stages.  First each
    query searches the cube of cells within R of the grid cell nearest to
    it, with R = 1, doubled and searched again while the cube holds no
    center.  Then a query whose best distance reaches past that cube
    searches every cell within the best distance.  Each search takes, for
    each prefix of cells, the row of cells along the last axis, whose
    centers are consecutive.  The chosen index is the brute-force
    ``argmin`` of ``sqrt(sum_j (center_j - x_j)**2)``, bit for bit, because:

    - each candidate distance sums its squares one coordinate at a time and
      then takes the square root, as the brute force does;
    - the best distance is widened by a relative 1e-9 and a slack of 1e-9 of
      the grid's scale wherever it bounds a search: a query skips the second
      stage only when the cube's nearest open face lies beyond it, and a row
      is skipped only when its box does, so float error in the cell
      assignment or in the bounds never drops a center that could tie;
    - among equal distances the lowest center index wins.
    """

    def __init__(self, centers):
        C = self.centers = np.asarray(centers, dtype=float)
        N, s = C.shape
        axes = [C[:, j] for j in range(s)]
        self.lo = np.array([a.min() for a in axes])
        hi = np.array([a.max() for a in axes])
        extent = hi - self.lo
        self.h = float(extent.max()) / max(1, int((N / _CELL_FILL) ** (1.0 / s))) or 1.0
        # A center on the far face of the grid joins the cell below it.
        self.top = np.maximum(np.ceil(extent / self.h).astype(np.int64) - 1, 0)
        self.strides = np.ones(s, dtype=np.int64)
        self.strides[:-1] = np.cumprod(self.top[:0:-1] + 1)[::-1]
        flat = np.zeros(N, dtype=np.int64)
        for a, lo, top in zip(axes, self.lo, self.top):
            flat *= top + 1
            flat += np.minimum(np.floor((a - lo) / self.h).astype(np.int64), top)
        self.start = np.zeros(int(np.prod(self.top + 1)) + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=len(self.start) - 1), out=self.start[1:])
        # Sorted by cell, then by index, and padded at the end with centers
        # at infinity, which never win, so that a column of the distance
        # table may run past the last center.
        self.order = np.full(N + _CELL_ROW, N)
        self.order[:N] = np.argsort(flat, kind="stable")
        self.columns = np.full((s, N + _CELL_ROW), np.inf)
        for a, column in zip(axes, self.columns):
            np.take(a, self.order[:N], out=column[:N])
        self.slack = 1e-9 * (self.h + max(np.abs(self.lo).max(), np.abs(hi).max()))

    def nearest(self, points) -> np.ndarray:
        """Index of the Euclidean-nearest center to each row of ``points``,
        the lowest on a tie, searched ``_CELL_QUERIES`` rows at a time."""
        X = np.asarray(points, dtype=float)
        if not np.isfinite(X).all():
            raise ValueError("nearest-center query with a non-finite coordinate")
        near = np.empty(len(X), dtype=np.intp)
        for lo in range(0, len(X), _CELL_QUERIES):
            near[lo:lo + _CELL_QUERIES] = self._nearest(X[lo:lo + _CELL_QUERIES])
        return near

    def _nearest(self, X) -> np.ndarray:
        """``nearest`` for one block of rows of ``X``."""
        axes = np.ascontiguousarray(X.T)
        Q = axes.shape[1]
        top = self.top[:, None]
        home = np.clip(self._cells(axes), 0, top)
        best = np.full(Q, np.inf)
        arg = np.full(Q, len(self.centers))
        R = np.ones(Q, dtype=np.int64)
        live = np.arange(Q)
        while len(live):
            self._cover(axes, live, home[:, live] - R[live], home[:, live] + R[live], best, arg)
            live = live[arg[live] == len(self.centers)]
            R[live] *= 2
        reach = best * (1.0 + 1e-9) + self.slack
        # Distance to the nearest face of the cube with cells beyond it.
        below = np.where(home - R > 0, axes - (self.lo[:, None] + (home - R) * self.h), np.inf)
        above = np.where(home + R < top, self.lo[:, None] + (home + R + 1) * self.h - axes, np.inf)
        live = np.flatnonzero(np.minimum(below, above).min(axis=0) <= reach)
        if len(live):
            x, r = axes[:, live], reach[live]
            self._cover(axes, live, self._cells(x - r), self._cells(x + r), best, arg)
        return arg

    def _cells(self, axes) -> np.ndarray:
        """Cell index of each coordinate of ``axes``, one axis per row,
        counted from the grid's low corner and not clipped to the grid."""
        t = np.clip((axes - self.lo[:, None]) / self.h, -2.0**52, 2.0**52)
        return np.floor(t).astype(np.int64)

    def _cover(self, axes, live, lo, hi, best, arg) -> None:
        """Search cells ``lo[:, i]`` to ``hi[:, i]``, clipped to the grid, for
        query ``live[i]``, in blocks of about ``_CELL_BLOCK`` rows of cells."""
        top = self.top[:, None]
        lo, hi = np.clip(lo, 0, top), np.clip(hi, 0, top)
        rows = np.cumsum((hi[:-1] - lo[:-1] + 1).prod(axis=0))
        a = 0
        while a < len(live):
            b = max(a + 1, int(np.searchsorted(rows, rows[a] + _CELL_BLOCK)))
            self._search(axes, *self._rows(axes, live[a:b], lo[:, a:b], hi[:, a:b], best),
                         best, arg)
            a = b

    def _rows(self, axes, live, lo, hi, best):
        """Runs ``(q, first cell, stop cell)`` of cells ``lo[:, i]`` to
        ``hi[:, i]`` for query ``live[i]``, one row along the last axis per
        prefix; rows whose box is farther than the best distance are
        dropped."""
        size = hi[:-1] - lo[:-1] + 1
        count = size.prod(axis=0)
        row = np.repeat(np.arange(len(live)), count)
        k = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
        q = live[row]
        base = np.zeros(len(row), dtype=np.int64)
        gap = np.zeros(len(row))
        for j in range(len(axes) - 1):
            p = lo[j][row] + k % size[j][row]
            k //= size[j][row]
            base += p * self.strides[j]
            x, near = axes[j][q], self.lo[j] + p * self.h
            g = np.maximum(np.maximum(near - x, x - (near + self.h)), 0.0)
            gap += g * g
        u, v = lo[-1][row], hi[-1][row]
        x = axes[-1][q]
        g = np.maximum(np.maximum(self.lo[-1] + u * self.h - x,
                                  x - (self.lo[-1] + (v + 1) * self.h)), 0.0)
        keep = np.sqrt(gap + g * g) - self.slack <= best[q] * (1.0 + 1e-9)
        return q[keep], (base + u)[keep], (base + v + 1)[keep]

    def _search(self, axes, q, first, stop, best, arg) -> None:
        """Update the best distance and index of query ``q[i]`` over the
        centers of cells ``first[i]`` up to ``stop[i]``; ``q`` is sorted and
        ``axes`` holds the query coordinates one axis per row.  A run of
        centers is compared in columns of ``_CELL_ROW``; the last column of a
        run may reach into the next cells, whose centers are real (or at
        infinity), so comparing them too changes no result."""
        first, stop = self.start[first], self.start[stop]
        cols = (stop - first + _CELL_ROW - 1) // _CELL_ROW
        ends = np.cumsum(cols)
        if not len(ends) or not ends[-1]:
            return
        col_q = np.repeat(q, cols)
        # pos[w, i]: the w-th center of column i.
        pos = (np.repeat(first - (ends - cols) * _CELL_ROW, cols)
               + np.arange(0, ends[-1] * _CELL_ROW, _CELL_ROW)) + np.arange(_CELL_ROW)[:, None]
        sq = d = None
        for column, x in zip(self.columns, axes):
            d = np.take(column, pos, out=d)
            d -= x[col_q]
            d *= d
            sq = d.copy() if sq is None else np.add(sq, d, out=sq)
        dist = np.sqrt(sq, out=sq)
        lead = np.concatenate(([True], col_q[1:] != col_q[:-1]))
        head = np.flatnonzero(lead)
        q = col_q[head]
        m = np.minimum.reduceat(dist.min(axis=0), head)
        tied = dist == m[np.cumsum(lead) - 1]
        i = np.minimum.reduceat(np.where(tied, self.order[pos], len(self.centers)).min(axis=0), head)
        better = (m < best[q]) | ((m == best[q]) & (i < arg[q]))
        best[q[better]] = m[better]
        arg[q[better]] = i[better]


def make_net_solver(k: int):
    """Coverage solver for epsilon-net verification.

    For each sample point (a row of ``X``), stacks the projection /
    identification chain nodes toward sphere k and the two best candidate
    centers into one ``(8, s)`` node set with a validity mask: the sample,
    its ladder ``{1, m, m+1, k, k+1}`` (``a_m <= |x| < a_{m+1}``, only when
    ``|x| >= 1``) and the centers nearest to the sample and to its sphere-k
    projection.  One Dijkstra over all link matrices at once gives each
    sample's shortest-path upper bound to the nearer center.
    """
    ak = harmonic_radius(k)

    def solve(X, centers) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        grid = _CenterGrid(centers)
        ctx = euclid_context("std_phi", dim=X.shape[1])
        bounds = np.empty(len(X))
        for lo in range(0, len(X), _NET_ROWS):
            bounds[lo:lo + _NET_ROWS] = _net_bounds(ctx, X[lo:lo + _NET_ROWS], grid, k, ak)
        return bounds

    return solve


def _net_bounds(ctx: EuclidContext, X, grid: _CenterGrid, k: int, ak: float) -> np.ndarray:
    """The net solver's bounds for the rows of ``X``, as one stacked solve."""
    S, s = X.shape
    norms = _row_norms(X)
    far = norms >= 1.0
    m = np.ones(S, dtype=int)
    m[norms > 1.0] = sphere_bracket(norms[norms > 1.0])
    U = X / np.where(far, norms, 1.0)[:, None]
    ladder = np.sort(np.column_stack([np.ones(S, dtype=int), m, m + 1,
                                      np.full(S, k), np.full(S, k + 1)]), axis=1)
    fresh = np.ones_like(ladder, dtype=bool)
    fresh[:, 1:] = ladder[:, 1:] != ladder[:, :-1]
    radii = _radii_upto(int(ladder.max()))[ladder - 1]

    near = grid.nearest(np.vstack([X, ak * U[far]]))
    near_x = near[:S]
    near_z = near_x.copy()
    near_z[far] = near[S:]
    centers = grid.centers

    P = np.empty((S, 8, s))
    P[:, 0] = X
    P[:, 1:6] = radii[:, :, None] * U[:, None, :]
    P[:, 6] = centers[near_x]
    P[:, 7] = centers[near_z]
    valid = np.column_stack([np.ones(S, dtype=bool), fresh & far[:, None],
                             np.ones(S, dtype=bool), far & (near_z != near_x)])
    W = ctx.link_matrix(P)
    W[~(valid[:, :, None] & valid[:, None, :])] = np.inf
    return shortest_paths(W, np.zeros(S, dtype=int))[0][:, 6:].min(axis=1)
