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

    def link_matrix(self, nodes, rows: slice | np.ndarray | None = None) -> np.ndarray:
        """Link costs from the nodes ``rows`` (a slice or an int array; all by
        default) of a node set to all of its nodes, shape ``(len(rows), n)``;
        ``nodes`` is the set's points ``(n, s)`` or their ``columns``.  Each
        row is bit-equal to its node's row of the whole matrix, and a stack of
        node sets ``(..., n, s)`` gives one matrix per set, ``(..., n, n)``,
        each bit-equal to the call on its own set."""
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
# search prices blocks of at most max(n, finite._ROW_BUDGET) link costs, so
# whole `converge` runs over a 4846-node 2-D sample and a 4014-node 3-D one
# peak at 33 MB and 39 MB resident (the dense n x n link matrices they used
# to build peaked at 830 MB and 622 MB).  The cap bounds time, about 0.15 s
# for the 4846-node run, rather than memory.
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
    """Complete link-cost graph over a node set, priced a block of rows at a
    time from the nodes' columns; shortest paths certify upper bounds, and
    every extra pair can only tighten them."""

    nodes: NodeSet
    context: EuclidContext = field(repr=False)
    columns: NodeColumns = field(repr=False)
    # A class constant, not a field: perfbench's build_graph counter reads it.
    mode = "complete"

    def link_rows(self, block) -> np.ndarray:
        """Link costs from the nodes ``block`` (a slice or an int array) to
        every node, shape ``(len(block), n)``."""
        return self.context.link_matrix(self.columns, block)

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
    node chain as witness; the search prices rows in growing blocks of the
    nodes it is about to settle (:func:`finite.shortest_path`), never the
    whole link matrix."""
    i, j = graph.node_index(x), graph.node_index(y)
    if i == j:
        return 0.0, Chain([graph.nodes.points[i], graph.nodes.points[j]])
    dist, pred = shortest_path(graph.link_rows, len(graph.nodes), i, j)
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


# Samples per stacked solve, which bounds its (S, 8, 8) temporaries.
_NET_ROWS = 2**12


def make_net_solver():
    """Coverage solver for epsilon-net verification, ``solve(X, net)``.

    Each sample (a row of ``X``) gets one ``(8, s)`` node set with a
    validity mask: the sample, its ladder ``{1, m, m+1, k, k+1}``
    (``a_m <= |x| < a_{m+1}``) toward sphere k and the sphere-k center of
    its direction's cell, both only when ``|x| >= 1``, and the ball net's
    grid point of its cell when that is a center
    (``EpsilonNet.candidate_centers``).  One Dijkstra over all the link
    matrices at once bounds each sample's distance to the nearer of the two
    centers, which the certificate bounds by ``certified_radius``.
    """

    def solve(X, net) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        ctx = euclid_context("std_phi", dim=X.shape[1])
        bounds = np.empty(len(X))
        for lo in range(0, len(X), _NET_ROWS):
            bounds[lo:lo + _NET_ROWS] = _net_bounds(ctx, X[lo:lo + _NET_ROWS], net)
        return bounds

    return solve


def _net_bounds(ctx: EuclidContext, X, net) -> np.ndarray:
    """The net solver's bounds for the rows of ``X``, as one stacked solve."""
    S, s = X.shape
    norms = _row_norms(X)
    far = norms >= 1.0
    m = np.ones(S, dtype=int)
    m[norms > 1.0] = sphere_bracket(norms[norms > 1.0])
    U = X / np.where(far, norms, 1.0)[:, None]
    ladder = np.sort(np.column_stack([np.ones(S, dtype=int), m, m + 1,
                                      np.full(S, net.k), np.full(S, net.k + 1)]), axis=1)
    fresh = np.ones_like(ladder, dtype=bool)
    fresh[:, 1:] = ladder[:, 1:] != ladder[:, :-1]
    radii = _radii_upto(int(ladder.max()))[ladder - 1]
    near_x, near_z = net.candidate_centers(X)

    P = np.empty((S, 8, s))
    P[:, 0] = X
    P[:, 1:6] = radii[:, :, None] * U[:, None, :]
    P[:, 6] = net.centers[near_x]
    P[:, 7] = net.centers[near_z]
    valid = np.column_stack([np.ones(S, dtype=bool), fresh & far[:, None], near_x >= 0, far])
    W = ctx.link_matrix(P)
    W[~(valid[:, :, None] & valid[:, None, :])] = np.inf
    return shortest_paths(W, np.zeros(S, dtype=int))[0][:, 6:].min(axis=1)
