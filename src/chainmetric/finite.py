"""Exact evaluation of the chain-infimum transform on finite spaces.

On a finite space every chain can be loop-erased without increasing its
cost (link costs are nonnegative and deleting a cycle keeps the shared
endpoints), so the infimum is attained by a simple chain and equals the
all-pairs shortest path length on the complete graph weighted by the link
cost.  ``dphi_exact`` computes that; ``dphi_bruteforce`` re-derives it by
enumerating every simple chain, sharing no search logic with the shortest
path so the two act as independent oracles for each other.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MetricContext, delta, link_costs, verify_metric_axioms


@dataclass(frozen=True)
class FiniteSpace:
    """A finite metric space given by an explicit distance matrix.

    ``weights[i, j]`` is the symmetric nonnegative weight attached to the
    pair; a missing weight matrix means weight 0 everywhere.  Points are
    addressed by index, the anchor is one of them.
    """

    distances: np.ndarray
    anchor_index: int = 0
    weights: np.ndarray | None = None

    def __post_init__(self):
        D = np.asarray(self.distances, dtype=float)
        _require_finite_entries(D, "distances")
        object.__setattr__(self, "distances", D)
        report = verify_metric_axioms(D)
        if not report.ok:
            raise ValueError(f"invalid distance matrix: {report.summary()}")
        if not 0 <= self.anchor_index < len(D):
            raise ValueError(f"anchor index {self.anchor_index} out of range")
        if self.weights is not None:
            W = np.asarray(self.weights, dtype=float)
            if W.shape != D.shape:
                raise ValueError("weight matrix shape mismatch")
            _require_finite_entries(W, "weights")
            if np.any(W < 0) or np.any(np.abs(W - W.T) > 0):
                raise ValueError("weights must be nonnegative and symmetric")
            object.__setattr__(self, "weights", W)

    def __len__(self) -> int:
        return len(self.distances)

    def context(self) -> MetricContext:
        D = self.distances
        W = self.weights
        if W is None:
            weight = lambda i, j: 0.0
        else:
            weight = lambda i, j: W[i, j]
        return MetricContext(
            base_distance=lambda i, j: D[i, j],
            weight=weight,
            anchor=self.anchor_index,
        )


@dataclass(frozen=True)
class DphiMatrix:
    """Exact transformed-distance matrix over a finite space; ``pred`` holds
    the shortest-path predecessors of ``dphi_exact``, one row per source."""

    values: np.ndarray
    pred: np.ndarray | None = None

    def __getitem__(self, key):
        return self.values[key]


def link_table(space: FiniteSpace) -> np.ndarray:
    """All-pairs single-link costs, bit-equal to ``delta(ctx, i, j)`` for
    ``i < j``: the upper triangle is priced in that orientation and mirrored,
    so a distance matrix symmetric only to within ``AXIOM_TOL`` still gives a
    symmetric table."""
    D = space.distances
    inv = 1.0 / (1.0 + D[space.anchor_index])
    weight = 0.0 if space.weights is None else space.weights
    table = np.triu(link_costs(D, inv, weight), 1)
    return table + table.T


def shortest_paths(W: np.ndarray, sources):
    """Dijkstra from every source in lockstep over a dense link-cost matrix,
    or over a stack of them ``(B, n, n)`` with one source per matrix.

    ``W[u, v]`` is the nonnegative cost of the edge u -> v, ``inf`` where
    there is none.  Each step settles, per source, the least unsettled node
    (lowest index on ties) and relaxes its out-edges with a strict ``<``, so
    distances and predecessors follow the textbook heap order exactly.
    Returns ``(dist, pred)``, one row per source; ``pred`` is -1 at sources
    and unreached nodes.
    """
    W = np.asarray(W, dtype=float)
    sources = np.atleast_1d(np.asarray(sources, dtype=int))
    rows = np.arange(len(sources))
    # One matrix per source; a single matrix is shared by all, uncopied.
    W = np.broadcast_to(W, (len(sources),) + W.shape[-2:])
    dist = np.full((len(sources), W.shape[-1]), np.inf)
    dist[rows, sources] = 0.0
    pred = np.full(dist.shape, -1, dtype=int)
    frontier = dist.copy()  # distances of unsettled nodes, inf once settled
    for _ in range(W.shape[-1]):
        u = np.argmin(frontier, axis=1)
        du = frontier[rows, u]
        if not np.any(np.isfinite(du)):
            break
        frontier[rows, u] = np.inf
        # A settled node never improves: its distance is at most du and the
        # costs are nonnegative.
        cand = du[:, None] + W[rows, u]
        better = cand < dist
        np.copyto(dist, cand, where=better)
        np.copyto(frontier, cand, where=better)
        np.copyto(pred, u[:, None], where=better)
    return dist, pred


# Link costs per block of rows that `shortest_path` prices at once.  A
# block's largest temporaries, the (2, rows, n) float64 distances between
# points and between bases, then stay within 64 KB up to 4096 nodes (one
# row per block beyond).  At 2**13 they reach 128 KB, glibc malloc's
# default trim and mmap threshold, so each block's memory went back to the
# OS and was faulted in again: a 2526-node search in 3-row blocks took
# 71 ms against 58 ms in one-row blocks.
_ROW_BUDGET = 2**12


def shortest_path(rows, n: int, source: int, target: int):
    """Dijkstra from ``source`` over ``n`` nodes until it settles ``target``,
    in the settle order of :func:`shortest_paths`.  ``rows(block)`` gives the
    costs of the out-edges of the nodes ``block``, a slice or an int array,
    shape ``(len(block), n)``.

    When the search settles a node it has not priced (a miss), it prices
    that node's row together with those of the unpriced nodes of least
    frontier distance below the target's, the ones due to settle before it
    (so never the target).  The source's row is priced alone; after it a
    block holds one row (``slice(u, u + 1)``) at the first miss and twice as
    many at each later one, up to ``max(1, _ROW_BUDGET // n)`` rows, so a
    search that settles a handful of nodes pays for no lookahead.  No row
    is priced twice, and a priced row is read once, when its node settles,
    so distances and predecessors do not depend on the blocks.

    Returns ``(dist, pred)`` as 1-D arrays, final along the settled nodes;
    ``dist`` is ``inf`` at the target when it is unreachable."""
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    pred = np.full(n, -1, dtype=int)
    frontier = dist.copy()  # distances of unsettled nodes, inf once settled
    waiting = {}  # priced rows of unsettled nodes
    priced = np.zeros(n, dtype=bool)  # nodes priced ahead of their settling
    size, most = 1, max(1, _ROW_BUDGET // n)
    while True:
        u = int(frontier.argmin())
        du = frontier[u]
        if u == target or du == np.inf:
            return dist, pred
        frontier[u] = np.inf
        row = waiting.pop(u, None)
        if row is None:
            nxt = ()
            if size > 1:
                ahead = np.where(priced, np.inf, frontier)
                nxt = np.flatnonzero(ahead < frontier[target])
                if len(nxt) >= size:
                    nxt = nxt[ahead[nxt].argpartition(size - 2)[:size - 1]]
            if len(nxt):
                block = rows(np.concatenate(([u], nxt)))
                waiting.update(zip(nxt.tolist(), block[1:]))
                priced[nxt] = True
            else:
                block = rows(slice(u, u + 1))
            row = block[0]
            if u != source:
                size = min(2 * size, most)
        cand = du + row
        better = cand < dist
        np.copyto(dist, cand, where=better)
        np.copyto(frontier, cand, where=better)
        pred[better] = u


def dphi_exact(space: FiniteSpace) -> DphiMatrix:
    """Exact transform via shortest paths over the complete link-cost graph."""
    n = len(space)
    if n == 0:
        raise ValueError("space must have at least 1 point")
    values, pred = shortest_paths(link_table(space), np.arange(n))
    return DphiMatrix(values=values, pred=pred)


def dphi_bruteforce(
    ctx: MetricContext, space: FiniteSpace, max_points: int = 10
) -> DphiMatrix:
    """Exact transform by exhaustive enumeration of all simple chains.

    Depth-first with a visited set and deliberately no cost pruning, to keep
    this oracle maximally independent of the shortest-path implementation.
    """
    n = len(space)
    if n > max_points:
        raise ValueError(f"space with {n} points too large for enumeration")
    table = [[delta(ctx, i, j) for j in range(n)] for i in range(n)]
    values = np.zeros((n, n))

    def best_chain(start: int, target: int) -> float:
        best = np.inf
        visited = [False] * n
        visited[start] = True

        def extend(u: int, cost: float):
            nonlocal best
            row = table[u]
            for v in range(n):
                if v == target:
                    c = cost + row[v]
                    if c < best:
                        best = c
                elif not visited[v]:
                    visited[v] = True
                    extend(v, cost + row[v])
                    visited[v] = False

        extend(start, 0.0)
        return best

    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = best_chain(i, j)
    return DphiMatrix(values=values)


def parse_distance_matrix(text: str) -> np.ndarray:
    """Parse the text format: first line n, then n rows of n finite reals."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty distance matrix input")
    n = int(tokens[0])
    values = [float(t) for t in tokens[1:]]
    if len(values) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(values)}")
    D = np.array(values).reshape(n, n)
    _require_finite_entries(D, "distances")
    return D


def _require_finite_entries(M: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` naming the first NaN or inf entry of ``M``: every
    comparison with NaN is false, so the axiom and sign checks pass it."""
    if not np.isfinite(M).all():
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"entry ({i}, {j}) is {M[i, j]}; {name} must be finite")


def load_distance_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_distance_matrix(fh.read())
