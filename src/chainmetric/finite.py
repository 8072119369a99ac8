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

import io
from dataclasses import dataclass

import numpy as np

from .core import MetricContext, delta, verify_metric_axioms


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
    """Exact transformed-distance matrix over a finite space."""

    values: np.ndarray

    def __getitem__(self, key):
        return self.values[key]


def link_table(ctx: MetricContext, space: FiniteSpace) -> np.ndarray:
    """All-pairs single-link costs."""
    n = len(space)
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = delta(ctx, i, j)
    return table


def shortest_paths(W: np.ndarray, sources, target: int | None = None):
    """Dijkstra from every source in lockstep over a dense link-cost matrix,
    or over a stack of them ``(B, n, n)`` with one source per matrix.

    ``W[u, v]`` is the nonnegative cost of the edge u -> v, ``inf`` where
    there is none.  Each step settles, per source, the least unsettled node
    (lowest index on ties) and relaxes its out-edges with a strict ``<``, so
    distances and predecessors follow the textbook heap order exactly.  With
    a ``target`` the search stops once every source has settled it.  Returns
    ``(dist, pred)``, one row per source; ``pred`` is -1 at sources and
    unreached nodes.
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
        if target is not None and np.all(
            np.isinf(frontier[:, target]) & np.isfinite(dist[:, target])
        ):
            break  # the target is settled for every source
        # A settled node never improves: its distance is at most du and the
        # costs are nonnegative.
        cand = du[:, None] + W[rows, u]
        better = cand < dist
        np.copyto(dist, cand, where=better)
        np.copyto(frontier, cand, where=better)
        np.copyto(pred, u[:, None], where=better)
    return dist, pred


def dphi_exact(ctx: MetricContext, space: FiniteSpace) -> DphiMatrix:
    """Exact transform via shortest paths over the complete link-cost graph."""
    n = len(space)
    if n == 0:
        raise ValueError("space must have at least 1 point")
    table = link_table(ctx, space)
    values, _ = shortest_paths(table, np.arange(n))
    return DphiMatrix(values=values)


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


def dump_distance_matrix(matrix: np.ndarray, fh: io.TextIOBase) -> None:
    n = len(matrix)
    fh.write(f"{n}\n")
    for row in matrix:
        fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
