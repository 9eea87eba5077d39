"""BFS-based traversal: distances, eccentricity, diameter.

The paper measures the largest connected component's diameter (18) and the
hop radius from the central entities (≈10, "about 55% less than the
diameter", §4.3.2).  BFS here is frontier-vectorized: each level expands the
whole frontier at once through the CSR arrays instead of vertex by vertex.
:func:`distance_profile` also batches the sources, running the BFS from a
block of vertices together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.core import Graph

UNREACHED = -1


def _gather_neighbors(graph: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR neighbour lists of ``frontier``, plus each list's length.

    One vectorised gather: output slot ``j`` of vertex ``v``'s run reads
    ``indices[indptr[v] + j]``, so no Python loop runs per frontier vertex.
    """
    starts = graph.indptr[frontier]
    counts = graph.indptr[frontier + 1] - starts
    firsts = np.cumsum(counts) - counts  # each run's first output slot
    slots = np.arange(counts.sum(), dtype=np.int64) + np.repeat(starts - firsts, counts)
    return graph.indices[slots], counts


def bfs_distances(graph: Graph, source: int | np.ndarray) -> np.ndarray:
    """Hop distances from ``source`` (or the nearest of several sources).

    Unreachable vertices get :data:`UNREACHED`.
    """
    dist = np.full(graph.n, UNREACHED, dtype=np.int64)
    frontier = np.atleast_1d(np.asarray(source, dtype=np.int64))
    if frontier.size and (frontier.min() < 0 or frontier.max() >= graph.n):
        raise ValueError("source vertex out of range")
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        nbrs, _ = _gather_neighbors(graph, frontier)
        fresh = nbrs[dist[nbrs] == UNREACHED]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = level
        frontier = fresh
    return dist


def eccentricity(graph: Graph, v: int) -> int:
    """Largest finite hop distance from ``v``."""
    dist = bfs_distances(graph, v)
    reached = dist[dist >= 0]
    return int(reached.max())


def exact_diameter(graph: Graph, vertices: np.ndarray | None = None) -> int:
    """Exact diameter by all-pairs BFS over ``vertices`` (one component).

    O(n·m) with one BFS per vertex: the reference for
    :func:`distance_profile`, which the analysis uses instead.
    """
    if vertices is None:
        vertices = np.arange(graph.n, dtype=np.int64)
    best = 0
    for v in vertices:
        dist = bfs_distances(graph, int(v))
        local = dist[vertices]
        local = local[local >= 0]
        if local.size:
            best = max(best, int(local.max()))
    return best


def double_sweep_diameter(graph: Graph, start: int) -> int:
    """Double-sweep lower bound on the diameter (exact on trees).

    BFS from ``start``, then BFS again from the farthest vertex found — the
    classic cheap estimator used before committing to all-pairs BFS.
    """
    dist1 = bfs_distances(graph, start)
    reach = np.flatnonzero(dist1 >= 0)
    far = reach[np.argmax(dist1[reach])]
    dist2 = bfs_distances(graph, int(far))
    reached = dist2[dist2 >= 0]
    return int(reached.max())


def radius_from(graph: Graph, sources: np.ndarray, within: np.ndarray | None = None) -> int:
    """Max hops needed to reach every vertex of ``within`` from the nearest source.

    Implements the paper's centrality claim: "from those centric entities,
    all other entities can be reached within 10 hops".
    """
    dist = bfs_distances(graph, np.asarray(sources, dtype=np.int64))
    scope = dist if within is None else dist[np.asarray(within, dtype=np.int64)]
    scope = scope[scope >= 0]
    if scope.size == 0:
        return 0
    return int(scope.max())


#: Cells per block of the all-sources sweep.  A block takes as many source
#: rows (at least one) as keep both its int32 distance matrix and one
#: level's neighbour gather (at most 2m entries per row) within this many
#: cells, so the sweep's transient memory beyond its three n-length results
#: stays near a megabyte (1.3 MiB peak on a 1,319-vertex component).
SWEEP_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class DistanceProfile:
    """Per-vertex summary of BFS from every vertex (see :func:`distance_profile`)."""

    #: vertices at a finite distance, the source itself included
    reached: np.ndarray
    #: sum of those finite distances
    distance_sum: np.ndarray
    #: largest finite distance
    eccentricity: np.ndarray

    @property
    def diameter(self) -> int:
        """Largest eccentricity; equals :func:`exact_diameter` on the same graph."""
        return int(self.eccentricity.max()) if self.eccentricity.size else 0

    def closeness(self) -> np.ndarray:
        """Wasserman–Faust closeness, bitwise equal to ``closeness_centrality``."""
        n = self.reached.size
        out = np.zeros(n, dtype=np.float64)
        if n <= 1:
            return out
        others = (self.reached - 1).astype(np.float64)
        ok = others > 0
        total = self.distance_sum[ok].astype(np.float64)
        out[ok] = (others[ok] / (n - 1)) * (others[ok] / total)
        return out


def distance_profile(graph: Graph) -> DistanceProfile:
    """BFS from every vertex at once, summarised per source.

    Level-synchronous over the CSR arrays: a block of source rows advances
    one level at a time, every row's frontier expanded by one gather, so the
    interpreter works once per level per block instead of once per level per
    source.  :func:`exact_diameter` and ``closeness_centrality`` are the
    per-vertex references it is tested against.
    """
    n = graph.n
    reached = np.zeros(n, dtype=np.int64)
    distance_sum = np.zeros(n, dtype=np.int64)
    ecc = np.zeros(n, dtype=np.int64)
    rows = max(1, SWEEP_BLOCK_CELLS // max(n, graph.indices.size, 1))
    for lo in range(0, n, rows):
        sources = np.arange(lo, min(lo + rows, n), dtype=np.int64)
        dist = np.full((sources.size, n), UNREACHED, dtype=np.int32)
        cells = dist.reshape(-1)  # cell row * n + v holds d(sources[row], v)
        row, frontier = np.arange(sources.size, dtype=np.int64), sources
        cells[row * n + frontier] = 0
        level = 0
        while frontier.size:
            level += 1
            nbrs, counts = _gather_neighbors(graph, frontier)
            hit = np.repeat(row * n, counts) + nbrs
            cells[hit[cells[hit] == UNREACHED]] = level
            # the next frontier is every cell first reached at this level
            row, frontier = np.divmod(np.flatnonzero(cells == level), n)
        seen = dist >= 0
        reached[sources] = seen.sum(axis=1)
        distance_sum[sources] = np.maximum(dist, 0).sum(axis=1, dtype=np.int64)
        ecc[sources] = dist.max(axis=1)
    return DistanceProfile(reached=reached, distance_sum=distance_sum, eccentricity=ecc)
