"""Graph substrate for the data-sharing analysis (§4.3).

A small self-contained graph library — the paper ran its network analysis on
Spark; we provide the same primitives over a CSR adjacency structure:
connected components (union-find), BFS distances, exact and double-sweep
diameter, degree statistics, and closeness/betweenness centrality (Brandes).

The §4.3 diameter and closeness come from one blocked all-sources BFS sweep,
:func:`distance_profile`, whose transient memory is bounded by
``traversal.SWEEP_BLOCK_CELLS`` (a 1.3 MiB peak on the 1,319-vertex giant
component).  The per-vertex functions (:func:`bfs_distances`,
:func:`exact_diameter`, :func:`closeness_centrality`) are the references
the sweep is tested against.

``networkx`` is intentionally *not* used here — it serves only as a test
oracle in the test suite.
"""

from repro.graph.core import Graph
from repro.graph.components import ConnectedComponents, connected_components
from repro.graph.traversal import (
    bfs_distances,
    distance_profile,
    double_sweep_diameter,
    eccentricity,
    exact_diameter,
)
from repro.graph.centrality import betweenness_centrality, closeness_centrality, degree_centrality
from repro.graph.unionfind import UnionFind

__all__ = [
    "Graph",
    "ConnectedComponents",
    "connected_components",
    "bfs_distances",
    "distance_profile",
    "double_sweep_diameter",
    "exact_diameter",
    "eccentricity",
    "betweenness_centrality",
    "closeness_centrality",
    "degree_centrality",
    "UnionFind",
]
