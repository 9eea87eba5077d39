import tracemalloc
from unittest import mock

import numpy as np
import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import traversal
from repro.graph.centrality import closeness_centrality
from repro.graph.core import Graph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    distance_profile,
    double_sweep_diameter,
    eccentricity,
    exact_diameter,
    radius_from,
)


def _path_graph(n):
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return Graph.from_edges(n, edges)


def test_bfs_on_path():
    g = _path_graph(5)
    dist = bfs_distances(g, 0)
    assert dist.tolist() == [0, 1, 2, 3, 4]


def test_bfs_unreachable():
    g = Graph.from_edges(4, np.array([[0, 1]]))
    dist = bfs_distances(g, 0)
    assert dist[2] == UNREACHED and dist[3] == UNREACHED


def test_bfs_multi_source():
    g = _path_graph(7)
    dist = bfs_distances(g, np.array([0, 6]))
    assert dist.tolist() == [0, 1, 2, 3, 2, 1, 0]


def test_bfs_source_out_of_range():
    g = _path_graph(3)
    with pytest.raises(ValueError):
        bfs_distances(g, 10)


def test_eccentricity_path_end():
    g = _path_graph(6)
    assert eccentricity(g, 0) == 5
    assert eccentricity(g, 3) == 3


def test_exact_diameter_path():
    assert exact_diameter(_path_graph(10)) == 9


def test_exact_diameter_restricted_vertices():
    g = Graph.from_edges(6, np.array([[0, 1], [1, 2], [3, 4]]))
    comp = np.array([0, 1, 2])
    assert exact_diameter(g, comp) == 2


def test_double_sweep_exact_on_tree():
    # star + path: a tree, double sweep is exact
    edges = np.array([[0, 1], [0, 2], [2, 3], [3, 4]])
    g = Graph.from_edges(5, edges)
    assert double_sweep_diameter(g, 0) == exact_diameter(g)


def test_radius_from_center():
    g = _path_graph(9)
    assert radius_from(g, np.array([4])) == 4
    assert radius_from(g, np.array([0])) == 8
    # restricting scope
    assert radius_from(g, np.array([0]), within=np.array([0, 1, 2])) == 2


@settings(max_examples=25)
@given(
    st.integers(min_value=2, max_value=25).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                min_size=1,
                max_size=50,
            ),
        )
    )
)
def test_bfs_against_networkx(args):
    n, edges = args
    g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    nxg.remove_edges_from(nx.selfloop_edges(nxg))
    dist = bfs_distances(g, 0)
    nx_dist = nx.single_source_shortest_path_length(nxg, 0)
    for v in range(n):
        expected = nx_dist.get(v, UNREACHED)
        assert dist[v] == expected


@settings(max_examples=15)
@given(
    st.integers(min_value=2, max_value=15).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                min_size=n - 1,
                max_size=3 * n,
            ),
        )
    )
)
def test_double_sweep_lower_bounds_exact(args):
    n, edges = args
    g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    exact = exact_diameter(g)
    assert double_sweep_diameter(g, 0) <= exact


@pytest.mark.parametrize("block_cells", [traversal.SWEEP_BLOCK_CELLS, 64, 1])
@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=2 * n,
            ),
        )
    )
)
@example((0, []))
@example((1, []))
@example((1, [(0, 0)]))
@example((6, [(0, 1), (1, 1), (2, 3), (3, 4)]))  # two components, a loop, an isolate
def test_distance_profile_matches_per_vertex_references(block_cells, args):
    """One sweep gives bitwise the references' diameter and closeness.

    ``block_cells`` 64 and 1 force several source rows per block with a short
    last block, and one row per block.
    """
    n, edges = args
    g = Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    with mock.patch.object(traversal, "SWEEP_BLOCK_CELLS", block_cells):
        profile = distance_profile(g)
    for v in range(n):
        dist = bfs_distances(g, v)
        reached = dist[dist >= 0]
        assert profile.reached[v] == reached.size
        assert profile.distance_sum[v] == reached.sum()
        assert profile.eccentricity[v] == reached.max()
    assert profile.diameter == exact_diameter(g)
    assert profile.closeness().tobytes() == closeness_centrality(g).tobytes()


def test_distance_profile_memory_is_blocked():
    """Transient memory follows the block size, not the n x n distance matrix."""
    rng = np.random.default_rng(7)
    n = 2000
    g = Graph.from_edges(n, rng.integers(0, n, size=(n, 2)))
    tracemalloc.start()
    try:
        distance_profile(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20 < 4 * n * n  # an unblocked int32 matrix: 16 MB
