"""Tests for the dynamic graph store, generators, and traversals."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    ArrayDynamicGraph,
    DynamicGraph,
    adjacency_from_edges,
    barbell_graph,
    bfs_distances,
    bfs_distances_bounded,
    complete_graph,
    connected_components,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    norm_edge,
    power_law_graph,
    random_connected_graph,
    random_tree,
    ring_of_cliques,
)


class TestNormEdge:
    def test_orders_endpoints(self):
        assert norm_edge(5, 2) == (2, 5)
        assert norm_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            norm_edge(3, 3)


class TestDynamicGraph:
    def test_insert_and_query(self):
        g = DynamicGraph(4, [(0, 1), (2, 1)])
        assert g.m == 2
        assert (1, 0) in g
        assert g.neighbors(1) == {0, 2}
        assert g.degree(1) == 2 and g.degree(3) == 0

    def test_duplicate_insert_rejected(self):
        g = DynamicGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.insert_batch([(1, 0)])

    def test_delete(self):
        g = DynamicGraph(3, [(0, 1), (1, 2)])
        g.delete_batch([(1, 0)])
        assert g.m == 1 and (0, 1) not in g
        with pytest.raises(KeyError):
            g.delete_batch([(0, 1)])

    def test_vertex_bounds_checked(self):
        g = DynamicGraph(3)
        with pytest.raises(ValueError):
            g.insert_batch([(0, 3)])

    def test_failed_insert_batch_leaves_graph_unchanged(self):
        g = DynamicGraph(4, [(0, 1)])
        with pytest.raises(ValueError):
            g.insert_batch([(1, 2), (0, 1), (2, 3)])  # (0, 1) is a dup
        assert g.m == 1
        assert (1, 2) not in g and (2, 3) not in g
        with pytest.raises(ValueError):
            g.insert_batch([(1, 2), (2, 1)])  # duplicate within the batch
        assert g.m == 1

    def test_failed_delete_batch_leaves_graph_unchanged(self):
        g = DynamicGraph(4, [(0, 1), (1, 2)])
        with pytest.raises(KeyError):
            g.delete_batch([(0, 1), (2, 3)])  # (2, 3) absent
        assert g.m == 2 and (0, 1) in g
        with pytest.raises(KeyError):
            g.delete_batch([(1, 2), (2, 1)])  # same edge twice
        assert g.m == 2 and (1, 2) in g

    def test_copy_is_independent(self):
        g = DynamicGraph(3, [(0, 1)])
        h = g.copy()
        h.delete_batch([(0, 1)])
        assert g.m == 1 and h.m == 0

    def test_to_networkx(self):
        g = DynamicGraph(4, [(0, 1), (2, 3)])
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 2


class TestGenerators:
    def test_gnm_has_exact_edge_count(self):
        for n, m in [(10, 0), (10, 20), (10, 45), (50, 200)]:
            edges = gnm_random_graph(n, m, seed=1)
            assert len(edges) == m
            assert len(set(edges)) == m
            assert all(0 <= u < v < n for u, v in edges)

    def test_gnm_too_many_edges(self):
        with pytest.raises(ValueError):
            gnm_random_graph(4, 7)

    def test_gnp_extremes(self):
        assert gnp_random_graph(10, 0.0, seed=1) == []
        assert sorted(gnp_random_graph(5, 1.0, seed=1)) == complete_graph(5)

    def test_gnp_density_reasonable(self):
        edges = gnp_random_graph(200, 0.1, seed=3)
        expect = 0.1 * 200 * 199 / 2
        assert 0.7 * expect < len(edges) < 1.3 * expect
        assert all(0 <= u < v < 200 for u, v in edges)

    def test_random_tree_is_tree(self):
        edges = random_tree(40, seed=5)
        g = nx.Graph(edges)
        g.add_nodes_from(range(40))
        assert nx.is_tree(g)

    def test_random_connected_graph(self):
        edges = random_connected_graph(30, 60, seed=2)
        assert len(edges) == 60
        g = nx.Graph(edges)
        g.add_nodes_from(range(30))
        assert nx.is_connected(g)

    def test_random_connected_too_few_edges(self):
        with pytest.raises(ValueError):
            random_connected_graph(10, 8)

    def test_grid(self):
        edges = grid_graph(3, 4)
        assert len(edges) == 3 * 3 + 2 * 4  # horizontal + vertical
        g = nx.Graph(edges)
        assert nx.is_connected(g)

    def test_ring_of_cliques(self):
        edges = ring_of_cliques(4, 5)
        g = nx.Graph(edges)
        assert g.number_of_nodes() == 20
        assert nx.is_connected(g)
        # each clique contributes C(5,2) edges; ring adds 4.
        assert len(edges) == 4 * 10 + 4

    def test_power_law_degree_skew(self):
        edges = power_law_graph(300, 600, seed=4)
        assert len(edges) <= 600
        g = nx.Graph(edges)
        degrees = sorted((d for _, d in g.degree()), reverse=True)
        assert degrees[0] > 3 * (2 * len(edges) / 300)  # hub exists

    def test_barbell(self):
        edges = barbell_graph(4, 3)
        g = nx.Graph(edges)
        assert nx.is_connected(g)
        bridges = list(nx.bridges(g))
        assert len(bridges) == 4  # path of 3 internal vertices -> 4 bridges


class TestTraversal:
    def test_bfs_matches_networkx(self):
        edges = gnm_random_graph(60, 150, seed=9)
        adj = adjacency_from_edges(60, edges)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(range(60))
        got = bfs_distances(adj, 0)
        want = nx.single_source_shortest_path_length(nxg, 0)
        assert got == dict(want)

    def test_bounded_bfs_truncates(self):
        edges = grid_graph(1, 10)  # path 0-1-...-9
        adj = adjacency_from_edges(10, edges)
        d = bfs_distances_bounded(adj, 0, limit=3)
        assert d == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_connected_components(self):
        comps = connected_components(6, [(0, 1), (1, 2), (4, 5)])
        assert comps == [[0, 1, 2], [3], [4, 5]]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.data())
def test_bfs_oracle_property(n, data):
    max_m = n * (n - 1) // 2
    m = data.draw(st.integers(0, min(max_m, 80)))
    edges = gnm_random_graph(n, m, seed=data.draw(st.integers(0, 10**6)))
    adj = adjacency_from_edges(n, edges)
    src = data.draw(st.integers(0, n - 1))
    nxg = nx.Graph(edges)
    nxg.add_nodes_from(range(n))
    assert bfs_distances(adj, src) == dict(
        nx.single_source_shortest_path_length(nxg, src)
    )


def _dict_adjacency(n, edges):
    """Snapshot-style dict-of-sets: only vertices with edges are keys."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


class TestTraversalEdgeCases:
    """The pruned and unpruned BFS modes share one edge-case contract
    (both are on the serving engine's distance/connected path).

    ``build`` makes the adjacency under test and ``sparse`` the one whose
    isolated vertices are absent; :class:`TestTraversalEdgeCasesArray`
    reruns every case on the array substrate."""

    build = staticmethod(adjacency_from_edges)
    sparse = staticmethod(_dict_adjacency)

    @pytest.mark.parametrize("target", [None, 3])
    def test_source_equals_target(self, target):
        adj = self.build(5, [(0, 1), (1, 2)])
        dist = bfs_distances(adj, 3, target=3 if target else None)
        assert dist[3] == 0

    def test_self_target_skips_traversal(self):
        # u == v settles at 0 even when u has neighbors
        adj = self.build(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_distances(adj, 1, target=1) == {1: 0}

    @pytest.mark.parametrize("pruned", [False, True])
    def test_source_absent_from_dict_adjacency(self, pruned):
        # snapshot adjacencies only key vertices that currently have
        # edges; an isolated source must read as "no neighbors", not
        # KeyError in one mode and a sweep in the other
        adj = self.sparse(2, [(0, 1)])
        dist = bfs_distances(adj, 7, target=0 if pruned else None)
        assert dist == {7: 0}

    @pytest.mark.parametrize("pruned", [False, True])
    def test_disconnected_target_absent(self, pruned):
        adj = self.build(6, [(0, 1), (1, 2), (4, 5)])
        dist = bfs_distances(adj, 0, target=4 if pruned else None)
        assert 4 not in dist and 5 not in dist

    def test_pruned_agrees_with_unpruned_at_target(self):
        edges = gnm_random_graph(30, 50, seed=21)
        adj = self.build(30, edges)
        full = bfs_distances(adj, 0)
        for v in range(30):
            assert bfs_distances(adj, 0, target=v).get(v) == full.get(v)

    def test_bounded_absent_source(self):
        adj = self.sparse(2, [(0, 1)])
        assert bfs_distances_bounded(adj, 9, 3) == {9: 0}

    @pytest.mark.parametrize("limit", [0, -1, -10])
    def test_bounded_nonpositive_limit(self, limit):
        # a non-positive limit must never expand the frontier (it used
        # to fall through to a full unbounded sweep)
        adj = self.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert bfs_distances_bounded(adj, 0, limit) == {0: 0}


class TestTraversalEdgeCasesArray(TestTraversalEdgeCases):
    """The same contract on :class:`ArrayDynamicGraph`, whose target mode
    is the bidirectional arena search."""

    build = staticmethod(ArrayDynamicGraph)
    sparse = staticmethod(ArrayDynamicGraph)

    @pytest.mark.parametrize("u, v", [(-1, 3), (3, -1), (-1, -2), (3, 9)])
    def test_out_of_range_endpoint_unreachable(self, u, v):
        # the range check precedes any numpy indexing: -1 must not wrap
        # around to the last vertex
        g = self.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert bfs_distances(g, u, target=v) == {u: 0}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.data())
def test_bidirectional_target_mode_property(n, data):
    """Target mode on the array substrate (bidirectional, over the live
    arena) answers every pair exactly like its own full sweep and like
    the one-sided scalar search on a dict-of-sets, including isolated
    vertices, several components and out-of-range or negative ids."""
    # vertices carry a component label; edges only join equal labels
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if labels[a] == labels[b]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=60)) if pairs else []
    # build half, insert the rest (relocating segments), then delete a
    # subset, so the arena has slack, moved segments and dead slots
    half = len(edges) // 2
    g = ArrayDynamicGraph(n, edges[:half])
    g.insert_batch(edges[half:])
    gone = data.draw(st.lists(st.sampled_from(edges), unique=True)) \
        if edges else []
    g.delete_batch(gone)
    adj = _dict_adjacency(n, set(edges) - set(gone))
    ids = range(-2, n + 2)
    for u in ids:
        full = bfs_distances(g, u)
        for v in ids:
            got = bfs_distances(g, u, target=v).get(v)
            assert got == full.get(v), (u, v)
            assert got == bfs_distances(adj, u, target=v).get(v), (u, v)
