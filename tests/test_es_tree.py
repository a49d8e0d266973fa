"""Tests for the batch-dynamic Even–Shiloach tree (Theorem 1.2).

The Las Vegas oracle: after any deletion batch, the maintained distances
must equal a fresh bounded BFS on the remaining graph, and the tree edges
must form a valid shortest-path tree.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs import BatchDynamicESTree, bounded_bfs_directed
from repro.pram import CostModel


def directed_adj(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    return adj


def reference_dist(n, edges, source, limit):
    return bounded_bfs_directed(n, directed_adj(n, edges), source, limit)


def check_tree_valid(tree, n, edges_alive, source, limit):
    """Parents must be alive edges one level up; every vertex within the
    limit except the source must have a parent."""
    alive = set(edges_alive)
    dist = reference_dist(n, list(alive), source, limit)
    for v in range(n):
        if v == source:
            assert tree.parent_of(v) is None
            continue
        if dist[v] <= limit:
            p = tree.parent_of(v)
            assert p is not None, f"vertex {v} at dist {dist[v]} unparented"
            assert (p, v) in alive
            assert dist[p] == dist[v] - 1
        else:
            assert tree.parent_of(v) is None


class TestBoundedBFS:
    def test_simple_path(self):
        n = 5
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        d = bounded_bfs_directed(n, directed_adj(n, edges), 0, 2)
        assert d == [0, 1, 2, 3, 3]  # beyond limit -> L+1 = 3

    def test_directedness(self):
        n = 3
        edges = [(1, 0), (1, 2)]
        d = bounded_bfs_directed(n, directed_adj(n, edges), 0, 2)
        assert d == [0, 3, 3]

    def test_work_charged(self):
        cm = CostModel()
        n = 50
        edges = [(i, i + 1) for i in range(n - 1)]
        bounded_bfs_directed(n, directed_adj(n, edges), 0, n, cost=cm)
        assert cm.work > 0
        assert cm.depth <= (n + 1) * 10  # O(L log n)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bounded_bfs_directed(3, [[], [], []], 5, 2)
        with pytest.raises(ValueError):
            bounded_bfs_directed(3, [[], [], []], 0, -1)


class TestESTreeInit:
    def test_initial_distances_match_bfs(self):
        n, edges = 6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=4)
        assert tree.distances() == reference_dist(n, edges, 0, 4)
        check_tree_valid(tree, n, edges, 0, 4)

    def test_limit_truncates(self):
        n, edges = 5, [(0, 1), (1, 2), (2, 3), (3, 4)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=2)
        assert tree.distances() == [0, 1, 2, 3, 3]
        assert tree.parent_of(3) is None and tree.parent_of(4) is None

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            BatchDynamicESTree(3, [(0, 1), (0, 1)], source=0, limit=2)

    @pytest.mark.parametrize("p", [-1, 8])
    def test_priority_outside_universe_rejected(self, p):
        with pytest.raises(ValueError):
            BatchDynamicESTree(3, [(0, 1), (1, 2)], source=0, limit=2,
                               priority={(0, 1): p, (1, 2): 1}, universe=8)
        with pytest.raises(ValueError):
            BatchDynamicESTree.from_arrays(3, [0, 1], [1, 2], [p, 1], 0, 2,
                                           universe=8)

    def test_tree_edges(self):
        n, edges = 4, [(0, 1), (1, 2), (2, 3)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=3)
        assert sorted(tree.tree_edges()) == [(0, 1), (1, 2), (2, 3)]


class TestESTreeDeletions:
    def test_delete_non_tree_edge_no_changes(self):
        n, edges = 4, [(0, 1), (0, 2), (1, 3), (2, 3)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=3)
        p3 = tree.parent_of(3)
        other = (2, 3) if p3 == 1 else (1, 3)
        changes = tree.batch_delete([other])
        assert changes == []
        assert tree.parent_of(3) == p3

    def test_delete_tree_edge_with_sibling_parent(self):
        n, edges = 4, [(0, 1), (0, 2), (1, 3), (2, 3)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=3)
        p3 = tree.parent_of(3)
        changes = tree.batch_delete([(p3, 3)])
        assert len(changes) == 1
        ch = changes[0]
        assert ch.vertex == 3 and ch.old_parent == p3
        assert ch.new_dist == 2  # distance unchanged
        assert tree.parent_of(3) in {1, 2} - {p3}

    def test_delete_increases_distance(self):
        # 0 -> 1 -> 2 and 0 -> 3 -> 4 -> 2: deleting (1,2) moves 2 to dist 3
        n = 5
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=4)
        assert tree.dist_of(2) == 2
        changes = tree.batch_delete([(1, 2)])
        assert tree.dist_of(2) == 3
        assert tree.parent_of(2) == 4
        assert any(c.vertex == 2 and c.new_dist == 3 for c in changes)

    def test_cascade_detaches_subtree(self):
        # path 0->1->2->3, limit 3; deleting (0,1) detaches everything.
        n = 4
        edges = [(0, 1), (1, 2), (2, 3)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=3)
        changes = tree.batch_delete([(0, 1)])
        assert tree.distances() == [0, 4, 4, 4]
        assert all(tree.parent_of(v) is None for v in range(4))
        assert {c.vertex for c in changes} == {1, 2, 3}

    def test_distance_beyond_limit_detaches(self):
        # cycle detour longer than limit
        n = 5
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=2)
        tree.batch_delete([(1, 2)])
        assert tree.dist_of(2) == 3  # L+1
        assert tree.parent_of(2) is None

    def test_batch_of_multiple_deletions(self):
        n = 6
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)]
        tree = BatchDynamicESTree(n, edges, source=0, limit=5)
        tree.batch_delete([(1, 3), (2, 3), (2, 4)])
        alive = [(0, 1), (0, 2), (3, 4), (4, 5)]
        assert tree.distances() == reference_dist(n, alive, 0, 5)
        check_tree_valid(tree, n, alive, 0, 5)

    def test_delete_dead_edge_raises(self):
        tree = BatchDynamicESTree(3, [(0, 1)], source=0, limit=2)
        tree.batch_delete([(0, 1)])
        with pytest.raises(KeyError):
            tree.batch_delete([(0, 1)])

    def test_source_in_edges_deletable(self):
        tree = BatchDynamicESTree(3, [(1, 0), (0, 1), (1, 2)], source=0, limit=2)
        tree.batch_delete([(1, 0)])
        assert tree.dist_of(0) == 0


class TestRandomizedOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_deletion_schedule(self, seed):
        rng = random.Random(seed)
        n = 30
        edges = set()
        while len(edges) < 120:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        edges = sorted(edges)
        limit = rng.choice([3, 5, 8, n])
        tree = BatchDynamicESTree(n, edges, source=0, limit=limit)
        alive = list(edges)
        rng.shuffle(alive)
        while alive:
            b = min(len(alive), rng.choice([1, 2, 5, 11]))
            batch, alive = alive[:b], alive[b:]
            tree.batch_delete(batch)
            assert tree.distances() == reference_dist(n, alive, 0, limit)
            check_tree_valid(tree, n, alive, 0, limit)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 18), st.integers(1, 6))
    def test_property_random_graphs(self, seed, n, limit):
        rng = random.Random(seed)
        m = rng.randrange(0, n * (n - 1) + 1)
        all_pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(all_pairs)
        edges = all_pairs[:m]
        tree = BatchDynamicESTree(n, edges, source=0, limit=limit)
        assert tree.distances() == reference_dist(n, edges, 0, limit)
        alive = list(edges)
        while alive:
            b = rng.randrange(1, len(alive) + 1)
            batch, alive = alive[:b], alive[b:]
            tree.batch_delete(batch)
            assert tree.distances() == reference_dist(n, alive, 0, limit)


class TestWorkDepthClaims:
    def test_amortized_work_bound_shape(self):
        """Total deletion work should be O(L * m * log n), not O(m^2)."""
        rng = random.Random(7)
        n, limit = 60, 4
        edges = set()
        while len(edges) < 400:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        edges = sorted(edges)
        cm = CostModel()
        tree = BatchDynamicESTree(n, edges, source=0, limit=limit, cost=cm)
        cm.reset()
        alive = list(edges)
        rng.shuffle(alive)
        while alive:
            batch, alive = alive[:20], alive[20:]
            tree.batch_delete(batch)
        m, logn = 400, 12
        assert cm.work <= 60 * limit * m * logn  # generous constant

    def test_depth_per_batch_bounded(self):
        """Depth of one batch must be O(L log^2 n) regardless of batch size."""
        rng = random.Random(11)
        n, limit = 80, 3
        edges = set()
        while len(edges) < 600:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        edges = sorted(edges)
        cm = CostModel()
        tree = BatchDynamicESTree(n, edges, source=0, limit=limit, cost=cm)
        with cm.frame() as fr:
            tree.batch_delete(edges)  # delete everything in one batch
        logn = 14
        assert fr.depth <= 40 * limit * logn * logn
        assert fr.work > fr.depth  # the batch really was parallel


class TestPriorityHooks:
    def test_priorities_determine_parent_choice(self):
        # two parents at same level: the higher-priority edge wins at init
        n = 4
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        pri = {(0, 1): 5, (0, 2): 6, (1, 3): 10, (2, 3): 20}
        tree = BatchDynamicESTree(n, edges, source=0, limit=3,
                                  priority=pri, universe=64)
        assert tree.parent_of(3) == 2  # priority 20 > 10

    def test_update_priority_and_rescan(self):
        n = 4
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        pri = {(0, 1): 5, (0, 2): 6, (1, 3): 10, (2, 3): 20}
        tree = BatchDynamicESTree(n, edges, source=0, limit=3,
                                  priority=pri, universe=64)
        assert tree.parent_of(3) == 2
        # Demote the parent edge below the sibling; a rescan from the old
        # slot must find the sibling.
        tree.update_edge_priority(2, 3, 4)
        cand = tree.find_parent_candidate(3)
        assert cand == 1
        tree.set_parent(3, 1)
        assert tree.parent_of(3) == 1
        assert tree.parent_edge_priority(3) == 10

    def test_promotion_keeps_parent(self):
        n = 4
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        pri = {(0, 1): 5, (0, 2): 6, (1, 3): 10, (2, 3): 20}
        tree = BatchDynamicESTree(n, edges, source=0, limit=3,
                                  priority=pri, universe=64)
        tree.update_edge_priority(2, 3, 30)
        assert tree.parent_of(3) == 2
        assert tree.find_parent_candidate(3) == 2

    def test_set_parent_validates(self):
        tree = BatchDynamicESTree(3, [(0, 1), (1, 2)], source=0, limit=2)
        with pytest.raises(ValueError):
            tree.set_parent(2, 0)  # (0,2) not an edge


class TestAllOrNothingDelete:
    """A rejected delete batch changes nothing: every edge is checked
    before the first one is removed."""

    EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]

    @pytest.mark.parametrize("bad", [
        [(0, 1), (4, 0)],          # an absent edge after a present one
        [(0, 1), (0, 1)],          # a present edge repeated
        [(0, 1), (-1, 0)],         # an out-of-range id
    ])
    def test_rejected_batch_leaves_tree_intact(self, bad):
        tree = BatchDynamicESTree(5, self.EDGES, source=0, limit=4)
        before = (tree.distances(), [tree.parent_of(v) for v in range(5)])
        with pytest.raises(KeyError):
            tree.batch_delete(bad)
        assert tree.is_alive(0, 1)
        assert (tree.distances(),
                [tree.parent_of(v) for v in range(5)]) == before
        tree.batch_delete([(0, 1)])  # the retry is accepted
        assert not tree.is_alive(0, 1)
        check_tree_valid(tree, 5, self.EDGES[1:], 0, 4)


class TestEdgeContract:
    """``is_alive`` is False and ``set_parent`` raises ``ValueError`` for a
    deleted, a never-present and an out-of-range pair alike."""

    @pytest.mark.parametrize("build", ["scalar", "arrays"])
    def test_dead_absent_and_out_of_range_pairs(self, build):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        if build == "scalar":
            tree = BatchDynamicESTree(4, edges, source=0, limit=3)
        else:
            src, dst = zip(*edges)
            tree = BatchDynamicESTree.from_arrays(
                4, src, dst, range(len(edges)), 0, 3, universe=16
            )
        tree.batch_delete([(1, 2)])
        for u, v in [(1, 2), (3, 0), (-1, 1), (0, -1), (4, 1), (0, 4),
                     (-4, 2)]:
            assert not tree.is_alive(u, v)
            with pytest.raises(ValueError):
                tree.set_parent(v, u)
        assert tree.out_edges(1) == {}
        with pytest.raises(IndexError):
            tree.out_edges(-1)


def _tree_state(tree, n):
    return (
        tree.distances(),
        [tree.parent_of(v) for v in range(n)],
        [tree.parent_edge_priority(v) for v in range(n)],
    )


def _changes(changes):
    return [(c.vertex, c.old_parent, c.new_parent, c.old_dist, c.new_dist)
            for c in changes]


class TestSubstrateEquivalence:
    """An array-built tree and a scalar-built one on the same edges and
    priorities agree after every step of a random interleaving of deletes,
    re-keys and parent rescans, on state, results and charges."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 14), st.integers(1, 5),
           st.booleans())
    def test_random_interleavings_agree(self, seed, n, limit, every_step):
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = rng.sample(pairs, rng.randrange(0, len(pairs) + 1))
        universe = 4 * len(pairs) + 4
        pri = dict(zip(edges, rng.sample(range(universe), len(edges))))
        cm_a, cm_s = CostModel(), CostModel()
        src = [u for u, _ in edges]
        dst = [v for _, v in edges]
        a = BatchDynamicESTree.from_arrays(
            n, src, dst, [pri[e] for e in edges], 0, limit,
            universe=universe, cost=cm_a,
        )
        s = BatchDynamicESTree(n, edges, source=0, limit=limit,
                               priority=pri, universe=universe, cost=cm_s)

        def agree(full):
            assert _tree_state(a, n) == _tree_state(s, n)
            assert (cm_a.work, cm_a.depth) == (cm_s.work, cm_s.depth)
            if full:
                for u in range(n):
                    assert a.out_edges(u) == s.out_edges(u)
                    for v in range(-1, n + 1):
                        assert a.is_alive(u, v) == s.is_alive(u, v)

        agree(every_step)
        alive = list(edges)
        used = {v: set() for v in range(n)}  # IN(v) priorities, dead too
        for (u, v), p in pri.items():
            used[v].add(p)
        for _ in range(rng.randrange(1, 12)):
            op = rng.random()
            if op < 0.4 and alive:
                rng.shuffle(alive)
                b = rng.randrange(1, len(alive) + 1)
                batch, alive = alive[:b], alive[b:]
                assert _changes(a.batch_delete(batch)) == _changes(
                    s.batch_delete(batch))
                assert not any(a.is_alive(*e) for e in batch)
            elif op < 0.7 and alive:
                u, v = rng.choice(alive)
                p = rng.choice(
                    [q for q in range(universe) if q not in used[v]]
                )
                used[v].add(p)
                a.update_edge_priority(u, v, p)
                s.update_edge_priority(u, v, p)
                assert a.out_edges(u)[v] == s.out_edges(u)[v] == p
            else:
                v = rng.randrange(n)
                head = rng.random() < 0.5
                ca = a.find_parent_candidate(v, from_start=head)
                assert ca == s.find_parent_candidate(v, from_start=head)
                if ca is not None:
                    a.set_parent(v, ca)
                    s.set_parent(v, ca)
            agree(every_step)
        agree(True)
