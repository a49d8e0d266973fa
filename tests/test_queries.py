"""Tests for the distance and cut query oracles."""

import random

import numpy as np
import pytest

from repro.graph import (
    ArrayDynamicGraph,
    DynamicGraph,
    adjacency_from_edges,
    bfs_distances,
    gnm_random_graph,
)
from repro.pram import CostModel
from repro.queries import DynamicCutOracle, DynamicDistanceOracle
from repro.sparsifier import FullyDynamicSpectralSparsifier
from repro.spanner import FullyDynamicSpanner
from repro.verify import cut_weight, laplacian, quadratic_form


def make_distance_oracle(n, edges, k=2, seed=1, cost=None):
    sp = FullyDynamicSpanner(n, edges, k=k, seed=seed, base_capacity=8)
    return DynamicDistanceOracle(
        n, sp, stretch=sp.stretch, cost=cost or CostModel()
    )


class TestDistanceOracle:
    def test_answers_within_stretch(self):
        n, m, k = 40, 160, 2
        edges = gnm_random_graph(n, m, seed=3)
        oracle = make_distance_oracle(n, edges, k=k, seed=3)
        adj = adjacency_from_edges(n, edges)
        for u in range(0, n, 7):
            true = bfs_distances(adj, u)
            for v in range(0, n, 5):
                d = oracle.distance(u, v)
                if v in true:
                    assert true[v] <= d <= (2 * k - 1) * true[v] or (
                        true[v] == 0 and d == 0
                    )
                else:
                    assert d == float("inf")

    def test_batch_matches_single(self):
        n, m = 30, 90
        edges = gnm_random_graph(n, m, seed=4)
        oracle = make_distance_oracle(n, edges, seed=4)
        pairs = [(0, 5), (0, 9), (3, 7), (10, 10)]
        batch = oracle.batch_distances(pairs)
        assert batch == [oracle.distance(u, v) for u, v in pairs]

    def test_stays_in_sync_through_updates(self):
        rng = random.Random(5)
        n = 20
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = DynamicGraph(n)
        oracle = make_distance_oracle(n, [], seed=5)
        for _ in range(15):
            absent = [e for e in universe if e not in g]
            ins = rng.sample(absent, min(len(absent), rng.randrange(0, 6)))
            present = sorted(g.edges())
            dels = rng.sample(present, min(len(present), rng.randrange(0, 4)))
            oracle.update(insertions=ins, deletions=dels)
            g.insert_batch(ins)
            g.delete_batch(dels)
            # connectivity is preserved exactly by any spanner
            adj = adjacency_from_edges(n, g.edges())
            comp0 = set(bfs_distances(adj, 0))
            for v in range(n):
                assert oracle.connected(0, v) == (v in comp0)

    def test_within_ball(self):
        # path graph: within(0, 2) must include the true 2-ball
        n = 10
        edges = [(i, i + 1) for i in range(n - 1)]
        oracle = make_distance_oracle(n, edges, seed=6)
        ball = oracle.within(0, 2)
        assert {0, 1, 2} <= ball

    def test_vertex_validation(self):
        oracle = make_distance_oracle(4, [(0, 1)], seed=7)
        with pytest.raises(ValueError):
            oracle.distance(0, 4)
        with pytest.raises(ValueError):
            oracle.within(-1, 2)

    def test_cost_charged(self):
        cost = CostModel()
        oracle = make_distance_oracle(20, gnm_random_graph(20, 50, seed=8),
                                      seed=8, cost=cost)
        cost.reset()
        oracle.distance(0, 5)
        assert cost.work > 0


class TestCutOracle:
    def make(self, n, edges, t=100, seed=1):
        sp = FullyDynamicSpectralSparsifier(
            n, edges, t=t, seed=seed, instances=4, base_capacity=4
        )
        return DynamicCutOracle(n, sp)

    def test_exact_with_huge_t(self):
        """t >= m keeps every edge at weight 1 -> exact answers."""
        n, m = 14, 40
        edges = gnm_random_graph(n, m, seed=9)
        oracle = self.make(n, edges, t=m)
        g_w = {e: 1.0 for e in edges}
        rng = np.random.default_rng(9)
        for _ in range(10):
            side = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
            assert oracle.cut_value(side) == pytest.approx(
                cut_weight(g_w, side)
            )

    def test_quadratic_form_matches_laplacian(self):
        n, m = 12, 30
        edges = gnm_random_graph(n, m, seed=10)
        oracle = self.make(n, edges, t=m)
        L = laplacian(n, {e: 1.0 for e in edges})
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.normal(size=n)
            assert oracle.quadratic_form(x) == pytest.approx(
                quadratic_form(L, x)
            )

    def test_update_invalidates_cache(self):
        n, m = 12, 30
        edges = gnm_random_graph(n, m, seed=11)
        oracle = self.make(n, edges, t=m)
        before = oracle.total_weight()
        oracle.update(deletions=edges[:10])
        after = oracle.total_weight()
        assert after < before

    def test_validation(self):
        oracle = self.make(4, [(0, 1)], t=5)
        with pytest.raises(ValueError):
            oracle.cut_value({9})
        with pytest.raises(ValueError):
            oracle.quadratic_form([1.0, 2.0])

    def test_approximate_mode_bounded_error(self):
        n, m = 30, 300
        edges = gnm_random_graph(n, m, seed=12)
        oracle = self.make(n, edges, t=4, seed=12)
        g_w = {e: 1.0 for e in edges}
        rng = np.random.default_rng(12)
        for _ in range(10):
            side = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
            exact = cut_weight(g_w, side)
            if exact == 0:
                continue
            approx = oracle.cut_value(side)
            assert 0.3 * exact <= approx <= 3.0 * exact


# -- the batch query engine ---------------------------------------------------


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.graph.traversal import bfs_distances_bounded  # noqa: E402
from repro.oracle.queries import (  # noqa: E402
    check_query_batch,
    singleton_answers,
)
from repro.queries import (  # noqa: E402
    QueryBatch,
    answer_queries,
    batch_components,
    batch_connected,
    batch_distances,
    batch_stretch_check,
    coalesce_queries,
    multi_source_bfs,
)


def _edge_set(n, m, seed):
    return {tuple(e) for e in gnm_random_graph(n, m, seed=seed)}


def _adj(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


class TestMultiSourceBFS:
    def test_matches_per_source_bfs(self):
        edges = _edge_set(30, 45, seed=2)
        adj = _adj(edges)
        sources = [0, 3, 3, 7, 29, 11]
        dist = multi_source_bfs(adj, sources, n=30)
        for s in set(sources):
            assert dist[s] == bfs_distances(adj, s)

    def test_bound_caps_levels(self):
        adj = _adj({(i, i + 1) for i in range(9)})
        dist = multi_source_bfs(adj, [0], bound=3, n=10)
        assert dist[0] == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_isolated_source(self):
        adj = _adj({(0, 1)})
        dist = multi_source_bfs(adj, [5], n=6)
        assert dist[5] == {5: 0}

    def test_shared_frontier_cheaper_than_sequential(self):
        """k clustered sources must not cost k independent sweeps."""
        edges = _edge_set(60, 120, seed=4)
        adj = _adj(edges)
        shared = CostModel()
        multi_source_bfs(adj, list(range(12)), n=60, cost=shared)
        separate = CostModel()
        for s in range(12):
            multi_source_bfs(adj, [s], n=60, cost=separate)
        assert shared.work < separate.work
        assert shared.depth < separate.depth

    def test_target_pruning_settles_targets(self):
        edges = _edge_set(40, 70, seed=5)
        adj = _adj(edges)
        full = bfs_distances(adj, 0)
        dist = multi_source_bfs(adj, [0], targets={0: [7, 13]}, n=40)
        for t in (7, 13):
            assert dist[0].get(t) == full.get(t)


class TestBatchPrimitives:
    def test_batch_distances_matches_singleton(self):
        edges = _edge_set(35, 50, seed=6)
        adj = _adj(edges)
        rng = np.random.default_rng(6)
        pairs = [tuple(map(int, rng.integers(0, 35, 2))) for _ in range(40)]
        pairs += [(u, u) for u in range(0, 35, 9)]
        got = batch_distances(adj, pairs, n=35)
        for (u, v), d in zip(pairs, got):
            if u == v:
                assert d == 0.0
            else:
                ref = bfs_distances(adj, u, target=v).get(v) \
                    if u in adj else None
                assert d == (float("inf") if ref is None else float(ref))

    def test_batch_connected_matches_components(self):
        edges = _edge_set(35, 30, seed=7)  # sparse: multiple components
        adj = _adj(edges)
        rng = np.random.default_rng(7)
        pairs = [tuple(map(int, rng.integers(0, 35, 2))) for _ in range(50)]
        got = batch_connected(adj, pairs, n=35)
        for (u, v), c in zip(pairs, got):
            ref = u == v or (
                u in adj and v in bfs_distances(adj, u, target=v)
            )
            assert c == ref

    def test_batch_components_work_independent_of_query_count(self):
        """The batching dividend: 200 queries cost like 2, not 100x."""
        edges = _edge_set(80, 120, seed=8)
        adj = _adj(edges)
        few = CostModel()
        batch_components(adj, [0, 1], n=80, cost=few)
        many = CostModel()
        batch_components(adj, [i % 80 for i in range(200)], n=80,
                         cost=many)
        # labeling floods each touched component once; extra queries only
        # touch more components, never re-flood one
        assert many.work <= few.work + 80 * 6 + 200

    def test_batch_stretch_check_matches_per_edge(self):
        n = 30
        graph = _edge_set(n, 60, seed=10)
        spanner = set(sorted(graph)[: len(graph) // 2])
        sadj = _adj(spanner)
        stretch = 3.0
        got = set(batch_stretch_check(graph, sadj, stretch, n=n))
        expect = set()
        for u, v in graph:
            a, b = (u, v) if u <= v else (v, u)
            d = bfs_distances_bounded(sadj, a, int(stretch)).get(b) \
                if a in sadj else None
            if d is None:
                expect.add((a, b))
        assert got == expect

    def test_batch_stretch_check_clean_on_spanner(self):
        n, m, k = 40, 160, 2
        edges = gnm_random_graph(n, m, seed=3)
        sp = FullyDynamicSpanner(n, edges, k=k, seed=3, base_capacity=8)
        sadj = _adj(sp.spanner_edges())
        assert batch_stretch_check(edges, sadj, 2 * k - 1, n=n) == []


class TestCoalesceAndAnswer:
    def test_coalesce_normalizes_and_dedups(self):
        items = [
            ("distance", (3, 1)),
            ("distance", (1, 3)),
            ("connected", (1, 3)),
            ("size", None),
            ("size", None),
            ("distance", (3, 1)),
        ]
        keys, index = coalesce_queries(items)
        assert keys == [
            ("distance", (1, 3)), ("connected", (1, 3)), ("size", None)
        ]
        assert index == [0, 0, 1, 2, 2, 0]

    def test_coalesce_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            coalesce_queries([("frobnicate", (1, 2))])

    def test_answer_queries_matches_singleton(self):
        edges = _edge_set(40, 70, seed=11)
        adj = _adj(edges)
        rng = np.random.default_rng(11)
        items = []
        for _ in range(60):
            kind = ("distance", "connected", "contains", "size",
                    "edges")[int(rng.integers(0, 5))]
            payload = None if kind in ("size", "edges") else \
                tuple(map(int, rng.integers(0, 40, 2)))
            items.append((kind, payload))
        answers, stats = answer_queries(items, ArrayDynamicGraph(40, edges))
        assert answers == singleton_answers(items, edges, adj)
        assert stats.queries == 60
        assert stats.unique <= 60

    def test_query_batch_dataclass(self):
        qb = QueryBatch([("size", None), ("size", None)])
        assert qb.size == 2
        keys, index = qb.coalesce()
        assert keys == [("size", None)] and index == [0, 0]

    def test_oracle_check_passes(self):
        rng = np.random.default_rng(13)
        edges = _edge_set(25, 40, seed=13)
        items = [("distance", (1, 2)), ("connected", (0, 24)),
                 ("contains", (2, 1)), ("size", None)]
        assert check_query_batch(25, edges, items, rng=rng) == []

    def test_oracle_flags_charge_drift(self, monkeypatch):
        """One extra unit of work on the array side only is reported as
        exactly one ``query-charge-drift``, nothing else."""
        import repro.queries.batch as qbatch

        real = qbatch._multi_source_bfs_csr

        def skewed(csr, sources, *, cost, **kw):
            cost.charge_many(1, 0)
            return real(csr, sources, cost=cost, **kw)

        monkeypatch.setattr(qbatch, "_multi_source_bfs_csr", skewed)
        edges = _edge_set(25, 40, seed=13)
        items = [("distance", (1, 2)), ("connected", (0, 24)),
                 ("distance", (3, 3)), ("size", None)]
        viols = check_query_batch(25, edges, items,
                                  rng=np.random.default_rng(13))
        assert [v.kind for v in viols] == ["query-charge-drift"]


class TestChargeParity:
    """The vectorized CSR sweep (array graph) and the scalar reference loop
    (dict adjacency) give identical answers *and* identical ``(work,
    depth)`` — target pruning happens at round boundaries, so charges
    depend only on the graph and the batch."""

    N = 150

    @classmethod
    def _both(cls, sources, n=None, edges=None, **kw):
        n = cls.N if n is None else n
        edges = _edge_set(n, 2 * n, seed=21) if edges is None else edges
        out = []
        for adj in (_adj(edges), ArrayDynamicGraph(n, edges)):
            cm = CostModel()
            dist = multi_source_bfs(adj, sources, n=n, cost=cm, **kw)
            out.append((dist, (cm.work, cm.depth)))
        assert out[0] == out[1]
        return out[1]

    def test_out_of_range_and_negative_targets(self):
        dist, _ = self._both([0, 5], targets={0: [-1, self.N, 7],
                                              5: [self.N + 3]})
        assert -1 not in dist[0] and self.N not in dist[0]

    def test_unsettleable_target_keeps_source_live(self):
        """A source whose only target is out of range sweeps its whole
        component: it never retires early."""
        edges = {(i, i + 1) for i in range(9)}
        dist, (work, _) = self._both([0], n=10, edges=edges,
                                     targets={0: [-4]})
        _, (full, _) = self._both([0], n=10, edges=edges)
        assert dist == {0: {0: 0}}
        assert work == full

    def test_out_of_range_sources_take_one_frontier_slot(self):
        dist, _ = self._both([self.N + 2, -1, 3],
                             targets={self.N + 2: [0], -1: [4], 3: [4]})
        assert dist[self.N + 2] == {self.N + 2: 0}
        assert dist[-1] == {-1: 0}
        self._both([self.N + 2, -1])

    def test_duplicate_sources_diagonal_and_bound(self):
        targets = {2: [2, 9, 40], 9: [9]}
        self._both([2, 2, 9, 2], targets=targets)
        self._both([2, 2, 9, 2], targets=targets, bound=1)
        self._both([2, 9, 9], bound=2)
        self._both([4], targets={4: [17]}, bound=0)

    def test_zero_sources_charge_nothing(self):
        assert self._both([]) == ({}, (0, 0))
        assert self._both([], targets={}) == ({}, (0, 0))

    @pytest.mark.parametrize("k", [65, 130])
    def test_multi_word_masks(self, k):
        rng = np.random.default_rng(k)
        sources = rng.choice(self.N, size=k, replace=False).tolist()
        targets = {s: rng.integers(-2, self.N + 2, size=3).tolist()
                   for s in sources}
        dist, _ = self._both(sources, targets=targets)
        assert len(dist) == k
        dist, _ = self._both(sources)
        adj = _adj(_edge_set(self.N, 2 * self.N, seed=21))
        for s in sources[::16]:
            assert dist[s] == (bfs_distances(adj, s) if s in adj
                               else {s: 0})

    def test_targets_mode_records_only_targets(self):
        dist, _ = self._both([0], targets={0: [5, 6]})
        assert set(dist[0]) <= {0, 5, 6}

    @pytest.mark.parametrize("pull_factor", [0, 10**9])
    def test_push_only_and_pull_only_rounds(self, monkeypatch, pull_factor):
        """Every round pushes (factor 0) or every round pulls (factor
        10**9): both must reproduce the reference answers and charges."""
        import repro.queries.batch as qbatch

        monkeypatch.setattr(qbatch, "PULL_FACTOR", pull_factor)
        sources = list(range(-1, self.N + 1, 2))
        self._both(sources, targets={s: [s + 7, -3] for s in sources})
        self._both(sources[:40], bound=3)
        # a denser graph with two mask words: the per-word round loop
        dense = _edge_set(self.N, 8 * self.N, seed=24)
        self._both(sources[:70], edges=dense,
                   targets={s: [s + 1, s + 90] for s in sources[:70]})
        self._both(sources[:70], edges=dense)
        self._components_both(_edge_set(self.N, 2 * self.N, seed=23))

    @classmethod
    def _components_both(cls, edges):
        out = []
        for adj in (_adj(edges), ArrayDynamicGraph(cls.N, edges)):
            cm = CostModel()
            comp = batch_components(adj, list(range(-2, cls.N + 2, 3)),
                                    n=cls.N, cost=cm)
            out.append((comp, (cm.work, cm.depth)))
        assert out[0] == out[1]

    def test_components_dedup_matches_reference(self):
        self._components_both(_edge_set(self.N, self.N // 2, seed=22))


class TestBatchInvariance:
    """Batch answers are a pure function of the (snapshot, query) set."""

    @staticmethod
    def _graph_and_items(n_seed, q_seed):
        rng = np.random.default_rng(n_seed)
        n = int(rng.integers(2, 24))
        m = min(int(rng.integers(0, 3 * n)), n * (n - 1) // 2)
        edges = _edge_set(n, m, seed=n_seed)
        qrng = np.random.default_rng(q_seed)
        items = []
        for _ in range(int(qrng.integers(1, 24))):
            kind = ("distance", "connected", "contains", "size",
                    "edges")[int(qrng.integers(0, 5))]
            payload = None if kind in ("size", "edges") else \
                (int(qrng.integers(0, n)), int(qrng.integers(0, n)))
            items.append((kind, payload))
        return n, edges, items

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6),
           st.randoms(use_true_random=False))
    def test_order_invariant(self, n_seed, q_seed, rnd):
        n, edges, items = self._graph_and_items(n_seed, q_seed)
        graph = ArrayDynamicGraph(n, edges)
        base, _ = answer_queries(items, graph)
        perm = list(range(len(items)))
        rnd.shuffle(perm)
        shuffled, _ = answer_queries([items[i] for i in perm], graph)
        assert shuffled == [base[i] for i in perm]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(1, 3))
    def test_duplication_invariant(self, n_seed, q_seed, copies):
        n, edges, items = self._graph_and_items(n_seed, q_seed)
        graph = ArrayDynamicGraph(n, edges)
        base, base_stats = answer_queries(items, graph)
        rep, rep_stats = answer_queries(items * (copies + 1), graph)
        assert rep == base * (copies + 1)
        # duplicates coalesce away: unique keys don't grow with copies
        assert rep_stats.unique == base_stats.unique

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_matches_singleton_path(self, n_seed, q_seed):
        n, edges, items = self._graph_and_items(n_seed, q_seed)
        answers, _ = answer_queries(items, ArrayDynamicGraph(n, edges))
        assert answers == singleton_answers(items, edges)


class TestBenchQueries:
    def test_smoke_run_verified(self):
        from repro.queries.bench import (
            BenchQueriesConfig,
            run_bench_queries,
        )

        rep = run_bench_queries(BenchQueriesConfig(
            n=48, m=60, requests=300, window=100, seed=9, repeats=1))
        assert rep.verified, rep.violations
        assert rep.reads > 0 and rep.writes > 0
        assert rep.work > 0 and rep.depth > 0
        assert 0.0 < rep.dedup_ratio <= 1.0
