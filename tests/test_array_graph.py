"""Array-substrate equivalence and edge-case regression suite.

The tentpole contract: :class:`~repro.graph.array_graph.ArrayDynamicGraph`
is a drop-in for :class:`~repro.graph.dynamic_graph.DynamicGraph` — same
edge/degree/neighbor views, same ``norm_edge`` semantics and error
contracts — and the batched query layer charges byte-identical cost-model
totals on both substrates.  Hypothesis drives random interleaved
insert/delete/compact sequences against the dict-backed reference.

Also the PR's edge-case bugfix sweep:

* ``gnm_random_graph`` / ``random_connected_graph`` terminate at every
  legal density (round-bounded rejection sampling with a rejection-free
  completion fallback) and raise a descriptive ``ValueError`` past the
  ``C(n, 2)`` ceiling;
* the empty-batch contract (no sources / no items → empty result, zero
  charges) is uniform across ``multi_source_bfs``, ``answer_queries``,
  and ``bfs_distances_bounded``;
* self-loops are rejected with ``ValueError`` at every write entry
  point — both substrates directly, the service engine, and the wire
  protocol — while membership (``(u, u) in g``) answers False;
* the ES-tree bucket scans produce identical answers *and* identical
  charges whether run inline, on a sequential backend, or shipped to a
  process pool.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    ArrayDynamicGraph,
    DynamicGraph,
    complete_graph,
    gnm_random_graph,
    norm_edge,
    random_connected_graph,
)
from repro.pram.cost import CostModel
from repro.queries.batch import (
    answer_queries,
    batch_connected,
    batch_distances,
    multi_source_bfs,
)


def _ref_views(g: DynamicGraph):
    return (
        set(g.edges()),
        [g.degree(v) for v in range(len(g._adj))],
        [set(g.neighbors(v)) for v in range(len(g._adj))],
    )


def _arr_views(g: ArrayDynamicGraph):
    return (
        set(g.edges()),
        [g.degree(v) for v in range(len(g))],
        [set(g.neighbors(v)) for v in range(len(g))],
    )


# -- hypothesis equivalence ---------------------------------------------------


@st.composite
def _script(draw):
    """(n, initial edges, interleaved ops) over a small vertex universe."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    initial = draw(st.lists(st.sampled_from(pairs), unique=True,
                            max_size=len(pairs)))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "compact"]),
                  st.lists(st.sampled_from(pairs), unique=True,
                           max_size=6)),
        max_size=8,
    ))
    return n, initial, ops


class TestEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(_script())
    def test_interleaved_ops_match_dict_substrate(self, script):
        n, initial, ops = script
        ref = DynamicGraph(n, initial)
        arr = ArrayDynamicGraph(n, initial)
        for kind, edges in ops:
            if kind == "compact":
                arr.compact()
                continue
            present = {norm_edge(u, v) for u, v in edges} & set(ref.edges())
            batch = (
                sorted({norm_edge(u, v) for u, v in edges} - present)
                if kind == "insert" else sorted(present)
            )
            if kind == "insert":
                ref.insert_batch(batch)
                arr.insert_batch(batch)
            else:
                ref.delete_batch(batch)
                arr.delete_batch(batch)
            assert _ref_views(ref) == _arr_views(arr)
        assert _ref_views(ref) == _arr_views(arr)

    @settings(max_examples=40, deadline=None)
    @given(_script(), st.integers(0, 2**31))
    def test_batch_reads_charges_identical(self, script, qseed):
        import numpy as np

        n, initial, _ = script
        edge_set = {norm_edge(u, v) for u, v in initial}
        dict_adj: dict[int, set[int]] = {}
        for a, b in edge_set:
            dict_adj.setdefault(a, set()).add(b)
            dict_adj.setdefault(b, set()).add(a)
        arr = ArrayDynamicGraph(n, edge_set)
        rng = np.random.default_rng(qseed)
        pairs = [(int(rng.integers(0, n)), int(rng.integers(0, n)))
                 for _ in range(int(rng.integers(1, 8)))]
        results = {}
        for name, adj in (("dict", dict_adj), ("array", arr)):
            out = []
            for read in (batch_distances, batch_connected):
                cm = CostModel()
                with cm.frame() as fr:
                    answers = read(adj, pairs, n=n, cost=cm)
                out.append((answers, fr.work, fr.depth))
            results[name] = out
        assert results["dict"] == results["array"]

    def test_error_contracts_match(self):
        for make in (DynamicGraph, ArrayDynamicGraph):
            g = make(4, [(0, 1)])
            with pytest.raises(ValueError, match="duplicate"):
                g.insert_batch([(1, 2), (2, 1)])
            with pytest.raises(ValueError, match="duplicate"):
                g.insert_batch([(0, 1)])
            with pytest.raises(KeyError):
                g.delete_batch([(2, 3)])
            with pytest.raises(ValueError):
                g.insert_batch([(0, 9)])
            # failed batches left the graph untouched
            assert set(g.edges()) == {(0, 1)}


# -- generator termination at the density boundary ---------------------------


class TestGnmBoundary:
    def test_m_above_ceiling_raises(self):
        with pytest.raises(ValueError, match="exceeds max"):
            gnm_random_graph(5, 11, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exact_count_at_and_near_ceiling(self, n):
        max_m = n * (n - 1) // 2
        for m in {max_m, max_m - 1, max_m // 2, max_m // 2 + 1} - {-1}:
            if m < 0:
                continue
            edges = gnm_random_graph(n, m, seed=7)
            assert len(edges) == m
            assert len(set(edges)) == m
            assert all(u < v for u, v in edges)

    def test_rejection_free_fallback_completes(self, monkeypatch):
        import repro.graph.generators as gen

        # force the fallback on the first round: the complement sampler
        # must top the set up to exactly m simple edges on its own
        monkeypatch.setattr(gen, "_MAX_REJECTION_ROUNDS", 0)
        for n, m in ((8, 14), (12, 20), (5, 5)):
            edges = gen.gnm_random_graph(n, m, seed=3)
            assert len(edges) == m == len(set(edges))
            assert all(0 <= u < v < n for u, v in edges)

    def test_stream_stable_away_from_boundary(self):
        # bounding the rounds must not perturb the sampled graph for
        # ordinary densities (the fallback only engages at the cap)
        assert gnm_random_graph(64, 128, seed=11) == \
            gnm_random_graph(64, 128, seed=11)

    def test_random_connected_graph_at_ceiling(self):
        n = 7
        max_m = n * (n - 1) // 2
        edges = random_connected_graph(n, max_m, seed=2)
        assert sorted(edges) == complete_graph(n)
        with pytest.raises(ValueError, match="exceeds max"):
            random_connected_graph(n, max_m + 1, seed=2)


# -- empty-batch contract -----------------------------------------------------


class TestEmptyBatchContract:
    @pytest.mark.parametrize("substrate", ["dict", "array"])
    def test_multi_source_bfs_no_sources(self, substrate):
        if substrate == "dict":
            g = DynamicGraph(6, [(0, 1), (1, 2)])
            adj = {v: set(g.neighbors(v)) for v in range(6)}
        else:
            adj = ArrayDynamicGraph(6, [(0, 1), (1, 2)])
        cm = CostModel()
        with cm.frame() as fr:
            out = multi_source_bfs(adj, [], n=6, cost=cm)
        assert out == {}
        assert (fr.work, fr.depth) == (0, 0)

    def test_answer_queries_empty_batch(self):
        cm = CostModel()
        answers, stats = answer_queries(
            [], ArrayDynamicGraph(2, [(0, 1)]), cost=cm,
        )
        assert answers == []
        assert (stats.work, stats.depth) == (0, 0)

    def test_charge_hash_op_zero_is_noop(self):
        cm = CostModel()
        cm.charge_hash_op(0)
        cm.charge_hash_op(-3)
        assert (cm.work, cm.depth) == (0, 0)
        cm.charge_hash_op(2)
        assert (cm.work, cm.depth) == (2, 1)

    def test_oracle_invariance_check(self):
        from repro.oracle.queries import check_empty_batch

        assert check_empty_batch(6, {(0, 1), (1, 2)}) == []
        assert check_empty_batch(0, set()) == []


# -- self-loop rejection at every entry point --------------------------------


class TestSelfLoopRejection:
    def test_direct_both_substrates(self):
        for graph_cls in (DynamicGraph, ArrayDynamicGraph):
            with pytest.raises(ValueError, match="self-loop"):
                graph_cls(4, [(2, 2)])
            g = graph_cls(4, [(0, 1)])
            with pytest.raises(ValueError, match="self-loop"):
                g.insert_batch([(3, 3)])
            with pytest.raises(ValueError, match="self-loop"):
                g.delete_batch([(1, 1)])
            assert set(g.edges()) == {(0, 1)}
            # membership answers, writes raise
            assert (3, 3) not in g
            assert (0, 1) in g and (1, 0) in g

    def test_engine_submit(self):
        from repro.service.engine import LocalExecutor, SpannerService

        svc = SpannerService(LocalExecutor(
            {"kind": "spanner", "n": 8, "edges": [(0, 1)], "k": 2,
             "seed": 1}
        ))
        try:
            with pytest.raises(ValueError, match="self-loop"):
                svc.submit_update("insert", 3, 3)
            with pytest.raises(ValueError, match="self-loop"):
                svc.submit_update("delete", 0, 0)
            assert svc.query("contains", (3, 3)) is False
            assert svc.query_batch([("contains", (3, 3))])[0].value is False
        finally:
            svc.close()

    def test_wire_submit(self):
        from repro.net import (
            NetClient,
            ServerError,
            TenantConfig,
            TenantManager,
            ThreadedServer,
        )

        tm = TenantManager()
        tm.create(TenantConfig(name="default", spec={
            "kind": "spanner", "n": 8, "k": 2, "edges": [[0, 1]],
            "seed": 1,
        }))
        with tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError, match="self-loop"):
                    c.submit("insert", 5, 5)
                # the connection survives the rejected request
                assert c.submit("insert", 5, 6) == "accepted"


# -- pooled ES-tree bucket scans ----------------------------------------------


class TestPooledPhaseScans:
    def test_pool_matches_inline_answers_and_charges(self):
        from repro.bfs.es_tree import BatchDynamicESTree
        from repro.graph import gnm_random_graph
        from repro.parallel import ProcessPoolBackend, SequentialBackend

        n, limit = 40, 6
        und = gnm_random_graph(n, 150, seed=9)
        edges = [(u, v) for u, v in und] + [(v, u) for u, v in und]
        batches = [
            [(u, v), (v, u)]
            for u, v in gnm_random_graph(n, 150, seed=9)[::7]
        ]

        def run(backend):
            cm = CostModel()
            if backend is not None:
                cm.set_backend(backend)
            t = BatchDynamicESTree(n, edges, source=0, limit=limit,
                                   cost=cm)
            changes = []
            for b in batches:
                changes.append([
                    (c.vertex, c.old_parent, c.new_parent, c.new_dist)
                    for c in t.batch_delete(b)
                ])
            return t.distances(), changes, cm.work, cm.depth

        inline = run(None)
        seq = run(SequentialBackend(min_items=1))
        pool_backend = ProcessPoolBackend(2, min_items=1)
        try:
            pooled = run(pool_backend)
        finally:
            pool_backend.close()
        assert inline == seq
        assert inline == pooled
