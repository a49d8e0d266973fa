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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wide_batches_both_paths_match(self, data):
        """Batches on both sides of the scalar/vectorized crossovers,
        touching many vertices, in either endpoint order."""
        n = data.draw(st.integers(16, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        initial = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                     min_size=60, max_size=200))
        ref = DynamicGraph(n, initial)
        arr = ArrayDynamicGraph(n, initial)
        top = 3 * max(ArrayDynamicGraph._SCALAR_DELETE,
                      ArrayDynamicGraph._SCALAR_INSERT)
        for _ in range(data.draw(st.integers(1, 6))):
            live = sorted(ref.edges())
            kind = data.draw(st.sampled_from(["insert", "delete"]))
            pool = (sorted(set(pairs) - set(live)) if kind == "insert"
                    else live)
            if not pool:
                continue
            size = data.draw(st.integers(1, min(top, len(pool))))
            batch = data.draw(st.permutations(pool))[:size]
            flips = data.draw(st.lists(st.booleans(), min_size=size,
                                       max_size=size))
            batch = [(v, u) if f else (u, v)
                     for (u, v), f in zip(batch, flips)]
            want = getattr(ref, f"{kind}_batch")(batch)
            assert getattr(arr, f"{kind}_batch")(batch) == want
            assert _ref_views(ref) == _arr_views(arr)
        arr.compact()
        assert _ref_views(ref) == _arr_views(arr)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_invalid_batches_raise_like_dict_substrate(self, data):
        """Every error case, planted anywhere in a batch on either side
        of the crossover, raises DynamicGraph's exception for the first
        offender in input order and changes nothing."""
        n = 24
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        initial = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                     min_size=40, max_size=120))
        ref = DynamicGraph(n, initial)
        arr = ArrayDynamicGraph(n, initial)
        kind = data.draw(st.sampled_from(["insert", "delete"]))
        live = sorted(ref.edges())
        pool = sorted(set(pairs) - set(live)) if kind == "insert" else live
        size = data.draw(st.integers(1, 3 * ArrayDynamicGraph._SCALAR_DELETE))
        batch = list(data.draw(st.permutations(pool))[:size])
        absent = sorted(set(pairs) - set(live))
        bad = {
            "duplicate": lambda: batch[0],
            "reversed_duplicate": lambda: batch[0][::-1],
            "out_of_range": lambda: (data.draw(st.integers(0, n - 1)),
                                     data.draw(st.sampled_from(
                                         [n, n + 5, -1]))),
            "self_loop": lambda: (3, 3),
            # present for an insert, absent for a delete
            "against_graph": lambda: data.draw(
                st.sampled_from(live if kind == "insert" else absent)),
        }
        for _ in range(data.draw(st.integers(1, 3))):
            what = data.draw(st.sampled_from(sorted(bad)))
            at = data.draw(st.integers(1 if "duplicate" in what else 0,
                                       len(batch)))
            batch.insert(at, bad[what]())
        errors = []
        for g in (ref, arr):
            with pytest.raises((KeyError, ValueError)) as exc:
                getattr(g, f"{kind}_batch")(batch)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]
        assert _ref_views(ref) == _arr_views(arr)
        assert arr.m == len(live)

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

    def test_build_from_edge_array(self):
        """An (m, 2) integer array builds the same graph as the pair
        list, and a bad row raises the same per-edge error."""
        import numpy as np

        pairs = [(0, 1), (3, 1), (2, 4)]
        g = ArrayDynamicGraph(5, np.array(pairs))
        assert g.edge_set() == ArrayDynamicGraph(5, pairs).edge_set()
        assert ArrayDynamicGraph(5, np.empty((0, 2), dtype=int)).m == 0
        with pytest.raises(ValueError, match="outside"):
            ArrayDynamicGraph(5, np.array([(0, 1), (2, 7)]))
        with pytest.raises(ValueError, match="duplicate"):
            ArrayDynamicGraph(5, np.array([(0, 1), (1, 0)]))


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


# -- spliced per-epoch CSR ----------------------------------------------------


def _full_gather(g: ArrayDynamicGraph):
    """``g``'s CSR by the full gather: a copy carries no cached CSR."""
    return g.copy().csr()


def _assert_csr_exact(g: ArrayDynamicGraph) -> bool:
    """``g.csr()`` is byte-identical to its full gather; whether it was
    spliced into an earlier epoch's cache."""
    import numpy as np

    cache = g._csr_cache
    spliced = cache is not None and cache.version != g.version
    got, want = g.csr(), _full_gather(g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    return spliced


class TestSplicedCsr:
    """``csr()`` splices the rows mutations touched into the previous
    epoch's CSR; every result must equal the same graph's full gather."""

    N = 1024   # splice bound: 32 touched rows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_splice_equals_full_gather(self, data):
        """Insert/delete batches on both sides of the scalar/vectorized
        crossovers (relocating segments through ``_grow``), ``compact``,
        ``copy`` and pickle round trips, with ``csr()`` at random
        points."""
        import pickle

        # endpoints drawn from a small universe, so some epochs stay
        # under the splice bound and some pass it
        span = data.draw(st.integers(8, 80))
        pairs = [(u, v) for u in range(span) for v in range(u + 1, span)]
        initial = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                     max_size=120))
        g = ArrayDynamicGraph(self.N, initial, slack=data.draw(
            st.integers(0, 2)))
        live = set(initial)
        g.csr()
        top = 2 * max(ArrayDynamicGraph._SCALAR_DELETE,
                      ArrayDynamicGraph._SCALAR_INSERT)
        for _ in range(data.draw(st.integers(1, 12))):
            op = data.draw(st.sampled_from(
                ["insert", "delete"] * 2
                + ["csr", "compact", "copy", "pickle"]))
            if op == "csr":
                _assert_csr_exact(g)
            elif op == "compact":
                g.compact()
            elif op == "copy":
                g = g.copy()
            elif op == "pickle":
                g = pickle.loads(pickle.dumps(g))
            else:
                pool = sorted(set(pairs) - live if op == "insert" else live)
                if not pool:
                    continue
                # mostly served-delta sizes, sometimes past the bound
                size = data.draw(st.one_of(st.integers(1, 8),
                                           st.integers(1, top)))
                batch = data.draw(st.permutations(pool))[:size]
                getattr(g, f"{op}_batch")(batch)
                live = live | set(batch) if op == "insert" else \
                    live - set(batch)
            if data.draw(st.booleans()):
                _assert_csr_exact(g)
        _assert_csr_exact(g)
        assert g.edge_set() == live

    def test_splices_under_the_bound_only(self):
        g = ArrayDynamicGraph(self.N, [(0, 1), (2, 3)])
        bound = self.N // ArrayDynamicGraph._SPLICE_FRACTION
        g.insert_batch([(4, 5)])
        assert g._csr_cache is None   # no CSR built: nothing recorded
        g.csr()
        # 16 edges over rows 0 .. bound - 1: exactly at the bound
        g.insert_batch([(v, v + bound // 2) for v in range(bound // 2)
                        if (v, v + bound // 2) not in g])
        g.delete_batch([(0, 1)])
        assert len(g._csr_cache.touched) == bound
        assert _assert_csr_exact(g)
        assert g._csr_cache.touched == set()
        # one row past the bound drops the cache: a full gather
        g.insert_batch([(v, v + 1) for v in range(100, 100 + bound, 2)])
        assert g._csr_cache is not None
        g.insert_batch([(200, 201)])
        assert g._csr_cache is None
        assert not _assert_csr_exact(g)

    def test_pickle_ships_no_stale_cache(self):
        import pickle

        g = ArrayDynamicGraph(self.N, [(0, 1), (1, 2)])
        g.csr()
        g.insert_batch([(0, 2)])
        assert g._csr_cache.touched == {0, 2}
        assert pickle.loads(pickle.dumps(g))._csr_cache is None
        g.csr()
        h = pickle.loads(pickle.dumps(g))
        assert h._csr_cache.version == h.version
        assert h._csr_cache.touched == set()
        h.delete_batch([(1, 2)])
        assert _assert_csr_exact(h)
        assert g.copy()._csr_cache is None


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
