"""Tests for the decremental (2k−1)-spanner (Lemma 3.3)."""

import random

import pytest

from repro.graph import gnm_random_graph, ring_of_cliques
from repro.spanner.decremental import DecrementalSpanner
from repro.verify.stretch import is_spanner, spanner_stretch


class TestInitial:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_initial_spanner_valid(self, k):
        n, m = 40, 150
        edges = gnm_random_graph(n, m, seed=k)
        sp = DecrementalSpanner(n, edges, k=k, seed=7)
        assert is_spanner(n, edges, sp.spanner_edges(), 2 * k - 1)
        sp.check_invariants()

    def test_k1_keeps_every_edge(self):
        # stretch 1 forces H = G
        n, m = 20, 60
        edges = gnm_random_graph(n, m, seed=2)
        sp = DecrementalSpanner(n, edges, k=1, seed=3)
        assert sp.spanner_edges() == set(edges)

    def test_spanner_subset_of_graph(self):
        n, m = 30, 90
        edges = gnm_random_graph(n, m, seed=5)
        sp = DecrementalSpanner(n, edges, k=3, seed=11)
        assert sp.spanner_edges() <= set(edges)

    def test_empty_graph(self):
        sp = DecrementalSpanner(5, [], k=2, seed=1)
        assert sp.spanner_edges() == set()
        sp.check_invariants()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DecrementalSpanner(3, [], k=0)

    def test_ring_of_cliques_size_shrinks(self):
        edges = ring_of_cliques(6, 6)
        n = 36
        sp = DecrementalSpanner(n, edges, k=2, seed=1)
        # dense cliques must lose most intra-clique edges
        assert sp.spanner_size() < len(edges)


class TestDeletions:
    @pytest.mark.parametrize("seed", range(6))
    def test_spanner_valid_after_every_batch(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(10, 26)
        m = rng.randrange(n, 3 * n)
        k = rng.choice([2, 3, 4])
        edges = gnm_random_graph(n, m, seed=seed + 100)
        sp = DecrementalSpanner(n, edges, k=k, seed=seed)
        spanner = sp.spanner_edges()
        alive = list(edges)
        rng.shuffle(alive)
        while alive:
            b = min(len(alive), rng.choice([1, 2, 5]))
            batch, alive = alive[:b], alive[b:]
            ins, dels = sp.batch_delete(batch)
            assert not (ins & dels)
            spanner = (spanner - dels) | ins
            assert spanner == sp.spanner_edges(), "delta stream inconsistent"
            assert spanner <= set(alive)
            assert is_spanner(n, alive, spanner, 2 * k - 1), (
                f"seed={seed} alive={alive}"
            )
            sp.check_invariants()

    def test_delete_missing_edge_raises(self):
        sp = DecrementalSpanner(3, [(0, 1)], k=2, seed=1)
        with pytest.raises(KeyError):
            sp.batch_delete([(1, 2)])

    def test_full_deletion_empties_spanner(self):
        n, m = 15, 40
        edges = gnm_random_graph(n, m, seed=8)
        sp = DecrementalSpanner(n, edges, k=3, seed=8)
        sp.batch_delete(edges)
        assert sp.spanner_edges() == set()
        sp.check_invariants()

    def test_recourse_is_bounded(self):
        """Total |ins| + |dels| across a full deletion stream should be
        O(m k log n), far below the trivial O(m^2)."""
        rng = random.Random(3)
        n, m, k = 40, 160, 3
        edges = gnm_random_graph(n, m, seed=3)
        sp = DecrementalSpanner(n, edges, k=k, seed=3)
        total = sp.spanner_size()
        alive = list(edges)
        rng.shuffle(alive)
        while alive:
            batch, alive = alive[:8], alive[8:]
            ins, dels = sp.batch_delete(batch)
            total += len(ins) + len(dels)
        import math

        bound = 20 * m * k * math.log2(n)
        assert total <= bound


class TestStretchQuality:
    def test_stretch_stays_within_guarantee_mid_stream(self):
        rng = random.Random(17)
        n, m, k = 30, 120, 2
        edges = gnm_random_graph(n, m, seed=17)
        sp = DecrementalSpanner(n, edges, k=k, seed=17)
        alive = list(edges)
        rng.shuffle(alive)
        for _ in range(10):
            batch, alive = alive[:6], alive[6:]
            sp.batch_delete(batch)
            s = spanner_stretch(n, alive, sp.spanner_edges())
            assert s <= 2 * k - 1


class TestAllOrNothingDelete:
    """A rejected delete batch changes nothing: the whole batch is checked
    before the first edge is removed."""

    @pytest.mark.parametrize("shape", ["absent", "repeated", "reversed",
                                       "out_of_range"])
    def test_rejected_batch_leaves_spanner_intact(self, shape):
        edges = gnm_random_graph(60, 300, seed=3)
        sp = DecrementalSpanner(60, edges, k=2, seed=1)
        e = edges[0]
        absent = next(
            (u, v) for u in range(60) for v in range(u + 1, 60)
            if (u, v) not in set(edges)
        )
        bad = {
            "absent": [e, absent],
            "repeated": [e, e],
            "reversed": [e, (e[1], e[0])],
            "out_of_range": [e, (-1, 5)],
        }[shape]
        before = sp.spanner_edges()
        with pytest.raises(KeyError):
            sp.batch_delete(bad)
        sp.check_invariants()
        assert sp.spanner_edges() == before
        sp.batch_delete([e])  # the retry is accepted
        sp.check_invariants()


class TestLazyOwners:
    def test_late_builds_match_eager_builds(self):
        """Owner state built on first touch equals state built eagerly:
        one structure builds every owner (``check_invariants``, and every
        ES out-edge map) before every batch, its twin only at the end, and
        both report the same deltas, spanner and charges after every
        batch.  Each batch removes every edge at one vertex, alternating
        between the centre of the largest cluster and a random vertex, so
        whole clusters move and many owners are first built after their
        own cluster changed."""
        from repro.pram import CostModel

        rng = random.Random(1)
        n, m, k = 100, 400, 4
        edges = gnm_random_graph(n, m, seed=1)
        cm_eager, cm_lazy = CostModel(), CostModel()
        eager = DecrementalSpanner(n, edges, k=k, seed=1, cost=cm_eager)
        lazy = DecrementalSpanner(n, edges, k=k, seed=1, cost=cm_lazy)
        alive = set(edges)
        turn = 0
        while alive:
            cl = lazy.sc.cluster
            if turn % 2 == 0:
                c = max(range(n), key=lambda c: (cl.count(c), c))
            else:
                c = rng.randrange(n)
            turn += 1
            batch = sorted(e for e in alive if c in e) or [min(alive)]
            alive -= set(batch)
            eager.check_invariants()
            for u in range(len(eager.sc.es.dist)):
                eager.sc.es.out_edges(u)
            assert eager.batch_delete(batch) == lazy.batch_delete(batch)
            assert eager.spanner_edges() == lazy.spanner_edges()
            assert (cm_eager.work, cm_eager.depth) == (
                cm_lazy.work, cm_lazy.depth)
        assert lazy.sc.total_cluster_changes > 20
        lazy.check_invariants()


class TestMemoryPin:
    def test_mutation_state_bytes_per_live_edge(self):
        """Bytes the structure holds after a batch that touches every
        vertex, per live edge.  On CPython 3.11, tuple-keyed tables (an
        ``(owner, cluster)``-keyed bucket dict, an edge-priority dict and an
        alive set) held 2550 B; per-owner state holds 1562 B, and an
        edge-priority dict brought back alone adds ~430 B."""
        import gc
        import tracemalloc

        n, m = 500, 3000
        edges = gnm_random_graph(n, m, seed=1)
        covered: set[int] = set()
        batch = []
        for u, v in edges:
            if u not in covered or v not in covered:
                batch.append((u, v))
                covered.update((u, v))
        assert len(covered) == n
        # warm-up: first-call imports and caches are not structure state
        DecrementalSpanner(n, edges, k=2, seed=1).batch_delete(batch)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sp = DecrementalSpanner(n, edges, k=2, seed=1)
            sp.batch_delete(batch)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        per_edge = held / (m - len(batch))
        assert per_edge < 1800, f"{per_edge:.0f} B of state per live edge"
