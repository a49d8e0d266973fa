"""Tests for the generic Bentley–Saxe dynamizer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import gnm_random_graph, norm_edge
from repro.spanner.dynamizer import BentleySaxeDynamizer


class IdentityStructure:
    """Trivial decremental structure: output = its whole edge set."""

    def __init__(self, edges):
        self._edges = set(edges)

    def output_edges(self):
        return set(self._edges)

    def batch_delete(self, edges):
        dels = set()
        for e in edges:
            self._edges.remove(e)
            dels.add(e)
        return set(), dels


class HalfStructure:
    """Keeps every other edge (deterministic) — exercises output != edges."""

    def __init__(self, edges):
        self._edges = set(edges)
        self._out = {e for i, e in enumerate(sorted(edges)) if i % 2 == 0}

    def output_edges(self):
        return set(self._out)

    def batch_delete(self, edges):
        dels = set()
        for e in edges:
            self._edges.remove(e)
            if e in self._out:
                self._out.remove(e)
                dels.add(e)
        return set(), dels


def make(edges, base=4, structure=IdentityStructure):
    return BentleySaxeDynamizer(edges, structure, base)


class TestInit:
    def test_empty(self):
        dyn = make([])
        assert dyn.output_edges() == set()
        dyn.check_invariants()

    def test_small_initial_set_goes_to_level0(self):
        edges = [(0, 1), (1, 2)]
        dyn = make(edges, base=4)
        assert dyn.level_sizes() == {0: 2}
        assert dyn.output_edges() == set(edges)

    def test_large_initial_set_finds_level(self):
        edges = [(0, i) for i in range(1, 20)]
        dyn = make(edges, base=4)
        (lvl,) = dyn.level_sizes()
        assert 4 << lvl >= 19
        dyn.check_invariants()

    def test_duplicate_initial_edges_rejected(self):
        with pytest.raises(ValueError):
            make([(0, 1), (1, 0)])

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            BentleySaxeDynamizer([], IdentityStructure, 0)


class TestInsert:
    def test_insert_within_level0(self):
        dyn = make([], base=4)
        ins, dels = dyn.update(insertions=[(0, 1), (1, 2)])
        assert ins == {(0, 1), (1, 2)} and not dels
        assert dyn.level_sizes() == {0: 2}

    def test_level0_overflow_cascades(self):
        dyn = make([], base=2)
        dyn.update(insertions=[(0, 1), (0, 2)])
        assert dyn.level_sizes() == {0: 2}
        dyn.update(insertions=[(0, 3)])
        # 3 edges exceed base; remainder merges E_0 into level 1
        sizes = dyn.level_sizes()
        assert sum(sizes.values()) == 3
        assert 0 not in sizes or sizes[0] < 2 or 1 in sizes
        dyn.check_invariants()

    def test_big_batch_chunks_by_bits(self):
        dyn = make([], base=2)
        edges = [(0, i) for i in range(1, 12)]  # 11 edges = 5*2 + 1
        dyn.update(insertions=edges)
        dyn.check_invariants()
        assert dyn.output_edges() == set(edges)
        assert dyn.m == 11

    def test_duplicate_insert_rejected(self):
        dyn = make([(0, 1)])
        with pytest.raises(ValueError):
            dyn.update(insertions=[(1, 0)])
        with pytest.raises(ValueError):
            dyn.update(insertions=[(2, 3), (3, 2)])

    def test_contains(self):
        dyn = make([(0, 1)])
        assert (1, 0) in dyn
        assert (0, 2) not in dyn


class TestDelete:
    def test_delete_from_level0(self):
        dyn = make([(0, 1), (1, 2)], base=4)
        ins, dels = dyn.update(deletions=[(0, 1)])
        assert dels == {(0, 1)} and not ins
        assert dyn.m == 1

    def test_delete_missing_raises(self):
        dyn = make([(0, 1)])
        with pytest.raises(KeyError):
            dyn.update(deletions=[(2, 3)])

    def test_delete_empties_partition(self):
        dyn = make([(0, i) for i in range(1, 9)], base=2)
        dyn.update(deletions=[(0, i) for i in range(1, 9)])
        assert dyn.level_sizes() == {}
        assert dyn.output_edges() == set()

    def test_delete_and_reinsert_same_edge_in_one_batch(self):
        dyn = make([(0, 1), (1, 2), (2, 3)], base=2)
        ins, dels = dyn.update(insertions=[(0, 1)], deletions=[(0, 1)])
        assert (0, 1) in dyn
        # net delta for the edge cancels out (it stays in the output)
        assert (0, 1) not in dels or (0, 1) in ins


class TestModelBased:
    @pytest.mark.parametrize("structure", [IdentityStructure, HalfStructure])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_update_stream(self, structure, seed):
        rng = random.Random(seed)
        n = 12
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
        dyn = BentleySaxeDynamizer([], structure, base_capacity=3)
        present: set = set()
        output = set()
        for _ in range(40):
            absent = [e for e in universe if e not in present]
            ins = rng.sample(absent, min(len(absent), rng.randrange(0, 5)))
            dels = rng.sample(
                sorted(present), min(len(present), rng.randrange(0, 5))
            )
            d_ins, d_dels = dyn.update(insertions=ins, deletions=dels)
            present |= set(ins)
            present -= set(dels)
            assert not (d_ins & d_dels)
            output = (output - d_dels) | d_ins
            assert output == dyn.output_edges()
            assert output <= present
            assert dyn.m == len(present)
            dyn.check_invariants()
        if structure is IdentityStructure:
            assert output == present  # identity keeps everything


class TestAmortization:
    def test_rebuild_work_is_near_linear(self):
        """Every edge participates in at most O(log m) rebuilds."""
        import math

        dyn = make([], base=2)
        total_inserted = 0
        for i in range(256):
            dyn.update(insertions=[(0, i + 1)])
            total_inserted += 1
        bound = total_inserted * (math.log2(total_inserted) + 2)
        assert dyn.rebuilt_edge_count <= bound


class TestRestart:
    def test_restart_preserves_output_semantics(self):
        import random

        rng = random.Random(0)
        n = 10
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
        dyn = BentleySaxeDynamizer(
            [], IdentityStructure, base_capacity=2, restart_every=7
        )
        present: set = set()
        output: set = set()
        for _ in range(40):
            absent = [e for e in universe if e not in present]
            ins = rng.sample(absent, min(len(absent), rng.randrange(0, 4)))
            dels = rng.sample(
                sorted(present), min(len(present), rng.randrange(0, 4))
            )
            d_ins, d_dels = dyn.update(insertions=ins, deletions=dels)
            present = (present - set(dels)) | set(ins)
            output = (output - d_dels) | d_ins
            assert output == dyn.output_edges() == present
            dyn.check_invariants()
        assert dyn.restart_count >= 3

    def test_restart_consolidates_partitions(self):
        dyn = BentleySaxeDynamizer(
            [], IdentityStructure, base_capacity=2, restart_every=1000
        )
        for i in range(31):
            dyn.update(insertions=[(0, i + 1)])
        assert len(dyn.level_sizes()) > 1  # fragmented by drip inserts
        dyn._restart(lambda e, d: None)
        assert len(dyn.level_sizes()) == 1  # consolidated
        dyn.check_invariants()

    def test_invalid_restart_every(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            BentleySaxeDynamizer([], IdentityStructure, 2, restart_every=0)

    def test_fully_dynamic_spanner_with_restart(self):
        from repro.spanner import FullyDynamicSpanner
        from repro.verify import is_spanner
        from repro.graph import gnm_random_graph

        n = 15
        edges = gnm_random_graph(n, 40, seed=1)
        sp = FullyDynamicSpanner(n, edges, k=2, seed=1, base_capacity=4,
                                 restart_every=10)
        spanner = sp.spanner_edges()
        alive = list(edges)
        import random as _r

        rng = _r.Random(1)
        rng.shuffle(alive)
        while alive:
            batch, alive = alive[:6], alive[6:]
            ins, dels = sp.update(deletions=batch)
            spanner = (spanner - dels) | ins
            assert spanner == sp.spanner_edges()
            assert is_spanner(n, alive, spanner, 3)
            sp.check_invariants()


class _Recording:
    """Identity structure that records the edge list each build received."""

    built: list = []

    def __init__(self, edges):
        _Recording.built.append(edges)
        self._edges = set(edges)

    def output_edges(self):
        return set(self._edges)

    def batch_delete(self, edges):
        self._edges -= set(edges)
        return set(), set(edges)


_pairs = st.sets(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
        lambda e: e[0] < e[1]),
    min_size=2, max_size=60,
)


class TestLevelOrder:
    """A level's factory gets ``sorted(norm_edge(u, v) ...)`` from one
    numpy key sort, holding the caller's own normalized tuples."""

    @settings(max_examples=60, deadline=None)
    @given(_pairs, st.randoms(use_true_random=False))
    def test_factory_order_equals_sorted(self, edges, rng):
        given_edges = [e[::-1] if rng.random() < 0.4 else e
                       for e in sorted(edges, key=lambda _: rng.random())]
        _Recording.built = []
        BentleySaxeDynamizer(given_edges, _Recording, base_capacity=1)
        (level,) = _Recording.built
        assert level == sorted(norm_edge(u, v) for u, v in given_edges)
        assert all(type(e) is tuple for e in level)
        # an already-normalized tuple is the caller's own object
        mine = {e: e for e in given_edges if e[0] < e[1]}
        assert all(e is mine[e] for e in level if e in mine)

    @settings(max_examples=30, deadline=None)
    @given(_pairs, st.integers(1, 8))
    def test_merges_and_restarts_order_equals_sorted(self, edges, base):
        edges = sorted(edges)
        _Recording.built = []
        dyn = BentleySaxeDynamizer(edges[:base], _Recording, base,
                                   restart_every=len(edges))
        for i in range(base, len(edges), 3):
            dyn.update(insertions=edges[i:i + 3])
        assert _Recording.built or len(edges) <= base
        for level in _Recording.built:
            assert level == sorted(level)
        dyn.check_invariants()

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 0)],
                                       [(2, 3), (0, 1), (2, 3)]])
    def test_duplicate_rejected(self, edges):
        with pytest.raises(ValueError, match="^duplicate edges$"):
            make(edges)

    @pytest.mark.parametrize("edges", [[(0, 1), (2, 2)], [(5, 5)]])
    def test_self_loop_rejected(self, edges):
        u = edges[-1][0]
        with pytest.raises(ValueError, match=rf"^self-loop \({u}, {u}\)$"):
            make(edges)

    def test_spanner_rejects_like_the_dynamizer(self):
        from repro.spanner import FullyDynamicSpanner

        with pytest.raises(ValueError, match="^duplicate edges$"):
            FullyDynamicSpanner(4, [(0, 1), (1, 0)], k=2, seed=1)
        with pytest.raises(ValueError, match=r"^self-loop \(2, 2\)$"):
            FullyDynamicSpanner(4, [(0, 1), (2, 2)], k=2, seed=1)
