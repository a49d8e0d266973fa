"""Mutation tests: the ``check_invariants`` methods must actually *detect*
corruption.  Each test breaks one internal invariant by hand and asserts
the checker trips — guarding the guards."""

import pytest

from repro.bundle import DecrementalTBundle, MonotoneDecrementalSpanner
from repro.connectivity import DynamicSpanningForest
from repro.contraction import ContractionLayer, SparseSpannerDynamic
from repro.graph import gnm_random_graph, norm_edge
from repro.spanner import DecrementalSpanner, FullyDynamicSpanner
from repro.ultrasparse import UltraSparseSpannerDynamic

EDGES = gnm_random_graph(14, 40, seed=3)


class TestCheckersDetectCorruption:
    def test_decremental_spanner_refcount_corruption(self):
        sp = DecrementalSpanner(14, EDGES, k=2, seed=3)
        e = next(iter(sp.spanner_edges()))
        sp._span[e] += 1
        with pytest.raises(AssertionError):
            sp.check_invariants()

    def test_decremental_spanner_bucket_corruption(self):
        sp = DecrementalSpanner(14, EDGES, k=2, seed=3)
        owner = sp._owner(next(v for v in range(14) if sp._owner(v).adj))
        next(iter(owner.buckets.values())).add(999)
        with pytest.raises(AssertionError):
            sp.check_invariants()

    def test_dynamizer_index_corruption(self):
        sp = FullyDynamicSpanner(14, EDGES, k=2, seed=3, base_capacity=4)
        dyn = sp._dyn
        e = next(iter(dyn._index))
        dyn._index[e] += 17
        with pytest.raises((AssertionError, KeyError)):
            sp.check_invariants()

    def test_contraction_layer_head_corruption(self):
        layer = ContractionLayer(14, [v % 2 == 0 for v in range(14)], seed=3)
        layer.update(insertions=EDGES)
        # falsify a head of an unsampled vertex with neighbors
        v = next(
            v for v in range(14)
            if not layer.sampled[v] and len(layer.adj[v]) > 0
        )
        layer.head[v] = (layer.head[v] + 1) % 14
        with pytest.raises((AssertionError, KeyError)):
            layer.check_invariants()

    def test_sparse_spanner_pull_corruption(self):
        sp = SparseSpannerDynamic(14, EDGES, rates=[2.0], k_final=2,
                                  seed=3, base_capacity=4)
        if sp._pull[0]:
            key = next(iter(sp._pull[0]))
            del sp._pull[0][key]
            with pytest.raises((AssertionError, KeyError)):
                sp.check_invariants()

    def test_ultrasparse_head_corruption(self):
        sp = UltraSparseSpannerDynamic(
            14, EDGES, x=2.0, seed=3, inner_rates=[2.0], k_final=2,
            base_capacity=4,
        )
        v = next(v for v in range(14) if sp.adj[v])
        sp.head[v] = -1 if sp.head[v] != -1 else v
        with pytest.raises((AssertionError, KeyError)):
            sp.check_invariants()

    def test_monotone_spanner_forest_corruption(self):
        sp = MonotoneDecrementalSpanner(14, EDGES, seed=3, instances=3)
        e = next(iter(sp._span))
        del sp._span[e]
        with pytest.raises(AssertionError):
            sp.check_invariants()

    def test_tbundle_stash_corruption(self):
        bundle = DecrementalTBundle(14, EDGES, t=2, seed=3, instances=3)
        # claim a non-bundle edge is stashed in level 0
        rest = bundle.non_bundle_edges()
        if rest:
            bundle.levels[0].stash.add(next(iter(rest)))
            with pytest.raises(AssertionError):
                bundle.check_invariants()

    def test_dsf_tree_set_corruption(self):
        dsf = DynamicSpanningForest(14, EDGES, seed=3)
        e = next(iter(dsf.forest_edges()))
        dsf._tree.remove(e)
        with pytest.raises(AssertionError):
            dsf.check_invariants()

    def test_priority_array_mirror_corruption(self):
        from repro.structures import PriorityArray

        pa = PriorityArray(64, [(i, i) for i in range(10)])
        # desync the sorted mirror from the value map
        pa._sorted.append(pa._sorted[-1])
        # the corruption surfaces as a duplicated position scan
        priorities = [p for _, p, _ in pa.items_by_position()]
        assert len(priorities) != len(set(priorities)) or len(
            priorities
        ) != 10, "corruption went undetected"
