"""Component labels carried across epochs of the array graph.

While an epoch has labels, the graph logs the edges each later batch
applies; the next epoch's first connectivity read carries the labels
across the log instead of starting empty.  These tests hold the carried
labels to a fresh graph's flood, the charges to a fresh graph's, and the
flood count to the exact rule: an uncharged read floods only the
components that a delete split (or every component, once the log was
dropped).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import ArrayDynamicGraph
from repro.pram import CostModel
from repro.queries import batch_components


@pytest.fixture
def floods(monkeypatch):
    """Start vertices of every component flood, in order."""
    import repro.queries.batch as qbatch

    seen: list[int] = []
    real = qbatch._flood_csr

    def counted(csr, state, sc, v0):
        seen.append(v0)
        return real(csr, state, sc, v0)

    monkeypatch.setattr(qbatch, "_flood_csr", counted)
    return seen


def _components(n, edges):
    """Vertex -> minimum vertex of its component (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(n)]


def _bound(n):
    return ArrayDynamicGraph(n)._label_log_bound()


def _check_epoch(g, live, queried, floods):
    """Run the carry, then an uncharged and a charged read of
    ``queried``; every known label, answer and charge must be a fresh
    graph's.  Returns the number of uncharged floods."""
    n = g.n
    want = _components(n, live)
    labels = g.read_state().component_labels()
    known = labels >= 0
    assert np.array_equal(labels[known], np.array(want)[known])
    before = len(floods)
    got = batch_components(g, queried)
    flooded = len(floods) - before
    assert got == {v: want[v] if 0 <= v < n else v for v in queried}
    cm, ref = CostModel(), CostModel()
    assert batch_components(g, queried, cost=cm) == got
    batch_components(ArrayDynamicGraph(n, live), queried, cost=ref)
    assert (cm.work, cm.depth) == (ref.work, ref.depth)
    return flooded


class TestCarryRule:
    """The carry on small hand-built graphs: a path 0-1-2-3, a
    triangle 4-5-6, the edge 7-8 and an isolated vertex 9."""

    EDGES = {(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)}

    def _labelled(self):
        g = ArrayDynamicGraph(10, self.EDGES)
        batch_components(g, range(10))
        return g

    def test_merge_carries_without_a_flood(self, floods):
        g = self._labelled()
        del floods[:]
        g.insert_batch([(3, 7), (9, 4)])
        assert batch_components(g, range(10)) == {
            **dict.fromkeys(range(4), 0), 4: 4, 5: 4, 6: 4,
            7: 0, 8: 0, 9: 4}
        assert floods == []
        assert g.read_state().carried

    def test_cycle_delete_keeps_the_class(self, floods):
        g = self._labelled()
        del floods[:]
        g.delete_batch([(4, 5)])
        assert batch_components(g, [5, 6]) == {5: 4, 6: 4}
        assert floods == []

    def test_bridge_delete_floods_each_side(self, floods):
        g = self._labelled()
        del floods[:]
        g.delete_batch([(1, 2)])
        assert batch_components(g, range(10))[3] == 2
        assert sorted(floods) == [0, 2]   # the split path's two sides
        assert g.read_state().labels.tolist() == [0, 0, 2, 2, 4, 4, 4,
                                                  7, 7, 9]

    def test_reinserting_a_deleted_edge(self, floods):
        g = self._labelled()
        del floods[:]
        g.delete_batch([(1, 2)])
        g.insert_batch([(1, 2)])
        assert batch_components(g, range(10))[3] == 0
        assert floods == []

    def test_join_with_an_unlabelled_component(self, floods):
        g = ArrayDynamicGraph(10, self.EDGES)
        batch_components(g, [0, 7])          # 4-5-6 and 9 stay unknown
        del floods[:]
        g.insert_batch([(3, 4)])
        labels = g.read_state().component_labels()
        assert labels.tolist() == [-1] * 7 + [7, 7, -1]
        assert batch_components(g, [2, 8]) == {2: 0, 8: 7}
        assert floods == [2]

    def test_out_of_range_ids(self, floods):
        g = self._labelled()
        del floods[:]
        g.insert_batch([(0, 9)])
        assert batch_components(g, [-1, 10, 9, 3]) == {
            -1: -1, 10: 10, 9: 0, 3: 0}
        assert floods == []

    def test_log_past_the_bound_is_dropped(self, floods):
        n = 64
        g = ArrayDynamicGraph(n, [(v, v + 1) for v in range(n - 1)])
        bound = _bound(n)
        batch_components(g, range(n))
        g.insert_batch([(0, v) for v in range(2, bound)])
        g.insert_batch([(0, bound)])
        assert len(g._label_log.inserted) == bound - 1
        g.insert_batch([(0, bound + 1), (0, bound + 2)])
        assert g._label_log is None
        del floods[:]
        assert set(batch_components(g, range(n)).values()) == {0}
        assert floods == [0] and not g.read_state().carried

    def test_unread_epochs_extend_the_log(self, floods):
        g = self._labelled()
        g.delete_batch([(2, 3)])
        g.read_state()                       # a state, but no labels use
        g.insert_batch([(3, 9)])
        del floods[:]
        assert batch_components(g, range(10))[9] == 3
        assert sorted(floods) == [0, 3]      # only the split path's sides

    def test_copy_and_pickle_start_without_a_log(self, floods):
        g = self._labelled()
        g.insert_batch([(3, 7)])
        for h in (g.copy(), pickle.loads(pickle.dumps(g))):
            assert h._label_log is None and h._read_state is None
            del floods[:]
            assert batch_components(h, [8, 0]) == {8: 0, 0: 0}
            assert floods == [8]

    def test_pickled_after_a_labelled_epoch_and_a_mutation(self):
        g = self._labelled()
        g.delete_batch([(1, 2)])
        assert g._label_log is not None
        h = pickle.loads(pickle.dumps(g))
        assert batch_components(h, [0, 3, 2, 9]) == {0: 0, 3: 2, 2: 2, 9: 9}
        h.insert_batch([(0, 3)])
        assert batch_components(h, [1, 2]) == {1: 0, 2: 0}


class TestCarryProperty:
    """Random insert/delete batches with connectivity reads between
    some of the commits, on graphs with bridges, isolated vertices and
    re-inserted edges."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_carried_labels_equal_a_fresh_flood(self, data):
        import repro.queries.batch as qbatch

        floods: list[int] = []
        real = qbatch._flood_csr

        def counted(csr, state, sc, v0):
            floods.append(v0)
            return real(csr, state, sc, v0)

        n = data.draw(st.integers(2, 160))
        # a sparse universe over part of the range: many components,
        # bridges, and isolated vertices above ``span``
        span = data.draw(st.integers(2, min(n, 40)))
        pairs = [(u, v) for u in range(span) for v in range(u + 1, span)]
        live = set(data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                      max_size=span + 4)))
        g = ArrayDynamicGraph(n, live)
        old = qbatch._flood_csr
        qbatch._flood_csr = counted
        try:
            # since the last read: were all labels known after it, the
            # edges then, and the edges inserted and logged since
            full, base, inserted, logged = False, None, set(), 0
            last_deleted: list = []
            for _ in range(data.draw(st.integers(1, 20))):
                op = data.draw(st.sampled_from(
                    ["insert", "delete"] * 3
                    + ["reinsert", "read", "read", "read", "compact",
                       "copy", "pickle"]))
                if op == "read":
                    everything = data.draw(st.sampled_from(
                        [True, True, False]))
                    queried = (list(range(-1, n + 2)) if everything else
                               data.draw(st.lists(st.integers(-2, n + 1),
                                                  max_size=8)))
                    flooded = _check_epoch(g, live, queried, floods)
                    want = _components(n, live)
                    carry = base is not None and logged <= _bound(n)
                    if everything and full and carry:
                        # one flood per component of a split class
                        merged = _components(n, base | inserted)
                        split = {merged[v] for v in range(n)
                                 if want[v] != want[merged[v]]}
                        assert flooded == len({want[v] for v in range(n)
                                               if merged[v] in split})
                    elif everything and not carry:
                        assert flooded == len(set(want))
                    full = bool((g.read_state().labels >= 0).all())
                    base, inserted, logged = set(live), set(), 0
                elif op == "compact":
                    g.compact()
                elif op in ("copy", "pickle"):
                    g = g.copy() if op == "copy" else \
                        pickle.loads(pickle.dumps(g))
                    full, base = False, None
                else:
                    if op == "reinsert":
                        batch = [e for e in last_deleted if e not in live]
                    else:
                        pool = sorted(set(pairs) - live if op == "insert"
                                      else live)
                        # mostly served-delta sizes, sometimes past
                        # the log's bound
                        batch = data.draw(st.lists(
                            st.sampled_from(pool), unique=True, min_size=1,
                            max_size=data.draw(st.sampled_from(
                                [3, 3, 3, 40])))) if pool else []
                    if not batch:
                        continue
                    if op == "delete":
                        g.delete_batch(batch)
                        live -= set(batch)
                        last_deleted = batch
                    else:
                        g.insert_batch(batch)
                        live |= set(batch)
                        inserted |= set(batch)
                    logged += len(batch)
            _check_epoch(g, live, list(range(n)), floods)
        finally:
            qbatch._flood_csr = old
