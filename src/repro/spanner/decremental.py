"""Decremental (2k−1)-spanner (Lemma 3.3).

The spanner has two parts:

* **intra-cluster edges** — the original-graph edges of the shortest-path
  forest maintained by :class:`~repro.spanner.shift_clustering.ShiftedClustering`,
* **inter-cluster edges** — one representative edge per nonempty
  ``INTERCLUSTER[(v, c)]`` bucket with ``c != CLUSTER(v)`` (the paper's hash
  table of hash tables).

Each deletion batch updates the clustering, moves bucket memberships for
every endpoint whose cluster changed, refreshes representatives of touched
buckets, and reports the net spanner delta ``(δH_ins, δH_del)``.

Mutation state is kept per owner ``v`` — its adjacency set, its buckets
``{c: members}`` and its representatives ``{c: member}`` — and built from
``v``'s slice of the sorted construction arrays the first time a delete
touches ``v``.  A late build is exact because

* step 1 touches both endpoints of an edge before removing it, and
* step 4 touches every neighbour of a vertex, and the vertex itself,
  before moving that vertex between buckets,

so an owner never touched still has only its construction-time
neighbours, in their construction-time clusters, and its own
construction-time cluster and representatives.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.dynamic_graph import Edge, norm_edge
from repro.pram.cost import NULL_COST_MODEL, CostModel
from repro.spanner.shift_clustering import (
    ShiftedClustering,
    _edge_array,
    sample_shifts,
)

__all__ = ["DecrementalSpanner"]


class _Owner:
    """The mutation state of one owner ``v``: its neighbours, its buckets
    ``{cluster: members}`` and its representatives ``{cluster: member}``."""

    __slots__ = ("adj", "buckets", "reps")

    def __init__(self, adj, buckets, reps) -> None:
        self.adj: set[int] = adj
        self.buckets: dict[int, set[int]] = buckets
        self.reps: dict[int, int] = reps


class DecrementalSpanner:
    """Lemma 3.3 data structure.

    Parameters
    ----------
    n, edges:
        The initial unweighted simple graph.
    k:
        Stretch parameter; the spanner has stretch ``2k - 1`` w.h.p. and
        O(n^{1+1/k}) expected edges.
    seed:
        Randomness for the exponential shifts.
    """

    def __init__(
        self,
        n: int,
        edges,
        k: int,
        seed: int | None = None,
        cost: CostModel = NULL_COST_MODEL,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = n
        self.k = k
        self._cost = cost
        earr = _edge_array(edges)
        rng = np.random.default_rng(seed)
        beta = math.log(10 * max(n, 2)) / k
        deltas = sample_shifts(n, beta=beta, cap=float(k), rng=rng)
        self.deltas = deltas
        self.sc = ShiftedClustering(n, earr, deltas, cost=cost)

        # Array-native initialization.  Bucket memberships are rows
        # (owner v, cluster c of member, member u), sorted once by
        # (v, c, u): the same order serves the initial representative
        # sweep below and every owner's late build (see _owner).
        eu, ev = earr[:, 0], earr[:, 1]
        cl = np.asarray(self.sc.cluster, dtype=np.int64) if n else (
            np.zeros(0, dtype=np.int64)
        )
        bv = np.concatenate([eu, ev])
        bc = cl[np.concatenate([ev, eu])] if n else bv
        bm = np.concatenate([ev, eu])
        order = np.lexsort((bm, bc, bv))
        v_s, c_s, m_s = bv[order], bc[order], bm[order]
        self._members = (v_s, c_s, m_s)
        self._cl0 = cl
        self._owners: list[_Owner | None] = [None] * n

        # chosen representative neighbor per eligible bucket: the minimum
        # member, i.e. the head of every (v, c) run with c != CLUSTER(v)
        head = np.ones(len(v_s), dtype=bool)
        head[1:] = (v_s[1:] != v_s[:-1]) | (c_s[1:] != c_s[:-1])
        head &= c_s != cl[v_s]
        rv, rm = v_s[head], m_s[head]
        # spanner edge refcounts: forest edges (one each) plus the
        # representative edges (normalized; a rep edge may be chosen from
        # both sides, hence the multiset count)
        from collections import Counter

        counts = Counter(self.sc.tree_edges())
        counts.update(
            zip(
                np.minimum(rv, rm).tolist(),
                np.maximum(rv, rm).tolist(),
            )
        )
        self._span: dict[Edge, int] = dict(counts)
        # sequential composition of the per-rep hash charges: one per
        # bucket that assigned a representative (= every eligible bucket)
        charged = len(rv)
        cost.charge_many(work=charged, depth=charged)

    # -- per-owner mutation state ------------------------------------------

    def _owner(self, v: int) -> _Owner:
        """``v``'s mutation state, built from its slice of the sorted
        member arrays on first touch (exact then: see the module
        docstring)."""
        o = self._owners[v]
        if o is None:
            v_s, c_s, m_s = self._members
            a, b = np.searchsorted(v_s, (v, v + 1)).tolist()
            own = self._cl0[v].item()
            buckets: dict[int, set[int]] = {}
            reps: dict[int, int] = {}
            members = m_s[a:b].tolist()
            for c, u in zip(c_s[a:b].tolist(), members):
                bucket = buckets.get(c)
                if bucket is None:
                    # members ascend within a cluster run: u is its minimum
                    buckets[c] = {u}
                    if c != own:
                        reps[c] = u
                else:
                    bucket.add(u)
            o = self._owners[v] = _Owner(set(members), buckets, reps)
        return o

    # -- bucket / refcount plumbing ----------------------------------------

    def _inc(self, e: Edge, delta: tuple[set, set] | None) -> None:
        cnt = self._span.get(e, 0)
        self._span[e] = cnt + 1
        if cnt == 0 and delta is not None:
            ins, dels = delta
            if e in dels:
                dels.remove(e)
            else:
                ins.add(e)

    def _dec(self, e: Edge, delta: tuple[set, set] | None) -> None:
        cnt = self._span[e]
        if cnt == 1:
            del self._span[e]
            if delta is not None:
                ins, dels = delta
                if e in ins:
                    ins.remove(e)
                else:
                    dels.add(e)
        else:
            self._span[e] = cnt - 1

    def _refresh(self, key: tuple[int, int], delta) -> int:
        """Reconcile one bucket's representative with its contents and
        eligibility (c != CLUSTER(v)).

        Returns the number of hash-op charges incurred (1 when a new
        representative was assigned, else 0) so call sites can charge a
        whole refresh round in one aggregate call.
        """
        v, c = key
        o = self._owner(v)
        bucket = o.buckets.get(c)
        eligible = bool(bucket) and c != self.sc.cluster_of(v)
        cur = o.reps.get(c)
        if not eligible:
            if cur is not None:
                del o.reps[c]
                self._dec(norm_edge(v, cur), delta)
            if not bucket and c in o.buckets:
                del o.buckets[c]
            return 0
        if cur is not None and cur in bucket:
            return 0
        new = min(bucket)
        o.reps[c] = new
        if cur is not None:
            self._dec(norm_edge(v, cur), delta)
        self._inc(norm_edge(v, new), delta)
        return 1

    # -- queries ---------------------------------------------------------------

    def spanner_edges(self) -> set[Edge]:
        """The maintained (2k−1)-spanner."""
        return set(self._span)

    def spanner_size(self) -> int:
        """Number of edges in the maintained spanner."""
        return len(self._span)

    def cluster_of(self, v: int) -> int:
        """Current cluster (center vertex) of ``v``."""
        return self.sc.cluster_of(v)

    # -- updates ---------------------------------------------------------------

    def batch_delete(self, edges) -> tuple[set[Edge], set[Edge]]:
        """Delete a batch of edges; returns the net ``(δH_ins, δH_del)``."""
        edges = [norm_edge(u, v) for u, v in edges]
        # The whole batch is checked before anything changes: an absent or
        # out-of-range edge, or one repeated within the batch, leaves the
        # structure intact.
        n, owner = self.n, self._owner
        seen: set[Edge] = set()
        for e in edges:
            u, v = e
            if e in seen or not (0 <= u and v < n) or v not in owner(u).adj:
                raise KeyError(f"edge {e} not present")
            seen.add(e)
        ins: set[Edge] = set()
        dels: set[Edge] = set()
        delta = (ins, dels)
        touched: set[tuple[int, int]] = set()

        # 1. remove edges from adjacency and buckets (pre-cascade clusters).
        # One parallel round: every branch does the same 2 hash ops, so the
        # region's (sum-work, max-depth) total is charged in one call.
        cluster = self.sc.cluster
        for u, v in edges:
            ou, ov = owner(u), owner(v)
            ou.adj.remove(v)
            ov.adj.remove(u)
            cu, cv = cluster[u], cluster[v]
            ou.buckets[cv].remove(v)
            ov.buckets[cu].remove(u)
            touched.add((u, cv))
            touched.add((v, cu))
        self._cost.pfor_cost(len(edges), 2, depth=1)

        # 2. clustering/ES update
        tree_changes, cluster_changes = self.sc.batch_delete(edges)

        # 3. intra-cluster forest delta
        for ch in tree_changes:
            if ch.old is not None:
                self._dec(ch.old, delta)
            if ch.new is not None:
                self._inc(ch.new, delta)

        # 4. bucket moves for every cluster change.  Events are applied in
        # order (a vertex may change cluster more than once per batch) but
        # charged as one parallel round per change over its neighborhood,
        # with the changes themselves also grouped in parallel — matching
        # the paper's per-cascade-wave accounting.  All branches charge the
        # same 2 hash ops, so the nested regions' total (work = 2 * sum of
        # neighborhood sizes, depth = max over branches = 1) collapses to a
        # single aggregate charge.
        moved = 0
        for ch in cluster_changes:
            v, oldc, newc = ch.vertex, ch.old_cluster, ch.new_cluster
            for u in sorted(owner(v).adj):
                buckets = owner(u).buckets
                buckets[oldc].remove(v)
                buckets.setdefault(newc, set()).add(v)
                touched.add((u, oldc))
                touched.add((u, newc))
                moved += 1
            # v's own buckets flip eligibility
            touched.add((v, oldc))
            touched.add((v, newc))
        self._cost.pfor_cost(moved, 2, depth=1)

        # 5. refresh every touched bucket — one parallel round; only the
        # refreshes that assigned a new representative charge a hash op.
        refreshed = 0
        for key in sorted(touched):
            refreshed += self._refresh(key, delta)
        self._cost.pfor_cost(refreshed, 1, depth=1)

        return ins, dels

    # -- invariant check (used by tests) ----------------------------------------

    def check_invariants(self) -> None:
        """Verify bucket/representative/refcount consistency (O(n + m));
        builds every owner."""
        cluster = self.sc.cluster
        want_counts: dict[Edge, int] = {}
        for e in self.sc.tree_edges():
            want_counts[e] = want_counts.get(e, 0) + 1
        for v in range(self.n):
            o = self._owner(v)
            # buckets partition the adjacency by neighbor cluster
            want: dict[int, set[int]] = {}
            for u in o.adj:
                want.setdefault(cluster[u], set()).add(u)
            got = {c: s for c, s in o.buckets.items() if s}
            assert got == want, f"bucket contents of {v} diverged"
            # representatives: exactly the eligible buckets, member of bucket
            assert o.reps.keys() == want.keys() - {cluster[v]}, (
                f"representatives of {v} diverged"
            )
            for c, u in o.reps.items():
                assert u in want[c], f"rep of {(v, c)} not in its bucket"
                e = norm_edge(v, u)
                want_counts[e] = want_counts.get(e, 0) + 1
        # refcounts = forest + representative multiset
        assert want_counts == self._span, "refcounts diverged"
