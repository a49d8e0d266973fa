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

        # Array-native initialization.  The per-edge bucket fills and the
        # initial representative sweep are grouped array reductions; the
        # dict-of-sets mutation state (``_adj``/``_inter``) materializes
        # lazily on the first deletion batch (or invariant check), so
        # instances that are merged away untouched never build it.
        eu, ev = earr[:, 0], earr[:, 1]
        cl = np.asarray(self.sc.cluster, dtype=np.int64) if n else (
            np.zeros(0, dtype=np.int64)
        )
        # bucket memberships: (owner v, cluster c of member, member u)
        bv = np.concatenate([eu, ev])
        bc = cl[np.concatenate([ev, eu])] if n else bv
        bm = np.concatenate([ev, eu])
        self._tables = None  # lazy (_adj, _inter); see _materialize_tables
        self._members = (bv, bc, bm)

        # chosen representative neighbor per eligible bucket: the minimum
        # member of every (v, c) group with c != CLUSTER(v)
        elig = bc != cl[bv] if len(bv) else bv.astype(bool)
        v_e, c_e, m_e = bv[elig], bc[elig], bm[elig]
        order = np.lexsort((m_e, c_e, v_e))
        v_s, c_s, m_s = v_e[order], c_e[order], m_e[order]
        if len(v_s):
            head = np.ones(len(v_s), dtype=bool)
            head[1:] = (v_s[1:] != v_s[:-1]) | (c_s[1:] != c_s[:-1])
            idx = np.nonzero(head)[0]
            rv, rc, rm = v_s[idx], c_s[idx], m_s[idx]
        else:
            rv = rc = rm = v_s
        self._rep: dict[tuple[int, int], int] = dict(
            zip(zip(rv.tolist(), rc.tolist()), rm.tolist())
        )
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

    # -- lazy mutation tables ----------------------------------------------

    def _materialize_tables(self) -> None:
        """Build ``_adj`` (adjacency sets) and ``_inter`` (bucket sets)
        from the initial edge arrays.  Clusters cannot have changed before
        the first mutation reaches these tables — every cluster change
        flows through :meth:`batch_delete`, which touches them first."""
        bv, bc, bm = self._members
        order = np.lexsort((bm, bc, bv))
        v_s, c_s, m_s = bv[order], bc[order], bm[order]
        members = m_s.tolist()
        adj: list[set[int]] = [set() for _ in range(self.n)]
        inter: dict[tuple[int, int], set[int]] = {}
        if len(v_s):
            head = np.ones(len(v_s), dtype=bool)
            head[1:] = (v_s[1:] != v_s[:-1]) | (c_s[1:] != c_s[:-1])
            starts = np.nonzero(head)[0].tolist()
            bounds = starts + [len(members)]
            keys = list(zip(v_s[head].tolist(), c_s[head].tolist()))
            for i, key in enumerate(keys):
                inter[key] = set(members[bounds[i]:bounds[i + 1]])
            # per-owner adjacency: each neighbor appears in exactly one of
            # v's buckets, so v's whole slice is already duplicate-free
            vhead = np.ones(len(v_s), dtype=bool)
            vhead[1:] = v_s[1:] != v_s[:-1]
            vstarts = np.nonzero(vhead)[0].tolist()
            vbounds = vstarts + [len(members)]
            for j, v in enumerate(v_s[vhead].tolist()):
                adj[v] = set(members[vbounds[j]:vbounds[j + 1]])
        self._tables = (adj, inter)

    @property
    def _adj(self) -> list[set[int]]:
        if self._tables is None:
            self._materialize_tables()
        return self._tables[0]

    @property
    def _inter(self) -> dict[tuple[int, int], set[int]]:
        if self._tables is None:
            self._materialize_tables()
        return self._tables[1]

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
        bucket = self._inter.get(key)
        eligible = bool(bucket) and c != self.sc.cluster_of(v)
        cur = self._rep.get(key)
        if not eligible:
            if cur is not None:
                del self._rep[key]
                self._dec(norm_edge(v, cur), delta)
            if not bucket and key in self._inter:
                del self._inter[key]
            return 0
        if cur is not None and cur in bucket:
            return 0
        new = min(bucket)
        self._rep[key] = new
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
        ins: set[Edge] = set()
        dels: set[Edge] = set()
        delta = (ins, dels)
        touched: set[tuple[int, int]] = set()

        # 1. remove edges from adjacency and buckets (pre-cascade clusters).
        # One parallel round: every branch does the same 2 hash ops, so the
        # region's (sum-work, max-depth) total is charged in one call.
        adj = self._adj
        inter = self._inter
        cluster = self.sc.cluster
        for u, v in edges:
            if v not in adj[u]:
                raise KeyError(f"edge {(u, v)} not present")
            adj[u].remove(v)
            adj[v].remove(u)
            cu, cv = cluster[u], cluster[v]
            inter.setdefault((u, cv), set()).discard(v)
            inter.setdefault((v, cu), set()).discard(u)
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
            for u in sorted(adj[v]):
                inter.setdefault((u, oldc), set()).discard(v)
                inter.setdefault((u, newc), set()).add(v)
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
        """Verify bucket/representative/refcount consistency (O(n + m))."""
        # buckets partition the adjacency by neighbor cluster
        want: dict[tuple[int, int], set[int]] = {}
        for v in range(self.n):
            for u in self._adj[v]:
                want.setdefault((v, self.sc.cluster_of(u)), set()).add(u)
        got = {k: s for k, s in self._inter.items() if s}
        assert got == want, "bucket contents diverged"
        # representatives: exactly the eligible buckets, member of bucket
        for key, s in want.items():
            v, c = key
            if c != self.sc.cluster_of(v):
                assert key in self._rep, f"missing rep for {key}"
                assert self._rep[key] in s
            else:
                assert key not in self._rep
        assert set(self._rep) <= set(want)
        # refcounts = forest + representative multiset
        want_counts: dict[Edge, int] = {}
        for e in self.sc.tree_edges():
            want_counts[e] = want_counts.get(e, 0) + 1
        for (v, _c), u in self._rep.items():
            e = norm_edge(v, u)
            want_counts[e] = want_counts.get(e, 0) + 1
        assert want_counts == self._span, "refcounts diverged"
