"""Exponential start-time clustering, maintained under deletion batches.

This is the engine of Section 3.3: the clustering of [MPVX15]/[EN18b] is
reduced to a shortest-path tree in the *augmented* digraph G′

* vertices ``0..n-1`` are the original graph, ``n..n+t-1`` are the path
  vertices ``p_0..p_{t-1}`` (``p_i`` has id ``n + i``),
* every undirected edge contributes both directions,
* ``p_i -> p_{i+1}`` chains the path, and ``p_{t-1-d_v} -> v`` gives vertex
  ``v`` its head start ``d_v = floor(delta_v)``,

so that the parent chain from ``p_0`` encodes ``CLUSTER(v) = argmin_u
(dist(u, v) - delta_u)``, with ties broken toward the largest fractional part
``f_u`` (implemented as the PRIORITY permutation).  Each ``IN(v)`` is ordered
by the *composite priority* ``PRIORITY(CLUSTER(w)) * (n + 1) + tiebreak`` so
the Even–Shiloach scan pointer always rests on the maximum-priority valid
parent.

Under a deletion batch, the ES tree fixes distances/parents first (stale
priorities are fine: the cluster cascade re-examines every edge it re-keys),
then the cluster-change cascade of the paper runs: a vertex that changed
cluster re-keys all its out-edges, each re-keyed target either keeps,
switches, or re-scans its parent, and inherited cluster changes propagate
recursively.

The structure is Las Vegas: with the randomness (``deltas``) fixed, the
maintained ``cluster`` array always equals :func:`static_clusters` of the
remaining graph — which is exactly how the tests verify it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.graph.dynamic_graph import Edge, edge_array, norm_edge
from repro.bfs.es_tree import BatchDynamicESTree
from repro.pram.cost import NULL_COST_MODEL, CostModel

__all__ = [
    "ShiftedClustering",
    "static_clusters",
    "sample_shifts",
    "ClusterChange",
    "TreeEdgeChange",
]


class ClusterChange:
    """Record of one vertex's cluster reassignment."""
    __slots__ = ("vertex", "old_cluster", "new_cluster")

    def __init__(self, vertex: int, old_cluster: int, new_cluster: int):
        self.vertex = vertex
        self.old_cluster = old_cluster
        self.new_cluster = new_cluster

    def __repr__(self) -> str:  # pragma: no cover
        return f"ClusterChange({self.vertex}: {self.old_cluster}->{self.new_cluster})"


class TreeEdgeChange:
    """A change of the *real* (original-graph) parent edge of a vertex.

    ``old``/``new`` are normalized undirected edges or None (None means the
    vertex was/is attached directly to a path vertex, i.e. is a center)."""

    __slots__ = ("vertex", "old", "new")

    def __init__(self, vertex: int, old: Edge | None, new: Edge | None):
        self.vertex = vertex
        self.old = old
        self.new = new

    def __repr__(self) -> str:  # pragma: no cover
        return f"TreeEdgeChange({self.vertex}: {self.old}->{self.new})"


def _edge_array(edges) -> np.ndarray:
    """Normalize an undirected edge collection to an ``(m, 2)`` int64
    array with each row sorted ``(min, max)`` — the vectorized counterpart
    of mapping :func:`norm_edge` over the list (same self-loop error)."""
    arr = edge_array(edges)
    if len(arr):
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            u = int(arr[loops][0, 0])
            raise ValueError(f"self-loop ({u}, {u})")
        arr = np.sort(arr, axis=1)
    return arr


def sample_shifts(
    n: int,
    beta: float,
    cap: float,
    rng: np.random.Generator,
    max_retries: int = 1000,
) -> np.ndarray:
    """Sample ``delta_u ~ Exp(beta)`` i.i.d., resampling the whole vector
    until ``max delta_u < cap`` (the Las Vegas loop of Algorithm 2)."""
    for _ in range(max_retries):
        deltas = rng.exponential(scale=1.0 / beta, size=n)
        if n == 0 or deltas.max() < cap:
            return deltas
    raise RuntimeError(
        f"failed to sample shifts below cap={cap} after {max_retries} tries"
    )


def _priority_ranks(deltas: Sequence[float]) -> list[int]:
    """PRIORITY permutation: rank 1..n by increasing fractional part, so a
    larger fractional part means a larger (better) priority.  (Vectorized;
    ties in the fractional part break by vertex id, exactly as sorting
    ``(frac, v)`` pairs does.)"""
    d = np.asarray(deltas, dtype=np.float64)
    n = len(d)
    order = np.lexsort((np.arange(n), d - np.floor(d)))
    pri = np.empty(n, dtype=np.int64)
    pri[order] = np.arange(1, n + 1)
    return pri.tolist()


def static_clusters(
    n: int,
    edges: Iterable[Edge],
    deltas: Sequence[float],
) -> tuple[list[int], list[int | None], list[int]]:
    """Reference (static) computation of the clustering.

    Returns ``(cluster, parent, dist)`` where ``dist`` is the distance from
    ``p_0`` in G′, ``parent`` the G′-parent restricted to original vertices
    (None when the parent is a path vertex), and ``cluster[v]`` the center
    whose shifted distance ``dist(u, v) - delta_u`` is minimal, ties broken
    by the PRIORITY permutation.  Runs a level-by-level sweep; used as the
    oracle for :class:`ShiftedClustering`.
    """
    if n == 0:
        return [], [], []
    pri = np.asarray(_priority_ranks(deltas), dtype=np.int64)
    darr = np.asarray(deltas, dtype=np.float64)
    d_int = np.floor(darr).astype(np.int64)
    t = int(d_int.max()) + 1

    earr = _edge_array(edges)
    # both directions of every edge, for whole-frontier relaxation
    su = np.concatenate([earr[:, 0], earr[:, 1]])
    sw = np.concatenate([earr[:, 1], earr[:, 0]])

    # dist'(v) in G': BFS by levels, one vectorized wave per level.  Level
    # of p_i is i; vertex v gets a "free" arrival at level t - d_v via its
    # head-start edge.  key(v) = composite priority of v's chosen parent
    # edge, used to pick max-priority parents deterministically; keys are
    # distinct per target (the tiebreak component is the relaxing vertex),
    # so the scalar "first maximum wins" sweep is exactly a grouped max.
    INF = t + 1
    np1 = n + 1
    head_level = t - d_int
    head_key = pri * np1 + n  # composite(v, n)
    dist = np.full(n, INF, dtype=np.int64)
    cluster = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)  # -1 encodes None
    frontier_key = np.full(n, -1, dtype=np.int64)

    for level in range(t + 1):
        # head-start arrivals at this level (each v arrives exactly once)
        hv = np.nonzero(head_level == level)[0]
        if len(hv):
            fresh = dist[hv] > level
            tie = (dist[hv] == level) & (head_key[hv] > frontier_key[hv])
            take = hv[fresh | tie]
            dist[take] = level
            cluster[take] = take
            parent[take] = -1
            frontier_key[take] = head_key[take]
        if level == t:
            break
        # relax all edges out of the level-``level`` frontier at once
        from_mask = dist[su] == level
        cu, cw = su[from_mask], sw[from_mask]
        open_mask = dist[cw] >= level + 1
        cu, cw = cu[open_mask], cw[open_mask]
        if len(cw) == 0:
            continue
        keys = pri[cluster[cu]] * np1 + cu
        order = np.lexsort((keys, cw))
        cu, cw, keys = cu[order], cw[order], keys[order]
        last = np.ones(len(cw), dtype=bool)
        last[:-1] = cw[1:] != cw[:-1]
        gu, gw, gk = cu[last], cw[last], keys[last]
        dist[gw] = level + 1
        cluster[gw] = cluster[gu]
        parent[gw] = gu
        frontier_key[gw] = gk
    par_list: list[int | None] = [
        None if p < 0 else p for p in parent.tolist()
    ]
    return cluster.tolist(), par_list, dist.tolist()


class ShiftedClustering:
    """Decremental exponential-shift clustering (Section 3.3 machinery)."""

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        deltas: Sequence[float],
        cost: CostModel = NULL_COST_MODEL,
        cascade_cap: int | None = None,
    ) -> None:
        self.n = n
        self._cost = cost
        earr0 = _edge_array(edges)
        if len(earr0):
            enc = earr0[:, 0] * n + earr0[:, 1]
            if len(np.unique(enc)) != len(enc):
                raise ValueError("duplicate undirected edges")
        self.pri = _priority_ranks(deltas)
        d_arr = np.floor(
            np.asarray(deltas, dtype=np.float64)
        ).astype(np.int64)
        self.d_int = d_arr.tolist()
        self.t = (int(d_arr.max()) + 1) if n else 1
        self._cascade_cap = cascade_cap

        # --- build G' --------------------------------------------------
        # ids: 0..n-1 originals, n+i = p_i.
        n_aug = n + self.t
        self._path0 = n  # p_0
        # Universe for composite priorities: pri in [1, n], tiebreak in
        # [0, n] -> composite <= n*(n+1)+n.
        self._universe = n * (n + 1) + n + 2 if n else 4

        # Clusters must be known before edge priorities can be assigned;
        # compute them statically first (level sweep), then build the ES
        # tree with the final composite priorities.  The ES tree's own
        # parent selection reproduces the same clusters (asserted below).
        cluster0, _, _ = static_clusters(n, earr0, deltas)

        # G' as flat arrays: both directions of every original edge, the
        # path chain, and one head-start edge per vertex, with composite
        # priorities computed as whole-array gathers.  The array-native ES
        # constructor is charge-identical to the scalar one over the same
        # edge multiset (order within the arrays is immaterial: per-vertex
        # IN arrays sort by priority and the init charges are closed-form).
        t = self.t
        eu, ev = earr0[:, 0], earr0[:, 1]
        pri_arr = np.asarray(self.pri, dtype=np.int64)
        cl0 = np.asarray(cluster0, dtype=np.int64)
        d_arr = np.asarray(self.d_int, dtype=np.int64)
        chain = np.arange(t - 1, dtype=np.int64)
        vids = np.arange(n, dtype=np.int64)
        src = np.concatenate([eu, ev, n + chain, n + (t - 1) - d_arr])
        dst = np.concatenate([ev, eu, n + chain + 1, vids])
        np1 = n + 1
        pri = np.concatenate([
            pri_arr[cl0[eu]] * np1 + eu,
            pri_arr[cl0[ev]] * np1 + ev,
            np.ones(t - 1, dtype=np.int64),
            pri_arr * np1 + n,
        ])
        self.es = BatchDynamicESTree.from_arrays(
            n_aug,
            src,
            dst,
            pri,
            source=self._path0,
            limit=t,
            universe=self._universe,
            cost=cost,
        )
        # Derive clusters from the tree parents (level by level, so a
        # parent's cluster is settled before its children read it); must
        # agree with the sweep.
        par_n = self.es.parent[:n]
        assert None not in par_n, "original vertex unreachable in G'"
        par_arr = np.asarray(par_n, dtype=np.int64)
        dist_n = np.asarray(self.es.dist[:n], dtype=np.int64)
        cl_arr = np.full(n, -1, dtype=np.int64)
        centers = par_arr >= n
        cl_arr[centers] = np.nonzero(centers)[0]
        for level in range(1, t + 1):
            vs = np.nonzero(~centers & (dist_n == level))[0]
            if len(vs):
                cl_arr[vs] = cl_arr[par_arr[vs]]
        self.cluster: list[int] = cl_arr.tolist()
        assert self.cluster == cluster0, "ES-tree clusters diverge from sweep"
        #: instrumentation: total cluster reassignments over the lifetime
        #: (Lemma 3.6 bounds the per-vertex expectation by 2 t log n)
        self.total_cluster_changes = 0

    # -- helpers ------------------------------------------------------------

    def _composite(self, center: int, tiebreak: int) -> int:
        return self.pri[center] * (self.n + 1) + tiebreak

    def _real_parent_edge(self, v: int) -> Edge | None:
        p = self.es.parent_of(v)
        if p is None or p >= self.n:
            return None
        return norm_edge(p, v)

    # -- queries --------------------------------------------------------------

    def cluster_of(self, v: int) -> int:
        """Current cluster (center) of ``v``."""
        return self.cluster[v]

    def clusters(self) -> list[int]:
        """Copy of the full cluster array."""
        return list(self.cluster)

    def tree_edges(self) -> set[Edge]:
        """Intra-cluster forest edges (original-graph edges only)."""
        out: set[Edge] = set()
        for v in range(self.n):
            e = self._real_parent_edge(v)
            if e is not None:
                out.add(e)
        return out

    def is_alive(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` survives in G′."""
        return self.es.is_alive(u, v)

    # -- deletion batch --------------------------------------------------------

    def batch_delete(
        self, edges: Iterable[Edge]
    ) -> tuple[list[TreeEdgeChange], list[ClusterChange]]:
        """Delete undirected edges; returns tree-edge and cluster changes in
        chronological order."""
        edges = [norm_edge(u, v) for u, v in edges]
        tree_changes: list[TreeEdgeChange] = []
        cluster_changes: list[ClusterChange] = []

        dir_batch: list[tuple[int, int]] = []
        for u, v in edges:
            dir_batch.append((u, v))
            dir_batch.append((v, u))

        parent_events = self.es.batch_delete(dir_batch)

        queue: deque[int] = deque()
        queued: set[int] = set()

        # Every vertex settles at most once per ES batch, so each event's
        # old_parent is the pre-batch parent and the live parent is the
        # settle-time parent.
        for ev in parent_events:
            v = ev.vertex
            if v >= self.n:
                continue
            before = (
                None
                if ev.old_parent is None or ev.old_parent >= self.n
                else norm_edge(ev.old_parent, v)
            )
            after = self._real_parent_edge(v)
            if after != before:
                tree_changes.append(TreeEdgeChange(v, before, after))
            if v not in queued:
                queue.append(v)
                queued.add(v)

        # --- cluster cascade, processed in BFS waves -------------------------
        # Each wave handles all currently-queued vertices "in parallel"
        # (sum of work, max of depth), so the charged depth scales with the
        # propagation distance — the paper's O(k log^2 n) — rather than the
        # number of affected vertices.
        steps = 0
        cap = self._cascade_cap or (
            100 * (self.n + 1) * (self.t + 1) + 100
        )
        while queue:
            wave = list(queue)
            queue.clear()
            queued.clear()
            steps += len(wave)
            if steps > cap:
                raise RuntimeError("cluster cascade failed to terminate")
            with self._cost.parallel() as par:
                for v in wave:
                    p = self.es.parent_of(v)
                    assert p is not None, f"vertex {v} unreachable in G'"
                    newc = v if p >= self.n else self.cluster[p]
                    if newc == self.cluster[v]:
                        continue
                    oldc = self.cluster[v]
                    self.cluster[v] = newc
                    cluster_changes.append(ClusterChange(v, oldc, newc))
                    with par.task():
                        # Re-key all out-edges of v and re-examine each
                        # target's parent (nested parallel loop).  The new
                        # composite priority depends only on v, so hoist it
                        # and skip the branches whose edge already carries
                        # it — those were charge-free no-ops inside the
                        # region, so eliding their task frames leaves the
                        # (sum-work, max-depth) total unchanged.
                        new_pri = self._composite(newc, v)
                        edge_pri = self.es.edge_pri
                        # Each branch re-keys a distinct (v, w) edge, so
                        # the skip test commutes with the rekeys and the
                        # loop routes through the backend seam as a map
                        # (inline under any backend: _rekey_edge mutates
                        # the shared ES tree).
                        ws = [
                            w for w in sorted(self.es.out_adj[v])
                            if w < self.n and edge_pri[(v, w)] != new_pri
                        ]
                        with self._cost.parallel() as inner:
                            inner.map(
                                ws,
                                lambda w: self._rekey_edge(
                                    v, w, new_pri, queue, queued,
                                    tree_changes,
                                ),
                            )
        self.total_cluster_changes += len(cluster_changes)
        return tree_changes, cluster_changes

    def _rekey_edge(
        self,
        v: int,
        w: int,
        new_pri: int,
        queue: deque[int],
        queued: set[int],
        tree_changes: list[TreeEdgeChange],
    ) -> None:
        """Update the priority of the edge ``v -> w`` to ``new_pri`` after
        ``v`` moved clusters, switching ``w``'s parent when the
        maximum-priority rule demands it (the paper's single-NextWith
        detection).  The caller guarantees ``new_pri`` differs from the
        edge's current priority."""
        es = self.es
        old_pri = es.edge_pri[(v, w)]
        before = self._real_parent_edge(w)
        if es.parent_of(w) == v:
            es.update_edge_priority(v, w, new_pri)
            if new_pri < old_pri:
                # Parent demoted: one rescan from the old slot finds the
                # best candidate among v and anything that overtook it.
                cand = es.find_parent_candidate(w)
                assert cand is not None
                es.set_parent(w, cand)
        else:
            es.update_edge_priority(v, w, new_pri)
            cur = es.parent_edge_priority(w)
            if (
                cur is not None
                and new_pri > cur
                and es.is_alive(v, w)
                and es.dist_of(v) == es.dist_of(w) - 1
            ):
                es.set_parent(w, v)
        after = self._real_parent_edge(w)
        if after != before:
            tree_changes.append(TreeEdgeChange(w, before, after))
        # Whether or not the parent identity changed, w's inherited cluster
        # may have: re-evaluate w.
        p = es.parent_of(w)
        inherited = w if (p is None or p >= self.n) else self.cluster[p]
        if inherited != self.cluster[w] and w not in queued:
            queue.append(w)
            queued.add(w)
