"""Decremental O(log n)-spanner with monotonicity (Lemma 6.4).

Algorithm 8: run ``Θ(log n)`` independent copies of the [MPX13]
exponential-shift clustering with a *constant* rate ``β`` (chosen so an
edge is cut by one clustering with probability at most 1/2) and keep only
the cluster forests.  For every edge, w.h.p. some copy keeps both endpoints
in one cluster, whose tree provides an O(log n)-hop detour — so the union
of forests is an O(log n)-spanner with O(n log n) edges.

Unlike Lemma 3.3 there are no inter-cluster edges (and no cluster index is
needed beyond what the priority tags already maintain), which is what gives
the *monotonicity* property: the total churn ``Σ|δH|`` over a full deletion
run is Õ(n), independent of m — the property Theorem 1.5's bundles rely on.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.graph.dynamic_graph import Edge, norm_edge
from repro.pram.cost import NULL_COST_MODEL, CostModel
from repro.spanner.shift_clustering import ShiftedClustering, sample_shifts

__all__ = ["MonotoneDecrementalSpanner"]


class MonotoneDecrementalSpanner:
    """Lemma 6.4 structure: union of per-instance cluster forests.

    Parameters
    ----------
    beta:
        Exponential-shift rate; the per-instance edge-cut probability is
        about ``1 - e^{-beta}`` (≈ 0.22 at the default 0.25).
    instances:
        Number of independent clusterings (default ``2 ceil(log2 n) + 2``).
    cap:
        Shift cap (Las Vegas resample bound); default ``2 ln(10 n) / beta``
        = O(log n), which also bounds every cluster radius.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        seed: int | None = None,
        beta: float = 0.25,
        instances: int | None = None,
        cap: float | None = None,
        cost: CostModel = NULL_COST_MODEL,
    ) -> None:
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.n = n
        self.beta = beta
        self._cost = cost
        edges = [norm_edge(u, v) for u, v in edges]
        if instances is None:
            instances = 2 * math.ceil(math.log2(max(n, 2))) + 2
        if cap is None:
            cap = 2.0 * math.log(10 * max(n, 2)) / beta
        self.cap = cap
        rng = np.random.default_rng(seed)
        self._graph: set[Edge] = set(edges)
        self._instances: list[ShiftedClustering] = []
        for _ in range(max(1, instances)):
            deltas = sample_shifts(n, beta=beta, cap=cap, rng=rng)
            self._instances.append(
                ShiftedClustering(n, edges, deltas, cost=cost)
            )
        self._span: dict[Edge, int] = {}
        for sc in self._instances:
            for e in sc.tree_edges():
                self._span[e] = self._span.get(e, 0) + 1
        # monotonicity instrumentation
        self.total_recourse = 0

    # -- queries -----------------------------------------------------------

    def output_edges(self) -> set[Edge]:
        """The maintained spanner (union of the instance forests)."""
        return set(self._span)

    spanner_edges = output_edges

    def spanner_size(self) -> int:
        """Number of edges currently in the spanner."""
        return len(self._span)

    def stretch_bound(self) -> float:
        """Within a cluster both endpoints reach the center in at most
        ``cap + 1`` hops (tree depth ≤ shift cap)."""
        return 2.0 * (self.cap + 1)

    def __contains__(self, edge: Edge) -> bool:
        return norm_edge(*edge) in self._graph

    @property
    def m(self) -> int:
        return len(self._graph)

    # -- updates -----------------------------------------------------------------

    def batch_delete(self, edges: Iterable[Edge]) -> tuple[set[Edge], set[Edge]]:
        """Delete a batch from the graph; returns the net ``(ins, dels)``
        of the maintained spanner."""
        edges = [norm_edge(u, v) for u, v in edges]
        for e in edges:
            if e not in self._graph:
                raise KeyError(f"edge {e} not present")
            self._graph.remove(e)
        net: dict[Edge, int] = {}

        def bump(e: Edge, d: int) -> None:
            c = net.get(e, 0) + d
            if c == 0:
                net.pop(e, None)
            else:
                net[e] = c

        with self._cost.parallel() as par:
            for sc in self._instances:
                with par.task():
                    tree_changes, _ = sc.batch_delete(edges)
                    for ch in tree_changes:
                        if ch.old is not None:
                            cnt = self._span[ch.old]
                            if cnt == 1:
                                del self._span[ch.old]
                                bump(ch.old, -1)
                            else:
                                self._span[ch.old] = cnt - 1
                        if ch.new is not None:
                            cnt = self._span.get(ch.new, 0)
                            self._span[ch.new] = cnt + 1
                            if cnt == 0:
                                bump(ch.new, +1)
        ins = {e for e, c in net.items() if c > 0}
        dels = {e for e, c in net.items() if c < 0}
        self.total_recourse += len(ins) + len(dels)
        return ins, dels

    # -- invariants (tests) --------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify forest refcounts against the instances (tests)."""
        want: dict[Edge, int] = {}
        for sc in self._instances:
            forest = sc.tree_edges()
            assert forest <= self._graph
            for e in forest:
                want[e] = want.get(e, 0) + 1
        assert want == self._span, "forest refcounts diverged"
