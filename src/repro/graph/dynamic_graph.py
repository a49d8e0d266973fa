"""Dynamic undirected-graph store with batch updates.

Vertices are integers ``0..n-1`` (the vertex set is fixed, as in the paper —
updates are edge insertions/deletions only).  Edges are stored normalized as
``(min(u, v), max(u, v))`` tuples.  Duplicate edges are rejected, matching
the paper's standing assumption that the graph stays simple (enforced there
with hash tables).
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["Edge", "norm_edge", "DynamicGraph"]

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an undirected edge to ``(min, max)`` form."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")
    return (u, v) if u < v else (v, u)


class DynamicGraph:
    """Simple undirected graph under batch edge updates.

    This is the *reference* store: algorithms keep their own internal
    structures, while tests and oracles consult a ``DynamicGraph`` mirror of
    the current edge set.
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n
        self._edges: set[Edge] = set()
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self.insert_batch(edges)

    # -- queries -------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        """Edge membership; a self-loop is never an edge (no raise)."""
        u, v = edge
        return u != v and norm_edge(u, v) in self._edges

    def edges(self) -> Iterator[Edge]:
        """Iterate the current (normalized) edges."""
        return iter(self._edges)

    def edge_set(self) -> set[Edge]:
        """Copy of the current edge set."""
        return set(self._edges)

    def neighbors(self, v: int) -> set[int]:
        """The (live) neighbor set of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Current degree of ``v``."""
        return len(self._adj[v])

    # -- batch updates ---------------------------------------------------------

    def insert_batch(self, edges: Iterable[Edge]) -> list[Edge]:
        """Insert a batch; returns the normalized edges actually added.

        Raises on duplicates *within* the batch or against current edges —
        update streams produced by :mod:`repro.workloads` are duplicate-free,
        and surfacing violations early catches harness bugs.
        """
        added: list[Edge] = []
        batch: set[Edge] = set()
        n = self.n
        cur = self._edges
        for u, v in edges:
            e = norm_edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                self._check_vertex(e[0])
                self._check_vertex(e[1])
            if e in cur or e in batch:
                raise ValueError(f"duplicate edge {e}")
            batch.add(e)
            added.append(e)
        # validated up front, so membership applies as one set union and
        # the batch is all-or-nothing
        cur |= batch
        adj = self._adj
        for a, b in added:
            adj[a].add(b)
            adj[b].add(a)
        return added

    def delete_batch(self, edges: Iterable[Edge]) -> list[Edge]:
        """Delete a batch; returns the normalized edges removed."""
        removed: list[Edge] = []
        batch: set[Edge] = set()
        cur = self._edges
        for u, v in edges:
            e = norm_edge(u, v)
            if e not in cur or e in batch:
                raise KeyError(f"edge {e} not present")
            batch.add(e)
            removed.append(e)
        cur -= batch
        adj = self._adj
        for a, b in removed:
            adj[a].discard(b)
            adj[b].discard(a)
        return removed

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside [0, {self.n})")

    # -- conversions -----------------------------------------------------------

    def copy(self) -> "DynamicGraph":
        """Independent copy of the graph."""
        return DynamicGraph(self.n, self._edges)

    def to_networkx(self):
        """Export to :mod:`networkx` for oracle cross-checks."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self._edges)
        return g
