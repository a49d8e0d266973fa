"""Dynamic undirected-graph store with batch updates.

Vertices are integers ``0..n-1`` (the vertex set is fixed, as in the paper —
updates are edge insertions/deletions only).  Edges are stored normalized as
``(min(u, v), max(u, v))`` tuples.  Duplicate edges are rejected, matching
the paper's standing assumption that the graph stays simple (enforced there
with hash tables).

The served system's id contract lives here too: a vertex id is an ``int``
(a ``bool``, float or str is refused, not coerced) in ``[0, n)`` with
``n <= 2**32``, checked once per entry point (:func:`check_edge`,
:func:`check_edges`); :func:`pair_keys` / :func:`key_edges` are the one
``u << 32 | v`` codec.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterable, Iterator

import numpy as np

__all__ = ["Edge", "edge_array", "norm_edge", "DynamicGraph", "check_n",
           "check_edge", "check_edges", "pair_keys", "key_edges"]

Edge = tuple[int, int]

_ID_END = 1 << 32       # ids are u32: the WAL's and the pair keys' range


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an undirected edge to ``(min, max)`` form."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v})")
    return (u, v) if u < v else (v, u)


def edge_array(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array, pairs as given: one
    ``np.fromiter`` pass over the ids, about twice as fast as
    ``np.asarray`` over the tuples (an array is reshaped as it is)."""
    if isinstance(edges, np.ndarray):
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    edges = edges if isinstance(edges, Collection) else list(edges)
    ids = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    if ids.size != 2 * len(edges):
        raise ValueError("edges must be (u, v) pairs")
    return ids.reshape(-1, 2)


def check_n(n) -> int:
    """``n`` if it is a vertex count: an ``int`` in ``[0, 2**32]``."""
    if type(n) is not int or not 0 <= n <= _ID_END:
        raise ValueError(f"n must be an integer in [0, 2**32], not {n!r}")
    return n


def check_edge(u, v, n: int) -> None:
    """ValueError unless ``u`` and ``v`` are both vertex ids of ``[0, n)``
    (see the module docstring): the check of one submitted update."""
    if type(u) is not int or type(v) is not int:
        raise ValueError(f"vertex ids must be integers, not ({u!r}, {v!r})")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) outside [0, {n})")


def check_edges(edges: Collection[Edge], n: int) -> np.ndarray:
    """The ``(m, 2)`` int64 ids of a spec's edge list, after checking
    that each is a vertex id of ``[0, n)``: one Python pass over the ids'
    types, then numpy range checks (ValueError otherwise)."""
    check_n(n)
    types = list(map(type, chain.from_iterable(edges)))
    if types.count(int) != len(types):
        raise ValueError("vertex ids must be integers")
    return _id_array(edges, n)


def _id_array(edges, end: int) -> np.ndarray:
    """:func:`edge_array` of ``edges``, ValueError for an id outside
    ``[0, end)`` (an id past int64 included)."""
    try:
        ids = edge_array(edges)
    except OverflowError:
        ids = None
    if ids is None or ids.size and (ids.min() < 0 or ids.max() >= end):
        raise ValueError(f"vertex ids must lie in [0, {end})")
    return ids


def pair_keys(edges: Collection[Edge] | np.ndarray) -> np.ndarray:
    """Unsorted ``u << 32 | v`` keys of the pairs as given (ValueError for
    an id outside the u32 range)."""
    ids = _id_array(edges, _ID_END)
    keys = ids.astype(np.uint64)
    return keys[:, 0] << np.uint64(32) | keys[:, 1]


def key_edges(keys: np.ndarray) -> list[Edge]:
    """The ``(u, v)`` tuples of ``u << 32 | v`` keys, in key order."""
    return list(zip((keys >> np.uint64(32)).tolist(),
                    (keys & np.uint64(_ID_END - 1)).tolist()))


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
