"""Plain sequential graph traversals used by oracles and static baselines.

When the adjacency is an array substrate (see
:class:`repro.graph.array_graph.ArrayDynamicGraph`), the traversals switch
to vectorized whole-frontier expansion: one numpy gather per level instead
of per-edge Python iteration.  Full sweeps read the compacted ``csr()``
view; target-pruned point-to-point sweeps run a level-synchronous
*bidirectional* search straight over the live arena segments
(``segments()``), so a read between two mutations never pays a CSR
rebuild.  Results are identical.  Dict-of-sets and list adjacencies keep
the scalar one-sided loop, which the query oracle uses as its reference.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from repro.graph.dynamic_graph import Edge

__all__ = [
    "adjacency_from_edges",
    "bfs_distances",
    "bfs_distances_bounded",
    "connected_components",
]


def _csr_view(adj):
    """``(indptr, indices)`` when ``adj`` is an array substrate, else None."""
    csr = getattr(adj, "csr", None)
    return csr() if callable(csr) else None


def adjacency_from_edges(
    n: int, edges: Iterable[Edge]
) -> list[list[int]]:
    """Adjacency lists (both directions) from an undirected edge list."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _neighbor_lookup(adj):
    """Neighbor accessor tolerant of vertices absent from a dict adjacency.

    Snapshot adjacencies (``repro.service.engine``, ``repro.queries``) are
    dicts keyed only by vertices that currently have edges, so a query
    touching an isolated vertex must read as "no neighbors" — not
    ``KeyError`` in one traversal mode and a full sweep in the other.
    """
    if isinstance(adj, Mapping):
        return lambda u: adj.get(u, ())
    if hasattr(adj, "neighbors_array"):
        # array substrate: same isolated-vertex tolerance as the dict
        # snapshot (out-of-range reads as "no neighbors", not IndexError).
        # tolist() yields plain ints — iterating the numpy slice itself
        # would create an np.int32 per step, whose dict hashing dominates
        # scalar BFS wall time
        arr, nn = adj.neighbors_array, len(adj)
        return lambda u: arr(u).tolist() if 0 <= u < nn else ()
    return lambda u: adj[u]


def bfs_distances(
    adj: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    source: int,
    n: int | None = None,
    target: int | None = None,
) -> dict[int, int]:
    """Unweighted single-source distances; unreachable vertices absent.

    With ``target`` set the search stops as soon as the target settles,
    so point-to-point queries on large snapshots do not pay for a full
    sweep; the returned dict is then only guaranteed correct at
    ``target``.  On an array substrate that search is bidirectional (see
    :func:`_bfs_bidirectional`): it grows whichever side's frontier has
    the smaller degree sum and stops at the first level the two sides
    meet, so an unreachable target costs only the smaller side's
    component.  Elsewhere it is a one-sided scalar BFS that stops when
    the target is first discovered.

    Edge cases hold identically in pruned and unpruned mode (both are on
    the serving engine's ``distance``/``connected`` path): ``source ==
    target`` settles at 0 without touching the graph, a ``source`` absent
    from a dict adjacency or outside an array substrate's ``[0, n)`` has
    no neighbors (``{source: 0}``), and a disconnected or out-of-range
    ``target`` is simply absent from the result.
    """
    if target is None:
        csr = _csr_view(adj)
        if csr is not None:
            return _bfs_csr(csr, source, None)
    elif target != source and hasattr(adj, "segments"):
        d = _bfs_bidirectional(adj.segments(), source, target)
        return {source: 0} if d is None else {source: 0, target: d}
    neighbors = _neighbor_lookup(adj)
    dist = {source: 0}
    if target == source:
        return dist
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in neighbors(u):
            if w not in dist:
                dist[w] = du + 1
                if w == target:
                    return dist
                queue.append(w)
    return dist


def bfs_distances_bounded(
    adj: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    source: int,
    limit: int,
) -> dict[int, int]:
    """Distances up to ``limit``; vertices farther than ``limit`` absent.

    Shares :func:`bfs_distances`'s edge-case contract: a source absent
    from a dict adjacency yields ``{source: 0}`` and a non-positive
    ``limit`` never expands the frontier.
    """
    if limit > 0:
        csr = _csr_view(adj)
        if csr is not None:
            return _bfs_csr(csr, source, limit)
    neighbors = _neighbor_lookup(adj)
    dist = {source: 0}
    if limit <= 0:
        return dist
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == limit:
            continue
        for w in neighbors(u):
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def _bfs_csr(
    csr, source: int, limit: int | None
) -> dict[int, int]:
    """Vectorized level-synchronous BFS over a ``(indptr, indices)`` view.

    Whole-frontier expansion: each level is one gather of every frontier
    vertex's neighbor slice plus one dedup, no per-edge Python.  Returns
    the same ``{vertex: distance}`` dict as the scalar sweep.
    """
    import numpy as np

    indptr, indices = csr
    n = len(indptr) - 1
    if not 0 <= source < n:
        return {source: 0}
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier) and (limit is None or level < limit):
        level += 1
        starts = indptr[frontier]
        nbrs = _gather_neighbors(
            indices, starts, indptr[frontier + 1] - starts
        )
        new = nbrs[dist[nbrs] < 0]
        if len(new) == 0:
            break
        new = np.unique(new).astype(np.int64)
        dist[new] = level
        frontier = new
    reached = np.nonzero(dist >= 0)[0]
    return dict(zip(reached.tolist(), dist[reached].tolist()))


def _bfs_bidirectional(segments, source: int, target: int) -> int | None:
    """Hop distance ``source`` → ``target`` (``source != target``) over
    an arena, or None when unreachable or out of range.

    ``segments`` is ``(start, deg, arena)``: vertex ``v``'s neighbors are
    ``arena[start[v]:start[v] + deg[v]]``.  Level-synchronous from both
    ends: each round grows the side whose frontier has the smaller degree
    sum by one whole level (one gather), and the first round whose new
    neighbors touch the other side's ball settles the distance.  The two
    balls are disjoint before that round, so the distance exceeds the sum
    of their radii; a touch makes it exactly that sum plus one.  A side
    whose level adds nothing has closed off its component: unreachable.
    """
    import numpy as np

    start, deg, arena = segments
    n = len(deg)
    # range check before any indexing: a negative id would wrap
    if not (0 <= source < n and 0 <= target < n):
        return None
    # side[v]: 0 unseen, 1 in the source's ball, 2 in the target's (an
    # O(n) memset per read: ~1 µs at n = 1024, ~25 µs at n = 10^6)
    side = np.zeros(n, dtype=np.int8)
    side[source] = 1
    side[target] = 2
    roots = (source, target)
    # per side: frontier vertices (None while it is the lone root) and
    # the frontier's degree sum
    frontier = [None, None]
    work = [int(deg[source]), int(deg[target])]
    radii = 0  # sum of the two balls' radii
    while True:
        s = 0 if work[0] <= work[1] else 1
        if work[s] == 0:
            return None
        f = frontier[s]
        if f is None:
            first = int(start[roots[s]])
            nbrs = arena[first:first + work[s]]
        else:
            nbrs = _gather_neighbors(arena, start[f], deg[f])
        seen = side[nbrs]
        if np.count_nonzero(seen == 2 - s):
            return radii + 1
        if f is None:
            # no hit: a lone root's neighbors are all unseen and distinct
            new = nbrs
        else:
            new = np.unique(nbrs[seen == 0])
            if len(new) == 0:
                return None
        side[new] = s + 1
        radii += 1
        frontier[s] = new
        work[s] = int(deg[new].sum())


def _gather_neighbors(arena, starts, counts):
    """Concatenated slices ``arena[starts[i]:starts[i] + counts[i]]``
    (one vectorized gather; a CSR frontier passes ``indptr[f]`` and
    ``indptr[f + 1] - indptr[f]``)."""
    import numpy as np

    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=arena.dtype)
    firsts = np.cumsum(counts) - counts
    offs = np.arange(total, dtype=np.int64) - np.repeat(firsts, counts)
    return arena[np.repeat(starts, counts) + offs]


def connected_components(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """Connected components as sorted vertex lists."""
    adj = adjacency_from_edges(n, edges)
    seen = [False] * n
    comps: list[list[int]] = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps
