"""Batched queries on the dynamic structures.

The paper batches *updates* to win work/depth bounds; this module batches
*queries* the same way ("Parallel batch queries on dynamic trees",
arXiv 2506.16477).  Three shared-work primitives, each with explicit
work/depth charges to the ambient :class:`~repro.pram.cost.CostModel`:

* :func:`multi_source_bfs` — k-source level-synchronous BFS that shares
  frontier expansion: one sweep with a source-bitmask per vertex, so a
  vertex scanned on behalf of several sources in the same round pays one
  adjacency scan, not k.
* :func:`batch_components` / :func:`batch_connected` — connectivity for
  many pairs by flooding each *touched* component once; total work is
  bounded by the graph size independent of the number of queries.

:func:`answer_queries` is the uniform entry point the serving engine
(:meth:`repro.service.engine.SpannerService.query_batch`), the wire
protocol (``query_batch`` verb), and the differential oracle
(:mod:`repro.oracle.queries`) all share: it coalesces a
:class:`QueryBatch` (dedup identical ``(kind, u, v)`` keys, fold the
symmetric orientations), answers every key from shared traversals over
one snapshot, and reports :class:`BatchQueryStats` so callers can pin the
charges.  Answers are *exactly* those of the query-at-a-time path — batch
queries are an execution strategy, never an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.graph.dynamic_graph import Edge
from repro.graph.traversal import _csr_view, _gather_neighbors, _neighbor_lookup
from repro.pram.cost import NULL_COST_MODEL, CostModel, log2ceil

__all__ = [
    "BatchQueryStats",
    "PAIR_KINDS",
    "QueryBatch",
    "answer_queries",
    "batch_components",
    "batch_connected",
    "batch_distances",
    "batch_stretch_check",
    "coalesce_queries",
    "multi_source_bfs",
]

Adjacency = Mapping[int, Iterable[int]] | Sequence[Iterable[int]]

#: query kinds whose payload is an (unordered) vertex pair
PAIR_KINDS = ("contains", "distance", "connected")
#: query kinds with no payload
NULLARY_KINDS = ("size", "edges")


def _log_n(adj: Adjacency, n: int | None) -> int:
    if n is None:
        n = len(adj)
    return log2ceil(max(n, 2))


def _sorted_neighbors(adj):
    """Neighbor accessor yielding ascending plain-int vertex ids.

    The canonical scan order for charge schedules that depend on scan
    order (targets-mode :func:`multi_source_bfs`): identical for a
    dict-of-sets snapshot and the array substrate holding the same graph.
    """
    if hasattr(adj, "sorted_flat"):
        # array substrate: one cached per-epoch flat adjacency in
        # canonical order — a list slice per scan instead of a numpy
        # sort per scan
        bounds, flat = adj.sorted_flat()
        nn = len(adj)
        return lambda u: (
            flat[bounds[u]:bounds[u + 1]] if 0 <= u < nn else []
        )
    base = _neighbor_lookup(adj)
    return lambda u: sorted(base(u))


# -- shared traversals --------------------------------------------------------


def multi_source_bfs(
    adj: Adjacency,
    sources: Sequence[int],
    *,
    targets: Mapping[int, Iterable[int]] | None = None,
    bound: int | None = None,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    backend=None,
    adj_version: Any = None,
) -> dict[int, dict[int, int]]:
    """k-source level-synchronous BFS sharing frontier expansion.

    One sweep serves every source: each vertex carries a bitmask of the
    sources that have reached it, and each level expands the *union*
    frontier once — a vertex whose adjacency serves several sources in
    the same round is scanned once, not once per source.  Per level the
    model is charged one parallel round: work = frontier adjacency scans,
    depth = ``O(log n)`` (the semisort merging discovered
    ``(vertex, source-set)`` pairs), so total depth is
    ``levels * log2ceil(n)`` instead of the sum over k sequential sweeps.

    ``targets[s]`` prunes source ``s`` once all its targets settled —
    mirroring the engine's target-pruned singleton BFS, so with targets
    set the returned distances are only guaranteed at those targets.
    ``bound`` caps the level (vertices farther than ``bound`` absent).

    Returns ``{source: {vertex: distance}}``; unreached vertices absent.
    Duplicate sources are deduplicated; a source absent from a dict
    adjacency simply has no neighbors.

    ``backend`` (an :class:`repro.parallel.ExecutionBackend`) executes the
    frontier rounds across worker processes.  Answers are identical either
    way; charges are too when no targets are given.  With targets *and* a
    recording cost model the sweep stays sequential — mid-round target
    pruning makes the charged scan count depend on scan order, and the
    canonical (pinned) charges are the sequential ones.  To keep that
    canonical schedule *substrate-invariant* (dict-of-sets and the array
    substrate store neighbors in different orders), the targets-mode sweep
    scans each adjacency list in ascending vertex order — so the charged
    totals depend only on the graph and the query batch, never on the
    container.
    """
    if backend is not None and (targets is None or not cost.enabled):
        from repro.parallel.kernels import parallel_multi_source_bfs

        return parallel_multi_source_bfs(
            backend, adj, sources, targets=targets, bound=bound, n=n,
            cost=cost, adj_version=adj_version,
        )
    if targets is None and backend is None:
        csr = _csr_view(adj)
        if csr is not None and 0 < len(set(sources)) <= 64:
            # array substrate, no mid-round target pruning: the charged
            # scan count per level is |frontier| + sum(deg(frontier)) —
            # order-independent, so the vectorized sweep charges the
            # byte-identical totals
            return _multi_source_bfs_csr(
                csr, sources, bound=bound, cost=cost, logn=_log_n(adj, n)
            )
    # targets mode: canonical ascending scan order (see docstring); the
    # no-targets scalar fallback keeps raw container order — its charged
    # counts are order-independent anyway
    neighbors = (
        _sorted_neighbors(adj) if targets is not None
        else _neighbor_lookup(adj)
    )
    srcs = list(dict.fromkeys(sources))
    k = len(srcs)
    logn = _log_n(adj, n)
    dist: dict[int, dict[int, int]] = {s: {s: 0} for s in srcs}
    if k == 0:
        return dist
    bit = {s: 1 << i for i, s in enumerate(srcs)}
    active = (1 << k) - 1
    want: dict[int, set[int]] | None = None
    if targets is not None:
        want = {}
        for s in srcs:
            ts = set(targets.get(s, ())) - {s}
            if ts:
                want[s] = ts
            else:
                active &= ~bit[s]
    reached: dict[int, int] = {}
    frontier: dict[int, int] = {}
    for s in srcs:
        reached[s] = reached.get(s, 0) | bit[s]
        frontier[s] = frontier.get(s, 0) | bit[s]
    # the initial semisort placing k sources into their buckets
    cost.pfor_cost(k, 1, depth=logn)
    level = 0
    while frontier and active:
        level += 1
        if bound is not None and level > bound:
            break
        scans = 0
        nxt: dict[int, int] = {}
        for u, mask in frontier.items():
            mask &= active
            if not mask:
                continue
            scans += 1
            for w in neighbors(u):
                scans += 1
                add = mask & ~reached.get(w, 0)
                if not add:
                    continue
                reached[w] = reached.get(w, 0) | add
                nxt[w] = nxt.get(w, 0) | add
                mm = add
                while mm:
                    b = mm & -mm
                    mm ^= b
                    s = srcs[b.bit_length() - 1]
                    dist[s][w] = level
                    if want is not None:
                        ws = want.get(s)
                        if ws is not None:
                            ws.discard(w)
                            if not ws:
                                active &= ~bit[s]
        # one parallel frontier-expansion round
        cost.pfor_cost(scans, 1, depth=logn)
        frontier = nxt
    return dist


def _multi_source_bfs_csr(
    csr,
    sources: Sequence[int],
    *,
    bound: int | None,
    cost: CostModel,
    logn: int,
) -> dict[int, dict[int, int]]:
    """Vectorized no-targets :func:`multi_source_bfs` over a CSR view.

    Level-synchronous bitmask propagation in numpy ``uint64`` (hence the
    k <= 64 guard at the call site): each round gathers every frontier
    vertex's neighbor slice at once, ORs the source masks per discovered
    vertex with one ``reduceat``, and charges the identical
    ``pfor_cost(|frontier| + scanned, 1, depth=logn)`` the scalar sweep
    charges.  Answers and charges are byte-identical to the scalar path.
    """
    import numpy as np

    indptr, indices = csr
    n = len(indptr) - 1
    srcs = list(dict.fromkeys(sources))
    k = len(srcs)
    dist: dict[int, dict[int, int]] = {s: {s: 0} for s in srcs}
    cost.pfor_cost(k, 1, depth=logn)
    src_arr = np.asarray(srcs, dtype=np.int64)
    in_range = (src_arr >= 0) & (src_arr < n)
    reached = np.zeros(n, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    np.bitwise_or.at(reached, src_arr[in_range], bits[in_range])
    frontier_v = src_arr[in_range]
    frontier_m = bits[in_range]
    # out-of-range sources behave like isolated vertices (dict-adjacency
    # parity): present in the result with only themselves, never expanded —
    # but they still occupy a frontier slot for the charged scan count
    phantom = int((~in_range).sum())
    if k and len(frontier_v):
        order = np.argsort(frontier_v, kind="stable")
        frontier_v = frontier_v[order]
        frontier_m = frontier_m[order]
        starts = np.nonzero(
            np.r_[True, frontier_v[1:] != frontier_v[:-1]]
        )[0]
        frontier_m = np.bitwise_or.reduceat(frontier_m, starts)
        frontier_v = frontier_v[starts]
    level = 0
    while (len(frontier_v) or phantom):
        level += 1
        if bound is not None and level > bound:
            break
        first = indptr[frontier_v]
        counts = indptr[frontier_v + 1] - first
        scans = int(len(frontier_v)) + phantom + int(counts.sum())
        nbrs = _gather_neighbors(indices, first, counts)
        masks = np.repeat(frontier_m, counts)
        add = masks & ~reached[nbrs]
        keep = add != 0
        nb = nbrs[keep].astype(np.int64)
        am = add[keep]
        phantom = 0
        if len(nb):
            order = np.argsort(nb, kind="stable")
            nb = nb[order]
            am = am[order]
            starts = np.nonzero(np.r_[True, nb[1:] != nb[:-1]])[0]
            uniq = nb[starts]
            union = np.bitwise_or.reduceat(am, starts)
            reached[uniq] |= union
            for i in range(k):
                hit = (union >> np.uint64(i)) & np.uint64(1)
                verts = uniq[hit.astype(bool)]
                if len(verts):
                    dist[srcs[i]].update(
                        dict.fromkeys(verts.tolist(), level)
                    )
            frontier_v, frontier_m = uniq, union
        else:
            frontier_v = frontier_v[:0]
            frontier_m = frontier_m[:0]
        cost.pfor_cost(scans, 1, depth=logn)
    return dist


def batch_distances(
    adj: Adjacency,
    pairs: Sequence[tuple[int, int]],
    *,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    backend=None,
    adj_version: Any = None,
) -> list[float]:
    """Distances for many ``(u, v)`` pairs from one shared sweep.

    Answers equal the singleton path exactly (``inf`` when disconnected,
    ``0.0`` on the diagonal).  Pairs are normalized (distance is
    symmetric) and grouped by source, so duplicated and reversed pairs
    cost nothing and each distinct source contributes one wave to a
    single :func:`multi_source_bfs` call.
    """
    keys: list[tuple[int, int]] = []
    want: dict[int, set[int]] = {}
    for u, v in pairs:
        a, b = (u, v) if u <= v else (v, u)
        keys.append((a, b))
        if a != b:
            want.setdefault(a, set()).add(b)
    cost.charge_hash_op(len(pairs))  # pair normalization + source grouping
    dist = multi_source_bfs(
        adj, list(want), targets={s: set(t) for s, t in want.items()},
        n=n, cost=cost, backend=backend, adj_version=adj_version,
    ) if want else {}
    out: list[float] = []
    for a, b in keys:
        if a == b:
            out.append(0.0)
        else:
            d = dist[a].get(b)
            out.append(float("inf") if d is None else float(d))
    return out


def batch_components(
    adj: Adjacency,
    vertices: Iterable[int],
    *,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    backend=None,
    adj_version: Any = None,
) -> dict[int, int]:
    """Component label for each queried vertex; touched components flood once.

    Labels are canonical per batch (the first queried vertex of the
    component); two vertices share a label iff they are connected.  Total
    work is bounded by the size of the *touched* components — independent
    of how many queries land in them — which is the whole dividend of
    batching connectivity reads.

    With a ``backend``, floods expand chunk-parallel across workers; the
    per-round scan count is partition-invariant, so answers *and* charges
    match the sequential path exactly in every mode.
    """
    if backend is not None:
        from repro.parallel.kernels import parallel_batch_components

        return parallel_batch_components(
            backend, adj, vertices, n=n, cost=cost, adj_version=adj_version,
        )
    csr = _csr_view(adj)
    if csr is not None:
        # flood charges (|frontier| + scanned per round) are partition-
        # and order-invariant, so the vectorized flood is charge-exact
        return _batch_components_csr(
            csr, vertices, cost=cost, logn=_log_n(adj, n)
        )
    neighbors = _neighbor_lookup(adj)
    logn = _log_n(adj, n)
    comp: dict[int, int] = {}
    for v0 in vertices:
        if v0 in comp:
            continue
        comp[v0] = v0
        frontier = [v0]
        while frontier:
            scans = 0
            nxt: list[int] = []
            for u in frontier:
                scans += 1
                for w in neighbors(u):
                    scans += 1
                    if w not in comp:
                        comp[w] = v0
                        nxt.append(w)
            cost.pfor_cost(scans, 1, depth=logn)
            frontier = nxt
    return comp


def _batch_components_csr(
    csr,
    vertices: Iterable[int],
    *,
    cost: CostModel,
    logn: int,
) -> dict[int, int]:
    """Vectorized :func:`batch_components` flood over a CSR view.

    Same flood order (per queried vertex, whole-frontier rounds), same
    labels (first queried vertex of each component), same per-round
    ``pfor_cost`` charges — just numpy gathers instead of per-edge Python.
    """
    import numpy as np

    indptr, indices = csr
    n = len(indptr) - 1
    label = np.full(n, -1, dtype=np.int64)
    extra: dict[int, int] = {}   # out-of-range queried vertices
    for v0 in vertices:
        if not 0 <= v0 < n:
            if v0 not in extra:
                extra[v0] = v0
                # the scalar path floods an absent vertex as one
                # neighborless frontier round
                cost.pfor_cost(1, 1, depth=logn)
            continue
        if label[v0] >= 0:
            continue
        label[v0] = v0
        frontier = np.array([v0], dtype=np.int64)
        while len(frontier):
            first = indptr[frontier]
            counts = indptr[frontier + 1] - first
            scans = int(len(frontier)) + int(counts.sum())
            nbrs = _gather_neighbors(indices, first, counts).astype(
                np.int64
            )
            new = nbrs[label[nbrs] < 0]
            if len(new):
                new = np.unique(new)
                label[new] = v0
            cost.pfor_cost(scans, 1, depth=logn)
            frontier = new
    touched = np.nonzero(label >= 0)[0]
    comp = dict(zip(touched.tolist(), label[touched].tolist()))
    comp.update(extra)
    return comp


def batch_connected(
    adj: Adjacency,
    pairs: Sequence[tuple[int, int]],
    *,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    backend=None,
    adj_version: Any = None,
) -> list[bool]:
    """Connectivity for many pairs via :func:`batch_components`."""
    verts: list[int] = []
    for u, v in pairs:
        if u != v:
            verts.append(u)
            verts.append(v)
    cost.charge_hash_op(len(pairs))
    comp = batch_components(
        adj, verts, n=n, cost=cost, backend=backend, adj_version=adj_version
    )
    return [u == v or comp[u] == comp[v] for u, v in pairs]


# -- batched stretch checks ---------------------------------------------------


def batch_stretch_check(
    edges: Iterable[Edge],
    spanner_adj: Adjacency,
    stretch: float,
    *,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    backend=None,
    adj_version: Any = None,
) -> list[Edge]:
    """Check ``dist_H(u, v) <= stretch`` for a batch of graph edges.

    The spanner property per edge, verified in one shared *bounded*
    sweep: edges are grouped by endpoint and every distinct source
    contributes one wave to a single :func:`multi_source_bfs` capped at
    ``floor(stretch)`` levels.  Returns the edges that violate the bound
    (empty list = the spanner property holds on the batch), identical to
    checking each edge with its own bounded BFS.
    """
    bound = int(math.floor(stretch))
    keys: list[tuple[int, int]] = []
    want: dict[int, set[int]] = {}
    for u, v in edges:
        a, b = (u, v) if u <= v else (v, u)
        keys.append((a, b))
        if a != b:
            want.setdefault(a, set()).add(b)
    cost.charge_hash_op(len(keys))
    dist = multi_source_bfs(
        spanner_adj, list(want),
        targets={s: set(t) for s, t in want.items()},
        bound=bound, n=n, cost=cost, backend=backend,
        adj_version=adj_version,
    ) if want else {}
    return [
        (a, b) for a, b in keys if a != b and dist[a].get(b) is None
    ]


# -- the batch query API ------------------------------------------------------


@dataclass
class QueryBatch:
    """An ordered batch of read requests — the read-side analogue of
    :class:`~repro.workloads.streams.UpdateBatch`.

    Each item is ``(kind, payload)`` with the serving engine's query
    kinds: ``"size"``/``"edges"`` (payload ``None``) and ``"contains"``/
    ``"distance"``/``"connected"`` (payload = vertex pair).
    """

    items: list[tuple[str, Any]]

    @property
    def size(self) -> int:
        return len(self.items)

    def coalesce(self) -> tuple[list[tuple[str, Any]], list[int]]:
        """Dedup to unique normalized keys; see :func:`coalesce_queries`."""
        return coalesce_queries(self.items)


def coalesce_queries(
    items: Sequence[tuple[str, Any]],
) -> tuple[list[tuple[str, Any]], list[int]]:
    """Normalize and deduplicate a query batch.

    Returns ``(keys, index)``: ``keys`` is the ordered list of unique
    normalized ``(kind, payload)`` keys and ``index[i]`` locates the key
    answering ``items[i]`` — so answers computed per key fan back out to
    the original order.  Pair payloads are canonicalized to ``u <= v``
    (all pair kinds are symmetric on an undirected graph), which lets
    reversed duplicates coalesce too.  Raises ``ValueError`` on an
    unknown kind or a malformed payload, before any traversal runs.
    """
    keys: list[tuple[str, Any]] = []
    pos: dict[tuple[str, Any], int] = {}
    index: list[int] = []
    for item in items:
        kind, payload = item
        if kind in PAIR_KINDS:
            u, v = payload
            u, v = int(u), int(v)
            key = (kind, (u, v) if u <= v else (v, u))
        elif kind in NULLARY_KINDS:
            key = (kind, None)
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        p = pos.get(key)
        if p is None:
            p = pos[key] = len(keys)
            keys.append(key)
        index.append(p)
    return keys, index


@dataclass
class BatchQueryStats:
    """Measured shape of one :func:`answer_queries` call.

    ``work``/``depth`` are the cost-model charges of the whole batch —
    the quantities the oracle's envelope checks and the SRV3 bench gate
    pin.  ``queries``/``unique`` expose the dedup ratio; ``sources`` is
    the number of distinct BFS waves the distance queries needed.
    """

    queries: int = 0
    unique: int = 0
    sources: int = 0
    work: int = 0
    depth: int = 0

    @property
    def dedup_ratio(self) -> float:
        return self.unique / self.queries if self.queries else 1.0


def answer_queries(
    items: Sequence[tuple[str, Any]] | QueryBatch,
    graph,
    *,
    cost: CostModel = NULL_COST_MODEL,
    backend=None,
    adj_version: Any = None,
) -> tuple[list[Any], BatchQueryStats]:
    """Answer a whole query batch from one snapshot via shared traversals.

    ``graph`` is the snapshot, an
    :class:`~repro.graph.array_graph.ArrayDynamicGraph`; ``graph.n``
    sizes the charges.  Unknown kinds raise before anything is answered.

    Answers are exactly the query-at-a-time answers: ``size`` / ``edges``
    / ``contains`` read the graph directly; all ``distance`` keys share
    one :func:`multi_source_bfs` sweep; all ``connected`` keys share one
    :func:`batch_components` labeling.  Returns the per-item answer list
    (original order and multiplicity) plus :class:`BatchQueryStats`
    carrying the charged work/depth.
    """
    if isinstance(items, QueryBatch):
        items = items.items
    keys, index = coalesce_queries(items)
    dist_pairs: list[tuple[int, int]] = []
    conn_pairs: list[tuple[int, int]] = []
    for kind, payload in keys:
        if kind == "distance":
            dist_pairs.append(payload)
        elif kind == "connected":
            conn_pairs.append(payload)
    answers: dict[tuple[str, Any], Any] = {}
    n = graph.n
    with cost.frame() as fr:
        cost.charge_hash_op(len(items))  # key dedup semisort
        dists = batch_distances(
            graph, dist_pairs, n=n, cost=cost,
            backend=backend, adj_version=adj_version,
        ) if dist_pairs else []
        conns = batch_connected(
            graph, conn_pairs, n=n, cost=cost,
            backend=backend, adj_version=adj_version,
        ) if conn_pairs else []
        di = ci = 0
        for key in keys:
            kind, payload = key
            if kind == "size":
                answers[key] = graph.m
            elif kind == "edges":
                answers[key] = graph.edge_set()
            elif kind == "contains":
                answers[key] = payload in graph
                cost.charge_hash_op()
            elif kind == "distance":
                answers[key] = dists[di]
                di += 1
            else:  # connected
                answers[key] = conns[ci]
                ci += 1
    stats = BatchQueryStats(
        queries=len(items),
        unique=len(keys),
        sources=len({u for u, v in dist_pairs if u != v}),
        work=fr.work,
        depth=fr.depth,
    )
    return [answers[keys[i]] for i in index], stats
