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


#: a CSR round whose frontier scans more than ``1 / PULL_FACTOR`` of all
#: adjacency slots pulls over the whole CSR instead of pushing
PULL_FACTOR = 4


def _nonempty_rows(indptr):
    """``(rows, starts)`` of the CSR rows with at least one neighbor: the
    segment starts a pull round's ``reduceat`` needs (an empty row would
    make ``reduceat`` return a neighbor's element instead of nothing)."""
    import numpy as np

    rows = np.flatnonzero(np.diff(indptr))
    return rows, indptr[rows]


def _log_n(adj: Adjacency, n: int | None) -> int:
    if n is None:
        n = len(adj)
    return log2ceil(max(n, 2))


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

    ``targets[s]`` prunes source ``s`` once all its targets settled, at
    round granularity: a round charges ``|{u in frontier : mask_u &
    active != 0}|`` plus the degrees of those live ``u``, and a source
    whose last target settled in that round leaves ``active`` at the
    round's end.  A target that never settles (out of range, negative or
    unreachable) keeps its source live until the frontier empties.  With
    targets the result holds each source's distance only at its reached
    targets (plus ``{s: 0}``).  ``bound`` caps the level (vertices
    farther than ``bound`` absent).

    Returns ``{source: {vertex: distance}}``; unreached vertices absent.
    Duplicate sources are deduplicated; a source absent from the graph
    simply has no neighbors (it still takes one frontier slot in the
    first round).

    Charges depend only on the graph and the batch — never on scan
    order, substrate or frontier partition.  An array substrate runs the
    vectorized :func:`_multi_source_bfs_csr`; a dict/list adjacency runs
    the scalar loop below, the reference the oracle checks it against;
    ``backend`` (an :class:`repro.parallel.ExecutionBackend`) expands
    the frontier rounds across worker processes.  All three return the
    same answers and charge the same totals.
    """
    if backend is not None:
        from repro.parallel.kernels import parallel_multi_source_bfs

        return parallel_multi_source_bfs(
            backend, adj, sources, targets=targets, bound=bound, n=n,
            cost=cost, adj_version=adj_version,
        )
    csr = _csr_view(adj)
    if csr is not None:
        return _multi_source_bfs_csr(
            csr, sources, targets=targets, bound=bound, cost=cost,
            logn=_log_n(adj, n),
        )
    neighbors = _neighbor_lookup(adj)
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
        settled = 0
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
                    if want is None:
                        dist[s][w] = level
                        continue
                    ws = want[s]
                    if w in ws:
                        dist[s][w] = level
                        ws.discard(w)
                        if not ws:
                            settled |= b
        # one parallel frontier-expansion round; sources whose last
        # target settled in it retire at its boundary
        cost.pfor_cost(scans, 1, depth=logn)
        active &= ~settled
        frontier = nxt
    return dist


def _multi_source_bfs_csr(
    csr,
    sources: Sequence[int],
    *,
    targets: Mapping[int, Iterable[int]] | None,
    bound: int | None,
    cost: CostModel,
    logn: int,
) -> dict[int, dict[int, int]]:
    """Vectorized :func:`multi_source_bfs` over a CSR view.

    Level-synchronous bitmask propagation in ``(W, n)`` ``uint64`` masks,
    ``W = ceil(k / 64)`` words, so any number of sources shares one
    frontier.  Each round charges the scalar sweep's ``pfor_cost(|live
    frontier| + scanned, 1, depth=logn)`` and then finds every vertex's
    new source bits in one of two ways (the charge is a closed form of
    the frontier, so the choice never moves it):

    * **push** (the frontier scans at most ``1 / PULL_FACTOR`` of the
      adjacency): gather the live frontier's neighbor slices, OR their
      masks into a dense scratch row (``bitwise_or.at``) and dedup the
      discovered vertices through a position scratch — no sort;
    * **pull** (a larger frontier): OR every vertex's neighbor masks in
      one segmented ``bitwise_or.reduceat`` over the whole CSR.

    Both run one mask word at a time, so a round's temporaries are
    ``O(n + m)`` for any ``k``; the long-lived state is ``O(n * W)``.
    With targets it then settles the pending ``(source, target)`` pairs
    and retires finished sources at the round boundary.  Answers and
    charges equal the scalar path's.
    """
    import numpy as np

    indptr, indices = csr
    n = len(indptr) - 1
    srcs = list(dict.fromkeys(sources))
    k = len(srcs)
    dist: dict[int, dict[int, int]] = {s: {s: 0} for s in srcs}
    if k == 0:
        return dist
    cost.pfor_cost(k, 1, depth=logn)
    nw = (k + 63) >> 6
    idx = np.arange(k, dtype=np.int64)
    word = idx >> 6
    shift = (idx & 63).astype(np.uint64)
    bit = np.left_shift(np.uint64(1), shift)
    live_src = np.ones(k, dtype=bool)
    if targets is not None:
        # pending (source index, target) pairs plus each source's count
        # of unsettled targets; an out-of-range target never settles
        want = [set(targets.get(s, ())) - {s} for s in srcs]
        left = np.fromiter(map(len, want), dtype=np.int64, count=k)
        live_src = left > 0
        pairs = [(i, t) for i, ts in enumerate(want) for t in ts
                 if 0 <= t < n]
        t_src = np.array([i for i, _ in pairs], dtype=np.int64)
        t_dst = np.array([t for _, t in pairs], dtype=np.int64)
    active = np.zeros(nw, dtype=np.uint64)
    np.bitwise_or.at(active, word[live_src], bit[live_src])
    src_arr = np.asarray(srcs, dtype=np.int64)
    in_range = (src_arr >= 0) & (src_arr < n)
    # out-of-range sources behave like isolated vertices (dict-adjacency
    # parity): never expanded, but a live one still takes a frontier
    # slot in the first round's charged scan count
    phantom = int((~in_range & live_src).sum())
    frontier_v = src_arr[in_range]
    frontier_m = np.zeros((nw, len(frontier_v)), dtype=np.uint64)
    frontier_m[word[in_range], np.arange(len(frontier_v))] = bit[in_range]
    reached = np.zeros((nw, n), dtype=np.uint64)
    reached[:, frontier_v] = frontier_m
    # one O(n) scratch per sweep: OR-accumulator rows, dedup positions;
    # the pull rounds' segment starts are built at the first pull round
    acc = np.zeros((nw, n), dtype=np.uint64)
    pos = np.empty(n, dtype=np.int64)
    nz = None
    level = 0
    while (len(frontier_v) or phantom) and active.any():
        level += 1
        if bound is not None and level > bound:
            break
        live = frontier_m & active[:, None]
        keep = live.any(axis=0)
        fv = frontier_v[keep]
        live = live[:, keep]
        first = indptr[fv]
        counts = indptr[fv + 1] - first
        scanned = int(counts.sum())
        cost.pfor_cost(len(fv) + phantom + scanned, 1, depth=logn)
        phantom = 0
        if PULL_FACTOR * scanned > len(indices):
            # pull: the live masks sit in the scratch rows while every
            # vertex ORs its neighbors' in one segmented reduction
            if nz is None:
                nz = _nonempty_rows(indptr)
            nz_rows, nz_starts = nz
            acc[:, fv] = live
            dense = np.zeros_like(acc)
            for j in range(nw):
                dense[j, nz_rows] = np.bitwise_or.reduceat(
                    acc[j][indices], nz_starts
                )
            acc[:, fv] = 0
            dense &= ~reached
            uniq = np.flatnonzero(dense.any(axis=0))
        else:
            # push: scatter the frontier's masks onto its neighbors
            nbrs = _gather_neighbors(indices, first, counts)
            hit = np.zeros(len(nbrs), dtype=bool)
            for j in range(nw):
                add = np.repeat(live[j], counts) & ~reached[j, nbrs]
                h = add != 0
                np.bitwise_or.at(acc[j], nbrs[h], add[h])
                hit |= h
            nb = nbrs[hit]
            slot = np.arange(len(nb))
            pos[nb] = slot
            uniq = nb[pos[nb] == slot]
            dense = acc
        new = dense[:, uniq]
        if targets is None:
            for i, s in enumerate(srcs):
                hit = ((new[word[i]] >> shift[i]) & np.uint64(1)).astype(bool)
                if hit.any():
                    dist[s].update(dict.fromkeys(uniq[hit].tolist(), level))
        elif len(t_src):
            got = (dense[word[t_src], t_dst] >> shift[t_src]) & np.uint64(1)
            got = got.astype(bool)
            if got.any():
                hs = t_src[got]
                for i, t in zip(hs.tolist(), t_dst[got].tolist()):
                    dist[srcs[i]][t] = level
                np.subtract.at(left, hs, 1)
                done = hs[left[hs] == 0]
                np.bitwise_and.at(active, word[done], ~bit[done])
                t_src = t_src[~got]
                t_dst = t_dst[~got]
        if dense is acc:
            acc[:, uniq] = 0
        reached[:, uniq] |= new
        frontier_v, frontier_m = uniq, new
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
    Each round's discovered vertices are deduplicated through one O(n)
    position scratch instead of a sort; labels and charges are
    order-invariant, so frontier order does not matter.
    """
    import numpy as np

    indptr, indices = csr
    n = len(indptr) - 1
    label = np.full(n, -1, dtype=np.int64)
    # per-call O(n) scratch: push dedup positions, pull frontier marks
    # (segment starts built at the first pull round)
    pos = np.empty(n, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    nz = None
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
            scanned = int(counts.sum())
            cost.pfor_cost(len(frontier) + scanned, 1, depth=logn)
            if PULL_FACTOR * scanned > len(indices):
                # pull (see _multi_source_bfs_csr): one segmented OR of
                # frontier membership over every vertex's neighbors
                if nz is None:
                    nz = _nonempty_rows(indptr)
                nz_rows, nz_starts = nz
                mark[frontier] = True
                hit = np.zeros(n, dtype=bool)
                hit[nz_rows] = np.logical_or.reduceat(
                    mark[indices], nz_starts
                )
                mark[frontier] = False
                new = np.flatnonzero(hit & (label < 0))
            else:
                nbrs = _gather_neighbors(indices, first, counts)
                new = nbrs[label[nbrs] < 0]
                slot = np.arange(len(new))
                pos[new] = slot
                new = new[pos[new] == slot]
            label[new] = v0
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
