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
  many pairs by flooding each *touched* component once (on an array
  substrate only while its label is unknown: labels persist in the
  read state and carry across commits that do not split them); total
  work is bounded by the graph size independent of the number of
  queries.

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
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.graph.dynamic_graph import Edge
from repro.graph.traversal import _gather_neighbors, _neighbor_lookup
from repro.pram.cost import NULL_COST_MODEL, CostModel, log2ceil

if TYPE_CHECKING:
    from repro.graph.array_graph import EpochReadState, SweepScratch

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


def _epoch_view(adj):
    """``(csr, read state)`` of an array substrate's epoch, else None."""
    read_state = getattr(adj, "read_state", None)
    return (adj.csr(), read_state()) if callable(read_state) else None


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
    view = _epoch_view(adj)
    if view is not None:
        csr, state = view
        return _multi_source_bfs_csr(
            csr, sources, targets=targets, bound=bound, cost=cost,
            logn=_log_n(adj, n), state=state,
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
    state: EpochReadState,
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
      masks into the accumulator rows (``bitwise_or.at``) and dedup the
      discovered vertices through a position scratch — no sort;
    * **pull** (a larger frontier): OR every non-empty row's neighbor
      masks in one segmented ``bitwise_or.reduceat`` over the CSR.

    Both run one mask word at a time, so a round's temporaries are
    ``O(n + m)`` for any ``k``.  The masks live in a scratch leased from
    the epoch's ``state`` and are cleared column by column at the end,
    so a sweep that reaches a small ball costs ``O(ball)``, not ``O(n)``.
    With targets it then settles the pending ``(source, target)`` pairs
    and retires finished sources at the round boundary.  Before a pull,
    :func:`_targets_settle` first reads only the pending targets' rows:
    if the round settles every pending pair, every live source retires
    at its boundary and the sweep ends without the pull.  Answers and
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
    bits = [1 << (i & 63) for i in range(k)]   # source i's bit, word i >> 6
    live = [True] * k
    if targets is not None:
        # pending (source index, target) pairs plus each source's count
        # of unsettled targets; an out-of-range target never settles
        want = [set(targets.get(s, ())) - {s} for s in srcs]
        left = [len(ts) for ts in want]
        live = [c > 0 for c in left]
        pairs = [(i, t) for i, ts in enumerate(want) for t in ts
                 if 0 <= t < n]
        t_src = np.array([i for i, _ in pairs], dtype=np.int64)
        t_dst = np.array([t for _, t in pairs], dtype=np.int64)
        # each pair's slot in the flattened (word, vertex) accumulator
        t_flat = (t_src >> 6) * n + t_dst
        t_bit = np.array([bits[i] for i, _ in pairs], dtype=np.uint64)
    active = [0] * nw   # per-word masks of the live sources
    for i in range(k):
        if live[i]:
            active[i >> 6] |= bits[i]
    nlive = sum(live)
    inside = [i for i, s in enumerate(srcs) if 0 <= s < n]
    # out-of-range sources behave like isolated vertices (dict-adjacency
    # parity): never expanded, but a live one still takes a frontier
    # slot in the first round's charged scan count
    phantom = nlive - sum(live[i] for i in inside)
    frontier_v = np.array([srcs[i] for i in inside], dtype=np.int64)
    masks = np.zeros((nw, len(inside)), dtype=np.uint64)
    masks[np.array(inside, dtype=np.int64) >> 6, np.arange(len(inside))] = \
        np.array([bits[i] for i in inside], dtype=np.uint64)
    frontier_m = list(masks)   # one mask row per word
    deg, nz_rows, nz_starts = state.rows(indptr)
    # the frontier carries bits of retired sources only after a source
    # retires (or starts without targets); only then is it filtered
    stale = nlive < k
    sc = state.acquire()
    reached_2d, acc_2d = sc.masks(nw)
    reached, acc = list(reached_2d), list(acc_2d)   # 1-D row views
    acc_flat = acc_2d.reshape(-1)
    pos = sc.pos
    for j in range(nw):
        reached[j][frontier_v] = frontier_m[j]
    touched = [frontier_v]   # the reached columns to clear at the end
    level = 0
    while (len(frontier_v) or phantom) and nlive:
        level += 1
        if bound is not None and level > bound:
            break
        if stale:
            frontier_m = [m & a for m, a in zip(frontier_m, active)]
            keep = frontier_m[0] != 0
            for m in frontier_m[1:]:
                keep |= m != 0
            frontier_v = frontier_v[keep]
            frontier_m = [m[keep] for m in frontier_m]
        fv = frontier_v
        counts = deg[fv]
        scanned = int(np.add.reduce(counts))
        cost.pfor_cost(len(fv) + phantom + scanned, 1, depth=logn)
        phantom = 0
        if PULL_FACTOR * scanned > len(indices):
            # pull: the live masks sit in the accumulator rows while
            # every non-empty row ORs its neighbors' in one segmented
            # reduction; the new bits land back in the accumulator
            for m, a in zip(frontier_m, acc):
                a[fv] = m
            if (targets is not None and len(t_dst) == sum(left)
                    and _targets_settle(acc_flat, n, csr, deg,
                                        t_src, t_dst, t_bit)):
                # every live source retires at this boundary: the pull
                # would only build a frontier no round reads
                for i, t in zip(t_src.tolist(), t_dst.tolist()):
                    dist[srcs[i]][t] = level
                for a in acc:
                    a[fv] = 0
                break
            red = []
            hit = None
            for a, r in zip(acc, reached):
                rj = np.bitwise_or.reduceat(a[indices], nz_starts)
                a[fv] = 0
                rj &= ~r[nz_rows]
                red.append(rj)
                h = rj != 0
                hit = h if hit is None else hit | h
            uniq = nz_rows[hit]
            for rj, a in zip(red, acc):
                a[uniq] = rj[hit]
        else:
            # push: scatter the frontier's masks onto its neighbors,
            # then dedup the discovered vertices through ``pos``
            nbrs = _gather_neighbors(indices, indptr[fv], counts)
            hit = None
            for m, a, r in zip(frontier_m, acc, reached):
                add = m.repeat(counts) & ~r[nbrs]
                np.bitwise_or.at(a, nbrs, add)
                h = add != 0
                hit = h if hit is None else hit | h
            nb = nbrs[hit]
            slot = np.arange(len(nb))
            pos[nb] = slot
            uniq = nb[pos[nb] == slot]
        new = [a[uniq] for a in acc]
        stale = False
        if targets is None:
            for i, s in enumerate(srcs):
                got = (new[i >> 6] & bits[i]) != 0
                if np.count_nonzero(got):
                    dist[s].update(
                        dict.fromkeys(uniq[got].tolist(), level))
        elif len(t_dst):
            got = acc_flat[t_flat] & t_bit
            if np.count_nonzero(got):
                got = got != 0
                for i, t in zip(t_src[got].tolist(),
                                t_dst[got].tolist()):
                    dist[srcs[i]][t] = level
                    left[i] -= 1
                    if not left[i]:
                        # retire at the round boundary
                        active[i >> 6] &= ~(1 << (i & 63))
                        nlive -= 1
                        stale = True
                pend = ~got
                t_src, t_dst = t_src[pend], t_dst[pend]
                t_flat, t_bit = t_flat[pend], t_bit[pend]
        for a, r, m in zip(acc, reached, new):
            a[uniq] = 0
            r[uniq] |= m
        touched.append(uniq)
        frontier_v, frontier_m = uniq, new
    cols = np.concatenate(touched)
    for r in reached:
        r[cols] = 0
    state.release(sc)
    return dist


def _targets_settle(acc_flat, n, csr, deg, t_src, t_dst, t_bit) -> bool:
    """Whether this round settles every pending ``(source, target)``
    pair, read from the targets' rows alone: one segmented OR of the
    frontier masks (placed in the flattened accumulator ``acc_flat``)
    over each target's neighbors, in the pair's source word.  Runs only
    when those rows hold fewer slots than the pull would scan."""
    import numpy as np

    indptr, indices = csr
    counts = deg[t_dst]
    if not counts.all() or int(counts.sum()) >= len(indices):
        return False   # an isolated target never settles
    nbrs = _gather_neighbors(indices, indptr[t_dst], counts)
    vals = acc_flat[((t_src >> 6) * n).repeat(counts) + nbrs]
    firsts = counts.cumsum() - counts
    return bool((np.bitwise_or.reduceat(vals, firsts) & t_bit).all())


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
        adj, list(want), targets=want,
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
    """Component label of each queried vertex: its component's minimum
    vertex.

    Two queried vertices share a label iff they are connected; the
    result holds the queried vertices only.  A touched component is
    flooded once per batch — on an array substrate only while its label
    is unknown: the labels persist in the graph's :meth:`read_state
    <repro.graph.array_graph.ArrayDynamicGraph.read_state>`, so a later
    batch on the same snapshot answers from them without a traversal,
    and a later epoch carries them across its commits, so only a
    component that a delete split is flooded again.

    Charges depend only on the graph and the set of touched components,
    never on the order of ``vertices`` or on what an earlier batch
    labelled: each touched component is charged the whole-frontier flood
    from its minimum vertex (its root), work ``|V_C| + 2|E_C|``
    (``|frontier| + scanned`` per round) and depth ``rounds * log n``.
    A queried vertex outside the graph is its own neighborless component
    (one round, one scan).  When charging is enabled and no flood from
    a component's root has run (its first flood started elsewhere, or
    its label was carried), one flood from the root measures the charge
    (once per component per epoch on an array substrate); an uncharged
    call never floods a component twice.

    With a ``backend``, floods expand chunk-parallel across workers; the
    per-round scan count is partition-invariant, so answers *and* charges
    match the sequential path exactly in every mode.
    """
    if backend is not None:
        from repro.parallel.kernels import parallel_batch_components

        return parallel_batch_components(
            backend, adj, vertices, n=n, cost=cost, adj_version=adj_version,
        )
    logn = _log_n(adj, n)
    view = _epoch_view(adj)
    if view is not None:
        return _batch_components_csr(*view, vertices, cost=cost, logn=logn)
    # the reference loop: labels and root charges live for this call only
    neighbors = _neighbor_lookup(adj)
    comp: dict[int, int] = {}                 # flooded vertex -> root
    floods: dict[int, tuple[int, int]] = {}   # root -> (work, rounds)
    out: dict[int, int] = {}
    for v0 in vertices:
        if v0 in out:
            continue
        root = comp.get(v0)
        if root is None:
            members, flood = _flood(neighbors, v0)
            root = min(members)
            comp.update(dict.fromkeys(members, root))
            if root == v0:
                floods[root] = flood
        out[v0] = root
    if cost.enabled:
        for root in dict.fromkeys(out.values()):
            work, rounds = floods.get(root) or _flood(neighbors, root)[1]
            cost.charge_many(work, rounds * logn)
    return out


def _flood(neighbors, v0: int) -> tuple[list[int], tuple[int, int]]:
    """Whole-frontier flood from ``v0``: its component's vertices plus
    ``(work, rounds)``, work counting ``|frontier| + scanned`` per
    round."""
    seen = {v0}
    members = [v0]
    frontier = [v0]
    work = rounds = 0
    while frontier:
        rounds += 1
        work += len(frontier)
        nxt: list[int] = []
        for u in frontier:
            for w in neighbors(u):
                work += 1
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        members += nxt
        frontier = nxt
    return members, (work, rounds)


def _batch_components_csr(
    csr,
    state: EpochReadState,
    vertices: Iterable[int],
    *,
    cost: CostModel,
    logn: int,
) -> dict[int, int]:
    """:func:`batch_components` from an epoch's memoized labels.

    The epoch's labels come from :meth:`EpochReadState.component_labels
    <repro.graph.array_graph.EpochReadState.component_labels>`, carried
    from an earlier epoch when they can be.  Each queried vertex whose
    component is still unlabelled costs one vectorized flood
    (:func:`_flood_csr`), which labels the whole component with its
    minimum vertex; every other queried vertex is one gather from
    ``state.labels``.  Charges replay the root floods stored in
    ``state.floods``, flooding from a root the epoch has not flooded.
    """
    import numpy as np

    indptr, _ = csr
    n = len(indptr) - 1
    labels = state.component_labels()
    out: dict[int, int] = {}
    inside: list[int] = []
    for v in dict.fromkeys(vertices):
        if 0 <= v < n:
            inside.append(v)
        else:
            out[v] = v   # an absent vertex is its own component
    roots: list[int] = []
    if inside:
        idx = np.array(inside, dtype=np.int64)
        lab = labels[idx]
        todo = np.flatnonzero(lab < 0).tolist()
        if todo:
            sc = state.acquire()
            for i in todo:
                v0 = inside[i]
                if labels[v0] >= 0:
                    continue   # an earlier flood of this call
                members, flood = _flood_csr(csr, state, sc, v0)
                root = int(members.min())
                labels[members] = root
                if root == v0:
                    state.floods[root] = flood
            state.release(sc)
            lab = labels[idx]
        roots = lab.tolist()
        out.update(zip(inside, roots))
    if cost.enabled:
        extra = len(out) - len(inside)
        cost.charge_many(extra, extra * logn)
        for root in dict.fromkeys(roots):
            flood = state.floods.get(root)
            if flood is None:
                sc = state.acquire()
                flood = state.floods[root] = _flood_csr(csr, state, sc,
                                                        root)[1]
                state.release(sc)
            work, rounds = flood
            cost.charge_many(work, rounds * logn)
    return out


def _flood_csr(csr, state: EpochReadState, sc: SweepScratch, v0: int):
    """Vectorized :func:`_flood` over a CSR view: ``(members, (work,
    rounds))``.

    Whole-frontier rounds; a round pushes (gather the frontier's
    neighbor slices, dedup through the position scratch, no sort) or,
    past ``1 / PULL_FACTOR`` of the adjacency, pulls (one segmented OR of
    frontier membership over the non-empty rows).  The visited marks
    live in the leased scratch and are cleared for exactly the members
    before returning.
    """
    import numpy as np

    indptr, indices = csr
    deg, nz_rows, nz_starts = state.rows(indptr)
    seen, pos, mark = sc.seen, sc.pos, sc.mark
    seen[v0] = True
    frontier = np.array([v0], dtype=np.int64)
    parts = [frontier]
    work = rounds = 0
    while len(frontier):
        counts = deg[frontier]
        scanned = int(np.add.reduce(counts))
        work += len(frontier) + scanned
        rounds += 1
        if PULL_FACTOR * scanned > len(indices):
            mark[frontier] = True
            hit = np.logical_or.reduceat(mark[indices], nz_starts)
            mark[frontier] = False
            new = nz_rows[hit]
            new = new[~seen[new]]
        else:
            nbrs = _gather_neighbors(indices, indptr[frontier], counts)
            new = nbrs[~seen[nbrs]]
            slot = np.arange(len(new))
            pos[new] = slot
            new = new[pos[new] == slot]
        seen[new] = True
        parts.append(new)
        frontier = new
    members = np.concatenate(parts)
    seen[members] = False
    return members, (work, rounds)


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
        targets=want,
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
