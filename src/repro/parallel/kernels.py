"""Chunked data-parallel kernels for the batch query traversals.

These are the shippable counterparts of the level-synchronous loops in
:mod:`repro.queries.batch`: each BFS/flood round splits its frontier into
one contiguous chunk per worker and expands the chunks concurrently via
:meth:`ExecutionBackend.map_chunks`.

Correctness model
-----------------
* **Answers are exact.**  Workers hold a *mirror* of the reached/visited
  state, kept in sync by per-round deltas (the merged discoveries of the
  previous round).  A vertex discovered by two chunks in the same round is
  deduplicated by the parent during the merge, which also assigns
  distances/labels — first chunk in canonical order wins, exactly like the
  first discoverer in the sequential scan order (chunks are contiguous
  slices of the same frontier order).
* **Charges are identical** to the sequential loops in every mode.  The
  sequential loop charges ``pfor_cost(scans, 1, depth=logn)`` per round
  where ``scans`` counts every live frontier vertex plus every scanned
  neighbor *unconditionally* — a quantity invariant under frontier
  partitioning — and the parallel driver opens a ``parallel()`` region and
  absorbs each chunk's ``(scans, logn)``, which merges to the same
  ``(sum, max)`` pair.  Multi-source BFS **with target pruning** retires a
  source at the round boundary after its last target settled, so the set
  of live sources is fixed for the whole round on every path: charges are
  partition-invariant there too, and the pool runs targets mode charged.
* Mirror state lives in worker-process module globals keyed by a
  backend-unique sweep token; rounds must be dispatched **pinned**
  (chunk *i* → worker *i*) so every worker sees every delta exactly once.
  One sweep per backend may be in flight at a time.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..graph.traversal import _neighbor_lookup
from ..pram.cost import NULL_COST_MODEL, CostModel, log2ceil
from .backend import ExecutionBackend

__all__ = [
    "mbfs_round_kernel",
    "components_round_kernel",
    "parallel_multi_source_bfs",
    "parallel_batch_components",
]

#: worker-local sweep scratch: {kind: {"token": int, "level": int, state...}}
_SCRATCH: dict[str, dict[str, Any]] = {}


def _sweep_state(kind: str, token: int, fresh: dict[str, Any]) -> dict[str, Any]:
    st = _SCRATCH.get(kind)
    if st is None or st["token"] != token:
        st = {"token": token, "level": -1}
        st.update(fresh)
        _SCRATCH[kind] = st
    return st


def mbfs_round_kernel(
    args: Mapping[str, Any], shared: Mapping[str, Any], cost: CostModel
) -> list[tuple[int, int]]:
    """Expand one chunk of a multi-source-BFS frontier round.

    ``args``: ``token`` (sweep id), ``level`` (round number), ``delta``
    (merged ``(vertex, added-bits)`` discoveries of the previous round),
    ``chunk`` (this worker's slice of the frontier, as ``(vertex, mask)``
    pairs), ``active`` (bitmask of still-active sources).  ``shared`` must
    carry the adjacency under ``args["adj_key"]``.

    Returns the locally-new ``(vertex, bits)`` pairs; charges
    ``(scans, logn)`` where ``scans`` counts live frontier vertices plus
    every neighbor scan, exactly as the sequential round does.
    """
    st = _sweep_state("mbfs", args["token"], {"reached": {}})
    reached: dict[int, int] = st["reached"]
    level = args["level"]
    if st["level"] < level:
        for v, bits in args["delta"]:
            reached[v] = reached.get(v, 0) | bits
        st["level"] = level
    neighbors = _neighbor_lookup(shared[args["adj_key"]])
    active = args["active"]
    scans = 0
    nxt: dict[int, int] = {}
    for u, mask in args["chunk"]:
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
    cost.charge_many(scans, args["logn"])
    return list(nxt.items())


def components_round_kernel(
    args: Mapping[str, Any], shared: Mapping[str, Any], cost: CostModel
) -> list[int]:
    """Expand one chunk of a component-flood frontier round.

    Same protocol as :func:`mbfs_round_kernel` with a visited *set* mirror;
    returns locally-new vertices in scan order.
    """
    st = _sweep_state("components", args["token"], {"visited": set()})
    visited: set[int] = st["visited"]
    level = args["level"]
    if st["level"] < level:
        visited.update(args["delta"])
        st["level"] = level
    neighbors = _neighbor_lookup(shared[args["adj_key"]])
    scans = 0
    nxt: list[int] = []
    for u in args["chunk"]:
        scans += 1
        for w in neighbors(u):
            scans += 1
            if w not in visited:
                visited.add(w)
                nxt.append(w)
    cost.charge_many(scans, args["logn"])
    return nxt


def _chunks(seq: Sequence[Any], parts: int) -> list[Sequence[Any]]:
    """Split into exactly ``parts`` contiguous chunks (some possibly empty
    — every pinned worker must receive its round's delta regardless)."""
    n = len(seq)
    base, extra = divmod(n, parts)
    out = []
    idx = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(seq[idx : idx + size])
        idx += size
    return out


def parallel_multi_source_bfs(
    backend: ExecutionBackend,
    adj,
    sources: Sequence[int],
    *,
    targets: Mapping[int, Iterable[int]] | None = None,
    bound: int | None = None,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    adj_key: str = "mbfs:adj",
    adj_version: Any = None,
) -> dict[int, dict[int, int]]:
    """Backend-executed :func:`repro.queries.batch.multi_source_bfs`.

    Answers and charges are identical to the sequential function in every
    mode, with or without targets, for any ``min_items`` and worker
    count: target pruning happens at round boundaries on both paths (see
    the module docstring).
    """
    if n is None:
        n = len(adj)
    logn = log2ceil(max(n, 2))
    backend.put_shared(adj_key, adj, version=adj_version)
    neighbors = _neighbor_lookup(adj)

    srcs = list(dict.fromkeys(sources))
    k = len(srcs)
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
    cost.pfor_cost(k, 1, depth=logn)

    token = backend.new_token()
    # Discoveries not yet applied to worker mirrors (seed + inline rounds).
    pending_delta: list[tuple[int, int]] = list(frontier.items())
    level = 0
    while frontier and active:
        level += 1
        if bound is not None and level > bound:
            break
        items = list(frontier.items())
        nxt: dict[int, int] = {}
        settled = 0

        def _merge(pairs: Iterable[tuple[int, int]]) -> None:
            nonlocal settled
            for w, m in pairs:
                add = m & ~reached.get(w, 0)
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

        if len(items) < backend.min_items:
            # Tiny round: expand inline with the identical charge shape;
            # discoveries join pending_delta for the next dispatched round.
            scans = 0
            for u, mask in items:
                mask &= active
                if not mask:
                    continue
                scans += 1
                for w in neighbors(u):
                    scans += 1
                    m = mask & ~reached.get(w, 0)
                    if m:
                        _merge(((w, m),))
            cost.pfor_cost(scans, 1, depth=logn)
            backend._emulate(scans)
        else:
            parts = _chunks(items, backend.workers)
            payloads = [
                {
                    "token": token,
                    "level": level,
                    "delta": pending_delta,
                    "chunk": chunk,
                    "active": active,
                    "adj_key": adj_key,
                    "logn": logn,
                }
                for chunk in parts
            ]
            results = backend.map_chunks(
                mbfs_round_kernel,
                payloads,
                shared_keys=(adj_key,),
                pinned=True,
            )
            pending_delta = []
            if cost.enabled:
                with cost.parallel() as par:
                    for r in results:
                        if r.work:
                            par.absorb(r.work, r.depth)
            for r in results:
                _merge(r.value)
        # sources whose last target settled retire at the round boundary
        active &= ~settled
        pending_delta.extend(nxt.items())
        frontier = nxt
    return dist


def parallel_batch_components(
    backend: ExecutionBackend,
    adj,
    vertices: Iterable[int],
    *,
    n: int | None = None,
    cost: CostModel = NULL_COST_MODEL,
    adj_key: str = "mbfs:adj",
    adj_version: Any = None,
) -> dict[int, int]:
    """Backend-executed :func:`repro.queries.batch.batch_components`.

    Answers and charges are identical to the sequential function in every
    mode: the per-round ``scans`` count is invariant under frontier
    partitioning, so this path is safe even while charges are recorded.
    """
    if n is None:
        n = len(adj)
    logn = log2ceil(max(n, 2))
    backend.put_shared(adj_key, adj, version=adj_version)
    neighbors = _neighbor_lookup(adj)
    comp: dict[int, int] = {}
    for v0 in vertices:
        if v0 in comp:
            continue
        comp[v0] = v0
        token = backend.new_token()
        pending_delta: list[int] = [v0]
        frontier: list[int] = [v0]
        level = 0
        while frontier:
            level += 1
            nxt: list[int] = []
            if len(frontier) < backend.min_items:
                scans = 0
                for u in frontier:
                    scans += 1
                    for w in neighbors(u):
                        scans += 1
                        if w not in comp:
                            comp[w] = v0
                            nxt.append(w)
                cost.pfor_cost(scans, 1, depth=logn)
                backend._emulate(scans)
                pending_delta.extend(nxt)
            else:
                parts = _chunks(frontier, backend.workers)
                payloads = [
                    {
                        "token": token,
                        "level": level,
                        "delta": pending_delta,
                        "chunk": chunk,
                        "adj_key": adj_key,
                        "logn": logn,
                    }
                    for chunk in parts
                ]
                results = backend.map_chunks(
                    components_round_kernel,
                    payloads,
                    shared_keys=(adj_key,),
                    pinned=True,
                )
                pending_delta = []
                if cost.enabled:
                    with cost.parallel() as par:
                        for r in results:
                            if r.work:
                                par.absorb(r.work, r.depth)
                for r in results:
                    for w in r.value:
                        if w not in comp:
                            comp[w] = v0
                            nxt.append(w)
                pending_delta.extend(nxt)
            frontier = nxt
    return comp
