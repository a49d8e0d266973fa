"""Parallel batch-dynamic decremental Even–Shiloach tree (Theorem 1.2).

Maintains a shortest-path tree of depth at most ``L`` from a fixed source in
a *directed* unweighted graph, under batches of edge deletions, with

* initialization: O(m log n) work, O(L log n + log² n) depth,
* per deletion batch: O(L log n) amortized work per deleted edge and
  O(L log² n) worst-case depth.

Structure (Section 3.2 of the paper):

* ``IN(v)`` — a :class:`~repro.structures.PriorityArray` of the in-edges of
  ``v``, positions ordered by decreasing priority.  Deleted edges stay in the
  array marked dead so that scan positions remain stable.
* ``SCAN(v)`` — the scan pointer (Invariant A1: it rests on the parent edge,
  the first valid in-edge at level ``DIST(v) - 1``).  We store it as the
  *priority* of the parent edge; the position is recovered with ``count_ge``
  so that priority reorders elsewhere in the array cannot corrupt it.
* deletions are processed in phases ``i = 1..L`` over buckets of vertices
  whose distance may grow past ``i`` (Invariants A2–A4); each phase is one
  parallel round of ``NextWith`` scans.

Mutation state is per vertex, never keyed by edge: each source ``u`` keeps
one ``{target: priority}`` map over its *live* out-edges (a delete pops the
edge, a re-key writes the new priority in place), and each target ``v`` the
set of its deleted in-edge sources, which the scans read because ``IN(v)``
keeps dead entries.  An array-built tree
(:meth:`BatchDynamicESTree.from_arrays`) carves each ``IN(v)`` and each
out-edge map from its slice of the construction arrays the first time it
is touched.

Priorities
----------
The spanner of Section 3.3 orders each ``IN(v)`` by cluster priority and
*updates* priorities as clusters move; plain Theorem 1.2 usage does not care.
Callers may pass per-edge priorities (distinct within each ``IN(v)``); by
default edges are prioritized arbitrarily.  :meth:`update_edge_priority` and
:meth:`find_parent_candidate` expose the hooks the spanner layer needs.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.pram.cost import NULL_COST_MODEL, CostModel, log2ceil
from repro.structures.priority_array import PriorityArray

__all__ = ["BatchDynamicESTree", "ParentChange", "scan_bucket_kernel"]

DirEdge = tuple[int, int]


def scan_bucket_kernel(args, shared, cost):
    """Pool-shippable phase-``i`` scan kernel (Algorithm 1's level scan).

    ``args`` is ``{"universe": U, "items": [spec, ...]}`` where each spec
    ``(v, scan_pri, want, pris, vals, dists, dead)`` carries everything a
    vertex's rescan reads: its ``IN(v)`` contents (ascending priorities +
    position-ordered values), its scan-pointer priority, the target parent
    level ``want = i - 1``, the current distance of every candidate parent,
    and the deleted in-edge sources.  Scans within a phase are independent
    of each other's mutations (a phase only moves distances ``i -> i + 1``,
    never to ``i - 1``, and aliveness is fixed before phase 1), so shipping
    them is partition-safe.

    Returns ``[(v, q, work, depth), ...]`` — the found position plus the
    *exact* scalar charges, reproduced by replaying ``_scan_position`` +
    ``next_with`` on a reconstructed :class:`PriorityArray` under a
    recording model; the caller re-charges them inside its own parallel
    region so the merged totals are byte-identical to the inline phase.
    """
    universe = args["universe"]
    out = []
    for v, scan_pri, want, pris, vals, dists, dead in args["items"]:
        pa = PriorityArray.__new__(PriorityArray)
        pa._universe = universe
        pa._cost = cost
        pa._bulk_pri = np.asarray(pris, dtype=np.int64)
        pa._bulk_vals = list(vals)
        pa._values = None
        pa._sorted = None
        du = dict(zip(vals, dists))
        ds = set(dead)
        with cost.frame() as fr:
            pos = (
                max(pa.count_ge(scan_pri), 1)
                if scan_pri is not None else 1
            )
            q = pa.next_with(
                pos, lambda u: u not in ds and du[u] == want
            )
        out.append((v, q, fr.work, fr.depth))
    return out


class ParentChange:
    """Record of one parent-pointer change during a deletion batch.

    ``new_parent is None`` means the vertex fell out of the depth-``L`` tree
    (its distance is now ``L + 1``).
    """

    __slots__ = ("vertex", "old_parent", "new_parent", "old_dist", "new_dist")

    def __init__(self, vertex, old_parent, new_parent, old_dist, new_dist):
        self.vertex = vertex
        self.old_parent = old_parent
        self.new_parent = new_parent
        self.old_dist = old_dist
        self.new_dist = new_dist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParentChange(v={self.vertex}, {self.old_parent}->"
            f"{self.new_parent}, d {self.old_dist}->{self.new_dist})"
        )


class _LazyInArrays:
    """List-like view of the per-vertex ``IN(v)`` PriorityArrays, carved
    out of the globally (target, priority)-sorted edge arrays.

    Each :class:`PriorityArray` object materializes on first index — the
    batch-deletion path only ever touches the vertices it rescans, so an
    array-built tree never pays for the arrays it does not visit.  The
    Lemma 3.1 initialization charge for *all* ``n`` arrays is taken
    up-front by the constructor (see
    :meth:`BatchDynamicESTree.from_arrays`), exactly as the scalar
    constructor does; indexing here is charge-free.
    """

    __slots__ = ("_arrs", "_pv", "_uv", "_ipt", "_universe", "_cost")

    def __init__(self, n, pv, uv, ipt, universe, cost) -> None:
        self._arrs: list[PriorityArray | None] = [None] * n
        self._pv = pv
        self._uv = uv
        self._ipt = ipt
        self._universe = universe
        self._cost = cost

    def __len__(self) -> int:
        return len(self._arrs)

    def __getitem__(self, v: int) -> PriorityArray:
        pa = self._arrs[v]
        if pa is None:
            a, b = self._ipt[v], self._ipt[v + 1]
            pa = PriorityArray.__new__(PriorityArray)
            pa._universe = self._universe
            pa._cost = self._cost
            pa._bulk_pri = self._pv[a:b]
            pa._bulk_vals = self._uv[a:b][::-1]
            pa._values = None
            pa._sorted = None
            self._arrs[v] = pa
        return pa


class _LazyOutMaps:
    """List-like view of the per-source live out-edge maps
    ``{target: priority}``, each carved from the priority-aligned out-CSR
    on first index.

    Exact when built late: a deletion of ``u -> v`` pops ``v`` from
    ``u``'s map and a re-key of ``u -> v`` writes the new priority into
    it, both building the map first (see
    :meth:`BatchDynamicESTree.batch_delete` step 1 and
    :meth:`BatchDynamicESTree.update_edge_priority`), so a map still
    unbuilt belongs to a source none of whose out-edges changed — its CSR
    slice is its current state.
    """

    __slots__ = ("_maps", "_ipt", "_dst", "_pri")

    def __init__(self, n, indptr, dst, pri) -> None:
        self._maps: list[dict[int, int] | None] = [None] * n
        self._ipt = indptr.tolist()
        self._dst = dst
        self._pri = pri

    def __len__(self) -> int:
        return len(self._maps)

    def __getitem__(self, u: int) -> dict[int, int]:
        m = self._maps[u]
        if m is None:
            a, b = self._ipt[u], self._ipt[u + 1]
            m = dict(zip(self._dst[a:b].tolist(), self._pri[a:b].tolist()))
            self._maps[u] = m
        return m


class BatchDynamicESTree:
    """Theorem 1.2 data structure.

    Parameters
    ----------
    n:
        Number of vertices (ids ``0..n-1``).
    edges:
        Directed edges ``(u, v)`` meaning ``u -> v``.  Duplicates rejected.
    source:
        BFS root.
    limit:
        Tree depth bound ``L``; vertices farther than ``L`` carry distance
        ``L + 1`` and no parent.
    priority:
        Optional map ``(u, v) -> int`` giving the initial priority of the
        edge inside ``IN(v)``; priorities must be distinct per target vertex
        and fit in ``universe``.  Default: arbitrary distinct values.
    universe:
        Priority universe size (default ``max(n^2, 4)``, enough for the
        default assignment).
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[DirEdge],
        source: int,
        limit: int,
        priority: dict[DirEdge, int] | None = None,
        universe: int | None = None,
        cost: CostModel = NULL_COST_MODEL,
    ) -> None:
        self.n = n
        self.L = limit
        self.source = source
        self._cost = cost
        edges = list(edges)
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate directed edges")
        self._universe = universe if universe is not None else max(n * n, 4)
        self._dead_in: dict[int, set[int]] = {}

        # scalar path: the live out-edge maps are built eagerly
        self._out: list[dict[int, int]] = [{} for _ in range(n)]
        in_items: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        default_counter = 0
        for u, v in edges:
            if priority is not None:
                p = priority[(u, v)]
            else:
                p = default_counter
                default_counter += 1
            if p >= self._universe:
                raise ValueError("priority exceeds universe")
            self._out[u][v] = p
            in_items[v].append((u, p))

        self.in_arr: list[PriorityArray] = [
            PriorityArray(self._universe, [(u, p) for u, p in in_items[v]], cost=cost)
            for v in range(n)
        ]

        # Lemma 3.2 initialization of distances.
        from repro.bfs.bounded_bfs import bounded_bfs_directed

        self.dist: list[int] = bounded_bfs_directed(
            n, [sorted(d) for d in self._out], source, limit, cost=cost
        )
        self.parent: list[int | None] = [None] * n
        # scan pointer, stored as the parent edge's priority (None = no
        # parent / scan from the start of the list).
        self._scan_pri: list[int | None] = [None] * n
        def init_attach(v: int) -> None:
            q = self.in_arr[v].next_with(1, self._parent_pred(v))
            assert q <= len(self.in_arr[v]), (
                f"no parent for reachable vertex {v}"
            )
            self._attach(v, q)

        candidates = [
            v for v in range(n)
            if v != source and 1 <= self.dist[v] <= limit
        ]
        # Routed through ParallelScope.map so an installed execution
        # backend sees the region; the closure mutates shared tree state,
        # so backends run it inline (charge-identical to the plain loop).
        with cost.parallel() as par:
            par.map(candidates, init_attach)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        src,
        dst,
        pri,
        source: int,
        limit: int,
        *,
        universe: int,
        cost: CostModel = NULL_COST_MODEL,
    ) -> "BatchDynamicESTree":
        """Array-native construction: directed edges ``src[i] -> dst[i]``
        with priority ``pri[i]`` inside ``IN(dst[i])``.

        Functionally identical to ``BatchDynamicESTree(n, edges, ...)`` with
        an explicit priority map, but every initialization stage runs as
        whole-array numpy operations — the ``IN(v)`` arrays are carved out
        of one global lexsort, distances come from the CSR bounded BFS, and
        the initial parent attachment is a single grouped reduction instead
        of per-vertex galloping scans.  Charged work/depth is byte-identical
        to the scalar constructor (the charges are closed-form functions of
        the item counts and scan schedules; see Lemma 3.1/3.2), which the
        cross-substrate equivalence tests pin.

        The mutation state is per vertex and built on first touch: each
        ``IN(v)`` array and each source's live out-edge map ``{target:
        priority}`` is carved from its slice of the (target, priority)-
        sorted arrays or of the priority-aligned out-CSR the first time a
        delete, a re-key or a read reaches it, so a query-only instance
        builds none, and no table is ever keyed by edge.
        """
        self = cls.__new__(cls)
        self.n = n
        self.L = limit
        self.source = source
        self._cost = cost
        self._universe = universe
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        pri = np.ascontiguousarray(pri, dtype=np.int64)
        m = len(src)
        if len(dst) != m or len(pri) != m:
            raise ValueError("src/dst/pri length mismatch")
        if m and ((pri < 0) | (pri >= universe)).any():
            raise ValueError("priority outside [0, universe)")
        if m and not (
            0 <= int(src.min())
            and int(src.max()) < n
            and 0 <= int(dst.min())
            and int(dst.max()) < n
        ):
            raise IndexError("edge endpoint outside [0, n)")
        logu = log2ceil(universe)

        # IN(v) storage: one global sort by (target, priority); each
        # vertex's slice is ascending-priority, exactly the bulk layout
        # PriorityArray uses.
        order_in = np.lexsort((pri, dst))
        dv, pv, uv = dst[order_in], pri[order_in], src[order_in]
        if m > 1:
            same_v = dv[1:] == dv[:-1]
            if (same_v & (uv[1:] == uv[:-1])).any():
                raise ValueError("duplicate directed edges")
            dup = same_v & (pv[1:] == pv[:-1])
            if dup.any():
                raise ValueError(
                    f"duplicate priority {int(pv[1:][dup][0])}"
                )
        in_counts = np.bincount(dv, minlength=n) if m else np.zeros(
            n, dtype=np.int64
        )
        in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_counts, out=in_indptr[1:])
        self._dead_in = {}

        self.in_arr = _LazyInArrays(
            n, pv, uv, in_indptr.tolist(), universe, cost
        )
        # n sequential PriorityArray initializations, (l_v log U, log U)
        # each -- identical accumulation to the scalar constructor's loop.
        cost.charge_many(work=m * logu, depth=n * logu)

        # Lemma 3.2 initialization of distances (CSR fast path).
        from repro.bfs.bounded_bfs import bounded_bfs_csr

        order_out = np.argsort(src, kind="stable")
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        if m:
            np.cumsum(np.bincount(src, minlength=n), out=out_indptr[1:])
        out_indices = dst[order_out]
        self._out = _LazyOutMaps(n, out_indptr, out_indices, pri[order_out])
        dist_arr = bounded_bfs_csr(
            n, out_indptr, out_indices, source, limit, cost=cost
        )
        self.dist = dist_arr.tolist()
        self.parent = [None] * n
        self._scan_pri = [None] * n
        self._attach_all(dist_arr, dv, pv, uv, in_indptr, in_counts)
        return self

    def _attach_all(self, dist_arr, dv, pv, uv, in_indptr, in_counts):
        """Vectorized initial parent attachment.

        For every candidate ``v`` (``1 <= dist[v] <= L``) the scalar path
        gallops ``IN(v)`` from position 1 for the first in-edge ``(u, v)``
        with ``dist[u] == dist[v] - 1``; at init every edge is alive, so
        validity is one array comparison and the found position is the
        minimum valid position per target — a grouped reduction.  The
        parent region's charge is reconstructed in closed form: a scan
        that answers at position ``q`` runs ``P = bitlength(q)`` phases
        touching ``min(2^P - 1, l)`` slots, plus the two ``_attach`` tree
        ops, with the region contributing (sum of works, max of depths).
        """
        n, limit, logu = self.n, self.L, log2ceil(self._universe)
        m = len(dv)
        cand_total = int(
            ((dist_arr >= 1) & (dist_arr <= limit)).sum()
        )
        if m == 0 or cand_total == 0:
            assert cand_total == 0, "reachable vertex with no in-edges"
            return
        # position of each in-edge in IN(dst), 1-based, descending priority
        local = np.arange(m, dtype=np.int64) - np.repeat(
            in_indptr[:-1], in_counts
        )
        pos_desc = in_counts[dv] - local
        valid = dist_arr[uv] == dist_arr[dv] - 1
        valid &= (dist_arr[dv] >= 1) & (dist_arr[dv] <= limit)
        vs = dv[valid]
        if len(vs) == 0:
            raise AssertionError("no parent for any reachable vertex")
        # within each dv-group priorities ascend, so positions descend:
        # the last valid entry per group is the minimum position q.
        ends = np.nonzero(vs[1:] != vs[:-1])[0]
        ends = np.concatenate([ends, [len(vs) - 1]])
        cand_v = vs[ends]
        assert len(cand_v) == cand_total, (
            "no parent for some reachable vertex"
        )
        q_arr = pos_desc[valid][ends]
        par_u = uv[valid][ends]
        par_p = pv[valid][ends]
        for v, u, p in zip(
            cand_v.tolist(), par_u.tolist(), par_p.tolist()
        ):
            self.parent[v] = u
            self._scan_pri[v] = p
        # region charge: per candidate next_with(1, .) ending at q plus
        # two charge_tree_op(universe) calls from _attach.
        phases = np.frexp(q_arr.astype(np.float64))[1].astype(np.int64)
        scanned = np.minimum(
            (1 << phases) - 1, in_counts[cand_v]
        )
        work = int(((scanned + 2) * logu).sum())
        depth = int((int(phases.max()) + 2) * logu)
        self._cost.charge_many(work=work, depth=depth)

    # -- helpers ---------------------------------------------------------

    def _parent_pred(self, v: int) -> Callable[[int], bool]:
        # Applied only to values of IN(v), which holds exactly v's original
        # in-edges, so "alive" is "not among v's deleted in-edges".
        dist, want = self.dist, self.dist[v] - 1
        dead = self._dead_in.get(v, ())
        return lambda u: u not in dead and dist[u] == want

    def _attach(self, v: int, position: int) -> None:
        """Make the edge at ``position`` of ``IN(v)`` the parent edge."""
        u = self.in_arr[v].query(position)
        self.parent[v] = u
        self._scan_pri[v] = self.in_arr[v].priority_at(position)

    def _scan_position(self, v: int) -> int:
        """Current scan position in ``IN(v)`` (1-based)."""
        sp = self._scan_pri[v]
        if sp is None:
            return 1
        # Number of entries with priority >= sp = position of the scan edge
        # (or of its successor block if the edge's priority moved).
        return max(self.in_arr[v].count_ge(sp), 1)

    # -- queries -----------------------------------------------------------

    def dist_of(self, v: int) -> int:
        """Current distance label of ``v`` (``L + 1`` = beyond the tree)."""
        return self.dist[v]

    def parent_of(self, v: int) -> int | None:
        """Current tree parent of ``v`` (None for the source / detached)."""
        return self.parent[v]

    def distances(self) -> list[int]:
        """Copy of the full distance array."""
        return list(self.dist)

    def tree_edges(self) -> Iterator[DirEdge]:
        """Current shortest-path-tree edges ``(parent, child)``."""
        for v in range(self.n):
            if self.parent[v] is not None:
                yield (self.parent[v], v)

    def is_alive(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` is still present (False for
        an id outside ``[0, n)``)."""
        return 0 <= u < self.n and 0 <= v < self.n and v in self._out[u]

    def out_edges(self, u: int) -> dict[int, int]:
        """The live out-edges of ``u`` as ``{target: priority}``.

        This is the tree's own map, kept current by deletes and re-keys:
        read it, do not mutate it."""
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} outside [0, {self.n})")
        return self._out[u]

    # -- the Theorem 1.2 deletion procedure ---------------------------------

    def batch_delete(self, edges: Iterable[DirEdge]) -> list[ParentChange]:
        """Delete a batch of directed edges; returns every parent change.

        Phases follow Algorithm 1: bucket ``i`` holds the vertices whose
        distance-``i`` label must be revalidated; a vertex that finds no
        parent at level ``i - 1`` moves to bucket ``i + 1`` with its scan
        pointer reset, orphaning its tree children.
        """
        edges = list(edges)
        logn = log2ceil(max(self.n, 2))
        changes: list[ParentChange] = []
        buckets: dict[int, set[int]] = {}
        old_parent: dict[int, int | None] = {}
        old_dist: dict[int, int] = {}

        def orphan(v: int) -> None:
            if v not in old_parent:
                old_parent[v] = self.parent[v]
                old_dist[v] = self.dist[v]
            buckets.setdefault(self.dist[v], set()).add(v)

        # The whole batch is checked before anything changes: an absent
        # edge, or one repeated within the batch, leaves the tree intact.
        seen: set[DirEdge] = set()
        for u, v in edges:
            if (u, v) in seen or not self.is_alive(u, v):
                raise KeyError(f"edge {(u, v)} not alive")
            seen.add((u, v))

        # Step 1: mark edges dead; collect orphans (one parallel round).
        # Every branch charges the same (logn, logn), so the whole round is
        # one aggregate pfor charge: work = |edges| * logn, depth = logn.
        out, dead_in = self._out, self._dead_in
        for u, v in edges:
            del out[u][v]
            dead_in.setdefault(v, set()).add(u)
            if self.parent[v] == u:
                orphan(v)
                self.parent[v] = None
        self._cost.pfor_cost(len(edges), logn, depth=logn)

        # Step 2: phases i = 1..L (Invariants A2-A4).  With a pool backend
        # installed on the cost model the phase's *scans* ship to worker
        # processes (they are read-only and independent within a phase —
        # see :func:`scan_bucket_kernel`) and the mutations apply inline
        # from the returned positions; otherwise the phase runs inline via
        # the backend seam as before.  Charges identical either way.
        backend = self._cost.backend
        for i in range(1, self.L + 1):
            bucket = buckets.pop(i, None)
            if not bucket:
                continue
            vs = sorted(bucket)
            if (
                backend is not None
                and backend.workers > 1
                and len(vs) >= backend.min_items
            ):
                self._pool_phase(
                    backend, vs, i, orphan, changes, old_parent, old_dist
                )
                continue
            with self._cost.parallel() as par:
                par.map(
                    vs,
                    lambda v: self._process_vertex(
                        v, i, orphan, changes, old_parent, old_dist
                    ),
                )
        assert not buckets, f"unprocessed buckets at levels {sorted(buckets)}"
        return changes

    def _pool_phase(
        self, backend, vs, i, orphan, changes, old_parent, old_dist
    ) -> None:
        """Run one phase with its scans shipped to the pool (the PR 8
        follow-on): extract each vertex's scan inputs, fan the chunks out
        through :meth:`ExecutionBackend.map_chunks`, then apply mutations
        inline in canonical (sorted) order.  Each applied branch first
        re-charges the scan's exact ``(work, depth)`` so the parallel
        region accumulates the byte-identical totals of the inline phase
        (scan + apply compose sequentially *within* a branch)."""
        dist = self.dist
        specs = []
        for v in vs:
            assert dist[v] == i
            pa = self.in_arr[v]
            if pa._bulk_pri is not None:
                pris = pa._bulk_pri.tolist()
                bv = pa._bulk_vals
                vals = bv.tolist() if isinstance(bv, np.ndarray) else list(bv)
            else:
                pris = list(pa._sorted)
                vals = [pa._values[p] for p in reversed(pa._sorted)]
            dead = self._dead_in.get(v)
            specs.append((
                v, self._scan_pri[v], i - 1, pris, vals,
                [dist[u] for u in vals],
                sorted(dead) if dead else (),
            ))
        per = max(1, -(-len(specs) // (2 * backend.workers)))
        chunks = [
            {"universe": self._universe, "items": specs[j:j + per]}
            for j in range(0, len(specs), per)
        ]
        results = backend.map_chunks(scan_bucket_kernel, chunks)
        with self._cost.parallel() as par:
            for res in results:
                for v, q, w, d in res.value:
                    with par.task():
                        self._cost.charge_many(work=w, depth=d)
                        self._apply_scan(
                            v, i, q, orphan, changes, old_parent, old_dist
                        )

    def _process_vertex(
        self,
        v: int,
        i: int,
        orphan: Callable[[int], None],
        changes: list[ParentChange],
        old_parent: dict[int, int | None],
        old_dist: dict[int, int],
    ) -> None:
        """Phase-``i`` rescan of vertex ``v`` (current dist ``i``)."""
        assert self.dist[v] == i
        arr = self.in_arr[v]
        pos = self._scan_position(v)
        q = arr.next_with(pos, self._parent_pred(v))
        self._apply_scan(v, i, q, orphan, changes, old_parent, old_dist)

    def _apply_scan(
        self,
        v: int,
        i: int,
        q: int,
        orphan: Callable[[int], None],
        changes: list[ParentChange],
        old_parent: dict[int, int | None],
        old_dist: dict[int, int],
    ) -> None:
        """Apply the outcome of ``v``'s phase-``i`` scan (found position
        ``q``, or past-the-end for "no parent at level ``i - 1``")."""
        arr = self.in_arr[v]
        if q <= len(arr):
            # Found a parent at level i - 1; distance stays i.
            self._attach(v, q)
            if self.parent[v] != old_parent[v] or i != old_dist[v]:
                changes.append(
                    ParentChange(v, old_parent[v], self.parent[v],
                                 old_dist[v], i)
                )
            else:
                del old_parent[v], old_dist[v]
            return
        # No parent at this level: distance grows, scan resets, children
        # are orphaned (they sit at level i + 1 and re-bucket there).
        self.parent[v] = None
        self._scan_pri[v] = None
        children = self._out[v]
        for w in sorted(children):
            if self.parent[w] == v:
                orphan(w)
                self.parent[w] = None
        # one parallel round over the children: work = deg, depth = 1
        self._cost.charge_many(work=len(children), depth=1)
        if i + 1 <= self.L:
            self.dist[v] = i + 1
            orphan(v)  # rebucket at level i + 1 (orphan() reads dist[v])
        else:
            self.dist[v] = self.L + 1
            changes.append(
                ParentChange(v, old_parent[v], None, old_dist[v], self.L + 1)
            )

    # -- hooks for the spanner layer (Section 3.3) ---------------------------

    def update_edge_priority(self, u: int, v: int, new_priority: int) -> None:
        """Re-key the edge ``u -> v`` inside ``IN(v)``.

        If the edge is ``v``'s parent edge the scan pointer follows it when
        the priority increases; when it decreases the pointer keeps the *old*
        slot so that a single :meth:`find_parent_candidate` call from there
        sees every edge that jumped over the parent (the paper's "single
        NextWith" detection).  The edge must be alive (KeyError otherwise).
        """
        out_u = self.out_edges(u)
        old_p = out_u[v]
        if old_p == new_priority:
            return
        _, k = self.in_arr[v].find(old_p)
        self.in_arr[v].update_priority(k, new_priority)
        out_u[v] = new_priority
        if self.parent[v] == u and new_priority > (self._scan_pri[v] or 0):
            self._scan_pri[v] = new_priority
        # On decrease, _scan_pri[v] intentionally keeps the old value.

    def find_parent_candidate(self, v: int, from_start: bool = False) -> int | None:
        """Best (highest-priority) valid parent of ``v`` scanning from the
        current pointer (or the list head).  Returns the vertex or None."""
        if v == self.source or self.dist[v] > self.L or self.dist[v] == 0:
            return None
        arr = self.in_arr[v]
        pos = 1 if from_start else self._scan_position(v)
        q = arr.next_with(pos, self._parent_pred(v))
        if q > len(arr):
            return None
        return arr.query(q)

    def set_parent(self, v: int, u: int) -> None:
        """Adopt ``u`` as parent of ``v`` (must be a valid candidate)."""
        if not self.is_alive(u, v) or self.dist[u] != self.dist[v] - 1:
            raise ValueError(f"{u} is not a valid parent for {v}")
        self.parent[v] = u
        self._scan_pri[v] = self._out[u][v]

    def parent_edge_priority(self, v: int) -> int | None:
        """Priority of ``v``'s current parent edge (None if no parent)."""
        u = self.parent[v]
        return None if u is None else self._out[u][v]
