"""Array-native graph substrate: a CSR/numpy-backed ``DynamicGraph``.

:class:`ArrayDynamicGraph` is a drop-in replacement for
:class:`~repro.graph.dynamic_graph.DynamicGraph` — same constructor shape,
same ``insert_batch`` / ``delete_batch`` / ``neighbors`` / ``degree`` /
``edges`` / ``copy`` API, same :func:`~repro.graph.dynamic_graph.norm_edge`
normalization and error contracts — backed by flat ``numpy`` arrays instead
of a dict-of-sets:

* ``_nbr`` — one shared ``int32`` arena holding every vertex's neighbor
  slots contiguously,
* ``_start`` / ``_deg`` / ``_cap`` — per-vertex segment offset, live degree
  and capacity (the gap ``cap - deg`` is the vertex's *slack*, refilled in
  place by churn so single-edge updates never move memory),
* a vertex whose segment overflows relocates to the arena tail with doubled
  capacity; the abandoned segment is counted as *dead* space and an
  amortized whole-arena compaction runs once dead space exceeds the live
  size (classic CSR-with-holes, the GBBS flat-adjacency shape).

Memory: two ``int32`` slots per undirected edge plus O(n) bookkeeping —
roughly 8 bytes per edge plus slack, versus several hundred bytes per edge
for ``set``-of-``tuple`` adjacency.  That is what makes the 10^6-vertex
runs in EXPERIMENTS.md (E3) fit.

The substrate also carries an **epoch counter** (:attr:`version`): every
successful mutation batch increments it, so traversal kernels (and the
parallel backend's version-keyed adjacency broadcast — see
``repro.parallel``) can cache per-snapshot derived state keyed by
``(id(graph), graph.version)``.  :meth:`csr` returns the compacted
``(indptr, indices)`` view, cached per epoch, that the vectorized frontier
kernels in :mod:`repro.queries.batch` and :mod:`repro.graph.traversal`
consume — the one derived view a served epoch builds; :meth:`segments`
exposes the live arena itself, which the point-to-point search reads so
that a read between mutations builds no CSR.  :meth:`sorted_flat` has no
caller left: batched reads charge order-independently now.

Charge preservation: this class performs no cost-model charging of its own
(neither does ``DynamicGraph``); the traversal kernels that consume it
charge the *same* closed-form work/depth totals as the dict-substrate
loops, which ``tools/bench_gate.py`` pins exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.graph.dynamic_graph import Edge, norm_edge

__all__ = ["ArrayDynamicGraph"]

_I32 = np.int32
_I64 = np.int64


class ArrayDynamicGraph:
    """Simple undirected graph under batch edge updates, on flat arrays.

    Behaviourally identical to :class:`DynamicGraph` (the Hypothesis
    equivalence suite in ``tests/test_array_graph.py`` asserts it on
    random interleaved update sequences); additionally exposes the
    array-native accessors :meth:`neighbors_array`, :meth:`segments`
    and :meth:`csr` plus the :attr:`version` epoch counter.
    """

    #: minimum slack granted to a relocated vertex segment
    _MIN_GROW = 4
    #: batches at or below this size take the scalar apply path
    _SMALL_BATCH = 32

    def __init__(self, n: int, edges: Iterable[Edge] = (),
                 slack: int = 2) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        if slack < 0:
            raise ValueError("slack must be >= 0")
        self.n = n
        self._slack = slack
        self._m = 0
        #: epoch counter — incremented after every successful mutation batch
        self.version = 0
        self._start = np.zeros(n, dtype=_I64)
        self._deg = np.zeros(n, dtype=_I32)
        self._cap = np.zeros(n, dtype=_I32)
        self._nbr = np.empty(0, dtype=_I32)
        self._used = 0      # arena high-water mark
        self._dead = 0      # slots abandoned by relocation
        self._csr_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        # no reader left; kept for the replay benchmark (see sorted_flat)
        self._sorted_cache: tuple[int, list[int], list[int]] | None = None
        edges = list(edges)
        if edges:
            self._bulk_build(edges)

    # -- construction --------------------------------------------------------

    def _bulk_build(self, edges: list[Edge]) -> None:
        """Vectorized initial build (CSR layout with per-vertex slack)."""
        arr = np.asarray(edges, dtype=_I64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        a = np.minimum(arr[:, 0], arr[:, 1])
        b = np.maximum(arr[:, 0], arr[:, 1])
        n = self.n
        bad = (a == b) | (a < 0) | (b >= n)
        if bad.any():
            # re-run the scalar validation to raise the exact per-edge
            # error DynamicGraph would (first offender in input order)
            for u, v in edges:
                e = norm_edge(u, v)
                self._check_vertex(e[0])
                self._check_vertex(e[1])
            raise AssertionError("unreachable")  # pragma: no cover
        enc = a * n + b
        uniq = np.unique(enc)
        if len(uniq) != len(enc):
            seen: set[int] = set()
            for code in enc.tolist():
                if code in seen:
                    u, v = divmod(code, n)
                    raise ValueError(f"duplicate edge {(u, v)}")
                seen.add(code)
            raise AssertionError("unreachable")  # pragma: no cover
        ends = np.concatenate([a, b]).astype(_I32)
        other = np.concatenate([b, a]).astype(_I32)
        deg = np.bincount(ends, minlength=n).astype(_I32)
        cap = deg + np.minimum(deg, self._slack).astype(_I32)
        start = np.zeros(n, dtype=_I64)
        if n > 1:
            np.cumsum(cap[:-1], out=start[1:])
        order = np.argsort(ends, kind="stable")
        indptr = np.zeros(n + 1, dtype=_I64)
        np.cumsum(deg, out=indptr[1:])
        total = int(cap.sum())
        nbr = np.empty(max(total, 1), dtype=_I32)
        # scatter each directed endpoint into its vertex segment
        pos = start[ends[order]] + (np.arange(len(order)) - indptr[ends[order]])
        nbr[pos] = other[order]
        self._nbr = nbr
        self._start = start
        self._deg = deg
        self._cap = cap
        self._used = total
        self._dead = 0
        self._m = len(enc)
        self.version += 1
        self._csr_cache = None
        self._sorted_cache = None

    # -- queries -------------------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def __contains__(self, edge: Edge) -> bool:
        """Edge membership; False, not a raise, for a self-loop or an
        out-of-range pair."""
        u, v = edge
        a, b = (u, v) if u < v else (v, u)
        if not (0 <= a and b < self.n) or a == b:
            return False
        return self._has(a, b)

    def _has(self, a: int, b: int) -> bool:
        """Membership via the smaller endpoint's segment scan."""
        if self._deg[a] > self._deg[b]:
            a, b = b, a
        s = self._start[a]
        d = self._deg[a]
        if d == 0:
            return False
        return bool((self._nbr[s:s + d] == b).any())

    def edges(self) -> Iterator[Edge]:
        """Iterate the current (normalized) edges."""
        u_arr, v_arr = self._edge_arrays()
        return iter(list(zip(u_arr.tolist(), v_arr.tolist())))

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Normalized edge list as two aligned arrays (u < v)."""
        indptr, indices = self.csr()
        src = np.repeat(np.arange(self.n, dtype=_I32),
                        np.diff(indptr).astype(_I64))
        keep = src < indices
        return src[keep], indices[keep]

    def edge_set(self) -> set[Edge]:
        """Copy of the current edge set."""
        u_arr, v_arr = self._edge_arrays()
        return set(zip(u_arr.tolist(), v_arr.tolist()))

    def neighbors(self, v: int) -> set[int]:
        """The neighbor set of ``v`` (materialized copy)."""
        s = self._start[v]
        return set(self._nbr[s:s + self._deg[v]].tolist())

    def neighbors_array(self, v: int) -> np.ndarray:
        """Read-only ``int32`` view of ``v``'s live neighbor slots."""
        s = self._start[v]
        return self._nbr[s:s + self._deg[v]]

    def degree(self, v: int) -> int:
        """Current degree of ``v``."""
        return int(self._deg[v])

    # adjacency protocol for the traversal kernels: len() is the vertex
    # count and adj[u] the neighbor sequence, like a list-of-lists
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int) -> np.ndarray:
        return self.neighbors_array(v)

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live arena as ``(start, deg, arena)``: ``v``'s neighbors
        are ``arena[start[v]:start[v] + deg[v]]``.  Zero-copy and valid
        until the next mutation; callers must not write to it."""
        return self._start, self._deg, self._nbr

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compacted ``(indptr, indices)`` snapshot, cached per epoch."""
        cache = self._csr_cache
        if cache is not None and cache[0] == self.version:
            return cache[1], cache[2]
        indptr = np.zeros(self.n + 1, dtype=_I64)
        np.cumsum(self._deg, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=_I32)
        # one gather: positions of all live slots in arena order
        if self.n:
            live = _segment_positions(self._start, self._deg)
            indices[:] = self._nbr[live]
        self._csr_cache = (self.version, indptr, indices)
        return indptr, indices

    def sorted_flat(self) -> tuple[list[int], list[int]]:
        """Canonical flat adjacency ``(bounds, flat)``, cached per epoch.

        ``flat[bounds[v]:bounds[v + 1]]`` lists ``v``'s neighbors in
        ascending order as plain ints.  No caller is left (targets-mode
        :func:`repro.queries.batch.multi_source_bfs` prunes at round
        boundaries, so its charges no longer depend on scan order); it
        and ``_sorted_cache`` stay only because the replay benchmark's
        tracer wraps them by name, until that tracer stops wrapping
        private names.
        """
        cache = self._sorted_cache
        if cache is not None and cache[0] == self.version:
            return cache[1], cache[2]
        indptr, indices = self.csr()
        if len(indices):
            # key = u * n + w sorts by segment (CSR order is already
            # ascending-u contiguous) then neighbor within each segment
            src = np.repeat(
                np.arange(self.n, dtype=_I64), np.diff(indptr)
            )
            key = src * self.n + indices
            key.sort()
            flat = (key % self.n).tolist()
        else:
            flat = []
        bounds = indptr.tolist()
        self._sorted_cache = (self.version, bounds, flat)
        return bounds, flat

    # -- batch updates -------------------------------------------------------

    def insert_batch(self, edges: Iterable[Edge]) -> list[Edge]:
        """Insert a batch; returns the normalized edges actually added.

        Raises on self-loops, out-of-range vertices, and duplicates within
        the batch or against current edges — the exact
        :class:`DynamicGraph` contract.  Validation completes before any
        mutation, so the batch is all-or-nothing.
        """
        added: list[Edge] = []
        batch: set[Edge] = set()
        n = self.n
        for u, v in edges:
            e = norm_edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                self._check_vertex(e[0])
                self._check_vertex(e[1])
            if e in batch or self._has(*e):
                raise ValueError(f"duplicate edge {e}")
            batch.add(e)
            added.append(e)
        if not added:
            return added
        self._apply_insert(added)
        return added

    def _apply_insert(self, added: list[Edge]) -> None:
        if len(added) <= self._SMALL_BATCH:
            # scalar path: per-flush serving deltas are a handful of
            # edges, where whole-array bincount/argsort overhead dwarfs
            # the work (the vectorized path costs O(n) per call)
            for a, b in added:
                for v, w in ((a, b), (b, a)):
                    d = int(self._deg[v])
                    if d >= int(self._cap[v]):
                        self._grow(v, d + 1)
                    self._nbr[int(self._start[v]) + d] = w
                    self._deg[v] = d + 1
            self._m += len(added)
            self.version += 1
            self._csr_cache = None
            self._sorted_cache = None
            return
        arr = np.asarray(added, dtype=_I32)
        ends = np.concatenate([arr[:, 0], arr[:, 1]])
        other = np.concatenate([arr[:, 1], arr[:, 0]])
        inc = np.bincount(ends, minlength=self.n).astype(_I32)
        # grow every vertex whose slack cannot absorb its new neighbors
        tight = np.nonzero(inc > (self._cap - self._deg))[0]
        for v in tight.tolist():
            self._grow(v, int(self._deg[v] + inc[v]))
        # scatter: per-endpoint offset within its vertex's new block
        order = np.argsort(ends, kind="stable")
        se = ends[order]
        offs = _within_group_offsets(se)
        pos = self._start[se] + self._deg[se] + offs
        self._nbr[pos] = other[order]
        self._deg += inc
        self._m += len(added)
        self.version += 1
        self._csr_cache = None
        self._sorted_cache = None

    def delete_batch(self, edges: Iterable[Edge]) -> list[Edge]:
        """Delete a batch; returns the normalized edges removed."""
        removed: list[Edge] = []
        batch: set[Edge] = set()
        for u, v in edges:
            e = norm_edge(u, v)
            if e in batch or not (
                0 <= e[0] and e[1] < self.n and self._has(*e)
            ):
                raise KeyError(f"edge {e} not present")
            batch.add(e)
            removed.append(e)
        if not removed:
            return removed
        if len(removed) <= self._SMALL_BATCH:
            # scalar swap-remove per endpoint (in-segment neighbor order
            # is not part of the contract; every consumer treats the
            # segment as a set)
            for a, b in removed:
                for v, w in ((a, b), (b, a)):
                    s = int(self._start[v])
                    d = int(self._deg[v])
                    seg = self._nbr[s:s + d]
                    i = seg.tolist().index(w)
                    seg[i] = seg[d - 1]
                    self._deg[v] = d - 1
            self._m -= len(removed)
            self.version += 1
            self._csr_cache = None
            self._sorted_cache = None
            return removed
        arr = np.asarray(removed, dtype=_I32)
        ends = np.concatenate([arr[:, 0], arr[:, 1]])
        other = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.argsort(ends, kind="stable")
        se, so = ends[order], other[order]
        bounds = np.nonzero(np.diff(se))[0] + 1
        groups = np.split(np.arange(len(se)), bounds)
        for g in groups:
            if len(g) == 0:
                continue
            v = int(se[g[0]])
            gone = set(so[g].tolist())
            s = int(self._start[v])
            d = int(self._deg[v])
            # set-based rewrite: segments are degree-sized, where a
            # python set probe beats an np.isin call per touched vertex
            kept = [w for w in self._nbr[s:s + d].tolist()
                    if w not in gone]
            self._nbr[s:s + len(kept)] = kept
            self._deg[v] = len(kept)
        self._m -= len(removed)
        self.version += 1
        self._csr_cache = None
        self._sorted_cache = None
        return removed

    # -- growth / compaction -------------------------------------------------

    def _grow(self, v: int, need: int) -> None:
        """Relocate ``v``'s segment to the arena tail with room for
        ``need`` live neighbors plus doubled slack."""
        new_cap = max(2 * need, 2 * int(self._cap[v]), self._MIN_GROW)
        d = int(self._deg[v])
        if self._used + new_cap > len(self._nbr):
            grow_to = max(self._used + new_cap,
                          int(1.5 * len(self._nbr)) + 16)
            arena = np.empty(grow_to, dtype=_I32)
            arena[:self._used] = self._nbr[:self._used]
            self._nbr = arena
        s = int(self._start[v])
        self._nbr[self._used:self._used + d] = self._nbr[s:s + d]
        self._start[v] = self._used
        self._dead += int(self._cap[v])
        self._cap[v] = new_cap
        self._used += new_cap
        if self._dead > max(64, self._used - self._dead):
            self.compact()

    def compact(self) -> None:
        """Rebuild the arena contiguously, restoring per-vertex slack.

        Runs automatically once relocation garbage exceeds the live size;
        callable explicitly after heavy churn.  O(n + m) vectorized.
        """
        deg = self._deg
        cap = deg + np.minimum(np.maximum(deg, 1), self._slack).astype(_I32)
        start = np.zeros(self.n, dtype=_I64)
        if self.n > 1:
            np.cumsum(cap[:-1], out=start[1:])
        total = int(cap.sum())
        nbr = np.empty(max(total, 1), dtype=_I32)
        if self.n:
            live = _segment_positions(self._start, deg)
            dst = _segment_positions(start, deg)
            nbr[dst] = self._nbr[live]
        self._nbr = nbr
        self._start = start
        self._cap = cap
        self._used = total
        self._dead = 0
        # layout changed but the edge set did not: the epoch stays, and the
        # cached CSR (if any) remains valid because it is layout-independent

    # -- misc ----------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside [0, {self.n})")

    def copy(self) -> "ArrayDynamicGraph":
        """Independent copy of the graph."""
        g = ArrayDynamicGraph(self.n, slack=self._slack)
        g._start = self._start.copy()
        g._deg = self._deg.copy()
        g._cap = self._cap.copy()
        g._nbr = self._nbr.copy()
        g._used = self._used
        g._dead = self._dead
        g._m = self._m
        g.version = self.version
        return g

    def to_networkx(self):
        """Export to :mod:`networkx` for oracle cross-checks."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(*(a.tolist() for a in self._edge_arrays())))
        return g

    @property
    def arena_slots(self) -> int:
        """Total allocated neighbor slots (live + slack + dead) —
        memory-accounting hook for the benchmarks."""
        return len(self._nbr)


def _segment_positions(start: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Arena positions of every live slot, vertex-major (vectorized)."""
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=_I64)
    reps = deg.astype(_I64)
    base = np.repeat(start, reps)
    indptr = np.zeros(len(deg) + 1, dtype=_I64)
    np.cumsum(reps, out=indptr[1:])
    within = np.arange(total, dtype=_I64) - np.repeat(indptr[:-1], reps)
    return base + within


def _within_group_offsets(sorted_keys: np.ndarray) -> np.ndarray:
    """For a sorted key array, the 0-based offset of each element within
    its run of equal keys (vectorized)."""
    k = len(sorted_keys)
    if k == 0:
        return np.empty(0, dtype=_I64)
    idx = np.arange(k, dtype=_I64)
    new_run = np.empty(k, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    run_starts = idx[new_run]
    return idx - np.repeat(run_starts, np.diff(np.append(run_starts, k)))

