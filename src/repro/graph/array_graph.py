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
consume — the one derived view a served epoch builds.  While a CSR is
cached, every mutation records the rows it changed, and the next epoch's
:meth:`csr` splices just those rows from the arena into the cached arrays
(untouched rows are copied as slices) instead of gathering all ``m``
slots again; past ``n / _SPLICE_FRACTION`` touched rows it gathers in
full.  :meth:`segments`
exposes the live arena itself, which the point-to-point search reads so
that a read between mutations builds no CSR.  :meth:`read_state` is the
epoch's other derived state (:class:`EpochReadState`): component labels
filled one touched component at a time, the component floods' charges,
and a small pool of leased sweep scratches.  Labels outlive their
epoch: while an epoch has them, mutations log the edges they apply,
and the next epoch's first connectivity read carries the labels across
the log (inserts merge classes, a delete that split its class resets
it), so it floods only what a delete split; past
:meth:`_label_log_bound` logged edges the log is dropped and reads
flood afresh.  :meth:`sorted_flat` has no caller left: batched reads
charge order-independently now.

Charge preservation: this class performs no cost-model charging of its own
(neither does ``DynamicGraph``); the traversal kernels that consume it
charge the *same* closed-form work/depth totals as the dict-substrate
loops, which ``tools/bench_gate.py`` pins exactly.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.graph.dynamic_graph import Edge, edge_array, norm_edge
from repro.graph.traversal import _bfs_bidirectional

__all__ = ["ArrayDynamicGraph", "EpochReadState", "SweepScratch"]

_I32 = np.int32
_I64 = np.int64

#: serializes creating an epoch's read state (rare: once per epoch)
_READ_STATE_LOCK = threading.Lock()


class _CsrCache(NamedTuple):
    """One epoch's CSR and the rows mutated since that epoch.

    ``csr()`` never clears ``touched``: it installs a new cache with an
    empty set, so readers that fetched this one still pair its arrays
    with the complete row set.
    """

    version: int
    indptr: np.ndarray
    indices: np.ndarray
    touched: set[int]


class _LabelLog(NamedTuple):
    """The edges applied since an epoch that had component labels.

    Immutable: a mutation logs by replacing the graph's log, so a read
    state created earlier keeps the log exactly as of its epoch.
    """

    labels: np.ndarray
    inserted: tuple[Edge, ...]
    deleted: tuple[Edge, ...]


class ArrayDynamicGraph:
    """Simple undirected graph under batch edge updates, on flat arrays.

    Behaviourally identical to :class:`DynamicGraph` (the Hypothesis
    equivalence suite in ``tests/test_array_graph.py`` asserts it on
    random interleaved update sequences); additionally exposes the
    array-native accessors :meth:`neighbors_array`, :meth:`segments`,
    :meth:`csr` and :meth:`read_state` plus the :attr:`version` epoch
    counter.
    """

    #: minimum slack granted to a relocated vertex segment
    _MIN_GROW = 4
    #: insert batches at or below this size take the scalar apply path
    _SCALAR_INSERT = 32
    #: delete batches at or below this size take the scalar path, larger
    #: ones the vectorized join (docs/substrate.md has the measurement)
    _SCALAR_DELETE = 12
    #: ``csr()`` splices at most ``n // _SPLICE_FRACTION`` touched rows
    #: into the cached CSR; more take the full gather
    _SPLICE_FRACTION = 32

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
        self._csr_cache: _CsrCache | None = None
        # no reader left; kept for the replay benchmark (see sorted_flat)
        self._sorted_cache: tuple[int, list[int], list[int]] | None = None
        self._read_state: EpochReadState | None = None
        # edges applied since the last epoch with labels (see _log_labels)
        self._label_log: _LabelLog | None = None
        # an (m, 2) integer array builds without a per-edge Python tuple
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        if len(edges):
            self._bulk_build(edges)

    # -- construction --------------------------------------------------------

    def _bulk_build(self, edges: list[Edge] | np.ndarray) -> None:
        """Vectorized initial build (CSR layout with per-vertex slack)."""
        arr = edge_array(edges)
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
        """Compacted ``(indptr, indices)`` snapshot, cached per epoch; a
        new epoch's is spliced from the last cached one when it can be.

        With a cached CSR of an earlier epoch, the rows the mutations
        since then touched are spliced from the arena into it and every
        untouched run of rows is copied as one slice: ``O(t + m)`` copy
        work for ``t`` touched rows, no ``O(m)`` index arithmetic.  With
        no cache, or once more than ``n // _SPLICE_FRACTION`` rows were
        touched (a mutation then drops the cache), every live slot is
        gathered in arena order.  The arrays returned are never written
        again, and mutations must not run concurrently with reads.
        """
        cache = self._csr_cache
        if cache is not None and cache.version == self.version:
            return cache.indptr, cache.indices
        indptr = np.zeros(self.n + 1, dtype=_I64)
        np.cumsum(self._deg, out=indptr[1:])
        if cache is not None:
            indices = self._splice(cache)
        else:
            indices = np.empty(int(indptr[-1]), dtype=_I32)
            if self.n:
                live = _segment_positions(self._start, self._deg)
                indices[:] = self._nbr[live]
        self._csr_cache = _CsrCache(self.version, indptr, indices, set())
        return indptr, indices

    def _splice(self, cache: _CsrCache) -> np.ndarray:
        """``cache.indices`` with each touched row replaced by its live
        arena segment (untouched rows kept their degree, so their old
        slots are still exact)."""
        rows = np.array(sorted(cache.touched), dtype=_I64)
        old_ptr, old, nbr = cache.indptr, cache.indices, self._nbr
        # untouched run i spans old slots [ends of touched row i - 1,
        # start of touched row i); touched row i is its arena segment
        run_a = [0] + old_ptr[rows + 1].tolist()
        run_b = old_ptr[rows].tolist() + [len(old)]
        first = self._start[rows]
        seg_a = first.tolist()
        seg_b = (first + self._deg[rows]).tolist()
        parts = [None] * (2 * len(rows) + 1)
        parts[0::2] = [old[a:b] for a, b in zip(run_a, run_b)]
        parts[1::2] = [nbr[a:b] for a, b in zip(seg_a, seg_b)]
        return np.concatenate(parts)

    def read_state(self) -> EpochReadState:
        """This epoch's :class:`EpochReadState`, built lazily and keyed by
        :attr:`version` like :meth:`csr`.  A new epoch inherits the
        scratch pool (scratches are clear between leases and depend only
        on ``n``).  When an earlier epoch had labels and the log of the
        edges applied since is intact, the new state carries them over
        on its first labels use (:meth:`EpochReadState.component_labels`);
        otherwise its labels start empty."""
        st = self._read_state
        if st is None or st.version != self.version:
            with _READ_STATE_LOCK:
                st = self._read_state
                if st is None or st.version != self.version:
                    pool = st.pool if st is not None else []
                    log = self._label_log
                    st = self._read_state = EpochReadState(
                        self.version, self.n, pool,
                        None if log is None else (log, self.segments()))
        return st

    def _log_labels(self, edges: list[Edge], deleted: bool) -> None:
        """Log a batch about to be applied, while the current epoch has
        labels or an earlier epoch's log is intact."""
        st = self._read_state
        log = self._label_log
        if (st is not None and st.version == self.version
                and st.labels is not None):
            log = _LabelLog(st.labels, (), ())
        elif log is None:
            return
        if len(log.inserted) + len(log.deleted) + len(edges) \
                > self._label_log_bound():
            self._label_log = None
        elif deleted:
            self._label_log = log._replace(deleted=log.deleted + tuple(edges))
        else:
            self._label_log = log._replace(
                inserted=log.inserted + tuple(edges))

    def _label_log_bound(self) -> int:
        """Most edges the label log holds: as many rows as the CSR
        splices, and never fewer than a scalar insert batch, so a small
        served delta carries on any graph.  Each logged delete may cost
        a search, so a longer log is dropped and reads flood instead."""
        return max(self._SCALAR_INSERT, self.n // self._SPLICE_FRACTION)

    def __getstate__(self) -> dict:
        # the read state and the label log (which holds an old epoch's
        # labels) are per-process caches; a copy shipped to a worker
        # rebuilds them on its first read.  The CSR ships only when it
        # is this epoch's (its touched-row set is then empty)
        state = self.__dict__.copy()
        state["_read_state"] = None
        state["_label_log"] = None
        cache = self._csr_cache
        if cache is not None and cache.version != self.version:
            state["_csr_cache"] = None
        return state

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
        self._log_labels(added, deleted=False)
        if len(added) <= self._SCALAR_INSERT:
            # scalar path: most serving deltas are a few edges, where
            # the vectorized path's fixed numpy overhead dwarfs the work
            for a, b in added:
                for v, w in ((a, b), (b, a)):
                    d = int(self._deg[v])
                    if d >= int(self._cap[v]):
                        self._grow(v, d + 1)
                    self._nbr[int(self._start[v]) + d] = w
                    self._deg[v] = d + 1
            self._mutated(len(added), *added)
            return
        arr = np.asarray(added, dtype=_I32)
        ends = np.concatenate([arr[:, 0], arr[:, 1]])
        other = np.concatenate([arr[:, 1], arr[:, 0]])
        # per touched vertex only: O(batch), not O(n), per call
        verts, inc = np.unique(ends, return_counts=True)
        deg = self._deg[verts]
        # grow every vertex whose slack cannot absorb its new neighbors
        tight = inc > self._cap[verts] - deg
        for v, need in zip(verts[tight].tolist(),
                           (deg + inc)[tight].tolist()):
            self._grow(v, need)
        # scatter: per-endpoint offset within its vertex's new block
        order = np.argsort(ends, kind="stable")
        se = ends[order]
        offs = _within_group_offsets(se)
        pos = self._start[se] + self._deg[se] + offs
        self._nbr[pos] = other[order]
        self._deg[verts] = deg + inc
        self._mutated(len(added), verts.tolist())

    def delete_batch(self, edges: Iterable[Edge]) -> list[Edge]:
        """Delete a batch; returns the normalized edges removed.

        Raises on a self-loop, and on an absent, out-of-range or
        repeated edge — the exact :class:`DynamicGraph` contract, for
        the first offender in input order, with nothing deleted."""
        pairs = edges if isinstance(edges, list) else list(edges)
        if len(pairs) > self._SCALAR_DELETE:
            removed = self._delete_join(pairs)
            if removed is not None:
                return removed
        removed = self._check_delete(pairs)
        if not removed:
            return removed
        self._log_labels(removed, deleted=True)
        # scalar swap-remove per endpoint (in-segment neighbor order is
        # not part of the contract; every consumer treats the segment as
        # a set)
        for a, b in removed:
            for v, w in ((a, b), (b, a)):
                s = int(self._start[v])
                d = int(self._deg[v])
                seg = self._nbr[s:s + d]
                i = seg.tolist().index(w)
                seg[i] = seg[d - 1]
                self._deg[v] = d - 1
        self._mutated(-len(removed), *removed)
        return removed

    def _check_delete(self, pairs: list) -> list[Edge]:
        """Normalize and validate a delete batch edge by edge, raising
        for the first offender; the normalized edges."""
        removed: list[Edge] = []
        batch: set[Edge] = set()
        for u, v in pairs:
            e = norm_edge(u, v)
            if e in batch or not (
                0 <= e[0] and e[1] < self.n and self._has(*e)
            ):
                raise KeyError(f"edge {e} not present")
            batch.add(e)
            removed.append(e)
        return removed

    def _delete_join(self, pairs: list) -> list[Edge] | None:
        """Vectorized delete: the touched segments' ``v * n + w`` keys
        joined against the batch's sorted directed keys.  Returns None,
        having changed nothing, when the batch is invalid (the scalar
        check then raises the exact error)."""
        arr = np.array(pairs)
        if arr.dtype.kind not in "iu" or arr.shape != (len(pairs), 2):
            return None
        arr = arr.astype(_I64)
        n = self.n
        a = np.minimum(arr[:, 0], arr[:, 1])
        b = np.maximum(arr[:, 0], arr[:, 1])
        if ((a == b) | (a < 0) | (b >= n)).any():
            return None
        k = len(a)
        ends = np.concatenate([a, b])
        want = ends * n + np.concatenate([b, a])
        want.sort()
        verts, r = np.unique(ends, return_counts=True)
        deg = self._deg[verts]
        # slot i of the touched segments, laid end to end, is slot
        # i - first[j] of segment j = seg[i]
        seg = np.repeat(np.arange(len(verts)), deg)
        last = np.cumsum(deg, dtype=_I64)
        i = np.arange(int(last[-1]))
        pos = self._start[verts][seg] + (i - (last - deg)[seg])
        have = verts[seg] * n + self._nbr[pos]
        at = np.searchsorted(want, have)
        at[at == len(want)] = 0
        hit = want[at] == have
        # every segment key is distinct, so fewer than 2k hits means an
        # edge is absent or repeated
        if int(np.count_nonzero(hit)) != 2 * k:
            return None
        removed = list(zip(a.tolist(), b.tolist()))
        self._log_labels(removed, deleted=True)
        # each touched segment keeps its first deg - r slots: a deleted
        # neighbor there takes the place of a survivor from the last r
        tail = i >= (last - r)[seg]
        self._nbr[pos[hit & ~tail]] = self._nbr[pos[~hit & tail]]
        self._deg[verts] = deg - r
        self._mutated(-k, verts.tolist())
        return removed

    def _mutated(self, dm: int, *rows: Iterable[int]) -> None:
        """Close a batch that changed the edge count by ``dm`` and the
        vertices in ``rows``: count, epoch, and the cached CSR's touched
        rows (the cache is dropped once they pass the splice bound)."""
        self._m += dm
        self.version += 1
        self._sorted_cache = None
        cache = self._csr_cache
        if cache is not None:
            cache.touched.update(*rows)
            if len(cache.touched) > self.n // self._SPLICE_FRACTION:
                self._csr_cache = None

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
        """Independent copy of the graph (no read state, no label log)."""
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


class SweepScratch:
    """``O(n)`` scratch for one frontier sweep, all-clear between leases.

    A sweep writes only the columns it reaches and clears exactly those
    before it hands the scratch back, so reusing one costs ``O(ball)``,
    not ``O(n)``.  ``pos`` needs no clearing: a dedup reads a slot only
    right after writing it.
    """

    __slots__ = ("pos", "seen", "mark", "_reached", "_acc")

    def __init__(self, n: int) -> None:
        self.pos = np.empty(n, dtype=_I64)   # dedup positions
        self.seen = np.zeros(n, dtype=bool)  # flood visited marks
        self.mark = np.zeros(n, dtype=bool)  # pull-round frontier marks
        self._reached = np.zeros((0, n), dtype=np.uint64)
        self._acc = self._reached

    @property
    def words(self) -> int:
        """Mask words per vertex this scratch holds."""
        return len(self._reached)

    def masks(self, nw: int) -> tuple[np.ndarray, np.ndarray]:
        """Zeroed ``(reached, acc)`` source-mask rows, ``nw`` words each."""
        if self.words < nw:
            n = self._reached.shape[1]
            self._reached = np.zeros((nw, n), dtype=np.uint64)
            self._acc = np.zeros((nw, n), dtype=np.uint64)
        return self._reached[:nw], self._acc[:nw]


class EpochReadState:
    """Read state derived from one epoch of an :class:`ArrayDynamicGraph`.

    * ``labels`` — per-vertex component label, canonical as the
      component's minimum vertex, ``-1`` until a read touches the
      component.  Made on the first connectivity read: carried from an
      earlier epoch's labels when the graph hands the state a label
      log (``carried`` is then True), else all ``-1``;
    * ``floods`` — per root, ``(work, rounds)`` of the flood from that
      root, the charge a connectivity read pays for its component.
      Never carried: a charged read floods each touched root once per
      epoch, so charges do not depend on what was carried;
    * :meth:`rows` — per-vertex degrees and the non-empty CSR rows,
      built on first use;
    * a pool of :class:`SweepScratch`, leased through :meth:`acquire`
      and :meth:`release`.

    Entries only ever go from unknown to their one correct value, so
    concurrent readers of one epoch may fill them without a lock: at
    worst two of them flood the same component and write the same
    labels.  Only making the shared arrays takes the state's lock; the
    carry runs under it and publishes the labels when complete, so a
    racing reader waits for it.
    The pool is a plain list: ``pop`` and ``append`` are atomic, and its
    cap is advisory.
    """

    #: scratches kept for reuse; more concurrent sweeps allocate afresh
    POOL_MAX = 4
    #: a scratch whose mask rows grew past this many words (a sweep of
    #: more than 4096 sources) is dropped, not pooled, so one very wide
    #: batch does not keep ``O(n * words)`` memory resident
    MAX_POOLED_WORDS = 64

    __slots__ = ("version", "n", "labels", "floods", "pool", "carried",
                 "_carry", "_rows", "_lock")

    def __init__(self, version: int, n: int,
                 pool: list[SweepScratch],
                 carry: tuple[_LabelLog, tuple] | None = None) -> None:
        self.version = version
        self.n = n
        self.labels: np.ndarray | None = None
        self.floods: dict[int, tuple[int, int]] = {}
        self.pool = pool
        #: True once ``labels`` were carried from an earlier epoch
        self.carried = False
        # (label log, this epoch's arena segments) until the labels exist
        self._carry = carry
        self._rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()

    def component_labels(self) -> np.ndarray:
        """The ``labels`` array, made on first use: carried across the
        state's label log when it has one, else all ``-1``."""
        if self.labels is None:
            with self._lock:
                if self.labels is None:
                    if self._carry is None:
                        self.labels = np.full(self.n, -1, dtype=_I64)
                    else:
                        self.labels = _carry_labels(*self._carry)
                        self.carried = True
                        self._carry = None
        return self.labels

    def rows(self, indptr: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(deg, nz_rows, nz_starts)`` of this epoch's CSR ``indptr``:
        every vertex's degree, and the rows with at least one neighbor
        with their segment starts — what a pull round's ``reduceat``
        needs (an empty row would make it return a neighbor's element
        instead of nothing)."""
        if self._rows is None:
            with self._lock:
                if self._rows is None:
                    deg = np.diff(indptr)
                    nz = np.flatnonzero(deg)
                    self._rows = (deg, nz, indptr[nz])
        return self._rows

    def acquire(self) -> SweepScratch:
        """Borrow a clear scratch from the pool (or a new one)."""
        try:
            return self.pool.pop()
        except IndexError:
            return SweepScratch(self.n)

    def release(self, sc: SweepScratch) -> None:
        """Return a scratch the sweep left clear.  A sweep that raised
        never calls this: its scratch may be dirty and is dropped."""
        if (len(self.pool) < self.POOL_MAX
                and sc.words <= self.MAX_POOLED_WORDS):
            self.pool.append(sc)


def _carry_labels(log: _LabelLog, segments: tuple) -> np.ndarray:
    """An earlier epoch's labels carried across ``log`` onto the graph
    whose arena is ``segments``.

    Inserts merge classes: a union-find over the distinct ``(label[u],
    label[v])`` pairs, hooking each root under the smaller one, so a
    merged class is labelled with its minimum vertex and a class joined
    to an unknown one (``-1``) becomes unknown; one pass through a
    remap array relabels every vertex.  The graph is then a subgraph of
    the merged one, with equal components as long as every deleted
    edge's endpoints are still connected: a bidirectional search checks
    each deleted edge of a known class, and a class with a miss goes
    back to unknown (the next read floods each side on its own).
    """
    labels = log.labels
    if log.inserted:
        ends = np.array(log.inserted, dtype=_I64)
        a, b = labels[ends[:, 0]], labels[ends[:, 1]]
        join = a != b
        if join.any():
            k = int(np.count_nonzero(join))
            ids, at = np.unique(np.concatenate([a[join], b[join]]),
                                return_inverse=True)
            ia, ib = at[:k], at[k:]
            # ids ascend, so a smaller index is a smaller label and -1
            # (index 0 when present) absorbs every class it touches
            parent = np.arange(len(ids))
            while True:
                while True:
                    up = parent[parent]
                    if (up == parent).all():
                        break
                    parent = up
                ra, rb = parent[ia], parent[ib]
                live = ra != rb
                if not live.any():
                    break
                ra, rb = ra[live], rb[live]
                np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            remap = np.arange(-1, len(labels), dtype=_I64)
            remap[ids + 1] = ids[parent]
            labels = remap[labels + 1]
    if labels is log.labels:
        labels = labels.copy()
    # a deleted edge's endpoints share a class: every class is labelled
    # whole, and the merge joined the classes of every inserted edge
    split: set[int] = set()
    for u, v in set(log.deleted):
        c = int(labels[u])
        if c >= 0 and c not in split \
                and _bfs_bidirectional(segments, u, v) is None:
            split.add(c)
    if split:
        labels[np.isin(labels, list(split))] = -1
    return labels


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

