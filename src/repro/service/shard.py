"""The serving executor: S independent structure instances, one per shard.

The paper's structures share no state across disjoint edge sets, so the
engine can escape the GIL by hash-partitioning edges over ``S`` shards,
each a full structure instance on the common vertex set.  A flush
scatters the coalesced batch into per-shard sub-batches (shards apply
them in parallel), then gathers the ``(δ_ins, δ_del)`` deltas plus
cost-model work/depth; shard work *sums* while shard depth *maxes*,
exactly the cost model's parallel-composition rule.  One shard is the
trivial case of that composition, not a second design: the unsharded
executor is ``ShardedExecutor(spec)``, and
:func:`repro.resilience.bootstrap_executor` is the one way the serving
stacks build an executor of either width.

A shard is its *anchor* ``(shard_specs[i], history[i])``: the spec its
structure was last built on and the sub-batches it applied since.
Nothing else describes a shard's input graph: :meth:`graph_union`, the
checkpoint keys (:meth:`shard_keys`), a restart's in-memory fallback and
the replay oracle (:func:`repro.oracle.verify_service`) all derive from
it, and a restart re-anchors the shard on what it was rebuilt from.

Shards run on the one worker runtime, the execution backends of
:mod:`repro.parallel`.  A shard is a *pinned stateful task*:
:func:`shard_task` keeps shard ``i``'s structure in worker-local state
and the executor always dispatches shard ``i`` to worker ``i`` of a
:class:`~repro.parallel.pool.ProcessPoolBackend` (``processes=True``).
``processes=False`` calls the same task inline, in the calling thread
(deterministic, no fork needed) — tests, tenants and the benchmark
baseline use it; the CLI demo uses real processes where the platform
provides them.

Supervision: every dispatch carries a reply deadline (a worker that
misses it is killed), and a shard whose worker died, hung, or crashed on
its batch has lost its state.  It is rebuilt — after exponential backoff
— from the last checkpoint plus a WAL-tail replay (or, lacking durable
state or with the log damaged, from its anchor), and its sub-batch is
retried; a live shard's reply from the same dispatch is kept, so its
sub-batch is never sent twice.  After ``max_batch_attempts`` consecutive
crash-loops on the same batch the sub-batch is quarantined instead,
keeping the engine live on poison input.  All of it is observable
through the :class:`ApplyResult` recovery fields and, one level up, the
service's :class:`MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Collection

import numpy as np

from repro.graph.dynamic_graph import Edge
from repro.parallel.backend import SequentialBackend
from repro.parallel.pool import ProcessPoolBackend, WorkerCrashed
from repro.pram.cost import CostModel
from repro.resilience.checkpoint import KeyTracker
from repro.resilience.faults import NULL_INJECTOR, FaultInjector
from repro.resilience.manager import RecoveryManager, SupervisionConfig
from repro.resilience.wal import WalCorruptionError
from repro.workloads.streams import UpdateBatch

__all__ = [
    "ApplyResult",
    "LocalExecutor",
    "ShardDeadError",
    "ShardedExecutor",
    "ShardHealth",
    "build_backend",
    "edge_shard",
    "shard_task",
    "split_by_shard",
]

#: Former name of the shard crash type, kept for the public API.
ShardDeadError = WorkerCrashed


# -- backends ----------------------------------------------------------------


class _SpannerAdapter:
    """Uniform ``update``/``output_edges`` view over a spanner facade."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def update(self, insertions=(), deletions=()):
        return self.inner.update(insertions=insertions, deletions=deletions)

    def output_edges(self) -> set[Edge]:
        return self.inner.spanner_edges()


class _SparsifierAdapter:
    def __init__(self, inner) -> None:
        self.inner = inner

    def update(self, insertions=(), deletions=()):
        return self.inner.update(insertions=insertions, deletions=deletions)

    def output_edges(self) -> set[Edge]:
        return self.inner.output_edges()


def build_backend(spec: dict[str, Any], cost: CostModel):
    """Construct a structure from a picklable spec dict.

    ``spec`` keys: ``kind`` ("spanner" | "sparse" | "sparsifier"), ``n``,
    ``edges`` (initial edge list), ``seed``, plus per-kind parameters
    (``k``, ``base_capacity``, ``t``).  Kept picklable so sharded workers
    can rebuild the backend in a spawned process, and so the serve demo
    can re-run the identical construction for verification.
    """
    kind = spec.get("kind", "spanner")
    n = spec["n"]
    edges = [tuple(e) for e in spec.get("edges", ())]
    seed = spec.get("seed", 0)
    if kind == "spanner":
        from repro.spanner import FullyDynamicSpanner

        return _SpannerAdapter(FullyDynamicSpanner(
            n, edges, k=spec.get("k", 2), seed=seed,
            base_capacity=spec.get("base_capacity"), cost=cost,
        ))
    if kind == "sparse":
        from repro.contraction import SparseSpannerDynamic

        return _SpannerAdapter(SparseSpannerDynamic(
            n, edges, seed=seed,
            base_capacity=spec.get("base_capacity"), cost=cost,
        ))
    if kind == "sparsifier":
        from repro.sparsifier import FullyDynamicSpectralSparsifier

        return _SparsifierAdapter(FullyDynamicSpectralSparsifier(
            n, edges, t=spec.get("t", 2), seed=seed, cost=cost,
        ))
    raise ValueError(f"unknown backend kind {kind!r}")


@dataclass
class ApplyResult:
    """Outcome of applying one coalesced batch to the structure(s).

    ``work`` sums over shards; ``depth`` and ``critical_work`` take the
    max (shards run in parallel, so the slowest shard is the critical
    path — ``work / critical_work`` is the batch's parallel speedup).

    The recovery fields are populated by supervised executors: which
    shards were restarted while applying this batch, which quarantined
    their sub-batch as poison, how many restarts happened, and how much
    wall time recovery consumed.
    """

    delta_ins: set[Edge]
    delta_del: set[Edge]
    work: int
    depth: int
    critical_work: int = 0
    recovered_shards: tuple[int, ...] = ()
    quarantined_shards: tuple[int, ...] = ()
    restarts: int = 0
    recovery_seconds: float = 0.0

    @property
    def recovered(self) -> bool:
        return bool(self.recovered_shards or self.quarantined_shards)


# -- routing -----------------------------------------------------------------


def edge_shard(edge: Edge, shards: int) -> int:
    """Deterministic edge → shard router (stable across processes)."""
    u, v = edge
    return (u * 1_000_003 + v * 8_191) % shards


def split_by_shard(
    edges: list[Edge] | tuple[Edge, ...], shards: int
) -> list[list[Edge]]:
    """Partition ``edges`` into per-shard lists via :func:`edge_shard`."""
    if shards == 1:
        return [list(edges)]
    out: list[list[Edge]] = [[] for _ in range(shards)]
    for e in edges:
        out[edge_shard(e, shards)].append(e)
    return out


# -- the worker-side task ----------------------------------------------------


#: Worker-local shard state: (executor token, shard index) → the shard's
#: backend and the cost model it charges.
_SHARDS: dict[tuple[int, int], tuple[Any, CostModel]] = {}


def shard_task(args: tuple, shared: Any, cost: CostModel | None = None):
    """One shard request, run on the shard's pinned worker.

    ``args`` is ``(key, op, *operands)`` with ``key`` the shard's
    ``(executor token, shard index)``:

    * ``("init", spec, replay)`` builds the backend on ``spec`` and
      applies the ``(insertions, deletions)`` pairs of ``replay``;
      replies True, and raises what the build raises;
    * ``("update", insertions, deletions[, stall_s])`` replies
      ``(δ_ins, δ_del, work, depth)``, charged under the backend's own
      :class:`~repro.pram.cost.CostModel` frame; an injected ``stall_s``
      first blocks the worker that long, as a hung worker would;
    * ``("edges",)`` replies the output edges as a list;
    * ``("ping",)`` replies the output size.

    The other requests reply None when the shard holds no state: it was
    never built, its worker was replaced, or a request raised — any
    exception drops the state, so a poison batch looks exactly like a
    worker death.
    """
    key, op = args[0], args[1]
    if op == "init":
        _SHARDS.pop(key, None)
        cm = CostModel()
        backend = build_backend(args[2], cm)
        for ins, dels in args[3]:
            backend.update(insertions=ins, deletions=dels)
        _SHARDS[key] = (backend, cm)
        return True
    state = _SHARDS.get(key)
    if state is None:
        return None
    backend, cm = state
    try:
        if op == "update":
            if len(args) > 4:
                time.sleep(args[4])
            with cm.frame() as fr:
                d_ins, d_del = backend.update(insertions=args[2],
                                              deletions=args[3])
            # plain lists pickle smaller/faster than sets, and the parent
            # folds them with set.update() anyway
            return list(d_ins), list(d_del), fr.work, fr.depth
        if op == "edges":
            return list(backend.output_edges())
        if op == "ping":
            return len(backend.output_edges())
    except Exception:
        del _SHARDS[key]
        return None
    raise ValueError(f"unknown shard op {op!r}")


def _drop_shards(token: int, shards: int) -> None:
    """Free an executor's in-process shard state."""
    for i in range(shards):
        _SHARDS.pop((token, i), None)


@dataclass
class ShardHealth:
    """One shard's liveness as seen by :meth:`ShardedExecutor.health_check`."""

    shard: int
    alive: bool
    restarted: bool = False


# -- the executor ------------------------------------------------------------


class ShardedExecutor:
    """Partition one backend spec across ``shards`` independent workers.

    Parameters
    ----------
    spec:
        Backend spec as for :func:`build_backend`; its ``edges`` are
        routed to shards, and shard ``i`` gets ``seed + i`` so instances
        stay independent yet reproducible.
    shards:
        Number of partitions (>= 1).  One shard builds exactly the
        structure ``build_backend(spec)`` would.
    processes:
        Run shards on a :class:`~repro.parallel.pool.ProcessPoolBackend`
        with one worker process per shard (parallel) or inline in the
        calling thread (deterministic).
    supervision:
        Deadlines/backoff/quarantine policy; None disables supervision
        entirely (a dead shard then surfaces as :class:`WorkerCrashed`).
    recovery:
        A :class:`~repro.resilience.manager.RecoveryManager`; when set,
        restarted shards rebuild from checkpoint + WAL replay, else (or
        when the log is damaged) from their anchor.
    injector:
        Fault-injection hooks (chaos harness); defaults to no-op.
    """

    def __init__(
        self,
        spec: dict[str, Any],
        shards: int = 1,
        processes: bool = False,
        supervision: SupervisionConfig | None = None,
        recovery: RecoveryManager | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.n = int(spec["n"])
        self.supervision = supervision
        self.recovery = recovery
        self.injector = injector or NULL_INJECTOR
        base_seed = spec.get("seed", 0)
        parts = split_by_shard([tuple(e) for e in spec.get("edges", ())],
                               shards)
        # shard i's anchor: the spec its structure was built on and the
        # sub-batches applied since (see the module docstring)
        self.shard_specs: list[dict[str, Any]] = [
            dict(spec, edges=part, seed=base_seed + i)
            for i, part in enumerate(parts)
        ]
        self.history: list[list[UpdateBatch]] = [[] for _ in range(shards)]
        self.backend = (
            ProcessPoolBackend(shards, supervision=supervision)
            if processes else SequentialBackend()
        )
        self._inline = not processes
        self._token = self.backend.new_token()
        # frees in-process shard state on close, or when the executor is
        # collected without one
        self._free = weakref.finalize(self, _drop_shards, self._token, shards)
        self._deadline = supervision.recv_deadline if supervision else 60.0
        self._closed = False
        try:
            built = self._call(range(shards), [
                ("init", sub, ()) for sub in self.shard_specs])
            if None in built:
                raise WorkerCrashed(f"shard {built.index(None)} died "
                                    "while building")
        except BaseException:
            self.close()
            raise
        self._key_trackers = [KeyTracker() for _ in range(shards)]
        self._restart_streak = [0] * shards   # resets on successful apply
        self.restarts_total = 0
        self.quarantined: list[tuple[int | None, int, UpdateBatch]] = []
        self.wal_fallbacks = 0
        self.degraded = threading.Event()  # set while any shard recovers

    @property
    def applied_batches(self) -> list[list[UpdateBatch]]:
        """:attr:`history` under its former name; read by the replay
        benchmark (``perfbench/``) until it counts history publicly."""
        return self.history

    def _call(self, shards, requests: list[tuple]) -> list[Any]:
        """Run one :func:`shard_task` request per shard, each on the
        shard's own worker; a shard that died, hung or lost its state
        replies None.  Replies of shards that finished are kept even when
        another shard's worker crashed mid-dispatch."""
        shards = list(shards)
        args = [((self._token, i),) + r for i, r in zip(shards, requests)]
        if self._inline:
            # nothing to pin, time out or lose in-process: skip the
            # backend's per-chunk bookkeeping and run the task directly
            return [shard_task(a, None) for a in args]
        try:
            res = self.backend.map_chunks(
                shard_task, args, pinned=shards, deadline=self._deadline)
            return [r.value for r in res]
        except WorkerCrashed as exc:
            return [exc.completed[j].value if j in exc.completed else None
                    for j in range(len(shards))]

    def kill_shard(self, i: int) -> None:
        """Fault injection: SIGKILL shard ``i``'s worker, or drop the
        shard's state when it runs in-process.  No cleanup — the next
        request finds the shard dead and supervision takes over."""
        _SHARDS.pop((self._token, i), None)
        self.backend.kill_worker(i)

    # -- the input graph, from the anchors -----------------------------------

    def shard_keys(self) -> list[np.ndarray]:
        """Per-shard sorted checkpoint keys (the checkpoint payload), each
        advanced from the previous call's by the sub-batches applied
        since (see :class:`~repro.resilience.checkpoint.KeyTracker`)."""
        return [t.keys(h, spec["edges"]) for t, h, spec in zip(
            self._key_trackers, self.history, self.shard_specs)]

    def graph_union(self) -> set[Edge]:
        """The graph edge set implied by every shard's anchor."""
        out: set[Edge] = set()
        for spec in self.shard_specs:
            out.update(spec["edges"])
        # shards own disjoint edges, so their histories commute
        for batches in self.history:
            for b in batches:
                out.difference_update(b.deletions)
                out.update(b.insertions)
        return out

    # -- applying batches ----------------------------------------------------

    def apply(self, batch: UpdateBatch, seq: int | None = None) -> ApplyResult:
        """Scatter the batch, apply on every touched shard, gather deltas.

        With supervision enabled a dead/hung shard is restarted from the
        last checkpoint + WAL replay and its sub-batch retried; after
        ``max_batch_attempts`` consecutive crashes on this batch the
        sub-batch is quarantined (recorded in :attr:`quarantined`) and the
        shard continues without it.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        ins_parts = split_by_shard(batch.insertions, self.shards)
        del_parts = split_by_shard(batch.deletions, self.shards)
        touched = [
            i for i in range(self.shards)
            if ins_parts[i] or del_parts[i]
        ]
        sup = self.supervision
        requests = [("update", ins_parts[i], del_parts[i]) for i in touched]
        for j, i in enumerate(touched):
            action = self.injector.on_apply(i, "pre", seq)
            if action == "kill":
                self.kill_shard(i)
            elif action is not None:  # ("stall", seconds)
                requests[j] += (action[1],)
        # one dispatch for every touched shard: process shards run in
        # parallel
        replies = self._call(touched, requests)
        delta_ins: set[Edge] = set()
        delta_del: set[Edge] = set()
        work = 0
        depth = 0
        critical = 0
        recovered: list[int] = []
        quarantined: list[int] = []
        restarts = 0
        recovery_seconds = 0.0
        for i, reply in zip(touched, replies):
            sub = UpdateBatch(insertions=ins_parts[i],
                              deletions=del_parts[i])
            reply = self._received(i, reply, seq)
            crashes = 0 if reply is not None else 1
            while reply is None:
                if sup is None:
                    raise WorkerCrashed(
                        f"shard {i} failed and supervision is disabled"
                    )
                t0 = time.perf_counter()
                restarts += self._restart_shard(i)
                recovery_seconds += time.perf_counter() - t0
                recovered.append(i)
                if crashes > sup.max_batch_attempts:
                    # poison batch: the shard restarted *without* it and
                    # keeps serving
                    quarantined.append(i)
                    self.quarantined.append((seq, i, sub))
                    break
                reply = self._received(i, self._call(
                    [i], [("update", ins_parts[i], del_parts[i])])[0], seq)
                if reply is None:
                    crashes += 1
            if reply is None:  # quarantined
                continue
            if self.injector.on_apply(i, "post", seq) == "kill":
                self.kill_shard(i)
            d_ins, d_del, w, d = reply
            self.history[i].append(sub)
            self._restart_streak[i] = 0
            delta_ins.update(d_ins)
            delta_del.update(d_del)
            work += w
            # shards are parallel: depth and critical-path work max
            depth = max(depth, d)
            critical = max(critical, w)
        return ApplyResult(
            delta_ins, delta_del, work, depth, critical_work=critical,
            recovered_shards=tuple(dict.fromkeys(recovered)),
            quarantined_shards=tuple(quarantined),
            restarts=restarts,
            recovery_seconds=recovery_seconds,
        )

    # -- supervision ---------------------------------------------------------

    def _received(self, i: int, reply, seq: int | None):
        """Shard ``i``'s update reply after the injector's ``on_recv``
        hook, which may lose it (None, as for a dead shard)."""
        if reply is None or self.injector.on_recv(i, seq) == "drop":
            return None
        return reply

    def _recovery_source(self, i: int) -> tuple[Collection[Edge],
                                                list[UpdateBatch]]:
        """(base edges, replay batches) for restarting shard ``i``:
        checkpoint + WAL tail when durable state exists, else — or when
        the log is damaged — the shard's anchor."""
        anchor = self.shard_specs[i]["edges"]
        if self.recovery is not None:
            try:
                skip = {s for s, sh, _ in self.quarantined
                        if sh == i and s is not None}
                # without a checkpoint the plan's base is the shard's
                # construction edges, which its anchor still holds: only
                # a checkpoint moves an anchor off them
                return self.recovery.shard_recovery_plan(
                    i, self.shards, anchor, skip_seqs=skip)
            except WalCorruptionError:
                # the log is damaged mid-stream; replay the in-memory
                # history from the anchor (only possible while the
                # parent lives)
                self.wal_fallbacks += 1
        return anchor, list(self.history[i])

    def _restart_shard(self, i: int) -> int:
        """Back off, then rebuild shard ``i`` on its worker from
        recovered state (replacing whatever state it held).  Returns 1."""
        sup = self.supervision or SupervisionConfig()
        self.degraded.set()
        try:
            streak = self._restart_streak[i]
            delay = min(sup.backoff_cap, sup.backoff_base * (2 ** streak))
            if delay > 0:
                time.sleep(delay)
            self._restart_streak[i] = streak + 1
            self.restarts_total += 1
            base, replay = self._recovery_source(i)
            spec = dict(self.shard_specs[i], edges=sorted(base))
            steps = [(b.insertions, b.deletions) for b in replay]
            if self._call([i], [("init", spec, steps)])[0] is None:
                raise WorkerCrashed(f"shard {i} died while rebuilding")
            # re-anchor on what the shard was rebuilt from
            self.shard_specs[i] = spec
            self.history[i] = list(replay)
            self.injector.on_restart(i, self._restart_streak[i])
            return 1
        finally:
            self.degraded.clear()

    def health_check(self, restart: bool = True) -> list[ShardHealth]:
        """Ping every shard; optionally restart dead ones proactively so
        the next flush does not pay the recovery."""
        out: list[ShardHealth] = []
        for i, reply in enumerate(self._call(range(self.shards),
                                             [("ping",)] * self.shards)):
            alive = reply is not None
            restarted = False
            if not alive and restart and self.supervision is not None:
                self._restart_shard(i)
                restarted = True
            out.append(ShardHealth(shard=i, alive=alive,
                                   restarted=restarted))
        return out

    # -- scatter/gather queries ----------------------------------------------

    def _ask_all(self, request: tuple) -> list[Any]:
        """Every shard's reply to ``request``.

        Supervised executors restart a dead shard and ask again instead
        of raising, so a query barrage never wedges on a crashed worker.
        """
        replies = self._call(range(self.shards), [request] * self.shards)
        for i, reply in enumerate(replies):
            if reply is None:
                if self.supervision is None:
                    raise WorkerCrashed(
                        f"shard {i} died answering {request[0]!r}")
                self._restart_shard(i)
                reply = self._call([i], [request])[0]
                if reply is None:
                    raise WorkerCrashed(
                        f"shard {i} died again answering {request[0]!r}")
                replies[i] = reply
        return replies

    def gather_edges(self) -> set[Edge]:
        """Union of every shard's output edges (scatter/gather)."""
        out: set[Edge] = set()
        for edges in self._ask_all(("edges",)):
            out.update(edges)
        return out

    def scatter_sizes(self) -> list[int]:
        """Per-shard output sizes (occupancy diagnostics)."""
        return self._ask_all(("ping",))

    def close(self) -> None:
        """Stop every worker and free the shards' state.

        Idempotent and exception-safe: a shard that already died mid-run
        is skipped rather than hung on.
        """
        if self._closed:
            return
        self._closed = True
        self._free()
        self.backend.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalExecutor(ShardedExecutor):
    """``ShardedExecutor(spec)``: one shard, in-process.

    Defines nothing of its own but what the replay benchmark
    (``perfbench/``) reads by name, until it reads public counters
    instead: ``apply`` in the class's own namespace, which its tracer
    wraps, and :attr:`applied_batches` as shard 0's flat history.
    """

    apply = ShardedExecutor.apply

    @property
    def applied_batches(self) -> list[UpdateBatch]:
        """Shard 0's history, one :class:`UpdateBatch` per commit."""
        return self.history[0]
