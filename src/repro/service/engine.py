"""`SpannerService`: the serving facade tying queue → batcher → executor.

One uniform ``submit_update`` / ``query`` API over any of the paper's
structures (fully-dynamic spanner, sparse spanner, spectral sparsifier),
applied through one executor, :class:`repro.service.shard.ShardedExecutor`,
over one shard in-process (:class:`LocalExecutor`) or many, inline or on
worker processes.

A local flush and a replicated batch commit through one step,
:meth:`SpannerService._commit`; membership is the executor's
(:attr:`ShardedExecutor.edges`), which the queue reads by reference.

Consistency model: updates are queued, coalesced, and applied in batches;
queries are answered from the engine's *snapshot* — one array graph of
the structure's output edges as of the last flush, kept current via the
``(δ_ins, δ_del)`` deltas every structure returns.  A query therefore
never interleaves with a half-applied batch (snapshot consistency); pass
``consistency="fresh"`` to force a flush first and read your own writes.

Reads batch too: :meth:`SpannerService.query_batch` answers many reads
from one snapshot via shared traversals (:mod:`repro.queries.batch`), and
:meth:`SpannerService.submit_query` enqueues a read to be coalesced with
every other read pending at the next flush cycle — the read-side analogue
of the update queue.  See ``docs/queries.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.graph.array_graph import ArrayDynamicGraph
from repro.graph.dynamic_graph import Edge, check_edge
from repro.graph.traversal import bfs_distances
from repro.pram.cost import NULL_COST_MODEL, CostModel
from repro.queries.batch import QueryBatch, answer_queries
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.batcher import AdaptiveBatcher, BatcherConfig
from repro.service.metrics import MetricsRegistry
from repro.service.queue import CoalescingQueue, DrainResult
# the executor module owns these; re-exported as the engine's API
from repro.service.shard import (
    ApplyResult,
    LocalExecutor,
    ShardedExecutor,
    build_backend,
)
from repro.workloads.streams import UpdateBatch

__all__ = [
    "ApplyResult",
    "LocalExecutor",
    "PendingQuery",
    "QueryResult",
    "ServiceConfig",
    "SpannerService",
    "SubmitResponse",
    "build_backend",
]


# -- the service -------------------------------------------------------------


@dataclass
class SubmitResponse:
    """What a client gets back from :meth:`SpannerService.submit_update`."""

    accepted: bool
    outcome: str                    # queue outcome, "shed", or "shed_degraded"
    retry_after: float | None = None


@dataclass
class QueryResult:
    """A query answer plus its consistency provenance.

    ``stale`` is True when the answer was served from the last consistent
    snapshot while a shard was being recovered (graceful degradation);
    ``as_of_seq`` is the commit sequence number the snapshot reflects.
    """

    value: Any
    stale: bool = False
    as_of_seq: int = 0


class PendingQuery:
    """A read enqueued via :meth:`SpannerService.submit_query`.

    Resolved at the next flush cycle, when the engine answers every
    pending read from one shared traversal pass over the
    freshly-flushed snapshot.  Call :meth:`result` to block until then
    (or :meth:`SpannerService.flush` to force the cycle).
    """

    __slots__ = ("kind", "payload", "enqueued_at", "_event", "_result")

    def __init__(self, kind: str, payload: Any, enqueued_at: float) -> None:
        self.kind = kind
        self.payload = payload
        self.enqueued_at = enqueued_at
        self._event = threading.Event()
        self._result: QueryResult | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until the read is answered; raises TimeoutError if not."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"pending {self.kind!r} query not resolved in {timeout}s"
            )
        assert self._result is not None
        return self._result

    def _resolve(self, result: QueryResult) -> None:
        self._result = result
        self._event.set()


@dataclass
class ServiceConfig:
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)


class SpannerService:
    """Asynchronous batch-dynamic serving engine (see module docstring).

    Thread-safe, with two locks, always taken in the order commit →
    ingest:

    * the *commit lock* serializes commits (:meth:`flush`, :meth:`pump`,
      the background flusher, :meth:`apply_replicated`, checkpoints and
      heartbeats);
    * the *ingest lock* guards the queue, admission, the batcher and the
      pending reads.  A commit takes it only to drain the queue and swap
      out the pending reads, and again to feed the batcher — never across
      the executor apply, the WAL, a checkpoint or the snapshot delta — so
      :meth:`submit_update` and :meth:`submit_query` never wait behind a
      commit.

    Who commits: while the background flusher runs (:meth:`start`), a
    submit that makes a flush due only wakes it; with no flusher, the
    submitting thread commits inline if the flush is still due once it
    holds the commit lock.  A commit that raises leaves the reads parked
    on its cycle for the next one.  Reads take only the snapshot lock.

    Determinism note: with a fixed request sequence the *applied batches*
    depend on flush timing, but replaying the logged batches always
    reproduces the structure exactly — that is what the serve demo's
    verification checks.
    """

    def __init__(
        self,
        executor: ShardedExecutor,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        recovery=None,
        parallel=None,
    ) -> None:
        self.executor = executor
        # Optional execution backend (repro.parallel.ExecutionBackend) for
        # the batched read path: query_batch traversals expand frontier
        # rounds across its workers.  The engine owns it: close() closes
        # it.  Answers are identical with or without it; recorded charges
        # are too (see repro.queries.batch.multi_source_bfs).
        self.parallel_backend = parallel
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        # hot-path metric handles, resolved once instead of a registry
        # dict lookup per request
        m = self.metrics
        self._m_requests_update = m.counter("requests_update")
        self._m_requests_query = m.counter("requests_query")
        self._m_shed = m.counter("shed")
        self._m_shed_degraded = m.counter("shed_degraded")
        self._m_stale_reads = m.counter("stale_reads")
        self._m_query_batches = m.counter("query_batches")
        self._m_queries_deduped = m.counter("queries_deduped")
        self._m_reads_coalesced = m.counter("reads_coalesced")
        self._m_query_batch_size = m.histogram("query_batch_size")
        if parallel is not None:
            parallel.bind_metrics(m)
        self._m_offer: dict[str, Any] = {}
        self._m_queue_depth = m.gauge("queue_depth")
        self._clock = clock
        # lock order: commit, then ingest (see the class docstring)
        self._commit_lock = threading.RLock()
        self._ingest_lock = threading.Lock()
        # the queue validates against the executor's membership by
        # reference: one set, advanced only by executor.apply; a submit
        # racing an apply reads every edge it writes from the overlay
        self.queue = CoalescingQueue(executor.edges, clock=clock)
        self.batcher = AdaptiveBatcher(self.config.batcher)
        self.admission = AdmissionController(self.config.admission)
        # durable WAL+checkpoint lifecycle (None = in-memory only)
        self.recovery = recovery
        self._next_seq = (recovery.last_seq + 1) if recovery else 1
        # fired with (seq, batch) after each commit (chaos ground truth)
        self.commit_hooks: list[Callable[[int, UpdateBatch], None]] = []
        # set by a supervised executor while a shard is being restarted;
        # checked lock-free so clients degrade instead of queueing behind
        # the recovering flush
        self._degraded: threading.Event = executor.degraded
        # vertex count: bounds every admitted write and sizes the
        # snapshot graph and the traversal charges
        self._n = executor.n
        # snapshot = structure output as of the last flush, the one graph
        # every read walks; guarded by its own lock so queries stay served
        # while a flush recovers a shard
        self._snap_lock = threading.Lock()
        self._graph = ArrayDynamicGraph(self._n, executor.gather_edges())
        self._snapshot_seq = self._next_seq - 1
        # reads waiting to be answered at the next flush cycle
        self._pending_reads: list[PendingQuery] = []
        # stats from the most recent batched answer pass (inspection)
        self.last_query_stats = None
        self._stop = threading.Event()
        # set by a submit whose offer made a flush due: wakes the flusher
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- client API ----------------------------------------------------------

    def submit_update(
        self, op: str, u: int, v: int, now: float | None = None
    ) -> SubmitResponse:
        """Submit one edge insert/delete.

        When the offer makes a flush due, the background flusher is woken
        to commit it; with no flusher running, the flush runs inline on
        the calling thread.  Raises ``ValueError`` before anything is
        counted for an endpoint that is not an ``int`` in ``[0, n)``
        (:func:`~repro.graph.dynamic_graph.check_edge`).
        """
        check_edge(u, v, self._n)
        if self._degraded.is_set():
            # a shard is mid-recovery: shed immediately with a retry hint
            # sized to the flush deadline, per the admission controller's
            # policy (the ingest lock is never held across the recovering
            # commit, so this does not wait for it)
            with self._ingest_lock:
                self._m_requests_update.inc()
                self._m_shed_degraded.inc()
                decision = self.admission.admit(
                    self.queue.depth, self.config.batcher.max_delay,
                    degraded=True,
                )
            return SubmitResponse(False, "shed_degraded",
                                  decision.retry_after)
        with self._ingest_lock:
            if now is None:
                now = self._clock()
            self._m_requests_update.inc()
            decision = self.admission.admit(
                self.queue.depth, self.config.batcher.max_delay
            )
            if not decision.admitted:
                self._m_shed.inc()
                return SubmitResponse(False, "shed", decision.retry_after)
            outcome = self.queue.offer(
                op, (u, v), now=now,
                timeout=self.config.admission.request_timeout,
            )
            ctr = self._m_offer.get(outcome)
            if ctr is None:
                ctr = self._m_offer[outcome] = self.metrics.counter(
                    f"offer_{outcome}"
                )
            ctr.inc()
            self._m_queue_depth.set(self.queue.depth)
            accepted = outcome in (
                "accepted", "coalesced_dedup", "coalesced_cancel"
            )
            due = accepted and self.batcher.should_flush(
                self.queue.depth, self.queue.oldest_enqueued_at(), now
            )
        if due:
            self._commit_due(now)
        return SubmitResponse(accepted, outcome)

    def query(
        self,
        kind: str,
        payload: Any = None,
        consistency: str = "snapshot",
    ) -> Any:
        """Answer a read against the maintained output.

        Kinds: ``"size"``, ``"edges"``, ``"contains"`` (payload = edge),
        ``"distance"`` / ``"connected"`` (payload = ``(u, v)``, one
        bidirectional BFS over the snapshot graph's live arena: it stops
        at the first level where the two sides meet and builds no CSR
        view; an id outside ``[0, n)`` is unreachable unless
        ``u == v``).  ``consistency="fresh"`` flushes pending updates
        first (read-your-writes); the default answers from the last
        flushed snapshot.  Use :meth:`query_info` to also learn whether
        the answer was served stale during a shard recovery.
        """
        return self.query_info(kind, payload, consistency).value

    def query_info(
        self,
        kind: str,
        payload: Any = None,
        consistency: str = "snapshot",
    ) -> QueryResult:
        """Like :meth:`query`, but returns a :class:`QueryResult` carrying
        the staleness tag and the commit seq the snapshot reflects.

        Snapshot reads take only the snapshot lock, so while a flush is
        blocked recovering a crashed shard, queries keep answering from
        the last consistent snapshot (tagged ``stale=True``) instead of
        queueing behind the recovery.
        """
        if consistency == "fresh":
            self.flush()
        elif consistency != "snapshot":
            raise ValueError(f"unknown consistency {consistency!r}")
        self._m_requests_query.inc()
        with self._snap_lock:
            # sampled *inside* the snapshot lock, atomically with the
            # snapshot itself: sampling before taking the lock let a
            # recovery resync slip between the two reads, tagging a
            # post-recovery (fresh) snapshot as stale or — worse — a
            # mid-recovery one as fresh
            stale = self._degraded.is_set()
            if stale:
                self._m_stale_reads.inc()
            g = self._graph
            as_of = self._snapshot_seq
            if kind == "size":
                return QueryResult(g.m, stale, as_of)
            if kind == "edges":
                return QueryResult(g.edge_set(), stale, as_of)
            if kind == "contains":
                return QueryResult(payload in g, stale, as_of)
            if kind in ("distance", "connected"):
                u, v = payload
                if u == v:
                    d = 0
                else:
                    # an isolated/unknown source yields {u: 0}, so the
                    # .get(v) is None — no membership probe needed (and
                    # ``in`` on the graph means edge membership)
                    d = bfs_distances(g, u, target=v).get(v)
                if kind == "connected":
                    return QueryResult(d is not None, stale, as_of)
                return QueryResult(
                    float("inf") if d is None else float(d), stale, as_of
                )
            raise ValueError(f"unknown query kind {kind!r}")

    def query_batch(
        self,
        items,
        consistency: str = "snapshot",
        cost: CostModel | None = None,
    ) -> list[QueryResult]:
        """Answer many reads from one snapshot via shared traversals.

        ``items`` is a :class:`~repro.queries.batch.QueryBatch` or a list
        of ``(kind, payload)`` pairs (same kinds as :meth:`query`).
        Identical queries are deduplicated, all ``distance`` queries share
        one multi-source BFS sweep, and all ``connected`` queries share
        one component labeling — see :func:`repro.queries.answer_queries`.
        Answers are positionally aligned with ``items`` and exactly equal
        what :meth:`query` would return one at a time on the same
        snapshot.  The whole batch carries one staleness tag and one
        ``as_of_seq``, sampled atomically with the snapshot.
        """
        if isinstance(items, QueryBatch):
            items = items.items
        else:
            items = list(items)
        if consistency == "fresh":
            self.flush()
        elif consistency != "snapshot":
            raise ValueError(f"unknown consistency {consistency!r}")
        self._m_requests_query.inc(len(items))
        self._m_query_batches.inc()
        self._m_query_batch_size.observe(len(items))
        with self._snap_lock:
            stale = self._degraded.is_set()
            if stale:
                self._m_stale_reads.inc(len(items))
            as_of = self._snapshot_seq
            answers, stats = answer_queries(
                items,
                self._graph,
                cost=cost or NULL_COST_MODEL,
                backend=self.parallel_backend,
                adj_version=self._snapshot_seq,
            )
        self._m_queries_deduped.inc(stats.queries - stats.unique)
        self.last_query_stats = stats
        return [QueryResult(a, stale, as_of) for a in answers]

    def submit_query(
        self, kind: str, payload: Any = None, now: float | None = None
    ) -> PendingQuery:
        """Enqueue a read to be answered at the next flush cycle.

        The read-side analogue of :meth:`submit_update`: the engine holds
        the read until the batcher's next flush, then answers *every*
        pending read from one shared traversal pass over the
        freshly-flushed snapshot (reads coalesce exactly like updates
        do).  Returns a :class:`PendingQuery`; call ``.result(timeout)``
        to block for the answer, or :meth:`flush` to force the cycle.
        Enqueued reads count toward the batcher's flush trigger, so a
        read-heavy workload still flushes promptly.
        """
        with self._ingest_lock:
            if now is None:
                now = self._clock()
            pending = PendingQuery(kind, payload, now)
            self._pending_reads.append(pending)
            due = self._cycle_due(now)
        if due:
            self._commit_due(now)
        return pending

    def _commit_due(self, now: float) -> None:
        """Run the flush a submit made due: wake the background flusher
        when it runs, else commit on the calling thread — if the flush is
        still due once the commit lock is held (another submitter may
        have committed it meanwhile)."""
        if self._thread is not None:
            self._wake.set()
            return
        with self._commit_lock:
            self._flush_if_due(now)

    def _cycle_due(self, now: float) -> bool:
        """Whether pending updates and reads must flush now.

        Caller holds the ingest lock.
        """
        return self.batcher.should_flush(
            self.queue.depth + len(self._pending_reads),
            self._oldest_waiting(), now,
        )

    def _oldest_waiting(self) -> float | None:
        """Oldest enqueue time across pending updates *and* reads.

        Caller holds the ingest lock.
        """
        oldest = self.queue.oldest_enqueued_at()
        if self._pending_reads:
            oldest_read = self._pending_reads[0].enqueued_at
            if oldest is None or oldest_read < oldest:
                oldest = oldest_read
        return oldest

    # -- replication ---------------------------------------------------------

    @property
    def committed_seq(self) -> int:
        """Sequence number of the last committed (applied) batch."""
        return self._next_seq - 1

    def set_degraded(self, flag: bool) -> None:
        """Raise or clear the degraded marker by hand.

        The sharded executor sets it while a worker is mid-recovery; a
        log-shipping replica sets it while it knows it is behind the
        primary, so reads surface ``stale=True`` through
        :meth:`query_info` by the exact same path recovery does.
        """
        if flag:
            self._degraded.set()
        else:
            self._degraded.clear()

    def align_seq(self, seq: int) -> None:
        """Start committing at ``seq + 1`` (replica bootstrap).

        A replica that bootstraps from a primary's checkpointed base state
        must number its replicated commits exactly as the primary does, or
        :meth:`apply_replicated` would refuse the shipped stream.  Only
        legal before anything was committed locally.
        """
        with self._commit_lock:
            if self.metrics.counter("flushes").value or \
                    self.metrics.counter("replicated_batches").value:
                raise RuntimeError("align_seq after commits were applied")
            self._next_seq = seq + 1
            self._snapshot_seq = seq

    def apply_replicated(self, seq: int, batch: UpdateBatch) -> ApplyResult:
        """Apply one batch shipped from a primary's commit log.

        The replica path: bypasses queue, admission, and batcher — the
        primary already validated, coalesced, and ordered the batch — and
        commits it verbatim at exactly the next sequence number through
        the same step as a local flush (:meth:`_commit`), keeping replica
        state a pure function of ``base spec + shipped log``.  A replica
        has no recovery manager, so nothing is WAL-logged (replica state
        is derived, the primary owns durability).  A gap, a malformed
        endpoint, or a pending local write (replicas are read-only)
        raises before anything applies.
        """
        with self._commit_lock:
            if seq != self._next_seq:
                raise ValueError(
                    f"replicated seq {seq} is not the next expected "
                    f"{self._next_seq}; the shipped log has a gap"
                )
            for u, v in (*batch.insertions, *batch.deletions):
                check_edge(u, v, self._n)
            with self._ingest_lock:
                if self.queue.depth:
                    raise RuntimeError(
                        "apply_replicated with pending local ops; replicas "
                        "are read-only and must never queue writes"
                    )
            result = self._commit(seq, batch)
            self.metrics.counter("replicated_batches").inc()
            return result

    # -- flushing ------------------------------------------------------------

    def pump(self, now: float | None = None) -> bool:
        """Flush if the batcher says it is due; returns True if it flushed."""
        with self._commit_lock:
            if now is None:
                now = self._clock()
            return self._flush_if_due(now)

    def _flush_if_due(self, now: float) -> bool:
        """Commit if pending updates and reads are due at ``now``.

        Caller holds the commit lock.
        """
        with self._ingest_lock:
            due = self._cycle_due(now)
        if due:
            self._flush_locked(now)
        return due

    def flush(self) -> DrainResult | None:
        """Unconditionally drain and apply whatever is pending.

        Pending reads (:meth:`submit_query`) resolve here too: the cycle
        applies queued updates first, then answers every waiting read
        from the new snapshot in one batched pass.
        """
        with self._commit_lock:
            with self._ingest_lock:
                idle = self.queue.depth == 0 and not self._pending_reads
            if idle:
                return None
            return self._flush_locked(self._clock())

    def _flush_locked(self, now: float) -> DrainResult:
        """One commit cycle.  Caller holds the commit lock; the ingest
        lock is taken only around the drain, the batcher feedback and the
        settle of the queue's in-flight overlay."""
        with self._ingest_lock:
            drained = self.queue.drain(now=now)
            pending, self._pending_reads = self._pending_reads, []
        m = self.metrics
        try:
            if drained.batch.size:
                result = self._commit(self._next_seq, drained.batch)
                with self._ingest_lock:
                    self.batcher.record_flush(drained.batch.size, result.work)
                m.counter("flushes").inc()
        except BaseException:
            # the reads were not answered: park them again, ahead of any
            # read that arrived meanwhile, for the next cycle
            with self._ingest_lock:
                self._pending_reads[:0] = pending
            raise
        finally:
            # membership now holds whatever the executor applied
            with self._ingest_lock:
                self.queue.settle()
        m.counter("ops_coalesced_away").inc(drained.coalesced_away)
        m.counter("ops_expired").inc(drained.expired_ops)
        m.histogram("coalesce_ratio").observe(drained.coalesce_ratio)
        m.gauge("queue_depth").set(self.queue.depth)
        m.gauge("adaptive_max_batch").set(self.batcher.current_max_batch)
        if pending:
            # answer every read that was waiting on this cycle from one
            # shared traversal pass over the just-updated snapshot
            self._m_reads_coalesced.inc(len(pending))
            results = self.query_batch(
                [(p.kind, p.payload) for p in pending]
            )
            for p, r in zip(pending, results):
                p._resolve(r)
        return drained

    def _commit(self, seq: int, batch: UpdateBatch) -> ApplyResult:
        """Commit one batch at ``seq``, the step a local flush and a
        replicated batch share: apply → seq → WAL → hooks → snapshot.
        Caller holds the commit lock."""
        # latency is real wall time even when flush *decisions* run on an
        # injected (possibly simulated) clock
        t0 = time.perf_counter()
        result = self.executor.apply(batch, seq=seq)
        latency = time.perf_counter() - t0
        self._next_seq = seq + 1
        self._commit_durable(seq, batch)
        for hook in self.commit_hooks:
            hook(seq, batch)
        m = self.metrics
        if result.recovered:
            m.counter("recoveries").inc(len(result.recovered_shards))
            m.counter("shard_restarts").inc(result.restarts)
            m.counter("quarantined_batches").inc(len(result.quarantined_shards))
            if result.recovery_seconds:
                m.histogram("recovery_latency_s").observe(result.recovery_seconds)
            fallbacks = self.executor.wal_fallbacks
            if fallbacks:
                wf = m.counter("wal_fallbacks")
                wf.inc(fallbacks - wf.value)
            # a rebuilt shard voids the delta stream: resync the snapshot
            # from the live workers, outside the snapshot lock so reads
            # keep being served from the old graph until the swap
            resynced = ArrayDynamicGraph(self._n, self.executor.gather_edges())
            with self._snap_lock:
                self._graph = resynced
                self._snapshot_seq = seq
        else:
            with self._snap_lock:
                self._adj_apply_delta(result.delta_ins, result.delta_del)
                self._snapshot_seq = seq
        m.counter("ops_applied").inc(batch.size)
        m.histogram("batch_size").observe(batch.size)
        m.histogram("flush_latency_s").observe(latency)
        m.histogram("batch_work").observe(result.work)
        m.histogram("batch_critical_work").observe(result.critical_work)
        m.histogram("batch_depth").observe(result.depth)
        return result

    # -- durability ----------------------------------------------------------

    def _commit_durable(self, seq: int, batch: UpdateBatch) -> None:
        """WAL-log one committed batch and checkpoint on schedule."""
        if self.recovery is None:
            return
        m = self.metrics
        m.counter("wal_records").inc()
        self.recovery.log_applied(seq, batch)
        m.gauge("wal_bytes").set(self.recovery.wal_bytes)
        if self.recovery.should_checkpoint():
            self.checkpoint()

    def checkpoint(self) -> bool:
        """Write a checkpoint of the current per-shard state now.

        Returns False (and keeps serving) if the write fails — losing a
        checkpoint only lengthens the next replay, it never loses data,
        so robustness wins over strictness here.
        """
        if self.recovery is None:
            return False
        m = self.metrics
        try:
            with self._commit_lock:
                self.recovery.write_checkpoint(
                    self._next_seq - 1, self.executor.shard_keys()
                )
        except Exception:
            m.counter("checkpoint_failures").inc()
            return False
        m.counter("checkpoints").inc()
        m.gauge("wal_bytes").set(self.recovery.wal_bytes)
        return True

    # -- background flusher --------------------------------------------------

    def start(self) -> None:
        """Run the daemon thread that owns commits: it flushes when the
        batcher says a flush is due (woken by the submit that made it
        due, or by the latency deadline) and, for supervised executors,
        heartbeats worker liveness.  A commit that raises is counted in
        ``flusher_errors`` and the thread keeps serving."""
        if self._thread is not None:
            return
        self._stop.clear()
        supervision = self.executor.supervision
        max_delay = self.config.batcher.max_delay
        last_probe = time.monotonic()

        def loop() -> None:
            nonlocal last_probe
            while True:
                # cleared before the checks below, so a wake (or stop)
                # that lands after them cuts the wait short
                self._wake.clear()
                if self._stop.is_set():
                    return
                try:
                    with self._commit_lock:
                        self._flush_if_due(self._clock())
                        if (supervision is not None
                                and time.monotonic() - last_probe
                                >= supervision.heartbeat_interval):
                            last_probe = time.monotonic()
                            for h in self.executor.health_check(
                                    restart=True):
                                if h.restarted:
                                    self.metrics.counter(
                                        "heartbeat_restarts"
                                    ).inc()
                    with self._ingest_lock:
                        wait = self.batcher.seconds_until_deadline(
                            self._oldest_waiting(), self._clock()
                        )
                except Exception:
                    self.metrics.counter("flusher_errors").inc()
                    wait = max_delay
                self._wake.wait(min(wait, max_delay))

        self._thread = threading.Thread(
            target=loop, name="repro-service-flusher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background flusher and apply any remaining updates.

        Idempotent and exception-safe: the flusher thread is always
        reaped, and a final flush that fails (e.g. the executor is
        already gone) is recorded in metrics instead of propagating out
        of shutdown.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            self._wake.set()
            thread.join(timeout=5.0)
        try:
            self.flush()
        except Exception:
            self.metrics.counter("shutdown_flush_failures").inc()

    def close(self) -> None:
        """Stop the flusher, persist a final checkpoint, and shut the
        executor down.  Safe to call twice; never hangs on a dead shard."""
        if self._closed:
            return
        self._closed = True
        try:
            self.stop()
            if self.recovery is not None:
                self.checkpoint()
        finally:
            self.executor.close()
            if self.parallel_backend is not None:
                self.parallel_backend.close()
            if self.recovery is not None:
                self.recovery.close()

    def __enter__(self) -> "SpannerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- inspection ----------------------------------------------------------

    def snapshot_edges(self) -> set[Edge]:
        """The output edge set as of the last flush."""
        with self._snap_lock:
            return self._graph.edge_set()

    def snapshot_size(self) -> int:
        """Edge count of the snapshot, without copying it."""
        with self._snap_lock:
            return self._graph.m

    def graph_edges(self) -> set[Edge]:
        """The *graph* edge set implied by every applied batch (a copy of
        the executor's membership)."""
        with self._commit_lock:
            return set(self.executor.edges)

    def self_check(self, deep: bool = False):
        """Cross-check the served state against the shared oracle
        (:func:`repro.oracle.verify_service`): flush pending updates, then
        replay every applied batch through a freshly built backend,
        compare output/graph views and check a seeded probe of singleton
        ``distance``/``connected`` answers.  Returns a
        :class:`~repro.oracle.service.ServiceVerification`.
        """
        from repro.oracle.service import verify_service

        with self._commit_lock:
            self.flush()
            return verify_service(self, self.executor, deep=deep)

    def _adj_apply_delta(self, ins, dels) -> None:
        """Apply one output delta to the snapshot graph.

        Caller holds ``_snap_lock``.
        """
        if dels:
            self._graph.delete_batch(dels)
        if ins:
            self._graph.insert_batch(ins)
