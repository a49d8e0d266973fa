"""Tests for the asynchronous serving engine (``repro.service``).

Covers the satellite checklist: coalescing correctness (cancellation,
dedup), deadline-triggered flush, the backpressure rejection path, and a
multiprocessing shard round trip (skip-marked on platforms without
``fork``), plus snapshot consistency and the end-to-end serve demo.
"""

import multiprocessing as mp

import pytest

from repro.graph import gnm_random_graph
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    AdaptiveBatcher,
    BatcherConfig,
    CoalescingQueue,
    LocalExecutor,
    MetricsRegistry,
    ServeConfig,
    ServiceConfig,
    ShardedExecutor,
    SpannerService,
    build_backend,
    edge_shard,
    run_serve,
    split_by_shard,
)
from repro.pram import CostModel
from repro.service.queue import (
    ACCEPTED,
    COALESCED_CANCEL,
    COALESCED_DEDUP,
    REJECTED_ABSENT,
    REJECTED_DUPLICATE,
)
from repro.workloads import UpdateBatch, Workload, request_stream

_HAS_FORK = "fork" in mp.get_all_start_methods()


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- UpdateBatch.coalesce ----------------------------------------------------


class TestCoalesceClassmethod:
    def test_empty(self):
        b = UpdateBatch.coalesce([])
        assert b.insertions == [] and b.deletions == []

    def test_plain_ops_pass_through(self):
        b = UpdateBatch.coalesce(
            [("insert", (0, 1)), ("delete", (2, 3))]
        )
        assert b.insertions == [(0, 1)]
        assert b.deletions == [(2, 3)]

    def test_insert_then_delete_cancels(self):
        b = UpdateBatch.coalesce(
            [("insert", (0, 1)), ("delete", (0, 1))]
        )
        assert b.size == 0

    def test_duplicate_inserts_dedupe(self):
        b = UpdateBatch.coalesce(
            [("insert", (0, 1)), ("insert", (0, 1))]
        )
        assert b.insertions == [(0, 1)] and b.deletions == []

    def test_duplicate_deletes_dedupe(self):
        b = UpdateBatch.coalesce(
            [("delete", (0, 1)), ("delete", (0, 1))]
        )
        assert b.deletions == [(0, 1)] and b.insertions == []

    def test_delete_then_insert_is_replace(self):
        b = UpdateBatch.coalesce(
            [("delete", (0, 1)), ("insert", (0, 1))]
        )
        assert b.insertions == [(0, 1)] and b.deletions == [(0, 1)]

    def test_replace_then_delete_collapses_to_delete(self):
        b = UpdateBatch.coalesce(
            [("delete", (0, 1)), ("insert", (0, 1)), ("delete", (0, 1))]
        )
        assert b.deletions == [(0, 1)] and b.insertions == []

    def test_cancel_then_fresh_insert_survives(self):
        b = UpdateBatch.coalesce(
            [("insert", (0, 1)), ("delete", (0, 1)), ("insert", (0, 1))]
        )
        assert b.insertions == [(0, 1)] and b.deletions == []

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            UpdateBatch.coalesce([("upsert", (0, 1))])

    def test_coalesced_batch_is_replay_legal(self):
        ops = [
            ("insert", (0, 2)), ("delete", (0, 1)), ("insert", (0, 1)),
            ("insert", (1, 2)), ("delete", (1, 2)), ("delete", (2, 3)),
        ]
        batch = UpdateBatch.coalesce(ops)
        w = Workload(5, [(0, 1), (2, 3)], [batch])
        (_, final), = list(w.replay())
        assert final == {(0, 1), (0, 2)}


# -- CoalescingQueue ---------------------------------------------------------


class TestCoalescingQueue:
    def test_offer_outcomes(self):
        q = CoalescingQueue(present=[(0, 1)], clock=FakeClock())
        assert q.offer("insert", (1, 2)) == ACCEPTED
        assert q.offer("insert", (1, 2)) == COALESCED_DEDUP
        assert q.offer("delete", (1, 2)) == COALESCED_CANCEL
        assert q.offer("insert", (0, 1)) == REJECTED_DUPLICATE
        assert q.offer("delete", (4, 5)) == REJECTED_ABSENT
        assert q.offer("delete", (0, 1)) == ACCEPTED
        assert q.offer("delete", (0, 1)) == COALESCED_DEDUP

    def test_offer_normalizes_edges(self):
        q = CoalescingQueue(clock=FakeClock())
        q.offer("insert", (3, 1))
        assert q.pending_ops() == [("insert", (1, 3))]

    def test_drain_applies_to_live_view(self):
        q = CoalescingQueue(present=[(0, 1)], clock=FakeClock())
        q.offer("delete", (0, 1))
        q.offer("insert", (1, 2))
        res = q.drain()
        assert res.batch.deletions == [(0, 1)]
        assert res.batch.insertions == [(1, 2)]
        assert q.live_edges == {(1, 2)}
        assert q.depth == 0

    def test_cancelled_pair_never_reaches_batch(self):
        q = CoalescingQueue(clock=FakeClock())
        q.offer("insert", (1, 2))
        q.offer("delete", (1, 2))
        res = q.drain()
        assert res.batch.size == 0
        assert res.raw_ops == 2
        assert res.coalesced_away == 2
        assert res.coalesce_ratio == 1.0

    def test_validation_tracks_pending_not_just_live(self):
        q = CoalescingQueue(present=[(0, 1)], clock=FakeClock())
        q.offer("delete", (0, 1))
        # effectively absent now: a delete is a dedupe, an insert is legal
        assert not q.effectively_present((0, 1))
        assert q.offer("insert", (0, 1)) == COALESCED_CANCEL
        assert q.effectively_present((0, 1))

    def test_drained_batches_replay_against_initial_edges(self):
        edges, requests = request_stream(24, 60, 400, seed=9)
        q = CoalescingQueue(present=edges, clock=FakeClock())
        batches = []
        for i, (op, payload) in enumerate(requests):
            if op == "query":
                continue
            q.offer(op, payload)
            if i % 37 == 0:
                batches.append(q.drain().batch)
        batches.append(q.drain().batch)
        w = Workload(24, edges, batches)
        final = set(edges)
        for _, final in w.replay():
            pass
        assert final == q.live_edges

    def test_timeout_expires_whole_edge_groups(self):
        clk = FakeClock()
        q = CoalescingQueue(clock=clk)
        q.offer("insert", (0, 1), timeout=0.5)
        clk.advance(1.0)
        q.offer("insert", (2, 3), timeout=0.5)
        res = q.drain()
        assert res.expired_ops == 1
        assert q.expired == 1
        assert res.batch.insertions == [(2, 3)]
        # the expired insert never applied: membership unchanged
        assert q.live_edges == {(2, 3)}

    def test_partial_group_expiry_keeps_group(self):
        clk = FakeClock()
        q = CoalescingQueue(present=[(0, 1)], clock=clk)
        q.offer("delete", (0, 1), timeout=0.5)
        clk.advance(1.0)
        # fresh re-insert on the same edge: group must NOT be dropped,
        # otherwise the (still wanted) re-insert would vanish
        q.offer("insert", (0, 1), timeout=0.5)
        res = q.drain()
        assert res.expired_ops == 0
        assert res.batch.deletions == [(0, 1)]
        assert res.batch.insertions == [(0, 1)]

    def test_mixed_deadline_groups_expire_independently(self):
        clk = FakeClock()
        q = CoalescingQueue(present=[(4, 5)], clock=clk)
        q.offer("insert", (0, 1), timeout=0.5)  # whole group expires
        q.offer("delete", (4, 5), timeout=0.5)  # expired, but kept by ...
        clk.advance(1.0)
        q.offer("insert", (4, 5), timeout=0.5)  # ... this still-live op
        q.offer("insert", (2, 3))               # no deadline at all
        res = q.drain()
        assert res.expired_ops == 1             # only the (0, 1) group
        assert q.expired == 1
        assert sorted(res.batch.insertions) == [(2, 3), (4, 5)]
        assert res.batch.deletions == [(4, 5)]
        assert q.live_edges == {(2, 3), (4, 5)}

    def test_expired_insert_can_be_reoffered_after_drain(self):
        clk = FakeClock()
        q = CoalescingQueue(clock=clk)
        assert q.offer("insert", (0, 1), timeout=0.5) == ACCEPTED
        clk.advance(1.0)
        res = q.drain()
        assert res.expired_ops == 1 and res.batch.size == 0
        assert q.live_edges == set()
        # the edge never became live, so the same insert is legal again
        assert q.offer("insert", (0, 1)) == ACCEPTED
        res = q.drain()
        assert res.batch.insertions == [(0, 1)]
        assert q.live_edges == {(0, 1)}

    def test_coalesce_ratio_when_everything_expires(self):
        clk = FakeClock()
        q = CoalescingQueue(clock=clk)
        q.offer("insert", (0, 1), timeout=0.5)
        q.offer("delete", (0, 1), timeout=0.5)  # cancels the insert
        q.offer("insert", (2, 3), timeout=0.5)
        clk.advance(1.0)
        res = q.drain()
        assert res.raw_ops == 3
        assert res.expired_ops == 3
        assert res.batch.size == 0
        # nothing survived to be coalesced: the ratio is 0/0, defined as 0
        assert res.coalesced_away == 0
        assert res.coalesce_ratio == 0.0


# -- AdaptiveBatcher ---------------------------------------------------------


class TestAdaptiveBatcher:
    def test_size_trigger(self):
        b = AdaptiveBatcher(BatcherConfig(max_batch=4, max_delay=10.0))
        assert not b.should_flush(3, 0.0, 0.0)
        assert b.should_flush(4, 0.0, 0.0)

    def test_deadline_trigger(self):
        b = AdaptiveBatcher(BatcherConfig(max_batch=100, max_delay=0.01))
        assert not b.should_flush(1, 0.0, 0.005)
        assert b.should_flush(1, 0.0, 0.01)

    def test_empty_queue_never_flushes(self):
        b = AdaptiveBatcher(BatcherConfig())
        assert not b.should_flush(0, None, 1e9)

    def test_adapts_max_batch_to_work(self):
        cfg = BatcherConfig(
            max_batch=64, target_batch_work=1000, min_batch=8,
            max_batch_cap=512, ewma_alpha=1.0,
        )
        b = AdaptiveBatcher(cfg)
        b.record_flush(batch_size=10, work=100)   # 10 work/op -> ideal 100
        assert b.current_max_batch == 100
        b.record_flush(batch_size=10, work=10000)  # 1000 work/op -> floor
        assert b.current_max_batch == 8
        b.record_flush(batch_size=10, work=10)     # 1 work/op -> ceiling
        assert b.current_max_batch == 512

    def test_seconds_until_deadline(self):
        b = AdaptiveBatcher(BatcherConfig(max_delay=0.01))
        assert b.seconds_until_deadline(None, 5.0) == 0.01
        assert b.seconds_until_deadline(5.0, 5.004) == pytest.approx(0.006)
        assert b.seconds_until_deadline(5.0, 6.0) == 0.0


# -- AdmissionController -----------------------------------------------------


class TestAdmission:
    def test_admits_below_capacity(self):
        a = AdmissionController(AdmissionConfig(max_pending=10))
        d = a.admit(depth=9, flush_interval=0.01)
        assert d.admitted and d.retry_after is None
        assert a.shed_count == 0

    def test_sheds_at_capacity_with_retry_after(self):
        a = AdmissionController(AdmissionConfig(max_pending=10))
        d = a.admit(depth=10, flush_interval=0.01)
        assert not d.admitted
        assert d.retry_after is not None and d.retry_after >= 0.01
        assert a.shed_count == 1

    def test_retry_after_grows_with_overflow(self):
        a = AdmissionController(AdmissionConfig(max_pending=10))
        small = a.admit(depth=10, flush_interval=0.01).retry_after
        large = a.admit(depth=100, flush_interval=0.01).retry_after
        assert large > small

    def test_retry_after_formula_pinned(self):
        # retry_after = (overflow / max_pending) * flush_interval, floored
        # at flush_interval and min_retry_after (as documented on
        # AdmissionConfig) — this pins the exact arithmetic
        cfg = AdmissionConfig(max_pending=10, min_retry_after=0.001)
        a = AdmissionController(cfg)
        fi = 0.02
        # overflow=1: the proportional term (fi/10) is below one flush
        # interval, so the hint floors at exactly flush_interval
        assert a.admit(depth=10, flush_interval=fi).retry_after == \
            pytest.approx(fi)
        # overflow=51: proportional term dominates
        assert a.admit(depth=60, flush_interval=fi).retry_after == \
            pytest.approx(fi * 51 / 10)
        # tiny flush interval: min_retry_after is the floor
        assert a.admit(depth=10, flush_interval=1e-6).retry_after == \
            pytest.approx(cfg.min_retry_after)


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_and_gauge(self):
        m = MetricsRegistry()
        m.counter("x").inc()
        m.counter("x").inc(4)
        m.gauge("g").set(2.5)
        snap = m.snapshot()
        assert snap["x"] == 5 and snap["g"] == 2.5
        with pytest.raises(ValueError):
            m.counter("x").inc(-1)

    def test_histogram_percentiles(self):
        m = MetricsRegistry()
        h = m.histogram("lat")
        for i in range(1, 101):
            h.observe(i)
        assert h.count == 100
        assert h.percentile(50) == pytest.approx(50, abs=1)
        assert h.percentile(99) == pytest.approx(99, abs=1)
        assert h.summary()["max"] == 100

    def test_histogram_reservoir_bounded(self):
        h = MetricsRegistry().histogram("x", reservoir=8)
        for i in range(1000):
            h.observe(i)
        assert h.count == 1000
        assert len(h._samples) == 8

    def test_histogram_tracks_whole_drifting_stream(self):
        # Regression: once full, the reservoir used to overwrite a rotating
        # slot on every observation, silently degrading into a sliding
        # window of the most recent values — on a drifting stream p50
        # reported ~the latest value instead of the stream median.  The
        # stride-doubling decimation keeps a uniform systematic sample of
        # the whole stream.
        n = 100_000
        h = MetricsRegistry().histogram("drift", reservoir=64)
        for i in range(n):
            h.observe(float(i))
        assert len(h._samples) <= 64
        # observation 0 survives forever (index 0 is on every stride grid)
        assert min(h._samples) == 0.0
        # median of the retained sample sits near the stream median, far
        # from the window median ~n the old scheme produced
        assert 0.25 * n < h.percentile(50) < 0.75 * n

    def test_histogram_rejects_degenerate_reservoir(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("tiny", reservoir=1)

    def test_render_mentions_everything(self):
        m = MetricsRegistry()
        m.counter("shed").inc(3)
        m.histogram("batch_size").observe(17)
        out = m.render()
        assert "shed" in out and "batch_size" in out and "p99" in out


# -- SpannerService over a LocalExecutor -------------------------------------


def _local_service(n=32, m=96, seed=5, **batcher_kw):
    edges = gnm_random_graph(n, m, seed=seed)
    spec = {"kind": "spanner", "n": n, "edges": edges, "seed": seed,
            "k": 2, "base_capacity": 16}
    clk = FakeClock()
    svc = SpannerService(
        LocalExecutor(spec),
        config=ServiceConfig(
            batcher=BatcherConfig(**batcher_kw) if batcher_kw
            else BatcherConfig(max_batch=8, max_delay=0.01),
        ),
        clock=clk,
    )
    return svc, clk, edges, spec


def _absent_edge(edges, n=32):
    """An in-range edge not in ``edges`` (a write the engine accepts)."""
    present = set(edges)
    return next((u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in present)


class TestSpannerService:
    def test_snapshot_hides_pending_updates(self):
        svc, clk, edges, _ = _local_service()
        before = svc.query("size")
        svc.submit_update("delete", *edges[0])
        assert svc.query("size") == before  # not flushed yet
        svc.flush()
        assert svc.graph_edges() == set(edges[1:])

    def test_fresh_consistency_reads_own_writes(self):
        svc, clk, edges, _ = _local_service()
        e = edges[0]
        assert svc.query("contains", e)
        svc.submit_update("delete", *e)
        assert not svc.query("contains", e, consistency="fresh")

    def test_size_trigger_flushes_inline(self):
        svc, clk, edges, _ = _local_service()
        for e in edges[:8]:  # max_batch=8
            svc.submit_update("delete", *e)
        assert svc.queue.depth == 0
        assert svc.metrics.snapshot()["flushes"] == 1

    def test_deadline_trigger_via_pump(self):
        svc, clk, edges, _ = _local_service()
        svc.submit_update("delete", *edges[0])
        assert not svc.pump()          # deadline not reached
        clk.advance(0.02)              # > max_delay=0.01
        assert svc.pump()
        assert svc.graph_edges() == set(edges[1:])

    def test_backpressure_sheds_with_retry_after(self):
        edges = gnm_random_graph(16, 40, seed=1)
        spec = {"kind": "spanner", "n": 16, "edges": edges, "seed": 1,
                "k": 2, "base_capacity": 16}
        svc = SpannerService(
            LocalExecutor(spec),
            config=ServiceConfig(
                batcher=BatcherConfig(max_batch=100, max_delay=10.0),
                admission=AdmissionConfig(max_pending=4),
            ),
            clock=FakeClock(),
        )
        responses = [
            svc.submit_update("delete", *e) for e in edges[:6]
        ]
        assert [r.accepted for r in responses] == [True] * 4 + [False] * 2
        shed = responses[-1]
        assert shed.outcome == "shed"
        assert shed.retry_after is not None and shed.retry_after > 0
        assert svc.metrics.snapshot()["shed"] == 2
        # after a flush the queue has room again
        svc.flush()
        assert svc.submit_update("delete", *edges[4]).accepted

    def test_rejected_ops_do_not_enter_queue(self):
        svc, clk, edges, _ = _local_service()
        present = set(edges)
        absent = next(
            (u, v)
            for u in range(32) for v in range(u + 1, 32)
            if (u, v) not in present
        )
        bogus = svc.submit_update("delete", *absent)
        assert not bogus.accepted
        assert bogus.outcome == "rejected_absent"
        assert svc.queue.depth == 0

    def test_distance_query_matches_snapshot_bfs(self):
        svc, clk, edges, _ = _local_service()
        u, v = edges[0]
        assert svc.query("distance", (u, v)) >= 1.0
        assert svc.query("distance", (u, u)) == 0
        assert svc.query("connected", (u, v))

    def test_read_edge_cases_singleton_and_batch(self):
        """``query`` and ``query_batch`` share one read contract: a
        negative id is unreachable (it must not wrap to vertex n - 1),
        and ``(v, v)`` is 0 / True even for ``v >= n``."""
        svc, _, _, _ = _local_service()   # n = 32
        assert svc.query("connected", (31, 3))   # so a wrap would show
        items = [("distance", (-1, 3)), ("connected", (3, -1)),
                 ("distance", (3, -1)), ("connected", (-1, 3)),
                 ("distance", (40, 40)), ("connected", (40, 40)),
                 ("distance", (32, 32)), ("connected", (3, 32))]
        want = [float("inf"), False, float("inf"), False,
                0.0, True, 0.0, False]
        assert [svc.query(k, p) for k, p in items] == want
        assert [r.value for r in svc.query_batch(items)] == want
        svc.close()

    def test_singleton_read_builds_no_csr(self):
        # reads walk the live arena: a read between commits must not
        # build (or refresh) the snapshot graph's per-epoch CSR view
        svc, _, edges, _ = _local_service()
        for e in edges[:4]:
            svc.submit_update("delete", *e)
        svc.flush()
        g = svc._graph
        cache = g._csr_cache
        assert cache is None or cache[0] != g.version
        for u, v in edges[4:20]:
            svc.query("distance", (u, v))
            svc.query("connected", (v, u))
        assert g._csr_cache is cache
        svc.close()

    def test_service_equivalent_to_synchronous_replay(self):
        svc, clk, edges, spec = _local_service()
        _, requests = request_stream(32, 0, 300, seed=8)
        # drive requests whose edges exist/absent per the service view
        for op, payload in requests:
            if op == "query":
                continue
            clk.advance(0.001)
            svc.pump()
            svc.submit_update(op, *payload)
        svc.flush()
        rebuilt = build_backend(spec, CostModel())
        for batch in svc.executor.history[0]:
            rebuilt.update(
                insertions=batch.insertions, deletions=batch.deletions
            )
        assert rebuilt.output_edges() == svc.snapshot_edges()

    def test_background_flusher_thread(self):
        import time as _time

        edges = gnm_random_graph(16, 40, seed=2)
        spec = {"kind": "spanner", "n": 16, "edges": edges, "seed": 2,
                "k": 2, "base_capacity": 16}
        svc = SpannerService(
            LocalExecutor(spec),
            config=ServiceConfig(
                batcher=BatcherConfig(max_batch=1000, max_delay=0.01),
            ),
        )  # real clock
        svc.start()
        try:
            svc.submit_update("delete", *edges[0])
            deadline = _time.monotonic() + 2.0
            while svc.queue.depth and _time.monotonic() < deadline:
                _time.sleep(0.005)
            assert svc.queue.depth == 0, "flusher thread never fired"
        finally:
            svc.stop()
        assert svc.graph_edges() == set(edges[1:])

    def test_out_of_range_write_rejected_before_admission(self):
        """A write naming a vertex outside [0, n) raises like a self-loop
        and never reaches the queue, so traversal reads keep working."""
        svc, _, edges, _ = _local_service()   # n = 32
        for op, u, v in (("insert", 3, 50), ("insert", 32, 3),
                         ("insert", -1, 4), ("delete", 3, 50)):
            with pytest.raises(ValueError, match=r"outside \[0, 32\)"):
                svc.submit_update(op, u, v)
        assert svc.queue.depth == 0
        assert svc.metrics.counter("requests_update").value == 0
        svc.submit_update("delete", *edges[0])
        svc.flush()
        u, v = edges[1]
        assert svc.query("connected", (u, v))
        assert svc.query("distance", (u, v)) == 1.0
        assert [r.value for r in svc.query_batch(
            [("distance", (u, v)), ("connected", (u, v))])] == [1.0, True]
        assert svc.self_check().ok


# -- sharded executor --------------------------------------------------------


class TestShardRouting:
    def test_router_is_total_and_stable(self):
        edges = gnm_random_graph(40, 200, seed=3)
        for s in (1, 2, 5):
            parts = split_by_shard(edges, s)
            assert sum(len(p) for p in parts) == len(edges)
            for i, part in enumerate(parts):
                for e in part:
                    assert edge_shard(e, s) == i

    def test_reasonable_balance(self):
        edges = gnm_random_graph(64, 600, seed=4)
        parts = split_by_shard(edges, 4)
        sizes = [len(p) for p in parts]
        assert min(sizes) > 0.5 * (600 / 4)


class TestLocalExecutorIsOneShard:
    SPEC = {"kind": "spanner", "n": 32, "seed": 5, "k": 2,
            "base_capacity": 16,
            "edges": gnm_random_graph(32, 96, seed=5)}

    def test_same_structure_deltas_and_charges(self):
        """``LocalExecutor`` is ``ShardedExecutor(spec)``: its deltas and
        charged work/depth equal those of ``build_backend(spec)``."""
        edges = self.SPEC["edges"]
        ex = LocalExecutor(self.SPEC)
        cm = CostModel()
        ref = build_backend(self.SPEC, cm)
        batches = [UpdateBatch(deletions=edges[:10]),
                   UpdateBatch(insertions=edges[:4], deletions=edges[10:12]),
                   UpdateBatch(insertions=edges[4:10])]
        for batch in batches:
            res = ex.apply(batch)
            with cm.frame() as fr:
                ins, dels = ref.update(insertions=batch.insertions,
                                       deletions=batch.deletions)
            assert (res.delta_ins, res.delta_del) == (set(ins), set(dels))
            assert (res.work, res.depth, res.critical_work) == \
                (fr.work, fr.depth, fr.work)
        assert ex.gather_edges() == ref.output_edges()
        assert ex.graph_union() == set(edges) - set(edges[10:12])
        ex.close()

    def test_replay_benchmark_shim(self):
        """The names the replay benchmark reads: ``engine.LocalExecutor``
        with ``apply`` in its own namespace (its tracer wraps it there)
        and a flat ``applied_batches``; per-shard lists on the sharded
        executor."""
        import repro.service.engine as engine

        assert engine.LocalExecutor is LocalExecutor
        assert engine.build_backend is build_backend
        assert LocalExecutor.__dict__["apply"] is ShardedExecutor.apply
        ex = LocalExecutor(self.SPEC)
        ex.apply(UpdateBatch(deletions=self.SPEC["edges"][:3]))
        assert ex.applied_batches is ex.history[0]
        assert len(ex.applied_batches) == 1
        ex.close()
        sharded = ShardedExecutor(self.SPEC, 2)
        assert sharded.applied_batches is sharded.history
        sharded.close()


class TestShardedExecutorInproc:
    def test_matches_unsharded_graph(self):
        edges = gnm_random_graph(32, 120, seed=6)
        spec = {"kind": "spanner", "n": 32, "edges": edges, "seed": 6,
                "k": 2, "base_capacity": 16}
        ex = ShardedExecutor(spec, shards=3, processes=False)
        assert ex.graph_union() == set(edges)
        batch = UpdateBatch(deletions=edges[:30])
        res = ex.apply(batch)
        assert res.work >= res.critical_work > 0
        # graph semantics: shards jointly hold exactly the surviving edges
        union_after = ex.gather_edges()
        w = Workload(32, edges, [batch])
        (_, final), = list(w.replay())
        # spanner edges are a subgraph of the survivors
        assert union_after <= final
        assert sum(ex.scatter_sizes()) == len(union_after)
        ex.close()

    def test_per_shard_seeds_differ(self):
        spec = {"kind": "spanner", "n": 8, "edges": [], "seed": 5, "k": 2}
        ex = ShardedExecutor(spec, shards=3, processes=False)
        assert [s["seed"] for s in ex.shard_specs] == [5, 6, 7]
        ex.close()

    def test_close_frees_shard_state(self):
        from repro.service.shard import _SHARDS

        spec = {"kind": "spanner", "n": 8, "edges": [(0, 1), (2, 3)],
                "seed": 5, "k": 2}
        ex = ShardedExecutor(spec, shards=2, processes=False)
        mine = {(ex._token, 0), (ex._token, 1)}
        assert mine <= _SHARDS.keys()
        ex.close()
        assert not mine & _SHARDS.keys()

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedExecutor({"kind": "spanner", "n": 4}, shards=0)


@pytest.mark.skipif(not _HAS_FORK, reason="platform lacks fork")
class TestShardedExecutorMultiprocessing:
    def test_round_trip_smoke(self):
        edges = gnm_random_graph(24, 80, seed=7)
        spec = {"kind": "spanner", "n": 24, "edges": edges, "seed": 7,
                "k": 2, "base_capacity": 16}
        with ShardedExecutor(spec, shards=2, processes=True) as ex:
            before = ex.gather_edges()
            assert before  # workers answered
            res = ex.apply(UpdateBatch(deletions=edges[:10]))
            assert res.work > 0
            after = ex.gather_edges()
            assert after == (before - res.delta_del) | res.delta_ins
            # identical to the in-process execution of the same batches
            ref = ShardedExecutor(spec, shards=2, processes=False)
            ref.apply(UpdateBatch(deletions=edges[:10]))
            assert ref.gather_edges() == after
            ref.close()


# -- end-to-end serve demo ---------------------------------------------------


class TestServeDemo:
    def test_small_run_verifies(self):
        cfg = ServeConfig(
            n=48, m=160, requests=1200, shards=2, processes=False, seed=13
        )
        report = run_serve(cfg)
        assert report.verified
        assert report.served >= 1200
        assert report.applied_ops > 0
        assert report.flushes > 0
        assert report.coalesced > 0
        assert report.shed > 0  # bursts overflow the bounded queue
        assert report.metrics["coalesce_ratio.count"] > 0
        assert "flush_latency_s" in report.metrics_text

    def test_sparsifier_backend(self):
        cfg = ServeConfig(
            n=32, m=120, requests=400, shards=2, processes=False,
            seed=2, backend="sparsifier", burst_every=0,
        )
        report = run_serve(cfg)
        assert report.verified
        assert report.applied_ops > 0

    def test_cli_serve_command(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "--n", "48", "--m", "160", "--requests", "800",
            "--shards", "2", "--no-processes", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro serve" in out
        assert "coalesce_ratio" in out
        assert "shed" in out
        assert "verification: OK" in out


# -- replication hooks on the engine ------------------------------------------


class TestEngineReplication:
    def test_apply_replicated_matches_local_flush(self):
        """Primary flushes; a sibling engine fed apply_replicated from
        the primary's commit hooks reaches bit-identical state."""
        primary, _, edges, spec = _local_service()
        replica = SpannerService(LocalExecutor(dict(spec)))
        shipped: list[tuple[int, UpdateBatch]] = []
        primary.commit_hooks.append(lambda seq, b: shipped.append((seq, b)))
        for e in edges[:6]:
            primary.submit_update("delete", *e)
        primary.flush()
        primary.submit_update("insert", *_absent_edge(edges))
        primary.flush()
        for seq, batch in shipped:
            replica.apply_replicated(seq, batch)
        assert replica.committed_seq == primary.committed_seq
        assert replica.snapshot_edges() == primary.snapshot_edges()
        assert replica.graph_edges() == primary.graph_edges()
        assert (replica.metrics.snapshot()["replicated_batches"]
                == len(shipped))

    def test_apply_replicated_rejects_gaps(self):
        svc, _, edges, _ = _local_service()
        e = next((u, v) for u in range(32) for v in range(u + 1, 32)
                 if (u, v) not in set(edges))
        batch = UpdateBatch(insertions=[e])
        with pytest.raises(ValueError, match="gap"):
            svc.apply_replicated(5, batch)
        svc.apply_replicated(1, batch)
        with pytest.raises(ValueError, match="gap"):
            svc.apply_replicated(1, batch)  # replay of an applied seq

    def test_apply_replicated_rejects_out_of_range(self):
        """A shipped endpoint outside [0, n) is refused before the batch
        reaches the executor: nothing applied, the seq does not advance,
        and reads keep working."""
        svc, _, edges, _ = _local_service()
        before = svc.snapshot_edges()
        for bad in ((200, 201), (3, 32), (-1, 4)):
            with pytest.raises(ValueError, match="outside"):
                svc.apply_replicated(1, UpdateBatch(insertions=[bad]))
        with pytest.raises(ValueError, match="outside"):
            svc.apply_replicated(1, UpdateBatch(deletions=[(0, 99)]))
        assert svc.committed_seq == 0
        assert svc.executor.history == [[]]
        assert svc.snapshot_edges() == before
        assert svc.query_batch([("distance", (0, 1))])[0].value == \
            svc.query("distance", (0, 1))
        svc.apply_replicated(1, UpdateBatch(deletions=[edges[0]]))
        assert svc.committed_seq == 1

    def test_align_seq_bootstraps_numbering(self):
        svc, _, edges, _ = _local_service()
        svc.align_seq(41)
        assert svc.committed_seq == 41
        res = svc.apply_replicated(42, UpdateBatch(insertions=[(1, 2)]))
        assert res.delta_ins == {(1, 2)}
        assert svc.query_info("size").as_of_seq == 42

    def test_align_seq_refused_after_any_commit(self):
        svc, _, edges, _ = _local_service()
        svc.submit_update("delete", *edges[0])
        svc.flush()
        with pytest.raises(RuntimeError, match="align_seq"):
            svc.align_seq(10)

    def test_local_writes_refused_after_replicated_state(self):
        """A replica's queue must refuse to mix local ops with shipped
        batches (replicas are read-only)."""
        svc, _, edges, _ = _local_service()
        svc.submit_update("delete", *edges[0])
        with pytest.raises(RuntimeError, match="read-only"):
            svc.apply_replicated(1, UpdateBatch(insertions=[(7, 8)]))

    def test_set_degraded_stale_tag_round_trip(self):
        """Satellite: query_info carries the staleness marker while the
        degraded flag is raised, and clears it on the way out."""
        svc, _, edges, _ = _local_service()
        assert svc.query_info("size").stale is False
        svc.set_degraded(True)
        info = svc.query_info("size")
        assert info.stale is True
        assert info.as_of_seq == svc.committed_seq
        fresh = _absent_edge(edges)
        resp = svc.submit_update("insert", *fresh)
        assert not resp.accepted
        assert resp.outcome == "shed_degraded"
        assert resp.retry_after is not None and resp.retry_after > 0
        svc.set_degraded(False)
        assert svc.query_info("size").stale is False
        assert svc.submit_update("insert", *fresh).accepted

    def test_admission_query_quota(self):
        ctrl = AdmissionController(AdmissionConfig(max_inflight_queries=2))
        assert ctrl.admit_query(0, 0.001).admitted
        assert ctrl.admit_query(1, 0.001).admitted
        shed = ctrl.admit_query(2, 0.001)
        assert not shed.admitted
        assert shed.retry_after is not None and shed.retry_after > 0
        assert ctrl.query_shed_count == 1
        # no cap configured -> always admitted
        open_ctrl = AdmissionController(AdmissionConfig())
        assert open_ctrl.admit_query(10**6).admitted


# -- batched reads ------------------------------------------------------------


class TestQueryBatching:
    def test_query_batch_matches_singleton(self):
        svc, clk, edges, _ = _local_service(n=40, m=120)
        import numpy as np

        rng = np.random.default_rng(17)
        items = [("size", None), ("edges", None)]
        for _ in range(40):
            kind = ("distance", "connected", "contains")[
                int(rng.integers(0, 3))]
            items.append((kind, tuple(map(int, rng.integers(0, 40, 2)))))
        results = svc.query_batch(items)
        for (kind, payload), res in zip(items, results):
            assert res.value == svc.query(kind, payload)
            assert res.stale is False
        svc.close()

    def test_query_batch_accepts_query_batch_object(self):
        from repro.queries import QueryBatch

        svc, _, _, _ = _local_service()
        out = svc.query_batch(QueryBatch([("size", None)]))
        assert out[0].value == svc.query("size")
        svc.close()

    def test_query_batch_metrics_and_stats(self):
        svc, _, _, _ = _local_service()
        svc.query_batch([("size", None), ("size", None),
                         ("distance", (0, 1)), ("distance", (1, 0))])
        m = svc.metrics
        assert m.counter("query_batches").value == 1
        assert m.counter("requests_query").value == 4
        assert m.counter("queries_deduped").value == 2
        assert svc.last_query_stats.queries == 4
        assert svc.last_query_stats.unique == 2
        svc.close()

    def test_query_batch_fresh_flushes_first(self):
        svc, _, edges, _ = _local_service()
        before = svc.query("size")
        svc.submit_update("delete", *edges[0])
        # snapshot consistency: the default answers pre-flush
        assert svc.query_batch([("size", None)])[0].value == before
        res = svc.query_batch(
            [("contains", edges[0])], consistency="fresh")
        assert res[0].value is False
        svc.close()

    def test_query_batch_rejects_unknown(self):
        svc, _, _, _ = _local_service()
        with pytest.raises(ValueError):
            svc.query_batch([("nope", (0, 1))])
        with pytest.raises(ValueError):
            svc.query_batch([("size", None)], consistency="wat")
        svc.close()

    def test_submit_query_resolves_on_flush(self):
        svc, clk, edges, _ = _local_service()
        pending = svc.submit_query("size")
        assert not pending.done
        svc.flush()
        assert pending.done
        assert pending.result(timeout=0.1).value == svc.query("size")
        svc.close()

    def test_submit_query_sees_batched_writes(self):
        # reads drain *after* the same cycle's updates apply:
        # the answer reflects the write submitted before the flush
        svc, _, edges, _ = _local_service()
        gone = edges[0]
        p = svc.submit_query("contains", gone)
        svc.submit_update("delete", *gone)
        svc.flush()
        assert p.result(timeout=0.1).value is False
        svc.close()

    def test_pending_reads_count_toward_flush_trigger(self):
        svc, clk, _, _ = _local_service(max_batch=4, max_delay=10.0)
        ps = [svc.submit_query("size") for _ in range(4)]
        # the 4th enqueued read crossed max_batch: flushed inline
        assert all(p.done for p in ps)
        assert svc.metrics.counter("reads_coalesced").value == 4
        svc.close()

    def test_flush_with_only_pending_reads(self):
        svc, _, _, _ = _local_service()
        p = svc.submit_query("connected", (0, 1))
        assert svc.flush() is not None
        assert p.done
        assert svc.flush() is None  # nothing left
        svc.close()

    def test_pending_query_timeout(self):
        svc, _, _, _ = _local_service()
        p = svc.submit_query("size")
        with pytest.raises(TimeoutError):
            p.result(timeout=0.01)
        svc.flush()
        svc.close()

    def test_stop_drains_pending_reads(self):
        svc, _, _, _ = _local_service()
        p = svc.submit_query("size")
        svc.stop()
        assert p.done
        svc.close()


class TestStalenessTagRace:
    def test_stale_tag_sampled_atomically_with_snapshot(self):
        """Regression: the degraded flag used to be sampled *before*
        taking the snapshot lock, so a recovery completing (or starting)
        between the two reads tagged the answer inconsistently.  The tag
        must reflect the degraded state at snapshot-read time."""
        svc, _, _, _ = _local_service()

        class FlipOnAcquire:
            """Proxy lock: degraded flips only once the lock is held."""

            def __init__(self, inner, event):
                self.inner = inner
                self.event = event

            def __enter__(self):
                self.inner.acquire()
                self.event.set()  # recovery starts "now"
                return self

            def __exit__(self, *exc):
                self.inner.release()

        import threading

        svc._snap_lock = FlipOnAcquire(threading.Lock(), svc._degraded)
        res = svc.query_info("size")
        # degraded was set before the snapshot was read, so the answer
        # must carry stale=True; pre-fix code sampled stale=False first
        assert res.stale is True
        assert svc.metrics.counter("stale_reads").value == 1
        svc._degraded.clear()
        svc.close()

    def test_query_batch_stale_tag_inside_lock(self):
        svc, _, _, _ = _local_service()
        svc.set_degraded(True)
        results = svc.query_batch([("size", None), ("size", None)])
        assert all(r.stale for r in results)
        assert svc.metrics.counter("stale_reads").value == 2
        svc.set_degraded(False)
        assert not svc.query_batch([("size", None)])[0].stale
        svc.close()
