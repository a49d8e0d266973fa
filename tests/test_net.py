"""Tests for the networked serving layer (``repro.net``).

Covers the wire protocol (framing, split feeds, oversize rejection,
handshake), the in-memory replication log, the TCP server/client round
trip with error envelopes, degraded-mode stale/retry_after pass-through,
Prometheus text exposition, log-shipping replicas (bootstrap, catch-up,
lag gauge, read-only front end), per-tenant query quotas, and tenant
isolation under overload.
"""

import socket
import threading
import time

import pytest

from repro.net import (
    PROTOCOL_NAME,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameDecoder,
    NetClient,
    NetServerConfig,
    ProtocolError,
    ReplicationLog,
    ServerError,
    TenantConfig,
    TenantManager,
    ThreadedServer,
    encode_frame,
)
from repro.net.protocol import (
    decode_chunk,
    encode_chunk,
    error_envelope,
    hello_frame,
    ok_envelope,
    request_frame,
)
from repro.net.replica import LogShippingReplica, ReplicaConfig, run_replica
from repro.service import BatcherConfig
from repro.service.admission import AdmissionConfig
from repro.workloads import UpdateBatch


def _spec(n=512, edges=((0, 1), (1, 2), (2, 3)), seed=5):
    # n covers every vertex the tests below write (the engine rejects
    # endpoints outside [0, n))
    return {"kind": "spanner", "n": n, "k": 2,
            "edges": [list(e) for e in edges], "seed": seed}


def _manager(name="default", **kwargs) -> TenantManager:
    tm = TenantManager()
    tm.create(TenantConfig(name=name, spec=_spec(), **kwargs))
    return tm


# -- protocol -----------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        msg = request_frame(7, "query", kind="size")
        out = FrameDecoder().feed(encode_frame(msg))
        assert out == [msg]

    def test_split_and_batched_feeds(self):
        """Arbitrary chunking: byte-at-a-time and two-frames-at-once."""
        frames = [encode_frame(ok_envelope(i, value=i)) for i in range(3)]
        dec = FrameDecoder()
        out = []
        blob = b"".join(frames)
        for i in range(0, len(blob), 3):
            out.extend(dec.feed(blob[i:i + 3]))
        assert [m["id"] for m in out] == [0, 1, 2]

    def test_oversize_declared_length_rejected_before_buffering(self):
        import struct

        dec = FrameDecoder(max_frame=64)
        with pytest.raises(ProtocolError, match="exceeds cap"):
            dec.feed(struct.pack("<I", 1 << 20))

    def test_oversize_encode_rejected(self):
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame({"blob": "x" * 100}, max_frame=64)

    def test_non_object_payload_rejected(self):
        import struct

        payload = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="object"):
            FrameDecoder().feed(struct.pack("<I", len(payload)) + payload)

    def test_undecodable_payload_rejected(self):
        import struct

        payload = b"\xff\xfe{"
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameDecoder().feed(struct.pack("<I", len(payload)) + payload)

    def test_error_envelope_carries_hints(self):
        env = error_envelope(3, "shed", "busy", retry_after=0.25, stale=True)
        err = ServerError.from_envelope(env)
        assert err.code == "shed"
        assert err.retry_after == 0.25
        assert err.stale is True

    def test_chunk_armor_round_trip(self):
        data = bytes(range(256))
        assert decode_chunk(encode_chunk(data)) == data

    def test_hello_frame_names_protocol(self):
        h = hello_frame(tenant="t1")
        assert h["protocol"] == PROTOCOL_NAME
        assert h["version"] == PROTOCOL_VERSION
        assert h["tenant"] == "t1"


# -- replication log ----------------------------------------------------------


class TestReplicationLog:
    def test_append_read_framing(self):
        from repro.resilience.wal import WAL_MAGIC, WalStreamDecoder

        log = ReplicationLog()
        log.append(1, UpdateBatch(insertions=[(1, 2)]))
        log.append(2, UpdateBatch(deletions=[(1, 2)]))
        assert log.read(0, 8) == WAL_MAGIC
        dec = WalStreamDecoder()
        recs = dec.feed(log.read(0, log.size))
        assert [r.seq for r in recs] == [1, 2]
        assert dec.offset == log.size

    def test_seq_regression_rejected(self):
        log = ReplicationLog()
        log.append(1, UpdateBatch(insertions=[(1, 2)]))
        with pytest.raises(ValueError, match="regression"):
            log.append(1, UpdateBatch(insertions=[(3, 4)]))

    def test_chunked_reads_tear_records(self):
        """A torn fetch boundary is reassembled by the stream decoder."""
        from repro.resilience.wal import WalStreamDecoder

        log = ReplicationLog()
        for i in range(4):
            log.append(i + 1, UpdateBatch(insertions=[(i, i + 10)]))
        dec = WalStreamDecoder()
        recs, offset = [], 0
        while offset + dec.pending_bytes < log.size:
            chunk = log.read(offset + dec.pending_bytes, 7)
            recs.extend(dec.feed(chunk))
            offset = dec.offset
        assert [r.seq for r in recs] == [1, 2, 3, 4]


# -- server/client round trip -------------------------------------------------


class TestServerRoundTrip:
    def test_out_of_range_write_is_bad_request(self):
        """An endpoint outside [0, n) is a bad request that releases its
        idempotency claim and leaves every later read working."""
        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError, match="bad_request.*outside"):
                    c.submit("insert", 3, 512, idem="k")
                assert c.submit("insert", 3, 5, idem="k") == "accepted"
                assert c.flush() == 1
                assert c.query("distance", (0, 3)) == 3.0
                assert c.query("connected", (0, 7)) is False
                batch = c.query_batch([("distance", (3, 5))])
                assert batch["values"] == [1.0]

    def test_submit_query_metrics_admin(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                assert c.hello["tenant"] == "default"
                assert c.submit("insert", 5, 6) == "accepted"
                seq = c.flush()
                assert seq == 1
                info = c.query_info("contains", (5, 6))
                assert info["value"] is True
                assert info["stale"] is False
                assert info["as_of_seq"] == 1
                assert c.query("size") == len(c.edges())
                stats = c.admin("stats")
                assert stats["committed_seq"] == 1
                assert stats["replication_last_seq"] == 1
                assert stats["snapshot_size"] == c.query("size")
                text = c.metrics()
                assert "# TYPE repro_flushes counter" in text
                assert 'tenant="default"' in text

    def test_distance_infinity_survives_json(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                # vertices 10 and 20 are isolated: unreachable
                assert c.query("distance", (10, 20)) == "inf"
                assert c.query("connected", (10, 20)) is False

    def test_unknown_tenant_and_version_mismatch(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with pytest.raises(ServerError, match="unknown_tenant"):
                NetClient(srv.host, srv.port, tenant="nope")
            import socket

            from repro.net.protocol import FrameDecoder as FD
            with socket.create_connection((srv.host, srv.port)) as s:
                bad = dict(hello_frame(1), version=999)
                s.sendall(encode_frame(bad))
                reply = FD().feed(s.recv(65536))[0]
            assert reply["ok"] is False
            assert reply["error"]["code"] == "version_mismatch"

    def test_refused_handshake_closes_the_socket(self, monkeypatch):
        """Regression: a refused ``hello`` raised out of ``__init__`` and
        left the client's socket open, with no object to close it."""
        opened = []
        create = socket.create_connection

        def spy(*args, **kwargs):
            opened.append(create(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", spy)
        with _manager() as tm, ThreadedServer(tm) as srv:
            with pytest.raises(ServerError, match="unknown_tenant"):
                NetClient(srv.host, srv.port, tenant="nope")
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_first_frame_must_be_hello(self):
        import socket

        from repro.net.protocol import FrameDecoder as FD
        with _manager() as tm, ThreadedServer(tm) as srv:
            with socket.create_connection((srv.host, srv.port)) as s:
                s.sendall(encode_frame(request_frame(1, "query",
                                                     kind="size")))
                reply = FD().feed(s.recv(65536))[0]
            assert reply["error"]["code"] == "handshake_required"

    def test_unknown_verb_and_bad_request_envelopes(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError, match="unknown_verb"):
                    c.call("frobnicate")
                with pytest.raises(ServerError, match="bad_request"):
                    c.call("query", kind="no_such_kind")
                # the connection survives error envelopes
                assert c.query("size") == 3

    def test_reply_over_the_frame_cap_is_an_error_envelope(self):
        tm = TenantManager()
        tm.create(TenantConfig(name="default", spec=_spec(
            edges=[(i, i + 1) for i in range(100)])))
        with tm, ThreadedServer(tm, NetServerConfig(max_frame=400)) as srv:
            with NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError, match="internal.*cap"):
                    c.call("sync")      # the boot spec does not fit
                assert c.query("size") == 100

    def test_shed_surfaces_retry_after_through_the_wire(self):
        """Satellite: backpressure hints survive the wire unchanged."""
        with TenantManager() as tm:
            tm.create(TenantConfig(
                name="default", spec=_spec(),
                admission=AdmissionConfig(max_pending=0,
                                          min_retry_after=0.125),
                autostart=False,
            ))
            with ThreadedServer(tm) as srv, \
                    NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError) as exc:
                    c.submit("insert", 8, 9)
                assert exc.value.code == "shed"
                assert exc.value.retry_after is not None
                assert exc.value.retry_after >= 0.125

    def test_degraded_stale_and_retry_after_pass_through(self):
        """Satellite: degraded-mode staleness markers and retry hints
        surface identically on the wire and on the engine directly."""
        with _manager(autostart=False) as tm:
            svc = tm.get("default").service
            svc.submit_update("insert", 7, 8)
            svc.flush()
            svc.set_degraded(True)
            direct = svc.query_info("size")
            assert direct.stale is True
            with ThreadedServer(tm) as srv, \
                    NetClient(srv.host, srv.port) as c:
                wire = c.query_info("size")
                assert wire["stale"] is True
                assert wire["value"] == direct.value
                assert wire["as_of_seq"] == direct.as_of_seq
                with pytest.raises(ServerError) as exc:
                    c.submit("insert", 9, 10)
                assert exc.value.code == "shed_degraded"
                engine_resp = svc.submit_update("insert", 9, 10)
                assert exc.value.retry_after == engine_resp.retry_after
            svc.set_degraded(False)
            assert svc.query_info("size").stale is False


# -- query quotas and tenant isolation ----------------------------------------


class TestQuotasAndTenancy:
    def test_query_quota_sheds_with_retry_after(self):
        with TenantManager() as tm:
            tm.create(TenantConfig(
                name="default", spec=_spec(),
                admission=AdmissionConfig(max_inflight_queries=0),
                autostart=False,
            ))
            with ThreadedServer(tm) as srv, \
                    NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError) as exc:
                    c.query("size")
                assert exc.value.code == "shed_query"
                assert exc.value.retry_after > 0
            ctrl = tm.get("default").service.admission
            assert ctrl.query_shed_count >= 1

    def test_tenants_are_isolated_namespaces(self):
        with TenantManager() as tm:
            tm.create(TenantConfig(name="a", spec=_spec(), autostart=False))
            tm.create(TenantConfig(name="b", spec=_spec(), autostart=False))
            with ThreadedServer(tm) as srv:
                with NetClient(srv.host, srv.port, tenant="a") as ca:
                    ca.submit("insert", 9, 10)
                    ca.flush()
                with NetClient(srv.host, srv.port, tenant="a") as ca, \
                        NetClient(srv.host, srv.port, tenant="b") as cb:
                    assert (9, 10) in ca.edges()
                    assert (9, 10) not in cb.edges()
                    assert cb.admin("stats")["committed_seq"] == 0

    def test_overloaded_tenant_sheds_while_other_serves(self):
        """Acceptance: tenant A at zero write quota sheds with
        retry_after; tenant B's reads stay served and fast."""
        with TenantManager() as tm:
            tm.create(TenantConfig(
                name="a", spec=_spec(),
                admission=AdmissionConfig(max_pending=0), autostart=False))
            tm.create(TenantConfig(name="b", spec=_spec(), autostart=False))
            with ThreadedServer(tm) as srv:
                with NetClient(srv.host, srv.port, tenant="b") as cb:
                    base = _timed_reads(cb, 20)
                with NetClient(srv.host, srv.port, tenant="a") as ca, \
                        NetClient(srv.host, srv.port, tenant="b") as cb:
                    sheds = 0
                    for i in range(40):
                        try:
                            ca.submit("insert", 2 * i, 2 * i + 1)
                        except ServerError as exc:
                            assert exc.retry_after is not None
                            sheds += 1
                    assert sheds == 40   # A is fully shed
                    loaded = _timed_reads(cb, 20)
            # B's p99 stays within 2x its unloaded baseline (with a floor
            # to keep the bound meaningful on a noisy 1-core box)
            assert loaded <= max(2 * base, 0.05)

    def test_duplicate_tenant_rejected(self):
        with _manager() as tm:
            with pytest.raises(ValueError, match="duplicate"):
                tm.create(TenantConfig(name="default", spec=_spec()))


def _timed_reads(client: NetClient, count: int) -> float:
    lat = []
    for _ in range(count):
        t0 = time.perf_counter()
        client.query("size")
        lat.append(time.perf_counter() - t0)
    lat.sort()
    return lat[min(len(lat) - 1, int(len(lat) * 0.99))]


# -- prometheus exposition ----------------------------------------------------


class TestPrometheus:
    def test_render_types_and_histogram_summary(self):
        from repro.service.metrics import MetricsRegistry

        m = MetricsRegistry()
        m.counter("requests_update").inc(3)
        m.gauge("queue_depth").set(7)
        h = m.histogram("flush_latency_s")
        for v in (0.5, 1.0, 1.5):
            h.observe(v)
        text = m.render_prometheus(labels={"tenant": "t0"})
        assert "# TYPE repro_requests_update counter" in text
        assert 'repro_requests_update{tenant="t0"} 3' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_flush_latency_s summary" in text
        assert 'repro_flush_latency_s_count{tenant="t0"} 3' in text
        assert 'repro_flush_latency_s_sum{tenant="t0"} 3' in text
        assert 'quantile="0.5"' in text
        assert text.endswith("\n")

    def test_render_is_deterministic_and_sorted(self):
        from repro.service.metrics import MetricsRegistry

        m = MetricsRegistry()
        m.counter("b").inc()
        m.counter("a").inc()
        text = m.render_prometheus()
        assert text == m.render_prometheus()
        assert text.index("repro_a") < text.index("repro_b")

    def test_manager_renders_all_tenants_with_labels(self):
        with TenantManager() as tm:
            tm.create(TenantConfig(name="a", spec=_spec(), autostart=False))
            tm.create(TenantConfig(name="b", spec=_spec(), autostart=False))
            text = tm.render_prometheus()
            assert 'tenant="a"' in text
            assert 'tenant="b"' in text


# -- replicas -----------------------------------------------------------------


class TestReplica:
    def test_end_to_end_catch_up_and_equivalence(self):
        from repro.oracle import verify_replica

        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            svc = tm.get("default").service
            for i in range(30):
                svc.submit_update("insert", 4 + i, 5 + i)
            svc.flush()
            replica, rsrv = run_replica(srv.host, srv.port,
                                        listen=("127.0.0.1", 0))
            try:
                replica.catch_up()
                assert replica.lag == 0
                result = verify_replica(svc, replica.service)
                assert result.ok, str(result)
                with NetClient(rsrv.host, rsrv.port) as rc:
                    assert rc.hello["read_only"] is True
                    assert rc.edges() == svc.snapshot_edges()
                    with pytest.raises(ServerError, match="read_only"):
                        rc.submit("insert", 1, 3)
            finally:
                rsrv.stop()
                replica.close()

    def test_lag_gauge_and_stale_tag_until_caught_up(self):
        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            svc = tm.get("default").service
            svc.submit_update("insert", 7, 9)
            svc.flush()
            replica, _ = run_replica(srv.host, srv.port)
            try:
                replica.catch_up()
                svc.submit_update("insert", 8, 10)
                svc.flush()
                replica.note_primary_seq(svc.committed_seq)
                assert replica.lag == 1
                gauge = replica.service.metrics.gauge("replica_lag_commits")
                assert gauge.value == 1
                assert replica.service.query_info("size").stale is True
                replica.catch_up()
                assert replica.lag == 0
                assert gauge.value == 0
                assert replica.service.query_info("size").stale is False
            finally:
                replica.close()

    def test_tiny_chunks_tear_and_reassemble(self):
        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            svc = tm.get("default").service
            for i in range(10):
                svc.submit_update("insert", 30 + i, 31 + i)
                svc.flush()
            replica, _ = run_replica(
                srv.host, srv.port,
                config=ReplicaConfig(chunk_bytes=9))
            try:
                replica.catch_up()
                assert replica.service.committed_seq == svc.committed_seq
                assert (replica.service.snapshot_edges()
                        == svc.snapshot_edges())
            finally:
                replica.close()

    def test_capped_catch_up_loses_nothing(self):
        """A record decoded but not applied under max_records must be
        applied by the next call, never dropped (no seq gap)."""
        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            svc = tm.get("default").service
            for i in range(6):
                svc.submit_update("insert", 50 + i, 51 + i)
                svc.flush()
            client = NetClient(srv.host, srv.port)
            replica = LogShippingReplica(client)
            try:
                assert replica.catch_up(max_records=2) == 2
                assert replica.service.committed_seq == 2
                assert replica.lag > 0
                assert replica.catch_up() == 4
                assert replica.service.committed_seq == svc.committed_seq
            finally:
                replica.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_replica_of_recovered_primary(self, tmp_path, shards):
        """A primary resumed from checkpoint+WAL ships a log whose base
        is the checkpoint; a replica bootstrapping from sync_info must
        still converge to the exact live state."""
        from repro.oracle import verify_replica

        wal_dir = str(tmp_path / "t")
        with TenantManager() as tm:
            tm.create(TenantConfig(
                name="default", spec=_spec(), wal_dir=wal_dir,
                shards=shards, checkpoint_interval=2, autostart=False))
            svc = tm.get("default").service
            for i in range(8):
                svc.submit_update("insert", 60 + i, 61 + i)
                svc.flush()
        # cold restart: recovery leaves a checkpoint base + WAL tail
        with TenantManager() as tm:
            tenant = tm.create(TenantConfig(
                name="default", spec=_spec(), wal_dir=wal_dir,
                shards=shards, checkpoint_interval=10**9, autostart=False))
            svc = tenant.service
            assert tenant.replication.base_seq > 0
            assert svc.executor.shards == shards
            svc.submit_update("insert", 90, 91)
            svc.flush()
            with ThreadedServer(tm) as srv:
                replica, _ = run_replica(srv.host, srv.port)
                try:
                    replica.catch_up()
                    result = verify_replica(svc, replica.service)
                    assert result.ok, str(result)
                finally:
                    replica.close()


class TestRecoveredTenant:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_queue_sees_replayed_wal_tail(self, tmp_path, shards):
        """A tenant rebuilt from checkpoint + WAL tail admits writes
        against the recovered graph, not the checkpoint base."""
        wal_dir = str(tmp_path / "wal")
        config = TenantConfig(name="default", spec=_spec(), wal_dir=wal_dir,
                              shards=shards, checkpoint_interval=10**9,
                              autostart=False)
        crashed = TenantManager().create(config).service
        assert crashed.submit_update("insert", 7, 9).accepted
        crashed.flush()
        # abandon without close: no final checkpoint, so the insert
        # survives only in the WAL tail
        crashed.recovery.close()
        with TenantManager() as tm:
            svc = tm.create(config).service
            assert (7, 9) in svc.graph_edges()
            assert svc.submit_update("insert", 7, 9).outcome == \
                "rejected_duplicate"
            assert svc.submit_update("delete", 7, 9).outcome == "accepted"
            svc.flush()
            assert (7, 9) not in svc.graph_edges()
            assert svc.self_check().ok


# -- graceful drain -----------------------------------------------------------


class TestDrain:
    def test_drain_flushes_pending_commits(self):
        with _manager(autostart=False) as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(drain_timeout=2.0)).start()
            with NetClient(srv.host, srv.port) as c:
                c.submit("insert", 11, 12)
            svc = tm.get("default").service
            assert svc.queue.depth == 1   # pending, not yet flushed
            srv.stop()                    # drain flushes every tenant
            assert svc.queue.depth == 0
            assert (11, 12) in svc.snapshot_edges()

    def test_idle_client_does_not_hold_the_drain(self):
        """Regression: ``stop()`` waited the whole ``drain_timeout`` for a
        keep-alive client that had nothing in flight."""
        with _manager(autostart=False) as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(drain_timeout=5.0)).start()
            with NetClient(srv.host, srv.port) as c:
                c.submit("insert", 11, 12)
                t0 = time.perf_counter()
                srv.stop()
                elapsed = time.perf_counter() - t0
                assert elapsed < 1.0, f"stop took {elapsed:.2f}s"
                with pytest.raises((ConnectionClosed, ProtocolError)):
                    c.query("size")     # the server hung up
            assert (11, 12) in tm.get("default").service.snapshot_edges()

    def test_flush_in_flight_at_drain_is_answered(self, stall_first_apply):
        """A connection mid-request when the drain starts gets its reply,
        then is closed."""
        with _manager(autostart=False, batcher=BatcherConfig(
                max_batch=1000, max_delay=60.0)) as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(drain_timeout=5.0)).start()
            stall = stall_first_apply(0.5)
            tm.get("default").service.executor.injector = stall
            seqs: list[int] = []
            with NetClient(srv.host, srv.port) as c:
                c.submit("insert", 5, 9)
                flusher = threading.Thread(
                    target=lambda: seqs.append(c.flush()))
                flusher.start()
                assert stall.started.wait(5.0)
                srv.stop()
                flusher.join(timeout=10.0)
                assert seqs == [1]
                with pytest.raises((ConnectionClosed, ProtocolError)):
                    c.query("size")     # the server hung up

    def test_concurrent_clients_from_threads(self):
        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            errors: list[Exception] = []

            def worker(base: int) -> None:
                try:
                    with NetClient(srv.host, srv.port) as c:
                        for i in range(10):
                            c.submit("insert", base + i, base + i + 1)
                            c.query("size")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(100 * k,))
                       for k in range(1, 5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            with NetClient(srv.host, srv.port) as c:
                c.flush()
                assert c.query("size") > 3


# -- batched reads over the wire ----------------------------------------------


class TestQueryBatchVerb:
    def test_values_match_singleton_queries(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                c.submit("insert", 5, 6)
                c.flush()
                items = [("size", None), ("contains", (5, 6)),
                         ("distance", (0, 2)), ("distance", (10, 20)),
                         ("connected", (0, 3)), ("distance", (0, 2))]
                out = c.query_batch(items)
                assert out["values"] == [
                    c.query(kind, payload) for kind, payload in items]
                assert out["stale"] is False
                assert out["as_of_seq"] == 1
                # (0, 2) asked twice, (2, 0) would fold in too
                assert out["unique"] == 5
                assert out["deduped"] == 1

    def test_empty_batch(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                out = c.query_batch([])
                assert out["values"] == []
                assert out["deduped"] == 0

    def test_unknown_kind_is_bad_request(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError, match="bad_request"):
                    c.query_batch([("frobnicate", (0, 1))])

    def test_served_by_read_only_replica(self):
        with _manager(autostart=False) as tm, ThreadedServer(tm) as srv:
            svc = tm.get("default").service
            for i in range(10):
                svc.submit_update("insert", 4 + i, 5 + i)
            svc.flush()
            replica, rsrv = run_replica(srv.host, srv.port,
                                        listen=("127.0.0.1", 0))
            try:
                replica.catch_up()
                with NetClient(rsrv.host, rsrv.port) as rc:
                    assert rc.hello["read_only"] is True
                    out = rc.query_batch(
                        [("size", None), ("connected", (4, 6))])
                    assert out["values"] == [rc.query("size"),
                                             rc.query("connected", (4, 6))]
                    assert out["stale"] is False
            finally:
                rsrv.stop()
                replica.close()

    def test_shed_batch_carries_retry_after(self):
        # a whole batch is one admission charge: at zero inflight quota
        # it sheds exactly like a singleton query, with a retry hint
        with _manager(admission=AdmissionConfig(
                max_inflight_queries=0), autostart=False) as tm, \
                ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                with pytest.raises(ServerError) as ei:
                    c.query_batch([("size", None), ("edges", None)])
                assert ei.value.code == "shed_query"
                assert ei.value.retry_after > 0
            ctrl = tm.get("default").service.admission
            assert ctrl.query_shed_count >= 1


# -- failure-domain hardening: idempotent writes + read deadlines -------------


class TestIdempotentSubmit:
    def test_duplicate_key_returns_recorded_outcome(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                first = c.submit_info("insert", 4, 9, idem="k1")
                assert first["status"] == "accepted"
                assert "deduped" not in first
                # a retry after a lost ACK replays the same key; with no
                # dedup it would see rejected_duplicate post-flush
                c.flush()
                again = c.submit_info("insert", 4, 9, idem="k1")
                assert again["status"] == "accepted"
                assert again["deduped"] is True
                assert c.query("size") >= 1
            tenant = tm.get("default")
            assert tenant.idempotency.dedup_hits == 1
            assert tenant.service.metrics.counter(
                "idempotent_dedup_hits").value == 1

    def test_shed_aborts_the_key_for_reuse(self):
        """A shed submit never entered the queue, so its key must not be
        burned: the client may retry it and have it actually apply."""
        with _manager(autostart=False, admission=AdmissionConfig(
                max_pending=1, min_retry_after=0.005)) as tm, \
                ThreadedServer(tm) as srv:
            with NetClient(srv.host, srv.port) as c:
                assert c.submit("insert", 1, 5, idem="a") == "accepted"
                with pytest.raises(ServerError) as ei:
                    c.submit("insert", 2, 6, idem="b")
                assert ei.value.code in ("shed", "shed_degraded")
                assert ei.value.retry_after > 0
                c.flush()
                info = c.submit_info("insert", 2, 6, idem="b")
                assert info["status"] == "accepted"
                assert "deduped" not in info     # aborted, not recorded
                c.flush()
                assert (2, 6) in c.edges()

    def test_keys_are_per_tenant(self):
        with _manager() as tm, ThreadedServer(tm) as srv:
            tm.create(TenantConfig(name="other", spec=_spec()))
            with NetClient(srv.host, srv.port) as c1, \
                    NetClient(srv.host, srv.port, tenant="other") as c2:
                assert "deduped" not in c1.submit_info(
                    "insert", 3, 8, idem="same")
                assert "deduped" not in c2.submit_info(
                    "insert", 3, 8, idem="same")


class TestReadDeadlines:
    def test_mid_frame_stall_is_evicted(self):
        """Satellite: a client that goes silent halfway through a frame
        holds per-connection state hostage — the read deadline evicts it
        and the server keeps serving everyone else."""
        with _manager() as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(read_deadline=0.15)).start()
            try:
                sock = socket.create_connection((srv.host, srv.port))
                sock.sendall(b"\x40\x00\x00\x00{\"v")   # torn frame
                # the server must hang up on us, not wait forever
                sock.settimeout(2.0)
                assert sock.recv(1024) == b""
                sock.close()
                assert srv.server.evictions["mid_frame"] == 1
                # unaffected clients still get service
                with NetClient(srv.host, srv.port) as c:
                    assert c.query("size") >= 0
                with NetClient(srv.host, srv.port) as c:
                    text = c.metrics(all_tenants=True)
                assert 'repro_net_evictions{reason="mid_frame"} 1' in text
            finally:
                srv.stop()

    def test_mid_frame_disconnect_drains_cleanly(self):
        """Satellite: a client that dies mid-frame (no stall — straight
        disconnect) is drained without an eviction and without damaging
        any applied state."""
        with _manager() as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(read_deadline=5.0)).start()
            try:
                with NetClient(srv.host, srv.port) as c:
                    c.submit("insert", 9, 14)
                    c.flush()
                sock = socket.create_connection((srv.host, srv.port))
                sock.sendall(b"\x40\x00\x00\x00{\"to")  # torn frame...
                sock.close()                            # ...then vanish
                time.sleep(0.1)
                assert srv.server.evictions["mid_frame"] == 0
                with NetClient(srv.host, srv.port) as c:
                    assert (9, 14) in c.edges()         # state intact
            finally:
                srv.stop()

    def test_idle_connection_not_evicted_by_read_deadline(self):
        """The read deadline only applies *mid-frame*; an idle keepalive
        connection (no pending bytes) stays up."""
        with _manager() as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(read_deadline=0.1)).start()
            try:
                with NetClient(srv.host, srv.port) as c:
                    c.query("size")
                    time.sleep(0.3)          # idle > read_deadline
                    assert c.query("size") >= 0   # still served
                assert srv.server.evictions["mid_frame"] == 0
            finally:
                srv.stop()

    def test_idle_timeout_evicts_when_configured(self):
        with _manager() as tm:
            srv = ThreadedServer(
                tm, NetServerConfig(idle_timeout=0.1)).start()
            try:
                sock = socket.create_connection((srv.host, srv.port))
                sock.settimeout(2.0)
                assert sock.recv(1024) == b""
                sock.close()
                assert srv.server.evictions["idle"] == 1
            finally:
                srv.stop()


class TestIngestDuringCommit:
    def test_submit_and_reads_answered_while_a_flush_stalls(
            self, stall_first_apply):
        """Regression: a wire submit waited for the engine lock that the
        commit held, so one connection's stalled ``admin flush`` held
        every other connection's writes."""
        with _manager(autostart=False, batcher=BatcherConfig(
                max_batch=1000, max_delay=60.0)) as tm, \
                ThreadedServer(tm) as srv:
            stall = stall_first_apply(1.0)
            tm.get("default").service.executor.injector = stall
            with NetClient(srv.host, srv.port) as c1, \
                    NetClient(srv.host, srv.port) as c2:
                c1.submit("insert", 5, 9)
                flusher = threading.Thread(target=c1.flush)
                flusher.start()
                assert stall.started.wait(5.0)
                t0 = time.perf_counter()
                assert c2.submit("insert", 6, 9) == "accepted"
                reply = c2.query_batch([("size", None),
                                        ("connected", (0, 3))])
                elapsed = time.perf_counter() - t0
                flusher.join(timeout=10.0)
                assert not flusher.is_alive()
                assert elapsed < 0.5, f"answered after {elapsed:.2f}s"
                assert reply["as_of_seq"] == 0
                assert reply["values"][1] is True
                assert c2.flush() == 2
            svc = tm.get("default").service
            assert {(5, 9), (6, 9)} <= svc.graph_edges()
            assert svc.self_check().ok


class TestWriteDeadline:
    def test_slow_reader_is_evicted(self):
        """A client that stops reading while large replies pile up is
        evicted once a reply cannot drain within ``write_deadline``;
        other clients keep being served and see the eviction counted."""
        from repro.graph import gnm_random_graph

        spec = _spec(edges=gnm_random_graph(512, 3000, seed=3))
        tm = TenantManager()
        tm.create(TenantConfig(name="default", spec=spec, autostart=False))
        with tm:
            srv = ThreadedServer(
                tm, NetServerConfig(write_deadline=0.2)).start()
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect((srv.host, srv.port))
                sock.settimeout(5.0)
                sock.sendall(encode_frame(hello_frame(0, "default")))
                FrameDecoder().feed(sock.recv(65536))
                # each sync reply carries the 3000-edge boot spec; send
                # far more than the socket buffers hold and read nothing
                sock.sendall(b"".join(encode_frame(request_frame(i, "sync"))
                                      for i in range(1, 400)))
                deadline = time.monotonic() + 10.0
                while (srv.server.evictions["slow_reader"] == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert srv.server.evictions == {
                    "mid_frame": 0, "idle": 0, "slow_reader": 1}
                sock.close()
                with NetClient(srv.host, srv.port) as c:
                    assert c.query("size") >= 0
                    text = c.metrics(all_tenants=True)
                assert 'repro_net_evictions{reason="slow_reader"} 1' in text
            finally:
                sock.close()
                srv.stop()


class TestPipelining:
    def test_frames_in_one_write_are_answered_in_order(self):
        """Frames sent back to back are answered in request order; a
        waiting ``admin flush`` holds later frames back, so it commits
        exactly the submits sent before it."""
        with _manager(autostart=False, batcher=BatcherConfig(
                max_batch=1000, max_delay=60.0)) as tm, \
                ThreadedServer(tm) as srv:
            requests = [request_frame(1, "submit", op="insert", u=5, v=9),
                        request_frame(2, "submit", op="insert", u=6, v=9),
                        request_frame(3, "submit", op="insert", u=7, v=9),
                        request_frame(4, "query_batch",
                                      items=[["size", None],
                                             ["contains", [5, 9]]]),
                        request_frame(5, "admin", action="flush"),
                        request_frame(6, "submit", op="insert", u=8, v=9),
                        request_frame(7, "submit", op="delete", u=5, v=9),
                        request_frame(8, "metrics")]
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.settimeout(5.0)
                sock.sendall(encode_frame(hello_frame(0)) + b"".join(
                    encode_frame(r) for r in requests))
                decoder, replies = FrameDecoder(), []
                while len(replies) < 1 + len(requests):
                    data = sock.recv(65536)
                    assert data, "server closed early"
                    replies.extend(decoder.feed(data))
            assert [r["id"] for r in replies] == list(range(9))
            assert all(r["ok"] for r in replies)
            assert [r["status"] for r in replies[1:4]] == ["accepted"] * 3
            assert replies[4]["as_of_seq"] == 0
            assert replies[4]["values"][1] is False
            assert replies[5]["flushed"] == 3
            assert replies[5]["committed_seq"] == 1
            assert [r["status"] for r in replies[6:8]] == ["accepted"] * 2
            assert "repro_net_requests_served" in replies[8]["text"]
            svc = tm.get("default").service
            assert svc.queue.depth == 2
            assert {(5, 9), (6, 9), (7, 9)} <= svc.snapshot_edges()


class TestBenchNetFailover:
    def test_kill_replica_needs_a_replica(self):
        from repro.net.bench import BenchNetConfig, run_bench_net

        with pytest.raises(ValueError, match="kill_replica"):
            run_bench_net(BenchNetConfig(
                replicas=0, kill_replica=True, requests=120,
                service_time=0.0))

    def test_kill_that_never_fires_is_a_violation(self):
        from repro.net.bench import BenchNetConfig, run_bench_net

        # no reads, so the reader count never reaches the kill point
        report = run_bench_net(BenchNetConfig(
            replicas=1, kill_replica=True, requests=0, service_time=0.0))
        assert not report.killed_replica
        assert not report.verified
        assert any("no replica was killed" in v for v in report.violations)
