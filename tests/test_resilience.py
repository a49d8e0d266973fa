"""Tests for repro.resilience: WAL, checkpoints, supervision, degradation.

Covers the PR-4 fault-tolerance layer unit by unit — WAL encode/decode
round trips (including hypothesis property sweeps), the torn-tail and
corruption taxonomy, atomic checkpoints, the recovery manager's
truncation lifecycle, the shard supervisor's restart/quarantine logic,
graceful degradation (stale-tagged queries + degraded shedding), and the
shutdown-path satellites (idempotent close/stop, admission overload,
driver interrupt handling).
"""

import contextlib
import hashlib
import json
import random
import struct
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import adjacency_from_edges, bfs_distances
from repro.resilience import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    FaultInjector,
    RecoveryManager,
    ResilienceConfig,
    SupervisionConfig,
    WalCorruptionError,
    WalWriter,
    bootstrap_executor,
    corrupt_record,
    edge_keys,
    read_wal,
)
from repro.resilience.wal import (
    WAL_MAGIC,
    WalFollower,
    WalStreamDecoder,
    WalTruncatedError,
    decode_record,
    encode_record,
)
from repro.service import (
    AdmissionConfig,
    BatcherConfig,
    ServiceConfig,
    SpannerService,
    ShardedExecutor,
)
from repro.service.shard import edge_shard, split_by_shard
from repro.workloads import UpdateBatch
from repro.workloads.streams import request_stream


def _keys(*shards):
    """Each shard's edge set as checkpoint keys."""
    return [edge_keys(edges) for edges in shards]


def _batch(ins=(), dels=()):
    return UpdateBatch(insertions=list(ins), deletions=list(dels))


edge_st = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
batch_st = st.builds(
    _batch,
    ins=st.lists(edge_st, max_size=12),
    dels=st.lists(edge_st, max_size=12),
)


class TestWalEncoding:
    @given(seq=st.integers(1, 2**63 - 1), batch=batch_st)
    @settings(max_examples=60)
    def test_record_round_trip(self, seq, batch):
        """encode → decode reproduces seq and both edge lists exactly."""
        rec = decode_record(encode_record(seq, batch)[8:])  # skip header
        assert rec.seq == seq
        assert rec.batch.insertions == batch.insertions
        assert rec.batch.deletions == batch.deletions

    @given(batches=st.lists(batch_st, min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_wal_file_round_trip(self, tmp_path_factory, batches):
        """Arbitrary batch sequences survive a write → read cycle."""
        path = tmp_path_factory.mktemp("wal") / "wal.log"
        w = WalWriter(path)
        for i, b in enumerate(batches):
            w.append(i + 1, b)
        w.close()
        out = read_wal(path)
        assert out.dropped_tail_bytes == 0
        assert [r.seq for r in out.records] == list(
            range(1, len(batches) + 1))
        for rec, b in zip(out.records, batches):
            assert rec.batch.insertions == b.insertions
            assert rec.batch.deletions == b.deletions

    def test_truncated_tail_dropped(self, tmp_path):
        """Bytes past the last full record are ignored, prefix survives."""
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        w.append(1, _batch(ins=[(1, 2)]))
        w.append(2, _batch(ins=[(3, 4)], dels=[(1, 2)]))
        w.close()
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)  # tear the final record mid-payload
        out = read_wal(path)
        assert [r.seq for r in out.records] == [1]
        assert out.dropped_tail_bytes > 0

    def test_corrupt_final_record_is_torn_tail(self, tmp_path):
        """A damaged *final* record is dropped like a torn tail."""
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        w.append(1, _batch(ins=[(1, 2)]))
        w.append(2, _batch(ins=[(3, 4)]))
        w.close()
        assert corrupt_record(path, 2)
        out = read_wal(path)
        assert [r.seq for r in out.records] == [1]
        assert out.dropped_tail_bytes > 0
        assert out.dropped_tail_seq == 2

    def test_corrupt_mid_record_raises_naming_seq(self, tmp_path):
        """Mid-log damage is unrecoverable and the error names the seq."""
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        for seq in (1, 2, 3):
            w.append(seq, _batch(ins=[(seq, seq + 10)]))
        w.close()
        assert corrupt_record(path, 2)
        with pytest.raises(WalCorruptionError) as exc:
            read_wal(path)
        assert exc.value.seq == 2
        assert "seq=2" in str(exc.value)
        assert "cannot be repaired by truncation" in str(exc.value)

    def test_sequence_regression_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        w.append(5, _batch(ins=[(1, 2)]))
        w.append(3, _batch(ins=[(3, 4)]))  # writer does not police order
        w.close()
        with pytest.raises(WalCorruptionError):
            read_wal(path)

    def test_truncate_through_keeps_newer_records(self, tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        for seq in (1, 2, 3, 4):
            w.append(seq, _batch(ins=[(seq, seq + 10)]))
        w.truncate_through(2)
        w.append(5, _batch(ins=[(5, 15)]))  # writer stays usable after
        w.close()
        assert [r.seq for r in read_wal(path).records] == [3, 4, 5]


class TestWalTruncateWalk:
    """``truncate_through`` decodes nothing but still walks every CRC."""

    @staticmethod
    def _log(tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        for seq in (1, 2, 3, 4):
            w.append(seq, _batch(ins=[(seq, seq + 10)], dels=[(0, seq)]))
        return path, w

    def test_mid_log_corruption_still_raises(self, tmp_path):
        """A checkpoint at the last seq must not absorb a damaged record
        in the middle of the log: the walk refuses, and the file is left
        as it was."""
        path, w = self._log(tmp_path)
        assert corrupt_record(path, 2)
        before = path.read_bytes()
        with pytest.raises(WalCorruptionError) as exc:
            w.truncate_through(4)
        assert exc.value.seq == 2
        assert path.read_bytes() == before
        w.close()

    @pytest.mark.parametrize("damage", ["torn", "corrupt"])
    def test_damaged_final_record_dropped(self, tmp_path, damage):
        path, w = self._log(tmp_path)
        follower = WalFollower(path)
        assert [r.seq for r in follower.poll()] == [1, 2, 3, 4]
        if damage == "torn":
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - 3)
        else:
            assert corrupt_record(path, 4)
        w.truncate_through(4)
        assert path.read_bytes() == WAL_MAGIC
        with pytest.raises(WalTruncatedError):
            follower.poll()
        w.append(5, _batch(ins=[(5, 15)]))
        w.close()
        assert [r.seq for r in read_wal(path).records] == [5]


# byte range of the u64 epoch field: after the 8-byte magic and u32 crc
_EPOCH_FIELD = slice(12, 20)
vertex_st = st.one_of(st.integers(0, 64), st.integers(2**32 - 8, 2**32 - 1),
                      st.integers(0, 2**32 - 1))
shard_edges_st = st.lists(
    st.sets(st.tuples(vertex_st, vertex_st), max_size=20),
    min_size=1, max_size=4,
)


def _with_valid_crc(data: bytes) -> bytes:
    """``data`` with its u32 crc field (after the magic) recomputed."""
    return data[:8] + struct.pack("<I", zlib.crc32(data[12:])) + data[12:]


_DAMAGE = {
    "truncated": lambda data: data[:-3],
    "truncated_header": lambda data: data[:16],
    "flipped_payload_byte": lambda data: data[:-1] + bytes([data[-1] ^ 1]),
    "bad_magic": lambda data: b"X" + data[1:],
    "trailing_garbage": lambda data: data + b"\x00" * 8,
    # a checksum-consistent file whose edge region disagrees with the
    # header's counts (what a buggy writer, not bit rot, would produce)
    "extra_key_valid_crc": lambda data: _with_valid_crc(data + b"\x00" * 8),
}


class TestCheckpointStore:
    def test_round_trip_and_prune(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(3, _keys({(1, 2)}, set()))
        store.save(7, _keys({(1, 2), (3, 4)}, {(5, 6)}))
        ckpt = store.load()
        assert ckpt == Checkpoint(7, _keys({(1, 2), (3, 4)}, {(5, 6)}))
        assert ckpt.shards == 2
        # older checkpoint was pruned by the newer save
        assert len(list(tmp_path.glob("checkpoint-*.bin"))) == 1

    def test_orphan_tmp_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(3, _keys({(1, 2)}))
        (tmp_path / "checkpoint-000000000009.json.tmp").write_text("junk")
        assert store.load().epoch == 3

    def test_damaged_checkpoint_raises_when_no_valid_one(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(3, _keys({(1, 2)}))
        data = bytearray(path.read_bytes())
        data[_EPOCH_FIELD] = struct.pack("<Q", 4)  # epoch 3 -> 4
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            store.load()

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load() is None


class TestCheckpointCodec:
    @given(epoch=st.integers(0, 2**64 - 1), shard_edges=shard_edges_st)
    @settings(max_examples=60)
    def test_round_trip(self, tmp_path_factory, epoch, shard_edges):
        """Any per-shard edge sets (empty shards, ids near 2^32-1) load
        back exactly."""
        store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
        store.save(epoch, _keys(*shard_edges))
        ckpt = store.load()
        assert ckpt == Checkpoint(epoch, _keys(*shard_edges))
        assert [ckpt.edges(i) for i in range(ckpt.shards)] == shard_edges

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_file_alone_raises(self, tmp_path, damage):
        path = CheckpointStore(tmp_path).save(
            7, _keys({(1, 2), (3, 4)}, {(5, 6)}))
        path.write_bytes(_DAMAGE[damage](path.read_bytes()))
        with pytest.raises(CheckpointError, match=path.name):
            CheckpointStore(tmp_path).load()

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_older_valid_checkpoint_wins_over_damaged(self, tmp_path, damage):
        store = CheckpointStore(tmp_path)
        older = store.save(3, _keys({(1, 2)}, set()))
        older_bytes = older.read_bytes()
        newer = store.save(7, _keys({(1, 2), (3, 4)}, {(5, 6)}))  # prunes 3
        newer.write_bytes(_DAMAGE[damage](newer.read_bytes()))
        older.write_bytes(older_bytes)
        assert store.load() == Checkpoint(3, _keys({(1, 2)}, set()))

    @pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (2**32, 0),
                                      (0, 2**32), (2**64, 0)])
    def test_out_of_range_vertex_rejected(self, tmp_path, edge):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="vertex ids"):
            store.save(1, _keys({(0, 1)}, {edge}))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("keys", [[5, 3], [3, 3], [[1, 2]]])
    def test_keys_not_strictly_ascending_rejected(self, tmp_path, keys):
        import numpy as np

        with pytest.raises(ValueError, match="strictly ascending"):
            CheckpointStore(tmp_path).save(
                1, [edge_keys({(0, 1)}), np.array(keys, dtype=np.uint64)])
        assert list(tmp_path.iterdir()) == []

    def test_same_state_gives_identical_bytes(self, tmp_path):
        rng = random.Random(5)
        edges = [(rng.randrange(2**32), rng.randrange(2**32))
                 for _ in range(200)] + [(2**32 - 1, 0), (0, 2**32 - 1)]
        same, other_order = set(edges), set(reversed(edges))
        assert same == other_order and list(same) != list(other_order)
        a = CheckpointStore(tmp_path / "a").save(5, _keys(same, set()))
        b = CheckpointStore(tmp_path / "b").save(5, _keys(other_order, set()))
        assert a.read_bytes() == b.read_bytes()
        again = CheckpointStore(tmp_path / "a").save(5, _keys(same, set()))
        assert again.read_bytes() == b.read_bytes()

    def test_legacy_json_checkpoint_refused(self, tmp_path):
        """A JSON checkpoint of an older release is a candidate that
        fails the magic check, never a silent restart from seq 1."""
        legacy = tmp_path / "checkpoint-000000000005.json"
        legacy.write_text(json.dumps(
            {"epoch": 5, "shards": [[[1, 2]], []], "crc": 0}))
        with pytest.raises(CheckpointError, match=legacy.name):
            CheckpointStore(tmp_path).load()
        with pytest.raises(CheckpointError, match=legacy.name):
            RecoveryManager(ResilienceConfig(directory=tmp_path))


class TestRecoveryManager:
    def test_fresh_directory(self, tmp_path):
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert mgr.last_seq == 0
        assert mgr.checkpoint is None
        assert mgr.tail == []
        mgr.close()

    def test_log_checkpoint_truncate_cycle(self, tmp_path):
        mgr = RecoveryManager(ResilienceConfig(
            directory=tmp_path, checkpoint_interval=2))
        mgr.log_applied(1, _batch(ins=[(1, 2)]))
        assert not mgr.should_checkpoint()
        mgr.log_applied(2, _batch(ins=[(3, 4)]))
        assert mgr.should_checkpoint()
        mgr.write_checkpoint(2, _keys({(1, 2), (3, 4)}))
        mgr.log_applied(3, _batch(dels=[(1, 2)]))
        mgr.close()
        # a cold restart sees checkpoint epoch 2 + a one-record tail
        mgr2 = RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert mgr2.last_seq == 3
        assert mgr2.checkpoint.epoch == 2
        assert [r.seq for r in mgr2.tail] == [3]
        mgr2.close()

    def test_non_monotonic_seq_rejected(self, tmp_path):
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        mgr.log_applied(1, _batch(ins=[(1, 2)]))
        with pytest.raises(ValueError):
            mgr.log_applied(1, _batch(ins=[(3, 4)]))
        mgr.close()

    def test_torn_tail_repaired_before_appending(self, tmp_path):
        """New records after a torn tail must stay reachable."""
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        mgr.log_applied(1, _batch(ins=[(1, 2)]))
        mgr.log_applied(2, _batch(ins=[(3, 4)]))
        mgr.close()
        path = tmp_path / "wal.log"
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size - 3)
        mgr2 = RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert mgr2.last_seq == 1        # torn record 2 was dropped...
        mgr2.log_applied(2, _batch(ins=[(5, 6)]))  # ...and replaced cleanly
        mgr2.close()
        assert [r.seq for r in read_wal(path).records] == [1, 2]

    def test_wal_gap_after_lost_checkpoint_raises(self, tmp_path):
        """Commits 1-6 with a checkpoint at 4, then the checkpoint file is
        lost: the truncated WAL starts at 5, so reopening must name the
        missing seq 1 instead of replaying 5-6 onto the initial graph."""
        mgr = RecoveryManager(ResilienceConfig(
            directory=tmp_path, checkpoint_interval=4))
        edges: set = set()
        for seq in range(1, 7):
            edge = (seq, seq + 1)
            mgr.log_applied(seq, _batch(ins=[edge]))
            edges.add(edge)
            if mgr.should_checkpoint():
                mgr.write_checkpoint(seq, _keys(edges))
        mgr.close()
        for path in tmp_path.glob("checkpoint-*"):
            path.unlink()
        with pytest.raises(WalCorruptionError, match="seq=1 is missing") as err:
            RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert err.value.seq == 1

    def test_wal_gap_mid_tail_raises(self, tmp_path):
        w = WalWriter(tmp_path / "wal.log")
        for seq in (1, 2, 4):
            w.append(seq, _batch(ins=[(seq, seq + 1)]))
        w.close()
        with pytest.raises(WalCorruptionError) as err:
            RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert err.value.seq == 3

    def test_shard_recovery_plan_refuses_gap(self, tmp_path):
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        mgr.log_applied(1, _batch(ins=[(1, 2)]))
        mgr.log_applied(3, _batch(ins=[(3, 4)]))
        with pytest.raises(WalCorruptionError) as err:
            mgr.shard_recovery_plan(0, 2, [])
        assert err.value.seq == 2
        mgr.close()

    def test_shard_recovery_plan_routes_tail(self, tmp_path):
        initial = [(0, 1), (0, 2), (1, 2), (2, 3)]
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        batch = _batch(ins=[(4, 5), (5, 6)], dels=[(0, 1)])
        mgr.log_applied(1, batch)
        for shard in range(2):
            base, replay = mgr.shard_recovery_plan(shard, 2, initial)
            assert base == set(split_by_shard(initial, 2)[shard])
            for sub in replay:
                for e in sub.insertions + sub.deletions:
                    assert e in batch.insertions + batch.deletions
        # skip_seqs drops a quarantined batch from the replay
        for shard in range(2):
            _, replay = mgr.shard_recovery_plan(
                shard, 2, initial, skip_seqs={1})
            assert replay == []
        mgr.close()


def _spec(n=32, m=96, seed=7):
    edges, _ = request_stream(n, m, 1, seed=seed)
    return {"kind": "spanner", "n": n, "edges": edges, "seed": seed,
            "k": 2, "base_capacity": 16}


_SUP = SupervisionConfig(recv_deadline=0.5, backoff_base=0.001,
                         backoff_cap=0.01)


def _edge_for_shard(shard, exclude=(), n=32, shards=2):
    """A fresh edge that the deterministic router sends to ``shard``."""
    taken = set(exclude)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in taken and edge_shard((u, v), shards) == shard:
                return (u, v)
    raise AssertionError("no free edge for shard")


class TestShardSupervision:
    def test_dead_worker_restarted_and_batch_applied(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        ex.kill_shard(0)
        before = ex.graph_union()
        res = ex.apply(_batch(ins=[(30, 31), (29, 31)]))
        assert res.recovered_shards  # at least the killed shard recovered
        assert res.restarts >= 1
        assert ex.graph_union() == before | {(30, 31), (29, 31)}
        ex.close()

    def test_unsupervised_dead_worker_raises(self):
        from repro.service import ShardDeadError

        ex = ShardedExecutor(_spec(), 2, supervision=None)
        ex.kill_shard(0)
        with pytest.raises(ShardDeadError):
            ex.apply(_batch(ins=[(30, 31), (29, 31)]))
        ex.close()

    def test_poison_batch_quarantined_after_crash_loops(self):
        class AlwaysDrop(FaultInjector):
            def on_recv(self, shard, seq):
                if shard == 0 and seq == 1:
                    return "drop"
                return None

        ex = ShardedExecutor(_spec(), 2, supervision=_SUP,
                             injector=AlwaysDrop())
        # both edges route somewhere; force ops onto shard 0 by brute
        # scan of candidate edges
        edge0 = next((u, v) for u in range(32) for v in range(u + 1, 32)
                     if split_by_shard([(u, v)], 2)[0]
                     and (u, v) not in set(_spec()["edges"]))
        res = ex.apply(_batch(ins=[edge0]), seq=1)
        assert res.quarantined_shards == (0,)
        assert ex.quarantined and ex.quarantined[0][0] == 1
        # the engine stays live: the next batch on shard 0 applies fine
        res2 = ex.apply(_batch(dels=[]), seq=2)
        assert res2.quarantined_shards == ()
        ex.close()

    def test_health_check_restarts_dead_shard(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        ex.kill_shard(1)
        health = ex.health_check(restart=True)
        assert not health[1].alive and health[1].restarted
        assert all(h.alive for h in ex.health_check(restart=False))
        ex.close()

    def test_wal_recovery_restores_exact_state(self, tmp_path):
        spec = _spec()
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        ex = ShardedExecutor(spec, 2, supervision=_SUP, recovery=mgr)
        initial = set(spec["edges"])
        e1 = _edge_for_shard(0, exclude=initial)
        e2 = _edge_for_shard(1, exclude=initial | {e1})
        e3 = _edge_for_shard(0, exclude=initial | {e1, e2})
        b1 = _batch(ins=[e1, e2])
        ex.apply(b1, seq=1)
        mgr.log_applied(1, b1)
        ex.kill_shard(0)
        b2 = _batch(ins=[e3])  # routed to the dead shard
        res = ex.apply(b2, seq=2)
        assert res.recovered
        assert ex.graph_union() == initial | {e1, e2, e3}
        ex.close()
        mgr.close()

    def test_scatter_sizes_restarts_dead_shard(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        ex.kill_shard(0)
        sizes = ex.scatter_sizes()
        assert ex.restarts_total == 1
        assert len(sizes) == 2 and sum(sizes) == len(ex.gather_edges())
        ex.close()

    def test_unsupervised_scatter_sizes_raises_on_dead_shard(self):
        from repro.service import ShardDeadError

        ex = ShardedExecutor(_spec(), 2, supervision=None)
        ex.kill_shard(1)
        with pytest.raises(ShardDeadError):
            ex.scatter_sizes()
        ex.close()

    def test_executor_close_idempotent_with_dead_shard(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        ex.kill_shard(0)
        ex.close()
        ex.close()  # second close is a no-op, not an error


class TestBootstrap:
    def test_cold_restart_equals_live_state(self, tmp_path):
        spec = _spec()
        mgr = RecoveryManager(ResilienceConfig(
            directory=tmp_path, checkpoint_interval=2))
        ex = ShardedExecutor(spec, 2, supervision=_SUP, recovery=mgr)
        batches = [
            _batch(ins=[(30, 31)]),
            _batch(ins=[(29, 31)], dels=[(30, 31)]),
            _batch(ins=[(28, 30)]),
        ]
        for seq, b in enumerate(batches, start=1):
            ex.apply(b, seq=seq)
            mgr.log_applied(seq, b)
            if mgr.should_checkpoint():
                mgr.write_checkpoint(seq, ex.shard_keys())
        live = ex.graph_union()
        ex.close()
        mgr.close()
        mgr2 = RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert mgr2.last_seq == 3
        ex2, last = bootstrap_executor(spec, 2, mgr2, supervision=_SUP)
        assert last == 3
        assert ex2.graph_union() == live
        ex2.close()
        mgr2.close()

    def test_queue_sees_replayed_wal_tail(self, tmp_path):
        """After a restart with a WAL tail, admission judges writes
        against the recovered graph, not the checkpoint base."""
        spec = _spec()
        e = _edge_for_shard(0, exclude=set(spec["edges"]))
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        ex, _ = bootstrap_executor(spec, 2, mgr, supervision=_SUP)
        svc = _service(ex, recovery=mgr)
        assert svc.submit_update("insert", *e).accepted
        svc.flush()
        # abandon without close: no final checkpoint, so the insert
        # survives only in the WAL tail
        ex.close()
        mgr.close()
        mgr2 = RecoveryManager(ResilienceConfig(directory=tmp_path))
        ex2, _ = bootstrap_executor(spec, 2, mgr2)   # unsupervised
        svc2 = _service(ex2, recovery=mgr2)
        assert svc2.graph_edges() == ex2.graph_union()
        assert svc2.submit_update("insert", *e).outcome == \
            "rejected_duplicate"
        assert svc2.submit_update("delete", *e).outcome == "accepted"
        svc2.flush()
        assert e not in svc2.graph_edges()
        assert svc2.self_check().ok
        svc2.close()

    def test_resharding_checkpoint_rejected(self, tmp_path):
        spec = _spec()
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        mgr.write_checkpoint(1, _keys({(0, 1)}, set()))
        with pytest.raises(ValueError):
            mgr.base_edges(0, 3, spec["edges"])
        with pytest.raises(ValueError, match="resharding"):
            bootstrap_executor(spec, 3, mgr)
        mgr.close()


def _pin_spec():
    """A fixed spec and three batches that move edges on every shard."""
    edges, _ = request_stream(64, 400, 1, seed=11)
    present = sorted(edges)
    absent = sorted({(u, v) for u in range(64) for v in range(u + 1, 64)}
                    - set(edges))
    batches = [_batch(ins=absent[:5], dels=present[:3]),
               _batch(ins=absent[5:9], dels=present[3:10]),
               _batch(ins=absent[9:30], dels=absent[:2])]
    spec = {"kind": "spanner", "n": 64, "edges": edges, "seed": 11,
            "k": 2, "base_capacity": 16}
    return spec, batches


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


class TestBootEdges:
    """``bootstrap_executor`` computes the boot edge list once; the specs,
    keys and checkpoint bytes it leads to are those of the per-shard
    ``base_edges`` union it replaced."""

    @staticmethod
    def _reference(mgr, spec, shards):
        """The replaced computation: each shard's ``base_edges``, their
        union, sorted."""
        initial = [tuple(e) for e in spec["edges"]]
        union = set()
        for i in range(shards):
            union |= mgr.base_edges(i, shards, initial)
        return sorted(union)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_specs_equal_the_union_reference(self, tmp_path, monkeypatch,
                                             shards, checkpointed):
        import repro.service.shard as shard_mod

        spec, batches = _pin_spec()
        # JSON-shaped edges with a repeat: the boot list is deduplicated
        spec["edges"] = [list(e) for e in spec["edges"]] + \
            [list(spec["edges"][0])]
        if checkpointed:
            mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
            ex, _ = bootstrap_executor(spec, shards, mgr)
            for seq, b in enumerate(batches, start=1):
                ex.apply(b, seq=seq)
                mgr.log_applied(seq, b)
            mgr.write_checkpoint(3, ex.shard_keys())
            ex.close()
            mgr.close()
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert (mgr.checkpoint is not None) == checkpointed
        expected = self._reference(mgr, spec, shards)
        booted = []

        class Recording(ShardedExecutor):
            def __init__(self, spec, *args, **kwargs):
                booted.append(spec)
                super().__init__(spec, *args, **kwargs)

        monkeypatch.setattr(shard_mod, "LocalExecutor", Recording)
        monkeypatch.setattr(shard_mod, "ShardedExecutor", Recording)
        ex, _ = bootstrap_executor(spec, shards, mgr)
        assert booted[0]["edges"] == expected
        assert all(type(e) is tuple for e in booted[0]["edges"])
        for i, (sub, part) in enumerate(zip(
                ex.shard_specs, split_by_shard(expected, shards))):
            assert sub == dict(spec, edges=part, seed=spec["seed"] + i)
        ex.close()
        mgr.close()

    @pytest.mark.parametrize("edges", [
        [],
        [[3, 4], [1, 2], [3, 4], [0, 9]],            # JSON pairs, a repeat
        [(2, 1), (1, 2), (2, 1), (1, 2), (0, 0)],    # both orientations
        [(0xFFFFFFFF, 0), (0, 0xFFFFFFFF), (7, 7)],  # the u32 edges
    ])
    def test_key_sort_equals_the_tuple_sort(self, edges):
        from repro.resilience.manager import _boot_edges

        out = _boot_edges(edges)
        assert out == sorted(set(map(tuple, edges)))
        assert all(type(e) is tuple for e in out)

    @pytest.mark.parametrize("edges, match", [
        ([(1 << 32, 0), (1, 2)], "must lie in"),     # past u32
        ([(1 << 70, 0)], "must lie in"),             # past int64
        ([(-1, 3), (2, 0)], "must lie in"),
        ([(1.5, 2), (1, 2)], "must be integers"),    # would collapse to one
        ([(1.5, 2), (1, 3)], "must be integers"),
    ])
    def test_key_sort_refuses_ids_it_cannot_key(self, edges, match):
        from repro.resilience.manager import _boot_edges

        with pytest.raises(ValueError, match=match):
            _boot_edges(edges)

    @pytest.mark.parametrize("durable", [False, True])
    def test_boot_refuses_malformed_spec_ids(self, tmp_path, malformed_id,
                                             durable):
        """Spec edges are checked on both boot paths: a malformed id is
        refused before any shard is built, never served or truncated."""
        spec = _spec()   # n = 32
        spec["edges"] = [*spec["edges"], (malformed_id(32), 31)]
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path)) \
            if durable else None
        with pytest.raises(ValueError, match="vertex ids"):
            bootstrap_executor(spec, 2, mgr)
        if mgr is not None:
            mgr.close()

    @pytest.mark.parametrize("n", [32.0, "32", True, -1, 2**32 + 1])
    def test_boot_refuses_a_malformed_vertex_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            bootstrap_executor(dict(_spec(), n=n), 1)

    def test_malformed_durable_submit_commits_nothing(self, tmp_path):
        """A float id never reaches the WAL: the submit raises, the flush
        commits nothing and the service stays consistent."""
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        ex, _ = bootstrap_executor(_spec(), 1, mgr)
        svc = _service(ex, recovery=mgr)
        with pytest.raises(ValueError, match="must be integers"):
            svc.submit_update("insert", 1.5, 2)
        svc.flush()
        assert svc.committed_seq == 0
        assert svc.self_check().ok
        svc.close()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                    max_size=120))
    def test_key_sort_keeps_the_callers_tuples(self, edges):
        from repro.resilience.manager import _boot_edges

        out = _boot_edges(edges)
        assert out == sorted(set(edges))
        firsts = {}
        for e in edges:
            firsts.setdefault(e, e)
        assert all(e is firsts[e] for e in out)

    # (boot keys + output, checkpoint file + output, rebooted keys +
    # output) digests, recorded before the boot list was computed once
    PINS = {
        1: ("c36a57b9cf011d76", "e85b37d683149ede", "fbec1e03031be757"),
        2: ("90980a19b194bdfd", "56228ff667ae50e9", "cab26f924176f009"),
        3: ("111088b797bb6ffb", "879b6bdb077ca270", "9886e29320323759"),
    }

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_keys_and_checkpoint_bytes_pinned(self, tmp_path, shards):
        spec, batches = _pin_spec()
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        ex, _ = bootstrap_executor(spec, shards, mgr)
        boot = _digest(*(k.tobytes() for k in ex.shard_keys()),
                       sorted(ex.gather_edges()))
        for seq, b in enumerate(batches, start=1):
            ex.apply(b, seq=seq)
            mgr.log_applied(seq, b)
        mgr.write_checkpoint(3, ex.shard_keys())
        written = _digest(
            next(tmp_path.glob("checkpoint-*.bin")).read_bytes(),
            sorted(ex.gather_edges()))
        ex.close()
        mgr.close()
        mgr2 = RecoveryManager(ResilienceConfig(directory=tmp_path))
        ex2, _ = bootstrap_executor(spec, shards, mgr2)
        rebooted = _digest(*(k.tobytes() for k in ex2.shard_keys()),
                           sorted(ex2.gather_edges()))
        ex2.close()
        mgr2.close()
        assert (boot, written, rebooted) == self.PINS[shards]



class _Poison(FaultInjector):
    """Drops every reply of shard 0 for the poisoned seqs, so their
    sub-batches crash-loop into quarantine."""

    def __init__(self) -> None:
        self.seqs: set[int] = set()

    def on_recv(self, shard, seq):
        return "drop" if shard == 0 and seq in self.seqs else None


@contextlib.contextmanager
def _damaged_magic(path):
    """Flip the WAL's first magic byte for the duration of the block, so
    every live restart inside it finds the log damaged and falls back to
    the shard's anchor; the log is whole again afterwards."""
    with open(path, "r+b") as fh:
        byte = fh.read(1)
        fh.seek(0)
        fh.write(bytes([byte[0] ^ 0xFF]))
    try:
        yield
    finally:
        with open(path, "r+b") as fh:
            fh.write(byte)


class TestWalFallbackRestart:
    def test_fallback_after_reanchor_replays_from_anchor(self, tmp_path):
        """A restart re-anchors shard 0 on the checkpoint; a later restart
        that finds the WAL damaged mid-stream must replay the in-memory
        history from that anchor, not from the initial edges (which would
        silently lose every change between the two)."""
        spec = _spec()
        mgr = RecoveryManager(ResilienceConfig(
            directory=tmp_path, checkpoint_interval=4))
        ex = ShardedExecutor(spec, 2, supervision=_SUP, recovery=mgr)
        svc = _service(ex, recovery=mgr)
        taken = set(spec["edges"])

        def commit():
            for k in range(6):
                e = _edge_for_shard(k % 2, exclude=taken)
                taken.add(e)
                assert svc.submit_update("insert", *e).accepted
            svc.flush()

        for _ in range(5):
            commit()
        ex.kill_shard(0)
        commit()                     # restart from checkpoint + WAL
        assert ex.shard_specs[0]["edges"] != \
            sorted(split_by_shard(spec["edges"], 2)[0])
        for _ in range(5):
            commit()
        with open(mgr.wal_path, "r+b") as fh:
            fh.seek(mgr.wal_path.stat().st_size // 3)
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError):
            read_wal(mgr.wal_path)
        ex.kill_shard(0)
        commit()                     # restart from the anchor
        assert ex.wal_fallbacks == 1
        assert svc.metrics.snapshot()["wal_fallbacks"] == 1
        result = svc.self_check()
        assert result.ok, str(result)
        assert ex.graph_union() == svc.graph_edges() == taken
        svc.close()


class TestCheckpointKeys:
    """``shard_keys()`` advances each shard's previous keys by the
    sub-batches applied since, and re-encodes a shard whose history a
    restart or a quarantine re-anchored."""

    N = 12
    PAIRS = [(u, v) for u in range(12) for v in range(u + 1, 12)]

    def _executor(self, directory, injector=None):
        initial = self.PAIRS[::3]
        spec = {"kind": "spanner", "n": self.N, "edges": initial,
                "seed": 5, "k": 2, "base_capacity": 8}
        mgr = RecoveryManager(ResilienceConfig(directory=directory))
        ex = ShardedExecutor(spec, 2, supervision=_SUP, recovery=mgr,
                             injector=injector)
        return mgr, ex, split_by_shard(initial, 2)

    @staticmethod
    def _apply(ex, mgr, model, seq, edges):
        """Flip each edge of ``edges`` (delete if live) as commit
        ``seq``; ``model`` follows every shard that did not quarantine."""
        live = set().union(*map(set, model))
        batch = _batch(ins=[e for e in edges if e not in live],
                       dels=[e for e in edges if e in live])
        res = ex.apply(batch, seq=seq)
        mgr.log_applied(seq, batch)
        for i, part in enumerate(model):
            if i not in res.quarantined_shards:
                part.difference_update(batch.deletions)
                part.update(e for e in batch.insertions
                            if edge_shard(e, 2) == i)
        return res

    @staticmethod
    def _check(tmp_path, mgr, ex, model, seq):
        keys = ex.shard_keys()
        want = _keys(*model)
        assert [k.tolist() for k in keys] == [k.tolist() for k in want]
        mgr.write_checkpoint(seq, keys)
        ref = CheckpointStore(tmp_path / f"ref-{seq}").save(seq, want)
        (ours,) = (tmp_path / "wal").glob("checkpoint-*.bin")
        assert ours.read_bytes() == ref.read_bytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_keys_equal_set_encoding(self, tmp_path_factory, data):
        """Random windows — an edge inserted then deleted, deleted then
        re-inserted, or both — with supervised restarts (from checkpoint
        + WAL, or from the anchor when the log is damaged) and
        quarantined sub-batches in between."""
        tmp_path = tmp_path_factory.mktemp("keys")
        poison = _Poison()
        mgr, ex, model = self._executor(tmp_path / "wal", poison)
        model = [set(p) for p in model]
        seq = 0
        try:
            for _ in range(data.draw(st.integers(1, 4), label="windows")):
                for _ in range(data.draw(st.integers(0, 5))):
                    seq += 1
                    fault = data.draw(st.sampled_from(
                        ["none", "none", "none", "kill", "poison",
                         "fallback"]))
                    if fault in ("kill", "fallback"):
                        ex.kill_shard(data.draw(st.integers(0, 1)))
                    elif fault == "poison":
                        poison.seqs.add(seq)
                    edges = data.draw(st.lists(
                        st.sampled_from(self.PAIRS[:20]), unique=True,
                        max_size=6))
                    if fault == "fallback":
                        with _damaged_magic(mgr.wal_path):
                            self._apply(ex, mgr, model, seq, edges)
                    else:
                        self._apply(ex, mgr, model, seq, edges)
                self._check(tmp_path, mgr, ex, model, seq)
        finally:
            ex.close()
            mgr.close()

    @pytest.mark.parametrize("fault", ["kill", "poison"])
    def test_reanchored_history_reencoded(self, tmp_path, fault):
        """After a checkpoint, a re-anchored shard's history is shorter
        than the keys' last mark: advancing from it would skip every
        batch applied since."""
        poison = _Poison()
        mgr, ex, model = self._executor(tmp_path / "wal", poison)
        model = [set(p) for p in model]
        shard0 = [e for e in self.PAIRS if edge_shard(e, 2) == 0]
        try:
            for seq in range(1, 7):
                self._apply(ex, mgr, model, seq, shard0[seq:seq + 2])
            self._check(tmp_path, mgr, ex, model, 6)
            if fault == "kill":
                ex.kill_shard(0)
            else:
                poison.seqs.add(7)
            res = self._apply(ex, mgr, model, 7, shard0[:2])
            assert res.recovered_shards == (0,)
            assert len(ex.history[0]) < 6
            for seq in (8, 9):
                self._apply(ex, mgr, model, seq, shard0[seq:seq + 3])
            self._check(tmp_path, mgr, ex, model, 9)
        finally:
            ex.close()
            mgr.close()

    def test_local_executor_keys(self, tmp_path):
        """The one-shard executor's keys come from its anchor alone: its
        one edge set is membership, which the keys never read."""
        from repro.service import LocalExecutor

        initial = self.PAIRS[::3]
        ex = LocalExecutor({"kind": "spanner", "n": self.N, "k": 2,
                            "edges": initial, "seed": 5})
        assert isinstance(ex, ShardedExecutor) and ex.shards == 1
        assert ex.shard_specs[0]["edges"] == initial
        assert [k for k, v in vars(ex).items() if isinstance(v, set)] == \
            ["edges"]
        live = set(initial)
        first = ex.shard_keys()
        assert not first[0].flags.writeable
        for i in range(6):
            edges = self.PAIRS[i:i + 4]
            b = _batch(ins=[e for e in edges if e not in live],
                       dels=[e for e in edges if e in live])
            ex.apply(b)
            live = (live - set(b.deletions)) | set(b.insertions)
            if i % 2:
                assert ex.shard_keys()[0].tolist() == \
                    edge_keys(live).tolist()
        # the arrays handed out earlier are untouched
        assert first[0].tolist() == edge_keys(set(initial)).tolist()
        assert ex.graph_union() == ex.edges == live
        ex.close()


def _service(executor, recovery=None, max_pending=1024, max_batch=512,
             max_delay=1000.0):
    return SpannerService(
        executor,
        config=ServiceConfig(
            batcher=BatcherConfig(max_batch=max_batch, max_delay=max_delay),
            admission=AdmissionConfig(max_pending=max_pending),
        ),
        recovery=recovery,
    )


class TestGracefulDegradation:
    def test_stale_reads_and_degraded_shedding_during_recovery(self):
        """From inside the recovery window, queries answer stale from the
        snapshot and new updates shed with a degraded retry hint."""
        observed = {}

        class Probe(FaultInjector):
            def on_restart(self, shard, attempt):
                # runs while ShardedExecutor.degraded is set (mid-restart)
                observed["query"] = svc.query_info("size")
                observed["submit"] = svc.submit_update("insert", 29, 31)

        ex = ShardedExecutor(_spec(), 2, supervision=_SUP, injector=Probe())
        svc = _service(ex)
        ex.kill_shard(0)
        # an edge routed to the dead shard, so the flush must recover it
        u, v = _edge_for_shard(0, exclude=set(_spec()["edges"]))
        svc.submit_update("insert", u, v)
        svc.flush()
        q = observed["query"]
        assert q.stale and q.value >= 0
        s = observed["submit"]
        assert not s.accepted and s.outcome == "shed_degraded"
        assert s.retry_after and s.retry_after > 0
        m = svc.metrics.snapshot()
        assert m["stale_reads"] >= 1
        assert m["shed_degraded"] >= 1
        assert m["recoveries"] >= 1
        assert m["shard_restarts"] >= 1
        # after recovery the service is whole again: fresh reads succeed
        post = svc.query_info("size")
        assert not post.stale
        assert svc.self_check(deep=False).ok
        svc.close()

    def test_resync_reads_match_bfs_over_snapshot(self):
        """A supervised restart resynchronizes the snapshot from the live
        shards; every read kind must then follow the resynced edges."""
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        svc = _service(ex)
        ex.kill_shard(0)
        u, v = _edge_for_shard(0, exclude=set(_spec()["edges"]))
        svc.submit_update("insert", u, v)
        svc.flush()
        assert svc.metrics.snapshot()["recoveries"] >= 1
        live = ex.gather_edges()
        assert svc.snapshot_edges() == live
        assert svc.query("size") == len(live)
        pairs = [(a, b) for a in range(32) for b in range(a + 1, 32)]
        assert [svc.query("contains", p) for p in pairs] == \
            [p in live for p in pairs]
        ref = adjacency_from_edges(32, live)
        expect = []
        for a, b in pairs:
            d = bfs_distances(ref, a).get(b)
            expect.append(float("inf") if d is None else float(d))
        assert [svc.query("distance", p) for p in pairs] == expect
        assert [svc.query("connected", p) for p in pairs] == \
            [d != float("inf") for d in expect]
        batch = svc.query_batch([("distance", p) for p in pairs])
        assert [r.value for r in batch] == expect
        svc.close()

    def test_recovery_visible_in_metrics_histogram(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        svc = _service(ex)
        ex.kill_shard(0)
        u, v = _edge_for_shard(0, exclude=set(_spec()["edges"]))
        svc.submit_update("insert", u, v)
        svc.flush()
        m = svc.metrics.snapshot()
        assert m["recovery_latency_s.count"] >= 1
        svc.close()


class TestAdmissionOverload:
    def test_sustained_overload_sheds_then_recovers(self):
        """Satellite: over-capacity submits shed with retry-after, and
        acceptance resumes once the queue drains."""
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        svc = _service(ex, max_pending=8, max_batch=10_000)
        edges = [(u, v) for u in range(32) for v in range(u + 1, 32)
                 if (u, v) not in set(_spec()["edges"])]
        shed = []
        for u, v in edges[:40]:
            resp = svc.submit_update("insert", u, v)
            if not resp.accepted:
                assert resp.outcome == "shed"
                assert resp.retry_after and resp.retry_after > 0
                shed.append((u, v))
        assert shed, "queue never overflowed"
        assert svc.metrics.snapshot()["shed"] == len(shed)
        # retry hints grow with overflow depth (sustained overload)
        svc.flush()
        resp = svc.submit_update("insert", *shed[0])
        assert resp.accepted, "acceptance did not resume after drain"
        svc.close()


class TestShutdownPaths:
    def test_service_close_idempotent(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        svc = _service(ex)
        svc.submit_update("insert", 30, 31)
        svc.close()
        svc.close()

    def test_stop_after_executor_death_does_not_raise(self):
        ex = ShardedExecutor(_spec(), 2, supervision=None)
        svc = _service(ex)
        svc.submit_update("insert", 30, 31)
        ex.kill_shard(0)
        ex.kill_shard(1)
        svc.stop()  # final flush fails internally, recorded in metrics
        assert svc.metrics.snapshot().get("shutdown_flush_failures", 0) >= 1
        svc.close()

    def test_background_flusher_stop_joins_thread(self):
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP)
        svc = _service(ex, max_delay=0.01)
        svc.start()
        assert svc._thread is not None
        svc.submit_update("insert", 30, 31)
        svc.stop()
        assert svc._thread is None
        assert threading.active_count() >= 1
        svc.close()

    def test_final_close_writes_checkpoint(self, tmp_path):
        mgr = RecoveryManager(ResilienceConfig(
            directory=tmp_path, checkpoint_interval=10**9))
        ex = ShardedExecutor(_spec(), 2, supervision=_SUP, recovery=mgr)
        svc = _service(ex, recovery=mgr)
        svc.submit_update("insert", 30, 31)
        svc.close()
        mgr2 = RecoveryManager(ResilienceConfig(directory=tmp_path))
        assert mgr2.checkpoint is not None
        assert mgr2.checkpoint.epoch == mgr2.last_seq
        assert mgr2.tail == []  # the WAL was truncated by the checkpoint
        mgr2.close()


class TestWalStreamDecoder:
    def test_single_byte_feed_reproduces_records(self):
        """Arbitrary chunking — even 1 byte at a time — loses nothing."""
        batches = [_batch(ins=[(i, i + 1)]) for i in range(5)]
        stream = WAL_MAGIC + b"".join(
            encode_record(i + 1, b) for i, b in enumerate(batches))
        dec = WalStreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(dec.feed(stream[i:i + 1]))
        assert [r.seq for r in out] == [1, 2, 3, 4, 5]
        assert dec.offset == len(stream)
        assert dec.pending_bytes == 0

    def test_bad_magic_raises(self):
        with pytest.raises(WalCorruptionError, match="magic"):
            WalStreamDecoder().feed(b"XWAL9\x00\x00\x00" + b"x" * 16)

    def test_bad_crc_on_tail_held_then_raises_mid_stream(self):
        """A checksum-failing *tail* is held (may be mid-flight); bytes
        landing beyond it make it mid-stream damage, which raises."""
        rec = encode_record(1, _batch(ins=[(1, 2)]))
        damaged = rec[:-1] + bytes([rec[-1] ^ 0xFF])
        dec = WalStreamDecoder()
        assert dec.feed(WAL_MAGIC + damaged) == []  # held, not raised
        with pytest.raises(WalCorruptionError, match="checksum"):
            dec.feed(encode_record(2, _batch(ins=[(3, 4)])))

    def test_sequence_regression_raises(self):
        dec = WalStreamDecoder()
        dec.feed(WAL_MAGIC + encode_record(5, _batch(ins=[(1, 2)])))
        with pytest.raises(WalCorruptionError, match="regression"):
            dec.feed(encode_record(5, _batch(ins=[(3, 4)])))


class TestWalFollower:
    """Satellite: the incremental tail-read API used by log shipping."""

    def test_poll_returns_only_new_records(self, tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        w.append(1, _batch(ins=[(1, 2)]))
        w.append(2, _batch(ins=[(3, 4)]))
        f = WalFollower(path)
        assert [r.seq for r in f.poll()] == [1, 2]
        assert f.poll() == []           # caught up: nothing new
        w.append(3, _batch(dels=[(1, 2)]))
        assert [r.seq for r in f.poll()] == [3]
        assert f.last_seq == 3
        w.close()

    def test_missing_file_polls_empty(self, tmp_path):
        f = WalFollower(tmp_path / "nope.log")
        assert f.poll() == []

    def test_torn_final_record_held_until_completed(self, tmp_path):
        """A torn tail yields nothing; completing it delivers the record
        exactly once — the same rule read_wal applies at end of file."""
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        w.append(1, _batch(ins=[(1, 2)]))
        rec2 = encode_record(2, _batch(ins=[(3, 4)], dels=[(1, 2)]))
        f = WalFollower(path)
        assert [r.seq for r in f.poll()] == [1]
        for cut in (3, len(rec2) - 1):  # torn mid-header and mid-payload
            with open(path, "ab") as fh:
                fh.write(rec2[:cut])
            assert f.poll() == []       # incomplete: held, not delivered
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - cut)
        with open(path, "ab") as fh:
            fh.write(rec2)
        polled = f.poll()
        assert [r.seq for r in polled] == [2]
        assert polled[0].batch.insertions == [(3, 4)]
        w.close()

    def test_primary_restart_with_torn_tail_resumes(self, tmp_path):
        """Satellite: the upstream writer crashes mid-append and restarts.

        Its crash recovery truncates the torn final record and re-appends
        it fresh.  A follower that was holding the torn prefix must
        discard the stale pending bytes and resume from its consumed
        offset — delivering every record exactly once across the restart,
        with no re-bootstrap."""
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        w.append(1, _batch(ins=[(1, 2)]))
        w.append(2, _batch(ins=[(3, 4)]))
        f = WalFollower(path)
        assert [r.seq for r in f.poll()] == [1, 2]
        # crash mid-append: a torn seq-3 record lands on disk
        rec3 = encode_record(3, _batch(ins=[(5, 6)], dels=[(1, 2)]))
        for cut in (3, len(rec3) - 1):   # torn mid-header and mid-payload
            with open(path, "ab") as fh:
                fh.write(rec3[:cut])
            w.close()
            assert f.poll() == []        # torn tail held, not delivered
            # restart: crash recovery truncates the partial record...
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - cut)
            # ...the follower notices the shrink into its held tail and
            # drops the stale prefix (old behaviour: WalTruncatedError)
            before = f.offset
            assert f.poll() == []
            assert f.offset == before    # consumed cursor intact
            w = WalWriter(path)
        # the restarted writer re-appends seq 3 — with *different*
        # content than the torn attempt (a retry may coalesce
        # differently) — plus new traffic
        w.append(3, _batch(ins=[(9, 10)]))
        w.append(4, _batch(ins=[(7, 8)]))
        polled = f.poll()
        assert [r.seq for r in polled] == [3, 4]
        assert polled[0].batch.insertions == [(9, 10)]
        assert f.last_seq == 4
        assert f.poll() == []            # exactly once: nothing doubled
        w.close()

    def test_decoder_discard_pending_drops_only_the_tail(self):
        d = WalStreamDecoder()
        rec = encode_record(1, _batch(ins=[(1, 2)]))
        assert [r.seq for r in d.feed(WAL_MAGIC + rec + rec[:5])] == [1]
        consumed = d.offset
        assert d.pending_bytes == 5
        assert d.discard_pending() == 5
        assert d.pending_bytes == 0
        assert d.offset == consumed      # consumed cursor untouched
        rec2 = encode_record(2, _batch(ins=[(3, 4)]))
        assert [r.seq for r in d.feed(rec2)] == [2]

    def test_truncation_below_cursor_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        w = WalWriter(path)
        for i in range(4):
            w.append(i + 1, _batch(ins=[(i, i + 10)]))
        f = WalFollower(path)
        assert len(f.poll()) == 4
        w.truncate_through(3)           # checkpoint shrank the log
        with pytest.raises(WalTruncatedError, match="re-bootstrap"):
            f.poll()
        w.close()

    def test_nonzero_resume_offset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="offset 0"):
            WalFollower(tmp_path / "wal.log", offset=8)

    @given(
        batches=st.lists(batch_st, min_size=1, max_size=8),
        poll_after=st.sets(st.integers(0, 7)),
        tear_at=st.integers(1, 11),
    )
    @settings(max_examples=40)
    def test_interleaved_append_poll_round_trip(
            self, tmp_path_factory, batches, poll_after, tear_at):
        """Hypothesis satellite: appends interleaved with polls at
        arbitrary points — including a torn final record — deliver every
        record exactly once, in order."""
        path = tmp_path_factory.mktemp("follow") / "wal.log"
        w = WalWriter(path)
        f = WalFollower(path)
        seen: list[int] = []
        for i, b in enumerate(batches):
            w.append(i + 1, b)
            if i in poll_after:
                seen.extend(r.seq for r in f.poll())
        # torn final record: partial bytes visible at poll time
        last = encode_record(len(batches) + 1, _batch(ins=[(7, 8)]))
        cut = min(tear_at, len(last) - 1)
        with open(path, "ab") as fh:
            fh.write(last[:cut])
        mid = [r.seq for r in f.poll()]
        assert (len(batches) + 1) not in mid     # torn: not delivered
        seen.extend(mid)
        with open(path, "ab") as fh:
            fh.write(last[cut:])
        seen.extend(r.seq for r in f.poll())
        assert seen == list(range(1, len(batches) + 2))
        w.close()


class TestDriverResilience:
    def test_interrupt_drains_and_checkpoints(self, tmp_path, monkeypatch):
        """Satellite: KeyboardInterrupt mid-stream → queue drained, final
        checkpoint written, report.interrupted set, rerun resumes."""
        import repro.service.driver as driver_mod
        from repro.service import ServeConfig, run_serve

        real = driver_mod.request_stream
        cut_after = 400

        def interrupting(*args, **kwargs):
            initial, requests = real(*args, **kwargs)

            def gen():
                for i, req in enumerate(requests):
                    if i == cut_after:
                        raise KeyboardInterrupt
                    yield req
            return initial, gen()

        monkeypatch.setattr(driver_mod, "request_stream", interrupting)
        cfg = ServeConfig(n=48, m=160, requests=2000, shards=2,
                          processes=False, max_batch=32,
                          wal_dir=str(tmp_path), checkpoint_interval=8)
        report = run_serve(cfg, verify=True)
        assert report.interrupted
        assert report.served == cut_after
        assert report.verified
        assert report.final_seq > 0
        monkeypatch.setattr(driver_mod, "request_stream", real)
        # rerun with the same WAL dir: resumes from the shutdown state
        report2 = run_serve(cfg, verify=True)
        assert report2.resumed_from_seq == report.final_seq
        assert report2.verified

    def test_run_serve_without_wal_dir_still_verifies(self):
        from repro.service import ServeConfig, run_serve

        cfg = ServeConfig(n=48, m=160, requests=800, shards=2,
                          processes=False, max_batch=32)
        report = run_serve(cfg, verify=True)
        assert report.verified and not report.interrupted
