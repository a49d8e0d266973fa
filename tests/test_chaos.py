"""Chaos-harness tests: seeded fault campaigns + a real ``kill -9``.

The campaign tests run the deterministic harness over the plan catalogue
(equivalence against the ``Workload.replay`` ground truth is asserted
inside :func:`repro.resilience.chaos.run_plan` itself).  The process test
delivers an actual SIGKILL to a live shard worker mid-stream and asserts
the engine recovers instead of hanging.
"""

import multiprocessing as mp
import os
import signal
import time

import pytest

import repro.service.shard as shard_mod

from repro.resilience import RecoveryManager, ResilienceConfig
from repro.resilience.chaos import (
    CATALOGUE,
    FAMILIES,
    ChaosConfig,
    ChaosPlan,
    resolve_plans,
    run_campaign,
    run_plan,
)
from repro.resilience.manager import SupervisionConfig
from repro.service import ShardedExecutor
from repro.service.shard import edge_shard
from repro.workloads import UpdateBatch, Workload
from repro.workloads.streams import request_stream

_FORK = "fork" in mp.get_all_start_methods()


def _edge_for_shard(shard, taken, n=32, shards=2):
    """A fresh edge the deterministic router sends to ``shard``."""
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in taken and edge_shard((a, b), shards) == shard:
                return (a, b)
    raise AssertionError("no free edge routes to the target shard")


def _counters(report):
    return [(r.plan, r.commits, r.fired, r.recoveries, r.restarts,
             r.quarantined) for r in report.runs]


class TestCatalogue:
    def test_plan_names_are_unique_across_families(self):
        names = [k for kinds in FAMILIES.values() for k in kinds]
        assert len(names) == len(set(names)) == len(CATALOGUE)
        assert not set(names) & set(FAMILIES)
        for family, kinds in FAMILIES.items():
            assert all(CATALOGUE[k] == family for k in kinds)

    def test_family_name_expands_to_its_plans(self):
        assert resolve_plans(["net"]) == FAMILIES["net"]
        assert resolve_plans(["replica_lag", "replica"]) == (
            "replica_lag", "replica_crash_catchup")
        assert resolve_plans(CATALOGUE) == tuple(CATALOGUE)

    def test_unknown_plan_names_the_catalogue(self):
        with pytest.raises(ValueError, match="net_partition"):
            resolve_plans(["kill_pre_apply", "no_such_plan"])


class TestChaosCampaign:
    def test_every_plan_kind_recovers_exactly(self, tmp_path):
        """One seed per service plan: zero divergences."""
        cfg = ChaosConfig(requests=900, seeds=1, plans=("service",),
                          workdir=str(tmp_path))
        report = run_campaign(cfg)
        problems = [d for r in report.runs for d in r.divergences]
        assert report.ok, problems
        assert len(report.runs) == len(FAMILIES["service"])
        # every run actually exercised its fault (or, for the tail plan,
        # the post-run corruption path)
        for r in report.runs:
            if r.plan.kind != "corrupt_wal_tail":
                assert r.fired >= 1, r.plan.kind

    @pytest.mark.parametrize("plans,requests", [
        (("kill_pre_apply", "checkpoint_crash"), 600),
        (("replica_lag",), 200),
    ], ids=["service", "replica"])
    def test_campaign_is_deterministic(self, tmp_path, plans, requests):
        """Same seed, same plan → byte-identical outcome counters."""
        cfg = ChaosConfig(requests=requests, seeds=1, plans=plans)
        a = run_campaign(ChaosConfig(
            **{**cfg.__dict__, "workdir": str(tmp_path / "a")}))
        b = run_campaign(ChaosConfig(
            **{**cfg.__dict__, "workdir": str(tmp_path / "b")}))
        assert a.ok and b.ok
        assert _counters(a) == _counters(b)

    def test_rerun_into_one_workdir_starts_fresh(self, tmp_path):
        """A second campaign into the same workdir must not boot on the
        first one's WAL and checkpoints."""
        cfg = ChaosConfig(requests=400, seeds=1, plans=("kill_pre_apply",),
                          workdir=str(tmp_path))
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.ok and b.ok, [r.divergences for r in a.runs + b.runs]
        assert _counters(a) == _counters(b)
        assert b.runs[0].recoveries == b.runs[0].restarts == 1

    def test_divergence_is_reported_not_swallowed(self, tmp_path):
        """A plan that never fires must be flagged as a divergence."""
        cfg = ChaosConfig(requests=300, seeds=1)
        # at_seq far beyond the number of commits the run produces
        plan = ChaosPlan(kind="kill_pre_apply", shard=0, at_seq=10**6)
        res = run_plan(cfg, plan, seed=0, workdir=str(tmp_path))
        assert not res.ok
        assert any("never fired" in d for d in res.divergences)

    def test_report_rows_aggregate_by_plan(self, tmp_path):
        cfg = ChaosConfig(requests=600, seeds=2,
                          plans=("drop_reply",), workdir=str(tmp_path))
        report = run_campaign(cfg)
        assert report.ok
        (row,) = report.rows()
        assert row["plan"] == "drop_reply"
        assert row["runs"] == 2
        assert row["divergences"] == 0


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
class _FaultyShard:
    """Wraps a shard's backend inside its worker process.

    Inserting ``fault_edge`` hangs the worker (``fault="hang"``) or
    SIGKILLs it (``fault="die"``), once: a flag file marks the fault as
    spent, so the rebuilt shard applies the edge normally.  Every
    application of ``watch_edge`` appends a line to ``log``, after a
    short sleep that keeps that shard busy while the other one fails.
    """

    def __init__(self, inner, fault, fault_edge, flag, watch_edge, log):
        self.inner = inner
        self.fault = fault
        self.fault_edge = fault_edge
        self.flag = flag
        self.watch_edge = watch_edge
        self.log = log

    def update(self, insertions=(), deletions=()):
        if self.watch_edge in insertions:
            time.sleep(0.3)
            with open(self.log, "a") as fh:
                fh.write("applied\n")
        if self.fault_edge in insertions and not os.path.exists(self.flag):
            open(self.flag, "w").close()
            if self.fault == "hang":
                time.sleep(60.0)
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.update(insertions=insertions, deletions=deletions)

    def output_edges(self):
        return self.inner.output_edges()


def _install_faulty_shards(monkeypatch, tmp_path, fault, fault_edge,
                           watch_edge=None):
    """Patch the shard backend factory before the executor forks its workers;
    returns the watch log's path."""
    real = shard_mod.build_backend
    flag = str(tmp_path / "fault-spent")
    log = tmp_path / "watch.log"

    def build(spec, cost):
        return _FaultyShard(real(spec, cost), fault, fault_edge, flag,
                            watch_edge, str(log))

    monkeypatch.setattr(shard_mod, "build_backend", build)
    return log


@pytest.mark.skipif(not _FORK, reason="needs the fork start method")
class TestRealProcessKill:
    def test_sigkill_mid_stream_does_not_hang_engine(self, tmp_path):
        """kill -9 a live worker: the batch is retried after restart and
        the engine converges — previously this hung forever on recv."""
        initial, _ = request_stream(32, 96, 1, seed=3)
        spec = {"kind": "spanner", "n": 32, "edges": initial, "seed": 11,
                "k": 2, "base_capacity": 16}
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path))
        sup = SupervisionConfig(recv_deadline=2.0, backoff_base=0.01,
                                backoff_cap=0.05)
        ex = ShardedExecutor(spec, 2, processes=True,
                             supervision=sup, recovery=mgr)
        try:
            taken = set(initial)
            live = set(initial)
            for seq in range(1, 7):
                # route every batch at shard 0 — the one we will murder —
                # so the kill is guaranteed to land in the apply path
                edge = _edge_for_shard(0, taken)
                taken.add(edge)
                if seq == 4:
                    ex.kill_shard(0)
                    assert not ex.backend._procs[0].is_alive()
                batch = UpdateBatch(insertions=[edge])
                res = ex.apply(batch, seq=seq)
                mgr.log_applied(seq, batch)
                live.add(edge)
                if seq == 4:
                    assert 0 in res.recovered_shards
                    assert res.restarts >= 1
                    assert res.recovery_seconds > 0
            # the engine survived and the state is exactly the replay
            assert ex.graph_union() == live
            health = ex.health_check(restart=False)
            assert all(h.alive for h in health)
            assert ex.restarts_total >= 1
        finally:
            ex.close()
            mgr.close()

    def test_chaos_campaign_with_real_processes(self, tmp_path):
        """A slim campaign over real worker processes also converges."""
        cfg = ChaosConfig(requests=500, seeds=1, processes=True,
                          recv_deadline=2.0,
                          plans=("kill_pre_apply", "kill_post_apply",
                                 "delay_reply"),
                          workdir=str(tmp_path))
        report = run_campaign(cfg)
        problems = [d for r in report.runs for d in r.divergences]
        assert report.ok, problems

    def test_hung_worker_killed_at_deadline_and_batch_retried(
            self, tmp_path, monkeypatch):
        """A shard task that blocks past ``recv_deadline`` gets its worker
        killed; the shard rebuilds from checkpoint + WAL and the batch is
        retried, ending exactly at the replay of the applied batches."""
        initial, _ = request_stream(32, 96, 1, seed=3)
        taken = set(initial)
        edges = []
        for _ in range(4):
            edges.append(_edge_for_shard(0, taken))
            taken.add(edges[-1])
        _install_faulty_shards(monkeypatch, tmp_path, "hang", edges[3])
        spec = {"kind": "spanner", "n": 32, "edges": initial, "seed": 11,
                "k": 2, "base_capacity": 16}
        mgr = RecoveryManager(ResilienceConfig(directory=tmp_path / "wal"))
        sup = SupervisionConfig(recv_deadline=2.0, backoff_base=0.01,
                                backoff_cap=0.05)
        ex = ShardedExecutor(spec, 2, processes=True, supervision=sup,
                             recovery=mgr)
        try:
            batches = [UpdateBatch(insertions=[e]) for e in edges]
            for seq, batch in enumerate(batches[:3], start=1):
                ex.apply(batch, seq=seq)
                mgr.log_applied(seq, batch)
                if seq == 2:
                    mgr.write_checkpoint(seq, ex.shard_keys())
            t0 = time.monotonic()
            res = ex.apply(batches[3], seq=4)
            elapsed = time.monotonic() - t0
            assert res.recovered_shards == (0,)
            assert res.restarts >= 1
            assert sup.recv_deadline <= elapsed < 30.0
            assert ex.backend.worker_restarts_total >= 1
            # rebuilt from the checkpoint at seq 2 plus the WAL tail (seq
            # 3), then the retried batch
            assert ex.applied_batches[0] == batches[2:]
            *_, (_, truth) = Workload(32, list(initial), batches).replay()
            assert ex.graph_union() == truth
            assert sum(ex.scatter_sizes()) == len(ex.gather_edges())
        finally:
            ex.close()
            mgr.close()

    def test_kill_mid_batch_applies_live_shard_once(self, tmp_path,
                                                    monkeypatch):
        """Shard 0's worker dies in a batch that also touches shard 1:
        shard 1's finished sub-batch is kept, never sent again."""
        initial, _ = request_stream(32, 96, 1, seed=3)
        e0 = _edge_for_shard(0, set(initial))
        e1 = _edge_for_shard(1, set(initial))
        log = _install_faulty_shards(monkeypatch, tmp_path, "die", e0,
                                     watch_edge=e1)
        spec = {"kind": "spanner", "n": 32, "edges": initial, "seed": 11,
                "k": 2, "base_capacity": 16}
        sup = SupervisionConfig(recv_deadline=5.0, backoff_base=0.01,
                                backoff_cap=0.05)
        ex = ShardedExecutor(spec, 2, processes=True, supervision=sup)
        try:
            res = ex.apply(UpdateBatch(insertions=[e0, e1]), seq=1)
            assert res.recovered_shards == (0,)
            assert log.read_text().splitlines() == ["applied"]
            assert [b.insertions for b in ex.applied_batches[1]] == [[e1]]
            assert ex.graph_union() == set(initial) | {e0, e1}
            assert all(h.alive for h in ex.health_check(restart=False))
        finally:
            ex.close()


class TestReplicaChaosCampaign:
    def test_replica_plans_converge_exactly(self):
        cfg = ChaosConfig(requests=300, seeds=2, plans=("replica",))
        report = run_campaign(cfg)
        assert len(report.runs) == len(FAMILIES["replica"]) * 2
        assert report.ok, [r.divergences for r in report.runs
                           if not r.ok]
        assert report.divergence_count == 0
        kinds = {r.plan.kind for r in report.runs}
        assert kinds == set(FAMILIES["replica"])
        # the crash plan restarts its replica from scratch at least once
        crash = [r for r in report.runs
                 if r.plan.kind == "replica_crash_catchup"]
        assert all(r.recoveries >= 1 for r in crash)


class TestNetChaosCampaign:
    """Wire faults through the in-process FaultProxy (the net family)."""

    def test_wire_plans_converge_exactly(self):
        cfg = ChaosConfig(requests=250, seeds=1,
                          plans=("net_torn_frame", "net_partition",
                                 "net_reset"))
        report = run_campaign(cfg)
        assert len(report.runs) == 3
        assert report.ok, [r.divergences for r in report.runs
                           if not r.ok]
        rows = {row["plan"]: row for row in report.rows()}
        # every plan's targeted resilience path actually fired: a torn
        # ACK forces an idempotent replay, a partition forces retries,
        # a reset storm forces reconnects (handshake replay)
        assert rows["net_torn_frame"]["dedup_hits"] >= 1
        assert rows["net_partition"]["retries"] >= 1
        assert rows["net_reset"]["reconnects"] >= 1
        for row in rows.values():
            assert row["divergences"] == 0
            assert row["commits"] >= 1

    def test_hedged_reads_fire_under_latency(self):
        cfg = ChaosConfig(requests=250, seeds=1, plans=("net_latency",))
        (res,) = run_campaign(cfg).runs
        assert res.ok, res.divergences
        assert res.hedged_reads >= 1

    @pytest.mark.skipif(not _FORK, reason="needs the fork start method")
    def test_worker_kill_is_supervised(self):
        cfg = ChaosConfig(requests=150, seeds=1, plans=("net_worker_kill",))
        (res,) = run_campaign(cfg).runs
        assert res.ok, res.divergences
        # the SIGKILLed pool worker was replaced and its task requeued
        assert res.restarts >= 1
