"""Deterministic chaos harness for the serving engine.

Runs the end-to-end service (queue → batcher → supervised shards →
WAL/checkpoints) under seeded fault plans injected through the production
hooks (:mod:`repro.resilience.faults`), then asserts that the recovered
state is *exactly* the ``Workload.replay`` ground truth of the committed
batch log, cross-checked structurally through the differential oracle
(:func:`repro.oracle.verify_service`).  Every plan, seed, and batch
boundary is deterministic, so a failing campaign run is a reproducer, not
an anecdote — the same discipline arXiv:2506.16477 applies to dynamic
trees with adversarial batch schedules.

Plan catalogue (``CHAOS_PLAN_KINDS``):

``kill_pre_apply``    worker killed just before applying its sub-batch
``kill_post_apply``   worker killed right after applying (reply may be
                      consumed or lost — both must converge)
``drop_reply``        the shard's reply is lost; the deadline must fire
``delay_reply``       the reply stalls past the deadline (hung worker)
``poison_batch``      the worker dies on *every* attempt of one batch —
                      must quarantine after the crash-loop budget
``corrupt_wal_live``  a WAL record is corrupted on disk, then a worker is
                      killed — recovery must detect the damage and fall
                      back to the in-memory history
``corrupt_wal_tail``  the final WAL record is damaged, then the engine is
                      cold-restarted — the torn tail must be dropped
``checkpoint_crash``  the process "dies" between writing and publishing a
                      checkpoint — the orphan must be ignored and the WAL
                      kept un-truncated

Used by ``python -m repro.cli chaos`` and the ``chaos-smoke`` CI job.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.resilience.faults import CheckpointInterrupted, FaultInjector
from repro.resilience.manager import (
    RecoveryManager,
    ResilienceConfig,
    SupervisionConfig,
    bootstrap_executor,
)
from repro.resilience.wal import corrupt_record
from repro.workloads.streams import UpdateBatch, Workload, request_stream

__all__ = [
    "CHAOS_PLAN_KINDS",
    "NET_PLAN_KINDS",
    "REPLICA_PLAN_KINDS",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosReport",
    "ChaosRunResult",
    "recovery_latency_sweep",
    "run_chaos_campaign",
    "run_chaos_once",
    "run_net_chaos_campaign",
    "run_net_chaos_once",
    "run_replica_chaos_campaign",
    "run_replica_chaos_once",
]

CHAOS_PLAN_KINDS = (
    "kill_pre_apply",
    "kill_post_apply",
    "drop_reply",
    "delay_reply",
    "poison_batch",
    "corrupt_wal_live",
    "corrupt_wal_tail",
    "checkpoint_crash",
)

# plans whose live run must end byte-identical to the replay ground truth
_EXACT_PLANS = frozenset(CHAOS_PLAN_KINDS) - {"poison_batch"}
# plans for which the post-run cold restart is checked too
_COLD_RESTART_PLANS = frozenset({
    "kill_pre_apply", "kill_post_apply", "drop_reply", "delay_reply",
    "corrupt_wal_tail", "checkpoint_crash",
})


@dataclass
class ChaosPlan:
    """One seeded fault plan: what fires, where, and when."""

    kind: str
    shard: int
    at_seq: int               # first commit seq at which the fault may fire
    corrupt_seq: int | None = None  # for corrupt_wal_live


@dataclass
class ChaosConfig:
    n: int = 48
    m: int = 160
    requests: int = 2500
    shards: int = 2
    seeds: int = 5
    seed0: int = 0
    plans: tuple[str, ...] = CHAOS_PLAN_KINDS
    processes: bool = False
    checkpoint_interval: int = 8
    max_batch: int = 24
    recv_deadline: float = 0.25
    backoff_base: float = 0.001
    query_prob: float = 0.1
    deep_verify: bool = False
    workdir: str | None = None     # None = fresh tempdir, removed after


@dataclass
class ChaosRunResult:
    """Outcome of one seeded run under one fault plan."""

    plan: ChaosPlan
    seed: int
    fired: int = 0                 # fault injections that actually happened
    commits: int = 0
    recoveries: int = 0
    restarts: int = 0
    quarantined: int = 0
    checkpoint_failures: int = 0
    wal_fallbacks: int = 0
    recovery_latency_s: float = 0.0
    wall_seconds: float = 0.0
    divergences: list[str] = field(default_factory=list)
    # net-campaign observations (``run_net_chaos_once``); zero elsewhere
    client_retries: int = 0
    reconnects: int = 0
    dedup_hits: int = 0
    hedged_reads: int = 0
    breaker_trips: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class ChaosReport:
    config: ChaosConfig
    runs: list[ChaosRunResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs)

    @property
    def divergence_count(self) -> int:
        return sum(len(r.divergences) for r in self.runs)

    def rows(self) -> list[dict]:
        """Per-plan aggregate table (the CLI's output)."""
        by_kind: dict[str, list[ChaosRunResult]] = {}
        for r in self.runs:
            by_kind.setdefault(r.plan.kind, []).append(r)
        rows = []
        for kind in sorted(by_kind):
            rs = by_kind[kind]
            n_rec = sum(r.recoveries for r in rs)
            lat = [r.recovery_latency_s / max(r.recoveries, 1)
                   for r in rs if r.recoveries]
            rows.append({
                "plan": kind,
                "runs": len(rs),
                "fired": sum(r.fired for r in rs),
                "recoveries": n_rec,
                "restarts": sum(r.restarts for r in rs),
                "quarantined": sum(r.quarantined for r in rs),
                "mean_recovery_ms": round(
                    1000 * sum(lat) / len(lat), 2) if lat else 0.0,
                "divergences": sum(len(r.divergences) for r in rs),
            })
        return rows

    def net_rows(self) -> list[dict]:
        """Per-plan aggregate table for the wire-fault campaign (RSL2)."""
        by_kind: dict[str, list[ChaosRunResult]] = {}
        for r in self.runs:
            by_kind.setdefault(r.plan.kind, []).append(r)
        rows = []
        for kind in sorted(by_kind):
            rs = by_kind[kind]
            rows.append({
                "plan": kind,
                "runs": len(rs),
                "fired": sum(r.fired for r in rs),
                "commits": sum(r.commits for r in rs),
                "retries": sum(r.client_retries for r in rs),
                "reconnects": sum(r.reconnects for r in rs),
                "dedup_hits": sum(r.dedup_hits for r in rs),
                "hedged_reads": sum(r.hedged_reads for r in rs),
                "breaker_trips": sum(r.breaker_trips for r in rs),
                "worker_restarts": sum(r.restarts for r in rs),
                "replica_rebuilds": sum(r.recoveries for r in rs),
                "divergences": sum(len(r.divergences) for r in rs),
            })
        return rows


class ChaosInjector(FaultInjector):
    """Executes one :class:`ChaosPlan` through the production hooks."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self.fired = 0
        self.restarts_seen = 0

    def _due(self, shard: int, seq: int | None) -> bool:
        return (shard == self.plan.shard and seq is not None
                and seq >= self.plan.at_seq and self.fired == 0)

    def on_apply(self, shard: int, when: str, seq: int | None):
        """Kill the target worker pre/post apply per the plan."""
        kind = self.plan.kind
        if kind == "kill_pre_apply" and when == "pre" \
                and self._due(shard, seq):
            self.fired += 1
            return "kill"
        if kind == "kill_post_apply" and when == "post" \
                and self._due(shard, seq):
            self.fired += 1
            return "kill"
        if kind == "corrupt_wal_live" and when == "pre" \
                and self._due(shard, seq):
            self.fired += 1
            return "kill"
        return None

    def _poison(self, shard: int, seq: int | None) -> bool:
        # latch onto the first eligible seq we ever see, then make every
        # attempt of that one batch fail — on_recv runs on retries too
        # (unlike on_apply), so the supervisor's crash-loop budget drains
        if shard != self.plan.shard or seq is None:
            return False
        latched = getattr(self, "_latched", None)
        if latched is None:
            if seq < self.plan.at_seq:
                return False
            self._latched = latched = seq
        return seq == latched

    def on_recv(self, shard: int, seq: int | None):
        """Drop or delay the target shard's reply per the plan."""
        if self.plan.kind == "poison_batch" and self._poison(shard, seq):
            self.fired += 1
            return "drop"
        if self.plan.kind == "drop_reply" and self._due(shard, seq):
            self.fired += 1
            return "drop"
        if self.plan.kind == "delay_reply" and self._due(shard, seq):
            self.fired += 1
            return ("delay", 0.3)
        return None

    def on_wal_record(self, seq: int, data: bytes) -> bytes:
        """Flip a payload byte of the plan's target WAL record."""
        if (self.plan.kind == "corrupt_wal_live"
                and seq == self.plan.corrupt_seq):
            # flip the final payload byte; the header (and its CRC) stay,
            # so the reader sees a checksum mismatch mid-log later
            return data[:-1] + bytes([data[-1] ^ 0xFF])
        return data

    def on_checkpoint(self, epoch: int) -> None:
        """Simulate a crash between checkpoint tmp-write and publish."""
        if self.plan.kind == "checkpoint_crash" and self.fired == 0:
            self.fired += 1
            raise CheckpointInterrupted(
                f"simulated crash publishing checkpoint epoch={epoch}"
            )

    def on_restart(self, shard: int, attempt: int) -> None:
        """Count worker restarts (observation only)."""
        self.restarts_seen += 1


def _make_plan(kind: str, rng: np.random.Generator,
               shards: int) -> ChaosPlan:
    at_seq = int(rng.integers(3, 9))
    plan = ChaosPlan(kind=kind, shard=int(rng.integers(0, shards)),
                     at_seq=at_seq)
    if kind == "corrupt_wal_live":
        plan.corrupt_seq = max(1, at_seq - 2)
    return plan


def run_chaos_once(cfg: ChaosConfig, plan: ChaosPlan, seed: int,
                   workdir: str | Path) -> ChaosRunResult:
    """One seeded service run under one fault plan (see module docstring)."""
    from repro.oracle.service import verify_service
    from repro.service.admission import AdmissionConfig
    from repro.service.batcher import BatcherConfig
    from repro.service.driver import SimClock
    from repro.service.engine import ServiceConfig, SpannerService
    from repro.service.shard import ShardedExecutor

    t0 = time.perf_counter()
    result = ChaosRunResult(plan=plan, seed=seed)
    rundir = Path(workdir) / f"{plan.kind}-{seed}"
    initial_edges, requests = request_stream(
        cfg.n, cfg.m, cfg.requests, seed=seed,
        query_prob=cfg.query_prob,
    )
    spec = {
        "kind": "spanner", "n": cfg.n, "edges": initial_edges,
        "seed": seed + 1000, "k": 2,
        "base_capacity": max(16, cfg.m // max(1, 4 * cfg.shards)),
    }
    injector = ChaosInjector(plan)
    supervision = SupervisionConfig(
        recv_deadline=cfg.recv_deadline,
        backoff_base=cfg.backoff_base,
        backoff_cap=max(0.02, cfg.backoff_base * 8),
    )
    # the tail-corruption plan damages the *last* WAL record post-run, so
    # its log must never be truncated away by a checkpoint mid-run
    interval = (10**9 if plan.kind == "corrupt_wal_tail"
                else cfg.checkpoint_interval)
    manager = RecoveryManager(
        ResilienceConfig(directory=rundir, checkpoint_interval=interval),
        injector=injector,
    )
    executor = ShardedExecutor(
        spec, cfg.shards, processes=cfg.processes,
        supervision=supervision, recovery=manager, injector=injector,
    )
    clock = SimClock()
    service = SpannerService(
        executor,
        config=ServiceConfig(
            batcher=BatcherConfig(max_batch=cfg.max_batch, max_delay=0.002),
            admission=AdmissionConfig(max_pending=100 * cfg.max_batch),
        ),
        clock=clock.now,
        recovery=manager,
    )
    committed: list[tuple[int, UpdateBatch]] = []
    service.commit_hooks.append(lambda s, b: committed.append((s, b)))

    for op, payload in requests:
        clock.advance(2e-5)
        service.pump()
        if op == "query":
            service.query("distance", payload)
        else:
            service.submit_update(op, *payload)
    service.flush()

    snap = service.metrics.snapshot()
    result.fired = injector.fired
    result.commits = len(committed)
    result.recoveries = snap.get("recoveries", 0)
    result.restarts = snap.get("shard_restarts", 0)
    result.quarantined = snap.get("quarantined_batches", 0)
    result.checkpoint_failures = snap.get("checkpoint_failures", 0)
    result.wal_fallbacks = snap.get("wal_fallbacks", 0)
    result.recovery_latency_s = (
        snap.get("recovery_latency_s.mean", 0.0)
        * snap.get("recovery_latency_s.count", 0)
    )

    def diverge(msg: str) -> None:
        result.divergences.append(f"{plan.kind} seed={seed}: {msg}")

    # ground truth: replaying the committed batch log from the initial graph
    truth = set(initial_edges)
    wl = Workload(cfg.n, list(initial_edges), [b for _, b in committed])
    try:
        for _, truth in wl.replay():
            pass
    except ValueError as exc:
        diverge(f"committed log is not sequentially legal: {exc}")

    if injector.fired == 0 and plan.kind != "corrupt_wal_tail":
        # corrupt_wal_tail injects nothing during the run: the damage is
        # done to the finished log below, before the cold restart
        diverge("fault plan never fired (plan/seed mismatch)")
    if plan.kind in _EXACT_PLANS:
        live = executor.graph_union()
        if live != truth:
            diverge(f"graph union != replay truth "
                    f"({len(live ^ truth)} edge(s) differ)")
        if service.graph_edges() != truth:
            diverge("coalescing-queue view != replay truth")
        verification = verify_service(service, executor,
                                      deep=cfg.deep_verify)
        if not verification.ok:
            diverge(f"oracle: {verification}")
        if plan.kind not in ("checkpoint_crash", "corrupt_wal_tail") \
                and result.recoveries == 0:
            diverge("no recovery was recorded despite an injected fault")
    else:  # poison_batch: liveness + quarantine, not equivalence
        if result.quarantined == 0:
            diverge("poison batch was never quarantined")
        if not executor.quarantined:
            diverge("executor kept no quarantine record")
        # the engine must still be serving: a fresh gather answers
        if not isinstance(executor.gather_edges(), set):
            diverge("gather failed after quarantine")  # pragma: no cover
    if plan.kind == "checkpoint_crash" and result.checkpoint_failures == 0:
        diverge("mid-checkpoint crash never happened")
    if plan.kind == "corrupt_wal_live" and result.wal_fallbacks == 0 \
            and result.recoveries > 0:
        diverge("corrupt WAL never forced the in-memory fallback")

    # crash-style shutdown: no final flush/checkpoint, workers just die
    executor.close()
    manager.close()

    if plan.kind in _COLD_RESTART_PLANS and result.ok:
        expected = truth
        if plan.kind == "corrupt_wal_tail" and committed:
            last_seq = committed[-1][0]
            if not corrupt_record(manager.wal_path, last_seq):
                diverge(f"could not corrupt WAL record seq={last_seq}")
            # the damaged tail record must be dropped: expected state is
            # the replay of every committed batch but the last
            expected = set(initial_edges)
            prefix = Workload(cfg.n, list(initial_edges),
                              [b for _, b in committed[:-1]])
            for _, expected in prefix.replay():
                pass
        manager2 = RecoveryManager(ResilienceConfig(directory=rundir))
        try:
            ex2, _last = bootstrap_executor(
                spec, cfg.shards, manager2, processes=False,
                supervision=supervision,
            )
            rebuilt = ex2.graph_union()
            if rebuilt != expected:
                diverge(f"cold restart diverged "
                        f"({len(rebuilt ^ expected)} edge(s) differ)")
            ex2.close()
        finally:
            manager2.close()

    result.wall_seconds = time.perf_counter() - t0
    return result


def run_chaos_campaign(cfg: ChaosConfig, log=None) -> ChaosReport:
    """Sweep every configured plan × seed; returns the full report."""
    t0 = time.perf_counter()
    report = ChaosReport(config=cfg)
    workdir = cfg.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    cleanup = cfg.workdir is None
    try:
        for kind in cfg.plans:
            for s in range(cfg.seeds):
                seed = cfg.seed0 + s
                # NB: not hash() — PYTHONHASHSEED would break determinism
                kind_salt = sum(kind.encode()) % 1000
                rng = np.random.default_rng(seed * 7919 + kind_salt)
                plan = _make_plan(kind, rng, cfg.shards)
                run = run_chaos_once(cfg, plan, seed, workdir)
                report.runs.append(run)
                if log is not None:
                    status = "ok" if run.ok else "DIVERGED"
                    log(f"{kind} seed={seed} shard={plan.shard} "
                        f"at_seq={plan.at_seq}: {status} "
                        f"(fired={run.fired}, recoveries={run.recoveries})")
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
    report.wall_seconds = time.perf_counter() - t0
    return report


# -- replica fault plans ------------------------------------------------------

#: Log-shipping replica fault catalogue (``python -m repro.cli chaos
#: --replica``):
#:
#: ``replica_crash_catchup``  a replica dies partway through catch-up; a
#:                            freshly bootstrapped replacement replaying
#:                            the shipped log from byte 0 must converge to
#:                            the primary's *exact* state
#: ``replica_lag``            the replica's poll loop is suspended while
#:                            the primary keeps committing — the lag gauge
#:                            must rise and every read must carry the
#:                            ``stale`` tag until catch-up clears both
REPLICA_PLAN_KINDS = ("replica_crash_catchup", "replica_lag")

NET_PLAN_KINDS = (
    "net_partition",    # black-hole the client link; timed heal
    "net_latency",      # per-chunk delay window; hedged reads kick in
    "net_torn_frame",   # cut frames mid-length on client + replica links
    "net_reset",        # hard RST storms on client and replica links
    "net_worker_kill",  # SIGKILL a pool worker mid-dispatch under traffic
)


class _LocalShippingClient:
    """Duck-typed stand-in for :class:`repro.net.client.NetClient`.

    Serves ``sync`` / ``wal_fetch`` straight from a primary tenant in this
    process — no sockets — so replica chaos plans are deterministic and
    exercise exactly the shipping semantics (chunking, torn mid-record
    fetches, cursors), not TCP.
    """

    def __init__(self, tenant) -> None:
        self._tenant = tenant

    def sync_info(self) -> dict:
        return self._tenant.sync_info()

    def wal_fetch(self, offset: int,
                  max_bytes: int = 1 << 20) -> tuple[bytes, int, int]:
        log = self._tenant.replication
        return log.read(offset, max_bytes), log.size, log.last_seq

    def close(self) -> None:
        pass


def run_replica_chaos_once(cfg: ChaosConfig, kind: str,
                           seed: int) -> ChaosRunResult:
    """One seeded log-shipping run under one replica fault plan."""
    from repro.net.replica import LogShippingReplica, ReplicaConfig
    from repro.net.tenants import TenantConfig, TenantManager
    from repro.oracle.service import verify_replica

    t0 = time.perf_counter()
    kind_salt = sum(kind.encode()) % 1000
    rng = np.random.default_rng(seed * 7919 + kind_salt)
    plan = ChaosPlan(kind=kind, shard=0, at_seq=int(rng.integers(3, 9)))
    result = ChaosRunResult(plan=plan, seed=seed)
    initial_edges, requests = request_stream(
        cfg.n, cfg.m, cfg.requests, seed=seed, query_prob=0.0,
    )
    spec = {"kind": "spanner", "n": cfg.n, "edges": initial_edges,
            "seed": seed + 1000, "k": 2}
    committed: list[tuple[int, UpdateBatch]] = []
    # tiny seeded fetch chunks tear records mid-boundary on purpose: the
    # stream decoder must reassemble them exactly like a torn WAL tail
    chunk = int(rng.integers(8, 96))

    def diverge(msg: str) -> None:
        result.divergences.append(f"{kind} seed={seed}: {msg}")

    def make_replica(primary_tenant) -> LogShippingReplica:
        return LogShippingReplica(
            _LocalShippingClient(primary_tenant),
            ReplicaConfig(chunk_bytes=chunk),
        )

    with TenantManager() as tenants:
        tenant = tenants.create(TenantConfig(
            name="default", spec=spec, shards=cfg.shards, autostart=False,
        ))
        service = tenant.service
        service.commit_hooks.append(lambda s, b: committed.append((s, b)))
        half = len(requests) // 2
        for op, (u, v) in requests[:half]:
            service.submit_update(op, u, v)
        service.flush()

        replica = make_replica(tenant)
        if kind == "replica_crash_catchup":
            partial = int(rng.integers(1, 6))
            replica.catch_up(max_records=partial)
            result.fired = 1
            # crash mid-catch-up: the half-caught-up replica is gone; a
            # replacement bootstraps fresh and replays the log from byte 0
            replica.close()
            replica = make_replica(tenant)
            result.recoveries = 1

        for op, (u, v) in requests[half:]:
            service.submit_update(op, u, v)
        service.flush()

        if kind == "replica_lag":
            # the poll loop was suspended this whole window; the replica
            # must know it is behind and say so on every read
            replica.note_primary_seq(service.committed_seq)
            result.fired = 1
            if replica.lag <= 0:
                diverge("no lag observed during the suspended poll window")
            gauge = replica.service.metrics.gauge(
                "replica_lag_commits").value
            if gauge <= 0:
                diverge("replica_lag_commits gauge was not raised")
            info = replica.service.query_info("size")
            if not info.stale:
                diverge("lagging replica served a read without the "
                        "stale tag")

        replica.catch_up()
        result.commits = len(committed)
        if replica.lag != 0:
            diverge(f"lag is {replica.lag} after full catch-up")
        info = replica.service.query_info("size")
        if info.stale:
            diverge("caught-up replica still tags reads stale")

        truth = set(initial_edges)
        wl = Workload(cfg.n, list(initial_edges), [b for _, b in committed])
        try:
            for _, truth in wl.replay():
                pass
        except ValueError as exc:
            diverge(f"committed log is not sequentially legal: {exc}")
        if replica.service.graph_edges() != truth:
            diverge("replica graph view != replay ground truth")
        verification = verify_replica(service, replica.service)
        if not verification.ok:
            diverge(f"oracle: {verification}")
        replica.close()

    result.wall_seconds = time.perf_counter() - t0
    return result


def run_replica_chaos_campaign(cfg: ChaosConfig, log=None) -> ChaosReport:
    """Sweep the replica fault plans × seeds (``cli chaos --replica``)."""
    t0 = time.perf_counter()
    report = ChaosReport(config=cfg)
    kinds = tuple(p for p in cfg.plans if p in REPLICA_PLAN_KINDS) \
        or REPLICA_PLAN_KINDS
    for kind in kinds:
        for s in range(cfg.seeds):
            seed = cfg.seed0 + s
            run = run_replica_chaos_once(cfg, kind, seed)
            report.runs.append(run)
            if log is not None:
                status = "ok" if run.ok else "DIVERGED"
                log(f"{kind} seed={seed}: {status} "
                    f"(commits={run.commits}, "
                    f"recoveries={run.recoveries})")
    report.wall_seconds = time.perf_counter() - t0
    return report


def _net_pool_kernel(payload, shared, cost=None):
    """Side-computation kernel for the worker-kill plan.

    Module-level so the dispatch pickle can find it in forked workers;
    deliberately slow enough (``sleep_s``) that a SIGKILL reliably lands
    mid-dispatch.
    """
    time.sleep(payload["sleep_s"])
    return sorted(x * x for x in payload["items"])


def _kill_quietly(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _pool_kill_exercise(rng: np.random.Generator, result: ChaosRunResult,
                        diverge) -> None:
    """SIGKILL one pool worker mid-dispatch; supervision must requeue the
    lost task, fork a replacement, and return byte-identical results."""
    from repro.parallel.pool import ProcessPoolBackend

    pool = ProcessPoolBackend(
        2, supervision=SupervisionConfig(backoff_base=0.01))
    try:
        chunks = [{"items": list(range(8 * c, 8 * c + 8)), "sleep_s": 0.02}
                  for c in range(8)]
        expect = [sorted(x * x for x in ch["items"]) for ch in chunks]
        victim = pool._procs[int(rng.integers(0, pool.workers))]
        timer = threading.Timer(float(rng.uniform(0.02, 0.06)),
                                _kill_quietly, args=(victim.pid,))
        timer.start()
        for rnd in range(2):
            vals = [r.value
                    for r in pool.map_chunks(_net_pool_kernel, chunks)]
            if vals != expect:
                diverge(f"pool round {rnd} diverged after worker kill")
        timer.join()
        vals = [r.value for r in pool.map_chunks(_net_pool_kernel, chunks)]
        if vals != expect:
            diverge("pool post-kill round diverged")
        if pool.worker_restarts_total < 1:
            diverge("worker kill produced no supervised restart")
        result.restarts += pool.worker_restarts_total
    finally:
        pool.close()


def run_net_chaos_once(cfg: ChaosConfig, kind: str,
                       seed: int) -> ChaosRunResult:
    """One seeded client/server/replica run under one wire-fault plan.

    Topology: a real :class:`~repro.net.server.ThreadedServer` primary, a
    :class:`~repro.net.faultproxy.FaultProxy` on the client link (and a
    second one on the replica link for the torn/reset plans), a
    :class:`~repro.net.resilient.ResilientClient` issuing a seeded toggle
    workload through the proxy, and a log-shipping replica.

    The client tracks the *expected* edge set from its own acked submits;
    at the end the full replication log is fetched from byte 0, replayed
    through :class:`~repro.workloads.streams.Workload` (which raises on
    any sequentially-illegal — i.e. double- or lost-applied — op), and
    the replay ground truth must equal the client's expectation, the
    primary's live edge set, and the replica's state.
    """
    from repro.net.client import NetClient
    from repro.net.faultproxy import FaultProxy
    from repro.net.replica import LogShippingReplica, ReplicaConfig
    from repro.net.resilient import ResilientClient, RetryPolicy
    from repro.net.server import NetServerConfig, ThreadedServer
    from repro.net.tenants import TenantConfig, TenantManager
    from repro.oracle.service import verify_replica
    from repro.resilience.wal import WalStreamDecoder
    from repro.service.admission import AdmissionConfig
    from repro.service.batcher import BatcherConfig

    t0 = time.perf_counter()
    kind_salt = sum(kind.encode()) % 1000
    rng = np.random.default_rng(seed * 7919 + kind_salt)
    n_req = cfg.requests
    plan = ChaosPlan(kind=kind, shard=0,
                     at_seq=int(rng.integers(3, 9)))
    result = ChaosRunResult(plan=plan, seed=seed)

    def diverge(msg: str) -> None:
        result.divergences.append(f"{kind} seed={seed}: {msg}")

    initial_edges, _ = request_stream(cfg.n, cfg.m, 1, seed=seed,
                                      query_prob=0.0)
    spec = {"kind": "spanner", "n": cfg.n, "edges": initial_edges,
            "seed": seed + 1000, "k": 2}
    universe = [(a, b) for a in range(cfg.n) for b in range(a + 1, cfg.n)]
    expected: set[tuple[int, int]] = {tuple(e) for e in initial_edges}

    # all seeded draws happen up front so the schedule never depends on
    # runtime interleaving
    fire_at = sorted(int(x) for x in rng.integers(
        max(2, n_req // 5), max(3, 4 * n_req // 5), size=3))
    for i in range(1, 3):               # force distinct, ordered indices
        if fire_at[i] <= fire_at[i - 1]:
            fire_at[i] = fire_at[i - 1] + 3
    heal_delay = float(rng.uniform(0.25, 0.5))
    latency_s = float(rng.uniform(0.025, 0.04))
    latency_end = fire_at[0] + int(rng.integers(25, 45))
    flush_every = int(rng.integers(16, 48))
    read_every = 10
    rep_chunk = int(rng.integers(96, 512))

    replicated = kind in ("net_partition", "net_latency")
    proxied_replica = kind in ("net_torn_frame", "net_reset")
    policy = RetryPolicy(
        deadline_s=20.0, attempt_timeout_s=0.5,
        backoff_base_s=0.01, backoff_cap_s=0.25,
        breaker_threshold=3, breaker_reset_s=0.1,
        hedge_after_s=(0.02 if kind == "net_latency" else None),
        seed=seed * 7919 + kind_salt,
    )

    with TenantManager() as tenants:
        tenant = tenants.create(TenantConfig(
            name="default", spec=spec, shards=cfg.shards,
            batcher=BatcherConfig(max_batch=cfg.max_batch, max_delay=0.002),
            admission=AdmissionConfig(max_pending=100 * cfg.max_batch),
            autostart=False,
        ))
        with ThreadedServer(tenants, NetServerConfig()) as srv, \
                FaultProxy(srv.host, srv.port) as proxy, \
                FaultProxy(srv.host, srv.port) as rproxy:
            rep_host, rep_port = ((rproxy.host, rproxy.port)
                                  if proxied_replica
                                  else (srv.host, srv.port))

            def make_replica() -> LogShippingReplica:
                return LogShippingReplica(
                    NetClient(rep_host, rep_port),
                    ReplicaConfig(chunk_bytes=rep_chunk),
                )

            replica = make_replica()
            rsrv = (ThreadedServer(replica.tenants,
                                   NetServerConfig(read_only=True)).start()
                    if replicated else None)

            def rebuild_replica() -> None:
                nonlocal replica
                replica.close()
                replica = make_replica()
                result.recoveries += 1

            def sync_replica() -> None:
                try:
                    replica.catch_up()
                except Exception:
                    rebuild_replica()
                    replica.catch_up()

            client = ResilientClient(
                proxy.host, proxy.port,
                replicas=([(rsrv.host, rsrv.port)] if rsrv else ()),
                policy=policy,
                client_id=f"chaos-{kind}-{seed}",
            )
            heal_timer: threading.Timer | None = None
            try:
                for i in range(n_req):
                    if kind == "net_partition" and i == fire_at[0]:
                        proxy.partition()
                        result.fired += 1
                        heal_timer = threading.Timer(heal_delay, proxy.heal)
                        heal_timer.start()
                    elif kind == "net_latency":
                        if i == fire_at[0]:
                            proxy.set_latency(latency_s)
                            result.fired += 1
                        elif i == latency_end:
                            proxy.set_latency(0.0)
                    elif kind == "net_torn_frame":
                        if i == fire_at[0]:
                            # tear the next ACK: the op commits but the
                            # client never hears — the retry must dedup
                            proxy.tear_next("s2c")
                            result.fired += 1
                        elif i == fire_at[1]:
                            proxy.tear_next("c2s", rst=True)
                            result.fired += 1
                        elif i == fire_at[2]:
                            rproxy.tear_next("s2c")
                            result.fired += 1
                    elif kind == "net_reset":
                        if i in (fire_at[0], fire_at[1]):
                            proxy.reset_all()
                            result.fired += 1
                        elif i == fire_at[2]:
                            rproxy.reset_all()
                            result.fired += 1
                    elif kind == "net_worker_kill" and i == fire_at[0]:
                        result.fired += 1
                        _pool_kill_exercise(rng, result, diverge)

                    a, b = universe[int(rng.integers(len(universe)))]
                    op = "delete" if (a, b) in expected else "insert"
                    info = client.submit_info(op, a, b)
                    status = info.get("status")
                    if status not in ("accepted", "coalesced_dedup",
                                      "coalesced_cancel"):
                        diverge(f"unexpected submit outcome {status!r} "
                                f"for {op} ({a}, {b})")
                    expected.symmetric_difference_update({(a, b)})
                    if (i + 1) % flush_every == 0:
                        client.flush()
                        sync_replica()
                    if (i + 1) % read_every == 0:
                        client.query_info("size")
            except Exception as exc:      # noqa: BLE001 - recorded verbatim
                diverge(f"workload died at request {i}: {exc!r}")
            finally:
                if heal_timer is not None:
                    heal_timer.cancel()
                proxy.clear_faults()
                proxy.heal()
                rproxy.clear_faults()
                rproxy.heal()

            # settle over healed links, then verify everything against the
            # shipped log
            try:
                client.flush()
                sync_replica()
            except Exception as exc:      # noqa: BLE001
                diverge(f"post-fault settle failed: {exc!r}")

            direct = NetClient(srv.host, srv.port)
            decoder = WalStreamDecoder()
            records = []
            while True:
                chunk, _log_size, _last = direct.wal_fetch(
                    decoder.offset + decoder.pending_bytes, 1 << 16)
                if not chunk:
                    break
                records.extend(decoder.feed(chunk))
            result.commits = len(records)
            truth = {tuple(e) for e in initial_edges}
            wl = Workload(cfg.n, [tuple(e) for e in initial_edges],
                          [r.batch for r in records])
            try:
                for _, truth in wl.replay():
                    pass
            except ValueError as exc:
                diverge("shipped log is not sequentially legal "
                        f"(double/lost apply): {exc}")
            if truth != expected:
                diverge("log-replay truth != acked-client expectation "
                        f"({len(truth ^ expected)} edge(s) differ)")
            live = direct.edges()
            if live != truth:
                diverge(f"primary live edges != log replay "
                        f"({len(live ^ truth)} differ)")
            if replica.service.graph_edges() != truth:
                diverge("replica state != log replay")
            verification = verify_replica(tenant.service, replica.service)
            if not verification.ok:
                diverge(f"oracle: {verification}")
            direct.close()

            # plan-specific liveness assertions: the fault must actually
            # have exercised the resilience path it targets
            if kind == "net_torn_frame" and tenant.idempotency.dedup_hits < 1:
                diverge("torn ACK was not absorbed by idempotency dedup")
            if kind == "net_partition" and client.retries < 1:
                diverge("partition produced no client retries")
            if kind == "net_reset" and client.reconnects < 1:
                diverge("resets produced no client reconnects")
            if kind == "net_latency" and client.hedged < 1:
                diverge("latency window produced no hedged reads")

            result.client_retries = client.retries
            result.reconnects = client.reconnects
            result.dedup_hits = tenant.idempotency.dedup_hits
            result.hedged_reads = client.hedged
            result.breaker_trips = client.breaker_trips
            client.close()
            if rsrv is not None:
                rsrv.stop()
            replica.close()

    result.wall_seconds = time.perf_counter() - t0
    return result


def run_net_chaos_campaign(cfg: ChaosConfig, log=None) -> ChaosReport:
    """Sweep the wire-fault plans × seeds (``cli chaos --net``)."""
    t0 = time.perf_counter()
    report = ChaosReport(config=cfg)
    kinds = tuple(p for p in cfg.plans if p in NET_PLAN_KINDS) \
        or NET_PLAN_KINDS
    for kind in kinds:
        for s in range(cfg.seeds):
            seed = cfg.seed0 + s
            run = run_net_chaos_once(cfg, kind, seed)
            report.runs.append(run)
            if log is not None:
                status = "ok" if run.ok else "DIVERGED"
                log(f"{kind} seed={seed}: {status} "
                    f"(commits={run.commits}, retries={run.client_retries}, "
                    f"dedup={run.dedup_hits})")
    report.wall_seconds = time.perf_counter() - t0
    return report


def recovery_latency_sweep(
    cfg: ChaosConfig, intervals=(4, 16, 64), runs: int = 3
) -> list[dict]:
    """RSL1: mean shard-recovery latency vs checkpoint interval.

    Longer intervals mean longer WAL tails to replay on restart, so
    recovery latency should grow with the interval — the table quantifies
    the durability-overhead/recovery-time trade.
    """
    rows = []
    for interval in intervals:
        sub = ChaosConfig(
            **{**cfg.__dict__, "checkpoint_interval": interval,
               "plans": ("kill_pre_apply",), "seeds": runs},
        )
        report = run_chaos_campaign(sub)
        recs = sum(r.recoveries for r in report.runs)
        lat = sum(r.recovery_latency_s for r in report.runs)
        rows.append({
            "checkpoint_interval": interval,
            "runs": len(report.runs),
            "recoveries": recs,
            "mean_recovery_ms": round(1000 * lat / recs, 2) if recs else 0.0,
            "divergences": report.divergence_count,
        })
    return rows
