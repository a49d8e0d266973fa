"""Deterministic chaos harness: one catalogue of seeded fault plans.

Every plan belongs to one *family*, and each family has one runner: it
builds the family's topology, injects the plan's faults through the
production hooks (:mod:`repro.resilience.faults`, the in-process
:class:`~repro.net.faultproxy.FaultProxy`), and hands the states it
observed to one shared replay verifier.  The committed batch log,
replayed from the initial graph through ``Workload.replay`` (which raises
on any lost or double apply), must equal every observed view, and the
differential oracle (:mod:`repro.oracle.service`) must agree.  Plans,
seeds and batch boundaries are all deterministic, so a failing run is a
reproducer, not an anecdote — the discipline arXiv:2506.16477 applies to
dynamic trees under adversarial batch schedules.

Catalogue (``FAMILIES``; plan names are unique across families):

**service** — queue → batcher → supervised shards → WAL/checkpoints;
views: shard graph union, executor membership, cold-restart state.

``kill_pre_apply``    worker killed just before applying its sub-batch
``kill_post_apply``   worker killed right after applying
``drop_reply``        the shard's reply is lost; the deadline must fire
``delay_reply``       the worker hangs in its update past the deadline and
                      is killed, rebuilt, and retried (always on worker
                      processes: in-process nothing preempts a blocked call)
``poison_batch``      every attempt of one batch crashes — must quarantine
``corrupt_wal_live``  a WAL record is damaged, then a worker killed —
                      recovery must fall back to the in-memory history
``corrupt_wal_tail``  the last WAL record is damaged before a cold restart
``checkpoint_crash``  crash between writing and publishing a checkpoint

**replica** — an in-process log-shipping replica fetching in tiny seeded
chunks, so records tear at chunk boundaries; view: the replica's graph.

``replica_crash_catchup``  the replica dies mid-catch-up; a fresh one
                           replays the shipped log from byte 0
``replica_lag``            polling suspended while the primary commits:
                           lag gauge up, every read tagged ``stale``

**net** — a TCP primary, a read replica, and a retrying client behind
fault-proxy links; views: the client's acked expectation, the primary's
live edges, the replica's graph, all against the shipped log.

``net_partition``    black-hole the client link; timed heal
``net_latency``      per-chunk delay window; hedged reads kick in
``net_torn_frame``   cut frames mid-length on client + replica links
``net_reset``        hard RST storms on client and replica links
``net_worker_kill``  SIGKILL a pool worker mid-dispatch under traffic

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
    "CATALOGUE",
    "FAMILIES",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosPlan",
    "ChaosReport",
    "ChaosRunResult",
    "recovery_latency_sweep",
    "resolve_plans",
    "run_campaign",
    "run_plan",
]

#: family name → its plan names, in catalogue order
FAMILIES: dict[str, tuple[str, ...]] = {
    "service": (
        "kill_pre_apply",
        "kill_post_apply",
        "drop_reply",
        "delay_reply",
        "poison_batch",
        "corrupt_wal_live",
        "corrupt_wal_tail",
        "checkpoint_crash",
    ),
    "replica": ("replica_crash_catchup", "replica_lag"),
    "net": (
        "net_partition",
        "net_latency",
        "net_torn_frame",
        "net_reset",
        "net_worker_kill",
    ),
}
#: plan name → family name
CATALOGUE: dict[str, str] = {
    kind: family for family, kinds in FAMILIES.items() for kind in kinds
}

# service plans for which the post-run cold restart is checked too
_COLD_RESTART_PLANS = frozenset({
    "kill_pre_apply", "kill_post_apply", "drop_reply", "delay_reply",
    "corrupt_wal_tail", "checkpoint_crash",
})


def resolve_plans(names) -> tuple[str, ...]:
    """Expand family names to their plans, keeping plan names as given.

    Raises ValueError, naming the whole catalogue, on an unknown name.
    """
    out: list[str] = []
    for name in names:
        if name in FAMILIES:
            out.extend(FAMILIES[name])
        elif name in CATALOGUE:
            out.append(name)
        else:
            raise ValueError(
                f"unknown plan {name!r}; choose from families "
                f"{list(FAMILIES)} or plans {list(CATALOGUE)}")
    return tuple(dict.fromkeys(out))


@dataclass
class ChaosPlan:
    """One seeded fault plan: what fires, where, and when."""

    kind: str
    shard: int
    at_seq: int               # first commit seq at which the fault may fire
    corrupt_seq: int | None = None  # for corrupt_wal_live
    # the plan's generator, past the draws above; the replica and net
    # runners keep drawing their schedules from it
    rng: np.random.Generator | None = field(
        default=None, repr=False, compare=False)


@dataclass
class ChaosConfig:
    n: int = 48
    m: int = 160
    requests: int = 2500
    shards: int = 2
    seeds: int = 5
    seed0: int = 0
    plans: tuple[str, ...] = tuple(CATALOGUE)   # plan or family names
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
    """Outcome of one seeded run under one fault plan.

    For net plans ``recoveries`` counts replica rebuilds and ``restarts``
    pool-worker restarts; the client-side counters are zero elsewhere.
    """

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
    client_retries: int = 0
    reconnects: int = 0
    dedup_hits: int = 0
    hedged_reads: int = 0
    breaker_trips: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def diverge(self, msg: str) -> None:
        """Record one divergence, tagged with the plan and seed."""
        self.divergences.append(f"{self.plan.kind} seed={self.seed}: {msg}")


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
        """Per-plan aggregate table over every family (the CLI's output)."""
        by_kind: dict[str, list[ChaosRunResult]] = {}
        for r in self.runs:
            by_kind.setdefault(r.plan.kind, []).append(r)
        rows = []
        for kind in sorted(by_kind):
            rs = by_kind[kind]

            def total(attr: str) -> int:
                return sum(getattr(r, attr) for r in rs)

            lat = [r.recovery_latency_s / r.recoveries
                   for r in rs if r.recoveries]
            rows.append({
                "plan": kind,
                "runs": len(rs),
                "fired": total("fired"),
                "commits": total("commits"),
                "recoveries": total("recoveries"),
                "restarts": total("restarts"),
                "quarantined": total("quarantined"),
                "mean_recovery_ms": round(
                    1000 * sum(lat) / len(lat), 2) if lat else 0.0,
                "retries": total("client_retries"),
                "reconnects": total("reconnects"),
                "dedup_hits": total("dedup_hits"),
                "hedged_reads": total("hedged_reads"),
                "breaker_trips": total("breaker_trips"),
                "divergences": sum(len(r.divergences) for r in rs),
            })
        return rows


# (plan kind, apply phase) → the action :meth:`ChaosInjector.on_apply` takes
_APPLY_FAULTS = {
    ("kill_pre_apply", "pre"): "kill",
    ("kill_post_apply", "post"): "kill",
    ("corrupt_wal_live", "pre"): "kill",
    ("delay_reply", "pre"): "stall",
}


class ChaosInjector(FaultInjector):
    """Executes one service :class:`ChaosPlan` through the production hooks.

    ``stall_s`` is how long a ``delay_reply`` worker blocks in its update;
    it must exceed the supervisor's reply deadline.
    """

    def __init__(self, plan: ChaosPlan, stall_s: float) -> None:
        self.plan = plan
        self.stall_s = stall_s
        self.fired = 0

    def _due(self, shard: int, seq: int | None) -> bool:
        return (shard == self.plan.shard and seq is not None
                and seq >= self.plan.at_seq and self.fired == 0)

    def on_apply(self, shard: int, when: str, seq: int | None):
        """Kill or stall the target worker pre/post apply per the plan."""
        action = _APPLY_FAULTS.get((self.plan.kind, when))
        if action is None or not self._due(shard, seq):
            return None
        self.fired += 1
        return ("stall", self.stall_s) if action == "stall" else action

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
        """Drop the target shard's reply per the plan."""
        if self.plan.kind == "poison_batch" and self._poison(shard, seq):
            self.fired += 1
            return "drop"
        if self.plan.kind == "drop_reply" and self._due(shard, seq):
            self.fired += 1
            return "drop"
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


def _plan_seed(kind: str, seed: int) -> int:
    # NB: not hash() — PYTHONHASHSEED would break determinism
    return seed * 7919 + sum(kind.encode()) % 1000


def _draw_plan(kind: str, seed: int, shards: int) -> ChaosPlan:
    """The seeded plan for one (kind, seed) run; service plans also draw
    their target shard, the others always target shard 0."""
    rng = np.random.default_rng(_plan_seed(kind, seed))
    at_seq = int(rng.integers(3, 9))
    shard = int(rng.integers(0, shards)) if CATALOGUE[kind] == "service" \
        else 0
    return ChaosPlan(
        kind=kind, shard=shard, at_seq=at_seq,
        corrupt_seq=(max(1, at_seq - 2) if kind == "corrupt_wal_live"
                     else None),
        rng=rng,
    )


def _verify(result: ChaosRunResult, n: int, initial_edges, batches,
            views: dict[str, set], oracle=None) -> None:
    """The replay check every run ends with.

    Replays ``batches`` from ``initial_edges`` through ``Workload.replay``
    (which raises on an op that is illegal in sequence: a lost or double
    apply); every observed view must then equal the replayed truth, and
    the oracle's verification, when given, must pass.
    """
    initial = [tuple(e) for e in initial_edges]
    truth = set(initial)
    try:
        for _, truth in Workload(n, initial, list(batches)).replay():
            pass
    except ValueError as exc:
        result.diverge("committed log is not sequentially legal "
                       f"(lost or double apply): {exc}")
    for name, got in views.items():
        if got != truth:
            result.diverge(f"{name} != replay truth "
                           f"({len(got ^ truth)} edge(s) differ)")
    if oracle is not None and not oracle.ok:
        result.diverge(f"oracle: {oracle}")


# -- service family -----------------------------------------------------------


def _run_service(cfg: ChaosConfig, plan: ChaosPlan, seed: int,
                 result: ChaosRunResult, workdir: str | Path) -> None:
    """The engine under one service plan, then a cold restart."""
    from repro.oracle.service import verify_service
    from repro.service.admission import AdmissionConfig
    from repro.service.batcher import BatcherConfig
    from repro.service.driver import SimClock
    from repro.service.engine import ServiceConfig, SpannerService
    from repro.service.shard import ShardedExecutor

    # a fresh directory per run: never boot on an earlier run's WAL
    Path(workdir).mkdir(parents=True, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{plan.kind}-{seed}-", dir=workdir)
    initial_edges, requests = request_stream(
        cfg.n, cfg.m, cfg.requests, seed=seed,
        query_prob=cfg.query_prob,
    )
    spec = {
        "kind": "spanner", "n": cfg.n, "edges": initial_edges,
        "seed": seed + 1000, "k": 2,
        "base_capacity": max(16, cfg.m // max(1, 4 * cfg.shards)),
    }
    injector = ChaosInjector(plan, stall_s=4 * cfg.recv_deadline)
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
        spec, cfg.shards,
        processes=cfg.processes or plan.kind == "delay_reply",
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

    batches = [b for _, b in committed]
    # poison_batch checks liveness + quarantine, not equivalence
    exact = plan.kind != "poison_batch"
    _verify(result, cfg.n, initial_edges, batches,
            {"graph union": executor.graph_union(),
             "executor membership": service.graph_edges()}
            if exact else {},
            verify_service(service, executor, deep=cfg.deep_verify)
            if exact else None)
    if injector.fired == 0 and plan.kind != "corrupt_wal_tail":
        # corrupt_wal_tail injects nothing during the run: the damage is
        # done to the finished log below, before the cold restart
        result.diverge("fault plan never fired (plan/seed mismatch)")
    if exact:
        if plan.kind not in ("checkpoint_crash", "corrupt_wal_tail") \
                and result.recoveries == 0:
            result.diverge("no recovery was recorded despite an injected "
                           "fault")
    else:
        if result.quarantined == 0:
            result.diverge("poison batch was never quarantined")
        if not executor.quarantined:
            result.diverge("executor kept no quarantine record")
        # the engine must still be serving: a fresh gather answers
        if not isinstance(executor.gather_edges(), set):
            result.diverge("gather failed after quarantine")  # pragma: no cover
    if plan.kind == "checkpoint_crash" and result.checkpoint_failures == 0:
        result.diverge("mid-checkpoint crash never happened")
    if plan.kind == "corrupt_wal_live" and result.wal_fallbacks == 0 \
            and result.recoveries > 0:
        result.diverge("corrupt WAL never forced the in-memory fallback")

    # crash-style shutdown: no final flush/checkpoint, workers just die
    executor.close()
    manager.close()

    if plan.kind not in _COLD_RESTART_PLANS or not result.ok:
        return
    if plan.kind == "corrupt_wal_tail" and committed:
        last_seq = committed[-1][0]
        if not corrupt_record(manager.wal_path, last_seq):
            result.diverge(f"could not corrupt WAL record seq={last_seq}")
        # the damaged tail record must be dropped: the expected state is
        # the replay of every committed batch but the last
        batches = batches[:-1]
    manager2 = RecoveryManager(ResilienceConfig(directory=rundir))
    try:
        ex2, _last = bootstrap_executor(
            spec, cfg.shards, manager2, processes=False,
            supervision=supervision,
        )
        _verify(result, cfg.n, initial_edges, batches,
                {"cold restart": ex2.graph_union(),
                 "cold-restart membership": ex2.edges})
        ex2.close()
    finally:
        manager2.close()


# -- replica family -----------------------------------------------------------


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


def _run_replica(cfg: ChaosConfig, plan: ChaosPlan, seed: int,
                 result: ChaosRunResult, workdir: str | Path) -> None:
    """A log-shipping replica of an in-process primary under one plan."""
    from repro.net.replica import LogShippingReplica, ReplicaConfig
    from repro.net.tenants import TenantConfig, TenantManager
    from repro.oracle.service import verify_replica

    rng = plan.rng
    initial_edges, requests = request_stream(
        cfg.n, cfg.m, cfg.requests, seed=seed, query_prob=0.0,
    )
    spec = {"kind": "spanner", "n": cfg.n, "edges": initial_edges,
            "seed": seed + 1000, "k": 2}
    committed: list[tuple[int, UpdateBatch]] = []
    # tiny seeded fetch chunks tear records mid-boundary on purpose: the
    # stream decoder must reassemble them exactly like a torn WAL tail
    chunk = int(rng.integers(8, 96))

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
        if plan.kind == "replica_crash_catchup":
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

        if plan.kind == "replica_lag":
            # the poll loop was suspended this whole window; the replica
            # must know it is behind and say so on every read
            replica.note_primary_seq(service.committed_seq)
            result.fired = 1
            if replica.lag <= 0:
                result.diverge("no lag observed during the suspended poll "
                               "window")
            gauge = replica.service.metrics.gauge(
                "replica_lag_commits").value
            if gauge <= 0:
                result.diverge("replica_lag_commits gauge was not raised")
            if not replica.service.query_info("size").stale:
                result.diverge("lagging replica served a read without "
                               "the stale tag")

        replica.catch_up()
        result.commits = len(committed)
        if replica.lag != 0:
            result.diverge(f"lag is {replica.lag} after full catch-up")
        if replica.service.query_info("size").stale:
            result.diverge("caught-up replica still tags reads stale")
        _verify(result, cfg.n, initial_edges, [b for _, b in committed],
                {"replica graph view": replica.service.graph_edges()},
                verify_replica(service, replica.service))
        replica.close()


# -- net family ---------------------------------------------------------------


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


def _pool_kill_exercise(rng: np.random.Generator,
                        result: ChaosRunResult) -> None:
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
                result.diverge(f"pool round {rnd} diverged after worker "
                               "kill")
        timer.join()
        vals = [r.value for r in pool.map_chunks(_net_pool_kernel, chunks)]
        if vals != expect:
            result.diverge("pool post-kill round diverged")
        if pool.worker_restarts_total < 1:
            result.diverge("worker kill produced no supervised restart")
        result.restarts += pool.worker_restarts_total
    finally:
        pool.close()


def _run_net(cfg: ChaosConfig, plan: ChaosPlan, seed: int,
             result: ChaosRunResult, workdir: str | Path) -> None:
    """One client/server/replica run under one wire-fault plan.

    Topology: a real :class:`~repro.net.server.ThreadedServer` primary, a
    :class:`~repro.net.faultproxy.FaultProxy` on the client link (and a
    second one on the replica link for the torn/reset plans), a
    :class:`~repro.net.resilient.ResilientClient` issuing a seeded toggle
    workload through the proxy, and a log-shipping replica.  The client
    tracks the *expected* edge set from its own acked submits; at the end
    the full replication log is fetched from byte 0 and verified against
    that expectation, the primary's live edges, and the replica's state.
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

    kind = plan.kind
    rng = plan.rng
    n_req = cfg.requests
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
        seed=_plan_seed(kind, seed),
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

            def sync_replica() -> None:
                nonlocal replica
                try:
                    replica.catch_up()
                except Exception:
                    replica.close()
                    replica = make_replica()
                    result.recoveries += 1
                    replica.catch_up()

            client = ResilientClient(
                proxy.host, proxy.port,
                replicas=([(rsrv.host, rsrv.port)] if rsrv else ()),
                policy=policy,
                client_id=f"chaos-{kind}-{seed}",
            )
            heal_timer: threading.Timer | None = None

            def partition() -> None:
                nonlocal heal_timer
                proxy.partition()
                heal_timer = threading.Timer(heal_delay, proxy.heal)
                heal_timer.start()

            # request index → the fault injected just before it; the
            # first torn ACK commits but the client never hears, so its
            # retry must dedup
            schedule = {
                "net_partition": {fire_at[0]: partition},
                "net_latency": {
                    fire_at[0]: lambda: proxy.set_latency(latency_s)},
                "net_torn_frame": {
                    fire_at[0]: lambda: proxy.tear_next("s2c"),
                    fire_at[1]: lambda: proxy.tear_next("c2s", rst=True),
                    fire_at[2]: lambda: rproxy.tear_next("s2c")},
                "net_reset": {fire_at[0]: proxy.reset_all,
                              fire_at[1]: proxy.reset_all,
                              fire_at[2]: rproxy.reset_all},
                "net_worker_kill": {
                    fire_at[0]: lambda: _pool_kill_exercise(rng, result)},
            }[kind]
            try:
                for i in range(n_req):
                    if i in schedule:
                        result.fired += 1
                        schedule[i]()
                    elif kind == "net_latency" and i == latency_end:
                        proxy.set_latency(0.0)

                    a, b = universe[int(rng.integers(len(universe)))]
                    op = "delete" if (a, b) in expected else "insert"
                    info = client.submit_info(op, a, b)
                    status = info.get("status")
                    if status not in ("accepted", "coalesced_dedup",
                                      "coalesced_cancel"):
                        result.diverge(f"unexpected submit outcome "
                                       f"{status!r} for {op} ({a}, {b})")
                    expected.symmetric_difference_update({(a, b)})
                    if (i + 1) % flush_every == 0:
                        client.flush()
                        sync_replica()
                    if (i + 1) % read_every == 0:
                        client.query_info("size")
            except Exception as exc:      # noqa: BLE001 - recorded verbatim
                result.diverge(f"workload died at request {i}: {exc!r}")
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
                result.diverge(f"post-fault settle failed: {exc!r}")

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
            _verify(result, cfg.n, initial_edges, [r.batch for r in records],
                    {"acked client expectation": expected,
                     "primary live edges": direct.edges(),
                     "replica state": replica.service.graph_edges()},
                    verify_replica(tenant.service, replica.service))
            direct.close()

            # plan-specific liveness assertions: the fault must actually
            # have exercised the resilience path it targets
            if kind == "net_torn_frame" and tenant.idempotency.dedup_hits < 1:
                result.diverge("torn ACK was not absorbed by idempotency "
                               "dedup")
            if kind == "net_partition" and client.retries < 1:
                result.diverge("partition produced no client retries")
            if kind == "net_reset" and client.reconnects < 1:
                result.diverge("resets produced no client reconnects")
            if kind == "net_latency" and client.hedged < 1:
                result.diverge("latency window produced no hedged reads")

            result.client_retries = client.retries
            result.reconnects = client.reconnects
            result.dedup_hits = tenant.idempotency.dedup_hits
            result.hedged_reads = client.hedged
            result.breaker_trips = client.breaker_trips
            client.close()
            if rsrv is not None:
                rsrv.stop()
            replica.close()


# -- the campaign -------------------------------------------------------------

_RUNNERS = {"service": _run_service, "replica": _run_replica, "net": _run_net}


def run_plan(cfg: ChaosConfig, plan: ChaosPlan, seed: int,
             workdir: str | Path) -> ChaosRunResult:
    """One seeded run of one plan through its family's runner.

    Service runs keep their WAL and checkpoints in a fresh directory
    under ``workdir``.
    """
    t0 = time.perf_counter()
    result = ChaosRunResult(plan=plan, seed=seed)
    _RUNNERS[CATALOGUE[plan.kind]](cfg, plan, seed, result, workdir)
    result.wall_seconds = time.perf_counter() - t0
    return result


def run_campaign(cfg: ChaosConfig, log=None) -> ChaosReport:
    """Sweep every configured plan (family names expand) × seed."""
    kinds = resolve_plans(cfg.plans)
    t0 = time.perf_counter()
    report = ChaosReport(config=cfg)
    workdir = cfg.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        for kind in kinds:
            for seed in range(cfg.seed0, cfg.seed0 + cfg.seeds):
                plan = _draw_plan(kind, seed, cfg.shards)
                run = run_plan(cfg, plan, seed, workdir)
                report.runs.append(run)
                if log is not None:
                    log(f"{kind} seed={seed} shard={plan.shard} "
                        f"at_seq={plan.at_seq}: "
                        f"{'ok' if run.ok else 'DIVERGED'} "
                        f"(fired={run.fired}, commits={run.commits}, "
                        f"recoveries={run.recoveries})")
    finally:
        if cfg.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
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
        report = run_campaign(sub)
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
