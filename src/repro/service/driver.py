"""End-to-end serve demo: request stream → service → verification.

Drives a seeded stream of single-edge update and query requests through a
:class:`~repro.service.engine.SpannerService` over a sharded executor,
then *verifies* the result via the shared differential oracle
(:meth:`SpannerService.self_check`, i.e.
:func:`repro.oracle.verify_service`): every per-shard coalesced batch the
service applied is replayed synchronously through a freshly built backend
(same spec, same seed) and cross-checked against the service snapshot,
the live workers, the queue's membership view, and the structure-level
invariants.  Used by ``python -m repro.cli serve`` and by
``benchmarks/bench_srv_service_throughput.py``.

Arrival timing is simulated (a :class:`SimClock` advanced a fixed tick per
request, with periodic zero-gap bursts), so flush-deadline behaviour and
backpressure shedding are reproducible; flush *latency* metrics still
measure real wall time inside the engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.resilience.manager import (
    RecoveryManager,
    ResilienceConfig,
    SupervisionConfig,
    bootstrap_executor,
)
from repro.service.admission import AdmissionConfig
from repro.service.batcher import BatcherConfig
from repro.service.engine import ServiceConfig, SpannerService
from repro.workloads.streams import request_stream

__all__ = ["ServeConfig", "ServeReport", "SimClock", "run_serve"]


class SimClock:
    """Deterministic monotonic clock the driver advances per request."""

    def __init__(self, t0: float = 0.0) -> None:
        self.t = t0

    def now(self) -> float:
        """Current simulated time (pass as the service clock)."""
        return self.t

    def advance(self, dt: float) -> None:
        """Move simulated time forward by ``dt`` seconds."""
        self.t += dt


@dataclass
class ServeConfig:
    # workload
    n: int = 256
    m: int = 1024
    requests: int = 10_000
    seed: int = 0
    query_prob: float = 0.1
    churn_prob: float = 0.15
    # backend
    backend: str = "spanner"
    k: int = 2
    base_capacity: int | None = None
    shards: int = 2
    processes: bool = False
    # serving knobs
    max_batch: int = 256
    max_delay: float = 0.002       # flush deadline (simulated seconds)
    target_batch_work: int | None = None
    queue_capacity: int = 192      # < arrivals per burst → backpressure
    request_timeout: float | None = None
    # fault tolerance (PR 4): a WAL directory makes the run durable — the
    # engine logs every committed batch, checkpoints on schedule, and a
    # rerun with the same directory resumes from the recovered state
    wal_dir: str | None = None
    checkpoint_interval: int = 64
    supervise: bool = True         # restart dead/hung shard workers
    recv_deadline: float = 5.0     # seconds before a worker counts as hung
    # simulated arrivals: one request per `tick`, with a zero-gap burst of
    # `burst_size` requests closing every `burst_every` requests
    tick: float = 2e-5
    burst_every: int = 1000
    burst_size: int = 300
    # real parallelism: with parallel >= 2 the engine owns a
    # ProcessPoolBackend with that many workers, batched reads expand
    # their BFS/flood rounds across it, and the demo driver parks reads
    # via submit_query so they drain through query_batch (the pool path)
    # instead of the singleton query API.  Answers and recorded charges
    # are identical either way.
    parallel: int = 0


@dataclass
class ServeReport:
    config: ServeConfig
    served: int = 0
    applied_ops: int = 0
    shed: int = 0
    rejected: int = 0
    coalesced: int = 0
    queries: int = 0
    flushes: int = 0
    wall_seconds: float = 0.0
    interrupted: bool = False      # stopped early by SIGINT/SIGTERM
    resumed_from_seq: int = 0      # >0 when a WAL dir restored prior state
    final_seq: int = 0             # last committed sequence number
    recoveries: int = 0            # shard recoveries during the run
    checkpoints: int = 0
    verified: bool = False
    verification: Any = None  # ServiceVerification from the oracle
    shard_sizes: list[int] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    metrics_text: str = ""

    @property
    def throughput_rps(self) -> float:
        return self.served / self.wall_seconds if self.wall_seconds else 0.0


def run_serve(cfg: ServeConfig, verify: bool = True) -> ServeReport:
    """Run the full demo; returns the report (never prints)."""
    report = ServeReport(config=cfg)
    executor = recovery = None
    parallel_backend = None
    try:
        initial_edges, requests = request_stream(
            cfg.n, cfg.m, cfg.requests, seed=cfg.seed,
            query_prob=cfg.query_prob, churn_prob=cfg.churn_prob,
        )
        if cfg.parallel and cfg.parallel >= 2:
            # fork the pool before the executor/recovery machinery spins
            # up any threads of its own
            from repro.parallel import ProcessPoolBackend

            parallel_backend = ProcessPoolBackend(
                cfg.parallel, min_items=32
            )
        spec: dict[str, Any] = {
            "kind": cfg.backend, "n": cfg.n, "edges": initial_edges,
            "seed": cfg.seed + 1000,
        }
        if cfg.backend in ("spanner", "sparse"):
            spec["k"] = cfg.k
            # small enough to engage the Bentley-Saxe decremental levels at
            # demo scale (the library default would hold everything in
            # level 0)
            spec["base_capacity"] = (
                cfg.base_capacity
                if cfg.base_capacity is not None
                else max(16, cfg.m // max(1, 4 * cfg.shards))
            )
        supervision = (
            SupervisionConfig(recv_deadline=cfg.recv_deadline)
            if cfg.supervise else None
        )
        if cfg.wal_dir:
            recovery = RecoveryManager(ResilienceConfig(
                directory=cfg.wal_dir,
                checkpoint_interval=cfg.checkpoint_interval,
            ))
        executor, resumed_from_seq = bootstrap_executor(
            spec, cfg.shards, recovery,
            processes=cfg.processes, supervision=supervision,
        )
        clock = SimClock()
        service = SpannerService(
            executor,
            config=ServiceConfig(
                batcher=BatcherConfig(
                    max_batch=cfg.max_batch,
                    max_delay=cfg.max_delay,
                    target_batch_work=cfg.target_batch_work,
                ),
                admission=AdmissionConfig(
                    max_pending=cfg.queue_capacity,
                    request_timeout=cfg.request_timeout,
                ),
            ),
            clock=clock.now,
            recovery=recovery,
            parallel=parallel_backend,
        )
    except KeyboardInterrupt:
        # interrupt before serving even started (workload generation or
        # executor bootstrap): release whatever got built and report a
        # clean zero-request shutdown instead of dying on the signal
        report.interrupted = True
        if executor is not None:
            executor.close()
        if parallel_backend is not None:
            parallel_backend.close()
        if recovery is not None:
            recovery.close()
        return report
    report.resumed_from_seq = resumed_from_seq
    quiet_len = max(0, cfg.burst_every - cfg.burst_size)
    t0 = time.perf_counter()
    with service:
        try:
            for i, (op, payload) in enumerate(requests):
                in_burst = (
                    cfg.burst_every > 0 and i % cfg.burst_every >= quiet_len
                )
                if not in_burst:
                    clock.advance(cfg.tick)
                service.pump()
                if op == "query":
                    u, v = payload
                    if parallel_backend is not None:
                        # park the read; it drains through query_batch
                        # (the pool-backed path) at the next flush cycle
                        service.submit_query("distance", (u, v))
                    else:
                        service.query("distance", (u, v))
                    report.queries += 1
                else:
                    resp = service.submit_update(op, *payload)
                    if resp.outcome in ("shed", "shed_degraded"):
                        report.shed += 1
                    elif not resp.accepted:
                        report.rejected += 1
                report.served += 1
        except KeyboardInterrupt:
            # graceful shutdown: drain what was admitted, then fall
            # through to the final flush + checkpoint in service.close()
            report.interrupted = True
        service.flush()
        report.wall_seconds = time.perf_counter() - t0

        m = service.metrics.snapshot()
        report.metrics = m
        report.metrics_text = service.metrics.render()
        report.applied_ops = m.get("ops_applied", 0)
        report.coalesced = m.get("ops_coalesced_away", 0)
        report.flushes = m.get("flushes", 0)
        report.recoveries = m.get("recoveries", 0)
        report.checkpoints = m.get("checkpoints", 0)
        report.final_seq = resumed_from_seq + report.flushes
        report.shard_sizes = executor.scatter_sizes()

        if verify:
            verification = service.self_check(deep=True)
            report.verified = verification.ok
            report.verification = verification
    return report
