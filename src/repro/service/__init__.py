"""Asynchronous batch-dynamic serving engine (queue → batcher → shards).

The paper's structures amortize work over *batches*; this package turns a
stream of individual client requests into well-shaped batches and serves
queries from snapshot-consistent state:

* :mod:`repro.service.queue` — ingestion queue with update coalescing,
* :mod:`repro.service.batcher` — adaptive micro-batching (size/deadline),
* :mod:`repro.service.admission` — bounded queues, shedding, timeouts,
* :mod:`repro.service.engine` — the :class:`SpannerService` facade,
* :mod:`repro.service.shard` — the one executor: S shards (one in-process
  is :class:`LocalExecutor`), inline or on worker processes,
* :mod:`repro.service.metrics` — counters/histograms registry,
* :mod:`repro.service.driver` — the end-to-end serve demo + verification.

Fault tolerance (WAL, checkpoints, shard supervision, chaos testing)
lives in :mod:`repro.resilience`; see ``docs/resilience.md``.

See ``docs/service.md`` for the architecture and tuning guide.
"""

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.service.batcher import AdaptiveBatcher, BatcherConfig
from repro.service.driver import ServeConfig, ServeReport, run_serve
from repro.service.engine import (
    PendingQuery,
    QueryResult,
    ServiceConfig,
    SpannerService,
    SubmitResponse,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.queue import CoalescingQueue, DrainResult
from repro.service.shard import (
    ApplyResult,
    LocalExecutor,
    ShardDeadError,
    ShardedExecutor,
    ShardHealth,
    build_backend,
    edge_shard,
    split_by_shard,
)

__all__ = [
    "AdaptiveBatcher",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "ApplyResult",
    "BatcherConfig",
    "CoalescingQueue",
    "Counter",
    "DrainResult",
    "Gauge",
    "Histogram",
    "LocalExecutor",
    "MetricsRegistry",
    "PendingQuery",
    "QueryResult",
    "ServeConfig",
    "ServeReport",
    "ServiceConfig",
    "SpannerService",
    "SubmitResponse",
    "ShardDeadError",
    "ShardHealth",
    "ShardedExecutor",
    "build_backend",
    "edge_shard",
    "run_serve",
    "split_by_shard",
]
