"""Networked multi-tenant serving with WAL log-shipping read replicas.

Layers (see ``docs/replication.md``):

- :mod:`repro.net.protocol` — length-prefixed JSON frames, version
  handshake, error envelopes carrying ``retry_after``/``stale``.
- :mod:`repro.net.tenants` — named graph namespaces, each a fully
  isolated engine + quotas + replication log + idempotency index.
- :mod:`repro.net.server` — asyncio TCP front end with per-connection
  backpressure, read deadlines / slow-client eviction, and graceful
  SIGTERM drain.
- :mod:`repro.net.client` — blocking socket client (fail-fast: poisons
  itself on transport/framing errors).
- :mod:`repro.net.resilient` — retrying client: deadlines, decorrelated
  backoff, circuit breaker, reconnect, idempotent writes, hedged reads.
- :mod:`repro.net.faultproxy` — in-process TCP fault-injection proxy
  (latency, torn frames, resets, partitions).
- :mod:`repro.net.replica` — single-writer primary → N read replicas via
  WAL-framed log shipping; snapshot-consistent stale-tagged reads.
- :mod:`repro.net.bench` — the SRV2 replica-scaling benchmark.
"""

from repro.net.client import NetClient
from repro.net.faultproxy import FaultProxy
from repro.net.protocol import (
    PROTOCOL_NAME,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameDecoder,
    ProtocolError,
    ServerError,
    encode_frame,
)
from repro.net.replica import LogShippingReplica, ReplicaConfig, run_replica
from repro.net.resilient import (
    CircuitOpenError,
    DeadlineExceeded,
    ResilientClient,
    RetryPolicy,
)
from repro.net.server import NetServer, NetServerConfig, ThreadedServer, serve
from repro.net.tenants import (
    IdempotencyIndex,
    ReplicationLog,
    Tenant,
    TenantConfig,
    TenantManager,
)

__all__ = [
    "CircuitOpenError",
    "ConnectionClosed",
    "DeadlineExceeded",
    "FaultProxy",
    "FrameDecoder",
    "IdempotencyIndex",
    "LogShippingReplica",
    "NetClient",
    "NetServer",
    "NetServerConfig",
    "PROTOCOL_NAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReplicaConfig",
    "ReplicationLog",
    "ResilientClient",
    "RetryPolicy",
    "ServerError",
    "Tenant",
    "TenantConfig",
    "TenantManager",
    "ThreadedServer",
    "encode_frame",
    "run_replica",
    "serve",
]
