"""Multi-tenant graph namespaces for the net server.

Each tenant is a fully isolated serving stack: its own backend spec, its
own :class:`~repro.service.engine.SpannerService` (engine + coalescing
queue + batcher), its own WAL/checkpoint directory when durable, and its
own :class:`~repro.service.admission.AdmissionController` quotas — so one
tenant hitting its ``max_pending`` or ``max_inflight_queries`` sheds with
``retry_after`` while every other tenant keeps its latency.

Replication hooks: every commit is also appended (WAL-framed, via
:func:`repro.resilience.wal.encode_record`) to an in-memory
:class:`ReplicationLog`, the byte stream ``wal_fetch`` serves to read
replicas.  The log starts at the tenant's **boot state**: for a durable
tenant that resumed from checkpoint + WAL, the boot spec carries the
checkpointed edges and the log is pre-seeded with the recovered WAL tail,
so a replica bootstrapping from ``(boot_spec, base_seq)`` and applying the
shipped stream reconstructs the primary's live state exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.resilience.manager import (
    RecoveryManager,
    ResilienceConfig,
    bootstrap_executor,
)
from repro.resilience.wal import WAL_MAGIC, encode_record
from repro.service.admission import AdmissionConfig
from repro.service.batcher import BatcherConfig
from repro.service.engine import ServiceConfig, SpannerService
from repro.workloads.streams import UpdateBatch

__all__ = [
    "IdempotencyIndex",
    "ReplicationLog",
    "Tenant",
    "TenantConfig",
    "TenantManager",
]


class IdempotencyIndex:
    """Bounded ``key -> recorded submit outcome`` map for exactly-once
    write retries.

    A client retrying a ``submit`` whose ACK was lost replays the *same*
    client-generated key; the admission path claims the key **before**
    offering the op to the coalescing queue, so the retry is answered from
    the recorded outcome instead of re-applied.  Dedup must happen here,
    pre-queue: by the time the retry arrives the original op may already
    be committed, and the queue would then report ``rejected_duplicate``
    (insert of a present edge) — a lie to the client whose write in fact
    landed.

    Three-way protocol per key: :meth:`begin` claims it (``new``), replays
    it (``dup``), or reports a concurrent in-flight twin (``pending``);
    :meth:`commit` records the processed outcome; :meth:`abort` releases a
    claim whose op was *not* processed (sheds, internal errors) so a later
    retry is re-admitted.

    The index is in-memory and LRU-bounded (``capacity`` completed
    entries).  Durability is layered: across a primary restart the WAL
    replays committed batches, and the coalescing queue's membership
    validation (`rejected_duplicate`/`rejected_absent`) remains the
    backstop for keys the index no longer remembers — chaos verifies the
    end state by replaying the replication log (see
    :mod:`repro.resilience.chaos`).
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, dict | None] = OrderedDict()
        self._lock = threading.Lock()
        self.dedup_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def begin(self, key: str) -> tuple[str, dict | None]:
        """Claim ``key``; returns ``("new", None)``, ``("dup", outcome)``,
        or ``("pending", None)``."""
        with self._lock:
            if key in self._entries:
                outcome = self._entries[key]
                if outcome is None:
                    return "pending", None
                self._entries.move_to_end(key)
                self.dedup_hits += 1
                return "dup", dict(outcome)
            self._entries[key] = None
            return "new", None

    def commit(self, key: str, outcome: dict) -> None:
        """Record the processed outcome for a claimed key."""
        with self._lock:
            self._entries[key] = dict(outcome)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                # evict oldest *completed* entry; in-flight claims stay
                for old_key, old_val in self._entries.items():
                    if old_val is not None:
                        del self._entries[old_key]
                        break
                else:  # pragma: no cover - all pending: nothing evictable
                    break

    def abort(self, key: str) -> None:
        """Release a claim whose op was not processed (idempotent)."""
        with self._lock:
            if self._entries.get(key, ()) is None:
                del self._entries[key]


class ReplicationLog:
    """Thread-safe, append-only WAL-framed byte stream for log shipping.

    Holds the same bytes a :class:`~repro.resilience.wal.WalWriter` would
    produce (magic + checksummed records), but in memory and never
    truncated by checkpoints, so a replica's byte offset stays valid for
    the primary process's whole lifetime.  ``base_seq`` is the commit seq
    the stream's *start* corresponds to (0 for a fresh tenant, the
    checkpoint epoch for a resumed one).
    """

    def __init__(self, base_seq: int = 0) -> None:
        self._buf = bytearray(WAL_MAGIC)
        self._lock = threading.Lock()
        self.base_seq = base_seq
        self.last_seq = base_seq

    @property
    def size(self) -> int:
        """Total stream bytes (the ``log_size`` replicas poll against)."""
        with self._lock:
            return len(self._buf)

    def append(self, seq: int, batch: UpdateBatch) -> None:
        """Append one committed batch (serving-engine commit hook)."""
        data = encode_record(seq, batch)
        with self._lock:
            if seq <= self.last_seq:
                raise ValueError(
                    f"replication log seq regression "
                    f"{self.last_seq} -> {seq}"
                )
            self._buf += data
            self.last_seq = seq

    def read(self, offset: int, max_bytes: int) -> bytes:
        """Stream bytes ``[offset, offset + max_bytes)``.

        A chunk boundary may tear a record in half; the replica's
        :class:`~repro.resilience.wal.WalStreamDecoder` buffers the torn
        tail and completes it from the next fetch — the same rule the WAL
        reader applies to a crash-torn file tail.
        """
        if offset < 0:
            raise ValueError(f"negative replication offset {offset}")
        with self._lock:
            return bytes(self._buf[offset: offset + max(0, max_bytes)])


@dataclass
class TenantConfig:
    """One tenant's backend, serving knobs, quotas, and durability."""

    name: str
    spec: dict[str, Any]                 # build_backend spec
    shards: int = 1                      # in-process: tenancy stays fork-free
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    wal_dir: str | None = None           # durable when set
    checkpoint_interval: int = 64
    autostart: bool = True               # run the background flusher


class Tenant:
    """A named namespace: one engine plus its replication stream."""

    def __init__(self, config: TenantConfig, service: SpannerService,
                 boot_spec: dict[str, Any],
                 replication: ReplicationLog) -> None:
        self.config = config
        self.service = service
        self.boot_spec = boot_spec       # spec the executor was built on
        self.replication = replication
        self.inflight_queries = 0        # maintained by the net server
        self.idempotency = IdempotencyIndex()
        service.commit_hooks.append(replication.append)

    @property
    def name(self) -> str:
        return self.config.name

    def sync_info(self) -> dict[str, Any]:
        """Bootstrap description a replica needs (JSON-serializable)."""
        spec = dict(self.boot_spec)
        spec["edges"] = sorted([int(u), int(v)] for u, v in
                               spec.get("edges", ()))
        return {
            "spec": spec,
            "shards": self.config.shards,
            "base_seq": self.replication.base_seq,
            "last_seq": self.replication.last_seq,
            "log_size": self.replication.size,
        }

    def close(self) -> None:
        """Shut the tenant down: stop the engine, close the WAL."""
        self.service.close()


class TenantManager:
    """Creates, routes, and tears down tenants for one server process."""

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()

    def names(self) -> list[str]:
        """Sorted tenant names."""
        with self._lock:
            return sorted(self._tenants)

    def get(self, name: str) -> Tenant | None:
        """Look a tenant up by name (``None`` if absent)."""
        with self._lock:
            return self._tenants.get(name)

    def __iter__(self) -> Iterable[Tenant]:
        with self._lock:
            return iter(list(self._tenants.values()))

    def create(self, config: TenantConfig) -> Tenant:
        """Build a tenant's full serving stack and register it.

        Durable tenants (``wal_dir`` set) recover checkpoint + WAL first;
        the recovered tail is replayed into the executor *and* pre-seeded
        into the replication log so late-joining replicas can still
        reconstruct the live state.
        """
        with self._lock:
            if config.name in self._tenants:
                raise ValueError(f"duplicate tenant {config.name!r}")
        recovery = None
        base_seq = 0
        tail = []
        if config.wal_dir:
            recovery = RecoveryManager(ResilienceConfig(
                directory=Path(config.wal_dir),
                checkpoint_interval=config.checkpoint_interval,
            ))
            base_seq = recovery.checkpoint.epoch if recovery.checkpoint \
                else 0
            tail = list(recovery.tail)
        executor, _ = bootstrap_executor(config.spec, config.shards,
                                         recovery)
        # the edges the shards were built on: the replication log's base
        boot_spec = dict(config.spec, edges=[
            e for sub in executor.shard_specs for e in sub["edges"]])
        service = SpannerService(
            executor,
            config=ServiceConfig(
                batcher=replace(config.batcher),
                admission=replace(config.admission),
            ),
            recovery=recovery,
        )
        replication = ReplicationLog(base_seq=base_seq)
        for rec in tail:
            replication.append(rec.seq, rec.batch)
        tenant = Tenant(config, service, boot_spec, replication)
        if config.autostart:
            service.start()
        with self._lock:
            self._tenants[config.name] = tenant
        return tenant

    def add_replica_tenant(self, name: str, spec: dict[str, Any],
                           shards: int, base_seq: int) -> Tenant:
        """Register a *replica* tenant: an engine built from a primary's
        ``sync_info`` and fed only by :meth:`SpannerService.apply_replicated`
        (no flusher, no local writes, no durability)."""
        config = TenantConfig(name=name, spec=spec, shards=shards,
                              autostart=False)
        executor, _ = bootstrap_executor(spec, shards)
        service = SpannerService(executor, config=ServiceConfig())
        if base_seq:
            service.align_seq(base_seq)
        tenant = Tenant(config, service, dict(spec), ReplicationLog(base_seq))
        with self._lock:
            self._tenants[name] = tenant
        return tenant

    def flush_all(self) -> None:
        """Flush every tenant's pending writes (drain path)."""
        for tenant in list(self):
            tenant.service.flush()

    def render_prometheus(self,
                          extra: Callable[[], str] | None = None) -> str:
        """One scrape body covering every tenant, labelled per tenant."""
        parts = [
            t.service.metrics.render_prometheus(labels={"tenant": t.name})
            for t in sorted(self, key=lambda t: t.name)
        ]
        if extra is not None:
            parts.append(extra())
        return "".join(parts)

    def close(self) -> None:
        """Close every tenant; idempotent."""
        with self._lock:
            tenants, self._tenants = list(self._tenants.values()), {}
        for tenant in tenants:
            tenant.close()

    def __enter__(self) -> "TenantManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

