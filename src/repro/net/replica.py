"""Log-shipping read replicas.

A replica bootstraps from the primary's ``sync`` verb (boot spec, shard
count, base commit seq), builds an identical engine, and then tails the
primary's replication log over ``wal_fetch``: WAL-framed bytes, decoded
incrementally by :class:`~repro.resilience.wal.WalStreamDecoder` (a chunk
boundary may tear a record; torn tails are buffered and completed by the
next fetch, the same rule crash recovery applies to the WAL file).

Because every structure is seeded Las Vegas, a replica that applies the
primary's exact batch sequence from the same base spec reaches **bit-
identical** state — ``oracle.verify_replica`` asserts exactly that, and
the chaos harness re-asserts it after crash/lag faults.

Consistency contract served to clients: *snapshot-consistent, possibly
stale*.  Every applied batch is atomic (a query sees all of commit ``s``
or none of it) and ``as_of_seq`` names the commit the answer reflects.
While the replica knows it is behind (``lag > 0``) it raises the engine's
degraded marker, so reads come back ``stale=True`` through the exact
path shard-recovery degradation uses on the primary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.net.client import NetClient
from repro.net.server import NetServerConfig, ThreadedServer
from repro.net.tenants import Tenant, TenantManager
from repro.resilience.wal import WalStreamDecoder

__all__ = ["LogShippingReplica", "ReplicaConfig", "run_replica"]


@dataclass
class ReplicaConfig:
    tenant: str = "default"
    poll_interval: float = 0.02     # seconds between wal_fetch polls
    chunk_bytes: int = 1 << 20      # max bytes per fetch
    lag_stale_threshold: int = 1    # commits behind before reads tag stale


@dataclass
class ReplicaStats:
    records_applied: int = 0
    bytes_fetched: int = 0
    fetches: int = 0
    last_applied_seq: int = 0
    lag_commits: int = 0            # primary last_seq - replica seq
    bootstrap_seconds: float = 0.0


class LogShippingReplica:
    """One tenant's read replica: engine + shipping cursor + lag gauge."""

    def __init__(self, client: NetClient,
                 config: ReplicaConfig | None = None,
                 tenants: TenantManager | None = None) -> None:
        self.client = client
        self.config = config or ReplicaConfig()
        self.tenants = tenants if tenants is not None else TenantManager()
        self.stats = ReplicaStats()
        t0 = time.perf_counter()
        info = client.sync_info()
        self.tenant: Tenant = self.tenants.add_replica_tenant(
            self.config.tenant, info["spec"],
            int(info["shards"]), int(info["base_seq"]),
        )
        self._decoder = WalStreamDecoder()
        self._pending_records: list = []  # decoded, not yet applied
        self._offset = 0            # replication-log byte cursor
        self._primary_seq = int(info["last_seq"])
        self.stats.last_applied_seq = int(info["base_seq"])
        self._refresh_lag()
        self.stats.bootstrap_seconds = time.perf_counter() - t0

    @property
    def service(self):
        return self.tenant.service

    @property
    def lag(self) -> int:
        """Commits the replica is known to be behind the primary."""
        return self.stats.lag_commits

    def note_primary_seq(self, seq: int) -> None:
        """Record the primary's latest commit seq (from a fetch reply or
        an out-of-band source) and re-derive the lag gauge + stale tag."""
        self._primary_seq = max(self._primary_seq, seq)
        self._refresh_lag()

    def _refresh_lag(self) -> None:
        lag = max(0, self._primary_seq - self.service.committed_seq)
        self.stats.lag_commits = lag
        self.service.metrics.gauge("replica_lag_commits").set(lag)
        self.service.set_degraded(
            lag >= self.config.lag_stale_threshold)

    def catch_up(self, max_records: int | None = None) -> int:
        """Fetch + apply until caught up (or ``max_records`` applied).

        Returns the number of records applied.  Safe to call repeatedly;
        the decoder carries torn fetch tails across calls.
        """
        applied = 0
        while True:
            # drain records decoded on an earlier (capped) call first, so
            # a record is never lost between the decoder and the engine
            while self._pending_records and (
                    max_records is None or applied < max_records):
                rec = self._pending_records.pop(0)
                self.service.apply_replicated(rec.seq, rec.batch)
                self.stats.records_applied += 1
                self.stats.last_applied_seq = rec.seq
                applied += 1
            self._refresh_lag()
            if max_records is not None and applied >= max_records:
                break
            chunk, _log_size, last_seq = self.client.wal_fetch(
                self._offset + self._decoder.pending_bytes,
                self.config.chunk_bytes)
            self.stats.fetches += 1
            self.stats.bytes_fetched += len(chunk)
            self.note_primary_seq(last_seq)
            if not chunk:
                break
            self._pending_records.extend(self._decoder.feed(chunk))
            self._offset = self._decoder.offset
        self._refresh_lag()
        return applied

    def run(self, stop=None, max_seconds: float | None = None) -> None:
        """Poll-and-apply loop: ``catch_up`` then sleep ``poll_interval``.

        ``stop`` is an optional ``threading.Event``; the loop also exits
        after ``max_seconds`` when given (used by ``repro.cli replica``).
        """
        deadline = (time.monotonic() + max_seconds) \
            if max_seconds is not None else None
        while True:
            if stop is not None and stop.is_set():
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            if self.catch_up() == 0:
                time.sleep(self.config.poll_interval)

    def close(self) -> None:
        """Stop shipping and close the upstream connection; idempotent."""
        self.tenants.close()
        self.client.close()


def run_replica(primary_host: str, primary_port: int,
                listen: tuple[str, int] | None = None,
                config: ReplicaConfig | None = None,
                query_slots: int = 8, service_time: float = 0.0,
                ) -> tuple[LogShippingReplica, ThreadedServer | None]:
    """Wire up a replica, optionally serving reads on its own port.

    Returns ``(replica, server)``; the caller owns the poll loop (call
    ``replica.run(...)`` or ``replica.catch_up()`` as it sees fit) and
    must ``server.stop()`` / ``replica.close()`` when done.  The serving
    front end is ``read_only=True``: submits are rejected with a
    ``read_only`` error envelope pointing clients at the primary.
    """
    client = NetClient(primary_host, primary_port,
                       tenant=(config or ReplicaConfig()).tenant)
    replica = LogShippingReplica(client, config)
    server = None
    if listen is not None:
        server = ThreadedServer(replica.tenants, NetServerConfig(
            host=listen[0], port=listen[1], read_only=True,
            query_slots=query_slots, service_time=service_time,
        )).start()
    return replica, server
