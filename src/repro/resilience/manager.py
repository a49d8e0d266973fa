"""Recovery manager: one directory holding a WAL plus checkpoints.

Ties :mod:`repro.resilience.wal` and :mod:`repro.resilience.checkpoint`
into the single object the serving engine talks to:

* after every applied batch the engine calls :meth:`log_applied`;
* every ``checkpoint_interval`` commits it calls :meth:`write_checkpoint`
  with the executor's per-shard checkpoint keys (``shard_keys()``), which
  also truncates the absorbed WAL prefix;
* a restarting shard asks :meth:`shard_recovery_plan` for its base edge
  set and the WAL-tail sub-batches to replay (routing is re-derived with
  the deterministic :func:`~repro.service.shard.edge_shard` router, so a
  single global log serves every shard);
* every serving stack builds its executor with :func:`bootstrap_executor`,
  which rebuilds the whole sharded state from this directory before
  serving resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph.dynamic_graph import Edge, check_edges, pair_keys
from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.resilience.faults import NULL_INJECTOR, FaultInjector
from repro.resilience.wal import (
    WalCorruptionError,
    WalReadResult,
    WalRecord,
    WalWriter,
    read_wal,
)
from repro.workloads.streams import UpdateBatch

__all__ = [
    "RecoveryManager",
    "ResilienceConfig",
    "SupervisionConfig",
    "bootstrap_executor",
]


@dataclass
class ResilienceConfig:
    """Durability knobs (see docs/resilience.md)."""

    directory: str | Path = "wal"
    checkpoint_interval: int = 64   # commits between checkpoints
    sync: bool = False              # fsync each WAL append


@dataclass
class SupervisionConfig:
    """Worker-restart policy of the one worker runtime.

    ``ShardedExecutor`` uses it to restart and retry shards;
    ``ProcessPoolBackend`` uses it to replace dead workers.
    """

    recv_deadline: float = 5.0      # seconds to wait on a shard's reply
    max_batch_attempts: int = 2     # crash-loops on one batch → quarantine
    backoff_base: float = 0.05      # first restart delay (doubles per retry)
    backoff_cap: float = 2.0        # ceiling on the restart delay
    heartbeat_interval: float = 1.0  # background liveness-probe period
    restart_budget: int = 3         # pool worker replacements per dispatch


def _tail_after(records: list[WalRecord], epoch: int,
                path: Path) -> list[WalRecord]:
    """The records with ``seq > epoch``, which must run contiguously
    from ``epoch + 1``.

    Every durable commit is logged at the next consecutive seq, so a
    missing seq is a lost commit: replaying past it would silently drop
    its updates, hence :class:`WalCorruptionError` naming the seq.
    """
    tail = [r for r in records if r.seq > epoch]
    for expected, rec in enumerate(tail, start=epoch + 1):
        if rec.seq != expected:
            raise WalCorruptionError(
                f"{path}: commit seq={expected} is missing (checkpoint "
                f"epoch {epoch}, next logged seq={rec.seq}); replaying "
                "past the gap would lose it", seq=expected,
            )
    return tail


class RecoveryManager:
    """WAL + checkpoint lifecycle for one service instance."""

    def __init__(
        self,
        config: ResilienceConfig,
        injector: FaultInjector | None = None,
    ) -> None:
        self.config = config
        self.injector = injector or NULL_INJECTOR
        self.directory = Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.directory / "wal.log"
        self.checkpoints = CheckpointStore(self.directory)
        self._recovered = self._recover()
        dropped = self._recovered[1].dropped_tail_bytes
        if dropped:
            # chop the torn tail off before appending, or new records
            # would land after garbage and be unreachable to the reader
            size = self.wal_path.stat().st_size
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(size - dropped)
        self._writer = WalWriter(self.wal_path, sync=config.sync)
        self.last_seq = max(
            self._recovered[1].last_seq,
            self._recovered[0].epoch if self._recovered[0] else 0,
        )
        self._since_checkpoint = len(self._recovered[1].records)

    def _recover(self) -> tuple[Checkpoint | None, WalReadResult]:
        checkpoint = self.checkpoints.load()
        wal = read_wal(self.wal_path)
        wal.records = _tail_after(wal.records,
                                  checkpoint.epoch if checkpoint else 0,
                                  self.wal_path)
        return checkpoint, wal

    # -- recovered state -----------------------------------------------------

    @property
    def checkpoint(self) -> Checkpoint | None:
        return self._recovered[0]

    @property
    def tail(self) -> list[WalRecord]:
        """WAL records newer than the checkpoint epoch."""
        return self._recovered[1].records

    @property
    def dropped_tail_bytes(self) -> int:
        """Bytes of torn/corrupt tail the WAL reader ignored on recovery."""
        return self._recovered[1].dropped_tail_bytes

    @property
    def dropped_tail_seq(self) -> int | None:
        return self._recovered[1].dropped_tail_seq

    @property
    def wal_bytes(self) -> int:
        return self._writer.bytes_written

    def _checkpoint_for(self, shards: int) -> Checkpoint | None:
        """The recovered checkpoint, refusing one of another shard count."""
        ckpt = self.checkpoint
        if ckpt is not None and ckpt.shards != shards:
            raise ValueError(
                f"checkpoint has {ckpt.shards} shard(s), executor has "
                f"{shards}; resharding a checkpointed log is unsupported")
        return ckpt

    def base_edges(self, shard_idx: int, shards: int,
                   initial: list[Edge]) -> set[Edge]:
        """One shard's graph edges as of the checkpoint epoch, or its part
        of ``initial`` (the construction edges) without one; a restart
        asks this for its shard, while :func:`bootstrap_executor` reads
        the whole checkpoint at once."""
        ckpt = self._checkpoint_for(shards)
        if ckpt is not None:
            return ckpt.edges(shard_idx)
        from repro.service.shard import split_by_shard

        return set(split_by_shard(initial, shards)[shard_idx])

    def shard_recovery_plan(
        self, shard_idx: int, shards: int, initial: list[Edge],
        skip_seqs: set[int] | None = None,
    ) -> tuple[set[Edge], list[UpdateBatch]]:
        """(base edges, ordered WAL-tail sub-batches) for one shard.

        Re-reads the log from disk so a live restart sees every commit,
        including ones logged after this manager object recovered.

        ``skip_seqs`` holds commit seqs whose sub-batch this shard
        *quarantined* as poison: the full batch is in the WAL (the other
        shards applied their parts), but replaying it here would re-crash
        the worker and desynchronize the supervisor's bookkeeping.  Only a
        live restart passes this; a cold restart replays the full log,
        which is both legal and the better state.

        Raises :class:`WalCorruptionError` if the log is damaged or skips
        a seq past the checkpoint epoch.
        """
        from repro.service.shard import split_by_shard

        base = self.base_edges(shard_idx, shards, initial)
        epoch = self.checkpoint.epoch if self.checkpoint else 0
        tail = _tail_after(read_wal(self.wal_path).records, epoch,
                           self.wal_path)
        replay: list[UpdateBatch] = []
        for rec in tail:
            if skip_seqs and rec.seq in skip_seqs:
                continue
            sub = UpdateBatch(
                insertions=split_by_shard(rec.batch.insertions,
                                          shards)[shard_idx],
                deletions=split_by_shard(rec.batch.deletions,
                                         shards)[shard_idx],
            )
            if sub.size:
                replay.append(sub)
        return base, replay

    # -- logging -------------------------------------------------------------

    def log_applied(self, seq: int, batch: UpdateBatch) -> int:
        """Append one committed batch; returns bytes written."""
        if seq <= self.last_seq:
            raise ValueError(
                f"commit seq {seq} is not past last logged {self.last_seq}"
            )
        n = self._writer.append(seq, batch,
                                mutate=self.injector.on_wal_record)
        self.last_seq = seq
        self._since_checkpoint += 1
        return n

    def should_checkpoint(self) -> bool:
        """True once ``checkpoint_interval`` commits accumulated."""
        return self._since_checkpoint >= self.config.checkpoint_interval

    def write_checkpoint(self, epoch: int,
                         shard_keys: list[np.ndarray]) -> None:
        """Persist per-shard state at ``epoch`` and truncate the WAL.

        ``shard_keys`` holds each shard's sorted checkpoint keys
        (:func:`~repro.resilience.checkpoint.edge_keys`, or an executor's
        ``shard_keys()``).  The manager takes ownership: the arrays become
        the recovered checkpoint's state as they are, and are decoded to
        edge sets only when :meth:`base_edges` asks, on recovery.  Nobody
        may write to them afterwards (the executors' arrays are
        read-only).
        """
        self.checkpoints.save(epoch, shard_keys,
                              interrupt=self.injector.on_checkpoint)
        self._writer.truncate_through(epoch)
        self._recovered = (Checkpoint(epoch, list(shard_keys)),
                           WalReadResult())
        self._since_checkpoint = 0

    def close(self) -> None:
        """Close the WAL writer (idempotent)."""
        self._writer.close()


def _boot_edges(edges, n: int = 1 << 32) -> list[Edge]:
    """``sorted(set(map(tuple, edges)))`` by one stable argsort of
    ``u << 32 | v`` keys, keeping the first tuple of each run of equal
    keys as the set does (ValueError for an id that is not a vertex id
    of ``[0, n)``, by :func:`~repro.graph.dynamic_graph.check_edges`)."""
    edges = list(map(tuple, edges))
    keys = pair_keys(check_edges(edges, n))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    objs = np.fromiter(edges, dtype=object, count=len(edges))
    return objs[order[first]].tolist()


def bootstrap_executor(
    spec: dict,
    shards: int,
    manager: RecoveryManager | None = None,
    processes: bool = False,
    supervision: SupervisionConfig | None = None,
    injector: FaultInjector | None = None,
):
    """Build the serving executor for ``spec`` over ``shards`` shards,
    resuming from ``manager``'s durable state if one is given.

    Returns ``(executor, last_seq)``; the caller resumes committing at
    ``last_seq + 1``.  With a manager, one sorted boot edge list is
    computed once (the checkpoint's, from one sort of its per-shard keys,
    else ``sorted(set(spec['edges']))`` by :func:`_boot_edges`) and split
    over the shards once,
    then the WAL tail is replayed batch by batch; without one the
    executor is built on ``spec`` as is and ``last_seq`` is 0.  Either
    way a malformed spec id raises ``ValueError`` before any build.  One
    shard in-process is a :class:`~repro.service.shard.LocalExecutor`,
    anything else a :class:`~repro.service.shard.ShardedExecutor`.
    """
    from repro.service.shard import LocalExecutor, ShardedExecutor

    boot_spec = dict(spec)
    tail: list[WalRecord] = []
    if manager is not None:
        ckpt = manager._checkpoint_for(shards)
        boot_spec["edges"] = (
            ckpt.sorted_edges() if ckpt is not None
            else _boot_edges(spec.get("edges", ()), spec["n"]))
        tail = manager.tail
    else:
        check_edges(spec.get("edges", ()), spec["n"])
    cls = LocalExecutor if shards == 1 and not processes \
        else ShardedExecutor
    executor = cls(
        boot_spec, shards, processes=processes, supervision=supervision,
        recovery=manager, injector=injector,
    )
    for rec in tail:
        executor.apply(rec.batch, seq=rec.seq)
    return executor, manager.last_seq if manager is not None else 0
