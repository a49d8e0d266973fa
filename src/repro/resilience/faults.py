"""Fault-injection hooks threaded through the serving engine.

The supervisor, WAL, and checkpoint code each consult a
:class:`FaultInjector` at the moments where real deployments fail:
immediately before/after a shard applies a sub-batch, while the parent
waits on a shard's reply, while a WAL record is encoded, and between
writing and publishing a checkpoint.  The default injector does nothing;
the chaos harness (:mod:`repro.resilience.chaos`) substitutes seeded
plans.  Keeping the hooks in the production path (rather than
monkey-patching) is what makes chaos runs deterministic and cheap.
"""

from __future__ import annotations

__all__ = [
    "CheckpointInterrupted",
    "FaultInjector",
    "NULL_INJECTOR",
]


class CheckpointInterrupted(RuntimeError):
    """Raised by an injector to simulate a crash mid-checkpoint."""


class FaultInjector:
    """No-op base class; override the hooks you want to fire.

    Hooks return *actions* the caller executes, so the injector never
    touches engine internals directly:

    * :meth:`on_apply` → ``None``, ``"kill"`` (kill the shard's worker
      at that point), or, before the apply only, ``("stall", seconds)``
      (the worker blocks that long inside its update request; past the
      reply deadline a worker process is killed, rebuilt and the batch
      retried, while an in-process shard just runs late);
    * :meth:`on_recv` → ``None`` or ``"drop"`` (discard the shard's reply
      so the deadline expires);
    * :meth:`on_wal_record` → the bytes to actually write (corruption);
    * :meth:`on_checkpoint` → may raise :class:`CheckpointInterrupted`;
    * :meth:`on_restart` → pure observation (tests assert degraded-mode
      behaviour from inside the recovery window).
    """

    def on_apply(self, shard: int, when: str, seq: int | None):
        """Called with ``when`` in ``("pre", "post")`` around each apply."""
        return None

    def on_recv(self, shard: int, seq: int | None):
        """Called before the parent waits for shard's reply."""
        return None

    def on_wal_record(self, seq: int, data: bytes) -> bytes:
        """Called with each encoded WAL record before it hits disk."""
        return data

    def on_checkpoint(self, epoch: int) -> None:
        """Called between the checkpoint tmp-write and its publish."""

    def on_restart(self, shard: int, attempt: int) -> None:
        """Called after a shard worker has been restarted."""


NULL_INJECTOR = FaultInjector()
