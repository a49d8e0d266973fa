"""Fault tolerance for the serving engine (WAL, checkpoints, chaos).

The batch-dynamic setting makes recovery unusually cheap to make exact:
a structure's state is fully determined by its initial graph plus the
sequence of applied batches, so durability is just *log the batches*
(:mod:`~repro.resilience.wal`), *snapshot the per-shard edge sets now and
then* (:mod:`~repro.resilience.checkpoint`), and *replay the tail* on
restart (:mod:`~repro.resilience.manager`).  The shard supervisor in
:class:`~repro.service.shard.ShardedExecutor` uses the same machinery to
restart crashed or hung workers mid-flight, and the deterministic chaos
harness (:mod:`~repro.resilience.chaos`) proves the whole loop closed by
injecting seeded faults and checking the recovered state against the
``Workload.replay`` ground truth through the differential oracle.

See ``docs/resilience.md`` for the failure model and formats.
"""

from repro.resilience.chaos import (
    CATALOGUE,
    FAMILIES,
    ChaosConfig,
    ChaosReport,
    ChaosRunResult,
    run_campaign,
)
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    KeyTracker,
    edge_keys,
)
from repro.resilience.faults import (
    NULL_INJECTOR,
    CheckpointInterrupted,
    FaultInjector,
)
from repro.resilience.manager import (
    RecoveryManager,
    ResilienceConfig,
    SupervisionConfig,
    bootstrap_executor,
)
from repro.resilience.wal import (
    WalCorruptionError,
    WalFollower,
    WalReadResult,
    WalRecord,
    WalStreamDecoder,
    WalTruncatedError,
    WalWriter,
    corrupt_record,
    read_wal,
)

__all__ = [
    "CATALOGUE",
    "ChaosConfig",
    "ChaosReport",
    "ChaosRunResult",
    "Checkpoint",
    "CheckpointError",
    "CheckpointInterrupted",
    "CheckpointStore",
    "FAMILIES",
    "FaultInjector",
    "KeyTracker",
    "NULL_INJECTOR",
    "RecoveryManager",
    "ResilienceConfig",
    "SupervisionConfig",
    "WalCorruptionError",
    "WalFollower",
    "WalReadResult",
    "WalRecord",
    "WalStreamDecoder",
    "WalTruncatedError",
    "WalWriter",
    "bootstrap_executor",
    "corrupt_record",
    "edge_keys",
    "read_wal",
    "run_campaign",
]
