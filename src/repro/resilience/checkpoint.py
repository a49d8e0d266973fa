"""Periodic checkpoints of per-shard graph state.

A checkpoint captures, for every shard, the *graph* edge set the shard is
responsible for, plus the WAL epoch (the last commit sequence number the
snapshot includes).  Recovery rebuilds a shard by constructing a fresh
seeded structure on the checkpointed edges and replaying the WAL tail
(``seq > epoch``) — the batch-dynamic determinism argument makes that
reproduce a valid state byte-for-byte on every attempt.

Format of ``checkpoint-<epoch:012d>.bin`` (all integers little-endian)::

    magic    8 bytes   b"RCKP1\\x00\\x00\\x00"
    header   [u32 crc32][u64 epoch][u32 shards][u32 count] * shards
    edges    [u64 u << 32 | v] * count, for each shard in order

Each shard's keys are sorted ascending, so the file is a deterministic
function of the state.  The CRC covers every byte after itself.  Vertex
ids use the WAL's u32 range; :func:`edge_keys` raises on an id outside
it instead of wrapping.

The payload is the key arrays themselves, in memory as on disk.
:meth:`CheckpointStore.save` takes one sorted ``uint64`` array per shard
and writes it without re-encoding; :meth:`CheckpointStore.load` returns
read-only views of the file's bytes.  A :class:`Checkpoint` owns its
arrays and never writes to them, and neither may anyone else holding
them: :class:`KeyTracker` hands out read-only arrays and builds each new
one rather than editing the last.  Edges are decoded only on recovery:
a bootstrap decodes every shard at once (:meth:`Checkpoint.sorted_edges`),
a restarting shard its own (:meth:`Checkpoint.edges`).  The steady-state
cost of a checkpoint is therefore the executor's :class:`KeyTracker`
advancing each shard's previous array by the batches applied since, not
an encode of the whole graph; the tracker reads only the shard's anchor
(base edges + applied batches), never a live edge set.

Checkpoints are written atomically (tmp file + ``fsync`` +
``os.replace``), so a crash mid-checkpoint leaves a ``.tmp`` orphan the
loader ignores.  Bad magic, a CRC mismatch or a wrong length marks a
file damaged rather than replayed; a file of any other format (e.g. a
JSON checkpoint of an older release) fails the magic check.  Only the
newest checkpoint is kept.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Collection

import numpy as np

from repro.graph.dynamic_graph import Edge, edge_array
from repro.workloads.streams import UpdateBatch

__all__ = ["Checkpoint", "CheckpointError", "CheckpointStore", "KeyTracker",
           "edge_keys"]

_PREFIX = "checkpoint-"
_SUFFIX = ".bin"
# every published checkpoint name, whatever its format: checkpoint-<epoch>.*
_CANDIDATE = re.compile(rf"{_PREFIX}(\d+)\..+")
_MAGIC = b"RCKP1\x00\x00\x00"
_CRC = struct.Struct("<I")
_BODY = len(_MAGIC) + _CRC.size         # first byte the CRC covers
_FIXED = struct.Struct("<QI")           # epoch, shards
_KEY = np.dtype("<u8")
_U32_MAX = 0xFFFFFFFF


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be trusted."""


@dataclass(eq=False)
class Checkpoint:
    """Epoch + per-shard sorted edge keys (see the module docstring)."""

    epoch: int
    shard_keys: list[np.ndarray]

    @property
    def shards(self) -> int:
        return len(self.shard_keys)

    def edges(self, shard: int) -> set[Edge]:
        """Shard ``shard``'s edge set, decoded from its keys (a fresh set
        per call)."""
        return set(_key_edges(self.shard_keys[shard]))

    def sorted_edges(self) -> list[Edge]:
        """Every shard's edges in ascending order: one sort of the
        concatenated keys, decoded once."""
        return _key_edges(np.sort(np.concatenate(self.shard_keys)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return (self.epoch == other.epoch
                and self.shards == other.shards
                and all(np.array_equal(a, b) for a, b
                        in zip(self.shard_keys, other.shard_keys)))


def pair_keys(edges: Collection[Edge]) -> np.ndarray:
    """Unsorted ``u << 32 | v`` keys of the pairs as given (ValueError for
    an id outside the u32 range)."""
    try:
        ids = edge_array(edges)
    except OverflowError:
        ids = None
    if ids is None or ids.size and (ids.min() < 0 or ids.max() > _U32_MAX):
        raise ValueError(f"vertex ids must lie in [0, {_U32_MAX}]")
    return ids[:, 0].astype(_KEY) << np.uint64(32) | ids[:, 1].astype(_KEY)


def edge_keys(edges: Collection[Edge]) -> np.ndarray:
    """Sorted ``u << 32 | v`` keys of a set of edges (ValueError for an
    id outside the u32 range)."""
    keys = pair_keys(edges)
    keys.sort()
    return keys


def _key_edges(keys: np.ndarray) -> list[Edge]:
    """The ``(u, v)`` tuples of ``u << 32 | v`` keys, in key order."""
    return list(zip((keys >> np.uint64(32)).tolist(),
                    (keys & np.uint64(_U32_MAX)).tolist()))


class KeyTracker:
    """One shard's checkpoint keys, advanced incrementally.

    :meth:`keys` is handed the shard's anchor: the base edges it was last
    built on and the sub-batches applied since.  When the history is the
    same list object as last time, only the batches appended since are
    looked at, so the cost is the window's size plus one pass over the
    array, not an encode of the whole graph.  A different list (a
    supervised restart or a quarantine re-anchored the shard) encodes the
    new base and advances it by the whole history.
    """

    __slots__ = ("_keys", "_history", "_mark")

    def __init__(self) -> None:
        self._keys: np.ndarray | None = None
        self._history: list | None = None
        self._mark = 0

    def keys(self, history: list[UpdateBatch],
             base: Collection[Edge]) -> np.ndarray:
        """Sorted, read-only keys of the shard's edge set: ``base`` after
        every batch of ``history``."""
        if self._keys is None or history is not self._history:
            self._keys = edge_keys(set(base))
            self._keys.flags.writeable = False
            self._history, self._mark = history, 0
        self._keys = _advance(self._keys, history[self._mark:])
        self._mark = len(history)
        return self._keys


def _advance(keys: np.ndarray, window: list[UpdateBatch]) -> np.ndarray:
    """``keys`` with the window's net effect applied: per edge, the last
    batch that touched it decides, a batch's insertions winning over its
    deletions (:meth:`~repro.workloads.streams.Workload.replay` applies
    deletions first).  Returns a new read-only array, or ``keys`` itself
    for an empty window."""
    live: dict[Edge, bool] = {}
    for b in window:
        live.update(dict.fromkeys(b.deletions, False))
        live.update(dict.fromkeys(b.insertions, True))
    if not live:
        return keys
    gone = edge_keys(live)
    at = np.searchsorted(keys, gone)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == gone[hit]
    kept = np.delete(keys, at[hit])
    added = edge_keys([e for e, on in live.items() if on])
    out = np.insert(kept, np.searchsorted(kept, added), added)
    out.flags.writeable = False
    return out


def _encode(epoch: int, shard_keys: list[np.ndarray]) -> list:
    """The file as buffers: magic, CRC, header, one key array per shard."""
    keys = [np.ascontiguousarray(k, dtype=_KEY) for k in shard_keys]
    for k in keys:
        if k.ndim != 1 or (k.size > 1 and not (k[1:] > k[:-1]).all()):
            raise ValueError("checkpoint keys must be a strictly "
                             "ascending 1-d array per shard")
    head = _FIXED.pack(epoch, len(keys)) + struct.pack(
        f"<{len(keys)}I", *(k.size for k in keys))
    crc = zlib.crc32(head)
    for k in keys:
        crc = zlib.crc32(k, crc)
    return [_MAGIC, _CRC.pack(crc), head, *keys]


def _decode(data: bytes) -> Checkpoint:
    """Parse and verify one checkpoint file's bytes (ValueError if bad)."""
    counts_at = _BODY + _FIXED.size
    if not data.startswith(_MAGIC):
        raise ValueError("bad magic")
    if len(data) < counts_at:
        raise ValueError(f"{len(data)} bytes is shorter than the header")
    if zlib.crc32(memoryview(data)[_BODY:]) != \
            _CRC.unpack_from(data, len(_MAGIC))[0]:
        raise ValueError("crc mismatch")
    epoch, shards = _FIXED.unpack_from(data, _BODY)
    off = counts_at + 4 * shards
    counts = (struct.unpack_from(f"<{shards}I", data, counts_at)
              if len(data) >= off else ())
    if len(data) != off + _KEY.itemsize * sum(counts):
        raise ValueError(f"length {len(data)} does not match the header")
    shard_keys = []
    for count in counts:
        keys = np.frombuffer(data, dtype=_KEY, count=count, offset=off)
        off += keys.nbytes
        shard_keys.append(keys)
    return Checkpoint(epoch=epoch, shard_keys=shard_keys)


class CheckpointStore:
    """Atomic write / newest-valid load over a checkpoint directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, epoch: int) -> Path:
        return self.directory / f"{_PREFIX}{epoch:012d}{_SUFFIX}"

    def save(self, epoch: int, shard_keys: list[np.ndarray],
             interrupt=None) -> Path:
        """Write checkpoint ``epoch`` atomically; prunes older ones.

        ``shard_keys`` holds each shard's sorted keys (:func:`edge_keys`);
        ValueError, before anything is written, if one is not strictly
        ascending.
        ``interrupt`` is a fault-injection hook called between writing the
        tmp file and publishing it — raising there simulates a crash
        mid-checkpoint (the orphaned ``.tmp`` must be ignored on load).
        """
        buffers = _encode(epoch, shard_keys)
        path = self._path(epoch)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            for buf in buffers:
                fh.write(buf)
            fh.flush()
            os.fsync(fh.fileno())
        if interrupt is not None:
            interrupt(epoch)
        os.replace(tmp, path)
        for old in self.directory.glob(f"{_PREFIX}*{_SUFFIX}"):
            if old != path:
                old.unlink(missing_ok=True)
        return path

    def load(self) -> Checkpoint | None:
        """Newest valid checkpoint, or None.  Every
        ``checkpoint-<epoch>.*`` file but a ``.tmp`` orphan is a
        candidate; damaged or foreign-format ones are skipped (older
        valid ones win); if candidates exist but none is valid, raise
        :class:`CheckpointError` naming them rather than silently restart
        from zero.
        """
        candidates = []
        for path in self.directory.iterdir():
            match = _CANDIDATE.fullmatch(path.name)
            if match and not path.name.endswith(".tmp"):
                candidates.append((int(match.group(1)), path))
        damaged: list[str] = []
        for _epoch, path in sorted(candidates, reverse=True):
            try:
                return _decode(path.read_bytes())
            except ValueError as exc:
                damaged.append(f"{path.name}: {exc}")
        if damaged:
            raise CheckpointError(
                "no valid checkpoint; damaged candidates: "
                + "; ".join(damaged)
            )
        return None
