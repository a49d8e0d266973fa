"""Write-ahead log of applied update batches.

The serving engine's state is fully determined by its initial graph plus
the sequence of coalesced batches it applied (the structures are seeded
Las Vegas — same inputs, same state).  Persisting that sequence is
therefore a complete recovery story: a crashed worker, or the whole
engine, rebuilds by replaying the log on top of the last checkpoint.

Format (all integers little-endian)::

    header   8 bytes   b"RWAL1\\x00\\x00\\x00"
    record   [u32 length][u32 crc32(payload)][payload]
    payload  [u64 seq][u32 n_ins][u32 n_del][u32 u, u32 v] * (n_ins+n_del)

Failure semantics, chosen to match what a ``kill -9`` can actually
produce:

* a record whose bytes run past end-of-file is a **torn tail** — the
  writer died mid-append; the reader drops it and reports how many bytes
  it ignored;
* a checksum mismatch on the **final** record is treated the same way
  (the tail was partially overwritten, e.g. by a crash during append);
* a checksum mismatch on a **mid-log** record means the log itself was
  damaged after the fact; that is not survivable by truncation, so the
  reader raises :class:`WalCorruptionError` naming the sequence number;
* sequence numbers must be strictly increasing; a regression raises
  :class:`WalCorruptionError` too.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator

from repro.workloads.streams import UpdateBatch

__all__ = [
    "WAL_MAGIC",
    "WalCorruptionError",
    "WalFollower",
    "WalReadResult",
    "WalRecord",
    "WalStreamDecoder",
    "WalTruncatedError",
    "WalWriter",
    "corrupt_record",
    "decode_record",
    "encode_record",
    "read_wal",
]

WAL_MAGIC = b"RWAL1\x00\x00\x00"
_HEADER = struct.Struct("<II")          # length, crc32
_PAYLOAD_FIXED = struct.Struct("<QII")  # seq, n_ins, n_del
_EDGE = struct.Struct("<II")


class WalCorruptionError(RuntimeError):
    """A WAL record failed validation in a way truncation cannot repair."""

    def __init__(self, message: str, seq: int | None = None) -> None:
        super().__init__(message)
        self.seq = seq


class WalTruncatedError(WalCorruptionError):
    """The log shrank under a live follower (it was rewritten/truncated).

    A follower's byte offset is only meaningful against an append-only
    stream; once :meth:`WalWriter.truncate_through` rewrites the file the
    follower must be discarded and the consumer re-bootstrapped."""


@dataclass(frozen=True)
class WalRecord:
    """One logged batch: its commit sequence number plus the batch."""

    seq: int
    batch: UpdateBatch


@dataclass
class WalReadResult:
    """Everything :func:`read_wal` recovered from a log file."""

    records: list[WalRecord] = field(default_factory=list)
    dropped_tail_bytes: int = 0   # torn/corrupt tail ignored by the reader
    dropped_tail_seq: int | None = None  # seq of the dropped record, if parsed

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


def encode_record(seq: int, batch: UpdateBatch) -> bytes:
    """Serialize one record (header + checksummed payload)."""
    n_ins, n_del = len(batch.insertions), len(batch.deletions)
    payload = struct.pack(
        f"<QII{2 * (n_ins + n_del)}I", seq, n_ins, n_del,
        *chain.from_iterable(batch.insertions),
        *chain.from_iterable(batch.deletions),
    )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _payload_seq(payload) -> int:
    """The seq of a record payload, after checking its length against
    the edge counts it declares (:class:`WalCorruptionError` if not)."""
    if len(payload) < _PAYLOAD_FIXED.size:
        raise WalCorruptionError(
            f"record payload is {len(payload)} bytes, shorter than its "
            f"{_PAYLOAD_FIXED.size}-byte header")
    seq, n_ins, n_del = _PAYLOAD_FIXED.unpack_from(payload, 0)
    need = _PAYLOAD_FIXED.size + (n_ins + n_del) * _EDGE.size
    if len(payload) != need:
        raise WalCorruptionError(
            f"record seq={seq}: payload is {len(payload)} bytes, "
            f"edge counts imply {need}", seq=seq,
        )
    return seq


def decode_record(payload: bytes) -> WalRecord:
    """Parse a record payload (already checksum-verified)."""
    seq = _payload_seq(payload)
    _, n_ins, _ = _PAYLOAD_FIXED.unpack_from(payload, 0)
    edges = list(_EDGE.iter_unpack(
        memoryview(payload)[_PAYLOAD_FIXED.size:]))
    return WalRecord(seq, UpdateBatch(insertions=edges[:n_ins],
                                      deletions=edges[n_ins:]))


class WalWriter:
    """Append-only writer; creates the file (with magic) on first use."""

    def __init__(self, path: str | Path, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        new = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "ab")
        if new:
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
        self.bytes_written = self.path.stat().st_size

    def append(self, seq: int, batch: UpdateBatch,
               mutate=None) -> int:
        """Log one applied batch; returns bytes appended.

        ``mutate`` is a fault-injection hook: it receives the encoded
        record and returns the bytes actually written (the chaos harness
        uses it to plant corrupt records).
        """
        data = encode_record(seq, batch)
        if mutate is not None:
            data = mutate(seq, data)
        self._fh.write(data)
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self.bytes_written += len(data)
        return len(data)

    def close(self) -> None:
        """Release the file handle (appends after close are an error)."""
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - already closed by the OS
            pass

    def truncate_through(self, epoch: int) -> None:
        """Drop every record with ``seq <= epoch`` (checkpoint absorbed it).

        Walks the log with :func:`read_wal`'s checks but decodes nothing:
        the records it keeps are copied as they are, and a checkpoint at
        the last logged seq keeps none.  Damage :func:`read_wal` would
        refuse raises here too, before the file is touched; a torn or
        corrupt final record is dropped.  Rewrites atomically (tmp +
        rename) so a crash mid-truncation leaves either the old or the
        new log, never a half-written one.
        """
        data = self.path.read_bytes()
        view = memoryview(data)
        kept = [view[off:end] for seq, off, end
                in _walk(self.path, data, WalReadResult()) if seq > epoch]
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(WAL_MAGIC)
            for frame in kept:
                fh.write(frame)
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        self.bytes_written = self.path.stat().st_size


def _walk(path: Path, data: bytes,
          result: WalReadResult) -> Iterator[tuple[int, int, int]]:
    """Yield ``(seq, off, end)`` for every sound record of a log's bytes,
    ``data[off:end]`` being its whole frame, without decoding any.

    Checks the magic, each header, CRC and payload length against the
    edge counts, and that seqs strictly increase; mid-log damage raises
    :class:`WalCorruptionError`.  A torn or corrupt final record ends the
    walk and is reported in ``result`` (see the module docstring).
    """
    if data and not data.startswith(WAL_MAGIC):
        raise WalCorruptionError(f"{path}: bad WAL magic")
    view = memoryview(data)
    off = len(WAL_MAGIC)
    last_seq = 0
    while off < len(data):
        if off + _HEADER.size > len(data):
            result.dropped_tail_bytes = len(data) - off
            return
        length, crc = _HEADER.unpack_from(data, off)
        start = off + _HEADER.size
        end = start + length
        if end > len(data):  # torn tail: writer died mid-append
            result.dropped_tail_bytes = len(data) - off
            return
        payload = view[start:end]
        if zlib.crc32(payload) != crc:
            if end == len(data):
                # final record: treat like a torn tail, but remember which
                # seq was lost if the (unverified) payload still parses
                result.dropped_tail_bytes = len(data) - off
                try:
                    result.dropped_tail_seq = _payload_seq(payload)
                except WalCorruptionError:
                    result.dropped_tail_seq = None
                return
            raise WalCorruptionError(
                f"{path}: checksum mismatch on record seq={last_seq + 1} "
                f"(after seq={last_seq}, offset {off}); the log is damaged "
                "mid-stream and cannot be repaired by truncation",
                seq=last_seq + 1,
            )
        seq = _payload_seq(payload)
        if seq <= last_seq:
            raise WalCorruptionError(
                f"{path}: sequence regression {last_seq} -> {seq} "
                f"at offset {off}", seq=seq,
            )
        yield seq, off, end
        last_seq = seq
        off = end


def read_wal(path: str | Path) -> WalReadResult:
    """Read a log tolerantly (see module docstring for the tail rules)."""
    path = Path(path)
    result = WalReadResult()
    if not path.exists():
        return result
    data = path.read_bytes()
    result.records = [decode_record(data[off + _HEADER.size:end])
                      for _, off, end in _walk(path, data, result)]
    return result


class WalStreamDecoder:
    """Incremental decoder for the WAL byte stream (magic + records).

    Feed arbitrarily-chunked bytes — a file tail, a replication fetch, a
    socket read — and get back every record that *completes*; a torn tail
    (header or payload still in flight) is buffered until later bytes
    finish it, exactly the semantics :func:`read_wal` applies at end of
    file.  A checksum mismatch is only tolerated on the stream's current
    tail (the bytes may still be mid-append/mid-flight); the moment bytes
    *beyond* the bad record arrive it is mid-stream damage and raises
    :class:`WalCorruptionError`.

    ``offset`` is the count of fully-consumed stream bytes (magic plus
    whole records); it is the resume cursor for log-shipping replicas.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.offset = 0          # stream bytes fully consumed
        self.last_seq = 0
        self._saw_magic = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete record."""
        return len(self._buf)

    def discard_pending(self) -> int:
        """Drop the held torn tail; returns the byte count dropped.

        For when the *producer* is known to have rewritten its tail: a
        crashed writer's recovery truncates a partial final record, so
        the prefix this decoder buffered will never be completed — the
        next bytes at ``offset`` are a fresh continuation of the stream.
        """
        n = len(self._buf)
        self._buf.clear()
        return n

    def feed(self, data: bytes) -> list[WalRecord]:
        """Consume ``data``; return the records it completed, in order."""
        self._buf += data
        out: list[WalRecord] = []
        if not self._saw_magic:
            if len(self._buf) < len(WAL_MAGIC):
                return out
            if bytes(self._buf[: len(WAL_MAGIC)]) != WAL_MAGIC:
                raise WalCorruptionError("bad WAL magic in stream")
            del self._buf[: len(WAL_MAGIC)]
            self.offset += len(WAL_MAGIC)
            self._saw_magic = True
        while True:
            if len(self._buf) < _HEADER.size:
                return out
            length, crc = _HEADER.unpack_from(self._buf, 0)
            end = _HEADER.size + length
            if len(self._buf) < end:
                return out          # torn tail: wait for the rest
            payload = bytes(self._buf[_HEADER.size: end])
            if zlib.crc32(payload) != crc:
                if len(self._buf) == end:
                    # bad checksum on the very tail: may still be a
                    # partially-flushed append — hold, do not consume
                    return out
                raise WalCorruptionError(
                    f"stream checksum mismatch after seq={self.last_seq}",
                    seq=self.last_seq + 1,
                )
            record = decode_record(payload)
            if record.seq <= self.last_seq:
                raise WalCorruptionError(
                    f"stream sequence regression {self.last_seq} -> "
                    f"{record.seq}", seq=record.seq,
                )
            del self._buf[:end]
            self.offset += end
            self.last_seq = record.seq
            out.append(record)


class WalFollower:
    """Incremental tail-reader of a WAL file (log-shipping primitive).

    Unlike :func:`read_wal`, which re-reads the whole log on every call, a
    follower remembers its byte ``offset`` and each :meth:`poll` returns
    only the records appended since — honoring the torn-tail rules (a
    partial final record is held, not dropped, and delivered once a later
    append completes it; a checksum-failing final record is held too, and
    becomes a :class:`WalCorruptionError` only if bytes ever land beyond
    it).  Used by the replication path (:mod:`repro.net.replica`) and the
    replica chaos plans.

    Raises :class:`WalTruncatedError` when the file shrinks below the
    follower's consumed offset (e.g. a checkpoint truncated the log): the
    byte cursor is void and the consumer must re-bootstrap.
    """

    def __init__(self, path: str | Path, offset: int = 0) -> None:
        self.path = Path(path)
        self._decoder = WalStreamDecoder()
        if offset:
            raise ValueError(
                "WalFollower resumes only from offset 0; to resume "
                "mid-stream keep the follower object alive"
            )

    @property
    def offset(self) -> int:
        """Stream bytes fully consumed (resume cursor)."""
        return self._decoder.offset

    @property
    def last_seq(self) -> int:
        return self._decoder.last_seq

    def poll(self) -> list[WalRecord]:
        """Return every record appended (and completed) since last poll."""
        if not self.path.exists():
            return []
        size = self.path.stat().st_size
        read_from = self.offset + self._decoder.pending_bytes
        if size < self.offset:
            raise WalTruncatedError(
                f"{self.path}: shrank to {size} bytes below follower "
                f"offset {self.offset}; re-bootstrap the follower"
            )
        if size < read_from:
            # the file shrank into the torn tail we were holding: the
            # writer restarted and its crash recovery truncated the
            # partial record.  Our buffered prefix will never be
            # completed — drop it and resume from the consumed offset,
            # where the restarted writer's re-append continues the stream.
            self._decoder.discard_pending()
            read_from = self.offset
        if size == read_from:
            return []
        with open(self.path, "rb") as fh:
            fh.seek(read_from)
            chunk = fh.read(size - read_from)
        return self._decoder.feed(chunk)


def corrupt_record(path: str | Path, seq: int) -> bool:
    """Flip one payload byte of record ``seq`` in place (chaos/test helper).

    Returns True if the record was found and damaged.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    off = len(WAL_MAGIC)
    while off + _HEADER.size <= len(data):
        length, _crc = _HEADER.unpack_from(data, off)
        start = off + _HEADER.size
        end = start + length
        if end > len(data):
            return False
        rec_seq = _PAYLOAD_FIXED.unpack_from(data, start)[0]
        if rec_seq == seq:
            # flip the *last* payload byte: the checksum breaks but the
            # seq field stays parseable, so tail-drop reporting can still
            # name which record was lost
            data[end - 1] ^= 0xFF
            path.write_bytes(bytes(data))
            return True
        off = end
    return False
