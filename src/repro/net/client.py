"""Blocking TCP client for the ``repro-net`` protocol.

A thin, dependency-free socket client: one connection, sequential
request/response, version handshake on connect.  Error envelopes raise
:class:`~repro.net.protocol.ServerError` carrying the server's ``code``,
``retry_after``, and ``stale`` fields, so callers implement backoff
against the same hints the engine produced.

>>> with NetClient(host, port, tenant="default") as c:
...     c.submit("insert", 3, 7)
...     c.query("size")
"""

from __future__ import annotations

import socket
from typing import Any

from repro.net.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameDecoder,
    ProtocolError,
    ServerError,
    decode_chunk,
    encode_frame,
    hello_frame,
    request_frame,
)

__all__ = ["NetClient"]


class NetClient:
    """One handshaked connection to a net server (not thread-safe).

    The connection latches closed on the first transport or framing
    failure: a :class:`ProtocolError` mid-response leaves a half-read
    socket and a desynced decoder/``_next_id``, so every later call raises
    :class:`~repro.net.protocol.ConnectionClosed` instead of silently
    mis-pairing frames.  Reconnect by constructing a fresh client (or use
    :class:`~repro.net.resilient.ResilientClient`, which does so
    automatically).
    """

    def __init__(self, host: str, port: int, tenant: str = "default",
                 timeout: float = 30.0,
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        self.tenant = tenant
        self._closed_reason: str | None = None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder(max_frame)
        self._pending: list[dict] = []
        self._max_frame = max_frame
        self._next_id = 0
        try:
            self.hello = self.call("hello", _raw=hello_frame(0, tenant))
        except BaseException as exc:
            # a refused handshake leaves no client to close the socket
            self._poison(f"handshake failed: {exc!r}")
            raise

    # -- plumbing -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the connection has been poisoned or closed."""
        return self._closed_reason is not None

    def _poison(self, reason: str) -> None:
        """Latch the connection closed; further calls raise
        :class:`ConnectionClosed`."""
        if self._closed_reason is None:
            self._closed_reason = reason
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never matters here
            pass

    def call(self, verb: str, _raw: dict | None = None,
             **params) -> dict[str, Any]:
        """Send one request, block for its response envelope.

        Returns the OK envelope as a dict; raises :class:`ServerError` on
        an error envelope, :class:`ProtocolError` on a broken stream (the
        connection is then poisoned), and :class:`ConnectionClosed` on a
        dead socket or any use after a failure.
        """
        if self._closed_reason is not None:
            raise ConnectionClosed(
                f"connection is closed ({self._closed_reason})")
        self._next_id += 1
        req_id = self._next_id
        msg = dict(_raw, id=req_id) if _raw is not None else \
            request_frame(req_id, verb, **params)
        try:
            self._sock.sendall(encode_frame(msg, self._max_frame))
            reply = self._recv_one()
            if reply.get("id") != req_id:
                raise ProtocolError(
                    f"response id {reply.get('id')} != request id {req_id}")
        except (ProtocolError, ConnectionClosed) as exc:
            # half-read frame / desynced ids / peer gone: stream unusable
            self._poison(str(exc))
            raise
        except OSError as exc:  # reset, timeout, broken pipe, ...
            self._poison(repr(exc))
            raise ConnectionClosed(f"connection lost: {exc!r}") from exc
        if not reply.get("ok"):
            raise ServerError.from_envelope(reply)
        return reply

    def _recv_one(self) -> dict:
        while not self._pending:
            data = self._sock.recv(65536)
            if not data:
                if self._decoder.pending_bytes:
                    raise ProtocolError(
                        "server closed the connection mid-frame")
                raise ConnectionClosed("server closed the connection")
            self._pending.extend(self._decoder.feed(data))
        return self._pending.pop(0)

    def close(self) -> None:
        """Close the connection; idempotent."""
        self._poison("closed by caller")

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs ----------------------------------------------------------------

    def submit(self, op: str, u: int, v: int,
               idem: str | None = None) -> str:
        """Submit one update; returns the queue outcome. Sheds raise
        :class:`ServerError` with ``code`` ``shed``/``shed_degraded`` and a
        ``retry_after`` hint.

        ``idem`` is an optional client-generated idempotency key: the
        server records the outcome under the key at admission, and a
        retried submit carrying the same key returns the recorded outcome
        instead of re-applying the write (exactly-once across lost ACKs).
        """
        params: dict[str, Any] = {"op": op, "u": u, "v": v}
        if idem is not None:
            params["idem"] = idem
        return self.call("submit", **params)["status"]

    def submit_info(self, op: str, u: int, v: int,
                    idem: str | None = None) -> dict[str, Any]:
        """Like :meth:`submit` but returns the full OK envelope (includes
        ``deduped: true`` when an idempotency key was replayed)."""
        params: dict[str, Any] = {"op": op, "u": u, "v": v}
        if idem is not None:
            params["idem"] = idem
        return self.call("submit", **params)

    def query(self, kind: str, payload: Any = None,
              consistency: str = "snapshot") -> Any:
        """Read; returns just the value (see :meth:`query_info`)."""
        return self.query_info(kind, payload, consistency)["value"]

    def query_info(self, kind: str, payload: Any = None,
                   consistency: str = "snapshot") -> dict[str, Any]:
        """Read; returns ``{value, stale, as_of_seq}``."""
        params: dict[str, Any] = {"kind": kind, "consistency": consistency}
        if payload is not None:
            params["payload"] = list(payload) if isinstance(
                payload, tuple) else payload
        reply = self.call("query_info", **params)
        return {"value": reply["value"], "stale": reply["stale"],
                "as_of_seq": reply["as_of_seq"]}

    def query_batch(self, items, consistency: str = "snapshot"
                    ) -> dict[str, Any]:
        """Many reads in one frame, answered from one server snapshot.

        ``items`` is a list of ``(kind, payload)`` pairs (payload ``None``
        for nullary kinds).  Returns ``{values, stale, as_of_seq, unique,
        deduped}`` with ``values`` positionally aligned to ``items`` —
        each exactly what :meth:`query` would return for that item on the
        same snapshot.  One admission and ``service_time`` charge covers
        the whole batch, which is where the throughput win comes from.
        """
        wire_items = []
        for kind, payload in items:
            if isinstance(payload, tuple):
                payload = list(payload)
            wire_items.append([kind, payload])
        reply = self.call("query_batch", items=wire_items,
                          consistency=consistency)
        return {
            "values": reply["values"],
            "stale": reply["stale"],
            "as_of_seq": reply["as_of_seq"],
            "unique": reply["unique"],
            "deduped": reply["deduped"],
        }

    def edges(self) -> set[tuple[int, int]]:
        """The maintained output edge set, as canonical tuples."""
        return {tuple(e) for e in self.query("edges")}

    def metrics(self, all_tenants: bool = False) -> str:
        """Prometheus text exposition."""
        return self.call("metrics", all=all_tenants)["text"]

    def admin(self, action: str = "stats") -> dict[str, Any]:
        """Run an admin action (``stats``/``flush``/``tenants``/``drain``)."""
        return self.call("admin", action=action)

    def flush(self) -> int:
        """Flush the tenant's pending writes; returns the committed seq."""
        return self.call("admin", action="flush")["committed_seq"]

    def sync_info(self) -> dict[str, Any]:
        """Replica bootstrap: boot spec + shards + base_seq + log size."""
        return self.call("sync")

    def wal_fetch(self, offset: int,
                  max_bytes: int = 1 << 20) -> tuple[bytes, int, int]:
        """Fetch replication-log bytes from ``offset``.

        Returns ``(chunk, log_size, last_seq)``; an empty chunk with
        ``log_size == offset`` means the replica is caught up.
        """
        reply = self.call("wal_fetch", offset=offset, max_bytes=max_bytes)
        return (decode_chunk(reply["chunk"]), reply["log_size"],
                reply["last_seq"])
