"""Asyncio TCP front end over :class:`~repro.service.engine.SpannerService`.

One server process hosts a :class:`~repro.net.tenants.TenantManager`; each
accepted connection handshakes onto a tenant (see
:mod:`repro.net.protocol`) and then speaks request/response frames:

==============  =============================================================
verb            semantics
==============  =============================================================
``hello``       version handshake + tenant binding (must be frame #1)
``submit``      one edge update → engine ``submit_update`` (sheds surface
                as ``shed`` / ``shed_degraded`` error envelopes with
                ``retry_after``)
``query``       read (``size``/``edges``/``contains``/``distance``/
                ``connected``); response carries ``stale`` + ``as_of_seq``
``query_info``  alias of ``query`` (kept distinct for wire-log clarity)
``query_batch``  many reads in one frame → engine ``query_batch``; the
                 batch is answered from one snapshot via shared
                 traversals (one admission charge, one ``service_time``
                 charge for the whole batch); response carries
                 positionally-aligned ``values`` plus one ``stale`` /
                 ``as_of_seq`` pair and dedup stats
``metrics``     Prometheus text exposition for the bound tenant (or every
                tenant with ``all: true``)
``admin``       ``flush`` / ``tenants`` / ``stats`` / ``drain``
``sync``        replica bootstrap info (boot spec, shards, base_seq)
``wal_fetch``   a chunk of the tenant's replication log from a byte offset
==============  =============================================================

Each connection is an :class:`asyncio.Protocol` that answers the frames
of a read in order inside ``data_received``.  Backpressure is per
connection: while a verb waits (``admin flush``, or a query under
``service_time``) later frames are held back; while the write buffer is
over its high-water mark nothing is answered and reading pauses, and a
reader that does not drain within ``write_deadline`` is evicted, so a
slow reader throttles only itself.  Query admission is per tenant
(``AdmissionConfig.max_inflight_queries``), and query *execution* holds a
server-wide slot semaphore for ``service_time`` seconds when a simulated
per-query cost is configured (the capacity model the net benchmarks pin).

Threading: every verb runs on the event loop except ``admin flush``,
which commits in a worker thread.  A ``submit`` calls the engine's
``submit_update`` directly: the engine's ingest lock is never held across
a commit, so it does not wait behind one.  On an autostart tenant a
submit that makes a flush due only wakes the tenant's background
flusher; an ``autostart=False`` tenant has no flusher, so its due
flushes run on the loop.

``drain()`` — wired to SIGTERM by :func:`serve` — stops the listener,
closes every connection with nothing in flight, lets the others finish
their request and close (up to ``drain_timeout``), then flushes and
checkpoints every tenant before returning.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import signal
import threading
from collections import deque
from dataclasses import dataclass

from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_NAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_chunk,
    encode_frame,
    error_envelope,
    ok_envelope,
)
from repro.net.tenants import Tenant, TenantManager

__all__ = ["NetServer", "NetServerConfig", "ThreadedServer", "serve"]


@dataclass
class NetServerConfig:
    host: str = "127.0.0.1"
    port: int = 0                   # 0 = ephemeral (bound port on .port)
    max_frame: int = MAX_FRAME_BYTES
    read_only: bool = False         # replica front end: reject writes
    query_slots: int = 8            # server-wide concurrent query capacity
    service_time: float = 0.0       # simulated per-query engine seconds
    drain_timeout: float = 5.0      # seconds to wait out live connections
    max_chunk_bytes: int = 1 << 20  # wal_fetch reply cap (pre-base64)
    # a client that starts a frame must finish it within read_deadline or
    # the connection is evicted (a stalled half-frame pins server state);
    # idle_timeout bounds the wait *between* frames (None = keep-alive
    # forever); write_deadline evicts readers too slow to drain responses
    read_deadline: float | None = 30.0
    idle_timeout: float | None = None
    write_deadline: float | None = 30.0


class NetServer:
    """The asyncio server; create, ``await start()``, then ``drain()``."""

    def __init__(self, tenants: TenantManager,
                 config: NetServerConfig | None = None) -> None:
        self.tenants = tenants
        self.config = config or NetServerConfig()
        self.host: str | None = None
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Connection] = set()
        self._draining = False
        self._slots: asyncio.Semaphore | None = None
        self.connections_served = 0
        self.requests_served = 0
        self.evictions = {"mid_frame": 0, "idle": 0, "slow_reader": 0}

    async def start(self) -> None:
        """Bind the listener and record the resolved host/port."""
        cfg = self.config
        self._slots = asyncio.Semaphore(max(1, cfg.query_slots))
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=cfg.host, port=cfg.port)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, flush."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        for conn in list(self._conns):
            conn.pump()                 # closes it unless mid-request
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._conns and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self._conns):
            conn.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        await asyncio.to_thread(self.tenants.flush_all)

    # -- verbs ----------------------------------------------------------------

    def _handshake(self, msg: dict) -> tuple[dict, Tenant | None]:
        req_id = msg.get("id")
        if msg.get("verb") != "hello":
            return error_envelope(
                req_id, "handshake_required",
                "first frame must be a hello"), None
        if msg.get("protocol") != PROTOCOL_NAME or \
                msg.get("version") != PROTOCOL_VERSION:
            return error_envelope(
                req_id, "version_mismatch",
                f"server speaks {PROTOCOL_NAME}/{PROTOCOL_VERSION}, client "
                f"offered {msg.get('protocol')}/{msg.get('version')}"), None
        name = msg.get("tenant", "default")
        tenant = self.tenants.get(name)
        if tenant is None:
            return error_envelope(
                req_id, "unknown_tenant",
                f"no tenant {name!r}; available: "
                f"{self.tenants.names()}"), None
        return ok_envelope(
            req_id, protocol=PROTOCOL_NAME, version=PROTOCOL_VERSION,
            tenant=name, read_only=self.config.read_only,
            tenants=self.tenants.names(),
        ), tenant

    def _dispatch(self, tenant: Tenant, msg: dict) -> dict | asyncio.Future:
        """Answer one request: its envelope, or a future of it for the two
        verbs that wait (``admin flush``, a query under ``service_time``)."""
        req_id = msg.get("id")
        verb = msg.get("verb")
        try:
            if verb == "submit":
                return self._do_submit(tenant, req_id, msg)
            if verb in ("query", "query_info"):
                return self._do_query(tenant, req_id, msg)
            if verb == "query_batch":
                return self._do_query_batch(tenant, req_id, msg)
            if verb == "metrics":
                return self._do_metrics(tenant, req_id, msg)
            if verb == "admin":
                return self._do_admin(tenant, req_id, msg)
            if verb == "sync":
                return ok_envelope(req_id, **tenant.sync_info())
            if verb == "wal_fetch":
                return self._do_wal_fetch(tenant, req_id, msg)
            return error_envelope(req_id, "unknown_verb",
                                  f"unknown verb {verb!r}")
        except Exception as exc:
            return _failure(req_id, exc)

    async def _slotted(self, tenant: Tenant, req_id, answer) -> dict:
        """Hold a server-wide query slot for ``service_time`` seconds, then
        answer: the capacity model the replica-scaling benchmark pins."""
        try:
            assert self._slots is not None
            async with self._slots:
                await asyncio.sleep(self.config.service_time)
                return answer()
        except Exception as exc:
            return _failure(req_id, exc)
        finally:
            tenant.inflight_queries -= 1

    def _query(self, tenant: Tenant, req_id, answer):
        """Admit one query charge, then ``answer()`` now, or after a slot
        when ``service_time`` is set."""
        cfg = self.config
        decision = tenant.service.admission.admit_query(
            tenant.inflight_queries, cfg.service_time)
        if not decision.admitted:
            tenant.service.metrics.counter("query_shed").inc()
            return error_envelope(req_id, "shed_query",
                                  "tenant read quota exhausted",
                                  retry_after=decision.retry_after)
        if cfg.service_time <= 0:
            return answer()
        tenant.inflight_queries += 1
        return asyncio.ensure_future(self._slotted(tenant, req_id, answer))

    def _do_submit(self, tenant: Tenant, req_id, msg: dict) -> dict:
        if self.config.read_only:
            return error_envelope(
                req_id, "read_only",
                "this server is a read replica; submit updates to the "
                "primary")
        op, u, v = msg["op"], int(msg["u"]), int(msg["v"])
        key = msg.get("idem")
        if key is not None:
            key = str(key)
            claim, outcome = tenant.idempotency.begin(key)
            if claim == "dup":
                # retried submit after a lost ACK: answer from the record,
                # do NOT re-offer — the original may already be committed
                tenant.service.metrics.counter(
                    "idempotent_dedup_hits").inc()
                assert outcome is not None
                return ok_envelope(req_id, deduped=True, **outcome)
            if claim == "pending":
                # a concurrent twin (retry racing its original): tell the
                # client to come back once the original resolves
                return error_envelope(
                    req_id, "idem_in_flight",
                    f"idempotency key {key!r} is being processed",
                    retry_after=tenant.service.admission.config.
                    min_retry_after)
        try:
            resp = tenant.service.submit_update(op, u, v)
        except BaseException:
            if key is not None:
                tenant.idempotency.abort(key)
            raise
        if not resp.accepted:
            # the op was not processed; release the claim so a retry with
            # the same key is re-admitted rather than replayed as "shed"
            if key is not None:
                tenant.idempotency.abort(key)
            return error_envelope(req_id, resp.outcome,
                                  "update shed by admission control",
                                  retry_after=resp.retry_after)
        if key is not None:
            tenant.idempotency.commit(key, {"status": resp.outcome})
        return ok_envelope(req_id, status=resp.outcome)

    def _do_query(self, tenant: Tenant, req_id, msg: dict):
        kind = msg["kind"]
        payload = msg.get("payload")
        if isinstance(payload, list):
            payload = tuple(payload)

        def answer() -> dict:
            result = tenant.service.query_info(
                kind, payload, msg.get("consistency", "snapshot"))
            return ok_envelope(
                req_id, value=_jsonable(result.value), stale=result.stale,
                as_of_seq=result.as_of_seq)
        return self._query(tenant, req_id, answer)

    def _do_query_batch(self, tenant: Tenant, req_id, msg: dict):
        items = []
        for entry in msg["items"]:
            kind = entry[0]
            payload = entry[1] if len(entry) > 1 else None
            if isinstance(payload, list):
                payload = tuple(payload)
            items.append((kind, payload))

        def answer() -> dict:
            svc = tenant.service
            results = svc.query_batch(items,
                                      msg.get("consistency", "snapshot"))
            stats = svc.last_query_stats
            return ok_envelope(
                req_id,
                values=[_jsonable(r.value) for r in results],
                stale=bool(results and results[0].stale),
                as_of_seq=(results[0].as_of_seq if results
                           else svc.committed_seq),
                unique=stats.unique if stats else 0,
                deduped=(stats.queries - stats.unique) if stats else 0,
            )
        # one admission charge and one service_time charge per batch —
        # that amortization is the whole point of batching reads
        return self._query(tenant, req_id, answer)

    def _do_metrics(self, tenant: Tenant, req_id, msg: dict) -> dict:
        if msg.get("all"):
            text = self.tenants.render_prometheus(extra=self._own_metrics)
        else:
            text = tenant.service.metrics.render_prometheus(
                labels={"tenant": tenant.name}) + self._own_metrics()
        return ok_envelope(req_id, text=text)

    def _own_metrics(self) -> str:
        eviction_lines = "".join(
            f'repro_net_evictions{{reason="{reason}"}} '
            f"{self.evictions[reason]}\n"
            for reason in sorted(self.evictions)
        )
        return (
            "# TYPE repro_net_connections_served counter\n"
            f"repro_net_connections_served {self.connections_served}\n"
            "# TYPE repro_net_requests_served counter\n"
            f"repro_net_requests_served {self.requests_served}\n"
            "# TYPE repro_net_evictions counter\n"
            f"{eviction_lines}"
        )

    @staticmethod
    def _flush(tenant: Tenant, req_id) -> dict:
        """``admin flush``; runs in a worker thread."""
        try:
            result = tenant.service.flush()
        except Exception as exc:
            return _failure(req_id, exc)
        return ok_envelope(
            req_id, flushed=result.batch.size if result else 0,
            committed_seq=tenant.service.committed_seq)

    def _do_admin(self, tenant: Tenant, req_id, msg: dict):
        action = msg.get("action", "stats")
        if action == "flush":
            return asyncio.get_running_loop().run_in_executor(
                None, self._flush, tenant, req_id)
        if action == "tenants":
            return ok_envelope(req_id, tenants=self.tenants.names())
        if action == "stats":
            svc = tenant.service
            return ok_envelope(
                req_id,
                committed_seq=svc.committed_seq,
                snapshot_size=svc.snapshot_size(),
                queue_depth=svc.queue.depth,
                degraded=svc._degraded.is_set(),
                replication_last_seq=tenant.replication.last_seq,
                replication_log_size=tenant.replication.size,
            )
        if action == "drain":
            asyncio.ensure_future(self.drain())
            return ok_envelope(req_id, draining=True)
        return error_envelope(req_id, "bad_request",
                              f"unknown admin action {action!r}")

    def _do_wal_fetch(self, tenant: Tenant, req_id, msg: dict) -> dict:
        offset = int(msg.get("offset", 0))
        max_bytes = min(int(msg.get("max_bytes", self.config.max_chunk_bytes)),
                        self.config.max_chunk_bytes)
        data = tenant.replication.read(offset, max_bytes)
        return ok_envelope(
            req_id, chunk=encode_chunk(data), offset=offset,
            log_size=tenant.replication.size,
            last_seq=tenant.replication.last_seq,
        )


class _Connection(asyncio.Protocol):
    """One accepted connection: the frames of each read are answered in
    order inside ``data_received``."""

    def __init__(self, server: NetServer) -> None:
        self.server = server
        self.decoder = FrameDecoder(server.config.max_frame)
        self.tenant: Tenant | None = None
        self.transport: asyncio.Transport | None = None
        self.backlog: deque = deque()   # frames not yet answered, in order
        self.waiting: asyncio.Future | None = None   # a reply not yet known
        self.write_paused = self.eof = self.closed = False
        self.timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.connections_served += 1
        self.server._conns.add(self)
        self.pump()

    def connection_lost(self, exc) -> None:
        self.closed = True
        self._arm(None, "")
        self.server._conns.discard(self)

    def data_received(self, data: bytes) -> None:
        try:
            self.backlog.extend(self.decoder.feed(data))
        except ProtocolError as exc:
            self.backlog.append(exc)    # answered in turn, then we close
        self.pump()

    def eof_received(self) -> bool:
        self.eof = True
        return self.waiting is not None   # stay open to send that reply

    def pause_writing(self) -> None:
        self.write_paused = True
        self._arm(self.server.config.write_deadline, "slow_reader")

    def resume_writing(self) -> None:
        self.write_paused = False
        self.pump()

    def pump(self) -> None:
        """Answer held frames in order until one waits or writes pause;
        then close if done, else set reading and the read deadline."""
        server, backlog = self.server, self.backlog
        while backlog and not (self.waiting or self.write_paused
                               or self.closed):
            msg = backlog.popleft()
            if isinstance(msg, ProtocolError):
                self._write(error_envelope(None, "protocol", str(msg)))
                self._close()
            elif self.tenant is None:
                server.requests_served += 1
                reply, self.tenant = server._handshake(msg)
                self._write(reply)
                if self.tenant is None:
                    self._close()
            else:
                server.requests_served += 1
                reply = server._dispatch(self.tenant, msg)
                if isinstance(reply, dict):
                    self._write(reply)
                else:
                    self.waiting = reply
                    reply.add_done_callback(self._on_reply)
        if self.closed:
            return
        mid = self.decoder.pending_bytes > 0
        if not (self.waiting or backlog) and (self.eof or (
                server._draining and not (mid or self.write_paused))):
            self._close()
            return
        # frames held back: read no more until they are answered
        if backlog or self.write_paused:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()
        if not self.write_paused:
            # a started frame must finish within read_deadline; the next
            # must start within idle_timeout; no deadline while we answer
            cfg = server.config
            self._arm(None if self.waiting or backlog else
                      cfg.read_deadline if mid else cfg.idle_timeout,
                      "mid_frame" if mid else "idle")

    def _on_reply(self, fut: asyncio.Future) -> None:
        self.waiting = None
        if not (self.closed or fut.cancelled()):
            self._write(fut.result())
            self.pump()

    def _write(self, reply: dict) -> None:
        max_frame = self.server.config.max_frame
        try:
            frame = encode_frame(reply, max_frame)
        except ProtocolError as exc:    # the reply is over the frame cap
            frame = encode_frame(error_envelope(
                reply.get("id"), "internal", str(exc)), max_frame)
        self.transport.write(frame)

    def _arm(self, delay: float | None, reason: str) -> None:
        if self.timer is not None:
            self.timer.cancel()
        self.timer = None if delay is None else \
            asyncio.get_running_loop().call_later(delay, self._evict, reason)

    def _evict(self, reason: str) -> None:
        self.timer = None
        self.server.evictions[reason] += 1
        if reason == "slow_reader":
            self.closed = True
            self.transport.abort()      # its replies cannot drain
        else:
            self._close()

    def _close(self) -> None:
        self.closed = True
        self._arm(None, "")
        self.transport.close()


def _failure(req_id, exc: Exception) -> dict:
    """The error envelope of a verb that raised: the engine keeps serving."""
    code = "bad_request" if isinstance(
        exc, (KeyError, TypeError, ValueError)) else "internal"
    return error_envelope(req_id, code, f"{type(exc).__name__}: {exc}")


def _jsonable(value):
    """Engine query values → JSON-clean types (edge sets, infinities)."""
    if isinstance(value, (set, frozenset)):
        return sorted([int(u), int(v)] for u, v in value)
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


# -- embedding helpers --------------------------------------------------------


class ThreadedServer:
    """A :class:`NetServer` running its own event loop in a thread.

    The embedding used by tests, the in-process benchmark harness, and the
    replica runner: ``start()`` blocks until the port is bound; ``stop()``
    drains gracefully and joins the loop thread.
    """

    def __init__(self, tenants: TenantManager,
                 config: NetServerConfig | None = None) -> None:
        self.server = NetServer(tenants, config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True)
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host or self.server.config.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def start(self) -> "ThreadedServer":
        """Start the server loop in a daemon thread; blocks until bound."""
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens())
            self._loop.close()

    def stop(self) -> None:
        """Drain the server and stop the loop thread; idempotent."""
        if not self._thread.is_alive():
            return
        fut = asyncio.run_coroutine_threadsafe(self.server.drain(),
                                               self._loop)
        with contextlib.suppress(Exception):
            fut.result(timeout=self.server.config.drain_timeout + 5)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


async def serve(tenants: TenantManager,
                config: NetServerConfig | None = None,
                announce=None,
                install_signal_handlers: bool = True) -> NetServer:
    """Run a server until SIGTERM/SIGINT, then drain; the CLI entry point.

    ``announce(host, port)`` is called once the port is bound (the CLI
    prints ``NET-LISTEN host port`` so scripted callers using port 0 can
    discover the ephemeral port).
    """
    server = NetServer(tenants, config)
    await server.start()
    if announce is not None:
        announce(server.host, server.port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop.set)
    with contextlib.suppress(asyncio.CancelledError):
        await stop.wait()
    await server.drain()
    return server
