"""In-process TCP fault proxy for failure-domain testing (``repro.net``).

A toxiproxy-style proxy that sits on any client↔server or
replica↔primary link and injects the wire faults the resilience layer
must survive:

* **latency** — a fixed delay added to every forwarded chunk;
* **torn frames** — a prefix of the next chunk is forwarded, then the
  link is closed (FIN), leaving the peer with a half-read frame;
* **mid-frame disconnects** — same tear, but the link dies with an RST;
* **connection resets** — every live link is reset immediately;
* **full partitions** — live links are killed and new connections are
  accepted but never serviced (a black hole) until :meth:`heal`.

The proxy is deliberately *dumb*: it forwards opaque bytes and never
parses frames, so every fault it injects is one the real network can
produce.  Seeding lives with the caller — the chaos harness
(:mod:`repro.resilience.chaos`) drives these primitives from seeded
``ChaosPlan``-compatible schedules, choosing *when* to fire and with
which parameters from a deterministic RNG.

>>> with FaultProxy("127.0.0.1", server_port) as proxy:
...     client = NetClient(proxy.host, proxy.port)
...     proxy.tear_next("s2c")        # next response arrives half-framed
...     client.query("size")          # ProtocolError -> ConnectionClosed

Thread-safety: every control method may be called from any thread while
links are live.
"""

from __future__ import annotations

import socket
import threading
import time

__all__ = ["FaultProxy", "PumpDirection"]

PumpDirection = str  # "c2s" (client -> upstream) or "s2c"

_RECV_CHUNK = 65536
_POLL_S = 0.05


def _reset_socket(sock: socket.socket) -> None:
    """Close ``sock`` with an RST instead of a FIN (SO_LINGER zero)."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Link:
    """One proxied connection: two sockets, two pump threads."""

    def __init__(self, proxy: "FaultProxy", client: socket.socket,
                 upstream: socket.socket) -> None:
        self.proxy = proxy
        self.client = client
        self.upstream = upstream
        self.dead = False
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(
                target=proxy._pump, args=(self, client, upstream, "c2s"),
                daemon=True),
            threading.Thread(
                target=proxy._pump, args=(self, upstream, client, "s2c"),
                daemon=True),
        ]

    def start(self) -> None:
        for t in self.threads:
            t.start()

    def kill(self, rst: bool = True) -> None:
        """Tear the link down (idempotent); RST by default."""
        with self._lock:
            if self.dead:
                return
            self.dead = True
        for sock in (self.client, self.upstream):
            if rst:
                _reset_socket(sock)
            else:
                try:
                    sock.close()
                except OSError:
                    pass


class FaultProxy:
    """A TCP proxy with runtime-switchable fault injection.

    Parameters
    ----------
    upstream_host / upstream_port:
        Where healthy traffic is forwarded.
    host / port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        self._links: list[_Link] = []
        self._parked: list[socket.socket] = []
        # fault state (all guarded by _lock)
        self._latency_s = 0.0
        self._partitioned = False
        self._tears: dict[str, list[tuple[float, bool]]] = {
            "c2s": [], "s2c": []}
        self.counters = {
            "connections": 0, "bytes_c2s": 0, "bytes_s2c": 0,
            "torn_frames": 0, "resets": 0, "partitions": 0,
            "blackholed": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "FaultProxy":
        """Bind, listen, and start the accept loop; returns ``self``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(_POLL_S)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every link; idempotent."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for link in self._live_links():
            link.kill(rst=False)
        with self._lock:
            parked, self._parked = self._parked, []
        for sock in parked:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "FaultProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _live_links(self) -> list[_Link]:
        with self._lock:
            self._links = [ln for ln in self._links if not ln.dead]
            return list(self._links)

    # -- fault controls ---------------------------------------------------

    def set_latency(self, seconds: float) -> None:
        """Delay every forwarded chunk by ``seconds`` (0 clears)."""
        with self._lock:
            self._latency_s = max(0.0, float(seconds))

    def tear_next(self, direction: PumpDirection = "s2c",
                  fraction: float = 0.5, rst: bool = False) -> None:
        """Arm a one-shot tear: forward ``fraction`` of the next chunk in
        ``direction`` then kill the link — FIN (torn frame) by default,
        RST (mid-frame disconnect) with ``rst=True``."""
        if direction not in ("c2s", "s2c"):
            raise ValueError(f"unknown direction {direction!r}")
        with self._lock:
            self._tears[direction].append(
                (min(max(float(fraction), 0.0), 1.0), bool(rst)))

    def reset_all(self) -> int:
        """RST every live link now; returns how many were reset."""
        links = self._live_links()
        for link in links:
            link.kill(rst=True)
        with self._lock:
            self.counters["resets"] += len(links)
        return len(links)

    def partition(self) -> None:
        """Full partition: kill live links, black-hole new connections
        until :meth:`heal`."""
        with self._lock:
            already = self._partitioned
            self._partitioned = True
            if not already:
                self.counters["partitions"] += 1
        for link in self._live_links():
            link.kill(rst=True)

    def heal(self) -> None:
        """End a partition; parked (black-holed) connections are closed so
        their clients fail fast and reconnect through the healthy path."""
        with self._lock:
            self._partitioned = False
            parked, self._parked = self._parked, []
        for sock in parked:
            try:
                sock.close()
            except OSError:
                pass

    @property
    def partitioned(self) -> bool:
        with self._lock:
            return self._partitioned

    def clear_faults(self) -> None:
        """Return to transparent forwarding (does not heal a partition)."""
        with self._lock:
            self._latency_s = 0.0
            self._tears = {"c2s": [], "s2c": []}

    def stats(self) -> dict[str, int]:
        """A snapshot of the injection counters."""
        with self._lock:
            return dict(self.counters)

    # -- data plane -------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            with self._lock:
                if self._stopping:
                    return
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                if self._partitioned:
                    # black hole: hold the connection open, never service
                    # it; the client's read deadline is what saves it
                    self._parked.append(client)
                    self.counters["blackholed"] += 1
                    continue
                self.counters["connections"] += 1
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=5.0)
            except OSError:
                try:
                    client.close()
                except OSError:
                    pass
                continue
            for sock in (client, upstream):
                sock.settimeout(_POLL_S)
            link = _Link(self, client, upstream)
            with self._lock:
                self._links.append(link)
            link.start()

    def _take_tear(self, direction: PumpDirection
                   ) -> tuple[float, bool] | None:
        with self._lock:
            pending = self._tears[direction]
            return pending.pop(0) if pending else None

    def _pump(self, link: _Link, src: socket.socket, dst: socket.socket,
              direction: PumpDirection) -> None:
        """Forward ``src`` -> ``dst`` applying the live fault state."""
        while True:
            if link.dead or self._stopping:
                return
            try:
                data = src.recv(_RECV_CHUNK)
            except socket.timeout:
                continue
            except OSError:
                link.kill(rst=False)
                return
            if not data:
                link.kill(rst=False)
                return
            with self._lock:
                latency = self._latency_s
            if latency > 0.0:
                time.sleep(latency)
            tear = self._take_tear(direction)
            if tear is not None:
                fraction, rst = tear
                # keep at least 1 byte back so the peer sees a genuinely
                # torn frame, and forward at least the length prefix when
                # the chunk allows it (the nastiest place to cut)
                keep = min(len(data) - 1, max(1, int(len(data) * fraction)))
                if len(data) > 5:
                    keep = max(keep, 5)
                try:
                    dst.sendall(data[:keep])
                except OSError:
                    pass
                with self._lock:
                    self.counters["torn_frames"] += 1
                    if rst:
                        self.counters["resets"] += 1
                link.kill(rst=rst)
                return
            try:
                dst.sendall(data)
            except OSError:
                link.kill(rst=False)
                return
            with self._lock:
                self.counters[f"bytes_{direction}"] += len(data)
