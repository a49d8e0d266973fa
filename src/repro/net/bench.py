"""Replica-scaling benchmark for the networked serving layer (SRV2).

Drives a seeded read-heavy request stream (default 95/5 read-write, from
:func:`repro.workloads.streams.request_stream`) against a single-writer
primary plus N read replicas, then drains, waits for full catch-up, and
oracle-verifies replica equivalence before reporting throughput.

Capacity model: this box has one core, so real CPU-bound replica scaling
is unmeasurable here.  Instead each serving front end is given one query
slot and a **pinned simulated per-query service time** (an asyncio sleep
inside the slot — see ``NetServerConfig.service_time``), so aggregate
read capacity is ``replicas / service_time`` by construction and the
benchmark measures everything *around* that pinned cost: protocol,
shipping, admission, drain, and equivalence.  The report says which mode
produced it; on a many-core box ``service_time=0`` measures the real
engine.

Two modes:

- ``inproc``: primary and replicas as threads in this process (fast, used
  by the ``bench_srv2_replica_scaling`` entry of
  :mod:`repro.harness.benches`).
- ``subprocess``: primary and replicas as real ``repro.cli`` processes on
  localhost (the ``bench_srv2_failover`` entry), supporting
  ``kill_replica=True`` — one replica is SIGKILLed mid-run, serving
  continues on the survivors, and a freshly bootstrapped replacement must
  still converge to exact equivalence.  A kill that never fires (no
  replica, or too few reads completed to reach the kill point) is a
  violation, not a pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.net.client import NetClient
from repro.net.protocol import ProtocolError, ServerError
from repro.net.replica import LogShippingReplica, ReplicaConfig, run_replica
from repro.net.server import NetServerConfig, ThreadedServer
from repro.net.tenants import TenantConfig, TenantManager
from repro.workloads.streams import request_stream

__all__ = ["BenchNetConfig", "BenchNetReport", "run_bench_net"]

#: share of requests that are reads (the 95/5 mix)
READ_FRACTION = 0.95


@dataclass
class BenchNetConfig:
    replicas: int = 1
    requests: int = 2000
    n: int = 96
    m: int = 220
    k: int = 2
    seed: int = 1234
    service_time: float = 0.002     # pinned per-query engine seconds
    query_slots: int = 1            # slots per serving front end
    mode: str = "inproc"            # "inproc" | "subprocess"
    kill_replica: bool = False      # SIGKILL one replica mid-run
    converge_timeout: float = 30.0


@dataclass
class BenchNetReport:
    config: BenchNetConfig
    elapsed_s: float = 0.0
    reads: int = 0
    writes: int = 0
    read_throughput_rps: float = 0.0
    read_p50_ms: float = 0.0
    read_p99_ms: float = 0.0
    stale_reads: int = 0
    sheds: int = 0
    killed_replica: bool = False
    converged: bool = False
    verified: bool = False
    violations: list[str] = field(default_factory=list)


# -- cluster harnesses --------------------------------------------------------


class _InprocCluster:
    """Primary + replicas as threads inside this process."""

    def __init__(self, cfg: BenchNetConfig, spec: dict) -> None:
        self.cfg = cfg
        self.tenants = TenantManager()
        self.tenants.create(TenantConfig(name="default", spec=spec))
        self.primary = ThreadedServer(self.tenants, NetServerConfig(
            query_slots=cfg.query_slots, service_time=cfg.service_time,
        )).start()
        self.replicas: list[LogShippingReplica] = []
        self.replica_servers: list[ThreadedServer] = []
        self._stops: list[threading.Event] = []
        self._threads: list[threading.Thread] = []
        for _ in range(cfg.replicas):
            self.add_replica()

    @property
    def primary_addr(self) -> tuple[str, int]:
        return self.primary.host, self.primary.port

    def replica_addrs(self) -> list[tuple[str, int]]:
        return [(s.host, s.port) for s in self.replica_servers]

    def add_replica(self) -> None:
        replica, server = run_replica(
            self.primary.host, self.primary.port,
            listen=("127.0.0.1", 0),
            config=ReplicaConfig(poll_interval=0.005),
            query_slots=self.cfg.query_slots,
            service_time=self.cfg.service_time,
        )
        stop = threading.Event()
        thread = threading.Thread(
            target=replica.run, kwargs={"stop": stop}, daemon=True)
        thread.start()
        self.replicas.append(replica)
        self.replica_servers.append(server)
        self._stops.append(stop)
        self._threads.append(thread)

    def kill_replica(self, idx: int = 0) -> None:
        """Hard-stop one replica: poll loop and front end both die."""
        self._stops[idx].set()
        self._threads[idx].join(timeout=5)
        self.replica_servers[idx].stop()
        self.replicas[idx].close()
        del (self.replicas[idx], self.replica_servers[idx],
             self._stops[idx], self._threads[idx])

    def wait_converged(self, timeout: float) -> bool:
        with NetClient(*self.primary_addr) as c:
            primary_seq = c.flush()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(r.service.committed_seq == primary_seq and r.lag == 0
                   for r in self.replicas):
                return True
            time.sleep(0.01)
        return False

    def verify(self) -> list[str]:
        from repro.oracle import verify_replica

        violations: list[str] = []
        primary_service = self.tenants.get("default").service
        for i, replica in enumerate(self.replicas):
            result = verify_replica(primary_service, replica.service)
            violations += [f"replica {i}: {v}" for v in result.violations]
        return violations

    def close(self) -> None:
        for stop in self._stops:
            stop.set()
        for thread in self._threads:
            thread.join(timeout=5)
        for server in self.replica_servers:
            server.stop()
        for replica in self.replicas:
            replica.close()
        self.primary.stop()
        self.tenants.close()


class _SubprocCluster:
    """Primary + replicas as real ``repro.cli`` processes."""

    def __init__(self, cfg: BenchNetConfig, spec: dict) -> None:
        self.cfg = cfg
        self._spec = spec
        self.procs: list[subprocess.Popen] = []
        self._addrs: list[tuple[str, int]] = []
        # --seed cfg.seed+1 reproduces request_stream's initial graph
        # (it draws edges from gnm_random_graph at seed+1), so the write
        # stream stays sequentially legal against the subprocess primary
        serve_cmd = [
            "serve", "--listen", "127.0.0.1:0", "--shards", "1",
            "--backend", "spanner", "--n", str(spec["n"]),
            "--k", str(spec.get("k", 2)), "--m", str(cfg.m),
            "--seed", str(cfg.seed + 1),
            "--query-slots", str(cfg.query_slots),
            "--service-time-us", str(int(cfg.service_time * 1e6)),
        ]
        self._primary_proc, self.primary_addr = _spawn(serve_cmd)
        for _ in range(cfg.replicas):
            self.add_replica()

    def replica_addrs(self) -> list[tuple[str, int]]:
        return list(self._addrs)

    def add_replica(self) -> None:
        host, port = self.primary_addr
        proc, addr = _spawn([
            "replica", "--primary", f"{host}:{port}",
            "--listen", "127.0.0.1:0",
            "--query-slots", str(self.cfg.query_slots),
            "--service-time-us", str(int(self.cfg.service_time * 1e6)),
        ])
        self.procs.append(proc)
        self._addrs.append(addr)

    def kill_replica(self, idx: int = 0) -> None:
        self.procs[idx].kill()
        self.procs[idx].wait(timeout=10)
        del self.procs[idx], self._addrs[idx]

    def wait_converged(self, timeout: float) -> bool:
        with NetClient(*self.primary_addr) as c:
            primary_seq = c.flush()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                seqs = []
                for addr in self._addrs:
                    with NetClient(*addr) as rc:
                        seqs.append(rc.admin("stats")["committed_seq"])
                if all(s == primary_seq for s in seqs):
                    return True
            except (OSError, ProtocolError, ServerError):
                pass
            time.sleep(0.05)
        return False

    def verify(self) -> list[str]:
        """Wire-level equivalence: replica edge sets match the primary."""
        violations: list[str] = []
        with NetClient(*self.primary_addr) as c:
            primary_edges = c.edges()
            primary_seq = c.admin("stats")["committed_seq"]
        for i, addr in enumerate(self._addrs):
            with NetClient(*addr) as rc:
                r_edges = rc.edges()
                r_seq = rc.admin("stats")["committed_seq"]
            if r_seq != primary_seq:
                violations.append(
                    f"replica {i}: committed_seq {r_seq} != primary "
                    f"{primary_seq}")
            if r_edges != primary_edges:
                violations.append(
                    f"replica {i}: edge set differs from primary by "
                    f"{len(r_edges ^ primary_edges)} edge(s)")
        return violations

    def close(self) -> None:
        for proc in [*self.procs, self._primary_proc]:
            proc.terminate()
        for proc in [*self.procs, self._primary_proc]:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def _spawn(cli_args: list[str],
           timeout: float = 30.0) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Start a ``repro.cli`` serve-family process, wait for NET-LISTEN."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, bufsize=1, env=env,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    lines = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.append(line.rstrip())
            if line.startswith("NET-LISTEN "):
                _, host, port = line.split()
                return proc, (host, int(port))
    finally:
        timer.cancel()
    raise RuntimeError(
        "server process exited before announcing its port:\n"
        + "\n".join(lines[-20:]))


# -- the drive ----------------------------------------------------------------


def run_bench_net(config: BenchNetConfig | None = None) -> BenchNetReport:
    """Run the replica-scaling benchmark; see module docstring."""
    cfg = config or BenchNetConfig()
    if cfg.kill_replica and cfg.replicas < 1:
        raise ValueError("kill_replica needs at least one replica to kill")
    report = BenchNetReport(config=cfg)
    initial, reqs = request_stream(
        cfg.n, cfg.m, cfg.requests, seed=cfg.seed,
        query_prob=READ_FRACTION,
    )
    writes = [(op, e) for op, e in reqs if op != "query"]
    reads = [e for op, e in reqs if op == "query"]
    spec = {"kind": "spanner", "n": cfg.n, "k": cfg.k,
            "edges": [list(e) for e in initial], "seed": cfg.seed}
    cluster_cls = _SubprocCluster if cfg.mode == "subprocess" \
        else _InprocCluster
    cluster = cluster_cls(cfg, spec)
    try:
        return _drive(cluster, cfg, report, writes, reads)
    finally:
        cluster.close()


def _drive(cluster, cfg: BenchNetConfig, report: BenchNetReport,
           writes, reads) -> BenchNetReport:
    read_addrs = cluster.replica_addrs() or [cluster.primary_addr]
    latencies: list[float] = []
    counters = {"sheds": 0, "stale": 0, "done": 0}
    lock = threading.Lock()
    dead_addrs: set = set()
    kill_at = len(reads) // 2 if cfg.kill_replica else None
    kill_fired = threading.Event()

    def writer() -> None:
        with NetClient(*cluster.primary_addr) as c:
            for op, (u, v) in writes:
                for _ in range(50):
                    try:
                        c.submit(op, u, v)
                        break
                    except ServerError as exc:
                        with lock:
                            counters["sheds"] += 1
                        time.sleep(min(exc.retry_after or 0.001, 0.05))

    def reader(idx: int, my_reads) -> None:
        clients: dict = {}
        try:
            for j, (u, v) in enumerate(my_reads):
                addr = _pick_addr(read_addrs, dead_addrs, idx + j)
                if addr is None:
                    return
                c = clients.get(addr)
                if c is None:
                    try:
                        c = clients[addr] = NetClient(*addr)
                    except OSError:
                        dead_addrs.add(addr)
                        continue
                t0 = time.perf_counter()
                try:
                    info = c.query_info("connected", (u, v))
                except ServerError as exc:
                    with lock:
                        counters["sheds"] += 1
                    time.sleep(min(exc.retry_after or 0.001, 0.05))
                    continue
                except (OSError, ProtocolError):
                    dead_addrs.add(addr)
                    clients.pop(addr, None)
                    continue
                dt = time.perf_counter() - t0
                with lock:
                    latencies.append(dt)
                    counters["done"] += 1
                    if info["stale"]:
                        counters["stale"] += 1
                    fire_kill = (kill_at is not None
                                 and counters["done"] >= kill_at
                                 and not kill_fired.is_set())
                if fire_kill:
                    kill_fired.set()
        finally:
            for c in clients.values():
                c.close()

    n_readers = max(2, 2 * max(1, cfg.replicas))
    shards = [reads[i::n_readers] for i in range(n_readers)]
    threads = [threading.Thread(target=writer, daemon=True)]
    threads += [
        threading.Thread(target=reader, args=(i, shard), daemon=True)
        for i, shard in enumerate(shards)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    if kill_at is not None:
        # kill from the coordinating thread so readers never block on it
        while any(t.is_alive() for t in threads[1:]) \
                and not kill_fired.wait(timeout=0.05):
            pass
        if kill_fired.is_set() and cluster.replica_addrs():
            victim = cluster.replica_addrs()[0]
            dead_addrs.add(victim)
            cluster.kill_replica(0)
            report.killed_replica = True
    for t in threads:
        t.join()
    report.elapsed_s = time.perf_counter() - t0

    report.reads = counters["done"]
    report.writes = len(writes)
    report.sheds = counters["sheds"]
    report.stale_reads = counters["stale"]
    if report.elapsed_s > 0:
        report.read_throughput_rps = report.reads / report.elapsed_s
    if latencies:
        latencies.sort()
        report.read_p50_ms = 1e3 * latencies[len(latencies) // 2]
        report.read_p99_ms = 1e3 * latencies[
            min(len(latencies) - 1, int(len(latencies) * 0.99))]

    if report.killed_replica:
        # a freshly bootstrapped replacement must converge to equivalence
        cluster.add_replica()
    if cfg.kill_replica and not report.killed_replica:
        report.violations.append(
            f"kill_replica requested but no replica was killed ("
            f"{report.reads} read(s) done, the kill fires at {kill_at})")
    report.converged = cluster.wait_converged(cfg.converge_timeout)
    if not report.converged:
        report.violations.append("replicas did not converge before timeout")
    else:
        report.violations.extend(str(v) for v in cluster.verify())
    report.verified = report.converged and not report.violations
    return report


def _pick_addr(addrs, dead, i):
    alive = [a for a in addrs if a not in dead]
    if not alive:
        return None
    return alive[i % len(alive)]
