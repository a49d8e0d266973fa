"""The two replay workloads.

Each workload turns a seed into inputs (:mod:`gen`), builds the served
state (``setup``), runs an untimed warm-up slice, replays the rest of the
stream closed-loop from this one process (``replay``), and checks the
outputs after the timed phase (``check``).  Flush decisions read a
simulated clock or explicit flush calls, never the wall clock, so the
batches, commits and charged counts are a function of the input alone.
"""

from __future__ import annotations

import random
import resource
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import gen
from calib import Calibration
# imported here, not in set-up, so that set-up time leaves imports out
from repro.net.client import NetClient
from repro.net.protocol import ServerError
from repro.net.server import ThreadedServer
from repro.net.tenants import TenantConfig, TenantManager
from repro.pram.cost import CostModel
from repro.resilience.manager import (
    RecoveryManager,
    ResilienceConfig,
    SupervisionConfig,
    bootstrap_executor,
)
from repro.service.admission import AdmissionConfig
from repro.service.batcher import BatcherConfig
from repro.service.driver import SimClock
from repro.service.engine import ServiceConfig, SpannerService, build_backend

N = 1024
# The initial graph and the structures' own randomness come from this fixed
# dataset seed; --seed draws the update and read streams.  A spanner's cost
# depends heavily on its random clustering, and with only one or two
# instances per run a per-seed graph made charged work swing ~20% between
# seeds; with a fixed dataset it is averaged over thousands of updates.
DATASET_SEED = 20250
SERVE_M = 1 << 16
SERVE_K = 3
SHARDS = 2
# Bentley-Saxe base capacity per shard.  Not m/(4*shards): that puts every
# shard's initial ~m/shards edges exactly on the level-2 cap, so about half
# the seeds build at level 3 instead and the charged work swings between
# seeds.  20000 leaves the initial shard mid-level (level 1, cap 40000),
# and a run's inserts stay within level 0 (no shard rebuilds in the timed
# window), so no seed pays a level merge there.
SERVE_BASE = 20000


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Replay:
    """What one timed replay measured."""

    wall: float = 0.0
    requests: int = 0             # updates + reads attempted
    updates: int = 0              # edge updates applied to the structure
    failed: int = 0               # shed, error envelope, or wrong outcome
    commit_lat: list[float] = field(default_factory=list)
    read_lat: list[float] = field(default_factory=list)
    frame_lat: list[float] = field(default_factory=list)   # wire read frames
    # reference chunks run between requests; their time is not in ``wall``
    calib: Calibration = field(default_factory=Calibration)
    # exact counts that must repeat on every run of the same input
    counts: dict = field(default_factory=dict)


# -- serve_inproc -------------------------------------------


class Serve:
    """``SpannerService`` over a 2-shard executor with a durable WAL,
    driven by single-edge updates and singleton distance reads arriving
    on a simulated clock."""

    name = "serve_inproc"
    stream = "serve"
    tick = 2e-5                # simulated seconds between arrivals
    burst_every = 1000
    burst_size = 300           # zero-gap arrivals closing every 1000
    max_delay = 0.001          # simulated flush deadline
    warm_requests = 3000
    requests_per_second = 4000
    calib_every = 250          # requests per reference chunk

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.initial = gen.gnm(random.Random(DATASET_SEED), N, SERVE_M)
        rng = random.Random(seed)
        count = self.warm_requests + round(self.requests_per_second * seconds)
        self.requests = gen.request_stream(rng, N, self.initial, count)
        self.workdir = workdir

    def spec(self) -> dict:
        return {"kind": "spanner", "n": N, "edges": self.initial,
                "seed": DATASET_SEED + 1, "k": SERVE_K,
                "base_capacity": SERVE_BASE}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.workdir)
        recovery = RecoveryManager(ResilienceConfig(
            directory=wal_dir, checkpoint_interval=64))
        # a generous reply deadline: a supervised restart would change the
        # batch log, so it must never fire on a slow box
        executor, _ = bootstrap_executor(
            self.spec(), SHARDS, recovery, processes=False,
            supervision=SupervisionConfig(recv_deadline=120.0))
        clock = SimClock()
        service = SpannerService(
            executor,
            config=ServiceConfig(
                batcher=BatcherConfig(max_batch=256,
                                      max_delay=self.max_delay),
                admission=AdmissionConfig(max_pending=4096),
            ),
            clock=clock.now,
            recovery=recovery,
        )
        return {"service": service, "clock": clock, "wal_dir": wal_dir,
                "pos": 0}

    def _counts(self, service) -> dict:
        m = service.metrics
        return {
            "commits": service.committed_seq,
            "updates": m.counter("ops_applied").value,
            "coalesced": m.counter("ops_coalesced_away").value,
            "work": int(m.histogram("batch_work").sum),
            "depth": int(m.histogram("batch_depth").sum),
            "checkpoints": m.counter("checkpoints").value,
            "shed": m.counter("shed").value
            + m.counter("shed_degraded").value,
            "recoveries": m.counter("recoveries").value,
        }

    def _run(self, st, stop: int, rep: Replay) -> None:
        service, clock = st["service"], st["clock"]
        quiet = self.burst_every - self.burst_size
        perf = time.perf_counter
        answers = 0
        for i in range(st["pos"], stop):
            req = self.requests[i]
            if i % self.calib_every == 0:
                rep.calib.tick()
            if i % self.burst_every < quiet:
                clock.advance(self.tick)
            seq = service.committed_seq
            t0 = perf()
            service.pump()
            if service.committed_seq != seq:
                rep.commit_lat.append(perf() - t0)
            if req.op == "query":
                t0 = perf()
                d = service.query("distance", (req.u, req.v))
                rep.read_lat.append(perf() - t0)
                answers += -1 if d == float("inf") else int(d)
            else:
                seq = service.committed_seq
                t0 = perf()
                resp = service.submit_update(req.op, req.u, req.v)
                if service.committed_seq != seq:
                    rep.commit_lat.append(perf() - t0)
                if not resp.accepted and not (
                        req.dup and resp.outcome.startswith("rejected")):
                    rep.failed += 1
            rep.requests += 1
        st["pos"] = stop
        rep.counts["answers"] = answers

    def warmup(self, st) -> dict:
        rep = Replay()
        self._run(st, self.warm_requests, rep)
        counts = self._counts(st["service"])
        counts.update(answers=rep.counts["answers"], failed=rep.failed)
        return counts

    def replay(self, st) -> Replay:
        service = st["service"]
        before = self._counts(service)
        rep = Replay()
        t0 = time.perf_counter()
        self._run(st, len(self.requests), rep)
        seq = service.committed_seq
        t1 = time.perf_counter()
        service.flush()
        if service.committed_seq != seq:
            rep.commit_lat.append(time.perf_counter() - t1)
        rep.wall = time.perf_counter() - t0 - rep.calib.total
        after = self._counts(service)
        rep.counts.update({k: after[k] - before[k] for k in after})
        rep.counts["failed"] = rep.failed
        rep.updates = rep.counts["updates"]
        return rep

    def check(self, st, rep: Replay) -> list[str]:
        verification = st["service"].self_check()
        return [str(v) for v in verification.violations]

    def close(self, st) -> None:
        try:
            st["service"].close()
        finally:
            shutil.rmtree(st["wal_dir"], ignore_errors=True)

    def history(self, st) -> int:
        return sum(len(b) for b in st["service"].executor.applied_batches)


# -- wire_reads --------------------------------------------------------------


class WireReads:
    """One tenant behind an in-process TCP server; one client connection
    sends windows of writes, an ``admin flush``, then ``query_batch``
    frames."""

    name = "wire_reads"
    stream = "wire_reads"
    writes = 6                 # 6 of 134 requests (~4.5%) are writes
    reads = 128                # four query_batch frames
    warm_windows = 8
    windows_per_second = 32

    def __init__(self, seed: int, seconds: int, workdir: Path) -> None:
        self.initial = gen.gnm(random.Random(DATASET_SEED), N, SERVE_M)
        rng = random.Random(seed)
        count = self.warm_windows + round(self.windows_per_second * seconds)
        self.windows = gen.wire_windows(
            rng, N, self.initial, count, self.writes, self.reads)

    def spec(self) -> dict:
        return {"kind": "spanner", "n": N, "edges": self.initial,
                "seed": DATASET_SEED + 1, "k": SERVE_K,
                "base_capacity": SERVE_M // 4}

    def setup(self):
        tenants = TenantManager()
        server = None
        try:
            # flushes happen only on the window's explicit admin flush
            tenants.create(TenantConfig(
                name="bench", spec=self.spec(), autostart=False,
                batcher=BatcherConfig(max_batch=1 << 20, max_delay=1e9,
                                      max_batch_cap=1 << 20)))
            server = ThreadedServer(tenants).start()
            client = NetClient(server.host, server.port, tenant="bench")
        except BaseException:
            if server is not None:
                server.stop()
            tenants.close()
            raise
        return {"tenants": tenants, "server": server, "client": client,
                "pos": 0, "frames": []}

    def _run(self, st, stop: int, rep: Replay, keep: bool) -> None:
        client = st["client"]
        perf = time.perf_counter
        for wi in range(st["pos"], stop):
            writes, frames = self.windows[wi]
            rep.calib.tick()
            for req in writes:
                try:
                    client.submit(req.op, req.u, req.v)
                except ServerError:
                    rep.failed += 1
                rep.requests += 1
            t0 = perf()
            client.flush()
            rep.commit_lat.append(perf() - t0)
            for items in frames:
                t0 = perf()
                try:
                    reply = client.query_batch(items)
                except ServerError:
                    rep.failed += len(items)
                    reply = None
                dt = perf() - t0
                rep.frame_lat.append(dt)
                rep.read_lat.extend([dt] * len(items))
                rep.requests += len(items)
                if keep and reply is not None:
                    st["frames"].append(
                        (reply["as_of_seq"], items, reply["values"]))
        st["pos"] = stop

    def _service(self, st):
        return st["tenants"].get("bench").service

    def _counts(self, st) -> dict:
        svc = self._service(st)
        m = svc.metrics
        return {
            "commits": svc.committed_seq,
            "updates": m.counter("ops_applied").value,
            "coalesced": m.counter("ops_coalesced_away").value,
            "work": int(m.histogram("batch_work").sum),
            "depth": int(m.histogram("batch_depth").sum),
            "read_frames": len(st["frames"]),
            "answers": _answer_digest(st["frames"]),
            "shed": m.counter("shed").value,
        }

    def warmup(self, st) -> dict:
        rep = Replay()
        self._run(st, self.warm_windows, rep, keep=True)
        return dict(self._counts(st), failed=rep.failed)

    def replay(self, st) -> Replay:
        before = self._counts(st)
        rep = Replay()
        t0 = time.perf_counter()
        self._run(st, len(self.windows), rep, keep=True)
        rep.wall = time.perf_counter() - t0 - rep.calib.total
        after = self._counts(st)
        rep.counts.update({k: after[k] - before[k] for k in after})
        rep.counts["answers"] = after["answers"]
        rep.counts["failed"] = rep.failed
        rep.updates = rep.counts["updates"]
        return rep

    def check(self, st, rep: Replay) -> list[str]:
        """Every recorded ``query_batch`` answer against a reference BFS
        on the snapshot it claims (``as_of_seq``), rebuilt by replaying
        the tenant's applied batches through a fresh backend."""
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components, shortest_path

        svc = self._service(st)
        applied = svc.executor.applied_batches
        ref = build_backend(self.spec(), CostModel())
        out = gen.LiveEdges(ref.output_edges(), arrays=True)
        seq = 0
        problems: list[str] = []
        by_seq: dict[int, list] = {}
        for as_of, items, values in st["frames"]:
            by_seq.setdefault(as_of, []).append((items, values))
        # the graph, its components and the BFS rows found so far, kept
        # while the output is unchanged: most flushes leave it alone
        g = label = None
        dist: dict[int, object] = {}
        for target in sorted(by_seq):
            while seq < target:
                b = applied[seq]
                ins, dels = ref.update(insertions=b.insertions,
                                       deletions=b.deletions)
                for e in dels:
                    out.remove(e)
                for e in ins:
                    out.add(e)
                if ins or dels:
                    g = None
                seq += 1
            if g is None:
                # CSR straight from the edge arrays: row order is all a
                # search needs, and scipy's COO conversion sorts each row
                src, dst = out.directed()
                indptr = np.zeros(N + 1, dtype=np.int32)
                np.cumsum(np.bincount(src, minlength=N), out=indptr[1:])
                g = csr_matrix((np.ones(len(src)), dst[np.argsort(src)],
                                indptr), shape=(N, N))
                # symmetric, so its strong components are its components
                label = connected_components(g, directed=True,
                                             connection="strong")[1].tolist()
                dist = {}
            frames = by_seq[target]
            sources = sorted({p[0] for items, _ in frames
                              for kind, p in items if kind == "distance"}
                             - dist.keys())
            if sources:
                rows = shortest_path(g, directed=True, unweighted=True,
                                     indices=sources)
                dist.update(zip(sources, rows))
            for items, values in frames:
                for (kind, p), got in zip(items, values):
                    if kind == "size":
                        want = len(out)
                    elif kind == "contains":
                        want = (min(p), max(p)) in out
                    elif kind == "connected":
                        want = label[p[0]] == label[p[1]]
                    else:
                        d = float(dist[p[0]][p[1]])
                        want = "inf" if d == float("inf") else d
                    if got != want:
                        problems.append(
                            f"seq {target} {kind}{p}: served {got!r}, "
                            f"reference {want!r}")
        if out.edge_set() != svc.snapshot_edges():
            problems.append("replayed output differs from the served "
                            "snapshot")
        return problems

    def close(self, st) -> None:
        try:
            st["client"].close()
            st["server"].stop()
        finally:
            st["tenants"].close()

    def history(self, st) -> int:
        return len(self._service(st).executor.applied_batches)


def _answer_digest(frames) -> int:
    """Order-sensitive integer digest of every served read answer."""
    h = 0
    for as_of, _items, values in frames:
        h = zlib.crc32(repr((as_of, values)).encode(), h)
    return h


WORKLOADS = {
    cls.name: cls for cls in (Serve, WireReads)
}
