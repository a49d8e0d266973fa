"""One catalogue of the serving and substrate benchmarks.

Each :class:`Bench` entry is a name, a one-line doc and
``run(smoke) -> (rows, ok)``.  Every configuration value is fixed inside
the entry, so a name alone reproduces an EXPERIMENTS.md table.  Three
callers enumerate :data:`BENCHES`: ``repro bench [NAME ...]``,
``tools/bench_gate.py`` and the CI ``bench-smoke`` job (through the
gate).

* ``rows`` render through :func:`repro.harness.format_table` or as JSON.
  The last row is the entry's summary: ``tools/bench_gate.py`` records it
  and compares it against ``BENCH_hotpath.json``.
* ``ok`` is the entry's verdict: its oracle or equivalence checks held
  and, outside smoke mode, its acceptance bar was met.
* ``smoke`` drops timing repeats and speed bars.  Entries whose baseline
  row pins cost-model ``work``/``depth`` compute the pins at baseline
  size in both modes, so a smoke run still reproduces them exactly.
  Only the entries whose wall-clock sets the run length (SRV2, failover,
  PAR1) and the timed snapshot of the sparse-read entry shrink in smoke
  mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.pram import CostModel

__all__ = ["BENCHES", "Bench", "resolve"]

Rows = list[dict[str, Any]]


@dataclass(frozen=True)
class Bench:
    """One catalogue entry."""

    name: str
    doc: str
    run: Callable[[bool], tuple[Rows, bool]]


def _best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """Fastest wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _e1(smoke: bool) -> tuple[Rows, bool]:
    from repro.spanner import FullyDynamicSpanner
    from repro.workloads import mixed_stream

    wl = mixed_stream(128, 512, batch_size=64, num_batches=8, seed=3)
    ops = wl.total_updates

    def run(cost=None):
        kw = {"cost": cost} if cost is not None else {}
        sp = FullyDynamicSpanner(wl.n, wl.initial_edges, k=2, seed=3,
                                 base_capacity=64, **kw)
        for b in wl.batches:
            sp.update(insertions=b.insertions, deletions=b.deletions)
        return sp.spanner_size()

    seconds = _best_seconds(run, 1 if smoke else 3)
    cm = CostModel()
    size = run(cost=cm)
    return [{
        "ops": ops,
        "ops_per_sec": round(ops / seconds, 1),
        "work": cm.work,
        "depth": cm.depth,
        "work_per_op": round(cm.work / ops, 1),
    }], size > 0


def _srv1(smoke: bool) -> tuple[Rows, bool]:
    from repro.service.driver import ServeConfig, run_serve

    cfg = ServeConfig(n=192, m=768, requests=6000, seed=11, shards=2,
                      processes=False, max_delay=8e-3,
                      queue_capacity=4096, max_batch=100_000)
    reports = [run_serve(cfg, verify=False)
               for _ in range(1 if smoke else 3)]
    m = reports[-1].metrics
    return [{
        "ops": reports[-1].served,
        "ops_per_sec": round(max(r.throughput_rps for r in reports), 1),
        "flush_p99_ms": round(1000 * m.get("flush_latency_s.p99", 0.0), 3),
        "batch_work_mean": round(m.get("batch_work.mean", 0.0), 1),
        "batch_depth_mean": round(m.get("batch_depth.mean", 0.0), 1),
    }], all(r.applied_ops > 0 for r in reports)


def _substrates(smoke: bool) -> tuple[Rows, bool]:
    import numpy as np

    from repro.structures import PriorityArray, VectorPredicate

    universe, size, targets = 1 << 14, 4096, (8, 64, 512, 4096)
    # one build+scan pass lasts well under a millisecond, far too short a
    # window to gate at 15%; repeating it inside the timed region
    # stretches the window
    inner = 16

    def once(cost=None) -> bool:
        kw = {"cost": cost} if cost is not None else {}
        vals = np.arange(size)
        pa = PriorityArray.from_arrays(
            universe, vals, (universe - 2) - vals, **kw
        )
        found = True
        for target in targets:
            pred = VectorPredicate(
                lambda v, t=target: v == t - 1,
                lambda a, t=target: a == t - 1,
            )
            found = found and pa.next_with(1, pred) == target
        return found

    def run():
        for _ in range(inner):
            once()

    seconds = _best_seconds(run, 1 if smoke else 5)
    cm = CostModel()
    ok = once(cost=cm)  # pins are per single build+scan pass
    ops = inner * (size + sum(targets))  # items built + positions scanned
    return [{
        "ops": ops,
        "ops_per_sec": round(ops / seconds, 1),
        "work": cm.work,
        "depth": cm.depth,
    }], ok


def _net_row(report) -> dict[str, Any]:
    return {
        "replicas": report.config.replicas,
        "ops": report.reads,
        "writes": report.writes,
        "ops_per_sec": round(report.read_throughput_rps, 1),
        "read_p50_ms": round(report.read_p50_ms, 3),
        "read_p99_ms": round(report.read_p99_ms, 3),
        "sheds": report.sheds,
        "stale_reads": report.stale_reads,
        "converged": report.converged,
        "verified": report.verified,
        "violations": report.violations,
    }


def _srv2(smoke: bool) -> tuple[Rows, bool]:
    from repro.net.bench import BenchNetConfig, run_bench_net

    # smoke: a 1 ms pinned query cost keeps all three runs to a few seconds
    reports = [
        run_bench_net(BenchNetConfig(
            replicas=r, requests=200 if smoke else 2000,
            service_time=1e-3 if smoke else 2e-3,
        ))
        for r in (1, 2, 3)
    ]
    base = reports[0].read_throughput_rps
    rows = []
    for rep in reports:
        row = _net_row(rep)
        row["scaling_x"] = round(rep.read_throughput_rps / base, 2) \
            if base else 0.0
        rows.append(row)
    ok = all(rep.verified for rep in reports)
    return rows, ok and (
        smoke or reports[-1].read_throughput_rps >= 2.5 * base)


def _failover(smoke: bool) -> tuple[Rows, bool]:
    from repro.net.bench import BenchNetConfig, run_bench_net

    rep = run_bench_net(BenchNetConfig(
        replicas=2, mode="subprocess", kill_replica=True,
        requests=400 if smoke else 2000,
        service_time=1e-3 if smoke else 2e-3,
    ))
    row = _net_row(rep)
    row["killed_replica"] = rep.killed_replica
    return [row], rep.verified


def _srv3(smoke: bool) -> tuple[Rows, bool]:
    from repro.queries.bench import BenchQueriesConfig, run_bench_queries

    rep = run_bench_queries(BenchQueriesConfig(repeats=1 if smoke else 3))
    return [{
        "ops": rep.reads,
        "writes": rep.writes,
        "singleton_rps": round(rep.singleton_rps, 1),
        "ops_per_sec": round(rep.batched_rps, 1),
        "speedup_x": round(rep.speedup_x, 2),
        "work": rep.work,
        "depth": rep.depth,
        "dedup_ratio": round(rep.dedup_ratio, 3),
        "verified": rep.verified,
        "violations": rep.violations,
    }], rep.verified and (smoke or rep.speedup_x >= 3.0)


def _path_chords(n: int):
    """The PERF5 sparse snapshot: the path 0-1-...-(n-1) plus n/4 chords
    ``(u, u + d)``, ``d`` uniform in ``[2, 1024)``; seeded."""
    import numpy as np

    from repro.graph import ArrayDynamicGraph

    rng = np.random.default_rng(5)
    u = rng.integers(0, n - 2, size=n // 4)
    v = np.minimum(u + rng.integers(2, 1024, size=n // 4), n - 1)
    chords = np.unique(u * n + v)
    path = np.arange(n - 1)
    edges = np.column_stack([
        np.concatenate([path, chords // n]),
        np.concatenate([path + 1, chords % n]),
    ])
    return ArrayDynamicGraph(n, edges)


def _reads_sparse(smoke: bool) -> tuple[Rows, bool]:
    from repro.graph.traversal import bfs_distances
    from repro.queries import answer_queries

    def local_batch(n: int) -> list:
        # 8 distance pairs three hops apart, 8 connected pairs: one
        # small neighborhood of one large component
        base = n // 2
        return ([("distance", (base + 7 * i, base + 7 * i + 3))
                 for i in range(8)]
                + [("connected", (base + 5 * i, base + 5 * i + 40))
                   for i in range(8)])

    # the pins: the batch charged on a fresh 10^5-vertex epoch, then
    # again from its memo (both modes, so smoke reproduces them)
    pin_graph = _path_chords(100_000)
    items = local_batch(pin_graph.n)
    charges = []
    for _ in range(2):
        cm = CostModel()
        _, stats = answer_queries(items, pin_graph, cost=cm)
        charges.append((stats.work, stats.depth))
    graph = _path_chords(100_000 if smoke else 1_000_000)
    items = local_batch(graph.n)
    t0 = time.perf_counter()
    answers, _ = answer_queries(items, graph)   # first call of an epoch
    first = time.perf_counter() - t0
    # many short timed blocks: the fastest one is the steady state
    calls = 25
    steady = _best_seconds(
        lambda: [answer_queries(items, graph) for _ in range(calls)],
        1 if smoke else 20,
    ) / calls
    expect = []
    for kind, (u, v) in items:
        d = bfs_distances(graph, u, target=v).get(v)
        expect.append(d is not None if kind == "connected"
                      else float("inf") if d is None else float(d))
    verified = answers == expect and charges[0] == charges[1]
    steady_ms = 1000 * steady
    return [{
        "n": graph.n,
        "m": graph.m,
        "first_call_ms": round(1000 * first, 1),
        "steady_ms": round(steady_ms, 3),
        "ops_per_sec": round(len(items) / steady, 1),
        "work": charges[0][0],
        "depth": charges[0][1],
        "verified": verified,
    }], verified and (smoke or steady_ms <= 0.2)


def _reads_dense(smoke: bool) -> tuple[Rows, bool]:
    """PERF8: the served read path on a dense snapshot, the regime where
    a distance sweep's last round is a pull and each epoch's CSR is
    spliced from the previous one's.  Every epoch commits a few edges,
    then answers four 32-item frames of the SRV3 mix; smoke mode runs
    the same stream (it is the pinned one)."""
    import statistics

    import numpy as np

    from repro.graph import ArrayDynamicGraph
    from repro.oracle.queries import singleton_answers
    from repro.queries import answer_queries
    from repro.queries.bench import mix_read

    # the wire_reads snapshot's shape: n = 1024, average degree 68
    n, m, epochs, frames = 1024, 34_832, 40, 4
    rng = np.random.default_rng(8)
    us, vs = np.triu_indices(n, 1)
    pick = rng.choice(len(us), size=m, replace=False)
    graph = ArrayDynamicGraph(n, np.column_stack([us[pick], vs[pick]]))
    live = set(zip(us[pick].tolist(), vs[pick].tolist()))
    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in live:
        adjacency[a].add(b)
        adjacency[b].add(a)
    recent: list[tuple[int, int]] = []   # deletes churn inserted edges
    cm = CostModel()
    first: list[float] = []
    steady: list[float] = []
    verified = True
    for _ in range(epochs):
        gone = [recent.pop(int(rng.integers(0, len(recent))))
                for _ in range(min(3, len(recent)))]
        fresh: list[tuple[int, int]] = []
        while len(fresh) < 3:
            a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (a, b) not in live:
                live.add((a, b))
                fresh.append((a, b))
        live.difference_update(gone)
        for a, b in gone:
            adjacency[a].discard(b)
            adjacency[b].discard(a)
        for a, b in fresh:
            adjacency[a].add(b)
            adjacency[b].add(a)
        recent += fresh
        if gone:
            graph.delete_batch(gone)
        graph.insert_batch(fresh)
        for f in range(frames):
            items = [mix_read(rng, n) for _ in range(32)]
            t0 = time.perf_counter()
            answers, _ = answer_queries(items, graph, cost=cm)
            (steady if f else first).append(time.perf_counter() - t0)
            verified = verified and \
                answers == singleton_answers(items, live, adjacency)
    total = sum(first) + sum(steady)
    return [{
        "n": n,
        "m": graph.m,
        "epochs": epochs,
        "first_frame_ms": round(1000 * statistics.median(first), 3),
        "steady_frame_ms": round(1000 * statistics.median(steady), 3),
        "ops_per_sec": round(32 * epochs * frames / total, 1),
        "work": cm.work,
        "depth": cm.depth,
        "verified": verified,
    }], verified


def _par1(smoke: bool) -> tuple[Rows, bool]:
    from repro.parallel.bench import BenchParallelConfig, run_bench_parallel

    if smoke:
        cfg = BenchParallelConfig(n=600, m=1800, sources=8, queried=16,
                                  procs=(1, 2), repeats=1, min_speedup=None)
    else:
        cfg = BenchParallelConfig()
    return run_bench_parallel(cfg)



#: delta size buckets of the commit-path entry: the scalar delete path,
#: the scalar insert path, and beyond (``ArrayDynamicGraph`` crossovers)
_DELTA_BUCKETS = ((1, 12), (13, 32), (33, 64), (65, None))


def _update_stream(n: int, m: int, count: int, seed: int):
    """A seeded G(n, m) graph and ``count`` updates, each legal against
    the graph so far: half inserts of an absent pair, half deletes of a
    live edge (O(1) per update)."""
    import random

    from repro.graph import gnm_random_graph

    rng = random.Random(seed)
    initial = gnm_random_graph(n, m, seed=seed)
    live, at = list(initial), {e: i for i, e in enumerate(initial)}
    ops = []
    for _ in range(count):
        if rng.random() < 0.5:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) in at:
                continue
            at[u, v] = len(live)
            live.append((u, v))
            ops.append(("insert", (u, v)))
        else:
            e = live[rng.randrange(len(live))]
            last = live.pop()
            if last != e:
                live[at[e]] = last
                at[last] = at[e]
            del at[e]
            ops.append(("delete", e))
    return initial, ops


def _commit_path(smoke: bool) -> tuple[Rows, bool]:
    import statistics
    import tempfile
    from pathlib import Path

    from repro.graph import ArrayDynamicGraph
    from repro.resilience import (
        CheckpointStore,
        RecoveryManager,
        ResilienceConfig,
        edge_keys,
    )
    from repro.service import (
        AdmissionConfig,
        BatcherConfig,
        ServiceConfig,
        ShardedExecutor,
        SpannerService,
    )
    from repro.service.driver import SimClock
    from repro.service.shard import edge_shard

    n, shards, every = 512, 2, 32
    initial, requests = _update_stream(n, 12_288, 9600, seed=21)
    spec = {"kind": "spanner", "n": n, "edges": initial, "seed": 22,
            "k": 2, "base_capacity": 512}
    model = [set() for _ in range(shards)]   # per-shard set reference
    for e in initial:
        model[edge_shard(e, shards)].add(e)
    deltas = []
    ckpt_s = []
    ckpt_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        # checkpoints are taken explicitly below, never on the schedule
        mgr = RecoveryManager(ResilienceConfig(
            directory=Path(tmp) / "wal", checkpoint_interval=1 << 62))
        ex = ShardedExecutor(spec, shards, recovery=mgr)
        apply = ex.apply

        def recording(batch, seq=None):
            res = apply(batch, seq=seq)
            deltas.append((list(res.delta_ins), list(res.delta_del)))
            return res

        ex.apply = recording
        clock = SimClock()
        svc = SpannerService(ex, config=ServiceConfig(
            batcher=BatcherConfig(max_batch=256, max_delay=1e-3),
            admission=AdmissionConfig(max_pending=4096)),
            clock=clock.now, recovery=mgr)

        def committed(_seq, batch):
            for e in batch.deletions:
                model[edge_shard(e, shards)].discard(e)
            for e in batch.insertions:
                model[edge_shard(e, shards)].add(e)

        svc.commit_hooks.append(committed)
        start = svc.snapshot_edges()
        for i, (op, (u, v)) in enumerate(requests):
            # per 1200 arrivals: sparse (a few updates a commit), steady
            # (about 50), then a zero-gap burst (max_batch a commit)
            phase = i % 1200
            clock.advance(2e-4 if phase < 200 else 2e-5 if phase < 900
                          else 0.0)
            seq = svc.committed_seq
            svc.pump()
            svc.submit_update(op, u, v)
            if svc.committed_seq != seq and svc.committed_seq % every == 0:
                epoch = svc.committed_seq
                t0 = time.perf_counter()
                written = svc.checkpoint()
                ckpt_s.append(time.perf_counter() - t0)
                ref = CheckpointStore(Path(tmp) / "ref").save(
                    epoch, [edge_keys(s) for s in model])
                (ours,) = (Path(tmp) / "wal").glob("checkpoint-*.bin")
                ckpt_ok = (ckpt_ok and written
                           and ours.read_bytes() == ref.read_bytes())
        svc.flush()
        m = svc.metrics
        work = int(m.histogram("batch_work").sum)
        depth = int(m.histogram("batch_depth").sum)
        commits = svc.committed_seq
        served = svc.snapshot_edges()
        ckpt_ok = ckpt_ok and svc.graph_edges() == set().union(*model)
        svc.close()
    # replay the served deltas on a fresh snapshot, timed by size bucket
    passes = 1 if smoke else 3
    times: dict[tuple[str, int], list[float]] = {}
    snap_ok = True
    for _ in range(passes):
        g = ArrayDynamicGraph(n, start)
        ref = g.edge_set()
        for ins, dels in deltas:
            for kind, batch in (("delete", dels), ("insert", ins)):
                if not batch:
                    continue
                fn = g.delete_batch if kind == "delete" else g.insert_batch
                t0 = time.perf_counter()
                fn(batch)
                dt = time.perf_counter() - t0
                b = next(j for j, (lo, hi) in enumerate(_DELTA_BUCKETS)
                         if hi is None or len(batch) <= hi)
                times.setdefault((kind, b), []).append(dt)
            ref.difference_update(dels)
            ref.update(ins)
        snap_ok = snap_ok and g.edge_set() == ref == served
    rows: Rows = []
    for (kind, b), ts in sorted(times.items()):
        lo, hi = _DELTA_BUCKETS[b]
        rows.append({
            "delta": kind,
            "edges": f"{lo}-{hi}" if hi else f">={lo}",
            "count": len(ts) // passes,
            "p50_ms": round(1000 * statistics.median(ts), 3),
        })
    rows.append({
        "commits": commits,
        "checkpoints": len(ckpt_s),
        "deltas": sum(bool(i) + bool(d) for i, d in deltas),
        "checkpoint_ms": round(1000 * statistics.median(ckpt_s), 3),
        "work": work,
        "depth": depth,
        "snapshot_verified": snap_ok,
        "checkpoint_verified": ckpt_ok,
    })
    return rows, snap_ok and ckpt_ok


#: the catalogue; ``BENCH_hotpath.json`` pins all but SRV2 failover and PAR1
BENCHES: tuple[Bench, ...] = (
    Bench("bench_e1", "E1: mixed update stream through the fully-dynamic "
          "spanner, construction included; work/depth pinned", _e1),
    Bench("bench_srv_service_throughput", "SRV1 deadline=8ms: serving-loop "
          "throughput on 2 in-process shards", _srv1),
    Bench("bench_s_substrates", "S1: PriorityArray bulk build + NextWith "
          "scans (Lemma 3.1); work/depth pinned", _substrates),
    Bench("bench_srv2_replica_scaling", "SRV2: read throughput at 1/2/3 "
          "log-shipping replicas, oracle-verified; >=2.5x at 3", _srv2),
    Bench("bench_srv3_read_mix", "SRV3: batched vs singleton reads on a "
          "95/5 mix, exact equivalence; >=3x; work/depth pinned", _srv3),
    Bench("bench_srv2_failover", "SRV2 failover: primary + 2 replica "
          "processes, one killed and replaced; exact convergence",
          _failover),
    Bench("bench_par1", "PAR1: pool kernels' speedup vs W/p + D at pinned "
          "and zero unit cost, charges exact; >=2x at p=4", _par1),
    Bench("bench_reads_sparse", "PERF6: a small local read batch on a "
          "path-plus-chords snapshot, 10^6 vertices (10^5 smoke): first "
          "call of an epoch, steady call <=0.2 ms; work/depth pinned",
          _reads_sparse),
    Bench("bench_commit_path", "PERF7: a seeded serve stream on 2 "
          "in-process shards with a WAL: served-delta ms by size bucket, "
          "ms per checkpoint, snapshot and checkpoint bytes verified "
          "against set references; counts and work/depth pinned",
          _commit_path),
    Bench("bench_reads_dense", "PERF8: 32-item frames of the SRV3 mix "
          "between few-edge commits on a dense 1024-vertex snapshot: "
          "first-of-epoch and steady frame ms, answers equal the "
          "singleton path; work/depth pinned", _reads_dense),
)


def resolve(names: Iterable[str]) -> tuple[Bench, ...]:
    """The entries named (all of them for no names), in the order given.

    Raises ValueError, naming the whole catalogue, on an unknown name.
    """
    by_name = {b.name: b for b in BENCHES}
    names = list(dict.fromkeys(names))
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ValueError(
            f"unknown bench(es) {unknown}; choose from {list(by_name)}")
    return tuple(by_name[n] for n in names) if names else BENCHES
