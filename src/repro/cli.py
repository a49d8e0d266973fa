"""Command-line driver: run any of the paper's structures over a synthetic
workload and print the measured table.

Examples
--------
::

    python -m repro.cli spanner   --n 500 --m 3000 --k 3 --workload churn
    python -m repro.cli sparse    --n 400 --m 2400 --workload sliding
    python -m repro.cli ultra     --n 300 --m 3000 --x 3
    python -m repro.cli bundle    --n 200 --m 1500 --t 3
    python -m repro.cli sparsifier --n 80 --m 1200 --t 4
    python -m repro.cli estree    --n 300 --m 2000 --limit 6
    python -m repro.cli serve     --requests 10000 --shards 2
    python -m repro.cli serve     --listen 127.0.0.1:7421
    python -m repro.cli replica   --primary 127.0.0.1:7421 --listen :7422
    python -m repro.cli bench     bench_srv2_replica_scaling --smoke
    python -m repro.cli bench     --smoke --json
    python -m repro.cli chaos     --smoke

Each structure command builds the structure, drives the requested update
stream through it, and prints size/recourse/work/depth statistics plus
Brent simulated runtimes for a few processor counts.  ``serve`` instead
runs the asynchronous serving engine (``repro.service``): a stream of
single-edge client requests is coalesced into batches, sharded over
worker processes, answered with snapshot-consistent queries, and finally
verified against a synchronous replay of the same batches.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import format_table, run_workload
from repro.workloads import (
    Workload,
    churn_stream,
    deletion_stream,
    insertion_stream,
    mixed_stream,
    sliding_window_stream,
)

__all__ = ["main", "build_parser"]


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _parse_hostport(text: str, default_host: str = "127.0.0.1",
                    ) -> tuple[str, int]:
    """``HOST:PORT`` (``:PORT`` and bare ``PORT`` use the default host)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = default_host, text
    return (host or default_host), int(port)


def _make_workload(args: argparse.Namespace) -> Workload:
    n, m, b = args.n, args.m, args.batch_size
    kind = args.workload
    if getattr(args, "input", None):
        # real graph from an edge-list file: stream deletions over it
        from repro.graph.io import read_edge_list
        from repro.workloads import UpdateBatch

        n, edges, _weights = read_edge_list(args.input)
        args.n = n
        if kind != "delete":
            print("--input supports the delete workload; forcing it",
                  file=sys.stderr)
        batches = [
            UpdateBatch(deletions=edges[i : i + b])
            for i in range(0, len(edges), b)
        ]
        return Workload(n, edges, batches)
    if kind == "delete":
        return deletion_stream(n, m, batch_size=b, seed=args.seed)
    if kind == "insert":
        return insertion_stream(n, m, batch_size=b, seed=args.seed)
    if kind == "mixed":
        return mixed_stream(
            n, m, batch_size=b, num_batches=args.batches, seed=args.seed
        )
    if kind == "churn":
        return churn_stream(
            n, m, churn_fraction=args.churn, num_batches=args.batches,
            seed=args.seed,
        )
    if kind == "sliding":
        return sliding_window_stream(
            n, window=m, num_batches=args.batches, batch_size=b,
            seed=args.seed,
        )
    raise ValueError(f"unknown workload {kind!r}")


def _finish(label: str, workload: Workload, build,
            profile: bool = False) -> int:
    if profile:
        from repro.harness import profile_workload
        from repro.pram import NULL_COST_MODEL

        report = profile_workload(
            workload, lambda edges: build(edges, NULL_COST_MODEL)
        )
        print(report)
    stats = run_workload(label, workload, build)
    print(format_table([stats.row()], title=f"repro run: {label}"))
    rows = [
        {"p": p, "simulated_time(W/p+D)": round(stats.simulated_time(p), 1)}
        for p in (1, 8, 64, 512)
    ]
    print()
    print(
        format_table(
            rows,
            f"Brent runtimes (update work={stats.update_cost.work}, "
            f"depth={stats.update_cost.depth})",
        )
    )
    return 0


def _cmd_spanner(args: argparse.Namespace) -> int:
    from repro.spanner import FullyDynamicSpanner

    wl = _make_workload(args)

    def build(edges, cost):
        return FullyDynamicSpanner(
            args.n, edges, k=args.k, seed=args.seed, cost=cost,
            base_capacity=args.base_capacity,
        )

    return _finish(f"spanner k={args.k}", wl, build, profile=args.profile)


def _cmd_sparse(args: argparse.Namespace) -> int:
    from repro.contraction import SparseSpannerDynamic

    wl = _make_workload(args)

    def build(edges, cost):
        return SparseSpannerDynamic(
            args.n, edges, seed=args.seed, cost=cost,
            base_capacity=args.base_capacity,
        )

    return _finish("sparse spanner", wl, build, profile=args.profile)


def _cmd_ultra(args: argparse.Namespace) -> int:
    from repro.ultrasparse import UltraSparseSpannerDynamic

    wl = _make_workload(args)

    def build(edges, cost):
        return UltraSparseSpannerDynamic(
            args.n, edges, x=args.x, seed=args.seed, cost=cost,
        )

    return _finish(f"ultra-sparse x={args.x}", wl, build, profile=args.profile)


def _cmd_bundle(args: argparse.Namespace) -> int:
    from repro.bundle import DecrementalTBundle

    if args.workload != "delete":
        print("bundle is decremental; forcing --workload delete",
              file=sys.stderr)
        args.workload = "delete"
    wl = _make_workload(args)

    class _Adapter:
        def __init__(self, edges, cost):
            self.inner = DecrementalTBundle(
                args.n, edges, t=args.t, seed=args.seed,
                instances=args.instances, cost=cost,
            )

        def update(self, insertions=(), deletions=()):
            assert not list(insertions)
            return self.inner.batch_delete(deletions)

        def output_edges(self):
            return self.inner.bundle_edges()

    return _finish(
        f"t-bundle t={args.t}", wl, lambda e, c: _Adapter(e, c),
        profile=args.profile,
    )


def _cmd_sparsifier(args: argparse.Namespace) -> int:
    from repro.sparsifier import FullyDynamicSpectralSparsifier

    wl = _make_workload(args)

    def build(edges, cost):
        return FullyDynamicSpectralSparsifier(
            args.n, edges, t=args.t, seed=args.seed,
            instances=args.instances, cost=cost,
        )

    return _finish(f"sparsifier t={args.t}", wl, build, profile=args.profile)


def _cmd_estree(args: argparse.Namespace) -> int:
    from repro.bfs import BatchDynamicESTree

    if args.workload != "delete":
        print("estree is decremental; forcing --workload delete",
              file=sys.stderr)
        args.workload = "delete"
    wl = _make_workload(args)

    class _Adapter:
        def __init__(self, edges, cost):
            directed = [(u, v) for u, v in edges] + [
                (v, u) for u, v in edges
            ]
            self.tree = BatchDynamicESTree(
                args.n, directed, source=0, limit=args.limit, cost=cost
            )

        def update(self, insertions=(), deletions=()):
            batch = []
            for u, v in deletions:
                batch.append((u, v))
                batch.append((v, u))
            changes = self.tree.batch_delete(batch)
            return {(c.vertex, c.vertex) for c in changes}, set()

        def output_edges(self):
            return set(self.tree.tree_edges())

    return _finish(f"ES tree L={args.limit}", wl,
                   lambda e, c: _Adapter(e, c), profile=args.profile)


def _cmd_serve_net(args: argparse.Namespace) -> int:
    """``serve --listen``: the networked multi-tenant front end."""
    import asyncio
    import json

    from repro.graph.generators import gnm_random_graph
    from repro.net import NetServerConfig, TenantConfig, TenantManager, serve
    from repro.service.admission import AdmissionConfig

    host, port = _parse_hostport(args.listen)
    edges = gnm_random_graph(args.n, args.m, seed=args.seed)
    spec = {"kind": args.backend, "n": args.n, "k": args.k,
            "edges": edges, "seed": args.seed}
    tenants = TenantManager()
    for name in (args.tenants or "default").split(","):
        tenants.create(TenantConfig(
            name=name.strip(),
            spec=dict(spec),
            shards=args.shards,
            admission=AdmissionConfig(
                max_pending=args.queue_capacity,
                max_inflight_queries=args.max_inflight_queries,
            ),
            wal_dir=(f"{args.wal_dir}/{name.strip()}"
                     if args.wal_dir else None),
            checkpoint_interval=args.checkpoint_interval,
        ))
    cfg = NetServerConfig(
        host=host, port=port,
        query_slots=args.query_slots,
        service_time=args.service_time_us / 1e6,
    )

    def announce(host: str, port: int) -> None:
        # scripted callers pass port 0 and parse this line
        print(f"NET-LISTEN {host} {port}", flush=True)

    try:
        server = asyncio.run(serve(tenants, cfg, announce=announce))
    finally:
        tenants.close()
    summary = {
        "host": server.host,
        "port": server.port,
        "tenants": (args.tenants or "default").split(","),
        "connections_served": server.connections_served,
        "requests_served": server.requests_served,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"drained: {summary['requests_served']} request(s) over "
              f"{summary['connections_served']} connection(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import ServeConfig, run_serve

    if args.listen is not None:
        return _cmd_serve_net(args)

    cfg = ServeConfig(
        n=args.n,
        m=args.m,
        requests=args.requests,
        seed=args.seed,
        query_prob=args.query_prob,
        backend=args.backend,
        k=args.k,
        shards=args.shards,
        processes=args.processes,
        max_batch=args.max_batch,
        max_delay=args.deadline_ms / 1000.0,
        target_batch_work=args.target_batch_work,
        queue_capacity=args.queue_capacity,
        wal_dir=args.wal_dir,
        checkpoint_interval=args.checkpoint_interval,
        parallel=args.parallel,
    )

    # SIGTERM behaves like Ctrl-C: the driver drains admitted updates,
    # flushes a final checkpoint, and run_serve returns normally with
    # report.interrupted set — a supervisor's `kill` is a clean shutdown
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    try:
        report = run_serve(cfg, verify=not args.no_verify)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    rows = [{
        "backend": cfg.backend,
        "shards": cfg.shards,
        "procs": cfg.processes,
        "served": report.served,
        "applied": report.applied_ops,
        "coalesced": report.coalesced,
        "shed": report.shed,
        "rejected": report.rejected,
        "queries": report.queries,
        "flushes": report.flushes,
        "wall_s": round(report.wall_seconds, 3),
        "req/s": round(report.throughput_rps),
    }]
    if args.json:
        import json

        payload = dict(rows[0])
        payload.update(
            interrupted=report.interrupted,
            resumed_from_seq=report.resumed_from_seq,
            verified=None if args.no_verify else report.verified,
        )
        print(json.dumps(payload, sort_keys=True))
        return 0 if (args.no_verify or report.verified) else 1
    print(format_table(rows, "repro serve: batch-dynamic serving engine"))
    print(f"\nper-shard output sizes: {report.shard_sizes}")
    print()
    print(report.metrics_text)
    if report.interrupted and not report.served \
            and report.verification is None:
        # the signal landed during workload generation / bootstrap: there
        # is nothing to drain or verify, but it is still a clean exit
        print("\nshutdown: interrupted during startup — nothing was served")
        return 0
    if report.interrupted:
        print(
            f"\nshutdown: interrupted after {report.served} request(s) — "
            f"queue drained, final checkpoint flushed at "
            f"seq={report.final_seq}"
            + (f", wal_dir={cfg.wal_dir}" if cfg.wal_dir else "")
        )
    if report.resumed_from_seq:
        print(f"resumed from WAL/checkpoint at seq={report.resumed_from_seq}")
    if args.no_verify:
        print("\nverification: skipped (--no-verify)")
        return 0
    if report.verified:
        print(
            "\nverification: OK — the differential oracle replayed every "
            "applied coalesced batch and reproduced the served state exactly"
        )
        return 0
    print(f"\n{report.verification}")
    return 1


def _cmd_replica(args: argparse.Namespace) -> int:
    """Run a log-shipping read replica against a net primary."""
    import json
    import signal
    import threading

    from repro.net import ReplicaConfig, run_replica

    phost, pport = _parse_hostport(args.primary)
    listen = _parse_hostport(args.listen) if args.listen else None
    cfg = ReplicaConfig(
        tenant=args.tenant,
        poll_interval=args.poll_ms / 1000.0,
    )
    replica, server = run_replica(
        phost, pport, listen=listen, config=cfg,
        query_slots=args.query_slots,
        service_time=args.service_time_us / 1e6,
    )
    if server is not None:
        print(f"NET-LISTEN {server.host} {server.port}", flush=True)
    stop = threading.Event()
    try:
        previous = signal.signal(signal.SIGTERM,
                                 lambda *_: stop.set())
    except ValueError:  # pragma: no cover - non-main thread (tests)
        previous = None
    try:
        if args.once:
            replica.catch_up()
        else:
            try:
                replica.run(stop=stop, max_seconds=args.max_seconds)
            except KeyboardInterrupt:
                pass
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        if server is not None:
            server.stop()
        stats = replica.stats
        replica.close()
    summary = {
        "tenant": cfg.tenant,
        "records_applied": stats.records_applied,
        "last_applied_seq": stats.last_applied_seq,
        "lag_commits": stats.lag_commits,
        "fetches": stats.fetches,
        "bytes_fetched": stats.bytes_fetched,
        "bootstrap_seconds": round(stats.bootstrap_seconds, 4),
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"replica drained: applied {summary['records_applied']} "
              f"record(s), at seq {summary['last_applied_seq']}, "
              f"lag {summary['lag_commits']}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run catalogue entries (``repro.harness.benches``) by name."""
    import json

    from repro.harness.benches import resolve

    try:
        benches = resolve(args.names)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    results = {}
    for bench in benches:
        rows, ok = bench.run(args.smoke)
        results[bench.name] = {"ok": ok, "rows": rows}
        if not args.json:
            print(format_table(rows, title=f"{bench.name}: {bench.doc}"))
            print(f"{bench.name}: {'ok' if ok else 'FAILED'}\n")
    ok = all(r["ok"] for r in results.values())
    if args.json:
        print(json.dumps({"ok": ok, "benches": results}, sort_keys=True))
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.chaos import (
        CATALOGUE,
        ChaosConfig,
        recovery_latency_sweep,
        resolve_plans,
        run_campaign,
    )

    try:
        plans = resolve_plans(args.plans.split(",") if args.plans
                              else CATALOGUE)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    seeds = args.seeds
    requests = args.requests
    shards = args.shards
    if args.smoke:
        # CI-friendly: 2 shards, one seed per plan, <=1200 requests; the
        # whole catalogue stays well under a minute
        seeds = min(seeds, 1)
        requests = min(requests, 1200)
        shards = min(shards, 2)
    cfg = ChaosConfig(
        requests=requests,
        shards=shards,
        seeds=seeds,
        seed0=args.seed,
        plans=plans,
        processes=args.processes,
        checkpoint_interval=args.checkpoint_interval,
    )
    if args.rsl1:
        rows = recovery_latency_sweep(cfg)
        ok = all(r["divergences"] == 0 for r in rows)
        if args.json:
            print(json.dumps({"ok": ok, "rows": rows}, sort_keys=True))
        else:
            print(format_table(
                rows, "RSL1: recovery latency vs checkpoint interval"))
        return 0 if ok else 1
    report = run_campaign(
        cfg, log=(None if args.json
                  else lambda msg: print(f"[chaos] {msg}")))
    if args.json:
        print(json.dumps({
            "ok": report.ok,
            "divergences": report.divergence_count,
            "wall_s": round(report.wall_seconds, 3),
            "rows": report.rows(),
        }, sort_keys=True))
        return 0 if report.ok else 1
    print(format_table(
        report.rows(),
        title=f"repro chaos: {len(plans)} fault plan(s) x {seeds} seed(s)",
    ))
    print(f"\nwall time: {report.wall_seconds:.1f}s")
    if report.ok:
        print("no divergences — every fault converged to the exact "
              "Workload.replay ground truth of the committed log "
              "(oracle-verified)")
        return 0
    for run in report.runs:
        for d in run.divergences:
            print(f"\nDIVERGENCE {d}")
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.oracle import STRUCTURES, emit_pytest_case, write_pytest_case
    from repro.oracle.fuzz import FuzzConfig, run_fuzz

    if args.queries:
        return _cmd_fuzz_queries(args)
    structures = tuple(sorted(STRUCTURES))
    if args.structures:
        structures = tuple(args.structures.split(","))
        unknown = [s for s in structures if s not in STRUCTURES]
        if unknown:
            print(f"unknown structures {unknown}; "
                  f"choose from {sorted(STRUCTURES)}", file=sys.stderr)
            return 2
    seeds = args.seeds
    time_budget = args.time_budget
    if args.smoke:
        # CI-friendly: small deterministic sweep, hard-capped at a minute
        seeds = min(seeds, 10)
        time_budget = 60.0 if time_budget is None else min(time_budget, 60.0)
    cfg = FuzzConfig(
        seeds=seeds,
        structures=structures,
        time_budget=time_budget,
        max_n=args.max_n,
        shrink=not args.no_shrink,
    )
    report = run_fuzz(cfg, log=lambda msg: print(f"[fuzz] {msg}"))
    print(format_table(
        report.rows(),
        title=f"repro fuzz: differential oracle, {seeds} seed(s)/structure",
    ))
    print(f"\nwall time: {report.wall_seconds:.1f}s")
    if report.ok:
        print("no divergences — every structure matches the replay oracle, "
              "the static baselines, and the paper envelopes")
        return 0
    for div in report.divergences:
        print(f"\nDIVERGENCE {div}")
        if args.emit_dir:
            path = write_pytest_case(div, args.emit_dir)
            print(f"reproducer written to {path}")
        else:
            print("--- minimized pytest reproducer ---")
            print(emit_pytest_case(div))
    return 1


def _cmd_fuzz_queries(args: argparse.Namespace) -> int:
    """``repro fuzz --queries``: the batch-query differential campaign."""
    from repro.oracle.queries import QueryFuzzConfig, run_query_fuzz

    workloads = args.seeds if args.seeds != 20 else 500
    time_budget = args.time_budget
    if args.smoke:
        workloads = min(workloads, 60)
        time_budget = 60.0 if time_budget is None else min(time_budget, 60.0)
    cfg = QueryFuzzConfig(
        workloads=workloads,
        max_n=args.max_n,
        time_budget=time_budget,
    )
    report = run_query_fuzz(cfg, log=lambda msg: print(f"[fuzz] {msg}"))
    print(format_table(
        report.rows(),
        title=f"repro fuzz --queries: batch vs singleton, "
              f"{report.workloads} workload(s)",
    ))
    print(f"\nwall time: {report.wall_seconds:.1f}s")
    if report.ok:
        print("no violations — every batch answer equals the "
              "query-at-a-time path, answers are order- and "
              "duplication-invariant, the array sweeps charge what the "
              "reference loops charge, and work/depth stayed inside the "
              "shared-traversal envelopes")
        return 0
    for i, v in report.violations:
        print(f"\nVIOLATION (workload {i}) {v}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's batch-dynamic structures on synthetic "
                    "workloads.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=200, help="vertex count")
        p.add_argument("--m", type=int, default=1000,
                       help="initial edges (or window size for sliding)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--batch-size", type=int, default=50)
        p.add_argument("--batches", type=int, default=10)
        p.add_argument("--churn", type=float, default=0.1,
                       help="fraction replaced per batch (churn workload)")
        p.add_argument(
            "--workload",
            choices=["delete", "insert", "mixed", "churn", "sliding"],
            default="mixed",
        )
        p.add_argument("--profile", action="store_true",
                       help="cProfile the run and print the hot functions")
        p.add_argument("--input", type=str, default=None,
                       help="edge-list file to use instead of a synthetic "
                            "graph (implies the delete workload)")

    p = sub.add_parser("spanner", help="Theorem 1.1 (2k-1)-spanner")
    common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--base-capacity", type=int, default=None)
    p.set_defaults(func=_cmd_spanner)

    p = sub.add_parser("sparse", help="Theorem 1.3 O(n)-edge spanner")
    common(p)
    p.add_argument("--base-capacity", type=int, default=None)
    p.set_defaults(func=_cmd_sparse)

    p = sub.add_parser("ultra", help="Theorem 1.4 ultra-sparse spanner")
    common(p)
    p.add_argument("--x", type=float, default=2.0)
    p.set_defaults(func=_cmd_ultra)

    p = sub.add_parser("bundle", help="Theorem 1.5 t-bundle (decremental)")
    common(p)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--instances", type=int, default=4)
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("sparsifier", help="Theorem 1.6 spectral sparsifier")
    common(p)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--instances", type=int, default=4)
    p.set_defaults(func=_cmd_sparsifier)

    p = sub.add_parser("estree", help="Theorem 1.2 decremental BFS")
    common(p)
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(func=_cmd_estree)

    p = sub.add_parser(
        "serve",
        help="asynchronous serving engine: coalescing batcher + shards",
    )
    p.add_argument("--n", type=int, default=256, help="vertex count")
    p.add_argument("--m", type=int, default=1024, help="initial edges")
    p.add_argument("--requests", type=int, default=10_000,
                   help="client requests to serve (updates + queries)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=["spanner", "sparse", "sparsifier"],
                   default="spanner")
    p.add_argument("--k", type=int, default=2,
                   help="spanner stretch parameter (2k-1)")
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--no-processes", dest="processes", action="store_false",
                   help="run shards in-process instead of worker processes")
    p.add_argument("--max-batch", type=int, default=256,
                   help="flush when this many ops are pending")
    p.add_argument("--deadline-ms", type=float, default=2.0,
                   help="max (simulated) ms the oldest op may wait")
    p.add_argument("--target-batch-work", type=int, default=None,
                   help="adapt max-batch toward this cost-model work/batch")
    p.add_argument("--queue-capacity", type=int, default=192,
                   help="queue depth beyond which updates are shed")
    p.add_argument("--query-prob", type=float, default=0.1)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the synchronous replay verification")
    p.add_argument("--wal-dir", type=str, default=None,
                   help="directory for the write-ahead log + checkpoints; "
                        "rerunning with the same directory resumes")
    p.add_argument("--checkpoint-interval", type=int, default=64,
                   help="commits between checkpoints (with --wal-dir)")
    p.add_argument("--parallel", type=int, default=0, metavar="N",
                   help="answer batched reads over an N-worker process "
                        "pool (N >= 2; answers and charges are identical "
                        "to the default inline path)")
    p.add_argument("--listen", type=str, default=None, metavar="HOST:PORT",
                   help="serve over TCP instead of the synthetic driver "
                        "(port 0 = ephemeral, announced as NET-LISTEN)")
    p.add_argument("--tenants", type=str, default=None,
                   help="comma-separated tenant names (net mode; "
                        "default: one tenant named 'default')")
    p.add_argument("--query-slots", type=int, default=8,
                   help="concurrent query capacity of the net front end")
    p.add_argument("--service-time-us", type=float, default=0.0,
                   help="simulated per-query engine microseconds (net "
                        "mode; 0 = real engine time)")
    p.add_argument("--max-inflight-queries", type=int, default=None,
                   help="per-tenant reads in flight beyond which queries "
                        "shed with retry_after (net mode)")
    p.add_argument("--json", action="store_true",
                   help="print a JSON summary instead of tables")
    p.set_defaults(func=_cmd_serve, processes=True)

    p = sub.add_parser(
        "replica",
        help="log-shipping read replica of a --listen primary",
    )
    p.add_argument("--primary", type=str, required=True, metavar="HOST:PORT")
    p.add_argument("--listen", type=str, default=None, metavar="HOST:PORT",
                   help="also serve (read-only) queries on this address")
    p.add_argument("--tenant", type=str, default="default")
    p.add_argument("--poll-ms", type=float, default=20.0,
                   help="delay between wal_fetch polls when caught up")
    p.add_argument("--query-slots", type=int, default=8)
    p.add_argument("--service-time-us", type=float, default=0.0)
    p.add_argument("--once", action="store_true",
                   help="catch up once and exit instead of polling")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="exit after this many seconds (default: SIGTERM)")
    p.add_argument("--json", action="store_true",
                   help="print a JSON summary instead of prose")
    p.set_defaults(func=_cmd_replica)

    p = sub.add_parser(
        "bench",
        help="run benchmark catalogue entries by name (default: all); "
             "each verifies its own results",
    )
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="catalogue entries (repro.harness.benches)")
    p.add_argument("--smoke", action="store_true",
                   help="CI mode: no repeats, no speed bars, smaller "
                        "SRV2/failover/PAR1 runs; exact pins still held")
    p.add_argument("--json", action="store_true",
                   help="print the results as one JSON object")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "chaos",
        help="deterministic fault-injection campaign over the engine, "
             "its replicas and the wire, then verify exact recovery",
    )
    p.add_argument("--seeds", type=int, default=3,
                   help="seeded runs per fault plan")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--requests", type=int, default=2500,
                   help="client requests per run")
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--plans", type=str, default=None,
                   help="comma-separated plan or family names (service, "
                        "replica, net); default: the whole catalogue")
    p.add_argument("--checkpoint-interval", type=int, default=8)
    p.add_argument("--processes", action="store_true",
                   help="use real worker processes (default: deterministic "
                        "in-process shards)")
    p.add_argument("--smoke", action="store_true",
                   help="CI mode: 1 seed/plan, 2 shards, <=1200 requests")
    p.add_argument("--rsl1", action="store_true",
                   help="run the RSL1 recovery-latency-vs-checkpoint-"
                        "interval sweep instead of the full campaign")
    p.add_argument("--json", action="store_true",
                   help="emit the campaign report as one JSON object")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing oracle: cross-check every dynamic "
             "structure against replay + static baselines + envelopes",
    )
    p.add_argument("--seeds", type=int, default=20,
                   help="random workloads per structure (with --queries: "
                        "total workloads, default 500)")
    p.add_argument("--queries", action="store_true",
                   help="fuzz the batched query engine instead: cross-"
                        "check every batch answer against the query-at-a-"
                        "time path, order/duplication invariance, and the "
                        "work/depth envelopes")
    p.add_argument("--structures", type=str, default=None,
                   help="comma-separated subset (default: all registered)")
    p.add_argument("--max-n", type=int, default=40,
                   help="largest vertex count to fuzz")
    p.add_argument("--time-budget", type=float, default=None,
                   help="soft wall-clock cap in seconds")
    p.add_argument("--smoke", action="store_true",
                   help="CI mode: at most 10 seeds and a 60s budget")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without minimizing them")
    p.add_argument("--emit-dir", type=str, default=None,
                   help="write minimized reproducers as pytest files here")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
