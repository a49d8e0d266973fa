"""SRV3: batched vs query-at-a-time read throughput on a 95/5 mix.

The experiment behind ``repro bench-queries`` and the
``bench_srv3_read_mix`` gate scenario: drive a read-heavy request stream
(default 95% reads / 5% writes) against one
:class:`~repro.service.engine.SpannerService` twice per window — once
through the singleton :meth:`~repro.service.engine.SpannerService.query`
path, once through
:meth:`~repro.service.engine.SpannerService.query_batch` — and compare.

The stream is *windowed* so the comparison is honest: each window applies
its writes and flushes first, then both read paths answer the identical
read set against the identical snapshot.  That makes exact equivalence a
hard assertion (any mismatch is reported as a violation, same contract as
the differential oracle) while the wall-clock ratio isolates precisely
the thing batching changes: one shared traversal pass versus one
traversal per read.  Reads follow a hot-set skew (most pairs drawn from a
small vertex subset), the shape that gives coalescing and shared BFS
waves something to deduplicate — the regime batch queries are for.

Work/depth: the batched pass is charged to a real
:class:`~repro.pram.cost.CostModel`, and the totals land in the gate
baseline's exact-match fields, so the shared-traversal charging cannot
silently regress to per-query sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.pram.cost import CostModel

__all__ = ["BenchQueriesConfig", "BenchQueriesReport", "run_bench_queries"]


@dataclass
class BenchQueriesConfig:
    n: int = 512
    m: int = 640
    requests: int = 4000
    read_fraction: float = 0.95
    window: int = 500               # requests per write-then-read window
    hot_fraction: float = 0.9       # reads drawn from the hot vertex set
    k: int = 2                      # spanner stretch parameter
    seed: int = 4242
    repeats: int = 1                # timing repeats (best-of)
    # with parallel >= 2 the service owns a ProcessPoolBackend and a third
    # timed pass answers each window through the pool-backed query_batch
    # path (uncharged, so distance sweeps take the chunk-parallel route);
    # the singleton and charged-batch passes are unchanged, so the gate's
    # pinned work/depth totals never depend on this knob
    parallel: int = 0


@dataclass
class BenchQueriesReport:
    config: BenchQueriesConfig
    reads: int = 0
    writes: int = 0
    singleton_rps: float = 0.0
    batched_rps: float = 0.0
    speedup_x: float = 0.0
    parallel_rps: float = 0.0       # pool-backed batched pass (parallel >= 2)
    parallel_speedup_x: float = 0.0  # vs the singleton pass
    parallel_utilization: float = 0.0
    work: int = 0                   # batched-pass cost-model charges
    depth: int = 0
    dedup_ratio: float = 1.0        # unique keys / reads
    verified: bool = False
    violations: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    def rows(self) -> list[dict[str, Any]]:
        """Table rows for :func:`repro.harness.format_table`."""
        row: dict[str, Any] = {
            "reads": self.reads,
            "writes": self.writes,
            "singleton_rps": round(self.singleton_rps, 1),
            "batched_rps": round(self.batched_rps, 1),
            "speedup": f"{self.speedup_x:.2f}x",
            "dedup": f"{self.dedup_ratio:.2f}",
            "verified": self.verified,
        }
        if self.config.parallel >= 2:
            row["parallel_rps"] = round(self.parallel_rps, 1)
            row["par_speedup"] = f"{self.parallel_speedup_x:.2f}x"
        return [row]

    def to_dict(self) -> dict:
        """JSON-safe report payload (the ``--json`` output)."""
        out: dict[str, Any] = {
            "n": self.config.n,
            "m": self.config.m,
            "requests": self.config.requests,
            "read_fraction": self.config.read_fraction,
            "reads": self.reads,
            "writes": self.writes,
            "singleton_rps": round(self.singleton_rps, 1),
            "batched_rps": round(self.batched_rps, 1),
            "speedup_x": round(self.speedup_x, 2),
            "work": self.work,
            "depth": self.depth,
            "dedup_ratio": round(self.dedup_ratio, 3),
            "verified": self.verified,
            "violations": self.violations,
            "wall_seconds": round(self.wall_seconds, 3),
        }
        # only present when the pool pass ran, so the default payload (the
        # shape the gate baseline records) is unchanged by this feature
        if self.config.parallel >= 2:
            out["parallel"] = self.config.parallel
            out["parallel_rps"] = round(self.parallel_rps, 1)
            out["parallel_speedup_x"] = round(self.parallel_speedup_x, 2)
            out["parallel_utilization"] = round(self.parallel_utilization, 3)
        return out


def _initial_edges(rng: np.random.Generator, n: int, m: int) -> list:
    edges: set = set()
    while len(edges) < m:
        u, v = rng.choice(n, size=2, replace=False)
        u, v = int(u), int(v)
        edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def _make_windows(
    cfg: BenchQueriesConfig, rng: np.random.Generator
) -> list[tuple[list, list]]:
    """The request stream as (writes, reads) windows, fixed up front so
    both timed passes replay identical work."""
    hot = max(4, cfg.n // 32)
    kinds = ("distance", "distance", "connected", "connected", "contains")
    windows: list[tuple[list, list]] = []
    produced = 0
    while produced < cfg.requests:
        size = min(cfg.window, cfg.requests - produced)
        produced += size
        n_reads = int(round(size * cfg.read_fraction))
        writes = []
        for _ in range(size - n_reads):
            u, v = rng.choice(cfg.n, size=2, replace=False)
            op = "insert" if rng.random() < 0.5 else "delete"
            writes.append((op, int(u), int(v)))
        reads = []
        for _ in range(n_reads):
            if rng.random() < 0.02:
                reads.append(("size", None))
                continue
            lo = hot if rng.random() < cfg.hot_fraction else cfg.n
            u = int(rng.integers(0, lo))
            v = int(rng.integers(0, lo))
            kind = kinds[int(rng.integers(0, len(kinds)))]
            reads.append((kind, (u, v)))
        windows.append((writes, reads))
    return windows


def run_bench_queries(cfg: BenchQueriesConfig) -> BenchQueriesReport:
    """Run the SRV3 comparison; deterministic shape for a fixed config."""
    from repro.queries.batch import coalesce_queries
    from repro.service.engine import LocalExecutor, SpannerService

    t_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    edges = _initial_edges(rng, cfg.n, cfg.m)
    windows = _make_windows(cfg, rng)
    report = BenchQueriesReport(config=cfg)

    best_single = float("inf")
    best_batch = float("inf")
    best_par = float("inf")
    for _ in range(max(cfg.repeats, 1)):
        spec = {"kind": "spanner", "n": cfg.n, "edges": edges,
                "k": cfg.k, "seed": cfg.seed}
        backend = None
        if cfg.parallel >= 2:
            # fork before the service spawns any threads of its own; the
            # engine owns the backend and close() shuts it down
            from repro.parallel import ProcessPoolBackend

            backend = ProcessPoolBackend(cfg.parallel, min_items=32)
        svc = SpannerService(
            LocalExecutor(spec),
            parallel=backend,
        )
        cm = CostModel()
        t_single = 0.0
        t_batch = 0.0
        t_par = 0.0
        reads = writes = 0
        unique = 0
        violations: list[str] = []
        try:
            for writes_w, reads_w in windows:
                for op, u, v in writes_w:
                    svc.submit_update(op, u, v)
                svc.flush()
                writes += len(writes_w)
                if not reads_w:
                    continue
                reads += len(reads_w)
                t0 = time.perf_counter()
                singles = [svc.query(kind, payload)
                           for kind, payload in reads_w]
                t_single += time.perf_counter() - t0
                t0 = time.perf_counter()
                batch = svc.query_batch(reads_w, cost=cm)
                t_batch += time.perf_counter() - t0
                keys, _ = coalesce_queries(reads_w)
                unique += len(keys)
                if not violations:
                    for i, (got, ref) in enumerate(
                            zip((r.value for r in batch), singles)):
                        if got != ref:
                            violations.append(
                                f"window read {i} {reads_w[i]!r}: batch "
                                f"answered {got!r}, singleton {ref!r}")
                            break
                if backend is not None:
                    # uncharged, so distance sweeps take the pool's
                    # chunk-parallel route (pruning stays round-granular)
                    t0 = time.perf_counter()
                    pbatch = svc.query_batch(reads_w)
                    t_par += time.perf_counter() - t0
                    if not violations:
                        for i, (got, ref) in enumerate(
                                zip((r.value for r in pbatch), singles)):
                            if got != ref:
                                violations.append(
                                    f"window read {i} {reads_w[i]!r}: pool "
                                    f"answered {got!r}, singleton {ref!r}")
                                break
        finally:
            svc.close()
        if backend is not None:
            report.parallel_utilization = backend.utilization
        best_single = min(best_single, t_single)
        best_batch = min(best_batch, t_batch)
        best_par = min(best_par, t_par)
        # cost charges and stream shape are identical across repeats;
        # keep the last repeat's accounting
        report.reads = reads
        report.writes = writes
        report.work = cm.work
        report.depth = cm.depth
        report.dedup_ratio = unique / reads if reads else 1.0
        report.violations = violations

    report.singleton_rps = report.reads / best_single \
        if best_single > 0 else 0.0
    report.batched_rps = report.reads / best_batch \
        if best_batch > 0 else 0.0
    report.speedup_x = best_single / best_batch if best_batch > 0 else 0.0
    if cfg.parallel >= 2 and best_par > 0 and best_par != float("inf"):
        report.parallel_rps = report.reads / best_par
        report.parallel_speedup_x = best_single / best_par
    report.verified = not report.violations
    report.wall_seconds = time.perf_counter() - t_start
    return report
