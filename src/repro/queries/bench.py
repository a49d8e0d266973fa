"""SRV3: batched vs query-at-a-time read throughput on a 95/5 mix.

The experiment behind the ``bench_srv3_read_mix`` entry of
:mod:`repro.harness.benches`: drive a read-heavy request stream
(95% reads / 5% writes) against one
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

__all__ = ["BenchQueriesConfig", "BenchQueriesReport", "mix_read",
           "run_bench_queries"]


#: share of requests that are reads (the 95/5 mix)
READ_FRACTION = 0.95
#: read kinds, drawn uniformly
_KINDS = ("distance", "distance", "connected", "connected", "contains")


@dataclass
class BenchQueriesConfig:
    n: int = 512
    m: int = 640
    requests: int = 4000
    window: int = 500               # requests per write-then-read window
    hot_fraction: float = 0.9       # reads drawn from the hot vertex set
    k: int = 2                      # spanner stretch parameter
    seed: int = 4242
    repeats: int = 1                # timing repeats (best-of)


@dataclass
class BenchQueriesReport:
    config: BenchQueriesConfig
    reads: int = 0
    writes: int = 0
    singleton_rps: float = 0.0
    batched_rps: float = 0.0
    speedup_x: float = 0.0
    work: int = 0                   # batched-pass cost-model charges
    depth: int = 0
    dedup_ratio: float = 1.0        # unique keys / reads
    verified: bool = False
    violations: list[str] = field(default_factory=list)


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
    windows: list[tuple[list, list]] = []
    produced = 0
    while produced < cfg.requests:
        size = min(cfg.window, cfg.requests - produced)
        produced += size
        n_reads = int(round(size * READ_FRACTION))
        writes = []
        for _ in range(size - n_reads):
            u, v = rng.choice(cfg.n, size=2, replace=False)
            op = "insert" if rng.random() < 0.5 else "delete"
            writes.append((op, int(u), int(v)))
        reads = [mix_read(rng, cfg.n, cfg.hot_fraction)
                 for _ in range(n_reads)]
        windows.append((writes, reads))
    return windows


def mix_read(rng: np.random.Generator, n: int,
             hot_fraction: float = 0.9) -> tuple[str, Any]:
    """One read of the SRV3 mix: ``size`` 2% of the time, else a
    ``distance``/``connected``/``contains`` pair (2:2:1) whose endpoints
    come from the hot set ``[0, max(4, n // 32))`` with probability
    ``hot_fraction`` and from all of ``[0, n)`` otherwise."""
    if rng.random() < 0.02:
        return ("size", None)
    lo = max(4, n // 32) if rng.random() < hot_fraction else n
    u = int(rng.integers(0, lo))
    v = int(rng.integers(0, lo))
    return (_KINDS[int(rng.integers(0, len(_KINDS)))], (u, v))


def run_bench_queries(cfg: BenchQueriesConfig) -> BenchQueriesReport:
    """Run the SRV3 comparison; deterministic shape for a fixed config."""
    from repro.queries.batch import coalesce_queries
    from repro.service.engine import LocalExecutor, SpannerService

    rng = np.random.default_rng(cfg.seed)
    edges = _initial_edges(rng, cfg.n, cfg.m)
    windows = _make_windows(cfg, rng)
    report = BenchQueriesReport(config=cfg)

    best_single = float("inf")
    best_batch = float("inf")
    for _ in range(max(cfg.repeats, 1)):
        spec = {"kind": "spanner", "n": cfg.n, "edges": edges,
                "k": cfg.k, "seed": cfg.seed}
        svc = SpannerService(LocalExecutor(spec))
        cm = CostModel()
        t_single = 0.0
        t_batch = 0.0
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
        finally:
            svc.close()
        best_single = min(best_single, t_single)
        best_batch = min(best_batch, t_batch)
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
    report.verified = not report.violations
    return report
