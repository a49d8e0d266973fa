"""PAR1 — measured wall-clock speedup vs. the Brent prediction ``W/p + D``.

The cost model charges every batch kernel a ``(work, depth)`` pair, and
Brent's bound predicts a ``p``-processor schedule needs at most
``W/p + D`` time.  This bench closes the loop the paper itself can't
show: it runs the two chunk-parallel batch kernels (multi-source BFS and
component flooding, :mod:`repro.parallel.kernels`) under a real
:class:`~repro.parallel.pool.ProcessPoolBackend` p-sweep and compares the
*measured* speedup curve against the *predicted* one,
``speedup_pred(p) = brent_time(c, 1) / brent_time(c, p)``.

Execution-cost convention
-------------------------
Each charged work unit carries a pinned execution cost of
:data:`UNIT_COST_US` microseconds (workers sleep ``scans x unit_cost`` after
expanding a chunk; the ``p = 1`` baseline runs the *same* chunked driver
on a :class:`~repro.parallel.backend.SequentialBackend` and pays the
identical total serially).  This is the SRV2 convention — a pinned
per-unit service time makes the schedule-level speedup measurable and
honest on any machine, including a 1-core CI box where pure-CPU speedup
is physically impossible; sleeps overlap across worker processes exactly
as compute would across cores.  A second ``unit_cost = 0`` sweep
measures raw CPU instead (only meaningful on real multicore hardware).

Charge-pin verification
-----------------------
Before timing anything the bench records the kernels' charged totals
sequentially, then re-records them under a 2-worker pool and requires
*exact* ``(work, depth)`` equality plus identical answers — the same
invariant the ``tools/bench_gate.py`` pins enforce for the serving-path
scenarios.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from ..pram.cost import NULL_COST_MODEL, Cost, CostModel, brent_time
from ..queries.batch import batch_components, multi_source_bfs
from .backend import SequentialBackend
from .pool import ProcessPoolBackend

__all__ = ["BenchParallelConfig", "run_bench_parallel"]


@dataclass
class BenchParallelConfig:
    """Graph and sweep sizes for the PAR1 p-sweep."""

    n: int = 4000
    m: int = 16000
    sources: int = 24          # BFS wave count (k)
    queried: int = 48          # component-labeling query vertices
    procs: tuple[int, ...] = (1, 2, 4, 8)
    repeats: int = 2
    seed: int = 0
    min_speedup: float | None = 2.0  # bar at p=4 (full runs)


#: pinned microseconds per charged work unit (the SRV2 convention)
UNIT_COST_US = 15.0
#: rounds smaller than this expand inline
MIN_ITEMS = 32
KERNELS = ("mbfs", "components")


def _random_adjacency(cfg: BenchParallelConfig) -> dict[int, list[int]]:
    rng = random.Random(cfg.seed)
    adj: dict[int, set[int]] = {v: set() for v in range(cfg.n)}
    edges = 0
    while edges < cfg.m:
        u = rng.randrange(cfg.n)
        v = rng.randrange(cfg.n)
        if u != v and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            edges += 1
    return {v: sorted(ws) for v, ws in adj.items()}


def _make_backend(p: int, unit_cost_s: float):
    if p <= 1:
        return SequentialBackend(unit_cost_s=unit_cost_s, min_items=MIN_ITEMS)
    return ProcessPoolBackend(p, unit_cost_s=unit_cost_s, min_items=MIN_ITEMS)


def _kernel_runner(cfg: BenchParallelConfig, kernel: str, adj):
    rng = random.Random(cfg.seed + 1)
    if kernel == "mbfs":
        srcs = rng.sample(range(cfg.n), min(cfg.sources, cfg.n))

        def run(backend=None, cost=None):
            return multi_source_bfs(
                adj, srcs, cost=cost if cost is not None else NULL_COST_MODEL,
                backend=backend, adj_version=("par1", cfg.seed),
            )

    elif kernel == "components":
        verts = rng.sample(range(cfg.n), min(cfg.queried, cfg.n))

        def run(backend=None, cost=None):
            return batch_components(
                adj, verts, cost=cost if cost is not None else NULL_COST_MODEL,
                backend=backend, adj_version=("par1", cfg.seed),
            )

    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return run


def _sweep(cfg: BenchParallelConfig, run, charged: Cost, unit_cost_us: float,
           ref: Any) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    t_base: float | None = None
    for p in cfg.procs:
        backend = _make_backend(p, unit_cost_us * 1e-6)
        try:
            best = float("inf")
            for _ in range(cfg.repeats):
                t0 = time.perf_counter()
                got = run(backend=backend)
                best = min(best, time.perf_counter() - t0)
            if got != ref:
                raise AssertionError(
                    f"p={p} answers diverged from the sequential reference"
                )
        finally:
            util = backend.utilization
            fallbacks = backend.inline_fallbacks_total
            backend.close()
        if t_base is None:
            t_base = best
        predicted = brent_time(charged, 1) / brent_time(charged, p)
        rows.append(
            {
                "unit_cost_us": unit_cost_us,
                "p": p,
                "wall_s": round(best, 4),
                "measured_x": round(t_base / best, 3),
                "predicted_x": round(predicted, 3),
                "utilization": round(util, 3),
                "inline_fallbacks": fallbacks,
            }
        )
    return rows


def run_bench_parallel(
    cfg: BenchParallelConfig,
) -> tuple[list[dict[str, Any]], bool]:
    """Run the PAR1 sweep; returns ``(rows, ok)``.

    One row per kernel, processor count and unit cost (the pinned
    :data:`UNIT_COST_US` sweep, then the raw-CPU ``0`` sweep).  ``ok``
    requires the 2-worker pool to reproduce the sequential answers and
    charges on every kernel, plus ``min_speedup`` at ``p = 4`` on at
    least one kernel when a bar is set.
    """
    adj = _random_adjacency(cfg)
    rows: list[dict[str, Any]] = []
    ok = True
    meets_bar = False
    for kernel in KERNELS:
        run = _kernel_runner(cfg, kernel, adj)
        # Canonical charges: the plain sequential traversal, no backend.
        cm_seq = CostModel()
        ref_answer = run(cost=cm_seq)
        charged = cm_seq.snapshot()
        # Exact (work, depth) + answer equality under a live 2-worker
        # pool while charges are being recorded.
        pool = ProcessPoolBackend(2, min_items=MIN_ITEMS)
        try:
            cm_pool = CostModel()
            pool_answer = run(backend=pool, cost=cm_pool)
        finally:
            pool.close()
        head = {
            "kernel": kernel,
            "work": charged.work,
            "depth": charged.depth,
            "charges_equal": (cm_pool.work, cm_pool.depth)
            == (charged.work, charged.depth),
            "answers_equal": pool_answer == ref_answer,
        }
        ok = ok and head["charges_equal"] and head["answers_equal"]
        for unit_cost_us in (UNIT_COST_US, 0.0):
            sweep = _sweep(cfg, run, charged, unit_cost_us, ref_answer)
            rows += [{**head, **row} for row in sweep]
            if unit_cost_us and cfg.min_speedup is not None:
                meets_bar = meets_bar or any(
                    r["p"] == 4 and r["measured_x"] >= cfg.min_speedup
                    for r in sweep
                )
    # The acceptance bar: >= min_speedup at p=4 on at least one kernel.
    if cfg.min_speedup is not None:
        ok = ok and meets_bar
    return rows, ok
