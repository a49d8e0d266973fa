"""Experiment harness: drive a dynamic structure over a workload while
recording wall time, cost-model work/depth, and recourse.

Every benchmark in ``benchmarks/`` reduces to: build a structure, run a
:class:`~repro.workloads.Workload` through it, and report a
:class:`RunStats` row.  The harness owns that loop so the benchmarks stay
declarative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.pram.cost import Cost, CostModel, brent_time
from repro.workloads.streams import Workload

__all__ = ["RunStats", "run_workload", "format_table"]


class _DynamicStructure(Protocol):
    def update(self, insertions=(), deletions=()):
        ...


@dataclass
class RunStats:
    """Aggregate statistics of one workload run."""

    label: str
    n: int
    initial_edges: int
    total_updates: int
    num_batches: int
    init_seconds: float
    update_seconds: float
    init_cost: Cost
    update_cost: Cost
    total_recourse: int
    max_batch_depth: int
    output_size_final: int
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def recourse_per_update(self) -> float:
        return self.total_recourse / max(self.total_updates, 1)

    @property
    def work_per_update(self) -> float:
        return self.update_cost.work / max(self.total_updates, 1)

    def simulated_time(self, processors: int) -> float:
        """Brent bound for the whole update phase on ``p`` processors."""
        return brent_time(self.update_cost, processors)

    def row(self) -> dict[str, Any]:
        """Flatten the stats into a table row (dict)."""
        out = {
            "label": self.label,
            "n": self.n,
            "m0": self.initial_edges,
            "updates": self.total_updates,
            "batches": self.num_batches,
            "init_s": round(self.init_seconds, 4),
            "upd_s": round(self.update_seconds, 4),
            "work/upd": round(self.work_per_update, 1),
            "maxdepth": self.max_batch_depth,
            "recourse/upd": round(self.recourse_per_update, 3),
            "|H|": self.output_size_final,
        }
        out.update(self.extra)
        return out


def run_workload(
    label: str,
    workload: Workload,
    build: Callable[[list, CostModel], _DynamicStructure],
    output_size: Callable[[Any], int] | None = None,
    per_batch: Callable[[Any, int], dict[str, Any]] | None = None,
) -> RunStats:
    """Run ``workload`` through the structure ``build(initial_edges, cost)``.

    ``build`` receives the initial edges and a fresh :class:`CostModel`; the
    structure must expose ``update(insertions, deletions) -> (ins, dels)``.
    ``per_batch(structure, batch_index)`` may collect extra diagnostics;
    its last non-empty result lands in ``RunStats.extra``.
    """
    cost = CostModel()
    t0 = time.perf_counter()
    struct = build(workload.initial_edges, cost)
    init_seconds = time.perf_counter() - t0
    init_cost = cost.snapshot()
    cost.reset()

    total_recourse = 0
    max_batch_depth = 0
    extra: dict[str, Any] = {}
    t0 = time.perf_counter()
    for idx, batch in enumerate(workload.batches):
        with cost.frame() as fr:
            ins, dels = struct.update(
                insertions=batch.insertions, deletions=batch.deletions
            )
        total_recourse += len(ins) + len(dels)
        max_batch_depth = max(max_batch_depth, fr.depth)
        if per_batch is not None:
            got = per_batch(struct, idx)
            if got:
                extra.update(got)
    update_seconds = time.perf_counter() - t0

    if output_size is None:
        def output_size(s):  # type: ignore[no-redef]
            if hasattr(s, "spanner_size"):
                return s.spanner_size()
            if hasattr(s, "sparsifier_size"):
                return s.sparsifier_size()
            return len(s.output_edges())

    return RunStats(
        label=label,
        n=workload.n,
        initial_edges=len(workload.initial_edges),
        total_updates=workload.total_updates,
        num_batches=len(workload.batches),
        init_seconds=init_seconds,
        update_seconds=update_seconds,
        init_cost=init_cost,
        update_cost=cost.snapshot(),
        total_recourse=total_recourse,
        max_batch_depth=max_batch_depth,
        output_size_final=output_size(struct),
        extra=extra,
    )


def format_table(rows: list[dict[str, Any]], title: str = "") -> str:
    """Render result rows as an aligned text table (the bench output the
    EXPERIMENTS.md figures quote)."""
    if not rows:
        return f"{title}\n(no rows)"
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
        for c in cols
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).rjust(widths[c]) for c in cols)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c, "")).rjust(widths[c]) for c in cols)
        )
    return "\n".join(lines)
