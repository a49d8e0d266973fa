"""Oracle verification for the serving engine (:mod:`repro.service`).

Replaces the serve demo's bespoke replay compare with the shared oracle:
every per-shard coalesced batch the service applied is replayed
synchronously through a freshly built backend (same spec, same seed) and
cross-checked against

1. the service's snapshot (the delta-maintained output view),
2. a fresh scatter/gather from the live workers,
3. the :meth:`Workload.replay` edge-set ground truth vs the executor's
   membership, the set the queue validates against,
4. (``deep=True``) the structure-level invariants: output ⊆ graph per
   shard and the (2k−1) stretch bound on each shard's replayed spanner,
5. a bounded read probe: seeded singleton ``distance``/``connected``
   reads (plus ``u == v`` and out-of-range ids) answered through
   :meth:`~repro.service.engine.SpannerService.query_info` must equal
   the reference path (:func:`repro.oracle.queries.singleton_answers`)
   over the snapshot's edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.oracle.invariants import check_output_subset, check_spanner_stretch
from repro.oracle.queries import singleton_answers
from repro.oracle.violations import Violation
from repro.pram.cost import CostModel
from repro.workloads.streams import Workload

__all__ = ["ServiceVerification", "verify_replica", "verify_service"]

#: seeded random pairs in the read probe (the fixed edge cases ride along)
READ_PROBE_PAIRS = 64
READ_PROBE_SEED = 0


@dataclass
class ServiceVerification:
    """Outcome of one service cross-check."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return "service verification: OK"
        return "service verification FAILED:\n" + "\n".join(
            f"  - {v}" for v in self.violations
        )


def verify_replica(primary, replica) -> ServiceVerification:
    """Cross-check a log-shipping replica against its primary.

    Both arguments are :class:`~repro.service.engine.SpannerService`
    instances.  Because the structures are seeded Las Vegas, a replica
    that applied the primary's exact shipped batch sequence from the same
    base spec must match it *bit for bit* — this asserts that on four
    views: commit sequence number, delta-maintained snapshot, a fresh
    gather from the live executors (catches snapshot drift on either
    side), and the graph membership view.
    """
    result = ServiceVerification()
    if primary.committed_seq != replica.committed_seq:
        result.violations.append(Violation(
            "replica-seq-lag",
            f"replica committed seq {replica.committed_seq} != primary "
            f"{primary.committed_seq} (catch-up incomplete)",
        ))
    p_snap, r_snap = primary.snapshot_edges(), replica.snapshot_edges()
    if p_snap != r_snap:
        result.violations.append(Violation(
            "replica-snapshot-drift",
            f"replica snapshot != primary snapshot "
            f"({len(p_snap ^ r_snap)} edge(s) differ)",
        ))
    p_live = primary.executor.gather_edges()
    r_live = replica.executor.gather_edges()
    if p_live != r_live:
        result.violations.append(Violation(
            "replica-output-drift",
            f"replica live output != primary live output "
            f"({len(p_live ^ r_live)} edge(s) differ)",
        ))
    p_graph, r_graph = primary.graph_edges(), replica.graph_edges()
    if p_graph != r_graph:
        result.violations.append(Violation(
            "replica-graph-drift",
            f"replica graph view != primary graph view "
            f"({len(p_graph ^ r_graph)} edge(s) differ)",
        ))
    return result


def verify_service(service, executor, deep: bool = False,
                   ) -> ServiceVerification:
    """Cross-check a :class:`~repro.service.engine.SpannerService` against
    a synchronous replay of its applied batches (see module docstring).

    ``executor`` is the service's
    :class:`~repro.service.shard.ShardedExecutor`; each shard is replayed
    from its anchor ``(shard_specs[i], history[i])``.
    """
    from repro.service.shard import build_backend

    result = ServiceVerification()
    replay_output: set = set()
    replay_graph: set = set()
    for shard_idx, (spec, batches) in enumerate(
            zip(executor.shard_specs, executor.history)):
        rebuilt = build_backend(spec, CostModel())
        mirror = set(rebuilt.output_edges())
        for batch in batches:
            ins, dels = rebuilt.update(
                insertions=batch.insertions, deletions=batch.deletions
            )
            mirror -= set(dels)
            mirror |= set(ins)
        out = rebuilt.output_edges()
        if mirror != out:
            result.violations.append(Violation(
                "delta-drift",
                f"shard {shard_idx}: replayed deltas drift from the "
                f"rebuilt output ({len(mirror ^ out)} edge(s) differ)",
            ))
        replay_output |= out
        wl = Workload(spec["n"], [tuple(e) for e in spec["edges"]],
                      list(batches))
        graph = set(wl.initial_edges)
        try:
            for _, graph in wl.replay():
                pass
        except ValueError as exc:
            result.violations.append(Violation(
                "illegal-batch-log",
                f"shard {shard_idx}: applied batches are not sequentially "
                f"legal: {exc}",
            ))
            continue
        replay_graph |= graph
        if deep:
            v = check_output_subset(graph, out,
                                    what=f"shard {shard_idx} output")
            if v is not None:
                result.violations.append(v)
            if spec.get("kind", "spanner") == "spanner":
                k = int(spec.get("k", 2))
                v = check_spanner_stretch(
                    spec["n"], graph, out, 2 * k - 1,
                    what=f"shard {shard_idx} spanner",
                )
                if v is not None:
                    result.violations.append(v)

    snapshot = service.snapshot_edges()
    if replay_output != snapshot:
        result.violations.append(Violation(
            "snapshot-drift",
            f"synchronous replay output != service snapshot "
            f"({len(replay_output ^ snapshot)} edge(s) differ)",
        ))
    live = executor.gather_edges()
    if replay_output != live:
        result.violations.append(Violation(
            "live-drift",
            f"synchronous replay output != live worker gather "
            f"({len(replay_output ^ live)} edge(s) differ)",
        ))
    # A quarantined poison sub-batch (see ShardedExecutor.apply) is in
    # membership, as it is in the WAL, but was deliberately never applied
    # to its shard, so membership is *expected* to drift from the
    # per-shard replay; the drift is recorded in executor.quarantined and
    # surfaced through metrics, not reported as an oracle violation.
    if not executor.quarantined:
        members = service.graph_edges()
        if replay_graph != members:
            result.violations.append(Violation(
                "queue-drift",
                f"replayed graph edge set != executor membership "
                f"({len(replay_graph ^ members)} edge(s) differ)",
            ))
    drift = _check_reads(service, executor.n)
    if drift is not None:
        result.violations.append(drift)
    return result


def _check_reads(service, n: int) -> Violation | None:
    """Answer a fixed, seeded set of singleton ``distance``/``connected``
    reads through ``service.query_info`` and compare them with the
    reference one-sided BFS over ``service.snapshot_edges()``.  The caller
    must hold the snapshot still (``self_check`` holds the engine lock).
    """
    rng = random.Random(READ_PROBE_SEED)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(READ_PROBE_PAIRS if n else 0)]
    # u == v (in and out of range), negative and past-the-end ids
    pairs += [(0, 0), (n, n), (-1, 0), (0, -1), (-1, -2), (n - 1, n)]
    items = [(kind, p) for p in pairs for kind in ("distance", "connected")]
    want = singleton_answers(items, service.snapshot_edges())
    got = [service.query_info(kind, p).value for kind, p in items]
    bad = [(item, g, w) for item, g, w in zip(items, got, want) if g != w]
    if not bad:
        return None
    (kind, pair), g, w = bad[0]
    return Violation(
        "read-drift",
        f"{len(bad)} of {len(items)} probe reads differ from BFS over the "
        f"snapshot (first: {kind} {pair} answered {g!r}, expected {w!r})",
    )
