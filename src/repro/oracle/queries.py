"""Differential oracle for the batched query engine.

The batch query engine (:mod:`repro.queries.batch`) promises *exact*
equivalence with the query-at-a-time path — batching is an execution
strategy, never an approximation — plus work/depth charges that stay
inside the shared-traversal envelope.  This module checks both claims the
same way :mod:`repro.oracle.fuzz` checks the structures:

* :func:`singleton_answers` is the reference implementation — a literal
  transcription of the serving engine's per-query path
  (:meth:`repro.service.engine.SpannerService.query`).
* :func:`check_query_batch` runs one query workload through both paths
  and returns every violation: answer mismatches, order/duplication
  variance (a batch's answers must not depend on request order or
  multiplicity), charge drift between the array graph's vectorized
  sweeps and the dict adjacency's scalar reference loops, charges or
  answers that move with the epoch's memoized read state, and work/depth
  envelope breaches.
* :func:`run_query_fuzz` is the campaign driver behind
  ``repro fuzz --queries``: seeded random graphs x query mixes, plus
  periodic cross-checks of the batched stretch check (against a spanning
  forest linked on an Euler-tour forest) and the full serving engine's
  :meth:`~repro.service.engine.SpannerService.query_batch`.

Envelopes follow the convention of :mod:`repro.oracle.invariants`: a
generous constant over the analytical bound, so they only fire on real
asymptotic regressions (a query-count-proportional traversal sneaking
back in), never on constant-factor noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.connectivity.euler_tour import EulerTourForest
from repro.graph.array_graph import ArrayDynamicGraph
from repro.graph.dynamic_graph import Edge
from repro.graph.traversal import bfs_distances, bfs_distances_bounded
from repro.oracle.violations import Violation
from repro.pram.cost import CostModel, log2ceil
from repro.queries.batch import (
    answer_queries,
    batch_connected,
    batch_distances,
    batch_stretch_check,
    coalesce_queries,
    multi_source_bfs,
)

__all__ = [
    "ENVELOPE_C",
    "QueryFuzzConfig",
    "QueryFuzzReport",
    "check_empty_batch",
    "check_memo_charges",
    "check_query_batch",
    "check_stretch_batch",
    "run_query_fuzz",
    "singleton_answers",
]

#: Generous multiplicative headroom on the analytical work/depth bounds
#: (same convention as the structure envelopes in
#: :mod:`repro.oracle.invariants`).
ENVELOPE_C = 8


def _adjacency(edge_set: set[Edge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for a, b in edge_set:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def singleton_answers(
    items: Sequence[tuple[str, Any]],
    edge_set: set[Edge],
    adjacency: dict[int, set[int]] | None = None,
) -> list[Any]:
    """The query-at-a-time reference path, one traversal per query.

    A literal transcription of the serving engine's
    :meth:`~repro.service.engine.SpannerService.query` dispatch, so
    "batch == singleton" here is exactly the equivalence the engine
    promises its clients, over dict-of-sets views.  On a dict-of-sets
    ``bfs_distances`` runs the one-sided scalar BFS, not the engine's
    bidirectional arena search, so this reference stays an independent
    algorithm (the service read probe in :mod:`repro.oracle.service`
    relies on that).
    """
    if adjacency is None:
        adjacency = _adjacency(edge_set)
    out: list[Any] = []
    for kind, payload in items:
        if kind == "size":
            out.append(len(edge_set))
        elif kind == "edges":
            out.append(set(edge_set))
        elif kind == "contains":
            u, v = payload
            e = (u, v) if u < v else (v, u)
            out.append(e in edge_set)
        elif kind in ("distance", "connected"):
            u, v = payload
            if u == v:
                d = 0
            elif u not in adjacency:
                d = None
            else:
                d = bfs_distances(adjacency, u, target=v).get(v)
            if kind == "connected":
                out.append(d is not None)
            else:
                out.append(float("inf") if d is None else float(d))
        else:
            raise ValueError(f"unknown query kind {kind!r}")
    return out


def check_query_batch(
    n: int,
    edge_set: set[Edge],
    items: Sequence[tuple[str, Any]],
    rng: np.random.Generator | None = None,
    carries: list[bool] | None = None,
) -> list[Violation]:
    """Cross-check one query batch against the singleton path.

    Checks, in order: exact per-item equality with
    :func:`singleton_answers`; order invariance (the reversed — and, with
    ``rng``, a shuffled — batch answers each item identically);
    duplication invariance (doubling the batch changes nothing); charge
    parity (``batch_distances``/``batch_connected`` charge the same
    ``(work, depth)`` on the array graph as on the dict adjacency —
    charges depend only on the graph and the batch); memo invariance
    (:func:`check_memo_charges`, which appends to ``carries``); and the
    work/depth envelopes of the shared traversals.  Returns every
    violation found (empty list = all checks pass).
    """
    items = list(items)
    adjacency = _adjacency(edge_set)
    graph = ArrayDynamicGraph(n, edge_set)
    viols: list[Violation] = []
    cost = CostModel()
    batch, stats = answer_queries(items, graph, cost=cost)
    single = singleton_answers(items, edge_set, adjacency)
    for i, (got, ref) in enumerate(zip(batch, single)):
        if got != ref:
            viols.append(Violation(
                "batch-mismatch",
                f"item {i} {items[i]!r}: batch answered {got!r}, "
                f"singleton path answers {ref!r}",
            ))
            break  # one mismatch per batch is enough signal
    orders = [list(reversed(range(len(items))))]
    if rng is not None and len(items) > 1:
        orders.append(list(rng.permutation(len(items))))
    for perm in orders:
        reordered, _ = answer_queries([items[i] for i in perm], graph)
        for j, i in enumerate(perm):
            if reordered[j] != batch[i]:
                viols.append(Violation(
                    "order-variance",
                    f"item {items[i]!r} answered {batch[i]!r} in request "
                    f"order but {reordered[j]!r} after reordering",
                ))
                break
    doubled, _ = answer_queries(items + items, graph)
    if doubled[:len(items)] != batch or doubled[len(items):] != batch:
        viols.append(Violation(
            "duplication-variance",
            "duplicating every query changed at least one answer",
        ))
    charges = []
    for adj in (adjacency, graph):
        cm = CostModel()
        batch_distances(adj, [p for kind, p in items if kind == "distance"],
                        n=n, cost=cm)
        batch_connected(adj, [p for kind, p in items if kind == "connected"],
                        n=n, cost=cm)
        charges.append((cm.work, cm.depth))
    if charges[0] != charges[1]:
        viols.append(Violation(
            "query-charge-drift",
            f"array graph charged (work, depth) {charges[1]}, the dict "
            f"adjacency's reference loops {charges[0]}",
        ))
    viols.extend(check_memo_charges(n, edge_set, items, rng, carries))
    # envelopes: shared traversals mean total work is bounded by
    # (#BFS waves) x graph size plus per-query O(log n) bookkeeping —
    # never by (#queries) x graph size — and depth by levels x log n
    k = len(items)
    m = len(edge_set)
    logn = log2ceil(max(n, 2))
    size = n + 2 * m + 1
    work_bound = ENVELOPE_C * (
        (stats.sources + 1) * size + k * (logn + 1) + 1
    )
    if stats.work > work_bound:
        viols.append(Violation(
            "query-work-envelope",
            f"batch charged work {stats.work} > bound {work_bound} "
            f"(k={k}, n={n}, m={m}, sources={stats.sources})",
        ))
    depth_bound = ENVELOPE_C * (min(n, 2 * m) + 2) * (logn + 1)
    if stats.depth > depth_bound:
        viols.append(Violation(
            "query-depth-envelope",
            f"batch charged depth {stats.depth} > bound {depth_bound} "
            f"(k={k}, n={n}, m={m})",
        ))
    if stats.unique > stats.queries:
        viols.append(Violation(
            "dedup-accounting",
            f"stats claim {stats.unique} unique of {stats.queries} queries",
        ))
    viols.extend(check_empty_batch(n, edge_set, adjacency))
    return viols


def check_memo_charges(
    n: int,
    edge_set: set[Edge],
    items: Sequence[tuple[str, Any]],
    rng: np.random.Generator | None = None,
    carries: list[bool] | None = None,
) -> list[Violation]:
    """One batch, four memo states: identical answers and charges.

    The array graph keeps component labels and flood charges per epoch
    (:meth:`~repro.graph.array_graph.ArrayDynamicGraph.read_state`) and
    carries the labels into later epochs, so a batch may be answered
    from a fresh epoch, from one that an earlier batch partly labelled,
    with its requests reordered, or from labels carried across commits.
    Charges must depend only on the graph and the set of touched
    components, so the batch is run charged (a) on a fresh epoch, (b) on
    a fresh epoch after an uncharged batch of other connectivity reads,
    whose floods start from the high end of the id range and so rarely
    at a component's root, (c) permuted, on that same, now warm, epoch,
    and (d) on an epoch reached from a perturbed edge set, labelled by
    the same uncharged batch, through one random delete batch and one
    insert batch.  Any difference in an answer or in ``(work, depth)``
    is one ``memo-charge-variance``.  Whether (d)'s labels were in fact
    carried (the batch has a connectivity read and the perturbation is
    not empty) is appended to ``carries``.
    """
    items = list(items)
    perm = (list(rng.permutation(len(items))) if rng is not None
            else list(reversed(range(len(items)))))
    runs = []
    fresh = ArrayDynamicGraph(n, edge_set)
    warm = ArrayDynamicGraph(n, edge_set)
    other = [("connected", (v, v - 1)) for v in range(n - 1, n // 2, -1)]
    other.append(("connected", (-1, n)))
    answer_queries(other, warm)
    carried = _carried_epoch(n, edge_set, other, rng)
    for graph, order in ((fresh, None), (warm, None), (warm, perm),
                         (carried, None)):
        batch = items if order is None else [items[i] for i in order]
        cost = CostModel()
        answers, stats = answer_queries(batch, graph, cost=cost)
        if order is not None:
            unperm = [None] * len(items)
            for j, i in enumerate(order):
                unperm[i] = answers[j]
            answers = unperm
        runs.append((answers, (stats.work, stats.depth)))
    if carries is not None:
        carries.append(carried.read_state().carried)
    cases = ("fresh epoch", "epoch labelled by another batch",
             "permuted, warm epoch", "labels carried across commits")
    for case, (answers, charge) in zip(cases[1:], runs[1:]):
        if answers != runs[0][0] or charge != runs[0][1]:
            return [Violation(
                "memo-charge-variance",
                f"{case}: (work, depth) {charge} vs {runs[0][1]} on a "
                f"fresh epoch; answers "
                f"{'equal' if answers == runs[0][0] else 'differ'}",
            )]
    return []


def _carried_epoch(
    n: int,
    edge_set: set[Edge],
    labelling: list[tuple[str, Any]],
    rng: np.random.Generator | None,
) -> ArrayDynamicGraph:
    """A graph of ``edge_set`` whose epoch carries labels: up to four
    of its edges left out and up to four non-edges added, labelled by
    the uncharged ``labelling`` batch, then the non-edges deleted and
    the left-out edges inserted (well inside the label log's bound)."""
    if rng is None:
        rng = np.random.default_rng(n)
    present = sorted(edge_set)
    out = [present[i] for i in rng.permutation(len(present))[:int(
        rng.integers(0, 5))]]
    extra: set[Edge] = set()
    if n > 1:
        for _ in range(int(rng.integers(0, 5))):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (u, v) not in edge_set:
                extra.add((u, v))
    graph = ArrayDynamicGraph(n, (edge_set - set(out)) | extra)
    answer_queries(labelling, graph)
    graph.delete_batch(sorted(extra))
    graph.insert_batch(out)
    return graph


def check_empty_batch(
    n: int, edge_set: set[Edge], adjacency=None
) -> list[Violation]:
    """The degenerate-batch contract: empty in, empty out, zero charges.

    ``multi_source_bfs`` with no sources, ``answer_queries`` with no
    items, and ``bfs_distances_bounded`` with a non-positive limit must
    all return their empty/identity result without charging any
    work or depth (an empty parallel batch performs no rounds).
    """
    if adjacency is None:
        adjacency = _adjacency(edge_set)
    viols: list[Violation] = []
    cost = CostModel()
    with cost.frame() as fr:
        empty = multi_source_bfs(adjacency, [], n=n, cost=cost)
    if empty != {}:
        viols.append(Violation(
            "empty-sources-result",
            f"multi_source_bfs with no sources returned {empty!r}",
        ))
    if fr.work or fr.depth:
        viols.append(Violation(
            "empty-sources-charge",
            f"multi_source_bfs with no sources charged "
            f"work={fr.work} depth={fr.depth} (must be 0/0)",
        ))
    cost = CostModel()
    answers, stats = answer_queries(
        [], ArrayDynamicGraph(n, edge_set), cost=cost,
    )
    if answers != [] or stats.work or stats.depth:
        viols.append(Violation(
            "empty-batch-charge",
            f"answer_queries on an empty batch returned {answers!r} "
            f"with work={stats.work} depth={stats.depth} (must be "
            "[] with 0/0)",
        ))
    src = 0 if n else -1
    if n and bfs_distances_bounded(adjacency, src, 0) != {src: 0}:
        viols.append(Violation(
            "bounded-zero-limit",
            "bfs_distances_bounded(limit=0) must return {source: 0}",
        ))
    return viols


def check_stretch_batch(
    n: int,
    graph_edges: set[Edge],
    spanner_edges: set[Edge],
    stretch: float,
) -> list[Violation]:
    """Cross-check the batched stretch check against per-edge bounded BFS."""
    spanner_adj = _adjacency(spanner_edges)
    got = set(batch_stretch_check(
        graph_edges, spanner_adj, stretch, n=n,
    ))
    expect = set()
    for u, v in graph_edges:
        a, b = (u, v) if u <= v else (v, u)
        if a == b:
            continue
        d = bfs_distances_bounded(
            spanner_adj, a, int(stretch)
        ).get(b) if a in spanner_adj else None
        if d is None:
            expect.add((a, b))
    if got != expect:
        return [Violation(
            "stretch-mismatch",
            f"batched stretch check flagged {sorted(got - expect)[:3]} "
            f"not flagged by per-edge BFS, missed "
            f"{sorted(expect - got)[:3]}",
        )]
    return []


# -- campaign ----------------------------------------------------------------


@dataclass
class QueryFuzzConfig:
    """Knobs for one batch-query fuzz campaign (defaults CI-safe)."""

    workloads: int = 500
    max_n: int = 48
    max_queries: int = 64
    time_budget: float | None = None   # seconds, soft cap
    service_every: int = 25            # full-engine cross-check cadence
    forest_every: int = 5              # stretch cross-check cadence


@dataclass
class QueryFuzzReport:
    config: QueryFuzzConfig
    workloads: int = 0
    queries: int = 0
    deduped: int = 0
    wide: int = 0      # batches with more than 64 distinct BFS sources
    dense: int = 0     # workloads on a dense graph (m ~ n^2 / 4)
    carried: int = 0   # memo checks answered from carried labels
    violations: list[tuple[int, Violation]] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def rows(self) -> list[dict[str, Any]]:
        """Table rows for :func:`repro.harness.format_table`."""
        return [{
            "workloads": self.workloads,
            "queries": self.queries,
            "deduped": self.deduped,
            "wide": self.wide,
            "dense": self.dense,
            "carried": self.carried,
            "violations": len(self.violations),
        }]


#: a multi-source sweep packs 64 sources per mask word
_WORD = 64
#: every _WIDE_EVERY-th workload draws a wide graph, in this vertex range,
#: big enough to host more than one mask word of sources
_WIDE_EVERY = 6
_WIDE_N = (_WORD + 2, 160)
#: every _DENSE_EVERY-th workload draws a dense graph in the wide vertex
#: range (diameter about 2), whose distance sweeps mostly end at a pull
#: round's target check; it takes precedence over the wide draw
_DENSE_EVERY = 10


def _random_graph(
    rng: np.random.Generator, max_n: int, min_n: int = 2
) -> tuple[int, set[Edge]]:
    n = int(rng.integers(min_n, max_n + 1))
    max_m = n * (n - 1) // 2
    m = int(rng.integers(0, min(3 * n, max_m) + 1))
    edges: set[Edge] = set()
    while len(edges) < m:
        u, v = rng.choice(n, size=2, replace=False)
        u, v = int(u), int(v)
        edges.add((u, v) if u < v else (v, u))
    return n, edges


def _dense_graph(rng: np.random.Generator) -> tuple[int, set[Edge]]:
    """``n`` in the wide range and ``m = n^2 / 4`` distinct edges."""
    n = int(rng.integers(_WIDE_N[0], _WIDE_N[1] + 1))
    us, vs = np.triu_indices(n, 1)
    pick = rng.choice(len(us), size=n * n // 4, replace=False)
    return n, set(zip(us[pick].tolist(), vs[pick].tolist()))


def _random_queries(
    rng: np.random.Generator, n: int, max_queries: int
) -> list[tuple[str, Any]]:
    """A query mix with deliberate duplicates, reversals, and diagonals.

    On a graph past ``_WORD + 1`` vertices the mix also gets a wide block:
    distance queries from more than ``_WORD`` distinct sources, so the
    shared sweep needs more than one mask word.
    """
    k = int(rng.integers(1, max_queries + 1))
    kinds = ("distance", "connected", "contains", "size", "edges")
    # zipf-ish hot set: most pair queries land on few vertices, so
    # dedup and shared waves actually engage
    hot = max(2, n // 4)
    items: list[tuple[str, Any]] = []
    for _ in range(k):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind in ("size", "edges"):
            items.append((kind, None))
            continue
        lo = hot if rng.random() < 0.7 else n
        u = int(rng.integers(0, lo))
        v = u if rng.random() < 0.1 else int(rng.integers(0, lo))
        items.append((kind, (u, v)))
    if n > _WORD + 1:
        # a pair (u, v) with u < v is a wave from source u
        width = int(rng.integers(_WORD + 1, n))
        for u in rng.choice(n - 1, size=width, replace=False).tolist():
            items.append(("distance", (u, int(rng.integers(u + 1, n)))))
    # echo some items verbatim and some reversed
    for i in list(rng.integers(0, len(items), size=len(items) // 3)):
        kind, payload = items[int(i)]
        if payload is not None and rng.random() < 0.5:
            payload = (payload[1], payload[0])
        items.append((kind, payload))
    return items


def _check_service_batch(
    n: int, edges: set[Edge], items: list[tuple[str, Any]]
) -> list[Violation]:
    """End-to-end: the serving engine's query_batch vs its own query()."""
    from repro.service.engine import LocalExecutor, SpannerService

    spec = {"kind": "spanner", "n": n, "edges": sorted(edges),
            "k": 2, "seed": 7}
    svc = SpannerService(LocalExecutor(spec))
    try:
        batch = svc.query_batch(items)
        for i, ((kind, payload), res) in enumerate(zip(items, batch)):
            ref = svc.query(kind, payload)
            if res.value != ref:
                return [Violation(
                    "service-batch-mismatch",
                    f"item {i} ({kind!r}, {payload!r}): query_batch "
                    f"answered {res.value!r}, query() answers {ref!r}",
                )]
    finally:
        svc.close()
    return []


def run_query_fuzz(
    config: QueryFuzzConfig,
    log: Callable[[str], None] | None = None,
) -> QueryFuzzReport:
    """Run the batch-query campaign; deterministic for a fixed config."""
    report = QueryFuzzReport(config=config)
    t0 = time.perf_counter()
    for i in range(config.workloads):
        if (config.time_budget is not None
                and time.perf_counter() - t0 > config.time_budget):
            if log:
                log(f"time budget {config.time_budget:.0f}s exhausted "
                    f"after {i} workload(s) — campaign truncated")
            break
        rng = np.random.default_rng((0x9E3779B9, i))
        dense = i % _DENSE_EVERY == _DENSE_EVERY - 1
        if dense:
            n, edges = _dense_graph(rng)
        elif i % _WIDE_EVERY == _WIDE_EVERY - 1:
            n, edges = _random_graph(rng, _WIDE_N[1], _WIDE_N[0])
        else:
            n, edges = _random_graph(rng, config.max_n)
        items = _random_queries(rng, n, config.max_queries)
        carries: list[bool] = []
        viols = check_query_batch(n, edges, items, rng=rng, carries=carries)
        if i % max(config.forest_every, 1) == 0:
            forest = EulerTourForest(n, seed=i)
            linked: list[tuple[int, int]] = []
            for u, v in sorted(edges):
                if not forest.connected(u, v):
                    forest.link(u, v)
                    linked.append((u, v))
            viols += check_stretch_batch(
                n, edges, set(linked), stretch=3.0,
            )
        if (config.service_every
                and i % max(config.service_every, 1) == 0):
            viols += _check_service_batch(n, edges, items)
        report.workloads += 1
        report.queries += len(items)
        keys, _ = coalesce_queries(items)
        report.deduped += len(items) - len(keys)
        sources = {min(p) for kind, p in keys
                   if kind == "distance" and p[0] != p[1]}
        report.wide += len(sources) > _WORD
        report.dense += dense
        report.carried += sum(carries)
        for v in viols:
            if log:
                log(f"violation (workload {i}): {v}")
            report.violations.append((i, v))
    report.wall_seconds = time.perf_counter() - t0
    return report
