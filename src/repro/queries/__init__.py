"""Query layer over the dynamic structures: per-query oracles
(approximate distances, cuts) and the batched query engine that shares
traversal work across a whole batch of reads (see ``docs/queries.md``)."""

from repro.queries.batch import (
    BatchQueryStats,
    QueryBatch,
    answer_queries,
    batch_components,
    batch_connected,
    batch_distances,
    batch_stretch_check,
    coalesce_queries,
    multi_source_bfs,
)
from repro.queries.oracles import DynamicCutOracle, DynamicDistanceOracle

__all__ = [
    "BatchQueryStats",
    "DynamicCutOracle",
    "DynamicDistanceOracle",
    "QueryBatch",
    "answer_queries",
    "batch_components",
    "batch_connected",
    "batch_distances",
    "batch_stretch_check",
    "coalesce_queries",
    "multi_source_bfs",
]
