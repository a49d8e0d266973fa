"""Which entry points the traced run wraps, grouped by layer.

Every patch names the object the program looks the name up on: a class
for methods (method lookup goes through the class), or the importing
module for functions imported by name.  Spans are named
``<module>.<entry>``; per-layer metrics are computed from their self
times and from the counters the ``post`` hooks feed.
"""

from __future__ import annotations


def install(tracer) -> None:
    """Patch every traced entry point (undo with ``tracer.unpatch_all``)."""
    import repro.net.client as net_client
    import repro.net.server as net_server
    import repro.queries.batch as qbatch
    import repro.service.engine as engine
    from repro.bfs.es_tree import BatchDynamicESTree
    from repro.graph.array_graph import ArrayDynamicGraph
    from repro.net.client import NetClient
    from repro.net.protocol import FrameDecoder
    from repro.net.server import NetServer
    from repro.pram.cost import CostModel
    from repro.resilience.manager import RecoveryManager
    from repro.service.admission import AdmissionController
    from repro.service.batcher import AdaptiveBatcher
    from repro.service.queue import CoalescingQueue
    from repro.service.shard import ShardedExecutor
    from repro.spanner.decremental import DecrementalSpanner
    from repro.spanner.dynamizer import BentleySaxeDynamizer
    from repro.spanner.fully_dynamic import FullyDynamicSpanner
    from repro.spanner.shift_clustering import ShiftedClustering
    from repro.structures.priority_array import PriorityArray

    counts = tracer.counts
    patch = tracer.patch

    # -- net: protocol, server, client
    def frame_bytes(_state, frame, args):
        msg = args[0]
        if msg.get("verb") == "query_batch" or "values" in msg:
            counts["net.read_frame_bytes"] += len(frame)

    patch(net_client, "encode_frame", "protocol.encode", post=frame_bytes)
    patch(net_server, "encode_frame", "protocol.encode", post=frame_bytes)
    patch(FrameDecoder, "feed", "protocol.decode")
    patch(NetClient, "call", "client.call")
    patch(NetServer, "_dispatch", "server.dispatch")

    # -- service: engine, admission, queue, batcher, shard
    patch(engine.SpannerService, "submit_update", "engine.submit")
    patch(engine.SpannerService, "query_info", "engine.query")
    patch(engine.SpannerService, "query_batch", "engine.query_batch")
    patch(engine.SpannerService, "pump", "engine.pump")
    patch(engine.SpannerService, "flush", "engine.flush")
    patch(engine.SpannerService, "_flush_locked", "engine.commit")
    patch(engine.SpannerService, "_adj_apply_delta", "engine.adj_delta")
    patch(engine.SpannerService, "checkpoint", "engine.checkpoint")
    patch(AdmissionController, "admit", "admission.admit")
    patch(AdmissionController, "admit_query", "admission.admit_query")
    patch(CoalescingQueue, "offer", "queue.offer")
    patch(CoalescingQueue, "drain", "queue.drain")
    patch(AdaptiveBatcher, "should_flush", "batcher.should_flush")
    patch(AdaptiveBatcher, "record_flush", "batcher.record_flush")
    patch(engine.LocalExecutor, "apply", "executor.apply")
    patch(ShardedExecutor, "apply", "executor.apply")

    # -- resilience: wal, checkpoint, manager
    patch(RecoveryManager, "log_applied", "wal.append")
    patch(RecoveryManager, "write_checkpoint", "checkpoint.write")

    # -- queries: batch
    def query_stats(_state, result, _args):
        stats = result[1]
        counts["queries.batches"] += 1
        counts["queries.items"] += stats.queries
        counts["queries.unique"] += stats.unique
        counts["queries.sources"] += stats.sources

    patch(engine, "answer_queries", "queries.answer", post=query_stats)
    patch(qbatch, "multi_source_bfs", "queries.msbfs")
    patch(qbatch, "batch_components", "queries.components")

    # -- graph: array_graph, traversal
    def epoch_miss(cache_attr):
        def pre(args, _kwargs):
            g = args[0]
            cache = getattr(g, cache_attr)
            if cache is None or cache[0] != g.version:
                counts["array_graph.rebuilds"] += 1
        return pre

    patch(ArrayDynamicGraph, "__init__", "array_graph.build")
    patch(ArrayDynamicGraph, "insert_batch", "array_graph.delta")
    patch(ArrayDynamicGraph, "delete_batch", "array_graph.delta")
    patch(ArrayDynamicGraph, "csr", "array_graph.rebuild",
          pre=epoch_miss("_csr_cache"))
    patch(ArrayDynamicGraph, "sorted_flat", "array_graph.rebuild",
          pre=epoch_miss("_sorted_cache"))
    patch(engine, "bfs_distances", "traversal.singleton_bfs")
    patch(qbatch, "_gather_neighbors", "traversal.gather")

    # -- spanner: fully_dynamic, dynamizer, decremental, shift_clustering
    def cluster_changes(_state, result, _args):
        counts["shift_clustering.cluster_changes"] += len(result[1])

    patch(FullyDynamicSpanner, "update", "fully_dynamic.update")
    patch(BentleySaxeDynamizer, "update", "dynamizer.update")
    patch(DecrementalSpanner, "__init__", "decremental.build")
    patch(DecrementalSpanner, "batch_delete", "decremental.delete")
    patch(ShiftedClustering, "batch_delete", "shift_clustering.delete",
          post=cluster_changes)

    # -- bfs: es_tree
    def parent_changes(_state, result, _args):
        counts["es_tree.parent_changes"] += len(result)

    patch(BatchDynamicESTree, "batch_delete", "es_tree.delete",
          post=parent_changes)
    for name in ("update_edge_priority", "find_parent_candidate",
                 "set_parent"):
        patch(BatchDynamicESTree, name, "es_tree.rekey")

    # -- structures: priority_array
    patch(PriorityArray, "next_with", "priority_array.next_with")
    for name in ("query", "priority_at", "count_ge", "find",
                 "update_priority"):
        patch(PriorityArray, name, "priority_array.other")

    # -- pram: cost
    for name in ("charge", "charge_many", "pfor_cost", "charge_hash_op",
                 "charge_tree_op"):
        patch(CostModel, name, "cost.charge")
