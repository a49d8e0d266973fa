"""End-to-end and per-layer metrics from one replay."""

from __future__ import annotations

import math
import statistics
import sys

# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; warns when fewer than ``TAIL_SAMPLES``
    samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if p < 100 and len(ordered) - rank < TAIL_SAMPLES:
        print(f"warning: p{p:g} of {len(ordered)} samples has only "
              f"{len(ordered) - rank} beyond it", file=sys.stderr)
    return ordered[rank - 1]


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rep, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics; every time is normalised by the replay's
    calibration (``setup_s`` comes normalised)."""
    counts = rep.counts
    ms = 1e3 / rep.calib.slowdown()
    return {
        "setup_s": _m(setup_s, "s"),
        "ops_per_s": _m(rep.requests / rep.wall * rep.calib.slowdown(),
                        "1/s"),
        "commit_p50_ms": _m(ms * percentile(rep.commit_lat, 50), "ms"),
        "commit_p75_ms": _m(ms * percentile(rep.commit_lat, 75), "ms"),
        "read_p50_ms": _m(ms * percentile(rep.read_lat, 50), "ms"),
        "read_p75_ms": _m(ms * percentile(rep.read_lat, 75), "ms"),
        "peak_rss_mb": _m(rss_mb, "MB"),
        "work_per_update": _m(counts["work"] / counts["updates"], "count"),
        "depth_per_commit": _m(counts["depth"] / counts["commits"], "count"),
    }


def per_layer(workload: str, rep, base, tracer, history) -> tuple[dict,
                                                                  list]:
    """Every per-layer metric, plus a note for each one this workload
    cannot measure (reported as 0)."""
    spans = tracer.summary()
    counts = tracer.counts
    wall = rep.wall
    upd = max(rep.updates, 1)
    commits = max(rep.counts["commits"], 1)
    out: dict[str, dict] = {}
    notes: list[str] = []

    def put(name, unit, value, why=None):
        if value is None:
            notes.append(f"{name}: {why}")
            value = 0
        out[name] = _m(value, unit)

    def need(*names):
        missing = [n for n in names if n not in spans]
        return None if len(missing) < len(names) else \
            f"no {'/'.join(names)} spans on {workload}"

    def share(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans) / wall

    # latencies normalised like the end-to-end ones; shares need not be
    slow = rep.calib.slowdown()

    def p50(name, scale):
        return scale * statistics.median(spans[name]["durations"]) / slow

    def structure(name, unit, compute, *span_names):
        why = need(*span_names)
        put(name, unit, None if why else compute(), why)

    structure("dynamizer.self_share", "share",
              lambda: share("dynamizer.update"), "dynamizer.update")
    structure("decremental.delete_share", "share",
              lambda: share("decremental.delete"), "decremental.delete")
    structure("shift_clustering.delete_share", "share",
              lambda: share("shift_clustering.delete"),
              "shift_clustering.delete")
    structure("es_tree.delete_share", "share",
              lambda: share("es_tree.delete"), "es_tree.delete")
    structure("es_tree.rekey_share", "share",
              lambda: share("es_tree.rekey"), "es_tree.rekey")
    structure("shift_clustering.cluster_changes_per_update", "count",
              lambda: counts["shift_clustering.cluster_changes"] / upd,
              "shift_clustering.delete")
    structure("es_tree.parent_changes_per_update", "count",
              lambda: counts["es_tree.parent_changes"] / upd,
              "es_tree.delete")
    structure("priority_array.next_with_calls_per_update", "count",
              lambda: spans["priority_array.next_with"]["count"] / upd,
              "priority_array.next_with")
    structure("priority_array.share", "share",
              lambda: share("priority_array.next_with",
                            "priority_array.other"),
              "priority_array.next_with", "priority_array.other")
    structure("cost.share", "share", lambda: share("cost.charge"),
              "cost.charge")

    # both workloads serve, so these are always measured
    submits = tracer.durations_without("engine.submit", "engine.commit")
    put("engine.submit_us_p50", "us",
        1e6 * statistics.median(submits) / slow)
    put("admission.shed", "count", rep.counts["shed"])
    put("queue.coalesced_share", "share",
        rep.counts["coalesced"] / (rep.counts["updates"]
                                   + rep.counts["coalesced"]))
    put("batcher.batch_size_mean", "count", rep.counts["updates"] / commits)
    put("executor.apply_ms_p50", "ms", p50("executor.apply", 1e3))
    put("engine.history_batches", "count", history)
    # a layer one workload does not reach reads 0 there; these are
    # shares rather than latencies so that no time is a constant 0
    for name, *span in (("queue.drain_share", "queue.drain"),
                        ("engine.snapshot_share", "engine.commit"),
                        ("array_graph.delta_share", "array_graph.delta"),
                        ("wal.append_share", "wal.append"),
                        ("checkpoint.share", "engine.checkpoint",
                         "checkpoint.write"),
                        ("queries.singleton_bfs_share",
                         "traversal.singleton_bfs")):
        why = need(*span)
        put(name, "share", None if why else share(*span), why)
    why = need("engine.checkpoint")
    put("checkpoint.count", "count",
        None if why else spans["engine.checkpoint"]["count"], why)

    wire_why = None if workload == "wire_reads" else \
        f"no wire requests on {workload}"
    reads = len(rep.read_lat)
    engine_read_s = spans.get("engine.query_batch", {}).get("total_s", 0.0)
    put("net.overhead_share", "share",
        None if wire_why else 1.0 - engine_read_s / sum(rep.frame_lat),
        wire_why)
    put("net.bytes_per_read", "bytes",
        None if wire_why else counts["net.read_frame_bytes"] / reads,
        wire_why)
    why = need("queries.answer")
    put("queries.dedup_ratio", "share",
        None if why else counts["queries.unique"] / counts["queries.items"],
        why)
    put("queries.sources_per_batch", "count",
        None if why else counts["queries.sources"] / counts[
            "queries.batches"], why)
    for name, span in (("queries.msbfs_share", "queries.msbfs"),
                       ("queries.components_share", "queries.components"),
                       ("array_graph.rebuild_share", "array_graph.rebuild")):
        why = need(span)
        put(name, "share", None if why else share(span), why)
    why = need("array_graph.rebuild")
    put("array_graph.rebuilds_per_commit", "count",
        None if why else counts["array_graph.rebuilds"] / commits, why)

    put("trace.overhead_share", "share",
        1.0 - base.wall / base.calib.slowdown() / (rep.wall / slow))
    put("trace.spans", "count", len(tracer.spans))
    return out, notes
