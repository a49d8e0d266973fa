"""Tests for the differential fuzzing oracle (``repro.oracle``).

Covers the invariant checkers, the per-batch oracle loop, the ddmin
shrinker, the pytest-case emitter, the campaign driver, and the serving
engine's ``self_check`` integration — including that the oracle actually
*catches* injected bugs, not only that it stays quiet on correct code.
"""

import pytest

from repro.graph.generators import gnm_random_graph
from repro.oracle import (
    STRUCTURES,
    Divergence,
    FuzzConfig,
    Violation,
    check_workload,
    emit_pytest_case,
    make_adapter,
    run_fuzz,
    shrink_workload,
    verify_service,
    write_pytest_case,
)
from repro.oracle.adapters import OracleAdapter
from repro.oracle.invariants import (
    check_forest,
    check_output_subset,
    check_same_components,
    check_spanner_stretch,
    check_size,
    depth_envelope,
    recourse_envelope,
    size_envelope_spanner,
    size_envelope_ultrasparse,
)
from repro.oracle.shrink import shrink_divergence
from repro.workloads import (
    UpdateBatch,
    Workload,
    deletion_stream,
    insertion_stream,
    mixed_stream,
)


# -- invariant checkers ------------------------------------------------------


class TestInvariantCheckers:
    def test_output_subset(self):
        assert check_output_subset({(0, 1), (1, 2)}, {(0, 1)}) is None
        v = check_output_subset({(0, 1)}, {(0, 1), (2, 3)})
        assert v is not None and v.kind == "output-not-subgraph"
        assert "(2, 3)" in v.detail

    def test_same_components_accepts_spanning_subgraph(self):
        graph = {(0, 1), (1, 2), (0, 2), (3, 4)}
        assert check_same_components(5, graph, {(0, 1), (1, 2), (3, 4)}) \
            is None

    def test_same_components_detects_split(self):
        graph = {(0, 1), (1, 2)}
        v = check_same_components(3, graph, {(0, 1)})  # 2 is cut off
        assert v is not None and v.kind == "connectivity"

    def test_same_components_detects_merge(self):
        # output not a subgraph: it merges two graph components
        v = check_same_components(4, {(0, 1), (2, 3)},
                                  {(0, 1), (1, 2), (2, 3)})
        assert v is not None and v.kind == "connectivity"

    def test_forest_accepts_spanning_forest(self):
        graph = {(0, 1), (1, 2), (0, 2), (3, 4)}
        assert check_forest(5, graph, {(0, 1), (1, 2), (3, 4)}) is None

    def test_forest_rejects_cycle(self):
        graph = {(0, 1), (1, 2), (0, 2)}
        v = check_forest(3, graph, {(0, 1), (1, 2), (0, 2)})
        assert v is not None and v.kind == "forest-cycle"

    def test_forest_rejects_non_spanning(self):
        graph = {(0, 1), (1, 2)}
        v = check_forest(3, graph, {(0, 1)})
        assert v is not None and v.kind == "forest-not-spanning"

    def test_stretch_detects_disconnection(self):
        graph = {(0, 1), (1, 2)}
        v = check_spanner_stretch(3, graph, {(0, 1)}, stretch=3)
        assert v is not None and v.kind == "stretch"

    def test_stretch_accepts_detour_within_bound(self):
        # triangle: dropping one edge leaves a 2-hop detour, fine for k>=2
        graph = {(0, 1), (1, 2), (0, 2)}
        assert check_spanner_stretch(3, graph, {(0, 1), (1, 2)}, 3) is None

    def test_stretch_caps_at_n(self):
        # claimed stretch beyond n-1 degenerates to connectivity
        graph = {(0, 1), (1, 2)}
        assert check_spanner_stretch(3, graph, graph, stretch=10 ** 6) \
            is None

    def test_size_envelopes_monotone_and_generous(self):
        assert check_size(10, size_envelope_spanner(20, 2)) is None
        v = check_size(10 ** 6, size_envelope_spanner(20, 2))
        assert v is not None and v.kind == "size-envelope"
        assert size_envelope_spanner(100, 2) > size_envelope_spanner(50, 2)
        assert size_envelope_ultrasparse(100, 2.0) \
            > size_envelope_ultrasparse(100, 4.0)
        assert recourse_envelope(50, 2, 100, 30) > 30
        assert depth_envelope(50) > depth_envelope(10)


# -- check_workload: clean runs + error reporting ----------------------------


class TestCheckWorkload:
    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_clean_on_seeded_workload(self, structure):
        if STRUCTURES[structure].deletions_only:
            wl = deletion_stream(16, 40, batch_size=5, seed=3)
        else:
            wl = mixed_stream(16, 40, batch_size=5, num_batches=8, seed=3)
        assert check_workload(structure, wl, seed=7, deep_every=1) is None

    def test_unknown_structure_is_a_crash_divergence(self):
        wl = insertion_stream(6, 5, batch_size=5, seed=0)
        div = check_workload("no-such-structure", wl)
        assert div is not None and div.violation.kind == "crash"

    def test_illegal_workload_reported_with_batch_index(self):
        wl = Workload(4, [], [
            UpdateBatch(insertions=[(0, 1)]),
            UpdateBatch(deletions=[(2, 3)]),  # absent
        ])
        div = check_workload("hdt", wl)
        assert div is not None
        assert div.violation.kind == "illegal-workload"
        assert div.violation.batch_index == 1

    def test_make_adapter_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown structure"):
            make_adapter("nope", 4, [])


# -- injected bugs: the oracle must catch a lying adapter --------------------


class _ForgetfulSetAdapter(OracleAdapter):
    """Identity dynamic set with an injected delta bug: deletions touching
    vertex 0 are applied internally but omitted from the reported delta."""

    name = "buggy-set"

    def _build(self, n, edges, seed):
        self._edges = set(edges)

    def _apply(self, batch):
        dels = set(batch.deletions)
        ins = set(batch.insertions)
        self._edges -= dels
        self._edges |= ins
        return ins, {e for e in dels if 0 not in e}

    def output_edges(self):
        return set(self._edges)


class TestOracleCatchesInjectedBugs:
    @pytest.fixture
    def buggy_registry(self, monkeypatch):
        monkeypatch.setitem(STRUCTURES, "buggy-set", _ForgetfulSetAdapter)

    def test_delta_drift_detected(self, buggy_registry):
        wl = deletion_stream(8, 16, batch_size=3, seed=2)
        div = check_workload("buggy-set", wl)
        assert div is not None
        assert div.violation.kind == "delta-drift"

    def test_shrink_minimizes_to_one_op(self, buggy_registry):
        wl = deletion_stream(10, 30, batch_size=4, seed=5)
        div = check_workload("buggy-set", wl)
        assert div is not None
        small = shrink_divergence(div)
        assert small.violation.kind == "delta-drift"
        # minimal reproducer: one batch deleting one vertex-0 edge of a
        # one-edge graph, compacted to two vertices
        assert len(small.workload.batches) == 1
        assert small.workload.total_updates == 1
        assert len(small.workload.initial_edges) == 1
        assert small.workload.n == 2
        assert small.shrink_stats["predicate_evals"] > 0

    def test_emitted_case_is_runnable(self, buggy_registry, tmp_path):
        wl = deletion_stream(8, 16, batch_size=3, seed=2)
        div = shrink_divergence(check_workload("buggy-set", wl))
        src = emit_pytest_case(div)
        compile(src, "<emitted>", "exec")  # valid module
        assert "buggy-set" in src and "delta_drift" in src
        path = write_pytest_case(div, tmp_path)
        assert path.name.startswith("test_fuzz_buggy_set_delta_drift")
        # the emitted test fails while the bug exists (that is its job)
        ns: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), ns)
        (test_fn,) = [v for k, v in ns.items() if k.startswith("test_")]
        with pytest.raises(AssertionError, match="delta-drift"):
            test_fn()

    def test_emitted_case_passes_once_fixed(self):
        # a divergence whose workload no longer fails (bug fixed): the
        # emitted regression test must pass
        wl = deletion_stream(8, 16, batch_size=3, seed=2)
        fake = Divergence(
            "hdt", {}, wl, Violation("delta-drift", "fixed"), seed=1
        )
        ns: dict = {}
        exec(compile(emit_pytest_case(fake), "<emitted>", "exec"), ns)
        (test_fn,) = [v for k, v in ns.items() if k.startswith("test_")]
        test_fn()  # no divergence -> no assert


# -- shrinker on a synthetic predicate ---------------------------------------


class TestShrinkWorkload:
    def test_ddmin_reaches_minimal_core(self):
        wl = deletion_stream(12, 30, batch_size=4, seed=9)

        def still_fails(cand):
            return any(
                (0, 1) in b.deletions or (1, 0) in b.deletions
                for b in cand.batches
            )

        if not still_fails(wl):  # ensure the target edge is in the stream
            wl.initial_edges.append((0, 1))
            wl.batches.append(UpdateBatch(deletions=[(0, 1)]))
        small, stats = shrink_workload(wl, still_fails)
        assert still_fails(small)
        assert small.total_updates == 1
        assert len(small.initial_edges) == 1  # legality keeps (0,1) initial
        assert small.n == 2  # vertex compaction relabeled to {0, 1}
        assert 0 < stats["predicate_evals"] <= stats["budget"]

    def test_budget_degrades_to_partial_shrink(self):
        wl = deletion_stream(12, 30, batch_size=4, seed=9)

        def still_fails(cand):
            return cand.total_updates >= 1

        small, stats = shrink_workload(wl, still_fails, budget=3)
        assert still_fails(small)  # never returns a passing workload
        assert stats["predicate_evals"] <= 3


# -- campaign driver ---------------------------------------------------------


class TestRunFuzz:
    def test_small_campaign_clean_and_deterministic(self):
        cfg = FuzzConfig(seeds=2, max_n=20)
        r1 = run_fuzz(cfg)
        r2 = run_fuzz(cfg)
        assert r1.ok and r2.ok
        assert set(r1.stats) == set(STRUCTURES)
        assert [s.ops for s in r1.stats.values()] \
            == [s.ops for s in r2.stats.values()]
        rows = r1.rows()
        assert all(row["divergences"] == 0 for row in rows)
        assert all(row["ops"] > 0 for row in rows)

    def test_time_budget_truncates(self):
        cfg = FuzzConfig(seeds=50, time_budget=0.0)
        report = run_fuzz(cfg)
        assert sum(s.workloads for s in report.stats.values()) <= 1

    def test_structure_subset(self):
        cfg = FuzzConfig(seeds=1, structures=("hdt",))
        report = run_fuzz(cfg)
        assert list(report.stats) == ["hdt"]

    def test_cli_fuzz_smoke(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "--seeds", "1", "--structures", "hdt,dynamizer",
                   "--max-n", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no divergences" in out

    def test_cli_fuzz_rejects_unknown_structure(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--structures", "nope"]) == 2


# -- serving-engine integration ----------------------------------------------


def _service(n=24, m=60, seed=11):
    from repro.service import (
        BatcherConfig,
        LocalExecutor,
        ServiceConfig,
        SpannerService,
    )

    edges = gnm_random_graph(n, m, seed=seed)
    spec = {"kind": "spanner", "n": n, "edges": edges, "seed": seed,
            "k": 2, "base_capacity": 16}
    svc = SpannerService(
        LocalExecutor(spec),
        config=ServiceConfig(
            batcher=BatcherConfig(max_batch=8, max_delay=10.0)
        ),
        clock=lambda: 0.0,
    )
    return svc, edges


class TestServiceSelfCheck:
    def test_clean_service_verifies(self):
        svc, edges = _service()
        for e in edges[:10]:
            svc.submit_update("delete", *e)
        svc.submit_update("insert", *edges[0])
        result = svc.self_check(deep=True)
        assert result.ok, str(result)
        assert "OK" in str(result)

    def test_corrupted_snapshot_detected(self):
        svc, edges = _service()
        for e in edges[:5]:
            svc.submit_update("delete", *e)
        svc.flush()
        # corrupt the graph every read walks: the oracle must see it
        extra = next((u, v) for u in range(24) for v in range(u + 1, 24)
                     if (u, v) not in svc.snapshot_edges())
        before = svc.query("distance", extra)
        svc._graph.insert_batch([extra])
        assert svc.query("distance", extra) == 1.0 != before
        result = verify_service(svc, svc.executor)
        assert not result.ok
        assert any(v.kind == "snapshot-drift" for v in result.violations)
        assert "FAILED" in str(result)

    def test_wrong_singleton_reads_detected(self, monkeypatch):
        # edge sets all agree; only the read kernel is wrong (every
        # distance of 2 or more comes back one too long), so only the
        # read probe can see it
        import repro.service.engine as engine
        from repro.graph.traversal import bfs_distances

        def off_by_one(adj, source, n=None, target=None):
            dist = bfs_distances(adj, source, n, target)
            return {v: d + (d >= 2) for v, d in dist.items()}

        svc, edges = _service()
        for e in edges[:5]:
            svc.submit_update("delete", *e)
        assert svc.self_check().ok
        monkeypatch.setattr(engine, "bfs_distances", off_by_one)
        result = svc.self_check()
        assert [v.kind for v in result.violations] == ["read-drift"]
        assert "expected" in str(result)

    def test_corrupted_batch_log_detected(self):
        svc, edges = _service()
        for e in edges[:5]:
            svc.submit_update("delete", *e)
        svc.flush()
        # tamper with the applied-batch log: replaying it must now diverge
        svc.executor.history[0].append(
            UpdateBatch(deletions=[edges[6]])
        )
        result = verify_service(svc, svc.executor)
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert kinds & {"snapshot-drift", "live-drift", "queue-drift"}

    def test_run_serve_reports_verification(self):
        from repro.service import ServeConfig, run_serve

        report = run_serve(
            ServeConfig(n=32, m=96, requests=400, shards=2,
                        processes=False),
            verify=True,
        )
        assert report.verified, str(report.verification)
        assert report.verification.ok
