"""repro.parallel: execution backends, charge identity, pool mechanics.

The load-bearing contract under test: routing a charged parallel region
through an execution backend changes *where* the branches run, never what
they answer or what they charge.  Sequential and process-pool backends
must produce identical values and identical recorded ``(work, depth)``
for every composition of ``pfor`` / ``parallel`` / ``charge_many``, and
the pool's merge must be deterministic under task reordering (it is a
commutative sum/max applied in canonical task order).
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    PoolError,
    WorkerCrashed,
    ProcessPoolBackend,
    SequentialBackend,
    is_shippable,
    parallel_batch_components,
    parallel_multi_source_bfs,
    resolve_backend,
    wants_cost,
)
from repro.pram.cost import NULL_COST_MODEL, CostModel
from repro.queries.batch import batch_components, multi_source_bfs
from repro.resilience.manager import SupervisionConfig


# -- module-level functions (shippable to workers by construction) ----------

def charge_square(x, cost):
    cost.charge_many(x, 1)
    return x * x


def plain_double(x):
    return 2 * x


def nested_rounds(x, cost):
    """A branch that itself opens parallel regions (always inline in the
    executing process: workers' fresh models have no backend)."""
    with cost.parallel() as par:
        for i in range(x % 3 + 1):
            with par.task():
                cost.charge_many(i + 1, 1)
    cost.charge_many(x, 2)
    return x


def boom(x, cost):
    if x == 3:
        raise ValueError("boom at 3")
    cost.charge_many(1, 1)
    return x


def sum_kernel(args, shared, cost):
    base = shared.get("base", 0)
    total = sum(args["chunk"]) + base
    cost.charge_many(len(args["chunk"]), 1)
    return total


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(2, min_items=1)
    yield backend
    backend.close()


def _run_program(backend, items, extra):
    """One charged program exercising pfor + charge_many + nesting.

    With a backend, the module-level charged functions are passed
    directly (the seam injects ``cost=``); the no-backend reference
    closes over the model instead — the historical calling convention.
    """
    cm = CostModel()
    if backend is not None:
        cm.set_backend(backend)
        sq, nested = charge_square, nested_rounds
    else:
        sq = lambda x: charge_square(x, cm)          # noqa: E731
        nested = lambda x: nested_rounds(x, cm)      # noqa: E731
    with cm.frame() as fr:
        a = cm.pfor(items, sq)
        cm.charge_many(extra, 1)
        b = cm.pfor(items, nested)
        with cm.parallel() as par:
            c = par.map(items, sq)
    return (a, b, c), (fr.work, fr.depth), (cm.work, cm.depth)


class TestShippability:
    def test_module_level_functions_ship(self):
        assert is_shippable(charge_square)
        assert is_shippable(plain_double)

    def test_closures_lambdas_methods_do_not(self):
        y = 1
        assert not is_shippable(lambda x: x)
        assert not is_shippable(lambda x: x + y)
        assert not is_shippable("".join)
        assert not is_shippable(TestShippability.test_module_level_functions_ship)

    def test_wants_cost(self):
        assert wants_cost(charge_square)
        assert not wants_cost(plain_double)


class TestResolveBackend:
    def test_sequential_specs(self):
        for spec in (0, 1, "seq", "sequential", ""):
            b = resolve_backend(spec)
            assert isinstance(b, SequentialBackend)
        assert resolve_backend(None) is None

    def test_passthrough(self):
        b = SequentialBackend()
        assert resolve_backend(b) is b

    def test_pool_specs(self):
        for spec in (2, "2", "pool:2"):
            b = resolve_backend(spec)
            try:
                assert isinstance(b, ProcessPoolBackend)
                assert b.workers == 2
            finally:
                b.close()

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_backend("nope")


class TestChargeIdentity:
    """Inline (no backend), sequential backend, and pool must agree."""

    def test_simple_program(self, pool):
        items = list(range(10))
        ref = _run_program(None, items, 7)
        seq = _run_program(SequentialBackend(), items, 7)
        par = _run_program(pool, items, 7)
        assert seq == ref
        assert par == ref

    @settings(max_examples=15, deadline=None)
    @given(
        items=st.lists(st.integers(min_value=0, max_value=20), max_size=12),
        extra=st.integers(min_value=0, max_value=50),
    )
    def test_property_identity_sequential(self, items, extra):
        assert _run_program(SequentialBackend(), items, extra) \
            == _run_program(None, items, extra)

    def test_property_identity_pool(self, pool):
        rng = random.Random(7)
        for _ in range(8):
            items = [rng.randrange(20) for _ in range(rng.randrange(12))]
            extra = rng.randrange(50)
            assert _run_program(pool, items, extra) \
                == _run_program(None, items, extra)

    def test_disabled_model_charges_nothing(self, pool):
        for backend in (SequentialBackend(), pool):
            NULL_COST_MODEL.set_backend(backend)
            try:
                out = NULL_COST_MODEL.pfor(list(range(6)), charge_square)
            finally:
                NULL_COST_MODEL.set_backend(None)
            assert out == [x * x for x in range(6)]
            assert NULL_COST_MODEL.work == 0

    def test_closure_falls_back_inline(self, pool):
        cm = CostModel()
        cm.set_backend(pool)
        captured = []

        def fn(x):
            captured.append(x)
            cm.charge_many(1, 1)
            return -x

        before = pool.inline_fallbacks_total
        assert cm.pfor([1, 2, 3], fn) == [-1, -2, -3]
        assert captured == [1, 2, 3]           # ran in this process
        assert pool.inline_fallbacks_total == before + 3
        assert (cm.work, cm.depth) == (3, 1)


class TestMergeDeterminism:
    def test_map_chunks_order_invariant(self, pool):
        pool.put_shared("base", 5)
        chunks = [{"chunk": list(range(i, i + 4))} for i in range(0, 24, 4)]
        ref = pool.map_chunks(sum_kernel, chunks, shared_keys=("base",))
        perm = list(range(len(chunks)))[::-1]
        got = pool.map_chunks(
            sum_kernel, chunks, shared_keys=("base",), order=perm
        )
        assert [r.value for r in got] == [r.value for r in ref]
        assert [(r.work, r.depth) for r in got] \
            == [(r.work, r.depth) for r in ref]

    def test_map_chunks_matches_sequential(self, pool):
        seq = SequentialBackend()
        seq.put_shared("base", 5)
        pool.put_shared("base", 5)
        chunks = [{"chunk": [1, 2, 3]}, {"chunk": [4]}, {"chunk": []}]
        a = seq.map_chunks(sum_kernel, chunks, shared_keys=("base",))
        b = pool.map_chunks(sum_kernel, chunks, shared_keys=("base",))
        assert [(r.value, r.work, r.depth) for r in a] \
            == [(r.value, r.work, r.depth) for r in b]

    def test_bad_order_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.map_chunks(
                sum_kernel, [{"chunk": [1]}, {"chunk": [2]}], order=[0, 0]
            )


class TestKernelIdentity:
    """The pool-backed BFS/components kernels answer and charge exactly
    like the sequential library functions."""

    @staticmethod
    def _graph(seed, n=80, m=160):
        rng = random.Random(seed)
        adj = {v: set() for v in range(n)}
        for _ in range(m):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return {v: sorted(ws) for v, ws in adj.items()}, n

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mbfs_answers_and_charges(self, pool, seed):
        adj, n = self._graph(seed)
        sources = [0, 3, 17, 41]
        ref_cm = CostModel()
        ref = multi_source_bfs(adj, sources, n=n, cost=ref_cm)
        got_cm = CostModel()
        got = parallel_multi_source_bfs(
            pool, adj, sources, n=n, cost=got_cm,
            adj_key=f"t:mbfs:{seed}", adj_version=seed,
        )
        assert got == ref
        assert (got_cm.work, got_cm.depth) == (ref_cm.work, ref_cm.depth)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_components_answers_and_charges(self, pool, seed):
        adj, n = self._graph(seed, m=90)  # sparse: several components
        vertices = list(range(0, n, 7))
        ref_cm = CostModel()
        ref = batch_components(adj, vertices, n=n, cost=ref_cm)
        got_cm = CostModel()
        got = parallel_batch_components(
            pool, adj, vertices, n=n, cost=got_cm,
            adj_key=f"t:comp:{seed}", adj_version=seed,
        )
        assert got == ref
        assert (got_cm.work, got_cm.depth) == (ref_cm.work, ref_cm.depth)

    def test_mbfs_targets_route(self, pool):
        """With targets the routed entry point only uses the pool when no
        charges are recorded; answers at the targets stay exact."""
        adj, n = self._graph(2)
        sources = [0, 5]
        targets = {0: [9, 20, 33], 5: [1, 64]}
        ref = multi_source_bfs(adj, sources, targets=targets, n=n)
        got = multi_source_bfs(
            adj, sources, targets=targets, n=n,
            backend=pool, adj_version="targets",
        )
        for s, wants in targets.items():
            for t in wants:
                assert got[s].get(t) == ref[s].get(t)

    def test_routed_entry_points_match(self, pool):
        adj, n = self._graph(3)
        cm_a, cm_b = CostModel(), CostModel()
        a = multi_source_bfs(adj, [0, 2], n=n, cost=cm_a)
        b = multi_source_bfs(
            adj, [0, 2], n=n, cost=cm_b, backend=pool, adj_version="r",
        )
        assert a == b
        assert (cm_a.work, cm_a.depth) == (cm_b.work, cm_b.depth)


class TestEmulation:
    def test_sequential_pays_serially_pool_overlaps(self):
        # 4 items x 200 work units x 250us = 200ms serial floor; two
        # workers sleep concurrently so the pool takes roughly half.
        tau = 250e-6
        items = [200] * 4
        seq = SequentialBackend(unit_cost_s=tau, min_items=1)
        t0 = time.perf_counter()
        NULL_COST_MODEL.set_backend(seq)
        try:
            NULL_COST_MODEL.pfor(items, charge_square)
        finally:
            NULL_COST_MODEL.set_backend(None)
        t_seq = time.perf_counter() - t0
        pool = ProcessPoolBackend(2, unit_cost_s=tau, min_items=1)
        try:
            cm = CostModel()
            cm.set_backend(pool)
            t0 = time.perf_counter()
            cm.pfor(items, charge_square)
            t_pool = time.perf_counter() - t0
        finally:
            pool.close()
        assert t_seq >= 0.8 * sum(items) * tau
        assert t_pool < t_seq

    def test_negative_unit_cost_rejected(self):
        with pytest.raises(ValueError):
            SequentialBackend(unit_cost_s=-1.0)


class TestPoolRobustness:
    def test_task_error_propagates_and_pool_survives(self, pool):
        cm = CostModel()
        cm.set_backend(pool)
        with pytest.raises(PoolError, match="boom at 3"):
            cm.pfor(list(range(6)), boom)
        # the pool is still usable afterwards
        cm2 = CostModel()
        cm2.set_backend(pool)
        assert cm2.pfor([2, 4], charge_square) == [4, 16]

    def test_closed_pool_raises(self):
        p = ProcessPoolBackend(2, min_items=1)
        p.close()
        p.close()  # idempotent
        with pytest.raises(PoolError):
            p.map_chunks(sum_kernel, [{"chunk": [1]}])

    def test_put_shared_version_cache(self, pool):
        pool.put_shared("v", {"a": 1}, version=1)
        pool.put_shared("v", {"a": 2}, version=1)  # same version: no-op
        assert pool.get_shared("v") == {"a": 1}
        pool.put_shared("v", {"a": 3}, version=2)
        assert pool.get_shared("v") == {"a": 3}

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_pinned_needs_enough_workers(self, pool):
        with pytest.raises(ValueError):
            pool.map_chunks(
                sum_kernel,
                [{"chunk": [1]}, {"chunk": [2]}, {"chunk": [3]}],
                pinned=True,
            )


class TestMetrics:
    def test_bind_metrics_records_dispatches(self):
        from repro.service.metrics import MetricsRegistry

        reg = MetricsRegistry()
        pool = ProcessPoolBackend(2, min_items=1)
        try:
            pool.bind_metrics(reg)
            cm = CostModel()
            cm.set_backend(pool)
            cm.pfor(list(range(8)), charge_square)
            cm.pfor([1], lambda x: x)  # closure: inline fallback
            snap = reg.snapshot()
            assert snap["pool_workers"] == 2
            assert snap["pool_tasks_total"] >= 1
            assert snap["pool_dispatches_total"] >= 1
            assert snap["pool_inline_fallbacks_total"] >= 1
            assert 0.0 <= snap["pool_utilization"] <= 1.0
        finally:
            pool.close()


# -- worker supervision -------------------------------------------------------


def square_chunk_kernel(payload, shared, cost=None):
    time.sleep(payload.get("sleep_s", 0.0))
    return sorted(x * x for x in payload["items"])


def die_once_kernel(payload, shared, cost=None):
    """Dies (hard exit, as if SIGKILLed) the first time it sees its flag
    path missing; succeeds on the supervised retry."""
    import os
    flag = payload.get("flag")
    if flag and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(9)
    return sorted(x * x for x in payload["items"])


def always_die_kernel(payload, shared, cost=None):
    import os
    if payload.get("die"):
        os._exit(9)
    return sum(payload["items"])


def shared_sum_kernel(payload, shared, cost=None):
    return sum(shared["base"]) + sum(payload["items"])


_FAST = SupervisionConfig(backoff_base=0.01)


class TestWorkerSupervision:
    def _chunks(self, n=6, **extra):
        return [dict(items=list(range(4 * c, 4 * c + 4)), **extra)
                for c in range(n)]

    def test_dead_worker_requeued_and_results_exact(self, tmp_path):
        pool = ProcessPoolBackend(2, supervision=_FAST)
        try:
            chunks = self._chunks(6)
            chunks[3]["flag"] = str(tmp_path / "die3")
            expect = [sorted(x * x for x in ch["items"]) for ch in chunks]
            out = pool.map_chunks(die_once_kernel, chunks)
            assert [r.value for r in out] == expect
            assert pool.worker_restarts_total == 1
            # the healed pool keeps working
            out2 = pool.map_chunks(square_chunk_kernel, self._chunks(4))
            assert [r.value for r in out2] == [
                sorted(x * x for x in ch["items"])
                for ch in self._chunks(4)]
        finally:
            pool.close()

    def test_poison_task_raises_with_task_identity(self):
        """Satellite: the dead-worker error must say which task was in
        flight — a task that kills every worker it lands on is quarantined
        by identity, not guessed at."""
        pool = ProcessPoolBackend(
            2, supervision=SupervisionConfig(backoff_base=0.01,
                                             max_batch_attempts=2))
        try:
            chunks = [{"items": [1, 2]}, {"items": [3], "die": True},
                      {"items": [4, 5]}]
            with pytest.raises(WorkerCrashed) as ei:
                pool.map_chunks(always_die_kernel, chunks)
            exc = ei.value
            assert exc.task_ids == [1]
            assert exc.fn_name == "always_die_kernel"
            assert exc.workers
            assert exc.restarts >= 1
            assert "task" in str(exc) and "always_die_kernel" in str(exc)
            # supervision healed the pool before raising
            assert [r.value for r in pool.map_chunks(
                always_die_kernel, [{"items": [2, 3]}])] == [5]
        finally:
            pool.close()

    def test_restart_budget_exhaustion_raises(self):
        pool = ProcessPoolBackend(
            2, supervision=SupervisionConfig(restart_budget=0,
                                             backoff_base=0.0))
        try:
            with pytest.raises(WorkerCrashed) as ei:
                pool.map_chunks(
                    always_die_kernel,
                    [{"items": [1]}, {"items": [2], "die": True}])
            assert ei.value.restarts == 0
            assert ei.value.task_ids == [1]
            # healed: replacement workers were still forked
            assert [r.value for r in pool.map_chunks(
                always_die_kernel, [{"items": [7]}])] == [7]
        finally:
            pool.close()

    def test_pinned_dispatch_crashes_fast_but_heals(self, tmp_path):
        """Pinned dispatches carry per-sweep mirror state a replacement
        worker never saw: supervision must fail the dispatch (typed, with
        task identity) yet hand back a healed pool with shared state
        re-broadcast."""
        pool = ProcessPoolBackend(2, supervision=_FAST)
        try:
            pool.put_shared("base", [10, 20], version=1)
            chunks = [{"items": [1]},
                      {"items": [2], "flag": str(tmp_path / "diep")}]
            with pytest.raises(WorkerCrashed) as ei:
                pool.map_chunks(die_once_kernel, chunks, pinned=True)
            assert ei.value.task_ids == [1]
            # pinned dispatches still work and replacement workers hold
            # the re-broadcast shared payload
            out = pool.map_chunks(
                shared_sum_kernel,
                [{"items": [1]}, {"items": [2]}],
                shared_keys=("base",), pinned=True)
            assert [r.value for r in out] == [31, 32]
        finally:
            pool.close()

    def test_idle_worker_killed_detected_at_send(self):
        import os
        import signal

        pool = ProcessPoolBackend(2, supervision=_FAST)
        try:
            assert [r.value for r in pool.map_chunks(
                square_chunk_kernel, self._chunks(2))] == [
                    sorted(x * x for x in ch["items"])
                    for ch in self._chunks(2)]
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            pool._procs[0].join(timeout=2.0)
            out = pool.map_chunks(square_chunk_kernel, self._chunks(4))
            assert [r.value for r in out] == [
                sorted(x * x for x in ch["items"])
                for ch in self._chunks(4)]
            assert pool.worker_restarts_total >= 1
        finally:
            pool.close()

    def test_worker_restarts_metric(self, tmp_path):
        from repro.service.metrics import MetricsRegistry

        reg = MetricsRegistry()
        pool = ProcessPoolBackend(2, supervision=_FAST)
        try:
            pool.bind_metrics(reg)
            chunks = self._chunks(4)
            chunks[0]["flag"] = str(tmp_path / "die0")
            pool.map_chunks(die_once_kernel, chunks)
            assert reg.snapshot()["pool_worker_restarts"] == 1
        finally:
            pool.close()

    def test_supervision_is_uncharged(self, tmp_path):
        """Restarts are control plane: the dispatch's charged work/depth
        must be identical with and without a mid-dispatch worker death."""
        chunks = self._chunks(5, sleep_s=0.0)
        clean = ProcessPoolBackend(2, supervision=_FAST)
        try:
            base = clean.map_chunks(square_chunk_kernel, chunks)
        finally:
            clean.close()
        chunks2 = self._chunks(5, sleep_s=0.0)
        chunks2[2]["flag"] = str(tmp_path / "diec")
        faulty = ProcessPoolBackend(2, supervision=_FAST)
        try:
            hurt = faulty.map_chunks(die_once_kernel, chunks2)
        finally:
            faulty.close()
        assert [(r.work, r.depth) for r in base] == \
                [(r.work, r.depth) for r in hurt]
        assert [r.value for r in base] == [r.value for r in hurt]
