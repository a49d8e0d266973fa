"""Execution backends: where charged parallel regions actually run.

The cost model in :mod:`repro.pram.cost` *accounts* for parallelism — a
``parallel()`` region sums branch work and maxes branch depth — but has
always *executed* branches inline.  This module separates the two concerns
behind one small contract, :class:`ExecutionBackend`:

* :class:`SequentialBackend` reproduces the historical inline loop
  byte-for-byte (same frames, same charge order, same totals).  It is the
  implicit default everywhere; the charge pins in ``BENCH_hotpath.json``
  are recorded under it.
* :class:`~repro.parallel.pool.ProcessPoolBackend` ships chunks of tasks
  to persistent worker processes, runs each task under a fresh per-worker
  :class:`~repro.pram.cost.CostModel`, and merges the per-task
  ``(work, depth)`` pairs back into the parent region **in canonical task
  order** with the same commutative sum/max rule — so the merged totals
  are deterministic and identical to sequential execution no matter how
  the OS schedules the workers.

Two task shapes are supported:

``map_scope(model, scope, items, fn)``
    The generic :meth:`CostModel.pfor` / :meth:`ParallelScope.map` seam.
    ``fn`` is shippable to workers only when it is an importable
    module-level callable; closures and bound methods (the shared-mutation
    kernels in ``es_tree`` / ``shift_clustering``) fall back to inline
    execution, preserving today's semantics exactly.  A shippable ``fn``
    that declares a ``cost`` keyword parameter receives the executing
    cost model (the worker's own, or the parent's inline) and must charge
    through it rather than a closed-over model.

``map_chunks(fn, chunk_args, ...)``
    The data-parallel kernel seam used by :mod:`repro.parallel.kernels`
    (frontier expansion for multi-source BFS / components).  One task per
    chunk argument; results return in chunk order together with per-chunk
    ``(work, depth)`` charges and busy-time accounting.

Backends also support a *pinned per-work-unit execution cost*
(``unit_cost_s``): when set, executing a task additionally sleeps
``charged_work * unit_cost_s`` seconds.  This is the same convention the
SRV2 replica bench uses for its pinned per-query service time — it makes
schedule-level speedup measurable and honest on any machine (sleeps overlap
across processes; the sequential baseline pays the identical total
serially), including the 1-core CI box where pure-CPU speedup is
physically impossible.  ``unit_cost_s=0`` (the default) measures raw CPU.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..pram.cost import CostModel, ParallelScope, _Frame

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "is_shippable",
    "wants_cost",
    "resolve_backend",
]


def is_shippable(fn: Callable[..., Any]) -> bool:
    """True when ``fn`` pickles by reference: a module-level callable whose
    qualified name resolves back to the same object.  Closures, lambdas,
    bound methods and locals all fail this test and execute inline."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or "." in qualname or "<" in qualname:
        return False
    mod = sys.modules.get(module)
    return mod is not None and getattr(mod, qualname, None) is fn


_WANTS_COST_CACHE: dict[Any, bool] = {}

#: process-global sweep-token source; see :meth:`ExecutionBackend.new_token`
_TOKEN_COUNTER = itertools.count(1)


def wants_cost(fn: Callable[..., Any]) -> bool:
    """True when ``fn`` declares a ``cost`` keyword parameter (charged
    kernels); checked once per function and cached."""
    try:
        return _WANTS_COST_CACHE[fn]
    except TypeError:
        pass  # unhashable callable: inspect every time
    except KeyError:
        pass
    try:
        params = inspect.signature(fn).parameters
        res = "cost" in params
    except (TypeError, ValueError):
        res = False
    try:
        _WANTS_COST_CACHE[fn] = res
    except TypeError:
        pass
    return res


class ChunkResult:
    """Result of one :meth:`ExecutionBackend.map_chunks` task."""

    __slots__ = ("value", "work", "depth", "busy_s")

    def __init__(self, value: Any, work: int, depth: int, busy_s: float) -> None:
        self.value = value
        self.work = work
        self.depth = depth
        self.busy_s = busy_s


class ExecutionBackend:
    """Contract all execution backends implement.

    ``workers``
        Degree of real parallelism (1 for :class:`SequentialBackend`).
    ``unit_cost_s``
        Pinned seconds of execution time per charged work unit (see module
        docstring); 0 disables emulation.
    ``min_items``
        Below this many items/frontier entries, drivers are encouraged to
        process a round inline — dispatch overhead dominates tiny rounds.
    """

    name = "abstract"

    def __init__(self, *, unit_cost_s: float = 0.0, min_items: int = 1) -> None:
        if unit_cost_s < 0:
            raise ValueError("unit_cost_s must be >= 0")
        self.unit_cost_s = float(unit_cost_s)
        self.min_items = max(1, int(min_items))
        self._shared_versions: dict[str, Any] = {}
        self._metrics = None
        self._metric_handles = None
        # Always-on aggregate accounting (cheap; benches read these even
        # without a metrics registry bound).
        self.tasks_total = 0
        self.dispatches_total = 0
        self.inline_fallbacks_total = 0
        self.busy_s_total = 0.0
        self.dispatch_wall_s_total = 0.0
        self.worker_restarts_total = 0

    @property
    def utilization(self) -> float:
        """Aggregate busy-time share of the dispatch walls: 1.0 means every
        worker was busy for every dispatched second."""
        denom = self.dispatch_wall_s_total * max(1, self.workers)
        return min(1.0, self.busy_s_total / denom) if denom > 0 else 0.0

    # -- lifecycle --------------------------------------------------------

    @property
    def workers(self) -> int:
        return 1

    def close(self) -> None:  # pragma: no cover - trivial
        """Release worker resources (idempotent)."""

    def kill_worker(self, wid: int) -> None:
        """Fault injection: kill worker ``wid``.  In-process backends have
        no worker to kill; callers drop the task state they keep instead."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shared payloads --------------------------------------------------

    def new_token(self) -> int:
        """A process-unique token for per-sweep worker scratch state.

        Tokens must be unique across *all* backends in this process, not
        just per backend: forked pool workers inherit the parent's kernel
        scratch (a prior :class:`SequentialBackend` sweep may have left
        mirror state behind), and a colliding token would make a fresh
        sweep mistake that stale mirror for its own.
        """
        return next(_TOKEN_COUNTER)

    def put_shared(self, key: str, value: Any, version: Any = None) -> None:
        """Publish ``value`` under ``key`` to every worker.

        ``version`` short-circuits re-broadcast: a repeated call with the
        same ``(key, version)`` is a no-op.  ``None`` always re-sends.
        Sequential backends just keep a local reference.
        """
        if version is not None and self._shared_versions.get(key) == version:
            return
        self._publish_shared(key, value)
        self._shared_versions[key] = version

    def _publish_shared(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def get_shared(self, key: str) -> Any:
        """Return the payload previously published under ``key``."""
        raise NotImplementedError

    # -- metrics ----------------------------------------------------------

    def bind_metrics(self, registry, prefix: str = "pool") -> None:
        """Record pool-utilization and task-granularity metrics into a
        :class:`repro.service.metrics.MetricsRegistry` on every dispatch:

        * ``<prefix>_tasks_total`` / ``<prefix>_dispatches_total`` counters,
        * ``<prefix>_inline_fallbacks_total`` counter (unshippable fns),
        * ``<prefix>_chunk_items`` histogram (task granularity),
        * ``<prefix>_dispatch_ms`` histogram (wall per dispatch round),
        * ``<prefix>_utilization`` gauge (busy-time / wall x workers),
        * ``<prefix>_workers`` gauge,
        * ``<prefix>_worker_restarts`` counter (supervised replacements
          of dead workers; always 0 for in-process backends).
        """
        self._metrics = registry
        self._metric_handles = {
            "tasks": registry.counter(f"{prefix}_tasks_total"),
            "dispatches": registry.counter(f"{prefix}_dispatches_total"),
            "fallbacks": registry.counter(f"{prefix}_inline_fallbacks_total"),
            "chunk_items": registry.histogram(f"{prefix}_chunk_items"),
            "dispatch_ms": registry.histogram(f"{prefix}_dispatch_ms"),
            "utilization": registry.gauge(f"{prefix}_utilization"),
            "workers": registry.gauge(f"{prefix}_workers"),
            "worker_restarts": registry.counter(f"{prefix}_worker_restarts"),
        }
        self._metric_handles["workers"].set(self.workers)

    def _record_dispatch(
        self, n_tasks: int, items_per_task: Sequence[int], wall_s: float, busy_s: float
    ) -> None:
        self.tasks_total += n_tasks
        self.dispatches_total += 1
        self.busy_s_total += busy_s
        self.dispatch_wall_s_total += wall_s
        h = self._metric_handles
        if h is None:
            return
        h["tasks"].inc(n_tasks)
        h["dispatches"].inc()
        for c in items_per_task:
            h["chunk_items"].observe(c)
        h["dispatch_ms"].observe(wall_s * 1000.0)
        if wall_s > 0 and self.workers > 0:
            h["utilization"].set(min(1.0, busy_s / (wall_s * self.workers)))

    def _record_fallback(self, n_tasks: int) -> None:
        self.inline_fallbacks_total += n_tasks
        h = self._metric_handles
        if h is not None:
            h["fallbacks"].inc(n_tasks)

    def _record_worker_restart(self, n: int = 1) -> None:
        self.worker_restarts_total += n
        h = self._metric_handles
        if h is not None:
            h["worker_restarts"].inc(n)

    # -- execution --------------------------------------------------------

    def map_scope(
        self,
        model: CostModel,
        scope: ParallelScope,
        items: Iterable[Any],
        fn: Callable[..., Any],
    ) -> list[Any]:
        """Execute ``fn`` over ``items`` as branches of the open ``scope``.

        Must be charge-identical to the inline loop: each branch's
        ``(work, depth)`` merges into ``scope`` via sum/max.
        """
        raise NotImplementedError

    def map_chunks(
        self,
        fn: Callable[..., Any],
        chunk_args: Sequence[Any],
        *,
        shared_keys: Sequence[str] = (),
        cost_enabled: bool = True,
        order: Sequence[int] | None = None,
        pinned: bool | Sequence[int] = False,
        deadline: float | None = None,
    ) -> list[ChunkResult]:
        """Execute kernel ``fn(args, shared, cost)`` once per chunk arg.

        Results come back in chunk order regardless of completion order.
        ``shared_keys`` name payloads previously published with
        :meth:`put_shared`; the backend passes them to ``fn`` as the
        ``shared`` mapping.  ``pinned`` routes chunk ``i`` to worker ``i``
        (True) or to worker ``pinned[i]`` (distinct ids), for tasks with
        worker-local state; ``deadline`` bounds each chunk's reply time in
        seconds (a worker that misses it is killed, see
        :class:`~repro.parallel.pool.WorkerCrashed`); ``order`` permutes
        the dispatch order only (a determinism test hook).  Each task always
        runs under a fresh recording cost model so emulation and charge
        reports see the kernel's counts; callers decide whether to merge.
        """
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    def _emulate(self, work: int) -> None:
        if self.unit_cost_s > 0.0 and work > 0:
            time.sleep(work * self.unit_cost_s)

    def _run_scope_inline(
        self,
        model: CostModel,
        scope: ParallelScope,
        items: Iterable[Any],
        fn: Callable[..., Any],
    ) -> list[Any]:
        """The historical inline loop, with per-branch frame visibility so
        emulation and charge-merge use the exact same path as workers."""
        emulating = self.unit_cost_s > 0.0
        pass_cost = wants_cost(fn)
        out: list[Any] = []
        if not (emulating or model.enabled):
            # Nothing to account: plain calls, no frames.
            for item in items:
                out.append(fn(item, cost=model) if pass_cost else fn(item))
            return out
        stack = model._stack
        for item in items:
            frame = _Frame()
            if model.enabled:
                stack.append(frame)
                try:
                    out.append(fn(item, cost=model) if pass_cost else fn(item))
                finally:
                    stack.pop()
                scope.absorb(frame.work, frame.depth)
                self._emulate(frame.work)
            else:
                # Emulation with a disabled parent model: run under a
                # scratch recording model purely to learn the work count.
                scratch = CostModel()
                out.append(fn(item, cost=scratch) if pass_cost else fn(item))
                self._emulate(scratch.work)
        return out


class SequentialBackend(ExecutionBackend):
    """Inline execution — today's behavior, byte-for-byte charge-identical.

    Exists so that drivers written against the backend contract (the PAR1
    bench, the parallel BFS kernels) have an honest ``p = 1`` baseline
    running the *same* chunked code path as the pool, and so that the
    pinned unit-cost emulation has a serial reference implementation.
    """

    name = "sequential"

    def __init__(self, *, unit_cost_s: float = 0.0, min_items: int = 1) -> None:
        super().__init__(unit_cost_s=unit_cost_s, min_items=min_items)
        self._shared: dict[str, Any] = {}

    def _publish_shared(self, key: str, value: Any) -> None:
        self._shared[key] = value

    def get_shared(self, key: str) -> Any:
        """Return the locally retained payload for ``key``."""
        return self._shared[key]

    def map_scope(
        self,
        model: CostModel,
        scope: ParallelScope,
        items: Iterable[Any],
        fn: Callable[..., Any],
    ) -> list[Any]:
        """Run every branch inline — byte-identical to the no-backend loop."""
        return self._run_scope_inline(model, scope, items, fn)

    def map_chunks(
        self,
        fn: Callable[..., Any],
        chunk_args: Sequence[Any],
        *,
        shared_keys: Sequence[str] = (),
        cost_enabled: bool = True,
        order: Sequence[int] | None = None,
        pinned: bool | Sequence[int] = False,
        deadline: float | None = None,
    ) -> list[ChunkResult]:
        """Run each chunk kernel serially under a fresh recording model
        (inline, so ``pinned`` and ``deadline`` have nothing to do)."""
        shared: Mapping[str, Any] = {k: self._shared[k] for k in shared_keys}
        t0 = time.perf_counter()
        out: list[ChunkResult] = []
        sizes: list[int] = []
        for args in chunk_args:
            cm = CostModel()
            b0 = time.perf_counter()
            with cm.frame() as fr:
                value = fn(args, shared, cost=cm)
            self._emulate(fr.work)
            busy = time.perf_counter() - b0
            out.append(ChunkResult(value, fr.work, fr.depth, busy))
            sizes.append(_arg_size(args))
        wall = time.perf_counter() - t0
        self._record_dispatch(len(chunk_args), sizes, wall, sum(r.busy_s for r in out))
        return out


def _arg_size(args: Any) -> int:
    """Best-effort item count of a chunk argument, for granularity metrics."""
    if isinstance(args, (list, tuple)):
        return len(args)
    if isinstance(args, Mapping):
        for key in ("chunk", "items", "frontier"):
            v = args.get(key)
            if isinstance(v, (list, tuple)):
                return len(v)
    return 1


def resolve_backend(
    spec: "int | str | ExecutionBackend | None",
    *,
    unit_cost_s: float = 0.0,
    min_items: int = 1,
) -> ExecutionBackend | None:
    """Build a backend from a CLI-ish spec.

    ``None``/``0``/``1``/``"seq"`` → :class:`SequentialBackend`;
    an int ``p >= 2`` or ``"pool:p"`` → a
    :class:`~repro.parallel.pool.ProcessPoolBackend` with ``p`` workers.
    An :class:`ExecutionBackend` instance passes through unchanged.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        return None
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("", "seq", "sequential", "none"):
            return SequentialBackend(unit_cost_s=unit_cost_s, min_items=min_items)
        if s.startswith("pool:"):
            s = s.split(":", 1)[1]
        spec = int(s)
    p = int(spec)
    if p <= 1:
        return SequentialBackend(unit_cost_s=unit_cost_s, min_items=min_items)
    from .pool import ProcessPoolBackend

    return ProcessPoolBackend(p, unit_cost_s=unit_cost_s, min_items=min_items)
