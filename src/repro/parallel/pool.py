"""Persistent process-pool execution backend.

Design notes
------------
* **Persistent workers.**  ``workers`` processes are forked (or spawned,
  where fork is unavailable) once at construction and reused for every
  dispatch; per-dispatch cost is one pickle round-trip per task, not a
  process start.
* **One duplex pipe per worker — tasks down, results back up.**  Tasks are
  only ever sent to an *idle* worker (at most one in flight per worker),
  so a task send can never deadlock against a worker blocked on a result
  write: the target worker is always draining its pipe.  Results carry the
  task id, so completion order is irrelevant.  There is deliberately *no*
  shared result queue: a shared ``mp.Queue`` serialises writers through a
  cross-process lock, and a worker SIGKILLed while its feeder thread
  holds that lock would wedge every surviving worker's results forever.
  With per-worker pipes a kill can only tear that worker's own channel,
  which the parent observes as EOF — i.e. an unambiguous death signal.
* **Deterministic charge merge.**  Each task executes under a fresh
  per-worker :class:`~repro.pram.cost.CostModel`; the worker reports the
  branch's ``(work, depth)`` alongside its value.  The parent merges the
  reports **in canonical task order** via
  :meth:`~repro.pram.cost.ParallelScope.absorb` — and since the merge rule
  is a commutative sum/max, the totals equal the sequential backend's no
  matter how the OS interleaves workers.
* **Broadcast cache.**  :meth:`put_shared` publishes large read-only
  payloads (e.g. an adjacency structure) to every worker once per version;
  kernels receive them by key instead of re-pickling per task.
* **Inline fallback.**  Closures / bound methods cannot ship to another
  process; ``map_scope`` detects this (:func:`~repro.parallel.backend.
  is_shippable`) and runs them inline, charge-identically — this is the
  documented boundary for the shared-mutation kernels in ``es_tree`` and
  ``shift_clustering``.
* **Worker supervision.**  A worker that *dies* (OOM-kill, segfault,
  ``kill -9``) or misses a dispatch's reply ``deadline`` (it is then
  SIGKILLed) is detected, its in-flight task identified and requeued,
  and a replacement forked with backoff.  The restart policy is the
  :class:`~repro.resilience.manager.SupervisionConfig` the sharded
  executor uses too: ``backoff_base``/``backoff_cap``, a per-dispatch
  ``restart_budget``, and ``max_batch_attempts`` workers one task may
  kill before it counts as poison.  A typed :class:`WorkerCrashed`
  surfaces once that policy gives up, or at once on a *pinned*
  dispatch.  Either way the dispatch first lets its other in-flight
  tasks finish and hands their results back on the error
  (``completed``), and the pool is healed (replacements forked and
  re-seeded with the broadcast payloads) before it raises.
  Supervision is uncharged control plane: restarts never touch the
  cost model.
* **Pinned stateful tasks.**  ``pinned`` routes task ``i`` to worker
  ``i`` (or to a chosen worker), so a task may keep worker-local state
  between dispatches: the frontier kernels' per-sweep mirrors, and the
  sharded executor's shards (:func:`repro.service.shard.shard_task`).
  A replacement worker holds none of that state, which is why a pinned
  dispatch never requeues: its caller rebuilds the state instead.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterable, Sequence

from ..pram.cost import CostModel, ParallelScope
from ..resilience.manager import SupervisionConfig
from .backend import (
    ChunkResult,
    ExecutionBackend,
    _arg_size,
    is_shippable,
    wants_cost,
)

__all__ = ["ProcessPoolBackend", "PoolError", "WorkerCrashed"]

_QUEUE_POLL_S = 1.0
_JOIN_TIMEOUT_S = 5.0


class PoolError(RuntimeError):
    """A worker failed: task raised, or the process died."""


class WorkerCrashed(PoolError):
    """Worker process(es) died or hung and supervision could not absorb it.

    The one crash type of the worker runtime: the sharded executor raises
    it too (``repro.service.ShardDeadError`` is an alias).  Carries
    exactly *which* work was lost so callers (and tests) can requeue or
    quarantine precisely instead of guessing:

    Attributes
    ----------
    workers:    process names of the dead workers
    task_ids:   payload indices that were in flight on them (may be empty
                if a worker died idle and the restart budget was already
                spent)
    fn_name:    the dispatched function's name
    restarts:   how many supervised restarts this dispatch performed
                before giving up
    completed:  results of the dispatch's tasks that did finish, by
                payload index (:class:`ChunkResult` for ``map_chunks``),
                so a caller never re-sends work that already ran
    """

    def __init__(self, message: str, *, workers: Sequence[str] = (),
                 task_ids: Sequence[int] = (), fn_name: str = "",
                 restarts: int = 0,
                 completed: dict[int, Any] | None = None) -> None:
        super().__init__(message)
        self.workers = list(workers)
        self.task_ids = list(task_ids)
        self.fn_name = fn_name
        self.restarts = restarts
        self.completed = dict(completed or {})


def _worker_main(worker_id: int, conn) -> None:
    """Worker loop: receive messages on ``conn``, send results back on the
    same duplex pipe.  Runs until a ``stop`` message or EOF."""
    shared: dict[str, Any] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        tag = msg[0]
        if tag == "stop":
            return
        if tag == "put":
            _, key, value = msg
            shared[key] = value
            continue
        # ("task", gen, task_id, mode, fn, payload, shared_keys,
        #  pass_cost, unit_cost) — ``gen`` is the dispatch generation,
        # echoed back so the parent can drop replies that belong to an
        # earlier, aborted dispatch
        _, gen, task_id, mode, fn, payload, shared_keys, pass_cost, unit_cost = msg
        t0 = time.perf_counter()
        try:
            shared_view = {k: shared[k] for k in shared_keys}
            if mode == "chunk":
                cm = CostModel()
                with cm.frame() as fr:
                    value = fn(payload, shared_view, cost=cm)
                if unit_cost > 0.0 and fr.work > 0:
                    time.sleep(fr.work * unit_cost)
                out: Any = (value, fr.work, fr.depth)
            else:  # mode == "scope": payload is a list of items
                triples = []
                for item in payload:
                    cm = CostModel()
                    with cm.frame() as fr:
                        value = fn(item, cost=cm) if pass_cost else fn(item)
                    if unit_cost > 0.0 and fr.work > 0:
                        time.sleep(fr.work * unit_cost)
                    triples.append((value, fr.work, fr.depth))
                out = triples
            busy = time.perf_counter() - t0
            reply = ("ok", worker_id, gen, task_id, out, busy)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            reply = ("err", worker_id, gen, task_id, repr(exc),
                     traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # parent is gone; nothing left to report to
            return


def _pick_context() -> mp.context.BaseContext:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context("spawn")


class ProcessPoolBackend(ExecutionBackend):
    """Execute charged parallel regions across persistent worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1).  Note real CPU speedup also
        requires that many cores; the pinned ``unit_cost_s`` emulation
        measures schedule-level speedup regardless (see
        :mod:`repro.parallel.backend`).
    unit_cost_s / min_items:
        See :class:`~repro.parallel.backend.ExecutionBackend`.
    chunks_per_worker:
        Target number of chunks per worker for ``map_scope`` (over-split a
        little so stragglers rebalance); task granularity is observable via
        the bound metrics.
    supervision:
        Restart policy for dead workers (see the module docstring);
        defaults to :class:`~repro.resilience.manager.SupervisionConfig`.
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int,
        *,
        unit_cost_s: float = 0.0,
        min_items: int = 1,
        chunks_per_worker: int = 4,
        supervision: SupervisionConfig | None = None,
    ) -> None:
        super().__init__(unit_cost_s=unit_cost_s, min_items=min_items)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.chunks_per_worker = max(1, int(chunks_per_worker))
        self.supervision = supervision or SupervisionConfig()
        self._closed = False
        self._inflight = 0
        self._gen = 0           # dispatch generation (stale-reply filter)
        self._shared: dict[str, Any] = {}
        self._ctx = _pick_context()
        self._procs = []
        self._conns = []
        for wid in range(workers):
            proc, conn = self._spawn(wid)
            self._procs.append(proc)
            self._conns.append(conn)

    def _spawn(self, wid: int):
        """Fork one worker process; returns ``(process, parent_conn)``."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn),
            daemon=True,
            name=f"repro-pool-{wid}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _respawn(self, wid: int) -> None:
        """Replace a dead worker in-place and re-seed its broadcast cache.

        Uncharged control plane: touches no cost model state.
        """
        old_proc, old_conn = self._procs[wid], self._conns[wid]
        old_proc.join(timeout=1.0)
        if old_proc.is_alive():  # pragma: no cover - refuses to die
            old_proc.terminate()
            old_proc.join(timeout=1.0)
        try:
            old_conn.close()
        except OSError:  # pragma: no cover
            pass
        proc, conn = self._spawn(wid)
        self._procs[wid] = proc
        self._conns[wid] = conn
        # replacement must see the same broadcast payloads its siblings
        # hold (the parent-side version cache is unchanged, so put_shared
        # callers will rightly skip re-publishing)
        for key, value in self._shared.items():
            conn.send(("put", key, value))
        self._record_worker_restart()

    def kill_worker(self, wid: int) -> None:
        """SIGKILL worker ``wid`` (no cleanup — that is the point).

        The fault-injection hook; the next dispatch that needs the worker
        finds it dead and supervision takes over.
        """
        proc = self._procs[wid]
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)

    # -- lifecycle --------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._procs)

    def close(self) -> None:
        """Stop every worker, join the processes, release pipes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _check_open(self) -> None:
        if self._closed:
            raise PoolError("ProcessPoolBackend is closed")

    # -- shared payloads --------------------------------------------------

    def _publish_shared(self, key: str, value: Any) -> None:
        self._check_open()
        if self._inflight:
            raise PoolError("put_shared while tasks are in flight")
        self._shared[key] = value
        for conn in self._conns:
            conn.send(("put", key, value))

    def get_shared(self, key: str) -> Any:
        """Return the parent-side copy of a broadcast payload."""
        return self._shared[key]

    # -- dispatch core ----------------------------------------------------

    def _dispatch(
        self,
        mode: str,
        fn: Callable[..., Any],
        payloads: Sequence[Any],
        shared_keys: Sequence[str],
        pass_cost: bool,
        order: Sequence[int] | None = None,
        pinned: Sequence[int] | None = None,
        deadline: float | None = None,
    ) -> tuple[list[Any], list[float], float]:
        """Run one task per payload; return (results in payload order,
        per-task busy seconds, wall seconds).

        ``order`` optionally permutes *dispatch* order (a test hook proving
        merge determinism); results always come back in payload order.
        ``pinned`` routes task ``i`` to worker ``pinned[i]`` (distinct
        ids), for tasks that keep worker-local state.  ``deadline`` bounds
        each task's reply time in seconds; a worker that misses it is
        SIGKILLed and handled as a death.

        **Supervision.**  A dead worker's in-flight task is requeued and
        the worker replaced (with backoff) up to ``restart_budget`` times
        per dispatch.  Past the budget — or when one task has killed
        ``max_batch_attempts`` workers, or the dispatch is pinned — no new
        task is sent, the in-flight ones finish, and a
        :class:`WorkerCrashed` names the lost tasks and carries the
        finished ones.  The pool itself is always healed before the error
        surfaces, so later dispatches still work.
        """
        self._check_open()
        n = len(payloads)
        results: list[Any] = [None] * n
        busy: list[float] = [0.0] * n
        if n == 0:
            return results, busy, 0.0
        if pinned is not None and (
            len(pinned) != n or len(set(pinned)) != n
            or not all(0 <= w < len(self._procs) for w in pinned)
        ):
            raise ValueError(
                "pinned dispatch needs one distinct worker id per payload")
        t0 = time.perf_counter()
        queue_order = list(order) if order is not None else list(range(n))
        if sorted(queue_order) != list(range(n)):
            raise ValueError("order must be a permutation of the task ids")
        sup = self.supervision
        pending = deque(queue_order)
        idle = list(range(len(self._procs)))
        inflight: dict[int, tuple[int, float]] = {}  # wid -> (task, due)
        task_kills: dict[int, int] = {}     # task_id -> workers it killed
        done: list[int] = []
        restarts = 0
        backoff = sup.backoff_base
        error: tuple[str, str] | None = None
        dead_names: list[str] = []          # set once the dispatch gives up
        lost: list[int] = []
        fn_name = getattr(fn, "__name__", repr(fn))
        self._inflight = n
        # a dispatch interrupted in the parent can leave replies buffered
        # in workers' pipes; the generation tag lets this dispatch drop
        # those on sight
        self._gen += 1
        gen = self._gen

        def replace(wid: int, *, budgeted: bool) -> None:
            """Respawn ``wid``; ``budgeted`` restarts sleep and count."""
            nonlocal restarts, backoff
            if budgeted:
                if backoff > 0.0:
                    time.sleep(backoff)
                backoff = min(sup.backoff_cap, backoff * 2.0)
                restarts += 1
            self._respawn(wid)

        def supervise(dead_wids: list[int]) -> None:
            """Requeue the dead workers' tasks and fork replacements, or
            give the dispatch up when recovery is off the table."""
            names = [self._procs[w].name for w in dead_wids]
            lost_now = []
            for wid in dead_wids:
                entry = inflight.pop(wid, None)
                if entry is not None:
                    lost_now.append(entry[0])
                    task_kills[entry[0]] = task_kills.get(entry[0], 0) + 1
            poison = any(task_kills[t] >= sup.max_batch_attempts
                         for t in lost_now)
            recoverable = (pinned is None and not poison and not dead_names
                           and restarts + len(dead_wids)
                           <= sup.restart_budget)
            for wid in dead_wids:
                replace(wid, budgeted=recoverable)
                if wid not in idle:
                    idle.append(wid)
            if recoverable:
                pending.extendleft(reversed(lost_now))
            else:
                dead_names.extend(names)
                lost.extend(lost_now)

        def heal_idle(wid: int, task_ids: list[int]) -> bool:
            """Replace an idle worker found dead at send time; False (and
            the dispatch gives up) once the restart budget is spent.  A
            pinned task still runs, on a fresh worker that holds none of
            the dead one's worker-local state."""
            if pinned is None and restarts >= sup.restart_budget:
                dead_names.append(self._procs[wid].name)
                lost.extend(task_ids)
                replace(wid, budgeted=False)
                return False
            replace(wid, budgeted=pinned is None)
            return True

        def send_next() -> bool:
            if error is not None or dead_names or not pending or not idle:
                return False
            task_id = pending[0]
            wid = pinned[task_id] if pinned is not None else idle[-1]
            if wid not in idle:
                return False
            if not self._procs[wid].is_alive() and not heal_idle(wid, []):
                return False
            try:
                self._conns[wid].send(
                    (
                        "task",
                        gen,
                        task_id,
                        mode,
                        fn,
                        payloads[task_id],
                        tuple(shared_keys),
                        pass_cost,
                        self.unit_cost_s,
                    )
                )
            except OSError:
                # died between the liveness check and the send: retry on
                # the replacement next iteration
                return heal_idle(wid, [task_id])
            pending.popleft()
            idle.remove(wid)
            due = time.monotonic() + deadline if deadline else math.inf
            inflight[wid] = (task_id, due)
            return True

        try:
            while send_next():
                pass
            while inflight:
                due = min(d for _, d in inflight.values())
                ready = mp_connection.wait(
                    [self._conns[w] for w in inflight],
                    timeout=min(_QUEUE_POLL_S,
                                max(0.0, due - time.monotonic())),
                )
                if not ready:
                    # a hung worker is killed at its deadline; a death
                    # normally surfaces as EOF on the worker's pipe, but
                    # sweep liveness anyway
                    now = time.monotonic()
                    for wid, (_, d) in list(inflight.items()):
                        if d <= now:
                            self.kill_worker(wid)
                    dead = [wid for wid in inflight
                            if not self._procs[wid].is_alive()]
                    if dead:
                        supervise(dead)
                for conn in ready:
                    wid = next((w for w in inflight
                                if self._conns[w] is conn), None)
                    if wid is None:
                        # conn was replaced by supervision this round
                        continue
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        # worker died: its duplex pipe tore
                        supervise([wid])
                        continue
                    task_id = msg[3]
                    if msg[2] != gen or inflight[wid][0] != task_id:
                        continue  # stale reply from an earlier dispatch
                    del inflight[wid]
                    idle.append(wid)
                    if msg[0] == "ok":
                        results[task_id] = msg[4]
                        busy[task_id] = msg[5]
                        done.append(task_id)
                    elif error is None:
                        error = (msg[4], msg[5])
                while send_next():
                    pass
        finally:
            self._inflight = 0
        wall = time.perf_counter() - t0
        if dead_names:
            raise WorkerCrashed(
                f"worker process(es) died: {', '.join(dead_names)} "
                f"(in-flight {fn_name} task(s) {lost or 'none'}, "
                f"{restarts} supervised restart(s) used"
                f"{', pinned dispatch' if pinned is not None else ''})",
                workers=dead_names, task_ids=lost, fn_name=fn_name,
                restarts=restarts,
                completed={t: (results[t], busy[t]) for t in done},
            )
        if error is not None:
            exc_repr, tb = error
            raise PoolError(
                f"task raised {exc_repr} in worker\n--- worker traceback ---\n{tb}"
            )
        return results, busy, wall

    # -- execution API ----------------------------------------------------

    def map_scope(
        self,
        model: CostModel,
        scope: ParallelScope,
        items: Iterable[Any],
        fn: Callable[..., Any],
    ) -> list[Any]:
        """Fan branches across workers; absorb each (work, depth) into scope.

        Unshippable functions and undersized batches run inline (still
        charge-identical); shippable batches are split into contiguous
        chunks and merged back in canonical item order.
        """
        seq = list(items)
        if not seq:
            return []
        if not is_shippable(fn) or len(seq) < self.min_items:
            out = self._run_scope_inline(model, scope, seq, fn)
            self._record_fallback(len(seq))
            return out
        pass_cost = wants_cost(fn)
        chunk = max(
            1,
            self.min_items,
            -(-len(seq) // (self.workers * self.chunks_per_worker)),
        )
        payloads = [seq[i : i + chunk] for i in range(0, len(seq), chunk)]
        raw, busy, wall = self._dispatch("scope", fn, payloads, (), pass_cost)
        out: list[Any] = []
        merge = model.enabled
        for triples in raw:
            for value, work, depth in triples:
                out.append(value)
                if merge:
                    scope.absorb(work, depth)
        self._record_dispatch(
            len(payloads), [len(p) for p in payloads], wall, sum(busy)
        )
        return out

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
        """Run each kernel chunk on a worker against broadcast shared state."""
        if pinned is True:
            pinned = range(len(chunk_args))
        try:
            raw, busy, wall = self._dispatch(
                "chunk", fn, list(chunk_args), shared_keys, True, order,
                list(pinned) if pinned else None, deadline,
            )
        except WorkerCrashed as exc:
            exc.completed = {t: ChunkResult(*out, b)
                             for t, (out, b) in exc.completed.items()}
            raise
        out = [
            ChunkResult(value, work, depth, b)
            for (value, work, depth), b in zip(raw, busy)
        ]
        self._record_dispatch(
            len(out), [_arg_size(a) for a in chunk_args], wall, sum(busy)
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "closed" if self._closed else "open"
        return (
            f"ProcessPoolBackend(workers={self.workers}, "
            f"unit_cost_s={self.unit_cost_s}, {state}, pid={os.getpid()})"
        )
