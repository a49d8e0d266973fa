"""Work/depth cost model for the PRAM algorithms in this package.

The paper analyses every algorithm in the standard work/depth framework
[Ble96]: *work* is the total number of primitive operations, *depth* is the
length of the longest chain of sequentially dependent operations.  Python's
GIL prevents us from running the fine-grained shared-memory parallelism the
paper assumes, so instead of executing on ``p`` processors we execute
sequentially and *account* for parallelism explicitly:

* every primitive operation charges ``work`` and ``depth`` to the ambient
  :class:`CostModel`,
* logically-parallel loops are wrapped in a :meth:`CostModel.parallel`
  region; inside it, each iteration runs in its own :meth:`ParallelScope.task`
  frame, and on exit the region contributes ``sum`` of the branch works but
  only ``max`` of the branch depths to the parent frame.

This makes the paper's asymptotic claims directly measurable: the benchmark
harness records ``(work, depth)`` per batch and checks the claimed scaling
shapes.  Brent's bound [Bre74] converts the pair into a simulated runtime for
any processor count: ``time(p) <= work/p + depth``.

Charging and execution are decoupled: by default every region runs inline
(sequentially), but :meth:`CostModel.set_backend` installs an execution
backend from :mod:`repro.parallel` through which :meth:`CostModel.pfor` /
:meth:`ParallelScope.map` branches actually execute — on worker processes
for :class:`repro.parallel.ProcessPoolBackend` — while merging per-branch
charges with the identical sum/max rule, so charged totals never depend on
the backend.

Example
-------
>>> cm = CostModel()
>>> with cm.frame() as fr:
...     with cm.parallel() as par:
...         for _ in range(8):
...             with par.task():
...                 cm.charge(work=3, depth=3)
>>> fr.work, fr.depth
(24, 3)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "Cost",
    "CostModel",
    "ParallelScope",
    "NULL_COST_MODEL",
    "brent_time",
    "log2ceil",
]


def log2ceil(n: int) -> int:
    """``ceil(log2(n))`` with the convention ``log2ceil(n) >= 1`` for n >= 1.

    Used throughout as the unit charge for balanced-tree operations on
    structures of size ``n``.
    """
    if n <= 2:
        return 1
    return (n - 1).bit_length()


@dataclass
class Cost:
    """An accumulated (work, depth) pair."""

    work: int = 0
    depth: int = 0

    def __iter__(self) -> Iterator[int]:
        yield self.work
        yield self.depth


@dataclass
class _Frame:
    work: int = 0
    depth: int = 0


class _Task:
    """Context manager for one parallel branch (hand-rolled: these sit on
    the hottest path, and generator-based context managers cost ~3x)."""

    __slots__ = ("_scope", "_frame")

    def __init__(self, scope: "ParallelScope") -> None:
        self._scope = scope

    def __enter__(self) -> None:
        self._frame = _Frame()
        self._scope._model._stack.append(self._frame)

    def __exit__(self, *exc) -> None:
        self._scope._model._stack.pop()
        frame = self._frame
        self._scope._work += frame.work
        if frame.depth > self._scope._max_depth:
            self._scope._max_depth = frame.depth


class ParallelScope:
    """A logically-parallel region; see :meth:`CostModel.parallel`."""

    __slots__ = ("_model", "_work", "_max_depth")

    def __init__(self, model: "CostModel") -> None:
        self._model = model
        self._work: int = 0
        self._max_depth: int = 0

    def task(self) -> _Task:
        """Run one parallel branch.

        The branch's work adds to the region total; its depth only raises the
        region's max.
        """
        return _Task(self)

    def map(self, items: Iterable[T], fn: Callable[[T], U]) -> list[U]:
        """Apply ``fn`` to each item, each call in its own parallel task.

        When an execution backend is installed on the model (see
        :meth:`CostModel.set_backend`), the map is routed through it so the
        branches may *actually* run on worker processes; the merged charges
        are identical either way (work sums, depth maxes).
        """
        backend = self._model._exec_backend
        if backend is not None:
            return backend.map_scope(self._model, self, items, fn)
        out: list[U] = []
        for item in items:
            with self.task():
                out.append(fn(item))
        return out

    def absorb(self, work: int, depth: int) -> None:
        """Merge the charges of one externally-executed branch.

        Equivalent to a :meth:`task` whose body charged exactly
        ``(work, depth)``: the branch's work adds to the region total and
        its depth raises the region max.  Execution backends use this to
        fold per-worker cost-model totals back into the parent region;
        because the merge is a commutative sum/max, the result is
        deterministic regardless of task completion order.
        """
        self._work += work
        if depth > self._max_depth:
            self._max_depth = depth

    def _total(self) -> tuple[int, int]:
        return (self._work, self._max_depth)


class CostModel:
    """Mutable accumulator of work/depth along the current call path.

    A stack of frames mirrors the (simulated) fork/join structure.  The root
    frame holds the grand totals; :meth:`frame` scopes let callers measure
    sub-computations (e.g. one update batch).
    """

    enabled: bool = True

    #: Optional execution backend (see :mod:`repro.parallel`).  ``None`` —
    #: the default, and the only mode the charge pins in
    #: ``BENCH_hotpath.json`` are recorded under — keeps the historical
    #: inline execution.  A class attribute so that existing call sites
    #: (and :data:`NULL_COST_MODEL`) need no ``__init__`` change.
    _exec_backend = None

    def __init__(self) -> None:
        self._root = _Frame()
        self._stack: list[_Frame] = [self._root]

    def set_backend(self, backend) -> None:
        """Install (or with ``None``, remove) an execution backend.

        Subsequent :meth:`pfor` / :meth:`ParallelScope.map` calls route
        their branches through ``backend`` (any object implementing the
        :class:`repro.parallel.ExecutionBackend` contract).  Charged totals
        are unchanged by construction: the backend merges each branch's
        ``(work, depth)`` with the same sum/max rule the inline path uses.
        """
        self._exec_backend = backend

    @property
    def backend(self):
        """The installed execution backend, or ``None`` (inline)."""
        return self._exec_backend

    # -- charging ---------------------------------------------------------

    def charge(self, work: int = 1, depth: int | None = None) -> None:
        """Charge ``work`` units of work and ``depth`` of sequential depth.

        ``depth`` defaults to ``work`` (a purely sequential computation).
        """
        if not self.enabled:
            return
        top = self._stack[-1]
        top.work += work
        top.depth += work if depth is None else depth

    def charge_many(self, work: int, depth: int) -> None:
        """Charge the aggregate cost of many primitive operations in one
        call.

        Semantically equivalent to issuing the operations individually and
        summing; callers on hot paths use this to replace ``n`` separate
        :meth:`charge` calls (each a Python attribute lookup + call) with a
        single pre-summed charge.  Unlike :meth:`charge`, ``depth`` is
        required: an aggregate has no sensible sequential default.
        """
        if not self.enabled:
            return
        top = self._stack[-1]
        top.work += work
        top.depth += depth

    def pfor_cost(
        self, n: int, per_item_work: int, depth: int | None = None
    ) -> None:
        """Charge a whole parallel-for round in O(1) Python calls.

        Equivalent to a :meth:`parallel` region with ``n`` tasks, each
        charging ``per_item_work`` work at ``depth`` depth (default:
        ``per_item_work``): the region contributes ``n * per_item_work``
        work and ``max`` over branch depths — i.e. ``depth`` when ``n > 0``
        and 0 otherwise — to the current frame.  Use when every branch of a
        parallel loop performs an identical uniform charge, so entering
        ``n`` task context managers would only re-derive this closed form.
        """
        if not self.enabled or n <= 0:
            return
        top = self._stack[-1]
        top.work += n * per_item_work
        top.depth += per_item_work if depth is None else depth

    def charge_tree_op(self, size: int, count: int = 1) -> None:
        """Charge ``count`` balanced-tree operations on a size-``size``
        structure: O(log size) work each, O(log size) combined depth (the
        ``count`` ops are presumed batched in parallel)."""
        if not self.enabled:
            return
        c = log2ceil(max(size, 2))
        top = self._stack[-1]
        top.work += c * count
        top.depth += c

    def charge_hash_op(self, count: int = 1) -> None:
        """Charge ``count`` hash-table ops: O(1) work each, O(log* n) ~ O(1)
        depth for the whole parallel batch [GMV91].

        ``count <= 0`` is a no-op: an empty batch performs no hash ops, so
        it must not contribute the batch's unit of depth (mirrors
        :meth:`pfor_cost`'s ``n <= 0`` contract)."""
        if not self.enabled or count <= 0:
            return
        top = self._stack[-1]
        top.work += count
        top.depth += 1

    # -- structure --------------------------------------------------------

    def parallel(self) -> "_ParallelRegion":
        """Open a parallel region.

        All :meth:`ParallelScope.task` branches created inside run logically
        in parallel: work adds, depth maxes.
        """
        return _ParallelRegion(self)

    def frame(self) -> "_FrameRegion":
        """Measure the cost of a sub-computation.

        The measured cost also propagates to the enclosing frame (sequential
        composition).
        """
        return _FrameRegion(self)

    def pfor(
        self,
        items: Sequence[T] | Iterable[T],
        fn: Callable[[T], U],
    ) -> list[U]:
        """``parallel-for``: run ``fn`` over ``items``, one task each."""
        with self.parallel() as par:
            return par.map(items, fn)

    # -- reading ----------------------------------------------------------

    @property
    def work(self) -> int:
        return self._root.work

    @property
    def depth(self) -> int:
        return self._root.depth

    def snapshot(self) -> Cost:
        """Copy of the current totals as a :class:`Cost`."""
        return Cost(self._root.work, self._root.depth)

    def reset(self) -> None:
        """Zero the accumulated totals.

        Raises :class:`RuntimeError` if any ``frame()`` / ``parallel()``
        region is still open: silently dropping open frames used to leave
        the region's ``__exit__`` popping the *root* frame, so the next
        ``charge()`` died with an ``IndexError`` far from the real culprit.
        Reset only between measurements, never inside a region.
        """
        if len(self._stack) > 1:
            raise RuntimeError(
                f"CostModel.reset() inside {len(self._stack) - 1} open "
                "frame()/parallel() region(s); exit them first"
            )
        self._root.work = 0
        self._root.depth = 0


class _ParallelRegion:
    """``with``-target of :meth:`CostModel.parallel` (hand-rolled for
    speed; exceptions propagate, with whatever was tallied so far folded
    into the parent frame)."""

    __slots__ = ("_model", "_scope")

    def __init__(self, model: CostModel) -> None:
        self._model = model

    def __enter__(self) -> ParallelScope:
        self._scope = ParallelScope(self._model)
        return self._scope

    def __exit__(self, *exc) -> None:
        if not self._model.enabled:
            return
        work, depth = self._scope._total()
        top = self._model._stack[-1]
        top.work += work
        top.depth += depth


class _FrameRegion:
    """``with``-target of :meth:`CostModel.frame`."""

    __slots__ = ("_model", "_frame", "_cost")

    def __init__(self, model: CostModel) -> None:
        self._model = model

    def __enter__(self) -> Cost:
        self._frame = _Frame()
        self._model._stack.append(self._frame)
        self._cost = Cost()
        return self._cost

    def __exit__(self, *exc) -> None:
        self._model._stack.pop()
        self._cost.work = self._frame.work
        self._cost.depth = self._frame.depth
        top = self._model._stack[-1]
        top.work += self._frame.work
        top.depth += self._frame.depth


class _NullCostModel(CostModel):
    """A cost model that records nothing; used as the cheap default."""

    enabled = False


#: Shared do-nothing cost model; pass a fresh :class:`CostModel` to measure.
NULL_COST_MODEL = _NullCostModel()


def brent_time(cost: Cost, processors: int) -> float:
    """Brent's theorem [Bre74]: greedy-schedule runtime upper bound
    ``work/p + depth`` for ``p`` processors.

    Raises :class:`ValueError` for ``processors <= 0`` — a zero processor
    count would otherwise divide by zero, and a negative one would return a
    nonsensical negative "time".
    """
    if processors <= 0:
        raise ValueError(
            f"processors must be >= 1, got {processors!r}"
        )
    return cost.work / processors + cost.depth
