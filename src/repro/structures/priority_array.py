"""The priority-indexed array of Lemma 3.1.

The structure stores values keyed by *distinct* integer priorities drawn from
a bounded universe ``[0, universe)`` and exposes the element list as if it
were an array sorted in **decreasing** priority order (position 1 holds the
largest priority, matching the paper's 1-based indexing).

Implementation: a sorted list of priorities (ascending) maintained with
``bisect``, plus a dict mapping priority -> value.  Rank and selection are
O(log l) probes into the list; ``NextWith`` runs the paper's exponential
(galloping) search over positions.  An earlier revision used a sparse
segment tree over the universe; the list is behaviourally identical but
allocates no per-priority nodes, which matters on the serving hot path
where thousands of small arrays are built per run.  The *charges* below are
the analytic Lemma 3.1 costs of the paper's (parallel, universe-indexed)
structure and are independent of this sequential implementation choice.

Array-native fast paths (the substrate refactor): a batch constructor call
with integer priorities takes a **bulk path** — one ``np.argsort`` over the
priority array instead of per-item validation and insertion-sort — and the
scalar dict/list state materializes lazily on the first operation that
needs it.  ``next_with`` accepts a :class:`VectorPredicate`, whose batch
evaluator runs each galloping phase as one numpy comparison over the
position-ordered value array instead of per-position Python calls.  Both
paths charge the identical closed-form Lemma 3.1 costs (the charges are
functions of the item count and the scan schedule, not of the loop shape),
so ``tools/bench_gate.py``'s pinned work/depth constants hold byte-for-byte.

Work/depth charges (Lemma 3.1):

=====================  ====================  ===========
operation              work                  depth
=====================  ====================  ===========
initialize(l items)    O(l log U)            O(log U)
update_value           O(log U)              O(log U)
update_priority        O(log U)              O(log U)
query / find           O(log U)              O(log U)
next_with(k, f)        O((q - k + 1) log U)  O(log^2 U)
=====================  ====================  ===========
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Callable, Iterator

import numpy as np

from repro.pram.cost import NULL_COST_MODEL, CostModel, log2ceil

__all__ = ["PriorityArray", "VectorPredicate"]


class VectorPredicate:
    """A ``next_with`` predicate with a batch evaluator.

    ``scalar`` is the usual per-value callable; ``vector`` maps a numpy
    array of values to a boolean mask with the same semantics.  The two
    must agree — ``next_with`` uses whichever fits the storage it scans,
    and the answer (and charge) is identical either way.
    """

    __slots__ = ("scalar", "vector")

    def __init__(
        self,
        scalar: Callable[[Any], bool],
        vector: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self.scalar = scalar
        self.vector = vector

    def __call__(self, value: Any) -> bool:
        return self.scalar(value)


class PriorityArray:
    """Array-of-elements ordered by decreasing priority (Lemma 3.1).

    Parameters
    ----------
    universe:
        Priorities must lie in ``[0, universe)``.
    items:
        Optional initial ``(value, priority)`` pairs; priorities must be
        distinct.
    cost:
        Work/depth accounting sink.
    """

    __slots__ = ("_universe", "_cost", "_values", "_sorted",
                 "_bulk_pri", "_bulk_vals")

    def __init__(
        self,
        universe: int,
        items: Iterator[tuple[Any, int]] | list[tuple[Any, int]] = (),
        cost: CostModel = NULL_COST_MODEL,
    ) -> None:
        if universe < 1:
            raise ValueError("universe must be positive")
        self._universe = universe
        self._cost = cost
        # lazy bulk state: priorities ascending + values in *position*
        # (descending-priority) order; scalar dict/list state materializes
        # on the first operation that needs it
        self._bulk_pri: np.ndarray | None = None
        self._bulk_vals: list[Any] | np.ndarray | None = None
        n = self._init_items(items)
        # Initialization: O(l log U) work, O(log U) depth (parallel descent).
        cost.charge(work=n * log2ceil(universe), depth=log2ceil(universe))

    def _init_items(self, items) -> int:
        if not isinstance(items, (list, tuple)):
            items = list(items)
        if len(items) >= 32:
            n = self._try_bulk_init(items)
            if n is not None:
                return n
        self._values = {}
        n = 0
        for value, priority in items:
            self._check_priority(priority)
            if priority in self._values:
                raise ValueError(f"duplicate priority {priority}")
            self._values[priority] = value
            n += 1
        self._sorted: list[int] = sorted(self._values)
        return n

    def _try_bulk_init(self, items: list) -> int | None:
        """Vectorized batch build; None = fall back to the scalar loop
        (non-integer priorities or a validation error that the scalar
        loop reports with its exact per-item message)."""
        vals = [it[0] for it in items]
        try:
            pri = np.asarray([it[1] for it in items])
        except (ValueError, TypeError):
            return None
        if pri.dtype.kind not in "iu" or pri.ndim != 1:
            return None
        if ((pri < 0) | (pri >= self._universe)).any():
            return None  # scalar loop raises the exact range error
        order = np.argsort(pri, kind="stable")
        spri = pri[order]
        if len(spri) > 1 and (spri[1:] == spri[:-1]).any():
            return None  # scalar loop raises the exact duplicate error
        self._bulk_pri = spri.astype(np.int64)
        # values in position order (position 1 = largest priority)
        rev = order[::-1]
        varr = np.asarray(vals)
        if varr.dtype != object and varr.shape == (len(items),):
            self._bulk_vals = varr[rev]
        else:
            self._bulk_vals = [vals[i] for i in rev.tolist()]
        self._values = None  # type: ignore[assignment]
        self._sorted = None  # type: ignore[assignment]
        return len(items)

    @classmethod
    def from_arrays(
        cls,
        universe: int,
        values,
        priorities,
        cost: CostModel = NULL_COST_MODEL,
    ) -> "PriorityArray":
        """Array-native bulk builder: aligned ``values``/``priorities``.

        The fully vectorized construction path — validation (range,
        distinctness) and ordering are numpy operations, no per-item
        Python.  Charges the identical Lemma 3.1 initialization cost as
        ``PriorityArray(universe, items)`` over the same item count, and
        the resulting structure is behaviourally identical.
        """
        if universe < 1:
            raise ValueError("universe must be positive")
        pri = np.asarray(priorities)
        vals = np.asarray(values)
        if pri.ndim != 1 or pri.dtype.kind not in "iu":
            raise ValueError("priorities must be a 1-d integer array")
        if vals.shape[:1] != pri.shape:
            raise ValueError("values/priorities length mismatch")
        if len(pri):
            bad = (pri < 0) | (pri >= universe)
            if bad.any():
                raise ValueError(
                    f"priority {int(pri[bad][0])} outside universe "
                    f"[0, {universe})"
                )
        order = np.argsort(pri, kind="stable")
        spri = pri[order].astype(np.int64)
        if len(spri) > 1:
            dup = spri[1:] == spri[:-1]
            if dup.any():
                d = int(spri[int(np.nonzero(dup)[0][0]) + 1])
                raise ValueError(f"duplicate priority {d}")
        pa = cls.__new__(cls)
        pa._universe = universe
        pa._cost = cost
        pa._bulk_pri = spri
        pa._bulk_vals = vals[order[::-1]]
        pa._values = None  # type: ignore[assignment]
        pa._sorted = None  # type: ignore[assignment]
        cost.charge(
            work=len(pri) * log2ceil(universe), depth=log2ceil(universe)
        )
        return pa

    def _materialize(self) -> None:
        """Expand lazy bulk state into the scalar dict + sorted list."""
        if self._bulk_pri is None:
            return
        pri = self._bulk_pri.tolist()
        vals = self._bulk_vals
        if isinstance(vals, np.ndarray):
            vals = vals.tolist()
        self._sorted = pri
        self._values = dict(zip(reversed(pri), vals))
        self._bulk_pri = None
        self._bulk_vals = None

    # -- internal ordered index ---------------------------------------------

    def _insert(self, priority: int, value: Any) -> None:
        self._materialize()
        self._check_priority(priority)
        if priority in self._values:
            raise ValueError(f"duplicate priority {priority}")
        self._values[priority] = value
        insort(self._sorted, priority)

    def _delete(self, priority: int) -> Any:
        self._materialize()
        value = self._values.pop(priority)
        del self._sorted[bisect_left(self._sorted, priority)]
        return value

    def _rank_from_top(self, priority: int) -> int:
        """Number of stored priorities >= ``priority`` (1-based position if
        ``priority`` itself is stored)."""
        self._materialize()
        return len(self._sorted) - bisect_left(self._sorted, priority)

    def _check_priority(self, priority: int) -> None:
        if not 0 <= priority < self._universe:
            raise ValueError(
                f"priority {priority} outside universe [0, {self._universe})"
            )

    # -- Lemma 3.1 interface -------------------------------------------------

    def __len__(self) -> int:
        if self._bulk_pri is not None:
            return len(self._bulk_pri)
        return len(self._sorted)

    @property
    def universe(self) -> int:
        return self._universe

    def query(self, k: int) -> Any:
        """Return the value of the element with the k-th largest priority
        (1-based)."""
        if not 1 <= k <= len(self):
            raise IndexError(f"position {k} out of range [1, {len(self)}]")
        self._cost.charge_tree_op(self._universe)
        if self._bulk_pri is not None:
            v = self._bulk_vals[k - 1]
            return v.item() if isinstance(v, np.generic) else v
        return self._values[self._sorted[-k]]

    def priority_at(self, k: int) -> int:
        """Priority of the element at position ``k`` (1-based)."""
        if not 1 <= k <= len(self):
            raise IndexError(f"position {k} out of range [1, {len(self)}]")
        self._cost.charge_tree_op(self._universe)
        if self._bulk_pri is not None:
            return int(self._bulk_pri[-k])
        return self._sorted[-k]

    def find(self, priority: int) -> tuple[Any, int]:
        """Return ``(value, position)`` of the element with ``priority``;
        the position equals the number of elements with priority >= it."""
        self._materialize()
        self._check_priority(priority)
        if priority not in self._values:
            raise KeyError(f"no element with priority {priority}")
        self._cost.charge_tree_op(self._universe)
        return self._values[priority], self._rank_from_top(priority)

    def count_ge(self, priority: int) -> int:
        """Number of stored elements with priority >= ``priority`` (which
        need not itself be stored)."""
        self._check_priority(priority)
        self._cost.charge_tree_op(self._universe)
        if self._bulk_pri is not None:
            return len(self._bulk_pri) - int(
                np.searchsorted(self._bulk_pri, priority, side="left")
            )
        return self._rank_from_top(priority)

    def update_value(self, k: int, value: Any) -> None:
        """Set the value of the element at position ``k``."""
        self._materialize()
        if not 1 <= k <= len(self):
            raise IndexError(f"position {k} out of range [1, {len(self)}]")
        self._cost.charge_tree_op(self._universe)
        self._values[self._sorted[-k]] = value

    def update_priority(self, k: int, priority: int) -> None:
        """Move the element at position ``k`` to a new (distinct) priority."""
        self._materialize()
        if not 1 <= k <= len(self):
            raise IndexError(f"position {k} out of range [1, {len(self)}]")
        self._check_priority(priority)
        old = self._sorted[-k]
        if old == priority:
            return
        if priority in self._values:
            raise ValueError(f"duplicate priority {priority}")
        value = self._delete(old)
        self._insert(priority, value)
        self._cost.charge_tree_op(self._universe, count=2)

    def insert(self, value: Any, priority: int) -> None:
        """Add a new element (extension used by dynamic-graph callers)."""
        self._insert(priority, value)
        self._cost.charge_tree_op(self._universe)

    def delete_priority(self, priority: int) -> Any:
        """Remove and return the element with ``priority`` (extension)."""
        self._materialize()
        self._check_priority(priority)
        if priority not in self._values:
            raise KeyError(f"no element with priority {priority}")
        self._cost.charge_tree_op(self._universe)
        return self._delete(priority)

    def next_with(self, k: int, predicate: Callable[[Any], bool]) -> int:
        """Smallest position ``q >= k`` whose value satisfies ``predicate``;
        ``len(self) + 1`` if none exists (the paper's NextWith).

        Runs the exponential-search schedule of Lemma 3.1: phase ``i`` scans
        positions ``[p, p + 2^i)`` in parallel.  With a
        :class:`VectorPredicate` on numeric bulk storage each phase is one
        vectorized comparison; the phase schedule — and therefore the
        charge — is identical to the scalar scan.
        """
        n = len(self)
        if k < 1:
            raise IndexError("position must be >= 1")
        logu = log2ceil(self._universe)
        vec = getattr(predicate, "vector", None)
        varr: np.ndarray | None = None
        if vec is not None and self._bulk_pri is not None and isinstance(
            self._bulk_vals, np.ndarray
        ):
            varr = self._bulk_vals
        if varr is None:
            self._materialize()
            values = self._values
            order = self._sorted
        pos = k
        span = 1
        while pos <= n:
            end = min(pos + span - 1, n)
            # One phase: scan positions [pos, end] "in parallel".
            self._cost.charge(
                work=(end - pos + 1) * logu, depth=logu
            )
            if varr is not None:
                mask = np.asarray(vec(varr[pos - 1:end]))
                if mask.any():
                    return pos + int(mask.argmax())
            else:
                for q in range(pos, end + 1):
                    if predicate(values[order[-q]]):
                        return q
            pos = end + 1
            span *= 2
        return n + 1

    # -- iteration helpers (testing / debugging) ----------------------------

    def items_by_position(self) -> Iterator[tuple[int, int, Any]]:
        """Yield ``(position, priority, value)`` in position order."""
        self._materialize()
        for k, p in enumerate(reversed(self._sorted), start=1):
            yield k, p, self._values[p]

    def priorities(self) -> set[int]:
        """The set of stored priorities (testing helper)."""
        if self._bulk_pri is not None:
            return set(self._bulk_pri.tolist())
        return set(self._values)
