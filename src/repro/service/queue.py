"""Ingestion queue with update coalescing for the serving engine.

Clients submit single-edge inserts/deletes; the queue validates each op
against *predicted* membership — the executor's committed edge set (read,
never written), overlaid by the batch in flight (recorded by ``drain``,
dropped by ``settle``) and by everything still pending — so the batches it
drains are always legal per :meth:`repro.workloads.Workload.replay`
semantics:

* inserting an edge that is already (effectively) present is rejected as a
  duplicate — unless it is pending insertion, in which case it dedupes;
* deleting an edge that is (effectively) absent is rejected — unless it is
  pending deletion, in which case it dedupes;
* deleting a pending insertion cancels both ops before the structure ever
  sees them (the coalescing win the related batch-dynamic-tree harnesses
  report);
* inserting a pending deletion turns it into a delete + re-insert.

The actual fold is delegated to the canonical
:meth:`repro.workloads.UpdateBatch.coalesce` routine so generators and the
service share one definition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Container

from repro.graph.dynamic_graph import Edge, norm_edge
from repro.workloads.streams import OP_DELETE, OP_INSERT, UpdateBatch

__all__ = [
    "ACCEPTED",
    "COALESCED_CANCEL",
    "COALESCED_DEDUP",
    "REJECTED_ABSENT",
    "REJECTED_DUPLICATE",
    "CoalescingQueue",
    "DrainResult",
    "PendingOp",
]

# offer() outcomes
ACCEPTED = "accepted"                    # op is pending as-is
COALESCED_DEDUP = "coalesced_dedup"      # absorbed into an identical pending op
COALESCED_CANCEL = "coalesced_cancel"    # cancelled an opposite pending op
REJECTED_DUPLICATE = "rejected_duplicate"  # insert of a present edge
REJECTED_ABSENT = "rejected_absent"        # delete of an absent edge

_OK = (ACCEPTED, COALESCED_DEDUP, COALESCED_CANCEL)


@dataclass
class PendingOp:
    op: str
    edge: Edge
    enqueued_at: float
    deadline: float | None = None  # absolute time after which the op expires


@dataclass
class DrainResult:
    """One drained batch plus its coalescing accounting."""

    batch: UpdateBatch
    raw_ops: int           # accepted ops folded into this batch
    expired_ops: int       # ops dropped because their deadline passed
    coalesced_away: int    # raw - expired - batch.size

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of accepted ops the fold eliminated (0 = none)."""
        live = self.raw_ops - self.expired_ops
        return self.coalesced_away / live if live else 0.0


class CoalescingQueue:
    """Bounded-validation ingestion queue (see module docstring).

    Parameters
    ----------
    present:
        The committed edge set, read by reference and never written (its
        owner advances it by each applied batch, then calls :meth:`settle`).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        present: Container[Edge] = frozenset(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._present = present
        self._clock = clock
        self._ops: list[PendingOp] = []
        # pending net state per edge: +1 insert, -1 delete, 2 del+reinsert
        self._state: dict[Edge, int] = {}
        # in-flight overlay: drained edge -> membership once its batch applies
        self._inflight: dict[Edge, bool] = {}
        # stats over the queue's lifetime
        self.accepted = 0
        self.deduped = 0
        self.cancelled = 0
        self.rejected = 0
        self.expired = 0

    # -- submitting ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of accepted ops waiting to drain (backpressure signal)."""
        return len(self._ops)

    def effectively_present(self, edge: Edge) -> bool:
        """Membership after all pending ops would apply."""
        s = self._state.get(edge)
        if s is not None:
            return s in (+1, 2)
        f = self._inflight.get(edge)
        return edge in self._present if f is None else f

    def offer(
        self,
        op: str,
        edge: Edge,
        now: float | None = None,
        timeout: float | None = None,
    ) -> str:
        """Validate and enqueue one op; returns an outcome constant."""
        if op not in (OP_INSERT, OP_DELETE):
            raise ValueError(f"unknown op {op!r}")
        edge = norm_edge(*edge)
        if now is None:
            now = self._clock()
        s = self._state.get(edge)
        if op == OP_INSERT:
            if s in (+1, 2):
                self.deduped += 1
                return COALESCED_DEDUP
            if s is None and self.effectively_present(edge):
                self.rejected += 1
                return REJECTED_DUPLICATE
            outcome = ACCEPTED if s is None else COALESCED_CANCEL
            self._state[edge] = +1 if s is None else 2
        else:
            if s == -1:
                self.deduped += 1
                return COALESCED_DEDUP
            if s is None and not self.effectively_present(edge):
                self.rejected += 1
                return REJECTED_ABSENT
            if s is None:
                self._state[edge] = -1
                outcome = ACCEPTED
            elif s == +1:
                del self._state[edge]
                outcome = COALESCED_CANCEL
            else:  # s == 2: drop the re-insert, keep the delete
                self._state[edge] = -1
                outcome = COALESCED_CANCEL
        deadline = None if timeout is None else now + timeout
        self._ops.append(PendingOp(op, edge, now, deadline))
        self.accepted += 1
        if outcome == COALESCED_CANCEL:
            self.cancelled += 1
        return outcome

    def oldest_enqueued_at(self) -> float | None:
        """Enqueue time of the oldest pending op (drives the flush deadline)."""
        return self._ops[0].enqueued_at if self._ops else None

    # -- draining ------------------------------------------------------------

    def drain(self, now: float | None = None) -> DrainResult:
        """Take everything pending as one coalesced batch, recording its
        net per-edge result in the in-flight overlay until :meth:`settle`.

        Expired ops are dropped in whole per-edge groups: an edge's pending
        ops are discarded only if *every* op on that edge has passed its
        deadline (partial expiry could split an insert/delete pair and make
        the batch illegal).
        """
        if now is None:
            now = self._clock()
        ops, self._ops = self._ops, []
        self._state.clear()
        raw = len(ops)
        by_edge: dict[Edge, list[PendingOp]] = {}
        for p in ops:
            by_edge.setdefault(p.edge, []).append(p)
        expired_edges = {
            edge for edge, group in by_edge.items()
            if all(p.deadline is not None and p.deadline < now for p in group)
        }
        live_ops = [(p.op, p.edge) for p in ops
                    if p.edge not in expired_edges]
        n_expired = raw - len(live_ops)
        self.expired += n_expired
        batch = UpdateBatch.coalesce(live_ops)
        for e in batch.deletions:
            self._inflight[e] = False
        for e in batch.insertions:   # a delete + re-insert ends present
            self._inflight[e] = True
        return DrainResult(
            batch=batch,
            raw_ops=raw,
            expired_ops=n_expired,
            coalesced_away=raw - n_expired - batch.size,
        )

    def settle(self) -> None:
        """Drop the in-flight overlay: the drained batches have applied to
        the committed set, or failed and left it as it was."""
        self._inflight.clear()

    # -- inspection ----------------------------------------------------------

    def pending_ops(self) -> list[tuple[str, Edge]]:
        """Snapshot of accepted-but-undrained ops, in arrival order."""
        return [(p.op, p.edge) for p in self._ops]
