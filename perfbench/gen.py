"""Seeded input generators for the replay benchmark, O(1) per operation.

Every stream is a pure function of its arguments: the same seed gives the
same initial graph and the same request sequence.  The live edge set is
kept in a :class:`LiveEdges` (list plus position index, swap-remove), so
picking a uniform live edge to delete costs O(1) instead of re-sorting the
whole set per delete.  Every update a stream emits is sequentially legal
against the edge set it evolves, except the deliberate duplicate
deliveries, which the stream flags.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

Edge = tuple[int, int]


class LiveEdges:
    """Edge set with O(1) add, remove, membership and uniform sampling.

    With ``arrays=True`` it also keeps the edges in a numpy ``(m, 2)``
    array in list order, so :meth:`directed` hands out both directions of
    the current set without a Python pass over it.
    """

    def __init__(self, edges=(), arrays: bool = False) -> None:
        self._list: list[Edge] = []
        self._pos: dict[Edge, int] = {}
        self._uv = None
        if arrays:
            import numpy as np

            self._uv = np.zeros((1024, 2), dtype=np.int32)
        for e in edges:
            self.add(e)

    def __len__(self) -> int:
        return len(self._list)

    def __contains__(self, e: Edge) -> bool:
        return e in self._pos

    def add(self, e: Edge) -> None:
        i = len(self._list)
        self._pos[e] = i
        self._list.append(e)
        if self._uv is not None:
            if i == len(self._uv):
                import numpy as np

                self._uv = np.concatenate([self._uv, np.zeros_like(self._uv)])
            self._uv[i] = e

    def remove(self, e: Edge) -> None:
        i = self._pos.pop(e)
        last = self._list.pop()
        if last != e:
            self._list[i] = last
            self._pos[last] = i
            if self._uv is not None:
                self._uv[i] = last

    def sample(self, rng: random.Random) -> Edge:
        return self._list[rng.randrange(len(self._list))]

    def edge_set(self) -> set[Edge]:
        return set(self._pos)

    def directed(self):
        """``(src, dst)`` arrays holding every edge in both directions
        (needs ``arrays=True``)."""
        import numpy as np

        uv = self._uv[:len(self._list)]
        return (np.concatenate([uv[:, 0], uv[:, 1]]),
                np.concatenate([uv[:, 1], uv[:, 0]]))


def _random_edge(rng: random.Random, n: int) -> Edge:
    while True:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            return (u, v) if u < v else (v, u)


def _absent_edge(rng: random.Random, n: int, live, barred=()) -> Edge:
    while True:
        e = _random_edge(rng, n)
        if e not in live and e not in barred:
            return e


def gnm(rng: random.Random, n: int, m: int) -> list[Edge]:
    """Uniform simple graph with ``m`` edges, in insertion order."""
    if m > n * (n - 1) // 2 // 2:
        raise ValueError("rejection sampling needs m below half of n choose 2")
    seen: set[Edge] = set()
    out: list[Edge] = []
    while len(out) < m:
        e = _random_edge(rng, n)
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


@dataclass(frozen=True)
class Request:
    """One client request of a serving stream.

    ``op`` is ``"insert"``, ``"delete"`` or ``"query"``; ``dup`` marks the
    second delivery of a retried update, whose rejection is a correct
    outcome.
    """

    op: str
    u: int
    v: int
    dup: bool = False


def request_stream(
    rng: random.Random,
    n: int,
    initial: list[Edge],
    count: int,
    query_prob: float = 0.1,
    churn_prob: float = 0.15,
    dup_prob: float = 0.02,
) -> list[Request]:
    """Single-edge updates with singleton ``distance`` reads.

    With ``churn_prob`` an update targets one of the last 16 updated edges
    (the insert/delete bounce pairs coalescing collapses); with
    ``dup_prob`` an update is delivered twice back to back.
    """
    live = LiveEdges(initial)
    recent: deque[Edge] = deque(maxlen=16)
    out: list[Request] = []
    while len(out) < count:
        if rng.random() < query_prob:
            out.append(Request("query", rng.randrange(n), rng.randrange(n)))
            continue
        if recent and rng.random() < churn_prob:
            e = recent[rng.randrange(len(recent))]
            op = "delete" if e in live else "insert"
        elif rng.random() < 0.5:
            e = _absent_edge(rng, n, live)
            op = "insert"
        else:
            e = live.sample(rng)
            op = "delete"
        if op == "insert":
            live.add(e)
        else:
            live.remove(e)
        recent.append(e)
        out.append(Request(op, e[0], e[1]))
        if rng.random() < dup_prob:
            out.append(Request(op, e[0], e[1], dup=True))
    return out[:count]


# SRV3's read mix: distance and connected twice as often as contains, plus
# a rare nullary size read
READ_KINDS = ("distance", "distance", "connected", "connected", "contains")


def read_item(rng: random.Random, n: int, hot: int, hot_fraction: float):
    """One read ``(kind, payload)``, ``hot_fraction`` of them on the
    vertices ``0..hot-1``."""
    if rng.random() < 0.02:
        return ("size", None)
    lo = hot if rng.random() < hot_fraction else n
    u = rng.randrange(lo)
    v = rng.randrange(lo)
    return (READ_KINDS[rng.randrange(len(READ_KINDS))], (u, v))


def wire_windows(
    rng: random.Random,
    n: int,
    initial: list[Edge],
    count: int,
    writes: int,
    reads: int,
    frame: int = 32,
    hot_fraction: float = 0.9,
) -> list[tuple[list[Request], list[list]]]:
    """``count`` windows of ``writes`` sequentially legal updates followed
    by ``reads`` reads cut into frames of ``frame`` items.

    Writes insert fresh edges and delete edges the stream itself inserted,
    so they churn recent links and leave the initial graph alone: deleting
    an initial edge costs a heavy-tailed decremental cascade, and with a
    few thousand writes per run that made the charged work per update
    swing twofold between seeds."""
    live = LiveEdges(initial)
    recent = LiveEdges()
    hot = max(4, n // 32)
    out = []
    for _ in range(count):
        window = []
        for _ in range(writes):
            if len(recent) and rng.random() < 0.5:
                e = recent.sample(rng)
                recent.remove(e)
                live.remove(e)
                window.append(Request("delete", e[0], e[1]))
            else:
                e = _absent_edge(rng, n, live)
                live.add(e)
                recent.add(e)
                window.append(Request("insert", e[0], e[1]))
        items = [read_item(rng, n, hot, hot_fraction) for _ in range(reads)]
        frames = [items[i:i + frame] for i in range(0, len(items), frame)]
        out.append((window, frames))
    return out
