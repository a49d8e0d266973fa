"""In-memory span tracer that wraps the program's public entry points.

The tracer patches each name where the program looks it up (a module
global such as ``repro.service.engine.answer_queries``, or a method on its
class) with a wrapper that records one span: name, start, end, parent.
Parents come from a per-thread stack, so spans opened on the net server's
threads nest correctly.  Spans stay in memory until :meth:`Tracer.save`.
A layer's self time is its spans' durations minus the time their direct
child spans cover.

Wrappers may also feed counters (``post`` hooks), so ratios are counted
where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        # one tuple per closed span: (id, parent id or -1, name id, t0, t1)
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, pre=None, post=None):
        """``fn`` wrapped in a span called ``name``.

        ``pre(args, kwargs)`` runs before the call and its result is passed
        to ``post(state, result, args)`` after it returns; both run inside
        the span, so their cost counts as tracing overhead.
        """
        nid = self._name_id(name)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def enter(args, kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            state = pre(args, kwargs) if pre is not None else None
            return stack, sid, parent, state

        if inspect.iscoroutinefunction(fn):
            # one connection per server here, so no other task interleaves
            # with this one's spans on the loop thread
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                stack, sid, parent, state = enter(args, kwargs)
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, nid, t0, t1))
                if post is not None:
                    post(state, result, args)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent, state = enter(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, nid, t0, t1))
            if post is not None:
                post(state, result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Replace ``owner.attr`` (module global or class method) by its
        traced wrapper; :meth:`unpatch_all` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, pre, post))
        self._undo.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def _arrays(self):
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(np.int64), empty, empty
        arr = np.array(self.spans, dtype=np.float64)
        ids = arr[:, 0].astype(np.int64)
        parent = arr[:, 1].astype(np.int64)
        nid = arr[:, 2].astype(np.int64)
        dur = arr[:, 4] - arr[:, 3]
        # self time: subtract every span's duration from its parent's
        index = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
        index[ids] = np.arange(len(ids))
        has_parent = parent >= 0
        child_total = np.zeros(len(ids))
        np.add.at(child_total, index[parent[has_parent]], dur[has_parent])
        return nid, dur, dur - child_total

    def summary(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s``, ``self_s`` and the
        duration list (seconds) for percentiles."""
        nid, dur, self_t = self._arrays()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            if not mask.any():
                continue
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_t[mask].sum()),
                "durations": dur[mask],
            }
        return out

    def durations_without(self, name: str, child: str) -> np.ndarray:
        """Durations of the ``name`` spans that have no direct ``child``
        span (e.g. submits that did not commit)."""
        if not self.spans:
            return np.zeros(0)
        arr = np.array(self.spans, dtype=np.float64)
        nid = arr[:, 2].astype(np.int64)
        parents_of_child = set(
            arr[nid == self._name_ids.get(child, -1), 1].astype(np.int64)
            .tolist())
        mine = arr[nid == self._name_ids.get(name, -1)]
        keep = [int(s) not in parents_of_child for s in mine[:, 0]]
        return (mine[:, 4] - mine[:, 3])[np.array(keep, dtype=bool)]

    def save(self, path: Path) -> None:
        """Write every span (and the counters) to ``path`` (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        np.savez_compressed(
            path,
            span_id=arr[:, 0].astype(np.int64),
            parent_id=arr[:, 1].astype(np.int64),
            name_id=arr[:, 2].astype(np.int32),
            start=arr[:, 3],
            end=arr[:, 4],
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(dict(self.counts))),
        )
