"""Generic Bentley–Saxe dynamization for decomposable problems (§3.4).

[BS80] turns a *decremental* structure for a decomposable problem (spanners,
Observation 3.7; spectral sparsifiers, Lemma 6.7) into a fully-dynamic one:
maintain a partition ``E = E_0 ∪ E_1 ∪ ... ∪ E_b`` with Invariant B1
``|E_i| <= 2^i * base`` where ``E_0`` is kept verbatim in the output and each
``E_i (i >= 1)`` runs its own decremental instance.  Insertions are chunked
into power-of-two blocks that cascade-merge into the first empty slot;
deletions are routed through the global ``INDEX`` table.

The per-partition structure must provide::

    output_edges() -> set[Edge]          # current contribution
    batch_delete(edges) -> (ins, dels)   # net output delta

Partitions hold disjoint edge sets, so the global output is the disjoint
union of contributions and deltas merge by simple set algebra.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

import numpy as np

from repro.graph.dynamic_graph import Edge, edge_array, norm_edge, pair_keys
from repro.pram.cost import NULL_COST_MODEL, CostModel

__all__ = ["BentleySaxeDynamizer", "DecrementalStructure"]


class DecrementalStructure(Protocol):
    """Protocol the per-partition decremental structures must satisfy."""

    def output_edges(self) -> set[Edge]:
        """Current output contribution of this partition."""
        ...

    def batch_delete(
        self, edges: Iterable[Edge]
    ) -> tuple[set[Edge], set[Edge]]:
        """Delete a batch; returns the net output delta ``(ins, dels)``."""
        ...


def _level_order(edges: Iterable[Edge]) -> list[Edge]:
    """``sorted(norm_edge(u, v) for u, v in edges)`` by one numpy sort of
    their ``pair_keys`` (u32 ids), holding the caller's own tuples (only
    a reversed pair is rebuilt); ValueError on a self-loop or duplicate."""
    edges = list(map(tuple, edges))
    arr = edge_array(edges)
    for i in np.flatnonzero(arr[:, 0] == arr[:, 1])[:1].tolist():
        norm_edge(*edges[i])   # raises the self-loop error
    flip = np.flatnonzero(arr[:, 0] > arr[:, 1])
    for i in flip.tolist():
        edges[i] = edges[i][::-1]
    arr[flip] = arr[flip, ::-1]
    keys = pair_keys(arr)
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("duplicate edges")
    objs = np.fromiter(edges, dtype=object, count=len(edges))
    return objs[order].tolist()


class _Part:
    """One partition: a plain edge set for level 0, a decremental structure
    above."""

    __slots__ = ("edges", "struct", "out")

    def __init__(self, edges: set[Edge], struct, out: set[Edge]):
        self.edges = edges
        self.struct = struct
        self.out = out


class BentleySaxeDynamizer:
    """Fully-dynamic wrapper over a decremental-structure factory.

    Parameters
    ----------
    edges:
        Initial edge set.
    factory:
        ``factory(edges) -> DecrementalStructure`` building a fresh
        decremental instance over ``edges``.
    base_capacity:
        ``2^{l_0}``: level-``i`` partitions hold at most
        ``base_capacity * 2^i`` edges; level 0 is kept verbatim in the
        output.
    """

    def __init__(
        self,
        edges: Iterable[Edge],
        factory: Callable[[list[Edge]], DecrementalStructure],
        base_capacity: int,
        cost: CostModel = NULL_COST_MODEL,
        restart_every: int | None = None,
    ) -> None:
        """``restart_every``: rebuild the whole partition structure from
        the current edge set after that many processed updates — the
        paper's periodic restart that keeps Φ (and the random-value
        collision budget) polynomially bounded over unboundedly long
        update sequences.  Amortized O(1) extra work per update when set
        to Ω(m)."""
        if base_capacity < 1:
            raise ValueError("base_capacity must be >= 1")
        if restart_every is not None and restart_every < 1:
            raise ValueError("restart_every must be >= 1")
        self._factory = factory
        self._base = base_capacity
        self._cost = cost
        self._parts: dict[int, _Part] = {}
        self._index: dict[Edge, int] = {}
        self._restart_every = restart_every
        self._updates_since_restart = 0
        self.restart_count = 0  # instrumentation: full restarts performed
        self.rebuild_count = 0  # instrumentation: structures built so far
        self.rebuilt_edge_count = 0  # edges fed through initializations

        edges = list(edges)
        if edges:
            self._build(self._fit(len(edges)), edges)

    # -- helpers ------------------------------------------------------------

    def _cap(self, i: int) -> int:
        return self._base << i

    def _fit(self, m: int) -> int:
        """The lowest level whose capacity holds ``m >= 1`` edges."""
        return ((m - 1) // self._base).bit_length()

    def _build(self, j: int, edges: Iterable[Edge]) -> set[Edge]:
        """Create partition ``j`` over ``edges``; returns its output set.
        Runs at construction, at every level merge and at every restart:
        :func:`_level_order` normalizes, dedup-checks and orders the
        level with one numpy key sort, and the factory gets that list."""
        assert j not in self._parts
        level = _level_order(edges)
        assert len(level) <= self._cap(j), (len(level), j)
        self._cost.charge_hash_op(len(level))
        for e in level:
            self._index[e] = j
        if j == 0:
            part = _Part(set(level), None, set(level))
        else:
            struct = self._factory(level)
            part = _Part(set(level), struct, set(struct.output_edges()))
            self.rebuild_count += 1
            self.rebuilt_edge_count += len(level)
        self._parts[j] = part
        return part.out

    def _first_empty(self, at_least: int) -> int:
        j = at_least
        while j in self._parts:
            j += 1
        return j

    # -- queries ------------------------------------------------------------

    def output_edges(self) -> set[Edge]:
        """Union of every partition's output (the maintained solution)."""
        out: set[Edge] = set()
        for part in self._parts.values():
            out |= part.out
        return out

    def output_size(self) -> int:
        """Number of output edges, without materializing the union
        (partitions hold disjoint edge sets, so outputs are disjoint)."""
        return sum(len(part.out) for part in self._parts.values())

    @property
    def m(self) -> int:
        return len(self._index)

    def edges(self) -> set[Edge]:
        """The full current edge set (union of all partitions)."""
        return set(self._index)

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return norm_edge(u, v) in self._index

    def level_sizes(self) -> dict[int, int]:
        """Occupied level -> partition edge count (diagnostics)."""
        return {i: len(p.edges) for i, p in self._parts.items()}

    # -- updates --------------------------------------------------------------

    def update(
        self,
        insertions: Iterable[Edge] = (),
        deletions: Iterable[Edge] = (),
    ) -> tuple[set[Edge], set[Edge]]:
        """Apply a batch (deletions first, then insertions); returns the net
        output delta ``(ins, dels)``."""
        net: dict[Edge, int] = {}

        def bump(e: Edge, d: int) -> None:
            c = net.get(e, 0) + d
            if c == 0:
                net.pop(e, None)
            else:
                net[e] = c

        deletions = [norm_edge(u, v) for u, v in deletions]
        insertions = [norm_edge(u, v) for u, v in insertions]
        self._delete(deletions, bump)
        self._insert(insertions, bump)
        self._updates_since_restart += len(deletions) + len(insertions)
        if (
            self._restart_every is not None
            and self._updates_since_restart >= self._restart_every
        ):
            self._restart(bump)
        ins = {e for e, c in net.items() if c > 0}
        dels = {e for e, c in net.items() if c < 0}
        assert all(abs(c) == 1 for c in net.values())
        return ins, dels

    def _restart(self, bump) -> None:
        """Tear down every partition and rebuild from the live edge set."""
        edges = list(self._index)
        for part in self._parts.values():
            for e in part.out:
                bump(e, -1)
        self._parts.clear()
        self._index.clear()
        self._updates_since_restart = 0
        self.restart_count += 1
        if edges:
            self._apply_build(self._fit(len(edges)), edges, bump)

    def _delete(self, edges: list[Edge], bump) -> None:
        by_level: dict[int, list[Edge]] = {}
        self._cost.charge_hash_op(len(edges))
        for e in edges:
            if e not in self._index:
                raise KeyError(f"edge {e} not present")
            by_level.setdefault(self._index[e], []).append(e)
        for i, batch in sorted(by_level.items()):
            part = self._parts[i]
            for e in batch:
                del self._index[e]
                part.edges.remove(e)
            if i == 0:
                for e in batch:
                    part.out.remove(e)
                    bump(e, -1)
            else:
                p_ins, p_dels = part.struct.batch_delete(batch)
                for e in p_dels:
                    part.out.remove(e)
                    bump(e, -1)
                for e in p_ins:
                    part.out.add(e)
                    bump(e, +1)
            if not part.edges:
                del self._parts[i]

    def _insert(self, edges: list[Edge], bump) -> None:
        if not edges:
            return
        for e in edges:
            if e in self._index:
                raise ValueError(f"duplicate edge {e}")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges within batch")

        self._cost.charge_hash_op(len(edges))
        base = self._base
        q, r = divmod(len(edges), base)
        # Chunk U into U_i of size base * 2^i per the set bits of q, highest
        # first (the paper's processing order), then the remainder U_r.
        pos = 0
        for i in reversed(range(q.bit_length())):
            if not (q >> i) & 1:
                continue
            size = base << i
            chunk = edges[pos : pos + size]
            pos += size
            self._merge_into_empty(i, chunk, bump)
        remainder = edges[pos:]
        if not remainder:
            return
        part0 = self._parts.get(0)
        if len(remainder) + (len(part0.edges) if part0 else 0) <= base:
            if part0 is None:
                self._apply_build(0, remainder, bump)
            else:
                for e in remainder:
                    self._index[e] = 0
                    part0.edges.add(e)
                    part0.out.add(e)
                    bump(e, +1)
        else:
            self._merge_into_empty(0, remainder, bump)

    def _merge_into_empty(self, i: int, chunk: list[Edge], bump) -> None:
        """Place ``chunk`` (destined for level ``i``) into the first empty
        slot ``j >= i``, absorbing partitions ``i..j-1``."""
        j = self._first_empty(i)
        merged = list(chunk)
        for lvl in range(i, j):
            part = self._parts.pop(lvl, None)
            if part is None:
                continue
            merged += part.edges
            for e in part.out:
                bump(e, -1)
        self._apply_build(j, merged, bump)

    def _apply_build(self, j: int, edges: list[Edge], bump) -> None:
        out = self._build(j, edges)
        for e in out:
            bump(e, +1)

    # -- invariants (tests) -------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify Invariant B1, the INDEX table, and outputs (tests)."""
        seen: set[Edge] = set()
        for i, part in self._parts.items():
            assert part.edges, f"empty partition {i} retained"
            assert len(part.edges) <= self._cap(i), f"partition {i} overfull"
            assert not (part.edges & seen)
            seen |= part.edges
            for e in part.edges:
                assert self._index[e] == i
            if i == 0:
                assert part.out == part.edges
            else:
                assert part.out == part.struct.output_edges()
                assert part.out <= part.edges
        assert seen == set(self._index)
