"""Parallel-charged data structures (Lemma 3.1, [PP01])."""

from repro.structures.ordered_list import OrderedMap
from repro.structures.priority_array import PriorityArray, VectorPredicate

__all__ = ["OrderedMap", "PriorityArray", "VectorPredicate"]
