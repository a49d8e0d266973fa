"""Dynamic graph store, generators, and sequential traversals."""

from repro.graph.array_graph import ArrayDynamicGraph
from repro.graph.dynamic_graph import DynamicGraph, Edge, norm_edge
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.generators import (
    barbell_graph,
    complete_graph,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    power_law_graph,
    random_connected_graph,
    random_tree,
    ring_of_cliques,
)
from repro.graph.traversal import (
    adjacency_from_edges,
    bfs_distances,
    bfs_distances_bounded,
    connected_components,
)

__all__ = [
    "ArrayDynamicGraph",
    "DynamicGraph",
    "Edge",
    "norm_edge",
    "adjacency_from_edges",
    "barbell_graph",
    "bfs_distances",
    "bfs_distances_bounded",
    "complete_graph",
    "connected_components",
    "gnm_random_graph",
    "gnp_random_graph",
    "grid_graph",
    "power_law_graph",
    "random_connected_graph",
    "random_tree",
    "read_edge_list",
    "ring_of_cliques",
    "write_edge_list",
]
