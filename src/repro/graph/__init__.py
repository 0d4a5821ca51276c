"""Graph substrate: immutable CSR graphs, generators, operations, analysis.

The whole library works with one concrete graph type, :class:`Graph`:
vertices are the integers ``0..n-1`` and edges are undirected, simple and
unweighted — exactly the setting of the ruling-set problem.  Everything else
(generators, induced subgraphs, power graphs, BFS-based verification,
edge-list I/O) is built on it; machine ownership lives in
:mod:`repro.mpc.ownermap`.
"""

from repro.graph.graph import Graph
from repro.graph.builder import GraphBuilder
from repro.graph import generators
from repro.graph.ops import (
    induced_subgraph,
    power_graph,
    relabel_dense,
    remove_vertices,
    union_disjoint,
)
from repro.graph.properties import (
    connected_components,
    degeneracy_ordering,
    degree_histogram,
    domination_radius,
    eccentricity,
    is_independent_set,
    multi_source_distances,
)
from repro.graph.io import read_edge_list, write_edge_list

__all__ = [
    "Graph",
    "GraphBuilder",
    "generators",
    "induced_subgraph",
    "power_graph",
    "relabel_dense",
    "remove_vertices",
    "union_disjoint",
    "connected_components",
    "degeneracy_ordering",
    "degree_histogram",
    "domination_radius",
    "eccentricity",
    "is_independent_set",
    "multi_source_distances",
    "read_edge_list",
    "write_edge_list",
]
