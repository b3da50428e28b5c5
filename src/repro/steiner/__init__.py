"""Steiner-tree machinery for the backward step.

Weighted schema graph construction (mutual-information or uniform edge
weights), exact Dreyfus-Wagner trees, the KMB approximation and top-k
enumeration with sub-tree pruning in the style of Ding et al.
"""

from repro.steiner.approx import approximate_steiner_tree
from repro.steiner.exact import (
    exact_steiner_tree,
    exact_steiner_tree_reference,
    shortest_paths,
)
from repro.steiner.graph import CompactGraph, EdgeKind, SchemaEdge, SchemaGraph
from repro.steiner.topk import top_k_steiner_trees, top_k_steiner_trees_reference
from repro.steiner.tree import SteinerTree
from repro.steiner.weights import (
    INTRA_TABLE_WEIGHT,
    MIN_EDGE_WEIGHT,
    UNIFORM_JOIN_WEIGHT,
    build_schema_graph,
)

__all__ = [
    "CompactGraph",
    "EdgeKind",
    "INTRA_TABLE_WEIGHT",
    "MIN_EDGE_WEIGHT",
    "SchemaEdge",
    "SchemaGraph",
    "SteinerTree",
    "UNIFORM_JOIN_WEIGHT",
    "approximate_steiner_tree",
    "build_schema_graph",
    "exact_steiner_tree",
    "exact_steiner_tree_reference",
    "shortest_paths",
    "top_k_steiner_trees",
    "top_k_steiner_trees_reference",
]
