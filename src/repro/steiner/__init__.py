"""Steiner-tree machinery for the backward step.

Weighted schema graph construction (mutual-information or uniform edge
weights) and the one Steiner search the engine runs: top-k enumeration
with sub-tree pruning in the style of Ding et al. (DPBF). Connectivity
questions are answered from the per-snapshot component labels of
:class:`CompactGraph`.
"""

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
    "build_schema_graph",
    "top_k_steiner_trees",
    "top_k_steiner_trees_reference",
]
