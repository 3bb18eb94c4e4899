"""Flow-network substrate.

This package provides the graph data structure shared by every maximum-flow
engine in :mod:`repro.maxflow` and by the retrieval-network builders in
:mod:`repro.core`.  It plays the role LEDA's ``GRAPH`` type plays in the
paper's C++ implementation: a mutable directed graph with *paired arcs*
(arc ``a`` and ``a ^ 1`` are residual twins) so that pushing flow and
walking the residual graph are O(1) array operations.
"""

from repro.graph.flownetwork import Arc, FlowNetwork
from repro.graph.validation import (
    assert_valid_flow,
    assert_valid_preflow,
    excess_of,
    flow_value,
    is_valid_flow,
    min_cut_reachable,
)

__all__ = [
    "Arc",
    "FlowNetwork",
    "assert_valid_flow",
    "assert_valid_preflow",
    "excess_of",
    "flow_value",
    "is_valid_flow",
    "min_cut_reachable",
]
