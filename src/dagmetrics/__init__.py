"""Analysis toolkit for directed acyclic graphs.

Three questions about a DAG, answered exactly:

* how long is the longest directed path (the *stretch*),
* how far apart can two reachable vertices be at their closest
  (the *diameter* over shortest directed distances),
* can every vertex be assigned a layer so that each edge advances
  exactly one layer (*balanced*), and if so, which layer.

Every analytic routine has a brute-force counterpart in
:mod:`dagmetrics.oracle` that answers the same question by exhaustive
search on small graphs, so results can be cross-checked independently.
"""

from dagmetrics.core import (
    CycleDetected,
    Dag,
    DagBuildInput,
    DagError,
    DuplicateEdge,
    Edge,
    EmptyGraph,
    InstrumentationCounters,
    MalformedLine,
    SelfLoop,
    build_dag,
    parse_edge_list,
    read_dag,
    weakly_connected_components,
)
from dagmetrics.layering import (
    LayerAssignment,
    LayeringOutcome,
    UnbalancedWitness,
    check_balanced,
    layer_pq,
    layer_traversal,
)
from dagmetrics.metrics import (
    DiameterResult,
    StretchResult,
    all_pairs_distances,
    diameter,
    stretch,
)
from dagmetrics.oracle import (
    TooLarge,
    bfs_distances,
    enumerate_path_lengths,
    gen_layered_dag,
    gen_random_dag,
    oracle_all_paths_equal,
    oracle_diameter,
    oracle_graded,
    oracle_layers,
    oracle_stretch,
)

__version__ = "0.1.0"

__all__ = [
    "CycleDetected",
    "Dag",
    "DagBuildInput",
    "DagError",
    "DiameterResult",
    "DuplicateEdge",
    "Edge",
    "EmptyGraph",
    "InstrumentationCounters",
    "LayerAssignment",
    "LayeringOutcome",
    "MalformedLine",
    "SelfLoop",
    "StretchResult",
    "TooLarge",
    "UnbalancedWitness",
    "all_pairs_distances",
    "bfs_distances",
    "build_dag",
    "check_balanced",
    "diameter",
    "enumerate_path_lengths",
    "gen_layered_dag",
    "gen_random_dag",
    "layer_pq",
    "layer_traversal",
    "oracle_all_paths_equal",
    "oracle_diameter",
    "oracle_graded",
    "oracle_layers",
    "oracle_stretch",
    "parse_edge_list",
    "read_dag",
    "stretch",
    "weakly_connected_components",
    "__version__",
]
