"""Eigenvalue bounds for normalized and signless Laplacian matrices of simple graphs.

Trace-based bounds on extreme and k-th eigenvalues, four classical comparison
bounds, and a cyclic-Jacobi eigensolver used as the exact oracle.
"""

from lapbounds.graph import (
    Graph,
    DegreeSummary,
    parse_edge_list,
    to_edge_list,
    common_neighbors,
    degree_summary,
    generate_connected_gnp,
)
from lapbounds.matrices import (
    adjacency,
    laplacian,
    normalized_laplacian,
    signless_laplacian,
    trace_power,
    tr2_normalized_closed,
    tr4_normalized_closed,
    tr2_signless_closed,
    tr4_signless_closed,
)
from lapbounds.eig import Spectrum, eigenvalues_symmetric, kth_eigenvalue
from lapbounds.trace_bounds import (
    TraceStats,
    BoundValue,
    graph_stats,
    trace_stats_psd,
    ws_extreme_intervals,
    ws_kth_interval,
    normalized_bounds,
    signless_bounds,
    kth_graph_bounds,
)
from lapbounds.classical import (
    oliveira_quadratic,
    oliveira_sqrt,
    li_liu,
    rojo_soto,
)
from lapbounds.errors import (
    EdgeListError,
    IsolatedVertexError,
    GenerationError,
    ConvergenceError,
    InconsistentTracesError,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "DegreeSummary",
    "parse_edge_list",
    "to_edge_list",
    "common_neighbors",
    "degree_summary",
    "generate_connected_gnp",
    "adjacency",
    "laplacian",
    "normalized_laplacian",
    "signless_laplacian",
    "trace_power",
    "tr2_normalized_closed",
    "tr4_normalized_closed",
    "tr2_signless_closed",
    "tr4_signless_closed",
    "Spectrum",
    "eigenvalues_symmetric",
    "kth_eigenvalue",
    "TraceStats",
    "BoundValue",
    "graph_stats",
    "trace_stats_psd",
    "ws_extreme_intervals",
    "ws_kth_interval",
    "normalized_bounds",
    "signless_bounds",
    "kth_graph_bounds",
    "oliveira_quadratic",
    "oliveira_sqrt",
    "li_liu",
    "rojo_soto",
    "EdgeListError",
    "IsolatedVertexError",
    "GenerationError",
    "ConvergenceError",
    "InconsistentTracesError",
]
