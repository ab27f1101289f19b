"""Four classical comparison bounds on Laplacian spectral radii.

E1, E2: Oliveira-de Lima upper bounds on lambda_1(Q) from degrees and
average neighbor degrees. E3: Li-Liu upper bound on lambda_1(Q); the
published expression drops a '+' before the radical, restored here. E4:
Rojo-Soto upper bound on lambda_1 of the normalized Laplacian from common
neighborhoods.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from lapbounds.errors import IsolatedVertexError
from lapbounds.graph import Graph, degree_summary
from lapbounds.matrices import pair_tables
from lapbounds.trace_bounds import BoundValue

E3_CORRECTION_NOTE = (
    "E3 uses the sign-corrected Li-Liu formula; the expression as originally "
    "printed is not well-formed and its tabulated reference value 9.34 is not "
    "reproduced by any reading of the printed symbols."
)


def _max_over_positive_degrees(g: Graph, per_vertex) -> float:
    summary = degree_summary(g)
    if summary.max_degree == 0:
        raise ValueError("all vertices are isolated; bound undefined")
    best = None
    for v in range(1, g.n + 1):
        d = g.degrees[v - 1]
        if d == 0:
            warnings.warn(f"vertex {v} has degree 0; skipped", stacklevel=3)
            continue
        val = per_vertex(d, summary.avg_neighbor_degree[v])
        if best is None or val > best:
            best = val
    return best


def oliveira_quadratic(g: Graph) -> BoundValue:
    """E1: max_i (d_i + sqrt(d_i^2 + 8 d_i m_i)) / 2 >= lambda_1(Q)."""
    val = _max_over_positive_degrees(
        g, lambda d, mi: (d + math.sqrt(d * d + 8.0 * d * mi)) / 2.0
    )
    return BoundValue("E1", "upper", "lambda_1", "signless", val)


def oliveira_sqrt(g: Graph) -> BoundValue:
    """E2: max_i (d_i + sqrt(d_i m_i)) >= lambda_1(Q)."""
    val = _max_over_positive_degrees(g, lambda d, mi: d + math.sqrt(d * mi))
    return BoundValue("E2", "upper", "lambda_1", "signless", val)


def li_liu(g: Graph) -> BoundValue:
    """E3 (corrected): (D+d-1 + sqrt((D+d-1)^2 + 8(2|E| - (n-1)d))) / 2.

    D = max degree, d = min degree. Upper bound on lambda_1(Q).
    """
    if g.n < 2:
        raise ValueError(f"n must be >= 2, got {g.n}")
    summary = degree_summary(g)
    a = summary.max_degree + summary.min_degree - 1
    rad = a * a + 8.0 * (2 * summary.edge_count - (g.n - 1) * summary.min_degree)
    val = (a + math.sqrt(rad)) / 2.0
    return BoundValue("E3", "upper", "lambda_1", "signless", val, variant="corrected")


def rojo_soto(g: Graph) -> BoundValue:
    """E4: 2 - min over all pairs i<j of |N_i ∩ N_j| / max(d_i, d_j).

    Upper bound on lambda_1 of the normalized Laplacian; the minimum ranges
    over every unordered pair, adjacent or not.
    """
    if g.n < 2:
        raise ValueError(f"n must be >= 2, got {g.n}")
    for v, d in enumerate(g.degrees, start=1):
        if d == 0:
            raise IsolatedVertexError(f"vertex {v} is isolated; bound undefined")
    d = np.array(g.degrees, dtype=np.int64)
    listed, best = 0, 1.0  # no ratio exceeds 1
    for t in pair_tables(g):
        listed += len(t.i)
        best = min(best, float(np.min(t.common / np.maximum(d[t.i], d[t.j]), initial=1.0)))
    if listed < g.n * (g.n - 1) // 2:
        # some pair shares no neighbour: its ratio 0 is the minimum
        return BoundValue("E4", "upper", "lambda_1", "normalized", 2.0)
    return BoundValue("E4", "upper", "lambda_1", "normalized", 2.0 - best)
