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
from lapbounds.graph import Graph, neighbour_degree_means
from lapbounds.matrices import pair_tables
from lapbounds.trace_bounds import BoundValue

E3_CORRECTION_NOTE = (
    "E3 uses the sign-corrected Li-Liu formula; the expression as originally "
    "printed is not well-formed and its tabulated reference value 9.34 is not "
    "reproduced by any reading of the printed symbols."
)


def _max_over_positive_degrees(g: Graph, per_vertex) -> float:
    v, d, mi = neighbour_degree_means(g)
    if not len(v):
        raise ValueError("all vertices are isolated; bound undefined")
    for u in np.flatnonzero(g.indptr[1:] == g.indptr[:-1]).tolist():
        warnings.warn(f"vertex {u + 1} has degree 0; skipped", stacklevel=3)
    return float(np.max(per_vertex(d, mi)))


def oliveira_quadratic(g: Graph) -> BoundValue:
    """E1: max_i (d_i + sqrt(d_i^2 + 8 d_i m_i)) / 2 >= lambda_1(Q)."""
    val = _max_over_positive_degrees(
        g, lambda d, mi: (d + np.sqrt(d * d + 8.0 * d * mi)) / 2.0
    )
    return BoundValue("E1", "upper", "lambda_1", "signless", val)


def oliveira_sqrt(g: Graph) -> BoundValue:
    """E2: max_i (d_i + sqrt(d_i m_i)) >= lambda_1(Q)."""
    val = _max_over_positive_degrees(g, lambda d, mi: d + np.sqrt(d * mi))
    return BoundValue("E2", "upper", "lambda_1", "signless", val)


def li_liu(g: Graph) -> BoundValue:
    """E3 (corrected): (D+d-1 + sqrt((D+d-1)^2 + 8(2|E| - (n-1)d))) / 2.

    D = max degree, d = min degree. Upper bound on lambda_1(Q).
    """
    if g.n < 2:
        raise ValueError(f"n must be >= 2, got {g.n}")
    big, small = max(g.degrees), min(g.degrees)
    a = big + small - 1
    rad = a * a + 8.0 * (2 * g.edge_count - (g.n - 1) * small)
    val = (a + math.sqrt(rad)) / 2.0
    return BoundValue("E3", "upper", "lambda_1", "signless", val, variant="corrected")


def rojo_soto(g: Graph) -> BoundValue:
    """E4: 2 - min over all pairs i<j of |N_i ∩ N_j| / max(d_i, d_j).

    Upper bound on lambda_1 of the normalized Laplacian; the minimum ranges
    over every unordered pair, adjacent or not.
    """
    if g.n < 2:
        raise ValueError(f"n must be >= 2, got {g.n}")
    d = np.diff(g.indptr)
    isolated = np.flatnonzero(d == 0)
    if len(isolated):
        raise IsolatedVertexError(f"vertex {isolated[0] + 1} is isolated; bound undefined")
    listed, best = 0, 1.0  # no ratio exceeds 1
    for t in pair_tables(g):
        listed += len(t.i)
        best = min(best, float(np.min(t.common / np.maximum(d[t.i], d[t.j]), initial=1.0)))
    if listed < g.n * (g.n - 1) // 2:
        # some pair shares no neighbour: its ratio 0 is the minimum
        return BoundValue("E4", "upper", "lambda_1", "normalized", 2.0)
    return BoundValue("E4", "upper", "lambda_1", "normalized", 2.0 - best)
