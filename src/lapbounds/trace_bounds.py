"""Trace-statistic eigenvalue bounds for normalized and signless Laplacians.

For a PSD matrix M, the squared matrix B = M^2 has eigenvalue mean
m = tr(M^2)/n and spread s with s^2 = tr(M^4)/n - m^2. The Wolkowicz-Styan
inequalities bound lambda_1(B), lambda_n(B), and lambda_k(B) in terms of
(m, s, n); since M is PSD the square root transfers those bounds to M.

Equation ids: E5/E6/E7 for the normalized Laplacian, E8/E9/E10 for the
signless Laplacian, WS-K for the k-th eigenvalue generalization. E5 and E8
exist in two variants: "as_printed" (the published form, which repeats the
lambda_1 lower-bound radicand m + s/sqrt(n-1)) and "sharp" (the direct
consequence m - s/sqrt(n-1) of the trace inequalities).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from lapbounds.errors import InconsistentTracesError
from lapbounds.graph import Graph
from lapbounds.matrices import (
    tr2_normalized_closed,
    tr2_signless_closed,
    tr4_normalized_closed,
    tr4_signless_closed,
)

VARIANTS = ("as_printed", "sharp")

# variance slack tolerated before declaring the trace pair inconsistent
_VARIANCE_SLACK = 1e-12

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class TraceStats:
    """Eigenvalue mean m = tr(B)/n and spread s = sqrt(tr(B^2)/n - m^2)."""

    n: int
    m: float
    s: float


@dataclass(frozen=True)
class BoundValue:
    equation_id: str  # E1..E10 or WS-K
    kind: str  # "upper" | "lower"
    target: str  # "lambda_1" | "lambda_k" | "lambda_n"
    matrix_kind: str  # "normalized" | "signless"
    value: float
    variant: str | None = None  # "as_printed" | "sharp" for E5/E8
    k: int | None = None  # set for WS-K bounds


def trace_stats_psd(t2: float, t4: float, n: int) -> TraceStats:
    """Stats of B = M^2 for symmetric PSD M with tr(M^2) = t2, tr(M^4) = t4."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if t2 < 0:
        raise ValueError(f"tr(M^2) must be non-negative, got {t2}")
    m = t2 / n
    var = t4 / n - m * m
    if var < -_VARIANCE_SLACK:
        raise InconsistentTracesError(
            f"tr(M^4)/n - m^2 = {var:.3e} < 0: traces are inconsistent"
        )
    return TraceStats(n=n, m=m, s=math.sqrt(max(var, 0.0)))


def _lower_end(st: TraceStats, t: float) -> float:
    """The lower end m - t, clamped at 0, with rounding noise read as 0.

    m - t cancels, and it is exactly 0 where the bound is tight at a zero
    eigenvalue: lambda_n of the normalized Laplacian of K_n, or lambda_k of
    a union of equal cliques at the first zero eigenvalue. Its computed
    value then carries the rounding of t, which grows like n^2 ulp of
    m + t: the closed-form traces sum O(n^2) rounded terms, and s comes from
    tr(M^4)/n - m^2, which cancels too. On K_n, n <= 128, that rounding
    stays below 0.3 * n^2 ulp of m + t, so a value within n^2 ulp is taken
    as 0. Lowering a lower bound keeps it a theorem.
    """
    lo = st.m - t
    if lo <= st.n * st.n * _EPS * (st.m + t):
        return 0.0
    return lo


def ws_extreme_intervals(st: TraceStats):
    """Intervals for lambda_1(B) and lambda_n(B), lower ends clamped at 0.

    lambda_1 in [m + s/sqrt(n-1), m + s*sqrt(n-1)]
    lambda_n in [max(0, m - s*sqrt(n-1)), m - s/sqrt(n-1)]

    The lambda_n lower end is 0 when within rounding of 0; see _lower_end.
    """
    root = math.sqrt(st.n - 1)
    lam1 = (st.m + st.s / root, st.m + st.s * root)
    lamn = (_lower_end(st, st.s * root), st.m - st.s / root)
    return lam1, lamn


def ws_kth_interval(st: TraceStats, k: int) -> tuple[float, float]:
    """Interval for lambda_k(B), descending order, clamped at 0 below.

    Generic: m - s*sqrt((k-1)/(n-k+1)) <= lambda_k <= m + s*sqrt((n-k)/k).
    At k=1 and k=n the sharper extreme-eigenvalue endpoints replace the
    generic ones. A lower end within rounding of 0 is 0; see _lower_end.
    """
    n = st.n
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    lam1, lamn = ws_extreme_intervals(st)
    if k == 1:
        return lam1
    if k == n:
        return lamn
    lo = _lower_end(st, st.s * math.sqrt((k - 1) / (n - k + 1)))
    hi = st.m + st.s * math.sqrt((n - k) / k)
    return lo, hi


def _sqrt_clamped(x: float) -> float:
    return math.sqrt(max(x, 0.0))


def graph_stats(g: Graph, matrix_kind: str) -> TraceStats:
    """Trace statistics of the chosen matrix of g, from its closed-form traces.

    Every trace bound of one (graph, matrix) derives from these statistics:
    compute them once and pass them to the bound functions as ``stats``.
    """
    if matrix_kind == "normalized":
        t2, t4 = tr2_normalized_closed(g), tr4_normalized_closed(g)
    elif matrix_kind == "signless":
        t2, t4 = tr2_signless_closed(g), tr4_signless_closed(g)
    else:
        raise ValueError(f"matrix_kind must be 'normalized' or 'signless', got {matrix_kind!r}")
    return trace_stats_psd(t2, t4, g.n)


def _extreme_bounds(
    g: Graph, matrix_kind: str, variant: str, stats: TraceStats | None
) -> list[BoundValue]:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    st = graph_stats(g, matrix_kind) if stats is None else stats
    root = math.sqrt(st.n - 1)
    lam1_lo = _sqrt_clamped(st.m + st.s / root)
    lam1_hi = _sqrt_clamped(st.m + st.s * root)
    if variant == "as_printed":
        lamn_hi = lam1_lo
    else:
        lamn_hi = _sqrt_clamped(st.m - st.s / root)
    if matrix_kind == "normalized":
        eq_n, eq_lo, eq_hi = "E5", "E6", "E7"
    else:
        eq_n, eq_lo, eq_hi = "E8", "E9", "E10"
    return [
        BoundValue(eq_n, "upper", "lambda_n", matrix_kind, lamn_hi, variant=variant),
        BoundValue(eq_lo, "lower", "lambda_1", matrix_kind, lam1_lo),
        BoundValue(eq_hi, "upper", "lambda_1", matrix_kind, lam1_hi),
    ]


def normalized_bounds(
    g: Graph, variant: str = "as_printed", stats: TraceStats | None = None
) -> list[BoundValue]:
    """E5 (upper on lambda_n), E6 (lower on lambda_1), E7 (upper on lambda_1).

    ``stats`` is ``graph_stats(g, "normalized")``, computed here if omitted.
    """
    return _extreme_bounds(g, "normalized", variant, stats)


def signless_bounds(
    g: Graph, variant: str = "as_printed", stats: TraceStats | None = None
) -> list[BoundValue]:
    """E8 (upper on lambda_n), E9 (lower on lambda_1), E10 (upper on lambda_1).

    ``stats`` is ``graph_stats(g, "signless")``, computed here if omitted.
    """
    return _extreme_bounds(g, "signless", variant, stats)


def kth_graph_bounds(
    g: Graph, matrix_kind: str, k: int, stats: TraceStats | None = None
) -> tuple[BoundValue, BoundValue]:
    """(lower, upper) bounds on lambda_k of the chosen matrix.

    ``stats`` is ``graph_stats(g, matrix_kind)``, computed here if omitted.
    """
    st = graph_stats(g, matrix_kind) if stats is None else stats
    lo, hi = ws_kth_interval(st, k)
    return (
        BoundValue("WS-K", "lower", "lambda_k", matrix_kind, _sqrt_clamped(lo), k=k),
        BoundValue("WS-K", "upper", "lambda_k", matrix_kind, _sqrt_clamped(hi), k=k),
    )
