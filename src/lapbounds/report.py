"""Per-graph bound reports: assembly, slack computation, and rendering.

Slack is signed so that >= 0 means the bound holds: upper bounds report
bound - lambda, lower bounds report lambda - bound. Any slack below
-SLACK_TOL marks the report as violated (an internal inconsistency).
"""

from __future__ import annotations

import io
import json
import warnings as _warnings
from dataclasses import dataclass

from lapbounds.classical import (
    E3_CORRECTION_NOTE,
    li_liu,
    oliveira_quadratic,
    oliveira_sqrt,
    rojo_soto,
)
from lapbounds.eig import Spectrum, eigenvalues_symmetric, kth_eigenvalue
from lapbounds.graph import Graph, degree_summary, is_connected
from lapbounds.matrices import normalized_laplacian, signless_laplacian
from lapbounds.trace_bounds import (
    BoundValue,
    graph_stats,
    kth_graph_bounds,
    normalized_bounds,
    signless_bounds,
)

SLACK_TOL = 1e-9

MATRIX_KINDS = ("normalized", "signless")


@dataclass(frozen=True)
class BoundRow:
    bound: BoundValue
    oracle: float  # the eigenvalue the bound targets
    slack: float


@dataclass(frozen=True)
class BoundReport:
    n: int
    edge_count: int
    max_degree: int
    min_degree: int
    spectra: dict[str, Spectrum]  # matrix kind -> oracle spectrum
    rows: list[BoundRow]
    warnings: list[str]

    @property
    def violated(self) -> bool:
        return any(r.slack < -SLACK_TOL for r in self.rows)


def _slack(bound: BoundValue, oracle: float) -> float:
    if bound.kind == "upper":
        return bound.value - oracle
    return oracle - bound.value


def _target_value(bound: BoundValue, spectrum: Spectrum) -> float:
    if bound.target == "lambda_1":
        return spectrum.largest
    if bound.target == "lambda_n":
        return spectrum.smallest
    return kth_eigenvalue(spectrum, bound.k)


def build_report(
    g: Graph,
    matrix_kind: str = "both",
    k_list: list[int] | None = None,
) -> BoundReport:
    """Compute the oracle spectrum and every applicable bound with slack."""
    kinds = list(MATRIX_KINDS) if matrix_kind == "both" else [matrix_kind]
    for kind in kinds:
        if kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {kind!r}")
    summary = degree_summary(g)
    warn: list[str] = []
    if not is_connected(g):
        warn.append("graph is disconnected; E1/E2 connectivity hypothesis violated")

    spectra: dict[str, Spectrum] = {}
    rows: list[BoundRow] = []
    for kind in kinds:
        matrix = normalized_laplacian(g) if kind == "normalized" else signless_laplacian(g)
        spectrum = eigenvalues_symmetric(matrix, origin=kind)
        spectra[kind] = spectrum
        stats = graph_stats(g, kind)

        bounds: list[BoundValue] = []
        if kind == "normalized":
            bounds.extend(normalized_bounds(g, "as_printed", stats=stats))
            # sharp E5 only (E6/E7 do not vary with the variant)
            bounds.append(normalized_bounds(g, "sharp", stats=stats)[0])
            bounds.append(rojo_soto(g))
        else:
            bounds.extend(signless_bounds(g, "as_printed", stats=stats))
            bounds.append(signless_bounds(g, "sharp", stats=stats)[0])
            with _warnings.catch_warnings(record=True) as caught:
                _warnings.simplefilter("always")
                bounds.append(oliveira_quadratic(g))
                bounds.append(oliveira_sqrt(g))
            warn.extend(str(w.message) for w in caught)
            bounds.append(li_liu(g))
            warn.append(E3_CORRECTION_NOTE)
        for k in k_list or []:
            bounds.extend(kth_graph_bounds(g, kind, k, stats=stats))

        for b in bounds:
            oracle = _target_value(b, spectrum)
            rows.append(BoundRow(bound=b, oracle=oracle, slack=_slack(b, oracle)))

    return BoundReport(
        n=g.n,
        edge_count=summary.edge_count,
        max_degree=summary.max_degree,
        min_degree=summary.min_degree,
        spectra=spectra,
        rows=rows,
        # E1 and E2 each warn about the same isolated vertex; say it once
        warnings=list(dict.fromkeys(warn)),
    )


def _fmt12(x: float) -> float:
    # 12 significant digits; json round-trips the printed value exactly
    return float(f"{x:.12g}")


def _row_fields(r: BoundRow) -> list[str]:
    b = r.bound
    return [
        b.equation_id,
        b.matrix_kind,
        b.kind,
        b.target,
        str(b.k) if b.k is not None else "",
        b.variant or "",
        f"{b.value:.6f}",
        f"{r.oracle:.6f}",
        f"{r.slack:.6f}",
    ]


_HEADER = ["equation", "matrix", "kind", "target", "k", "variant", "value", "oracle", "slack"]


def render_table(report: BoundReport) -> str:
    out = io.StringIO()
    out.write(
        f"graph: n={report.n} edges={report.edge_count} "
        f"max_degree={report.max_degree} min_degree={report.min_degree}\n"
    )
    for kind, spectrum in report.spectra.items():
        vals = " ".join(f"{v:.6f}" for v in spectrum.values)
        out.write(f"spectrum[{kind}]: {vals}\n")
    rows = [_HEADER] + [_row_fields(r) for r in report.rows]
    widths = [max(len(row[c]) for row in rows) for c in range(len(_HEADER))]
    for row in rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    for w in report.warnings:
        out.write(f"warning: {w}\n")
    return out.getvalue()


def render_csv(report: BoundReport) -> str:
    lines = [",".join(_HEADER)]
    lines.extend(",".join(_row_fields(r)) for r in report.rows)
    return "\n".join(lines) + "\n"


def to_json_obj(report: BoundReport) -> dict:
    return {
        "graph": {
            "n": report.n,
            "edges": report.edge_count,
            "max_degree": report.max_degree,
            "min_degree": report.min_degree,
        },
        "spectrum": {
            kind: [_fmt12(v) for v in s.values] for kind, s in report.spectra.items()
        },
        "bounds": [
            {
                "equation": r.bound.equation_id,
                "matrix": r.bound.matrix_kind,
                "kind": r.bound.kind,
                "target": r.bound.target,
                "k": r.bound.k,
                "variant": r.bound.variant,
                "value": _fmt12(r.bound.value),
                "oracle": _fmt12(r.oracle),
                "slack": _fmt12(r.slack),
            }
            for r in report.rows
        ],
        "warnings": list(report.warnings),
    }


def render_json(report: BoundReport) -> str:
    return json.dumps(to_json_obj(report), indent=2) + "\n"
