"""Command-line interface: report, traces, and verify subcommands.

Exit codes: 0 success, 1 input/usage error, 2 bound violated beyond slack
(an internal inconsistency, since every bound is a theorem).
"""

from __future__ import annotations

import argparse
import json
import sys

from lapbounds import report as report_mod
from lapbounds import verify as verify_mod
from lapbounds.errors import ConvergenceError, GenerationError
from lapbounds.graph import Graph, parse_edge_list
# the dense builders are unused here, but perfbench/tracing.py wraps them here
from lapbounds.matrices import (  # noqa: F401
    laplacian_entries,
    normalized_laplacian,
    signless_laplacian,
    trace_power,
    tr2_normalized_closed,
    tr2_signless_closed,
    tr4_normalized_closed,
    tr4_signless_closed,
)

# EdgeListError and IsolatedVertexError are ValueErrors
_INPUT_ERRORS = (GenerationError, ConvergenceError, OSError, ValueError)


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _cmd_report(args) -> int:
    g = _load_graph(args.graph)
    rep = report_mod.build_report(g, args.matrix, args.k or [])
    sys.stdout.write(getattr(report_mod, f"render_{args.format}")(rep))
    return 2 if rep.violated else 0


def _traces_rows(g: Graph):
    rows = []
    for kind, names, closed in (
        ("normalized", ("tr(NL^2)", "tr(NL^4)"), (tr2_normalized_closed, tr4_normalized_closed)),
        ("signless", ("tr(Q^2)", "tr(Q^4)"), (tr2_signless_closed, tr4_signless_closed)),
    ):
        m = laplacian_entries(g, kind)
        for name, closed_trace, p in zip(names, closed, (2, 4)):
            c, power = closed_trace(g), trace_power(m, p)
            rows.append((name, c, power, abs(c - power) / max(abs(power), 1e-300)))
    return rows


def _cmd_traces(args) -> int:
    g = _load_graph(args.graph)
    rows = _traces_rows(g)
    if args.format == "json":
        obj = {
            name: {
                "closed_form": float(f"{closed:.12g}"),
                "matrix_power": float(f"{power:.12g}"),
                "relative_difference": float(f"{rel:.3e}"),
            }
            for name, closed, power, rel in rows
        }
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    elif args.format == "csv":
        lines = ["trace,closed_form,matrix_power,relative_difference"]
        lines.extend(
            f"{name},{closed:.12g},{power:.12g},{rel:.3e}"
            for name, closed, power, rel in rows
        )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(
            f"{'trace':<9}{'closed_form':>18}{'matrix_power':>18}{'rel_diff':>12}\n"
        )
        for name, closed, power, rel in rows:
            sys.stdout.write(f"{name:<9}{closed:>18.12g}{power:>18.12g}{rel:>12.3e}\n")
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_verify(args.n_min, args.n_max, args.trials, args.p, args.seed)
    sys.stdout.write(getattr(verify_mod, f"render_{args.format}")(results))
    return 0 if verify_mod.all_passed(results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapbounds",
        description="Eigenvalue bounds for normalized and signless graph Laplacians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="bounds, spectrum, and slack for one graph")
    rep.add_argument("--graph", required=True, help="edge-list file")
    rep.add_argument(
        "--matrix", choices=["normalized", "signless", "both"], default="both"
    )
    rep.add_argument(
        "--k", type=int, action="append", help="also bound lambda_k (repeatable)"
    )
    rep.add_argument("--format", choices=["table", "csv", "json"], default="table")
    rep.set_defaults(func=_cmd_report)

    tr = sub.add_parser("traces", help="closed-form vs matrix-power traces")
    tr.add_argument("--graph", required=True, help="edge-list file")
    tr.add_argument("--format", choices=["table", "csv", "json"], default="table")
    tr.set_defaults(func=_cmd_traces)

    ver = sub.add_parser("verify", help="randomized invariant suite")
    ver.add_argument("--n-min", type=int, default=4)
    ver.add_argument("--n-max", type=int, default=12)
    ver.add_argument("--trials", type=int, default=200)
    ver.add_argument("--p", type=float, default=0.5)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--format", choices=["table", "csv", "json"], default="table")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
