"""Spans around the public functions of each lapbounds module.

Callers inside lapbounds use ``from x import y``, so each function is wrapped
where its caller looks it up (for example ``lapbounds.report.
eigenvalues_symmetric``), not where it is defined. Spans stay in memory as
``[name, start, end, parent index, attrs]``; ``summarize`` turns one
command's spans into self times and counts.
"""

from __future__ import annotations

import importlib
import time


def _bounds_key(kind):
    """attrs of a trace-bound call: which (graph, matrix) its statistics describe."""

    def attrs(args, kwargs, result):
        g = args[0]
        k = kind if kind else (args[1] if len(args) > 1 else kwargs["matrix_kind"])
        return {"key": f"{hash((g.n, g.edges))}:{k}"}

    return attrs


def _jacobi_attrs(args, kwargs, result):
    a, tol = args[0], args[1]
    return {"n": a.shape[0], "sweeps": int(result[0]), "off": float(result[1]), "tol": float(tol)}


def _power_attrs(args, kwargs, result):
    return {"n": args[0].shape[0], "p": args[1]}


_BUILDERS = ("normalized_laplacian", "signless_laplacian")
_CLOSED = ("tr2_normalized_closed", "tr4_normalized_closed", "tr2_signless_closed", "tr4_signless_closed")
_CLASSICAL = ("oliveira_quadratic", "oliveira_sqrt", "li_liu", "rojo_soto")
_RENDER = ("render_table", "render_csv", "render_json")

# (span name, module the caller looks the function up in, attribute, attrs hook)
SITES = (
    [("cli", "lapbounds.cli", "main", None)]
    + [("graph.parse", "lapbounds.cli", "parse_edge_list", None)]
    + [("matrices.build", mod, f, None) for mod in ("lapbounds.cli", "lapbounds.report") for f in _BUILDERS]
    + [("matrices.closed_trace", mod, f, None) for mod in ("lapbounds.cli", "lapbounds.trace_bounds") for f in _CLOSED]
    + [("matrices.power_trace", "lapbounds.cli", "trace_power", _power_attrs)]
    + [("eig.solve", "lapbounds.report", "eigenvalues_symmetric", None)]
    + [("kernels.jacobi", "lapbounds.eig", "jacobi_sweeps", _jacobi_attrs)]
    + [
        ("trace_bounds.bounds", "lapbounds.report", f, _bounds_key(kind))
        for f, kind in (("normalized_bounds", "normalized"), ("signless_bounds", "signless"), ("kth_graph_bounds", None))
    ]
    + [("trace_bounds.stats", "lapbounds.trace_bounds", "trace_stats_psd", None)]
    + [("classical", "lapbounds.report", f, None) for f in _CLASSICAL]
    + [("report.build", "lapbounds.report", "build_report", None)]
    + [("report.render", "lapbounds.report", f, None) for f in _RENDER]
)

# per-layer time metric -> span names whose self times it sums
TIME_METRICS = {
    "kernels.jacobi_s": ("kernels.jacobi",),
    "eig.solve_s": ("eig.solve",),
    "trace_bounds.s": ("trace_bounds.bounds", "trace_bounds.stats"),
    "matrices.closed_trace_s": ("matrices.closed_trace",),
    "matrices.power_trace_s": ("matrices.power_trace",),
    "matrices.build_s": ("matrices.build",),
    "graph.parse_s": ("graph.parse",),
    "classical.s": ("classical",),
    "report.build_self_s": ("report.build",),
    "report.render_s": ("report.render",),
    "cli.self_s": ("cli",),
}


class Tracer:
    """Installs span-recording wrappers at SITES and collects the spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if attrs is not None:
                spans[idx][4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for name, modname, attr, attrs in SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, attrs))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def take(self) -> list[list]:
        """The spans recorded since the last take, in start order."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict[str, float]:
    """Self times and counts of one command's spans, keyed by metric name."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, t0, t1, _, _), c in zip(spans, child):
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - c)
        calls[name] = calls.get(name, 0) + 1
    out = {m: sum(self_time.get(s, 0.0) for s in names) for m, names in TIME_METRICS.items()}

    sweeps = rotations = 0
    off_ratio = gflop = 0.0
    keys = set()
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        if name == "kernels.jacobi":
            n = attrs["n"]
            sweeps += attrs["sweeps"]
            rotations += attrs["sweeps"] * n * (n - 1) // 2
            off_ratio = max(off_ratio, attrs["off"] / attrs["tol"])
        elif name == "matrices.power_trace":
            matmuls = {1: 0, 2: 1, 4: 2}.get(attrs["p"], 0)
            gflop += matmuls * 2.0 * attrs["n"] ** 3 / 1e9
        elif name == "trace_bounds.stats":
            # a call from outside a wrapped bound function counts as distinct
            has_key = parent >= 0 and spans[parent][4] is not None
            keys.add(spans[parent][4]["key"] if has_key else i)
    solves = calls.get("kernels.jacobi", 0)
    out.update(
        {
            "kernels.sweeps_total": sweeps,
            "kernels.solves": solves,
            "kernels.rotations": rotations,
            "kernels.max_off_ratio": off_ratio,
            "eig.solve_calls": calls.get("eig.solve", 0),
            "trace_bounds.stats_calls": calls.get("trace_bounds.stats", 0),
            "trace_bounds.stats_distinct": len(keys),
            "matrices.closed_trace_calls": calls.get("matrices.closed_trace", 0),
            "matrices.power_trace_gflop": gflop,
        }
    )
    return out
