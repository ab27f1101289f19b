"""Benchmark workloads: seeded inputs, CLI commands, and output checks.

Every expected value is recomputed here from the generated input with
numpy and scipy.sparse, so a check holds for any seed.
``numpy.linalg.eigvalsh`` is only a cross-check of the spectrum the program
reports; the program's own oracle stays its Jacobi solver. No check compares
bytes or paper table values.

Each workload cycles through a fixed list of graph sizes. The latency
metrics are taken over the commands of its reference size, which fills most
of a cycle, so a percentile never falls between two sizes however many
cycles a run completes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# relative tolerance for every recomputed value
REL_TOL = 1e-9
# a bound whose signed slack is below this is violated (every bound is a theorem)
SLACK_TOL = 1e-9
# trace-bound ids per matrix: (upper on lambda_n, lower on lambda_1, upper on lambda_1)
EQUATIONS = {"normalized": ("E5", "E6", "E7"), "signless": ("E8", "E9", "E10")}


@dataclass
class Command:
    argv: list[str]
    n: int
    edges: np.ndarray = field(repr=False)  # (m, 2), 0-based, u < v


# ---- input generation -------------------------------------------------------


def _write_graph(path: str, n: int, edges: np.ndarray) -> None:
    lines = [f"n={n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in edges.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _connected(n: int, edges: np.ndarray) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def dense_gnp(rng: np.random.Generator, n: int, p: float = 0.5) -> np.ndarray:
    """Edges of a connected G(n, p) draw (rejection sampling)."""
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(iu.size) < p
        edges = np.stack([iu[keep], ju[keep]], axis=1)
        if _connected(n, edges):
            return edges


def ring_with_chords(rng: np.random.Generator, n: int, avg_degree: int = 8) -> np.ndarray:
    """Edges of a ring plus distinct random chords, n * avg_degree / 2 edges in all."""
    ring = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    want = n * avg_degree // 2 - len(ring)
    chords: dict[tuple[int, int], None] = {}  # insertion-ordered set
    while len(chords) < want:
        for u, v in rng.integers(0, n, size=(want, 2)).tolist():
            e = (min(u, v), max(u, v))
            if u != v and e not in ring:
                chords[e] = None
                if len(chords) == want:
                    break
    return np.array(sorted(ring) + list(chords), dtype=np.int64)


# ---- numpy references --------------------------------------------------------


def laplacians(n: int, edges: np.ndarray) -> dict[str, sp.csr_array]:
    """Sparse normalized Laplacian I - D^-1/2 A D^-1/2 and signless Laplacian D + A."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    d = np.asarray(a.sum(axis=1)).ravel()
    inv = sp.diags_array(1.0 / np.sqrt(d))
    return {
        "normalized": sp.csr_array(sp.eye_array(n) - inv @ a @ inv),
        "signless": sp.csr_array(a + sp.diags_array(d)),
    }


def traces_2_4(m: sp.csr_array) -> tuple[float, float]:
    """tr(M^2) and tr(M^4) of a symmetric M as squared Frobenius norms."""
    m2 = m @ m
    return float(m.multiply(m).sum()), float(m2.multiply(m2).sum())


def _rel_close(got, want: float, tol: float = REL_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(abs(want), 1e-300)


def _radicands(t2: float, t4: float, n: int, eqs: tuple[str, str, str]):
    """Wolkowicz-Styan radicands of B = M^2, keyed like the program's bound rows.

    eqs are the ids of the (lambda_n upper, lambda_1 lower, lambda_1 upper)
    bounds. Returns ({row key: radicand}, scale): a bound value is
    sqrt(max(radicand, 0)), and scale bounds the terms that cancel inside a
    radicand.
    """
    m = t2 / n
    s = math.sqrt(max(t4 / n - m * m, 0.0))
    root = math.sqrt(n - 1)
    e_n, e_lo, e_hi = eqs
    out = {
        (e_n, "upper", "lambda_n", None, "as_printed"): m + s / root,
        (e_n, "upper", "lambda_n", None, "sharp"): m - s / root,
        (e_lo, "lower", "lambda_1", None, None): m + s / root,
        (e_hi, "upper", "lambda_1", None, None): m + s * root,
    }
    for k in range(1, n + 1):
        if k == 1:
            lo, hi = m + s / root, m + s * root
        elif k == n:
            lo, hi = m - s * root, m - s / root
        else:
            lo = m - s * math.sqrt((k - 1) / (n - k + 1))
            hi = m + s * math.sqrt((n - k) / k)
        out[("WS-K", "lower", "lambda_k", k, None)] = lo
        out[("WS-K", "upper", "lambda_k", k, None)] = hi
    return out, m + s * root


# ---- workloads ---------------------------------------------------------------


def _parse_json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not json: {exc}"


class ReportDense:
    """`report --matrix both --k 1..n` on connected G(n, 0.5) graphs."""

    name = "report-dense"
    sizes = (16, 32, 32, 32, 32, 64)
    reference_n = 32

    def cycle(self, rng: np.random.Generator, workdir: str) -> list[Command]:
        cmds = []
        for i, n in enumerate(self.sizes):
            edges = dense_gnp(rng, n)
            path = os.path.join(workdir, f"{self.name}-{i}.txt")
            _write_graph(path, n, edges)
            argv = ["report", "--graph", path, "--matrix", "both", "--format", "json"]
            for k in range(1, n + 1):
                argv += ["--k", str(k)]
            cmds.append(Command(argv, n, edges))
        return cmds

    def check(self, cmd: Command, rc, out: str) -> str | None:
        """None if the report is right for cmd's graph, else the first reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        obj = _parse_json(out)
        if isinstance(obj, str):
            return obj
        n = cmd.n
        degrees = np.bincount(cmd.edges.ravel(), minlength=n)
        want_graph = {
            "n": n,
            "edges": len(cmd.edges),
            "max_degree": int(degrees.max()),
            "min_degree": int(degrees.min()),
        }
        if obj.get("graph") != want_graph:
            return f"graph summary {obj.get('graph')} != {want_graph}"
        mats = laplacians(n, cmd.edges)
        if set(obj.get("spectrum", {})) != set(mats):
            return "spectrum must cover both matrices"
        rows = obj.get("bounds", [])
        if len(rows) != 12 + 4 * n:
            return f"{len(rows)} bound rows, want {12 + 4 * n}"
        seen_keys = []
        want_keys = [
            ("normalized", "E4", "upper", "lambda_1", None, None),
            ("signless", "E1", "upper", "lambda_1", None, None),
            ("signless", "E2", "upper", "lambda_1", None, None),
            ("signless", "E3", "upper", "lambda_1", None, "corrected"),
        ]
        for kind, mat in mats.items():
            lam = np.linalg.eigvalsh(mat.toarray())[::-1]
            tol = REL_TOL * (1.0 + abs(lam[0]))
            got = obj["spectrum"][kind]
            if len(got) != n or any(abs(g - w) > tol for g, w in zip(got, lam)):
                return f"{kind} spectrum differs from eigvalsh by more than {tol:.1e}"
            radicands, scale = _radicands(*traces_2_4(mat), n, EQUATIONS[kind])
            want_keys += [(kind,) + key for key in radicands]
            target = {"lambda_1": lam[0], "lambda_n": lam[-1]}
            for r in rows:
                if r.get("matrix") != kind:
                    continue
                key = (r["equation"], r["kind"], r["target"], r["k"], r["variant"])
                seen_keys.append((kind,) + key)
                where = f"{kind} {key}"
                oracle = target.get(r["target"])
                if r["target"] == "lambda_k":
                    oracle = lam[r["k"] - 1]
                if oracle is None or abs(r["oracle"] - oracle) > tol:
                    return f"{where}: oracle {r['oracle']} != eigvalsh {oracle}"
                value = r["value"]
                slack = value - r["oracle"] if r["kind"] == "upper" else r["oracle"] - value
                if r["slack"] < -SLACK_TOL:
                    return f"{where}: slack {r['slack']} < -{SLACK_TOL}: bound violated"
                if abs(r["slack"] - slack) > REL_TOL * (1.0 + abs(value) + abs(r["oracle"])):
                    return f"{where}: slack {r['slack']} != signed value - oracle {slack}"
                if key in radicands:
                    # compare squared values: the radicand is a difference of terms
                    # of size `scale`, so that is the scale of its rounding error
                    want = max(radicands[key], 0.0)
                    if value < 0 or abs(value * value - want) > REL_TOL * (1.0 + scale):
                        return f"{where}: value {value} != sqrt({want}) from numpy traces"
        if sorted(seen_keys, key=repr) != sorted(want_keys, key=repr):
            return "bound rows are not exactly E1-E10, sharp E5/E8 and WS-K for k = 1..n"
        return None

    def perturb(self, out: str) -> str:
        obj = json.loads(out)
        row = next(r for r in obj["bounds"] if r["equation"] == "E7")
        row["value"] = row["value"] * (1.0 + 1e-6)
        return json.dumps(obj)


class TracesSparse:
    """`traces` on connected sparse graphs (a ring plus random chords)."""

    name = "traces-sparse"
    sizes = (1000, 1000, 1000, 2000)
    reference_n = 1000
    names = ("tr(NL^2)", "tr(NL^4)", "tr(Q^2)", "tr(Q^4)")

    def cycle(self, rng: np.random.Generator, workdir: str) -> list[Command]:
        cmds = []
        for i, n in enumerate(self.sizes):
            edges = ring_with_chords(rng, n)
            path = os.path.join(workdir, f"{self.name}-{i}.txt")
            _write_graph(path, n, edges)
            cmds.append(Command(["traces", "--graph", path, "--format", "json"], n, edges))
        return cmds

    def check(self, cmd: Command, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        obj = _parse_json(out)
        if isinstance(obj, str):
            return obj
        if set(obj) != set(self.names):
            return f"trace names {sorted(obj)} != {sorted(self.names)}"
        mats = laplacians(cmd.n, cmd.edges)
        want = dict(zip(self.names, traces_2_4(mats["normalized"]) + traces_2_4(mats["signless"])))
        for name, w in want.items():
            for route in ("closed_form", "matrix_power"):
                if not _rel_close(obj[name].get(route), w):
                    return f"{name} {route} {obj[name].get(route)} != numpy {w}"
        return None

    def perturb(self, out: str) -> str:
        obj = json.loads(out)
        obj["tr(Q^4)"]["closed_form"] *= 1.0 + 1e-6
        return json.dumps(obj)


WORKLOADS = {w.name: w for w in (ReportDense(), TracesSparse())}
