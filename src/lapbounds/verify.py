"""Randomized invariant suite over seeded connected G(n, p) graphs.

Each invariant accumulates a worst-case metric: for slack-style checks the
minimum signed slack (>= -threshold passes), for error-style checks the
maximum error (<= threshold passes). Fully deterministic for a fixed seed;
per-trial graph seeds come from a splitmix64 stream over the master seed.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from lapbounds.classical import li_liu, oliveira_quadratic, oliveira_sqrt, rojo_soto
from lapbounds.eig import eigenvalues_symmetric
from lapbounds.graph import Graph, SplitMix64, from_edges, generate_connected_gnp
from lapbounds.matrices import (
    adjacency,
    dense_laplacian,
    laplacian,
    normalized_laplacian,
    signless_laplacian,
    trace_power,
    tr2_normalized_closed,
    tr2_signless_closed,
    tr4_normalized_closed,
    tr4_signless_closed,
)
from lapbounds.trace_bounds import (
    kth_graph_bounds,
    normalized_bounds,
    signless_bounds,
    trace_stats_psd,
)

# metric direction per check style
SLACK = "slack"  # pass iff worst >= -threshold
ERROR = "error"  # pass iff worst <= threshold


@dataclass
class Invariant:
    name: str
    style: str
    threshold: float
    checks: int = 0
    failures: int = 0
    worst: float = field(default=None)  # type: ignore[assignment]

    def record(self, metric: float) -> None:
        self.checks += 1
        if self.style == SLACK:
            ok = metric >= -self.threshold
            if self.worst is None or metric < self.worst:
                self.worst = metric
        else:
            ok = metric <= self.threshold
            if self.worst is None or metric > self.worst:
                self.worst = metric
        if not ok:
            self.failures += 1

    @property
    def passed(self) -> bool:
        return self.checks > 0 and self.failures == 0


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _cycle(n: int) -> Graph:
    return from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


class VerificationSuite:
    def __init__(self):
        self.invariants: dict[str, Invariant] = {}

    def inv(self, name: str, style: str, threshold: float) -> Invariant:
        if name not in self.invariants:
            self.invariants[name] = Invariant(name, style, threshold)
        return self.invariants[name]

    # ---- per-graph checks -------------------------------------------------

    def check_graph(self, g: Graph) -> None:
        entries, mats = {}, {}
        for kind in ("normalized", "signless"):
            entries[kind], mats[kind] = dense_laplacian(g, kind)
        closed = {
            "normalized": (tr2_normalized_closed(g), tr4_normalized_closed(g)),
            "signless": (tr2_signless_closed(g), tr4_signless_closed(g)),
        }
        power = {kind: (trace_power(m, 2), trace_power(m, 4)) for kind, m in entries.items()}
        self._check_traces(closed, power)
        self._check_matrices(g, mats)
        spectra = self._check_spectra(g, mats, power)
        self._check_spread_identities(spectra)
        stats = {kind: trace_stats_psd(t2, t4, g.n) for kind, (t2, t4) in closed.items()}
        self._check_bounds(g, spectra, stats)

    def _check_traces(self, closed, power) -> None:
        inv = self.inv("trace-closed-vs-power", ERROR, 1e-9)
        for kind in closed:
            for c, p in zip(closed[kind], power[kind]):
                inv.record(_rel_err(c, p))

    def _check_matrices(self, g: Graph, mats) -> None:
        a = adjacency(g)
        lap = laplacian(g)
        nl = mats["normalized"]
        q = mats["signless"]
        d_half = np.diag([math.sqrt(d) for d in g.degrees])
        conj = self.inv("conjugation-recovers-laplacian", ERROR, 1e-12)
        conj.record(float(np.max(np.abs(d_half @ nl @ d_half - lap))))
        rows = self.inv("laplacian-row-sums-zero", ERROR, 1e-12)
        rows.record(float(np.max(np.abs(lap.sum(axis=1)))))
        tr = self.inv("trace-identities", ERROR, 1e-12)
        tr.record(abs(float(np.trace(a))))
        tr.record(abs(float(np.trace(q)) - sum(g.degrees)))
        tr.record(abs(float(np.trace(nl)) - g.n))

    def _check_spectra(self, g: Graph, mats, power):
        spectra = {}
        moments = self.inv("spectrum-moments-match-traces", ERROR, 1e-8)
        ranges = self.inv("spectrum-ranges", SLACK, 1e-9)
        for kind, m in mats.items():
            s = eigenvalues_symmetric(m, origin=kind)
            spectra[kind] = s
            moments.record(_rel_err(sum(s.values), float(np.trace(m))))
            moments.record(_rel_err(sum(v * v for v in s.values), power[kind][0]))
            ranges.record(s.smallest)  # PSD: lambda_n >= 0
            top = 2.0 if kind == "normalized" else 2.0 * max(g.degrees)
            ranges.record(top - s.largest)
        return spectra

    def _check_spread_identities(self, spectra) -> None:
        ident = self.inv("spread-sum-of-squares-identities", ERROR, 1e-8)
        sandwich = self.inv("mean-spread-sandwich", SLACK, 1e-9)
        for s in spectra.values():
            vals = s.values
            n = s.n
            m = sum(vals) / n
            var = sum(v * v for v in vals) / n - m * m
            sp = math.sqrt(max(var, 0.0))
            lam1, lamn = vals[0], vals[-1]
            lhs1 = sum((v - lamn) ** 2 for v in vals)
            rhs1 = n * (var + (m - lamn) ** 2)
            lhs2 = sum((lam1 - v) ** 2 for v in vals)
            rhs2 = n * (var + (lam1 - m) ** 2)
            scale = max(abs(rhs1), abs(rhs2), 1e-12)
            ident.record(abs(lhs1 - rhs1) / scale)
            ident.record(abs(lhs2 - rhs2) / scale)
            half = sp / math.sqrt(n - 1)
            sandwich.record((m - half) - lamn)
            sandwich.record(lam1 - (m + half))

    def _check_bounds(self, g: Graph, spectra, stats) -> None:
        validity = self.inv("bound-validity", SLACK, 1e-9)
        dominance = self.inv("sharp-variant-dominates", SLACK, 1e-12)
        kth = self.inv("kth-eigenvalue-containment", SLACK, 1e-9)
        rojo_cap = self.inv("rojo-soto-at-most-2", SLACK, 1e-12)

        for kind, build in (("normalized", normalized_bounds), ("signless", signless_bounds)):
            s = spectra[kind]
            printed = build(g, "as_printed", stats=stats[kind])
            sharp = build(g, "sharp", stats=stats[kind])
            lamn_printed, lower, upper = printed
            lamn_sharp = sharp[0]
            validity.record(s.largest - lower.value)
            validity.record(upper.value - s.largest)
            validity.record(lamn_printed.value - s.smallest)
            validity.record(lamn_sharp.value - s.smallest)
            dominance.record(lamn_printed.value - lamn_sharp.value)
            for k in range(1, g.n + 1):
                lo, hi = kth_graph_bounds(g, kind, k, stats=stats[kind])
                lam_k = s.values[k - 1]
                kth.record(lam_k - lo.value)
                kth.record(hi.value - lam_k)

        lam1_q = spectra["signless"].largest
        lam1_nl = spectra["normalized"].largest
        validity.record(oliveira_quadratic(g).value - lam1_q)
        validity.record(oliveira_sqrt(g).value - lam1_q)
        validity.record(li_liu(g).value - lam1_q)
        e4 = rojo_soto(g)
        validity.record(e4.value - lam1_nl)
        rojo_cap.record(2.0 - e4.value)

    # ---- fixed-graph checks -----------------------------------------------

    def check_fixed_families(self) -> None:
        kn_spec = self.inv("complete-graph-normalized-spectrum", ERROR, 1e-9)
        for n in range(2, 9):
            s = eigenvalues_symmetric(normalized_laplacian(_complete(n)))
            expect = [n / (n - 1)] * (n - 1) + [0.0]
            kn_spec.record(max(abs(a - b) for a, b in zip(s.values, expect)))

        bipartite = self.inv("bipartite-signless-equals-laplacian-spectrum", ERROR, 1e-8)
        fams = [from_edges(n, [(i, i + 1) for i in range(1, n)]) for n in (2, 3, 4, 5)]  # paths
        fams += [from_edges(n, [(1, i) for i in range(2, n + 1)]) for n in (3, 4, 5)]  # stars
        fams += [_cycle(n) for n in (4, 6, 8)]
        for g in fams:
            sq = eigenvalues_symmetric(signless_laplacian(g))
            sl = eigenvalues_symmetric(laplacian(g))
            bipartite.record(max(abs(a - b) for a, b in zip(sq.values, sl.values)))

        tight = self.inv("complete-graph-signless-upper-tight", ERROR, 1e-9)
        for n in range(2, 7):
            g = _complete(n)
            e10 = signless_bounds(g, "as_printed")[2]
            lam1 = eigenvalues_symmetric(signless_laplacian(g)).largest
            tight.record(abs(e10.value - (2 * n - 2)))
            tight.record(abs(lam1 - (2 * n - 2)))

        regular = self.inv("regular-graph-degree-bounds-collapse", ERROR, 1e-12)
        for g, d in [(_cycle(n), 2) for n in range(4, 9)] + [
            (_complete(n), n - 1) for n in range(2, 7)
        ]:
            regular.record(abs(oliveira_quadratic(g).value - 2 * d))
            regular.record(abs(oliveira_sqrt(g).value - 2 * d))

        witnesses = self.inv("small-graph-witnesses", ERROR, 1e-9)
        k2 = _complete(2)
        _, e6, e7 = normalized_bounds(k2, "as_printed")
        witnesses.record(abs(e6.value - 2.0))
        witnesses.record(abs(e7.value - 2.0))
        k3 = _complete(3)
        witnesses.record(abs(rojo_soto(k3).value - 1.5))
        witnesses.record(
            abs(eigenvalues_symmetric(normalized_laplacian(k3)).largest - 1.5)
        )


def run_verify(
    n_min: int, n_max: int, trials: int, p: float, seed: int
) -> list[Invariant]:
    """Run the full invariant suite; deterministic for fixed arguments."""
    if not (2 <= n_min <= n_max <= 128):
        raise ValueError(f"need 2 <= n_min <= n_max <= 128, got {n_min}, {n_max}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    suite = VerificationSuite()
    stream = SplitMix64(seed)
    for _ in range(trials):
        n = n_min + stream.next_below(n_max - n_min + 1)
        g = generate_connected_gnp(n, p, stream.next_u64())
        suite.check_graph(g)
    suite.check_fixed_families()
    return list(suite.invariants.values())


def all_passed(results: list[Invariant]) -> bool:
    return all(r.passed for r in results)


def render_table(results: list[Invariant]) -> str:
    out = io.StringIO()
    header = ["invariant", "style", "checks", "failures", "worst"]
    rows = [header] + [
        [r.name, r.style, str(r.checks), str(r.failures), f"{r.worst:.3e}"]
        for r in results
    ]
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    for row in rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    status = "PASS" if all_passed(results) else "FAIL"
    out.write(f"result: {status} ({len(results)} invariants)\n")
    return out.getvalue()


def render_csv(results: list[Invariant]) -> str:
    lines = ["invariant,style,checks,failures,worst"]
    lines.extend(
        f"{r.name},{r.style},{r.checks},{r.failures},{r.worst:.3e}" for r in results
    )
    return "\n".join(lines) + "\n"


def render_json(results: list[Invariant]) -> str:
    obj = {
        "passed": all_passed(results),
        "invariants": [
            {
                "name": r.name,
                "style": r.style,
                "checks": r.checks,
                "failures": r.failures,
                "worst": float(f"{r.worst:.3e}"),
            }
            for r in results
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
