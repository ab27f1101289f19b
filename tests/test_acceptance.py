"""Acceptance suite: one criterion per test, each prints a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from lapbounds import (
    eigenvalues_symmetric,
    generate_connected_gnp,
    kth_graph_bounds,
    laplacian_entries,
    li_liu,
    normalized_bounds,
    normalized_laplacian,
    oliveira_quadratic,
    oliveira_sqrt,
    rojo_soto,
    signless_bounds,
    signless_laplacian,
    trace_power,
    tr2_normalized_closed,
    tr2_signless_closed,
    tr4_normalized_closed,
    tr4_signless_closed,
)
from lapbounds.graph import SplitMix64
from lapbounds.verify import all_passed, render_table, run_verify
from tests.conftest import complete_graph

PRINTED_STEP = 0.01  # one unit in the last of two printed decimals
PRINTED_TOL = 0.005  # half-ulp of two printed decimals
SLACK = 1e-9


def _e7_from_traces(t2, t4, n):
    m = t2 / n
    s = math.sqrt(t4 / n - m * m)
    return math.sqrt(m + s * math.sqrt(n - 1))


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def random_corpus():
    # 200 seeded connected graphs, n in [4, 12], shared by criteria 3-5
    stream = SplitMix64(20140601)
    graphs = []
    for _ in range(200):
        n = 4 + stream.next_below(9)
        graphs.append(generate_connected_gnp(n, 0.5, stream.next_u64()))
    return graphs


def test_criterion_1_example1_reproduction(example1):
    t0 = time.perf_counter()
    lam1 = eigenvalues_symmetric(normalized_laplacian(example1)).largest
    e4 = rojo_soto(example1).value
    _, e6, e7 = normalized_bounds(example1, "as_printed")
    elapsed = time.perf_counter() - t0
    assert lam1 == pytest.approx(1.86, abs=PRINTED_TOL)
    assert e4 == pytest.approx(2.00, abs=PRINTED_TOL)
    assert e6.value == pytest.approx(1.34, abs=PRINTED_TOL)
    assert elapsed < 1.0
    # The table mixes printing rules. lam1, E4 and E6 are rounded, and so is
    # example2's lam1(Q) = 7.66866 -> 7.67. E7 is truncated: it computes to
    # 1.93971..., which truncates, but does not round, to the printed 1.93.
    # A truncated entry means printed <= value < printed + one last-place
    # unit, an interval as wide as the rounded check's +-0.005.
    assert 1.93 <= e7.value < 1.93 + PRINTED_STEP, (
        f"E7 computes to {e7.value:.6f}; the truncated table entry is 1.93"
    )
    # E7 = sqrt(m + s*sqrt(n-1)) for B = NL^2, with m and s from matrix-power
    # traces; the library eigensolver's spectrum is only a cross-check.
    nl = normalized_laplacian(example1)
    entries = laplacian_entries(example1, "normalized")
    n = example1.n
    assert e7.value == pytest.approx(
        _e7_from_traces(trace_power(entries, 2), trace_power(entries, 4), n), abs=1e-12
    )
    spectrum = np.linalg.eigvalsh(nl)
    assert e7.value == pytest.approx(
        _e7_from_traces(float(np.sum(spectrum**2)), float(np.sum(spectrum**4)), n),
        abs=1e-12,
    )
    _report(
        1,
        f"lam1={lam1:.4f} E4={e4:.4f} E6={e6.value:.4f} E7={e7.value:.4f} in {elapsed:.3f}s",
    )


def test_criterion_2_example2_reproduction(example2):
    t0 = time.perf_counter()
    lam1 = eigenvalues_symmetric(signless_laplacian(example2)).largest
    e1 = oliveira_quadratic(example2).value
    e2 = oliveira_sqrt(example2).value
    e3 = li_liu(example2)
    _, e9, e10 = signless_bounds(example2, "as_printed")
    elapsed = time.perf_counter() - t0
    assert lam1 == pytest.approx(7.67, abs=PRINTED_TOL)
    assert e1 == pytest.approx(9.08, abs=PRINTED_TOL)
    assert e2 == pytest.approx(9.74, abs=PRINTED_TOL)
    assert e9.value == pytest.approx(4.58, abs=PRINTED_TOL)
    assert e10.value == pytest.approx(7.76, abs=PRINTED_TOL)
    # corrected E3: valid upper bound, flagged, and not the historical 9.34
    assert e3.value >= lam1 - SLACK
    assert e3.variant == "corrected"
    assert abs(e3.value - 9.34) > PRINTED_TOL
    assert elapsed < 1.0
    _report(
        2,
        f"lam1={lam1:.4f} E1={e1:.4f} E2={e2:.4f} E9={e9.value:.4f} "
        f"E10={e10.value:.4f} E3={e3.value:.4f} (flagged) in {elapsed:.3f}s",
    )


def test_criterion_3_trace_oracle_equivalence(random_corpus):
    worst = 0.0
    for g in random_corpus:
        nl = laplacian_entries(g, "normalized")
        q = laplacian_entries(g, "signless")
        for closed, power in (
            (tr2_normalized_closed(g), trace_power(nl, 2)),
            (tr4_normalized_closed(g), trace_power(nl, 4)),
            (tr2_signless_closed(g), trace_power(q, 2)),
            (tr4_signless_closed(g), trace_power(q, 4)),
        ):
            worst = max(worst, abs(closed - power) / abs(power))
    assert worst <= 1e-9
    _report(3, f"800 trace pairs, worst relative error {worst:.3e}")


def test_criterion_4_and_5_bound_validity_and_identities(random_corpus):
    violations = 0
    worst_slack = math.inf
    worst_ident = 0.0
    for g in random_corpus:
        for kind, matrix, build in (
            ("normalized", normalized_laplacian(g), normalized_bounds),
            ("signless", signless_laplacian(g), signless_bounds),
        ):
            s = eigenvalues_symmetric(matrix)
            lam1, lamn = s.largest, s.smallest
            slacks = []
            e_lamn, e_lo, e_hi = build(g, "as_printed")
            e_lamn_sharp = build(g, "sharp")[0]
            slacks += [
                lam1 - e_lo.value,
                e_hi.value - lam1,
                e_lamn.value - lamn,
                e_lamn_sharp.value - lamn,
            ]
            if kind == "signless":
                slacks += [
                    oliveira_quadratic(g).value - lam1,
                    oliveira_sqrt(g).value - lam1,
                    li_liu(g).value - lam1,
                ]
            else:
                slacks.append(rojo_soto(g).value - lam1)
            for k in range(1, g.n + 1):
                lo, hi = kth_graph_bounds(g, kind, k)
                slacks += [s.values[k - 1] - lo.value, hi.value - s.values[k - 1]]
            for sl in slacks:
                worst_slack = min(worst_slack, sl)
                if sl < -SLACK:
                    violations += 1

            # criterion 5: sum-of-squares identities on the same spectra
            n = s.n
            m = sum(s.values) / n
            var = sum(v * v for v in s.values) / n - m * m
            lhs1 = sum((v - lamn) ** 2 for v in s.values)
            rhs1 = n * (var + (m - lamn) ** 2)
            lhs2 = sum((lam1 - v) ** 2 for v in s.values)
            rhs2 = n * (var + (lam1 - m) ** 2)
            scale = max(abs(rhs1), abs(rhs2), 1e-12)
            worst_ident = max(worst_ident, abs(lhs1 - rhs1) / scale, abs(lhs2 - rhs2) / scale)
    assert violations == 0
    assert worst_ident <= 1e-8
    _report(4, f"zero violations over 200 graphs, worst slack {worst_slack:.3e}")
    _report(5, f"identities hold, worst relative error {worst_ident:.3e}")


def test_criterion_6_tightness_witnesses():
    for n in range(2, 7):
        g = complete_graph(n)
        e10 = signless_bounds(g, "as_printed")[2]
        lam1 = eigenvalues_symmetric(signless_laplacian(g)).largest
        assert e10.value == pytest.approx(2 * n - 2, abs=SLACK)
        assert lam1 == pytest.approx(2 * n - 2, abs=SLACK)
    _, e6, e7 = normalized_bounds(complete_graph(2), "as_printed")
    assert e6.value == pytest.approx(2.0, abs=SLACK)
    assert e7.value == pytest.approx(2.0, abs=SLACK)
    k3 = complete_graph(3)
    e4 = rojo_soto(k3).value
    lam1_k3 = eigenvalues_symmetric(normalized_laplacian(k3)).largest
    assert e4 == pytest.approx(1.5, abs=SLACK)
    assert lam1_k3 == pytest.approx(1.5, abs=SLACK)
    _report(6, "E10(K_n)=2n-2 for n=2..6; K2 E6=E7=2; E4(K3)=1.5")


def test_criterion_7_verify_determinism():
    out1 = render_table(run_verify(4, 10, 25, 0.5, 42))
    out2 = render_table(run_verify(4, 10, 25, 0.5, 42))
    assert out1 == out2
    assert all_passed(run_verify(4, 10, 25, 0.5, 42))
    _report(7, "verify output byte-identical across reruns")


def test_criterion_8_runtime_budget(record_property):
    # wall-clock of the whole suite is enforced by the session timer below;
    # here we re-run the heaviest single piece and check it is far under budget
    t0 = time.perf_counter()
    run_verify(4, 12, 50, 0.5, 42)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, f"50-trial verify sweep in {elapsed:.2f}s (budget 30s)")
