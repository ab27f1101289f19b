import math

import pytest

from lapbounds import (
    InconsistentTracesError,
    eigenvalues_symmetric,
    generate_connected_gnp,
    graph_stats,
    kth_graph_bounds,
    normalized_bounds,
    normalized_laplacian,
    signless_bounds,
    signless_laplacian,
    trace_stats_psd,
    ws_extreme_intervals,
    ws_kth_interval,
)
from lapbounds.graph import from_edges
from tests.conftest import complete_graph


class TestTraceStats:
    def test_identity_matrix(self):
        st = trace_stats_psd(3.0, 3.0, 3)
        assert (st.m, st.s) == (1.0, 0.0)

    def test_k3_signless(self):
        st = trace_stats_psd(18.0, 258.0, 3)
        assert st.m == pytest.approx(6.0)
        assert st.s == pytest.approx(math.sqrt(50.0))

    def test_tiny_negative_variance_clamped(self):
        st = trace_stats_psd(2.0, 2.0 - 1e-13, 2)
        assert st.s == 0.0

    def test_inconsistent_traces(self):
        with pytest.raises(InconsistentTracesError):
            trace_stats_psd(10.0, 1.0, 2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            trace_stats_psd(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            trace_stats_psd(-1.0, 1.0, 3)


class TestExtremeIntervals:
    def test_zero_spread_collapses(self):
        lam1, lamn = ws_extreme_intervals(trace_stats_psd(3.0, 3.0, 3))
        assert lam1 == (1.0, 1.0)
        assert lamn == (1.0, 1.0)

    def test_k3_squared_signless(self):
        # B = Q(K3)^2 has spectrum {16, 1, 1}; both outer bounds are tight
        lam1, lamn = ws_extreme_intervals(trace_stats_psd(18.0, 258.0, 3))
        assert lam1 == pytest.approx((11.0, 16.0))
        assert lamn == pytest.approx((0.0, 1.0))

    def test_n2_exact(self):
        # B = diag(4, 1): m = 2.5, s = 1.5
        lam1, lamn = ws_extreme_intervals(trace_stats_psd(5.0, 17.0, 2))
        assert lam1 == pytest.approx((4.0, 4.0))
        assert lamn == pytest.approx((1.0, 1.0))


class TestKthInterval:
    def test_middle_k(self):
        st = trace_stats_psd(18.0, 258.0, 3)
        assert ws_kth_interval(st, 2) == pytest.approx((1.0, 11.0))

    def test_zero_spread_any_k(self):
        st = trace_stats_psd(5.0, 5.0, 5)
        for k in range(1, 6):
            assert ws_kth_interval(st, k) == (1.0, 1.0)

    def test_k1_matches_extreme(self):
        st = trace_stats_psd(18.0, 258.0, 3)
        assert ws_kth_interval(st, 1) == ws_extreme_intervals(st)[0]

    def test_upper_monotone_in_k(self):
        st = trace_stats_psd(18.0, 258.0, 3)
        uppers = [ws_kth_interval(st, k)[1] for k in range(1, 4)]
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ws_kth_interval(trace_stats_psd(2.0, 2.0, 2), 3)


class TestNormalizedBounds:
    def test_example1_values(self, example1):
        e5, e6, e7 = normalized_bounds(example1, "as_printed")
        assert e6.value == pytest.approx(1.34, abs=0.005)
        # 1.9397, cross-checked against the matrix-power traces; two-decimal
        # tables elsewhere show this entry truncated to 1.93
        assert e7.value == pytest.approx(1.9397123095878428, abs=1e-12)
        assert e5.value == e6.value  # identical right-hand sides as printed

    def test_k2_collapse(self):
        k2 = complete_graph(2)
        _, e6, e7 = normalized_bounds(k2)
        assert e6.value == pytest.approx(2.0, abs=1e-9)
        assert e7.value == pytest.approx(2.0, abs=1e-9)

    def test_sharp_variant_dominated(self, example1):
        printed = normalized_bounds(example1, "as_printed")[0]
        sharp = normalized_bounds(example1, "sharp")[0]
        assert sharp.value <= printed.value
        lam_n = eigenvalues_symmetric(normalized_laplacian(example1)).smallest
        assert sharp.value >= lam_n - 1e-9

    def test_unknown_variant(self, example1):
        with pytest.raises(ValueError):
            normalized_bounds(example1, "tight")


class TestSignlessBounds:
    def test_example2_values(self, example2):
        _, e9, e10 = signless_bounds(example2, "as_printed")
        assert e9.value == pytest.approx(4.58, abs=0.005)
        assert e10.value == pytest.approx(7.76, abs=0.005)

    def test_k3_tight_upper(self):
        e10 = signless_bounds(complete_graph(3))[2]
        assert e10.value == pytest.approx(4.0, abs=1e-12)

    def test_k3_sharp_lower_exact(self):
        e8 = signless_bounds(complete_graph(3), "sharp")[0]
        assert e8.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_graph_tightness(self, n):
        g = complete_graph(n)
        e10 = signless_bounds(g)[2]
        lam1 = eigenvalues_symmetric(signless_laplacian(g)).largest
        assert e10.value == pytest.approx(2 * n - 2, abs=1e-9)
        assert lam1 == pytest.approx(2 * n - 2, abs=1e-9)


class TestKthGraphBounds:
    def test_k3_normalized_middle(self):
        lo, hi = kth_graph_bounds(complete_graph(3), "normalized", 2)
        assert lo.value - 1e-9 <= 1.5 <= hi.value + 1e-9

    def test_clamped_non_negative(self):
        k2 = complete_graph(2)
        for kind in ("normalized", "signless"):
            lo, hi = kth_graph_bounds(k2, kind, 2)
            lam_n = eigenvalues_symmetric(
                normalized_laplacian(k2) if kind == "normalized" else signless_laplacian(k2)
            ).smallest
            assert hi.value >= 0.0
            assert hi.value >= lam_n - 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graph_containment(self, n):
        # the normalized lambda_n lower end m - s*sqrt(n-1) is exactly 0 on
        # K_n; rounding must not lift it above lambda_n = 0
        g = complete_graph(n)
        for kind, matrix in (
            ("normalized", normalized_laplacian(g)),
            ("signless", signless_laplacian(g)),
        ):
            s = eigenvalues_symmetric(matrix)
            for k in range(1, n + 1):
                lo, hi = kth_graph_bounds(g, kind, k)
                assert lo.value - 1e-9 <= s.values[k - 1] <= hi.value + 1e-9
        assert kth_graph_bounds(g, "normalized", n)[0].value == 0.0

    @pytest.mark.parametrize("size", range(2, 9))
    def test_equal_cliques_generic_k_containment(self, size):
        # two disjoint K_size: the generic lower end at the first zero
        # eigenvalue, k = n - 1, is exactly 0
        edges = [
            (off + i, off + j)
            for off in (0, size)
            for i in range(1, size + 1)
            for j in range(i + 1, size + 1)
        ]
        g = from_edges(2 * size, edges)
        s = eigenvalues_symmetric(normalized_laplacian(g))
        for k in range(1, g.n + 1):
            lo, hi = kth_graph_bounds(g, "normalized", k)
            assert lo.value - 1e-9 <= s.values[k - 1] <= hi.value + 1e-9
        assert kth_graph_bounds(g, "normalized", g.n - 1)[0].value == 0.0

    @pytest.mark.parametrize("seed", range(540, 546))
    def test_given_stats_match_recomputed(self, seed):
        # stats computed once and passed in give the same bounds, bit for bit
        g = generate_connected_gnp(4 + seed % 9, 0.5, seed)
        for kind, build in (("normalized", normalized_bounds), ("signless", signless_bounds)):
            st = graph_stats(g, kind)
            for variant in ("as_printed", "sharp"):
                assert build(g, variant, stats=st) == build(g, variant)
            for k in range(1, g.n + 1):
                assert kth_graph_bounds(g, kind, k, stats=st) == kth_graph_bounds(g, kind, k)

    def test_graph_stats_rejects_unknown_kind(self, example2):
        with pytest.raises(ValueError):
            graph_stats(example2, "adjacency")

    def test_k1_matches_extreme_bounds(self, example2):
        lo, hi = kth_graph_bounds(example2, "signless", 1)
        _, e9, e10 = signless_bounds(example2)
        assert lo.value == pytest.approx(e9.value, abs=1e-12)
        assert hi.value == pytest.approx(e10.value, abs=1e-12)


def _spectrum_stats(values):
    n = len(values)
    m = sum(values) / n
    var = sum(v * v for v in values) / n - m * m
    return m, math.sqrt(max(var, 0.0))


@pytest.mark.parametrize("seed", range(500, 540))
def test_bounds_and_spread_identities_on_random_graphs(seed):
    g = generate_connected_gnp(4 + seed % 9, 0.5, seed)
    for kind, matrix, build in (
        ("normalized", normalized_laplacian(g), normalized_bounds),
        ("signless", signless_laplacian(g), signless_bounds),
    ):
        s = eigenvalues_symmetric(matrix)
        lam1, lamn = s.largest, s.smallest

        e_lamn_printed, e_lo, e_hi = build(g, "as_printed")
        e_lamn_sharp = build(g, "sharp")[0]
        assert e_lo.value <= lam1 + 1e-9
        assert e_hi.value >= lam1 - 1e-9
        assert e_lamn_printed.value >= lamn - 1e-9
        assert e_lamn_sharp.value >= lamn - 1e-9
        assert e_lamn_sharp.value <= e_lamn_printed.value + 1e-12

        for k in range(1, g.n + 1):
            lo, hi = kth_graph_bounds(g, kind, k)
            assert lo.value - 1e-9 <= s.values[k - 1] <= hi.value + 1e-9

        # mean/spread identities of the eigenvalue vector
        m, sp = _spectrum_stats(s.values)
        lhs1 = sum((v - lamn) ** 2 for v in s.values)
        rhs1 = g.n * (sp * sp + (m - lamn) ** 2)
        lhs2 = sum((lam1 - v) ** 2 for v in s.values)
        rhs2 = g.n * (sp * sp + (lam1 - m) ** 2)
        assert lhs1 == pytest.approx(rhs1, rel=1e-8, abs=1e-10)
        assert lhs2 == pytest.approx(rhs2, rel=1e-8, abs=1e-10)
        half = sp / math.sqrt(g.n - 1)
        assert lamn <= m - half + 1e-9
        assert m + half <= lam1 + 1e-9
