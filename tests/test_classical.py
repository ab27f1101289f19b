import re
import warnings

import pytest
from hypothesis import given, settings

from lapbounds import (
    IsolatedVertexError,
    common_neighbors,
    eigenvalues_symmetric,
    generate_connected_gnp,
    li_liu,
    normalized_laplacian,
    oliveira_quadratic,
    oliveira_sqrt,
    parse_edge_list,
    rojo_soto,
    signless_laplacian,
)
from lapbounds import matrices
from lapbounds.graph import from_edges
from tests.conftest import (
    bit_identity_graphs,
    complete_graph,
    edge_sets,
    ring_with_chords,
)

K2 = complete_graph(2)
K3 = complete_graph(3)


def cycle(n):
    return from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


class TestOliveira:
    def test_quadratic_example2(self, example2):
        assert oliveira_quadratic(example2).value == pytest.approx(9.08, abs=0.005)

    def test_quadratic_small(self):
        assert oliveira_quadratic(K3).value == pytest.approx(4.0)
        assert oliveira_quadratic(K2).value == pytest.approx(2.0)

    def test_sqrt_example2(self, example2):
        assert oliveira_sqrt(example2).value == pytest.approx(9.74, abs=0.005)

    def test_sqrt_small(self):
        assert oliveira_sqrt(K3).value == pytest.approx(4.0)
        assert oliveira_sqrt(K2).value == pytest.approx(2.0)

    def test_isolated_vertex_skipped_with_warning(self):
        g = parse_edge_list("n=3\n1 2")
        with pytest.warns(UserWarning, match="degree 0"):
            b = oliveira_quadratic(g)
        assert b.value == pytest.approx(2.0)

    def test_all_isolated_rejected(self):
        g = from_edges(3, [])
        with pytest.raises(ValueError):
            oliveira_quadratic(g)


class TestLiLiu:
    def test_small_tight(self):
        assert li_liu(K3).value == pytest.approx(4.0)
        assert li_liu(K2).value == pytest.approx(2.0)

    def test_example2_corrected_value_is_valid_but_not_9_34(self, example2):
        b = li_liu(example2)
        lam1 = eigenvalues_symmetric(signless_laplacian(example2)).largest
        assert b.value >= lam1 - 1e-9
        assert b.variant == "corrected"
        assert abs(b.value - 9.34) > 0.01  # historical table value not reproduced


class TestRojoSoto:
    def test_example1(self, example1):
        assert rojo_soto(example1).value == pytest.approx(2.0, abs=1e-12)

    def test_k3_tight(self):
        b = rojo_soto(K3)
        assert b.value == pytest.approx(1.5, abs=1e-9)
        lam1 = eigenvalues_symmetric(normalized_laplacian(K3)).largest
        assert lam1 == pytest.approx(1.5, abs=1e-9)

    def test_k2(self):
        assert rojo_soto(K2).value == pytest.approx(2.0)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            rojo_soto(parse_edge_list("n=3\n1 2"))

    @pytest.mark.parametrize("seed", range(600, 620))
    def test_at_most_two(self, seed):
        g = generate_connected_gnp(4 + seed % 9, 0.5, seed)
        assert rojo_soto(g).value <= 2.0 + 1e-12


@pytest.mark.parametrize(
    "g,d",
    [(cycle(n), 2) for n in range(4, 9)] + [(complete_graph(n), n - 1) for n in range(2, 7)],
    ids=[f"C{n}" for n in range(4, 9)] + [f"K{n}" for n in range(2, 7)],
)
def test_regular_graph_bounds_collapse(g, d):
    assert oliveira_quadratic(g).value == pytest.approx(2 * d, abs=1e-12)
    assert oliveira_sqrt(g).value == pytest.approx(2 * d, abs=1e-12)


@pytest.mark.parametrize("seed", range(700, 740))
def test_upper_bounds_dominate_oracle(seed):
    g = generate_connected_gnp(4 + seed % 9, 0.5, seed)
    lam1_q = eigenvalues_symmetric(signless_laplacian(g)).largest
    lam1_nl = eigenvalues_symmetric(normalized_laplacian(g)).largest
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # connected graphs: no skip warnings
        assert oliveira_quadratic(g).value >= lam1_q - 1e-9
        assert oliveira_sqrt(g).value >= lam1_q - 1e-9
    assert li_liu(g).value >= lam1_q - 1e-9
    assert rojo_soto(g).value >= lam1_nl - 1e-9


def _reference_rojo_soto(g):
    """The all-pairs loop the pair-walk E4 replaced, verbatim; returns the value."""
    if g.n < 2:
        raise ValueError(f"n must be >= 2, got {g.n}")
    for v, d in enumerate(g.degrees, start=1):
        if d == 0:
            raise IsolatedVertexError(f"vertex {v} is isolated; bound undefined")
    best = None
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            ratio = common_neighbors(g, i, j) / max(g.degrees[i - 1], g.degrees[j - 1])
            if best is None or ratio < best:
                best = ratio
    return 2.0 - best


def _assert_same_e4(g):
    try:
        want = _reference_rojo_soto(g)
    except (ValueError, IsolatedVertexError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            rojo_soto(g)
        return
    got = rojo_soto(g).value
    assert type(got) is float
    assert got == want


@pytest.mark.parametrize("g", bit_identity_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_rojo_soto_bit_identical_to_pair_loop(g):
    _assert_same_e4(g)


def test_rojo_soto_takes_the_minimum_when_every_pair_shares_a_neighbour():
    # K_n and the wheel: every pair has a common neighbour, so E4 < 2
    rim = [(i, i + 1) for i in range(2, 7)] + [(2, 7)]
    wheel = from_edges(7, [(1, i) for i in range(2, 8)] + rim)
    for g in [complete_graph(n) for n in range(3, 9)] + [wheel]:
        assert rojo_soto(g).value < 2.0
        _assert_same_e4(g)


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_rojo_soto_bit_identical_at_any_block_size(monkeypatch, block):
    monkeypatch.setattr(matrices, "_BLOCK_WEDGES", block)
    for g in (complete_graph(12), cycle(9), ring_with_chords(120, 10, 120)):
        _assert_same_e4(g)


def test_rojo_soto_rejects_small_and_isolated_as_before():
    _assert_same_e4(from_edges(1, []))
    _assert_same_e4(from_edges(4, [(1, 2), (2, 3)]))


@given(edge_sets())
@settings(max_examples=200, deadline=None)
def test_rojo_soto_matches_loop_on_any_edge_set(g):
    _assert_same_e4(g)
