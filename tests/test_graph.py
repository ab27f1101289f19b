import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapbounds import (
    EdgeListError,
    GenerationError,
    common_neighbors,
    degree_summary,
    generate_connected_gnp,
    parse_edge_list,
    to_edge_list,
)
from lapbounds.graph import from_edges, is_connected


class TestParse:
    def test_example1_shape(self, example1):
        assert example1.n == 6
        assert example1.edge_count == 9
        assert example1.degrees == (2, 4, 3, 3, 4, 2)

    def test_single_edge(self):
        g = parse_edge_list("1 2")
        assert g.n == 2
        assert g.degrees == (1, 1)

    def test_directive_and_duplicate_collapse(self):
        g = parse_edge_list("n=4\n1 2\n1 2")
        assert g.n == 4
        assert g.edge_count == 1
        assert g.degrees == (1, 1, 0, 0)

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n1 2  # trailing\n\n2 3\n")
        assert g.edges == ((1, 2), (2, 3))

    def test_crlf(self):
        assert parse_edge_list("1 2\r\n2 3\r\n").n == 3

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("1 2\n3 3")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListError, match="non-integer"):
            parse_edge_list("1 x")

    def test_directive_too_small(self):
        with pytest.raises(EdgeListError, match="smaller"):
            parse_edge_list("n=2\n1 3")

    def test_round_trip(self, example1, example2):
        for g in (example1, example2):
            assert parse_edge_list(to_edge_list(g)) == g


class TestQueries:
    def test_common_neighbors_example1(self, example1):
        assert common_neighbors(example1, 1, 6) == 2  # {2, 5}
        assert common_neighbors(example1, 1, 2) == 0

    def test_common_neighbors_k2(self):
        assert common_neighbors(parse_edge_list("1 2"), 1, 2) == 0

    def test_common_neighbors_rejects_bad_args(self, example1):
        with pytest.raises(ValueError):
            common_neighbors(example1, 3, 3)
        with pytest.raises(ValueError):
            common_neighbors(example1, 1, 7)

    def test_degree_summary_example2(self, example2):
        s = degree_summary(example2)
        assert (s.max_degree, s.min_degree, s.edge_count) == (6, 1, 10)
        assert s.avg_neighbor_degree[1] == pytest.approx(14 / 6)

    def test_degree_summary_k2(self):
        s = degree_summary(parse_edge_list("1 2"))
        assert (s.max_degree, s.min_degree, s.edge_count) == (1, 1, 1)
        assert s.avg_neighbor_degree == {1: 1.0, 2: 1.0}

    def test_handshake(self, example1, example2):
        for g in (example1, example2):
            assert sum(g.degrees) == 2 * g.edge_count


class TestGenerator:
    def test_p_one_gives_complete(self):
        g = generate_connected_gnp(2, 1.0, 123)
        assert g.edges == ((1, 2),)
        g5 = generate_connected_gnp(5, 1.0, 7)
        assert g5.edge_count == 10

    def test_determinism(self):
        a = generate_connected_gnp(8, 0.4, 42)
        b = generate_connected_gnp(8, 0.4, 42)
        assert a.edges == b.edges
        assert is_connected(a)
        assert min(a.degrees) >= 1

    def test_budget_exhausted(self):
        with pytest.raises(GenerationError):
            generate_connected_gnp(8, 1e-4, 1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_connected_gnp(1, 0.5, 0)
        with pytest.raises(ValueError):
            generate_connected_gnp(5, 0.0, 0)
        with pytest.raises(ValueError, match=r"\[2, 128\]"):
            generate_connected_gnp(129, 0.5, 0)

    def test_n_100_draws_a_connected_graph(self):
        g = generate_connected_gnp(100, 0.5, 1)
        assert g.n == 100
        assert min(g.degrees) >= 1
        assert is_connected(g)
        assert generate_connected_gnp(100, 0.5, 1) == g

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_generated_graphs_satisfy_invariants(self, seed):
        g = generate_connected_gnp(7, 0.5, seed)
        assert sum(g.degrees) == 2 * g.edge_count
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                assert common_neighbors(g, i, j) == common_neighbors(g, j, i)
        s = degree_summary(g)
        for mi in s.avg_neighbor_degree.values():
            assert s.min_degree - 1e-12 <= mi <= s.max_degree + 1e-12
        assert parse_edge_list(to_edge_list(g)) == g


@given(
    edges=st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_from_edges_round_trip(edges):
    g = from_edges(9, edges)
    assert parse_edge_list(to_edge_list(g)) == g
    assert sum(g.degrees) == 2 * g.edge_count
