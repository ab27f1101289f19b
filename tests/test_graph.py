import dataclasses
import hashlib
from itertools import accumulate

import numpy as np
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
from lapbounds.graph import MAX_VERTICES, from_edges, is_connected
from tests.conftest import bit_identity_graphs, edge_sets


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

    @pytest.mark.parametrize(
        "n, edges, connected",
        [(0, [], False), (1, [], True), (3, [(1, 2)], False), (3, [(3, 2), (2, 1)], True),
         (4, [(1, 2), (3, 4)], False), (4, [(2, 3), (3, 4)], False)],
    )
    def test_is_connected(self, n, edges, connected):
        assert is_connected(from_edges(n, edges)) is connected

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


# ---- the line-by-line parser, the reference for the bulk parse ---------------


def _reference_parse(text):
    """The per-line parser parse_edge_list replaced, verbatim but for the build.

    It has no vertex cap; the texts below keep every label far under it.
    """
    n_directive = None
    raw_edges = []
    seen_edge_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n=") and not seen_edge_line:
            try:
                n_directive = int(line[2:])
            except ValueError:
                raise EdgeListError(f"line {lineno}: bad n= directive {line!r}") from None
            if n_directive < 1:
                raise EdgeListError(f"line {lineno}: n must be positive")
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer vertex label in {line!r}") from None
        if u < 1 or v < 1:
            raise EdgeListError(f"line {lineno}: vertex labels must be positive")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        raw_edges.append((min(u, v), max(u, v)))
        seen_edge_line = True

    max_label = max((v for _, v in raw_edges), default=0)
    if n_directive is not None:
        if n_directive < max_label:
            raise EdgeListError(
                f"n={n_directive} is smaller than the largest vertex label {max_label}"
            )
        n = n_directive
    else:
        if max_label == 0:
            raise EdgeListError("no edges and no n= directive")
        n = max_label
    return from_edges(n, set(raw_edges))


# Arabic-Indic, fullwidth and Devanagari digits: int() reads them all
_DIGIT_SETS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९"]


@st.composite
def _labels(draw, low=-2, high=14, junk=True):
    """A vertex label as text: signs, leading zeros, underscores, other digits, junk."""
    value = draw(st.integers(low, high))
    digits = str(abs(value))
    forms = ["plain", "plain", "plus", "zeros", "underscore", "digits"] + ["junk"] * junk
    form = draw(st.sampled_from(forms))
    if form == "zeros":
        digits = "00" + digits
    elif form == "underscore":
        digits = "_".join(digits) if len(digits) > 1 else "0_" + digits
    elif form == "digits":
        table = draw(st.sampled_from(_DIGIT_SETS))
        digits = "".join(table[int(c)] for c in digits)
    elif form == "junk":
        return draw(st.sampled_from(["x", "1.0", "1__0", "_1", "--1", "n=3", "1e3", "0x1", "+"]))
    sign = "-" if value < 0 else ("+" if form == "plus" else "")
    return sign + digits


_BLANKS = st.sampled_from([" ", "  ", "\t", "\u3000", " \t "])


@st.composite
def _lines(draw):
    kinds = ["edge"] * 12 + ["bad edge", "tokens", "text"] + ["directive", "blank", "comment"] * 2
    kind = draw(st.sampled_from(kinds))
    if kind == "edge":  # a self-loop now and then
        line = draw(_labels(1, 9, junk=False)) + draw(_BLANKS) + draw(_labels(1, 9, junk=False))
    elif kind == "bad edge":
        line = draw(_labels()) + draw(_BLANKS) + draw(_labels())
    elif kind == "directive":
        line = "n=" + draw(st.sampled_from(["", " ", "\t"])) + draw(_labels(-1, 12))
    elif kind == "blank":
        line = draw(st.sampled_from(["", " ", "\t\t"]))
    elif kind == "comment":
        line = "#" + draw(st.text(max_size=6))
    elif kind == "tokens":  # one or three tokens
        line = draw(_BLANKS).join(draw(st.lists(_labels(1, 9), min_size=1, max_size=3)))
    else:
        line = draw(st.text(max_size=8))
    if draw(st.booleans()):
        line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", " # c"]))
    return line


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(_lines(), max_size=12))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"])
    return "".join(line + draw(ends) for line in lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except EdgeListError as exc:
        return f"EdgeListError: {exc}"


def _assert_arrays_match(g):
    """edge_array and the CSR hold exactly g.edges, neighbours ascending, read-only."""
    e = g.edge_array
    assert e.dtype == np.int64 and e.shape == (g.edge_count, 2)
    assert list(map(tuple, (e + 1).tolist())) == list(g.edges)
    assert g.indptr.tolist() == [0, *accumulate(g.degrees)]
    neighbours = [set() for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u - 1].add(v - 1)
        neighbours[v - 1].add(u - 1)
    for v in range(g.n):
        assert g.indices[g.indptr[v] : g.indptr[v + 1]].tolist() == sorted(neighbours[v])
    assert not any(a.flags.writeable for a in (e, g.indptr, g.indices))


@given(st.one_of(edge_list_texts(), st.text(max_size=40)))
@settings(max_examples=600, deadline=None)
def test_parse_matches_the_line_by_line_reference(text):
    got = _outcome(parse_edge_list, text)
    assert got == _outcome(_reference_parse, text)
    if not isinstance(got, str):
        _assert_arrays_match(got)


@pytest.mark.parametrize(
    "text",
    [
        "+3 1_0\n",  # signs and underscores
        "007 02\n2 7\n7 2\n",  # leading zeros, repeats in both orientations
        "١ ٢\n３ ४\n",  # non-ASCII digits
        "\n# c\nn=4\n\nn= 6\n1 2 # e\n",  # directives before the edges; the last wins
        "1 2\nn=6\n",  # a directive after an edge is an edge line
        "1 2\r\n2 3\x0c3 1\x85\n",  # every line break splitlines knows
        "1 2 3\n2 x\n",  # the first bad line wins
        "n=0\n1 x\n",
        "n=2\n2 3\n1 1\n",  # a line error comes before a count error
        "n=\n",
        "",
        "# nothing\n",
    ],
)
def test_parse_examples_match_the_reference(text):
    assert _outcome(parse_edge_list, text) == _outcome(_reference_parse, text)


# ---- the vertex cap ----------------------------------------------------------


class TestVertexCap:
    def test_cap_admits_the_target_sizes(self):
        assert MAX_VERTICES >= 10**6
        g = parse_edge_list(f"n={MAX_VERTICES}\n1 {MAX_VERTICES}\n")
        assert (g.n, g.edges, g.degrees[-1]) == (MAX_VERTICES, ((1, MAX_VERTICES),), 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"n={MAX_VERTICES + 1}\n1 2\n", f"n = {MAX_VERTICES + 1} is above {MAX_VERTICES}"),
            ("n=10000000000\n1 2\n", f"n = 10000000000 is above {MAX_VERTICES}"),
            (f"1 2\n2 {MAX_VERTICES + 1}\n", f"line 2: vertex label {MAX_VERTICES + 1} is above"),
            (f"1 {10**30}\n", f"line 1: vertex label {10**30} is above"),  # beyond int64
            (f"1 {10**30}\n1 x\n", f"line 1: vertex label {10**30} is above"),
            (f"1 x\n1 {10**30}\n", "line 1: non-integer vertex label"),
            (f"1 2 3\n1 {10**30}\n", "line 1: expected 'u v'"),
            (f"-{10**30} 1\n", "line 1: vertex labels must be positive"),
        ],
    )
    def test_parse_refuses_a_vertex_count_above_the_cap(self, text, message):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text)
        assert str(info.value).startswith(message)
        if "above" in message:
            assert str(info.value).endswith(
                "the largest vertex count lapbounds accepts (MAX_VERTICES)"
            )

    def test_from_edges_refuses_a_vertex_count_above_the_cap(self):
        with pytest.raises(EdgeListError, match="MAX_VERTICES"):
            from_edges(10**12, [(1, 2)])


# ---- the Graph contract ------------------------------------------------------


def _contract_graphs():
    return [from_edges(1, []), from_edges(5, [(4, 2)])] + bit_identity_graphs()[::9]


@pytest.mark.parametrize("g", _contract_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_arrays_match_the_edges_and_are_read_only(g):
    _assert_arrays_match(g)
    assert parse_edge_list(to_edge_list(g)) == g
    if g.edge_count:
        for a in (g.edge_array, g.indptr, g.indices):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


def test_equality_and_hash_ignore_the_arrays():
    g = parse_edge_list("1 2\n2 3\n")
    other = dataclasses.replace(
        g, edge_array=np.zeros((0, 2), np.int64), indptr=np.zeros(1, np.int64), indices=g.indices[:0]
    )
    assert other == g and hash(other) == hash(g)
    assert hash((g.n, g.edges)) == hash((3, ((1, 2), (2, 3))))
    assert parse_edge_list("1 2\n1 3\n") != g
    assert "edge_array" not in repr(g)


@given(edge_sets(max_n=12))
@settings(max_examples=100, deadline=None)
def test_arrays_match_on_any_edge_set(g):
    _assert_arrays_match(g)
    assert parse_edge_list(to_edge_list(g)) == g


# sha256 (first 16 hex digits) of to_edge_list(generate_connected_gnp(n, p, seed)),
# recorded from the set-based generator this one replaced
_GNP_GOLDEN = [
    (2, 1.0, 123, 1, "e0c94ca842d931fc"),
    (5, 0.3, 7, 5, "713b3cc466e6dd74"),
    (8, 0.4, 42, 13, "78c579d87e53f61e"),
    (12, 0.5, 42, 33, "49845b9be689b397"),
    (16, 0.2, 3, 21, "92866cf750eea0b2"),
    (32, 0.5, 1, 271, "652a4855a89f09ef"),
    (64, 0.1, 9, 224, "2f9eb87a6650630a"),
    (100, 0.5, 1, 2538, "21da5695692f99eb"),
    (128, 0.05, 2026, 390, "30e7846c334e6640"),
    (128, 0.5, 11, 4168, "850504167650e6d6"),
    (128, 0.9, 4, 7328, "f8c4fce9fe08d0a2"),
]


@pytest.mark.parametrize("n, p, seed, m, digest", _GNP_GOLDEN)
def test_generated_edge_sets_match_the_golden_values(n, p, seed, m, digest):
    g = generate_connected_gnp(n, p, seed)
    assert g.edge_count == m
    assert hashlib.sha256(to_edge_list(g).encode()).hexdigest()[:16] == digest
    _assert_arrays_match(g)
