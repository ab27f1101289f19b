import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from lapbounds import (
    IsolatedVertexError,
    adjacency,
    common_neighbors,
    fourth_power_traces,
    generate_connected_gnp,
    laplacian,
    laplacian_entries,
    normalized_laplacian,
    parse_edge_list,
    signless_laplacian,
    trace_power,
    tr2_normalized_closed,
    tr2_signless_closed,
    tr4_closed,
    tr4_normalized_closed,
    tr4_signless_closed,
)
from lapbounds.cli import _traces_rows
from lapbounds.graph import from_edges
from lapbounds import matrices
from lapbounds.matrices import (
    Entries,
    _normalized_off_diagonal,
    _require_positive_degrees,
    _signless_off_diagonal,
    pair_tables,
)
from tests.conftest import (
    bit_identity_graphs,
    complete_graph,
    edge_sets,
    neighbour_sets,
    perfect_matching,
    ring_with_chords,
    star_graph,
)

K2 = parse_edge_list("1 2")
K3 = complete_graph(3)
P3 = parse_edge_list("1 2\n2 3")


def test_adjacency():
    assert np.array_equal(adjacency(K2), [[0, 1], [1, 0]])
    a3 = adjacency(K3)
    assert np.array_equal(a3, np.ones((3, 3)) - np.eye(3))


def test_adjacency_example1(example1):
    assert adjacency(example1).sum() == 18


def test_laplacian():
    assert np.array_equal(laplacian(K2), [[1, -1], [-1, 1]])
    assert np.array_equal(np.diag(laplacian(P3)), [1, 2, 1])
    assert np.allclose(laplacian(P3).sum(axis=1), 0.0)


def test_normalized_laplacian():
    assert np.allclose(normalized_laplacian(K2), [[1, -1], [-1, 1]])
    nl3 = normalized_laplacian(K3)
    assert np.allclose(np.diag(nl3), 1.0)
    assert nl3[0, 1] == pytest.approx(-0.5)


def test_normalized_laplacian_example1_entry(example1):
    nl = normalized_laplacian(example1)
    assert nl[0, 1] == pytest.approx(-1 / math.sqrt(8))


def test_normalized_laplacian_isolated_vertex():
    g = parse_edge_list("n=3\n1 2")
    with pytest.raises(IsolatedVertexError, match="vertex 3"):
        normalized_laplacian(g)


def test_signless_laplacian():
    assert np.array_equal(signless_laplacian(K3), [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.array_equal(signless_laplacian(K2), [[1, 1], [1, 1]])


def test_signless_diagonal_example2(example2):
    assert np.array_equal(np.diag(signless_laplacian(example2)), [6, 2, 3, 3, 3, 2, 1])


def test_dense_builders_stop_above_the_order_cap():
    cap = matrices.MAX_DENSE_ORDER
    assert cap >= 400
    assert signless_laplacian(from_edges(cap, [(1, 2)])).shape == (cap, cap)
    big = from_edges(cap + 1, [(1, 2)])
    for build in (signless_laplacian, adjacency, laplacian):
        with pytest.raises(ValueError, match=f"n = {cap + 1} is above {cap}"):
            build(big)


def test_trace_power_known_values():
    assert trace_power(laplacian_entries(K2, "normalized"), 2) == pytest.approx(4.0)
    q3 = laplacian_entries(K3, "signless")
    assert trace_power(q3, 2) == pytest.approx(18.0)
    assert trace_power(q3, 4) == pytest.approx(258.0)
    for p in (1, 3):
        with pytest.raises(ValueError):
            trace_power(q3, p)
    with pytest.raises(ValueError):
        laplacian_entries(K3, "adjacency")


class TestClosedForms:
    def test_tr2_normalized(self, example1):
        assert tr2_normalized_closed(K2) == pytest.approx(4.0)
        assert tr2_normalized_closed(K3) == pytest.approx(4.5)
        assert tr2_normalized_closed(example1) == pytest.approx(71 / 9)

    def test_tr4_normalized(self, example1):
        assert tr4_normalized_closed(K2) == pytest.approx(16.0)
        assert tr4_normalized_closed(K3) == pytest.approx(
            trace_power(laplacian_entries(K3, "normalized"), 4), abs=1e-12
        )
        assert tr4_normalized_closed(example1) == pytest.approx(
            trace_power(laplacian_entries(example1, "normalized"), 4), rel=1e-9
        )

    def test_tr2_signless(self, example2):
        assert tr2_signless_closed(K3) == pytest.approx(18.0)
        assert tr2_signless_closed(K2) == pytest.approx(4.0)
        assert tr2_signless_closed(example2) == pytest.approx(92.0)

    def test_tr4_signless(self, example2):
        assert tr4_signless_closed(K3) == pytest.approx(258.0)
        assert tr4_signless_closed(K2) == pytest.approx(16.0)
        assert tr4_signless_closed(example2) == pytest.approx(
            trace_power(laplacian_entries(example2, "signless"), 4), rel=1e-9
        )

    def test_isolated_vertex_rejected(self):
        g = parse_edge_list("n=3\n1 2")
        with pytest.raises(IsolatedVertexError):
            tr2_normalized_closed(g)
        with pytest.raises(IsolatedVertexError):
            tr4_normalized_closed(g)


def _random_graphs(count, seed0=1000):
    return [
        generate_connected_gnp(4 + seed % 9, 0.5, seed) for seed in range(seed0, seed0 + count)
    ]


@pytest.mark.parametrize("g", _random_graphs(100), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_closed_forms_match_matrix_powers(g):
    nl = laplacian_entries(g, "normalized")
    q = laplacian_entries(g, "signless")
    assert tr2_normalized_closed(g) == pytest.approx(trace_power(nl, 2), rel=1e-9)
    assert tr4_normalized_closed(g) == pytest.approx(trace_power(nl, 4), rel=1e-9)
    assert tr2_signless_closed(g) == pytest.approx(trace_power(q, 2), rel=1e-9)
    assert tr4_signless_closed(g) == pytest.approx(trace_power(q, 4), rel=1e-9)


@pytest.mark.parametrize("g", _random_graphs(20, seed0=2000), ids=lambda g: f"n{g.n}")
def test_structural_identities(g):
    lap = laplacian(g)
    nl = normalized_laplacian(g)
    d_half = np.diag(np.sqrt(g.degrees))
    assert np.max(np.abs(d_half @ nl @ d_half - lap)) <= 1e-12
    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12
    assert np.trace(adjacency(g)) == 0.0
    assert np.trace(signless_laplacian(g)) == pytest.approx(sum(g.degrees))
    assert np.trace(nl) == pytest.approx(g.n)


# ---- bit identity with the per-pair and per-edge loops ----------------------


def _reference_require_positive_degrees(g):
    """The per-vertex loop _require_positive_degrees replaced, verbatim."""
    for v, d in enumerate(g.degrees, start=1):
        if d == 0:
            raise IsolatedVertexError(
                f"vertex {v} is isolated; normalized Laplacian needs d_i >= 1"
            )


def _reference_tr2_normalized(g):
    """The per-edge loop tr2_normalized_closed replaced, verbatim."""
    _reference_require_positive_degrees(g)
    acc = 0.0
    for u, v in g.edges:
        acc += 1.0 / (g.degrees[u - 1] * g.degrees[v - 1])
    return g.n + 2.0 * acc


def _reference_tr2_signless(g):
    """The per-vertex loop tr2_signless_closed replaced, verbatim."""
    acc = 0.0
    for d in g.degrees:
        acc += d * d + d
    return acc


def _reference_tr4_normalized(g):
    """The all-pairs loop the pair-walk closed form replaced, verbatim."""
    _require_positive_degrees(g)
    d = g.degrees
    nbr = neighbour_sets(g)
    total = 0.0
    for i in range(g.n):
        diag = 1.0
        for j in sorted(nbr[i]):
            diag += 1.0 / (d[i] * d[j - 1])
        total += diag * diag
    off = 0.0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            root = math.sqrt(d[i] * d[j])
            entry = 0.0
            for k in sorted(nbr[i] & nbr[j]):
                entry += 1.0 / (d[k - 1] * root)
            if (j + 1) in nbr[i]:
                entry -= 2.0 / root
            off += entry * entry
    return total + 2.0 * off


def _reference_tr4_signless(g):
    """The all-pairs loop the pair-walk closed form replaced, verbatim."""
    d = g.degrees
    nbr = neighbour_sets(g)
    total = 0.0
    for i in range(g.n):
        diag = float(d[i] * d[i] + d[i])
        total += diag * diag
    off = 0.0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            entry = float(len(nbr[i] & nbr[j]))
            if (j + 1) in nbr[i]:
                entry += d[i] + d[j]
            off += entry * entry
    return total + 2.0 * off


def _reference_adjacency(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u - 1, v - 1] = 1.0
        a[v - 1, u - 1] = 1.0
    return a


def _reference_laplacian(g):
    m = -_reference_adjacency(g)
    for v in range(g.n):
        m[v, v] = float(g.degrees[v])
    return m


def _reference_normalized_laplacian(g):
    _require_positive_degrees(g)
    m = np.zeros((g.n, g.n))
    for u, v in g.edges:
        w = -1.0 / math.sqrt(g.degrees[u - 1] * g.degrees[v - 1])
        m[u - 1, v - 1] = w
        m[v - 1, u - 1] = w
    np.fill_diagonal(m, 1.0)
    return m


def _reference_signless_laplacian(g):
    m = _reference_adjacency(g)
    for v in range(g.n):
        m[v, v] = float(g.degrees[v])
    return m


_PAIRS = [
    (tr4_normalized_closed, _reference_tr4_normalized),
    (tr4_signless_closed, _reference_tr4_signless),
]
_LOOPS = [
    (_require_positive_degrees, _reference_require_positive_degrees),
    (tr2_normalized_closed, _reference_tr2_normalized),
    (tr2_signless_closed, _reference_tr2_signless),
]
_BUILDERS = [
    (adjacency, _reference_adjacency),
    (laplacian, _reference_laplacian),
    (normalized_laplacian, _reference_normalized_laplacian),
    (signless_laplacian, _reference_signless_laplacian),
]


def _assert_same(fn, ref, g):
    try:
        want = ref(g)
    except IsolatedVertexError as exc:
        with pytest.raises(IsolatedVertexError, match=f"^{re.escape(str(exc))}$"):
            fn(g)
        return
    got = fn(g)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    else:
        assert type(got) is type(want)
        assert got == want


@pytest.mark.parametrize("g", bit_identity_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_tr4_closed_bit_identical_to_pair_loops(g):
    for fn, ref in _PAIRS:
        _assert_same(fn, ref, g)


@pytest.mark.parametrize("g", bit_identity_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_tr2_closed_and_degree_check_bit_identical_to_loops(g):
    for fn, ref in _LOOPS:
        _assert_same(fn, ref, g)


@pytest.mark.parametrize("g", bit_identity_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_builders_equal_to_edge_loops(g):
    for fn, ref in _BUILDERS:
        _assert_same(fn, ref, g)


@pytest.mark.parametrize("seed", range(5))
def test_signless_with_isolated_vertices(seed):
    g = from_edges(12 + seed, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)][: 2 + seed])
    assert min(g.degrees) == 0
    _assert_same(tr4_signless_closed, _reference_tr4_signless, g)
    q = laplacian_entries(g, "signless")
    assert trace_power(q, 2) == tr2_signless_closed(g)
    assert trace_power(q, 4) == tr4_signless_closed(g)
    with pytest.raises(IsolatedVertexError):
        tr4_normalized_closed(g)
    with pytest.raises(IsolatedVertexError) as want:
        _reference_require_positive_degrees(g)
    with pytest.raises(IsolatedVertexError, match=f"^{re.escape(str(want.value))}$"):
        laplacian_entries(g, "normalized")


def test_single_vertex():
    g = from_edges(1, [])
    assert tr4_signless_closed(g) == _reference_tr4_signless(g) == 0.0
    q = laplacian_entries(g, "signless")
    assert trace_power(q, 2) == trace_power(q, 4) == 0.0
    with pytest.raises(IsolatedVertexError, match="vertex 1 is isolated"):
        tr4_normalized_closed(g)
    with pytest.raises(IsolatedVertexError, match="vertex 1 is isolated"):
        laplacian_entries(g, "normalized")
    for fn, ref in _BUILDERS:
        _assert_same(fn, ref, g)


@given(edge_sets())
@settings(max_examples=200, deadline=None)
def test_closed_forms_and_builders_match_loops_on_any_edge_set(g):
    for fn, ref in _PAIRS + _LOOPS + _BUILDERS:
        _assert_same(fn, ref, g)


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize(
    "g",
    [complete_graph(5), star_graph(7), ring_with_chords(40, 6, 40)],
    ids=["K5", "star7", "ring40"],
)
def test_pair_tables_list_the_nonzero_entries_of_the_squares(monkeypatch, g, block):
    monkeypatch.setattr(matrices, "_BLOCK_WEDGES", block)
    d = np.array(g.degrees, dtype=np.int64)
    q2 = signless_laplacian(g) @ signless_laplacian(g)
    nl2 = normalized_laplacian(g) @ normalized_laplacian(g)
    adj = adjacency(g)
    keys = []
    nbr = neighbour_sets(g)
    for t in pair_tables(g):
        keys.extend(t.i * g.n + t.j)
        assert np.array_equal(_signless_off_diagonal(d, t), q2[t.i, t.j])
        assert np.allclose(
            _normalized_off_diagonal(d, t), nl2[t.i, t.j], rtol=0.0, atol=1e-14
        )
        assert np.array_equal(t.adjacent, adj[t.i, t.j] == 1.0)
        assert [int(c) for c in t.common] == [
            common_neighbors(g, i + 1, j + 1) for i, j in zip(t.i, t.j)
        ]
        # each pair's wedges are its common neighbours, in ascending order
        for p, (i, j) in enumerate(zip(t.i, t.j)):
            centres = [int(k) + 1 for k in t.centre[t.pair == p]]
            assert centres == sorted(nbr[i] & nbr[j])
    assert np.all(np.diff(keys) > 0)  # row-major, no repeats
    iu, ju = np.triu_indices(g.n, 1)
    listed = np.isin(iu * g.n + ju, keys)
    assert np.all(q2[iu[~listed], ju[~listed]] == 0.0)
    assert np.all(nl2[iu[~listed], ju[~listed]] == 0.0)


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_bit_identical_at_any_block_size(monkeypatch, block):
    monkeypatch.setattr(matrices, "_BLOCK_WEDGES", block)
    for g in (ring_with_chords(120, 10, 120), complete_graph(12), star_graph(9)):
        for fn, ref in _PAIRS:
            _assert_same(fn, ref, g)


_KIND_ORDERS = [
    ("normalized",),
    ("signless",),
    ("normalized", "signless"),
    ("signless", "normalized"),
]
_REFERENCE_TR4 = {"normalized": _reference_tr4_normalized, "signless": _reference_tr4_signless}


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
@pytest.mark.parametrize(
    "g",
    [
        ring_with_chords(120, 10, 120),
        complete_graph(12),
        star_graph(9),
        perfect_matching(10),
        from_edges(1, []),
        from_edges(9, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)]),
    ],
    ids=["ring120", "K12", "star9", "matching10", "n1", "isolated"],
)
def test_tr4_closed_one_walk_equals_the_pair_loops(monkeypatch, g, block):
    monkeypatch.setattr(matrices, "_BLOCK_WEDGES", block)
    for kinds in _KIND_ORDERS:
        _assert_same(
            lambda g: tr4_closed(g, kinds), lambda g: [_REFERENCE_TR4[k](g) for k in kinds], g
        )
        if min(g.degrees) > 0 or kinds == ("signless",):
            assert all(type(t) is float for t in tr4_closed(g, kinds))


def test_tr4_closed_checks_degrees_only_for_the_normalized_kind():
    g = from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert tr4_closed(g, ("signless",)) == [_reference_tr4_signless(g)]
    with pytest.raises(IsolatedVertexError) as want:
        _reference_require_positive_degrees(g)
    for kinds in [k for k in _KIND_ORDERS if "normalized" in k]:
        with pytest.raises(IsolatedVertexError, match=f"^{re.escape(str(want.value))}$"):
            tr4_closed(g, kinds)
    with pytest.raises(ValueError, match="'adjacency'"):
        tr4_closed(K3, ("signless", "adjacency"))


# ---- the sparse matrix-power route ------------------------------------------


_KINDS = [
    ("normalized", tr2_normalized_closed, tr4_normalized_closed),
    ("signless", tr2_signless_closed, tr4_signless_closed),
]


def _route_graphs():
    """The bit-identity families, n = 1 and perfect matchings, which have no wedges."""
    return bit_identity_graphs() + [from_edges(1, [])] + [perfect_matching(n) for n in (6, 64)]


@pytest.mark.parametrize("g", _route_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
def test_sparse_route_matches_dense_products_and_closed_forms(g):
    for kind, tr2, tr4 in _KINDS:
        if kind == "normalized" and min(g.degrees) == 0:
            with pytest.raises(IsolatedVertexError):
                laplacian_entries(g, kind)
            continue
        e = laplacian_entries(g, kind)
        assert e.shape == (g.n, g.n)
        assert np.all(np.diff(e.row * g.n + e.col) > 0)  # row-major, no repeats
        assert np.array_equal(e.row[e.row == e.col], np.arange(g.n))  # every diagonal
        m = normalized_laplacian(g) if kind == "normalized" else signless_laplacian(g)
        m2 = m @ m
        t2, t4 = trace_power(e, 2), trace_power(e, 4)
        assert type(t2) is float and type(t4) is float
        assert t2 == pytest.approx(float(np.trace(m2)), rel=1e-13, abs=0.0)
        assert t4 == pytest.approx(float(np.trace(m2 @ m2)), rel=1e-13, abs=0.0)
        if kind == "signless":
            # integer entries: every partial sum is an exact integer
            assert (t2, t4) == (tr2(g), tr4(g))
        else:
            assert t2 == pytest.approx(tr2(g), rel=1e-12, abs=0.0)
            assert t4 == pytest.approx(tr4(g), rel=1e-12, abs=0.0)


def _reference_trace_power4(m):
    """The unblocked one-matrix p = 4 body of trace_power, verbatim.

    fourth_power_traces replaced it.
    """
    n = m.shape[0]
    # transposing is its own inverse, so sorting the transposed keys finds each (k, i)
    start = np.argsort(m.col * n + m.row)
    count = np.cumsum(np.bincount(m.row, minlength=n))[m.col] - start  # up to the end of row k
    # product t of entry s = (i, k) takes entry pos[t] of row k
    pos = np.repeat(start - np.cumsum(count) + count, count)
    pos += np.arange(len(pos))
    key = m.col[pos]
    key += np.repeat(m.row * n, count)
    prod = m.val[pos]
    del pos
    prod *= np.repeat(m.val, count)
    # stable: each entry of M^2 sums its products in ascending k
    order = np.argsort(key, kind="stable")
    key = key[order]
    prod = prod[order]
    del order
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    m2 = np.add.reduceat(prod, np.flatnonzero(first))
    del prod
    m2 *= m2
    # only diagonal keys i n + i are multiples of n + 1; the rest count for (j, i) too
    m2[key[first] % (n + 1) != 0] *= 2.0
    return float(np.sum(m2))


def _adjacency_entries(g):
    """A as (row, col, val) triples: an isolated vertex leaves its row empty."""
    a = adjacency(g)
    row, col = np.nonzero(a)
    return Entries(row.astype(np.int64), col.astype(np.int64), a[row, col], a.shape)


def _power_route_matrices(g):
    """Every matrix of g the power route takes, NL only when no vertex is isolated."""
    kinds = ("normalized", "signless") if min(g.degrees) > 0 else ("signless",)
    return [laplacian_entries(g, kind) for kind in kinds]


@pytest.mark.parametrize(
    "g",
    _route_graphs()
    + [star_graph(n) for n in (4, 33, 200)]
    + [from_edges(12 + s, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)][: 2 + s]) for s in range(5)],
    ids=lambda g: f"n{g.n}e{g.edge_count}",
)
def test_fourth_power_traces_bit_identical_to_the_unblocked_product(monkeypatch, g):
    ms = _power_route_matrices(g)
    want = [_reference_trace_power4(m) for m in ms]
    for block in (1, 7, 1 << 30):
        monkeypatch.setattr(matrices, "_BLOCK_PRODUCTS", block)
        got = fourth_power_traces(ms)
        assert all(type(t) is float for t in got)
        assert got == want
        assert [fourth_power_traces((m,))[0] for m in ms] == want
        assert [trace_power(m, 4) for m in ms] == want


@pytest.mark.parametrize("block", [1, 7, 1 << 30])
def test_fourth_power_traces_with_empty_rows(monkeypatch, block):
    monkeypatch.setattr(matrices, "_BLOCK_PRODUCTS", block)
    for g in (from_edges(9, [(2, 3), (3, 4), (2, 4), (6, 7)]), from_edges(3, [])):
        a = _adjacency_entries(g)
        dense = adjacency(g)
        got = fourth_power_traces((a,))[0]
        assert got == _reference_trace_power4(a)
        assert got == float(np.trace(np.linalg.matrix_power(dense, 4)))


def test_fourth_power_traces_rejects_mismatched_patterns():
    k3, p3 = laplacian_entries(K3, "signless"), laplacian_entries(P3, "signless")
    with pytest.raises(ValueError, match="one sparsity pattern"):
        fourth_power_traces((k3, p3))
    wider = k3._replace(shape=(4, 4))
    with pytest.raises(ValueError, match="one sparsity pattern"):
        fourth_power_traces((k3, wider))
    assert fourth_power_traces((k3, k3._replace(val=2.0 * k3.val))) == [258.0, 16 * 258.0]


def test_traces_rows_allocate_less_than_one_dense_matrix():
    g = ring_with_chords(4000, 8, 4000)
    tracemalloc.start()
    try:
        _traces_rows(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8
