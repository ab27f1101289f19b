from pathlib import Path

import pytest
from hypothesis import strategies as st

from lapbounds import parse_edge_list
from lapbounds.graph import SplitMix64, from_edges

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def example1():
    return parse_edge_list((FIXTURES / "example1.txt").read_text())


@pytest.fixture(scope="session")
def example2():
    return parse_edge_list((FIXTURES / "example2.txt").read_text())


def neighbour_sets(g):
    """The 1-based neighbour set of each vertex, read from the CSR of g."""
    return [frozenset((g.indices[a:b] + 1).tolist()) for a, b in zip(g.indptr[:-1], g.indptr[1:])]


def complete_graph(n):
    return from_edges(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def star_graph(n):
    return from_edges(n, [(1, i) for i in range(2, n + 1)])


def perfect_matching(n):
    """n/2 disjoint edges: no two edges share a vertex, so no wedges."""
    return from_edges(n, [(i, i + 1) for i in range(1, n, 2)])


def gnp_graph(n, p, seed):
    """G(n, p) draw on a splitmix64 stream; may be disconnected or have isolated vertices."""
    rng = SplitMix64(seed)
    return from_edges(
        n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.next_double() < p]
    )


def ring_with_chords(n, avg_degree, seed):
    """A ring 1..n plus distinct random chords, n * avg_degree / 2 edges in all."""
    rng = SplitMix64(seed)
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(edges) < n * avg_degree // 2:
        u, v = 1 + rng.next_below(n), 1 + rng.next_below(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, edges)


@st.composite
def edge_sets(draw, max_n=16):
    """A graph on 1..n with an arbitrary edge set, isolated vertices allowed."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])


def bit_identity_graphs():
    """Graph families whose closed forms must equal the per-pair loops exactly."""
    graphs = [
        gnp_graph(n, p, 100 * n + round(10 * p))
        for n in range(2, 65, 3)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    # K_100: a single row holds more wedges than one block of the pair walk
    graphs += [complete_graph(n) for n in list(range(2, 13)) + [100]]
    graphs += [star_graph(n) for n in (2, 3, 5, 9, 17)]
    graphs += [perfect_matching(n) for n in (2, 4, 10, 32)]
    graphs += [ring_with_chords(400, 8, 400)]
    return graphs
