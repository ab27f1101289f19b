"""The four graph matrices and traces of their powers.

Traces of the second and fourth powers come two ways: products of the matrix
entries (trace_power) and closed forms over degrees and common neighborhoods.
The signless closed forms are the degree-based expressions that the squared
matrix entries dictate; see tr2_signless_closed / tr4_signless_closed. The
fourth-power closed forms visit only the vertex pairs that are adjacent or
share a neighbour (pair_tables), in O(sum_i d_i^2) time.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from lapbounds.errors import IsolatedVertexError
from lapbounds.graph import Graph


def _require_positive_degrees(g: Graph) -> None:
    if 0 in g.degrees:
        v = g.degrees.index(0) + 1
        raise IsolatedVertexError(f"vertex {v} is isolated; normalized Laplacian needs d_i >= 1")


def _edge_array(g: Graph) -> np.ndarray:
    """The edges as an (m, 2) array of 0-based (u, v), u < v, in sorted order."""
    flat = chain.from_iterable(g.edges)
    return np.fromiter(flat, dtype=np.int64, count=2 * len(g.edges)).reshape(-1, 2) - 1


class Entries(NamedTuple):
    """A matrix as 0-based (row, col, val) triples in row-major order."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]


def laplacian_entries(g: Graph, kind: str) -> Entries:
    """NL (kind "normalized"; all degrees >= 1) or Q (kind "signless"), diagonal included."""
    d = np.array(g.degrees, dtype=np.int64)
    u, v = _edge_array(g).T
    if kind == "normalized":
        _require_positive_degrees(g)
        w, diag = -1.0 / np.sqrt(d[u] * d[v]), np.ones(g.n)
    elif kind == "signless":
        w, diag = np.ones(len(u)), d.astype(np.float64)
    else:
        raise ValueError(f"kind must be 'normalized' or 'signless', got {kind!r}")
    row = np.concatenate((u, v, np.arange(g.n)))
    col = np.concatenate((v, u, np.arange(g.n)))
    order = np.argsort(row * g.n + col, kind="stable")
    return Entries(row[order], col[order], np.concatenate((w, w, diag))[order], (g.n, g.n))


def _dense(m: Entries) -> np.ndarray:
    a = np.zeros(m.shape)
    a[m.row, m.col] = m.val
    return a


def adjacency(g: Graph) -> np.ndarray:
    """0/1 adjacency matrix with zero diagonal."""
    a = signless_laplacian(g)
    np.fill_diagonal(a, 0.0)
    return a


def laplacian(g: Graph) -> np.ndarray:
    """D - A; every row sums to zero."""
    m = -adjacency(g)
    np.fill_diagonal(m, g.degrees)
    return m


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Unit diagonal, -1/sqrt(d_i d_j) on edges; requires all degrees >= 1."""
    return _dense(laplacian_entries(g, "normalized"))


def signless_laplacian(g: Graph) -> np.ndarray:
    """D + A; positive semidefinite."""
    return _dense(laplacian_entries(g, "signless"))


def _neighbour_lists(e: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (vertex, neighbour) pairs of the edges e, by vertex, then by neighbour."""
    row = np.concatenate((e[:, 0], e[:, 1]))
    col = np.concatenate((e[:, 1], e[:, 0]))
    order = np.argsort(row * n + col, kind="stable")
    return row[order], col[order]


class PairTable(NamedTuple):
    """Pairs i < j that are adjacent or share a neighbour, and their wedges.

    ``i`` and ``j`` are the 0-based pairs in row-major order, ``adjacent``
    marks i ~ j and ``common`` counts |N_i ∩ N_j|. ``pair`` and ``centre``
    give, per wedge i - k - j, the index of its pair and its centre k; the
    wedges of each pair come in ascending k.
    """

    i: np.ndarray
    j: np.ndarray
    adjacent: np.ndarray
    common: np.ndarray
    pair: np.ndarray
    centre: np.ndarray


# wedges per block of pair_tables; in one block, the walk's temporaries on a
# G(64, 0.5) graph reach about 1.8 MB, where `report` peaks at about 31 MB
_BLOCK_WEDGES = 4096


def _ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of x, ascending, and the index of each x[s] among them.

    Not np.unique, which imports numpy.ma, nor np.searchsorted: one stable
    argsort, the sort _neighbour_lists does, since each further numpy kernel
    maps a few hundred kB of code into the process.
    """
    order = np.argsort(x, kind="stable")
    x = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    rank = np.empty(len(x), dtype=np.int64)
    rank[order] = np.cumsum(first) - 1
    return x[first], rank


def pair_tables(g: Graph) -> Iterator[PairTable]:
    """Walk the wedges i - k - j (i < j) in O(sum_i d_i^2) time.

    Yields the pairs a block of rows i at a time, about _BLOCK_WEDGES wedges
    each, so that the blocks in order list every pair in row-major order.
    Every off-diagonal entry of NL^2 and Q^2 at a pair not listed is 0;
    isolated vertices are in no pair.
    """
    n = g.n
    row, col = _neighbour_lists(_edge_array(g), n)
    indptr = np.concatenate(([0], np.cumsum(np.array(g.degrees, dtype=np.int64))))
    # entry s = (i, k) goes on to the neighbours j > i of k, which sit at
    # positions start[s]:indptr[k + 1] of the neighbour lists; (k, i) is an
    # entry too, and its rank among them is its position
    start = _ranks(col * n + row)[1] + 1
    count = indptr[col + 1] - start
    before = np.concatenate(([0], np.cumsum(count)))[indptr[:-1]]  # wedges in rows < i
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(before // _BLOCK_WEDGES)) + 1, [n]))
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = slice(indptr[a], indptr[b])
        r, c, cnt = row[rows], col[rows], count[rows]
        pos = np.repeat(start[rows] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        # the wedges run by i, then k, then j: each pair meets its centres k
        # in ascending order
        wedge_key = np.repeat(r, cnt) * n + col[pos]
        above = c > r
        keys, rank = _ranks(np.concatenate((wedge_key, r[above] * n + c[above])))
        pair = rank[: len(wedge_key)]
        adjacent = np.zeros(len(keys), dtype=bool)
        adjacent[rank[len(wedge_key) :]] = True
        common = np.bincount(pair, minlength=len(keys))
        yield PairTable(keys // n, keys % n, adjacent, common, pair, np.repeat(c, cnt))


def _normalized_off_diagonal(d: np.ndarray, t: PairTable) -> np.ndarray:
    """The (i, j) entries of NL^2 at the pairs of t; d holds the degrees."""
    root = np.sqrt(d[t.i] * d[t.j])
    # 1/(d_k root) per wedge; d_k root == root d_k exactly
    w = root[t.pair] * d[t.centre]
    np.divide(1.0, w, out=w)
    # bincount adds in array order, so each pair's sum runs in ascending k;
    # it returns integers when there are no wedges
    off = np.bincount(t.pair, weights=w, minlength=len(t.i)).astype(np.float64, copy=False)
    off[t.adjacent] -= 2.0 / root[t.adjacent]
    return off


def _signless_off_diagonal(d: np.ndarray, t: PairTable) -> np.ndarray:
    """The (i, j) entries of Q^2 at the pairs of t; d holds the degrees."""
    off = t.common.astype(np.float64)
    off[t.adjacent] += (d[t.i] + d[t.j])[t.adjacent]
    return off


def _ordered_sum(x: np.ndarray, acc: float = 0.0) -> float:
    """acc + x[0] + x[1] + ..., added left to right as a Python loop would."""
    return float(np.cumsum(np.append(acc, x))[-1])


def _off_diagonal_squares(g: Graph, d: np.ndarray, entries) -> float:
    """The sum of entries(d, t)^2 over every pair, in row-major order."""
    acc = 0.0
    for t in pair_tables(g):
        off = entries(d, t)
        acc = _ordered_sum(off * off, acc)
    return acc


def trace_power(m: Entries, p: int) -> float:
    """tr(M^p) for p in {2, 4} of a symmetric M, from products of its entries.

    tr(M^2) sums the squared entries. For p = 4 each entry M[i, k] meets the
    entries M[k, j], j >= i, of row k: summed per (i, j), the products give the
    upper triangle of M^2 row by row (Gustavson's row-wise product), and
    tr(M^4) sums the squared entries of M^2. Time and memory are
    O(sum_i (d_i + 1)^2); no degree or common-neighbour formula is used.
    """
    if p == 2:
        return float(np.sum(m.val * m.val))
    if p != 4:
        raise ValueError(f"p must be 2 or 4, got {p}")
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


def tr2_normalized_closed(g: Graph) -> float:
    """tr(NL^2) = n + 2 * sum over edges of 1/(d_i d_j)."""
    _require_positive_degrees(g)
    d = np.array(g.degrees, dtype=np.int64)
    u, v = _edge_array(g).T
    return g.n + 2.0 * _ordered_sum(1.0 / (d[u] * d[v]))


def tr4_normalized_closed(g: Graph) -> float:
    """tr(NL^4) from the entries of NL^2.

    Diagonal of NL^2 is 1 + sum_{j~i} 1/(d_i d_j); the (i, j) off-diagonal is
    sum_{k in N_i∩N_j} 1/(d_k sqrt(d_i d_j)) minus 2/sqrt(d_i d_j) when i~j.
    Only pairs that are adjacent or share a neighbour have a nonzero entry.
    Every sum runs in ascending vertex order, so the result is bit-identical
    to summing over all pairs in row-major order.
    """
    _require_positive_degrees(g)
    n = g.n
    d = np.array(g.degrees, dtype=np.int64)
    row, col = _neighbour_lists(_edge_array(g), n)
    # bincount adds in array order: each diagonal entry starts at 1.0
    diag = np.bincount(
        np.concatenate((np.arange(n), row)),
        weights=np.concatenate((np.ones(n), 1.0 / (d[row] * d[col]))),
        minlength=n,
    )
    off = _off_diagonal_squares(g, d, _normalized_off_diagonal)
    return _ordered_sum(diag * diag) + 2.0 * off


def tr2_signless_closed(g: Graph) -> float:
    """tr(Q^2) = sum_i (d_i^2 + d_i)."""
    d = np.array(g.degrees, dtype=np.int64)
    return _ordered_sum(d * d + d)


def tr4_signless_closed(g: Graph) -> float:
    """tr(Q^4) from the entries of Q^2.

    Diagonal of Q^2 is d_i^2 + d_i; the (i, j) off-diagonal is
    (d_i + d_j)[i~j] + |N_i ∩ N_j|, nonzero only on adjacent pairs and pairs
    with a common neighbour. Summed in row-major order, as a loop over all
    pairs would.
    """
    d = np.array(g.degrees, dtype=np.int64)
    diag = (d * d + d).astype(np.float64)
    off = _off_diagonal_squares(g, d, _signless_off_diagonal)
    return _ordered_sum(diag * diag) + 2.0 * off
