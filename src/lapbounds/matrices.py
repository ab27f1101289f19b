"""The four graph matrices and traces of their powers.

Traces of the second and fourth powers come two ways: products of the matrix
entries (trace_power) and closed forms over degrees and common neighborhoods.
The signless closed forms are the degree-based expressions that the squared
matrix entries dictate; see tr2_signless_closed / tr4_signless_closed. The
fourth-power closed forms visit only the vertex pairs that are adjacent or
share a neighbour (pair_tables), in O(sum_i d_i^2) time.

NL and Q of one graph share their sparsity pattern and their pairs, so the
symbolic work of tr(M^4) is done once per pattern and applied to both: one
pair walk serves every closed form (tr4_closed), and one symbolic product
serves every matrix power (fourth_power_traces). Both work a block of rows at
a time, so memory is O(block + nnz(M^2)).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from lapbounds.errors import IsolatedVertexError
from lapbounds.graph import Graph


def _require_positive_degrees(g: Graph) -> None:
    isolated = np.flatnonzero(g.indptr[1:] == g.indptr[:-1])
    if len(isolated):
        v = isolated[0] + 1
        raise IsolatedVertexError(f"vertex {v} is isolated; normalized Laplacian needs d_i >= 1")


def _csr_rows(g: Graph) -> np.ndarray:
    """The row (vertex) of each entry of g.indices."""
    return np.repeat(np.arange(g.n), np.diff(g.indptr))


def _kind_error(kind: str) -> ValueError:
    return ValueError(f"kind must be 'normalized' or 'signless', got {kind!r}")


class Entries(NamedTuple):
    """A matrix as 0-based (row, col, val) triples in row-major order."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]


def laplacian_entries(g: Graph, kind: str) -> Entries:
    """NL (kind "normalized"; all degrees >= 1) or Q (kind "signless"), diagonal included."""
    n, col = g.n, g.indices
    d, row = np.diff(g.indptr), _csr_rows(g)
    if kind == "normalized":
        _require_positive_degrees(g)
        w, diag = -1.0 / np.sqrt(d[row] * d[col]), np.ones(n)
    elif kind == "signless":
        w, diag = np.ones(len(col)), d.astype(np.float64)
    else:
        raise _kind_error(kind)
    ii = np.arange(n)
    row, col = np.concatenate((row, ii)), np.concatenate((col, ii))
    # two ascending runs of keys, the CSR's and the diagonal's: timsort merges them
    order = np.argsort(row * n + col, kind="stable")
    return Entries(row[order], col[order], np.concatenate((w, diag))[order], (n, n))


# the largest order of a dense matrix, and so of the Jacobi oracle: one solve
# of a ring-with-chords Laplacian takes about 8 s at n = 400 and 22 s at
# n = 512 (11 sweeps, 2-core x86 machine), and the time grows as n^3 times a
# slowly growing sweep count
MAX_DENSE_ORDER = 512


def dense_laplacian(g: Graph, kind: str) -> tuple[Entries, np.ndarray]:
    """laplacian_entries(g, kind) and the same matrix as an n x n array.

    Raises ValueError, before building anything, when n > MAX_DENSE_ORDER.
    """
    if g.n > MAX_DENSE_ORDER:
        raise ValueError(
            f"n = {g.n} is above {MAX_DENSE_ORDER}, the largest order of the dense "
            "matrices the Jacobi oracle solves"
        )
    m = laplacian_entries(g, kind)
    a = np.zeros(m.shape)
    a[m.row, m.col] = m.val
    return m, a


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
    return dense_laplacian(g, "normalized")[1]


def signless_laplacian(g: Graph) -> np.ndarray:
    """D + A; positive semidefinite."""
    return dense_laplacian(g, "signless")[1]


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
    argsort, the sort Graph's CSR is built with, since each further numpy kernel
    maps a few hundred kB of code into the process.
    """
    order = np.argsort(x, kind="stable")
    x = x[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    rank = np.empty(len(x), dtype=np.int64)
    rank[order] = np.cumsum(first) - 1
    return x[first], rank


def _row_blocks(indptr: np.ndarray, work: np.ndarray, per_block: int) -> np.ndarray:
    """Bounds 0 = a_0 < a_1 < ... = n that cut the rows into blocks of about per_block work.

    Row i holds the entries indptr[i]:indptr[i + 1], and entry s does work[s];
    a block starts at each row whose preceding rows cross a multiple of per_block.
    """
    before = np.concatenate(([0], np.cumsum(work)))[indptr[:-1]]  # work in rows < i
    return np.concatenate(([0], np.flatnonzero(np.diff(before // per_block)) + 1, [len(indptr) - 1]))


def pair_tables(g: Graph) -> Iterator[PairTable]:
    """Walk the wedges i - k - j (i < j) in O(sum_i d_i^2) time.

    Yields the pairs a block of rows i at a time, about _BLOCK_WEDGES wedges
    each, so that the blocks in order list every pair in row-major order.
    Every off-diagonal entry of NL^2 and Q^2 at a pair not listed is 0;
    isolated vertices are in no pair.
    """
    n, indptr, col = g.n, g.indptr, g.indices
    row = _csr_rows(g)
    # entry s = (i, k) goes on to the neighbours j > i of k, which sit at
    # positions start[s]:indptr[k + 1] of the neighbour lists; (k, i) is an
    # entry too, and its rank among them is its position
    start = _ranks(col * n + row)[1] + 1
    count = indptr[col + 1] - start
    bounds = _row_blocks(indptr, count, _BLOCK_WEDGES)
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


def _normalized_diagonal(g: Graph, d: np.ndarray) -> np.ndarray:
    """The diagonal of NL^2, 1 + sum_{j~i} 1/(d_i d_j), each sum in ascending j."""
    row = _csr_rows(g)
    # bincount adds in array order: each diagonal entry starts at 1.0
    return np.bincount(
        np.concatenate((np.arange(g.n), row)),
        weights=np.concatenate((np.ones(g.n), 1.0 / (d[row] * d[g.indices]))),
        minlength=g.n,
    )


def _signless_diagonal(g: Graph, d: np.ndarray) -> np.ndarray:
    """The diagonal of Q^2, d_i^2 + d_i."""
    return (d * d + d).astype(np.float64)


# per kind, the diagonal of M^2 and its off-diagonal entries at the pairs of a PairTable
_SQUARE_ENTRIES = {
    "normalized": (_normalized_diagonal, _normalized_off_diagonal),
    "signless": (_signless_diagonal, _signless_off_diagonal),
}


def _ordered_sum(x: np.ndarray, acc: float = 0.0) -> float:
    """acc + x[0] + x[1] + ..., added left to right as a Python loop would."""
    return float(np.cumsum(np.append(acc, x))[-1])


def _off_diagonal_squares(g: Graph, d: np.ndarray, entries: Sequence) -> list[float]:
    """For each function f in entries, the sum of f(d, t)^2 over every pair, in
    row-major order, from one walk of pair_tables(g)."""
    acc = [0.0] * len(entries)
    for t in pair_tables(g):
        for s, f in enumerate(entries):
            off = f(d, t)
            acc[s] = _ordered_sum(off * off, acc[s])
    return acc


# products per block of fourth_power_traces; a block's index arrays then take
# about 200 kB. Unblocked, the product for two matrices raised the peak resident
# memory of `traces` on 1000- and 2000-vertex ring-with-chords graphs from 38 to
# 45 MB, and ran no faster
_BLOCK_PRODUCTS = 4096


def fourth_power_traces(ms: Sequence[Entries]) -> list[float]:
    """tr(M^4) of each symmetric M in ms, all of one sparsity pattern.

    Each entry M[i, k] meets the entries M[k, j], j >= i, of row k: summed per
    (i, j), the products give the upper triangle of M^2 row by row (Gustavson's
    row-wise product), and tr(M^4) sums the squared entries of M^2, those above
    the diagonal twice. Which entries meet and how their products group depends
    only on the pattern, so that symbolic work is done once, a block of about
    _BLOCK_PRODUCTS products at a time, and only the products and their sums are
    formed per matrix. Time is O(sum_i (d_i + 1)^2) and memory
    O(_BLOCK_PRODUCTS + nnz(M^2)); no degree or common-neighbour formula is used.

    Raises ValueError unless every M has the row, col and shape of ms[0].
    """
    row, col, shape = ms[0].row, ms[0].col, ms[0].shape
    for m in ms[1:]:
        if m.shape != shape or not (np.array_equal(m.row, row) and np.array_equal(m.col, col)):
            raise ValueError("the matrices must share one sparsity pattern")
    n = shape[0]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n))))
    # transposing is its own inverse, so sorting the transposed keys finds each (k, i)
    start = np.argsort(col * n + row)
    count = indptr[col + 1] - start  # up to the end of row k
    squares = [[] for _ in ms]
    bounds = _row_blocks(indptr, count, _BLOCK_PRODUCTS)
    for a, b in zip(indptr[bounds[:-1]], indptr[bounds[1:]]):
        cnt = count[a:b]
        # product t of entry src[t] = (i, k) takes entry pos[t] of row k
        pos = np.repeat(start[a:b] - np.cumsum(cnt) + cnt, cnt)
        pos += np.arange(len(pos))
        src = np.repeat(np.arange(a, b), cnt)
        key = row[src] * n
        key += col[pos]
        # stable: each entry of M^2 sums its products in ascending k
        order = np.argsort(key, kind="stable")
        key, pos, src = key[order], pos[order], src[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        # only diagonal keys i n + i are multiples of n + 1; the rest count for (j, i) too
        weight = 1.0 + (key[starts] % (n + 1) != 0)
        for m, out in zip(ms, squares):
            m2 = np.add.reduceat(m.val[pos] * m.val[src], starts)
            m2 *= m2
            m2 *= weight
            out.append(m2)
    return [float(np.sum(np.concatenate(out))) for out in squares]


def trace_power(m: Entries, p: int) -> float:
    """tr(M^p) for p in {2, 4} of a symmetric M, from products of its entries.

    tr(M^2) sums the squared entries. tr(M^4) is fourth_power_traces((m,)):
    Gustavson's row-wise product forms M^2 a block of rows at a time, so memory
    is O(block + nnz(M^2)); to get tr(M^4) of several matrices of one pattern,
    call fourth_power_traces on all of them, which does the symbolic work once.
    """
    if p == 2:
        return float(np.sum(m.val * m.val))
    if p != 4:
        raise ValueError(f"p must be 2 or 4, got {p}")
    return fourth_power_traces((m,))[0]


def tr4_closed(g: Graph, kinds: Sequence[str]) -> list[float]:
    """tr(M^4) for each kind in kinds, NL ("normalized") or Q ("signless").

    Each trace sums the squared entries of M^2: its diagonal, then twice its
    off-diagonal entries at the pairs of one shared walk of pair_tables(g), in
    row-major order. Raises IsolatedVertexError when "normalized" is among the
    kinds and a vertex has degree 0.
    """
    for kind in kinds:
        if kind not in _SQUARE_ENTRIES:
            raise _kind_error(kind)
    if "normalized" in kinds:
        _require_positive_degrees(g)
    d = np.diff(g.indptr)
    terms = [_SQUARE_ENTRIES[kind] for kind in kinds]
    offs = _off_diagonal_squares(g, d, [off for _, off in terms])
    diags = [diagonal(g, d) for diagonal, _ in terms]
    return [_ordered_sum(x * x) + 2.0 * off for x, off in zip(diags, offs)]


def tr2_normalized_closed(g: Graph) -> float:
    """tr(NL^2) = n + 2 * sum over edges of 1/(d_i d_j)."""
    _require_positive_degrees(g)
    d = np.diff(g.indptr)
    u, v = g.edge_array.T
    return g.n + 2.0 * _ordered_sum(1.0 / (d[u] * d[v]))


def tr4_normalized_closed(g: Graph) -> float:
    """tr(NL^4) from the entries of NL^2.

    Diagonal of NL^2 is 1 + sum_{j~i} 1/(d_i d_j); the (i, j) off-diagonal is
    sum_{k in N_i∩N_j} 1/(d_k sqrt(d_i d_j)) minus 2/sqrt(d_i d_j) when i~j.
    Only pairs that are adjacent or share a neighbour have a nonzero entry.
    Every sum runs in ascending vertex order, so the result is bit-identical
    to summing over all pairs in row-major order.
    """
    return tr4_closed(g, ("normalized",))[0]


def tr2_signless_closed(g: Graph) -> float:
    """tr(Q^2) = sum_i (d_i^2 + d_i)."""
    d = np.diff(g.indptr)
    return _ordered_sum(d * d + d)


def tr4_signless_closed(g: Graph) -> float:
    """tr(Q^4) from the entries of Q^2.

    Diagonal of Q^2 is d_i^2 + d_i; the (i, j) off-diagonal is
    (d_i + d_j)[i~j] + |N_i ∩ N_j|, nonzero only on adjacent pairs and pairs
    with a common neighbour. Summed in row-major order, as a loop over all
    pairs would.
    """
    return tr4_closed(g, ("signless",))[0]
