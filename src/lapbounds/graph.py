"""Simple undirected graphs: parsing, degree queries, seeded random generation.

Vertex labels are 1-based in all I/O; internally vertices are 0-based indices.
A Graph keeps its edges as a sorted tuple and as arrays built once: the edge
array and the compressed sparse rows (CSR) of its neighbour lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from lapbounds.errors import EdgeListError, GenerationError

_MASK64 = (1 << 64) - 1

# rejection-sampling budget for generate_connected_gnp
_MAX_DRAWS = 10_000

# the largest vertex count: a Graph's O(n) arrays and degree tuple take 15 MB at
# the cap (31 MB while built); a larger n is refused before anything of size n exists
MAX_VERTICES = 1_000_000
_ABOVE_CAP = f"is above {MAX_VERTICES}, the largest vertex count lapbounds accepts (MAX_VERTICES)"


@dataclass(frozen=True)
class Graph:
    """Simple graph: no loops, no multi-edges, 1-based labels in I/O.

    ``edge_array``: the edges as sorted 0-based rows (u, v), u < v; vertex i
    has the ascending 0-based neighbours ``indices[indptr[i]:indptr[i + 1]]``.
    The arrays are read-only; (n, edges, degrees) define equality and hash.
    """

    n: int
    edges: tuple[tuple[int, int], ...]  # sorted (u, v) pairs with u < v, 1-based
    degrees: tuple[int, ...] = field(repr=False)
    edge_array: np.ndarray = field(repr=False, compare=False)
    indptr: np.ndarray = field(repr=False, compare=False)
    indices: np.ndarray = field(repr=False, compare=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _build(n: int, pairs) -> Graph:
    """The Graph on n vertices with the 1-based edges pairs (u != v, any order,
    repeats collapse), from one stable argsort, as in matrices._ranks."""
    if n > MAX_VERTICES:
        raise EdgeListError(f"n = {n} {_ABOVE_CAP}")
    u, v = (np.asarray(pairs, dtype=np.int64).reshape(-1, 2) - 1).T
    key = np.concatenate((u * n + v, v * n + u))
    key = key[np.argsort(key, kind="stable")]
    key = key[np.concatenate(([True], key[1:] != key[:-1]))] if len(key) else key
    row, indices = np.divmod(key, n)
    upper = row < indices
    edge_array = np.array((row[upper], indices[upper])).T
    degrees = np.bincount(row, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    for a in (edge_array, indptr, indices):
        a.flags.writeable = False
    u, v = (edge_array + 1).T.tolist()
    return Graph(n, tuple(zip(u, v)), tuple(degrees.tolist()), edge_array, indptr, indices)


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from an iterable of 1-based (u, v) pairs."""
    edges = list(edges)
    for u, v in edges:
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise EdgeListError(f"edge ({u}, {v}) outside vertex range 1..{n}")
    return _build(n, edges)


def _first_error(text: str) -> EdgeListError:
    """The error of the first bad line of text, found line by line."""
    seen_edge_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n=") and not seen_edge_line:
            try:
                if int(line[2:]) < 1:
                    return EdgeListError(f"line {lineno}: n must be positive")
            except ValueError:
                return EdgeListError(f"line {lineno}: bad n= directive {line!r}")
            continue
        seen_edge_line = True
        tokens = line.split()
        if len(tokens) != 2:
            return EdgeListError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            return EdgeListError(f"line {lineno}: non-integer vertex label in {line!r}")
        if u < 1 or v < 1:
            return EdgeListError(f"line {lineno}: vertex labels must be positive")
        if u == v:
            return EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        if max(u, v) > MAX_VERTICES:
            return EdgeListError(f"line {lineno}: vertex label {max(u, v)} {_ABOVE_CAP}")
    raise RuntimeError("every line of the edge list is well formed")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: lines "u v", '#' comments, blank lines skipped.

    An optional first directive line "n=<int>" fixes the vertex count;
    otherwise it is the largest label seen. Duplicate edges collapse. The
    first bad line raises EdgeListError with its number, and so does a label
    above MAX_VERTICES. All lines are checked at once; only a failed check
    walks the lines one by one (_first_error) to find the first bad one.
    """
    rows = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    start = 0  # past the n= directives and blank lines before the first edge line
    while start < len(rows) and (not rows[start] or rows[start][0].startswith("n=")):
        start += 1
    body = list(filter(None, rows[start:]))
    try:
        # int() reads "n= 5" as it reads "n=<any blanks>5"
        sizes = [int(" ".join(r)[2:]) for r in rows[:start] if r]
        flat = map(int, chain.from_iterable(body))
        labels = np.fromiter(flat, dtype=np.int64, count=2 * len(body)).reshape(-1, 2)
        ok = set(map(len, body)) <= {2} and min(sizes, default=1) >= 1
    except (ValueError, OverflowError):  # a bad token, or a label beyond int64
        ok = False
    del rows, body
    ok = ok and labels.min(initial=1) >= 1 and labels.max(initial=0) <= MAX_VERTICES
    if not (ok and np.all(labels[:, 0] != labels[:, 1])):
        raise _first_error(text)
    max_label = int(labels.max(initial=0))
    if sizes and sizes[-1] < max_label:
        raise EdgeListError(f"n={sizes[-1]} is smaller than the largest vertex label {max_label}")
    if not (sizes or max_label):
        raise EdgeListError("no edges and no n= directive")
    return _build(sizes[-1] if sizes else max_label, labels)


def to_edge_list(g: Graph) -> str:
    """Serialize a Graph so that parse_edge_list round-trips it exactly."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def common_neighbors(g: Graph, i: int, j: int) -> int:
    """|N_i ∩ N_j| for distinct 1-based vertices i, j."""
    if i == j:
        raise ValueError(f"vertices must be distinct, got i=j={i}")
    if not (1 <= i <= g.n) or not (1 <= j <= g.n):
        raise ValueError(f"vertex out of range 1..{g.n}: ({i}, {j})")
    a, b = (g.indices[g.indptr[v - 1] : g.indptr[v]] for v in (i, j))
    return len(np.intersect1d(a, b, assume_unique=True))


@dataclass(frozen=True)
class DegreeSummary:
    max_degree: int
    min_degree: int
    edge_count: int
    # vertex -> mean degree over its neighbors; only vertices with d_i > 0
    avg_neighbor_degree: dict[int, float]


def neighbour_degree_means(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 0-based vertices of positive degree, their degrees, and the mean degree
    of their neighbours (one rounding of an exact sum), in O(m) + n bytes of memory."""
    p = g.indptr
    (v,) = np.nonzero(p[1:] != p[:-1])
    d = p[v + 1] - p[v]
    # the rows of v hold every entry of g.indices, one row after the other
    sums = np.add.reduceat(p[g.indices + 1] - p[g.indices], p[v]) if len(v) else d
    return v, d, sums / d


def degree_summary(g: Graph) -> DegreeSummary:
    """Max/min degree, edge count, and per-vertex average neighbor degree."""
    v, _, mean = neighbour_degree_means(g)
    return DegreeSummary(
        max_degree=max(g.degrees),
        min_degree=min(g.degrees),
        edge_count=g.edge_count,
        avg_neighbor_degree=dict(zip((v + 1).tolist(), mean.tolist())),
    )


def is_connected(g: Graph) -> bool:
    seen = bytearray(g.n)
    stack = [0] if g.n else []
    while stack:
        v = stack.pop()
        seen[v] = 1
        for w in g.indices[g.indptr[v] : g.indptr[v + 1]].tolist():
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return g.n > 0 and 0 not in seen


class SplitMix64:
    """splitmix64 stream; identical output across platforms for a given seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        # 53 uniform bits in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        return self.next_u64() % bound


def generate_connected_gnp(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p) draw by rejection sampling from a splitmix64 stream.

    Deterministic: identical (n, p, seed) gives an identical edge set on any
    platform. Raises GenerationError after 10,000 rejected draws.
    """
    if not (2 <= n <= 128):
        raise ValueError(f"n must be in [2, 128], got {n}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must be in (0, 1], got {p}")
    rng = SplitMix64(seed)
    for _ in range(_MAX_DRAWS):
        pairs = [
            (u, v)
            for u in range(1, n)
            for v in range(u + 1, n + 1)
            if rng.next_double() < p
        ]
        g = _build(n, pairs)
        if min(g.degrees) >= 1 and is_connected(g):
            return g
    raise GenerationError(
        f"no connected graph in {_MAX_DRAWS} G({n}, {p}) draws; try a larger p"
    )
