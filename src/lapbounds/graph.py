"""Simple undirected graphs: parsing, degree queries, seeded random generation.

Vertex labels are 1-based in all I/O; internally vertices are 0-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lapbounds.errors import EdgeListError, GenerationError

_MASK64 = (1 << 64) - 1

# rejection-sampling budget for generate_connected_gnp
_MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Graph:
    """Simple graph: no loops, no multi-edges, 1-based labels in I/O."""

    n: int
    edges: tuple[tuple[int, int], ...]  # sorted (u, v) pairs with u < v, 1-based
    neighbor_sets: tuple[frozenset[int], ...] = field(repr=False)
    degrees: tuple[int, ...] = field(repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _build(n: int, edge_set: set[tuple[int, int]]) -> Graph:
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_set:
        neighbors[u - 1].add(v)
        neighbors[v - 1].add(u)
    return Graph(
        n=n,
        edges=tuple(sorted(edge_set)),
        neighbor_sets=tuple(frozenset(s) for s in neighbors),
        degrees=tuple(len(s) for s in neighbors),
    )


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from an iterable of 1-based (u, v) pairs."""
    edge_set: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise EdgeListError(f"edge ({u}, {v}) outside vertex range 1..{n}")
        edge_set.add((min(u, v), max(u, v)))
    return _build(n, edge_set)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: lines "u v", '#' comments, blank lines skipped.

    An optional first directive line "n=<int>" fixes the vertex count;
    otherwise it is the largest label seen. Duplicate edges collapse.
    """
    n_directive: int | None = None
    raw_edges: list[tuple[int, int]] = []
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
    return _build(n, set(raw_edges))


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
    return len(g.neighbor_sets[i - 1] & g.neighbor_sets[j - 1])


@dataclass(frozen=True)
class DegreeSummary:
    max_degree: int
    min_degree: int
    edge_count: int
    # vertex -> mean degree over its neighbors; only vertices with d_i > 0
    avg_neighbor_degree: dict[int, float]


def degree_summary(g: Graph) -> DegreeSummary:
    """Max/min degree, edge count, and per-vertex average neighbor degree."""
    avg = {
        v + 1: sum(g.degrees[w - 1] for w in g.neighbor_sets[v]) / g.degrees[v]
        for v in range(g.n)
        if g.degrees[v] > 0
    }
    return DegreeSummary(
        max_degree=max(g.degrees),
        min_degree=min(g.degrees),
        edge_count=g.edge_count,
        avg_neighbor_degree=avg,
    )


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in g.neighbor_sets[v - 1]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


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
        edge_set = {
            (u, v)
            for u in range(1, n)
            for v in range(u + 1, n + 1)
            if rng.next_double() < p
        }
        g = _build(n, edge_set)
        if min(g.degrees) >= 1 and is_connected(g):
            return g
    raise GenerationError(
        f"no connected graph in {_MAX_DRAWS} G({n}, {p}) draws; try a larger p"
    )
