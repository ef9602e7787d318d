"""Dense immutable graphs on integer vertices, plus graph6 serialization.

Adjacency is stored as one bitmask per vertex, which keeps neighborhood
intersections (the inner loop of every search in this package) down to a
couple of integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..order-1``.

    ``adj[v]`` is the neighbor bitmask of ``v``.  Instances are immutable:
    every operation returns a new graph, so a host and its edge-augmented
    variant can be kept side by side without defensive copying.
    """

    order: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("negative order")
        if len(self.adj) != self.order:
            raise ValueError("adjacency row count does not match order")
        full = (1 << self.order) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= order")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")

    def has_edge(self, u: int, v: int) -> bool:
        return self.adj[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adj[v]))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.order):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def validate(self) -> None:
        """Full consistency check (symmetry included); raises ValueError."""
        for u in range(self.order):
            for v in iter_bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"asymmetric edge {u},{v}")


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return Graph(g.order, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on vertices 0..|g|-1 followed by h shifted to |g|..|g|+|h|-1."""
    shift = g.order
    return Graph(g.order + h.order, g.adj + tuple(row << shift for row in h.adj))


def induced(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` plus the index map back to ``g``.

    The subgraph relabels the chosen vertices in increasing order; entry i
    of the returned map is the original index of subgraph vertex i.
    """
    sub = sorted(set(vertices))
    for v in sub:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(sub)}
    rows = []
    for v in sub:
        row = 0
        for w in iter_bits(g.adj[v]):
            if w in pos:
                row |= 1 << pos[w]
        rows.append(row)
    return Graph(len(sub), tuple(rows)), tuple(sub)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.order and 0 <= v < g.order):
        raise ValueError(f"edge ({u},{v}) out of range")
    if u == v:
        raise ValueError("refusing to add a self-loop")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.order, tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    p = list(perm)
    if sorted(p) != list(range(g.order)):
        raise ValueError("not a permutation of the vertex set")
    rows = [0] * g.order
    for v in range(g.order):
        row = 0
        for w in iter_bits(g.adj[v]):
            row |= 1 << p[w]
        rows[p[v]] = row
    return Graph(g.order, tuple(rows))


def component_masks(g: Graph, within: int) -> Iterator[int]:
    """Vertex masks of the components of g induced on the mask ``within``,
    ordered by least vertex."""
    unseen = within
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 1 << start
        frontier = g.adj[start] & unseen
        while frontier:
            comp |= frontier
            step = 0
            for v in iter_bits(frontier):
                step |= g.adj[v]
            frontier = step & unseen & ~comp
        unseen &= ~comp
        yield comp


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    return [list(iter_bits(comp)) for comp in component_masks(g, (1 << g.order) - 1)]


def clique_union_sizes(g: Graph) -> tuple[int, ...] | None:
    """Component sizes, largest first, if g is a disjoint union of cliques.

    g is one exactly when its distinct closed neighbourhoods N[v] are
    pairwise disjoint.
    """
    return disjoint_cover_sizes({row | 1 << v for v, row in enumerate(g.adj)}, g.order)


def disjoint_cover_sizes(masks: set[int], order: int) -> tuple[int, ...] | None:
    """Sizes, largest first, of distinct masks covering ``0..order-1`` if they
    are pairwise disjoint, which for a cover means their sizes sum to the order."""
    sizes = sorted((mask.bit_count() for mask in masks), reverse=True)
    if sum(sizes) != order:
        return None
    return tuple(sizes)


# ---------------------------------------------------------------------------
# graph6
#
# Header: chr(63+n) for n <= 62, or '~' followed by three printable bytes
# carrying an 18-bit order.  Body: the upper triangle in column-major order
# x(0,1), x(0,2), x(1,2), x(0,3), ... packed big-endian six bits per byte,
# zero padded, each byte offset by 63.
# ---------------------------------------------------------------------------

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047


def to_graph6(g: Graph) -> str:
    n = g.order
    if n <= _G6_MAX_SHORT:
        head = chr(63 + n)
    elif n <= _G6_MAX_LONG:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    else:
        raise Graph6Error(f"order {n} beyond supported graph6 headers")
    chunk = 0
    filled = 0
    body = []
    for col in range(1, n):
        for row in range(col):
            chunk = chunk << 1 | (g.adj[row] >> col & 1)
            filled += 1
            if filled == 6:
                body.append(chr(63 + chunk))
                chunk = 0
                filled = 0
    if filled:
        body.append(chr(63 + (chunk << (6 - filled))))
    return head + "".join(body)


def from_graph6(line: str) -> Graph:
    text = line.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 line")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"byte {ord(ch)} outside graph6 range")
    if text[0] == "~":
        if len(text) < 4:
            raise Graph6Error("truncated extended order header")
        if text[1] == "~":
            raise Graph6Error("8-byte graph6 headers not supported")
        n = 0
        for ch in text[1:4]:
            n = n << 6 | (ord(ch) - 63)
        if n <= _G6_MAX_SHORT:
            raise Graph6Error("extended header used for a small order")
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise Graph6Error(f"body length {len(body)}, expected {expected} for order {n}")
    pad = 6 * expected - nbits
    if pad and (ord(body[-1]) - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    # One pass over the body, six bits per byte, walking (row, col) through
    # the upper triangle; the padding bits are zero, so they set nothing.
    rows = [0] * n
    row, col = 0, 1
    for ch in body:
        chunk = ord(ch) - 63
        for bit in (32, 16, 8, 4, 2, 1):
            if chunk & bit:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            row += 1
            if row == col:
                row, col = 0, col + 1
    return Graph(n, tuple(rows))
