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
        """Full consistency check (symmetry included); raises ValueError.

        Each edge above the diagonal is checked for its mirror below it;
        then the graph is symmetric exactly when the halves hold equally
        many edges.  On failure every row is walked in order, so the
        message names the first asymmetric pair (u, v) by u, then v.
        """
        adj = self.adj
        upper = lower = 0
        for u, row in enumerate(adj):
            below = row & ((1 << u) - 1)
            above = row ^ below
            lower += below.bit_count()
            upper += above.bit_count()
            while above:
                low = above & -above
                if not adj[low.bit_length() - 1] >> u & 1:
                    break
                above ^= low
            if above:  # an edge above the diagonal has no mirror
                break
        else:
            if upper == lower:
                return
        for u in range(self.order):
            for v in iter_bits(adj[u]):
                if not adj[v] >> u & 1:
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


def vertex_mask(g: Graph, within: int | None = None) -> int:
    """``within`` checked as a bitmask of g's vertices; every vertex when None."""
    full = (1 << g.order) - 1
    if within is None:
        return full
    if within < 0 or within & ~full:
        raise ValueError(f"vertex mask {within:#x} is not a vertex set of order {g.order}")
    return within


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Connected components as vertex bitmasks, ordered by least vertex.

    With ``within``, a vertex bitmask, the components are those of the
    subgraph induced on it.
    """
    unseen = vertex_mask(g, within)
    adj = g.adj
    out = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = step & unseen & ~comp
            comp |= frontier
        unseen ^= comp
        out.append(comp)
    return out


def components(g: Graph, within: int | None = None) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex.

    With ``within``, a vertex bitmask, the components are those of the
    subgraph induced on it, still in g's labels.
    """
    return [list(iter_bits(comp)) for comp in component_masks(g, within)]


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
# Each body byte spelled out as its six bits, most significant first.
_G6_BITS = {63 + value: format(value, "06b") for value in range(64)}
# And back: six bits to their body byte.
_G6_CHARS = {bits: chr(code) for code, bits in _G6_BITS.items()}


def to_graph6(g: Graph) -> str:
    n = g.order
    if n <= _G6_MAX_SHORT:
        head = chr(63 + n)
    elif n <= _G6_MAX_LONG:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    else:
        raise Graph6Error(f"order {n} beyond supported graph6 headers")
    # Column by column, as from_graph6 reads them: column ``col`` is vertex
    # col's mask of lower neighbours spelled out row 0 first.  The padded
    # run is then cut into bytes six bits at a time.
    adj = g.adj
    bits = "".join(
        [format(adj[col] & ((1 << col) - 1), f"0{col}b")[::-1] for col in range(1, n)]
    )
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_G6_CHARS[bits[i : i + 6]] for i in range(0, len(bits), 6)])


def from_graph6(line: str) -> Graph:
    text = line.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 line")
    if min(text) < "?" or max(text) > "~":
        bad = next(ch for ch in text if not "?" <= ch <= "~")
        raise Graph6Error(f"byte {ord(bad)} outside graph6 range")
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
    # Column by column: column ``col`` is the bit run start .. start+col-1
    # with start = col(col-1)/2, bit ``row`` of it the pair (row, col).  Only
    # the bytes holding that run are spelled out as a bit string, so memory
    # stays at one column; reversed, the run is vertex col's mask of lower
    # neighbours, which is then mirrored into their rows edge by edge.
    rows = [0] * n
    start = 0
    for col in range(1, n):
        first, skip = divmod(start, 6)
        seg = body[first : (start + col + 5) // 6].translate(_G6_BITS)[skip : skip + col]
        lower = int(seg[::-1], 2)
        rows[col] = lower
        for row in iter_bits(lower):
            rows[row] |= 1 << col
        start += col
    return Graph(n, tuple(rows))
