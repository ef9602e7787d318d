"""Dense immutable graphs on integer vertices, plus graph6 serialization.

Adjacency is stored as one bitmask per vertex, which keeps neighborhood
intersections (the inner loop of every search in this package) down to a
couple of integer operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class Frozen:
    """Immutable value with the semantics of a frozen dataclass.

    The fields are the names annotated in the class body, after those of
    its bases; ``ClassVar`` annotations are not fields.  A field assigned in
    the class body defaults to that value (a dict default is copied for each
    instance).  Construction takes the fields positionally or by keyword
    and then calls ``__post_init__``, which validates.  Values are equal
    when their types are the same and their fields are equal, hash as the
    tuple of their fields, print as ``Name(field=value, ...)`` and refuse
    assignment; :meth:`replace` builds a changed copy, validated anew.  No
    code is generated per class, so defining one costs a few attribute
    lookups.  Fields live in the instance dict; a subclass that keeps them
    in slots instead (:class:`Graph`) brings its own constructor, equality
    and hash.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        body = cls.__dict__
        slots = body.get("__slots__", ())
        own = [
            name for name, kind in body.get("__annotations__", {}).items()
            if not str(kind).startswith(("ClassVar", "typing.ClassVar"))
        ]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = cls._defaults | {
            name: body[name] for name in own if name in body and name not in slots
        }

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in field order from a call's arguments and the defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} arguments but {len(args)} were given"
            )
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                default = cls._defaults[name]
                values.append(dict(default) if isinstance(default, dict) else default)
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument {name!r}")
        return values

    def __post_init__(self) -> None:
        pass

    # The constructor fills the instance dict in field order and nothing
    # else writes to it, so its values are the field tuple.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes: object) -> Frozen:
        """A copy with ``changes`` to some fields, validated like a new value."""
        values = [changes.pop(name, getattr(self, name)) for name in self._fields]
        if changes:
            name = next(iter(changes))
            raise TypeError(f"{type(self).__qualname__} has no field {name!r}")
        return type(self)(*values)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(Frozen):
    """Simple undirected graph on vertices ``0..order-1``.

    ``adj[v]`` is the neighbor bitmask of ``v``.  Instances are immutable:
    every operation returns a new graph, so a host and its edge-augmented
    variant can be kept side by side without defensive copying.  Graphs are
    built in every inner loop of enumeration, so the class keeps its fields
    in slots and has its own constructor, equality and hash.
    """

    __slots__ = ("order", "adj")
    order: int
    adj: tuple[int, ...]

    def __init__(self, order: int, adj: tuple[int, ...]) -> None:
        if order < 0:
            raise ValueError("negative order")
        if len(adj) != order:
            raise ValueError("adjacency row count does not match order")
        outside = -1 << order
        for v, row in enumerate(adj):
            if row & outside or row >> v & 1:
                if row & outside:
                    raise ValueError(f"row {v} references vertices >= order")
                raise ValueError(f"self-loop at vertex {v}")
        _set_order(self, order)
        _set_adj(self, adj)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.order == other.order and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __reduce__(self) -> tuple:
        return Graph, (self.order, self.adj)  # slots refuse pickle's setattr

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


# The slots' own setters, which the constructor uses past the frozen
# ``__setattr__``; faster than ``object.__setattr__``.
_set_order = Graph.order.__set__
_set_adj = Graph.adj.__set__


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
