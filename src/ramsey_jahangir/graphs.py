"""Dense immutable graphs on integer vertices, plus graph6 serialization
and the package's indented JSON writer.

Adjacency is stored as one bitmask per vertex, which keeps neighborhood
intersections (the inner loop of every search in this package) down to a
couple of integer operations.

Every :class:`Graph` is simple: its rows hold only vertices in range, no
vertex is its own neighbour, and ``u`` is in row ``v`` exactly when ``v``
is in row ``u``.  The constructor checks that, so rows from outside the
package (a caller's ``Graph(...)``, :meth:`Frozen.replace`, unpickling)
are checked once.  The builders here, the oracle's one-vertex extension
and the suite host generator make rows that are valid by construction,
and build through the unchecked :func:`_graph`: dense complements,
enumeration levels and canonical relabellings are built on hot paths,
where a walk over every edge would only repeat what their construction
guarantees.
"""

from __future__ import annotations

import binascii
from collections.abc import Iterable, Iterator, Sequence

# The C encoder's string quoting, as oracle takes the built-in SHA-256:
# json.encoder would load json, json.decoder and json.scanner for it.
try:
    from _json import encode_basestring_ascii as _json_str
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _json_str


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

    ``adj[v]`` is the neighbor bitmask of ``v``.  The constructor raises
    ``ValueError`` unless every row is in range and loop-free and the rows
    are symmetric; an asymmetric pair is named as the first arc ``u,v``
    without its mirror, by ``u`` and then ``v``.  The rows are kept as a
    tuple, copied from any other iterable.  Instances are immutable:
    every operation returns a new graph, so a host and its edge-augmented
    variant can be kept side by side without defensive copying.  Graphs are
    built in every inner loop of enumeration, so the class keeps its fields
    in slots and has its own constructor, equality and hash.
    """

    __slots__ = ("order", "adj")
    order: int
    adj: tuple[int, ...]

    def __init__(self, order: int, adj: Iterable[int]) -> None:
        adj = tuple(adj)  # a caller's list stays the caller's
        if order < 0:
            raise ValueError("negative order")
        if len(adj) != order:
            raise ValueError("adjacency row count does not match order")
        outside = -1 << order
        for u, row in enumerate(adj):
            if row & outside:
                raise ValueError(f"row {u} references vertices >= order")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            for v in iter_bits(row):
                if not adj[v] >> u & 1:
                    raise ValueError(f"asymmetric edge {u},{v}")
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


# The slots' own setters, which the constructor uses past the frozen
# ``__setattr__``; faster than ``object.__setattr__``.
_set_order = Graph.order.__set__
_set_adj = Graph.adj.__set__


def _graph(order: int, adj: tuple[int, ...]) -> Graph:
    """A Graph from rows valid by construction, without the constructor's check."""
    g = object.__new__(Graph)
    _set_order(g, order)
    _set_adj(g, adj)
    return g


def empty(n: int) -> Graph:
    return _graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return _graph(n, tuple(full ^ (1 << v) for v in range(n)))


def from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return _graph(g.order, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on vertices 0..|g|-1 followed by h shifted to |g|..|g|+|h|-1."""
    shift = g.order
    return _graph(g.order + h.order, g.adj + tuple(row << shift for row in h.adj))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel vertices: old vertex v becomes perm[v]."""
    p = list(perm)
    if sorted(p) != list(range(g.order)):
        raise ValueError("not a permutation of the vertex set")
    rows = [0] * g.order
    for v, rest in enumerate(g.adj):
        row = 0
        while rest:
            low = rest & -rest
            row |= 1 << p[low.bit_length() - 1]
            rest ^= low
        rows[p[v]] = row
    return _graph(g.order, tuple(rows))


def vertex_mask(g: Graph, within: int | None = None) -> int:
    """``within`` checked as a bitmask of g's vertices; every vertex when None."""
    full = (1 << g.order) - 1
    if within is None:
        return full
    if within < 0 or within & ~full:
        raise ValueError(f"vertex mask {within:#x} is not a vertex set of order {g.order}")
    return within


def components(g: Graph, within: int | None = None) -> list[tuple[int, int | None]]:
    """Connected components as (vertex mask, side) pairs, ordered by least vertex.

    Each component grows in BFS layers from its least vertex.  An edge
    joins two vertices of one layer or of adjacent layers, and one inside
    a layer closes an odd cycle, so ``side`` is the union of the even
    layers, one side of a bipartition, or None when a layer holds an edge.
    With ``within``, a vertex bitmask, the components are those of the
    subgraph induced on it.
    """
    unseen = vertex_mask(g, within)
    adj = g.adj
    out: list[tuple[int, int | None]] = []
    while unseen:
        comp = frontier = unseen & -unseen
        sides = [0, 0]
        parity = clash = 0
        while frontier:
            sides[parity] |= frontier
            parity ^= 1
            layer, step = frontier, 0
            while frontier:
                low = frontier & -frontier
                step |= adj[low.bit_length() - 1]
                frontier ^= low
            clash |= step & layer
            frontier = step & unseen & ~comp
            comp |= frontier
        unseen ^= comp
        out.append((comp, None if clash else sides[0]))
    return out


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """The vertex bitmasks of :func:`components`, ordered by least vertex."""
    return [comp for comp, _ in components(g, within)]


def clique_union_sizes(g: Graph) -> tuple[int, ...] | None:
    """Component sizes, largest first, if g is a disjoint union of cliques.

    g is one exactly when its distinct closed neighbourhoods N[v] are
    pairwise disjoint, which for sets covering every vertex means their
    sizes sum to the order.
    """
    closed = {row | 1 << v for v, row in enumerate(g.adj)}
    sizes = sorted((mask.bit_count() for mask in closed), reverse=True)
    if sum(sizes) != g.order:
        return None
    return tuple(sizes)


def _lower_twins(adj: Sequence[int], comp_mask: int) -> tuple[dict[int, int], int]:
    """Each vertex of ``comp_mask`` that has a lower twin, mapped to the mask
    of its lower twins, and the mask of those vertices.

    Twins share their open or their closed neighbourhood in ``comp_mask``,
    so swapping two of them, and fixing every other vertex, is an
    automorphism of the subgraph induced on it.  Both relations are
    equivalences, and one dict keyed by neighbourhood holds the classes of
    both: an open neighbourhood ``N(u)`` never equals a closed one
    ``N[x]``, since ``x`` in ``N(u)`` puts ``u`` in ``N(x)``.  For the same
    reason no vertex has both an open and a closed twin.
    """
    classes: dict[int, int] = {}
    rest = comp_mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        row = adj[bit.bit_length() - 1] & comp_mask
        classes[row] = classes.get(row, 0) | bit
        row |= bit
        classes[row] = classes.get(row, 0) | bit
    lower: dict[int, int] = {}
    twinned = 0
    for members in classes.values():
        above = members & (members - 1)  # all but the least member
        twinned |= above
        while above:
            bit = above & -above
            above ^= bit
            lower[bit.bit_length() - 1] = members & (bit - 1)
    return lower, twinned


# ---------------------------------------------------------------------------
# graph6
#
# Header: chr(63+n) for n <= 62, or '~' followed by three printable bytes
# carrying an 18-bit order.  Body: the upper triangle in column-major order
# x(0,1), x(0,2), x(1,2), x(0,3), ... packed big-endian six bits per byte,
# zero padded, each byte offset by 63.
#
# Both directions pass the body a window of _G6_WINDOW bytes at a time, in
# time linear in the body, by one rule: the body's bits, read in order, are
# one integer ``run`` read from its least bit up, and column ``col`` is its
# next ``col`` bits.  The encoder folds columns into the run until it holds
# a window and emits that; the decoder folds each window back into the run
# and cuts columns off its low end.  Folding the whole body into one
# integer would shift it once per column, time cubic in the order.
# ---------------------------------------------------------------------------

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047
# Body bytes per window: a multiple of 4, so that a window is whole base64
# quanta of 24 bits.
_G6_WINDOW = 4096
# base64 spells sextet value i as the i-th byte of its alphabet; graph6 as
# byte 63 + i.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_BYTES = bytes(range(63, 127))
_BASE64_TO_G6 = bytes.maketrans(_BASE64, _G6_BYTES)
_G6_TO_BASE64 = bytes.maketrans(_G6_BYTES, _BASE64)
# Each byte with its bits in reverse order: a run's little-endian bytes,
# each reversed, are its bits from the least up in base64's big-endian order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sextets(run: int, nbits: int) -> str:
    """The graph6 bytes of the first ``nbits`` bits of ``run``, read from its
    least bit up, zero padded to a whole byte."""
    # The run's bytes, zero padded to whole 24-bit quanta and each reversed,
    # are bytes that base64 cuts into sextets with no '=' padding; the table
    # maps them onto graph6 bytes.
    width = nbits + -nbits % 24
    packed = run.to_bytes(width // 8, "little").translate(_REVERSED)
    body = binascii.b2a_base64(packed, newline=False).translate(_BASE64_TO_G6)
    return body[: (nbits + 5) // 6].decode("ascii")


def _graph6_pieces(g: Graph) -> Iterator[str]:
    """The graph6 code of ``g`` as its header and then one piece per window."""
    n = g.order
    if n <= _G6_MAX_SHORT:
        yield chr(63 + n)
    elif n <= _G6_MAX_LONG:
        yield "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    else:
        raise Graph6Error(f"order {n} beyond supported graph6 headers")
    # Column ``col`` is vertex col's mask of lower neighbours, row 0 first.
    # ``run`` holds the ``held`` bits not yet emitted; its whole windows are
    # emitted as they fill, and the rest, less than a window, at the end.
    adj = g.adj
    run = held = 0
    window_bits = 6 * _G6_WINDOW
    for col in range(1, n):
        run |= (adj[col] & ((1 << col) - 1)) << held
        held += col
        if held >= window_bits:
            whole = held - held % window_bits
            yield _sextets(run & ((1 << whole) - 1), whole)
            run >>= whole
            held -= whole
    yield _sextets(run, held)


def to_graph6(g: Graph) -> str:
    return "".join(_graph6_pieces(g))


def from_graph6(line: str) -> Graph:
    text = line.rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 line")
    if not text.isascii() or text.encode("ascii").translate(None, _G6_BYTES):
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
        at = 4
    else:
        n = ord(text[0]) - 63
        at = 1
    expected = (n * (n - 1) // 2 + 5) // 6
    if len(text) - at != expected:
        raise Graph6Error(f"body length {len(text) - at}, expected {expected} for order {n}")
    # The inverse of the encoder's fold: each window, taken back to base64
    # (the last one padded with zero sextets to whole quanta), has each of
    # its bytes reversed and is folded into ``run`` above its ``held`` unread
    # bits, and each column is cut off the run's low end; then it is mirrored
    # into the rows of its lower neighbours edge by edge.  What the last
    # column leaves in the run is the last byte's padding.
    rows = [0] * n
    run = held = 0
    for col in range(1, n):
        while held < col:
            window = text[at : at + _G6_WINDOW].encode("ascii").translate(_G6_TO_BASE64)
            window += b"A" * (-len(window) % 4)
            at += _G6_WINDOW
            packed = binascii.a2b_base64(window).translate(_REVERSED)
            run |= int.from_bytes(packed, "little") << held
            held += 6 * len(window)
        lower = run & ((1 << col) - 1)
        run >>= col
        held -= col
        rows[col] = lower
        for row in iter_bits(lower):
            rows[row] |= 1 << col
    if run:
        raise Graph6Error("nonzero padding bits")
    return _graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# indented JSON
#
# Before Python 3.13, ``json.dumps`` with ``indent`` set runs the
# pure-Python encoder, one generator step per token (from 3.13 the C
# encoder serves ``indent`` too, and is faster than this writer).  Every
# indented document this package prints holds only dicts with str keys,
# lists, tuples, str, int, bool and None, so one recursive writer covers
# them, quoting strings through the C encoder's function.
# ---------------------------------------------------------------------------


def _indented_json(obj: object, newline: str | None = "\n") -> str:
    """The text ``json.dumps(obj, indent=2)`` returns, for dicts with str
    keys, lists, tuples, str, int, bool and None; any other type, a
    subclass of one of those included, raises ``TypeError``.  ``newline``
    is the line break and indentation that precede ``obj``'s closing
    bracket; with ``None`` the text is one line, items joined by ``", "``,
    which is what ``json.dumps(obj)`` returns."""
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = None if newline is None else newline + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if all(type(item) is int for item in obj):
            items = list(map(str, obj))
        else:
            items = [_indented_json(item, inner) for item in obj]
        brackets = "[]"
    elif kind is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            items.append(_json_str(key) + ": " + _indented_json(value, inner))
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if newline is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
