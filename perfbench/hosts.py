"""Seeded host graphs and the benchmark's own graph6 codec.

Every host is built from ``random.Random(f"{seed}/{label}")``, so one
workload seed fixes every host byte for byte, and each host draws from its
own stream: adding a host to a file leaves the other hosts unchanged.

The codec here is written independently of ``ramsey_jahangir.graphs`` so
that the output checker never trusts the library's decoder.  Graphs are
``(order, adj)`` pairs where ``adj[v]`` is the set of neighbours of ``v``.
"""

from __future__ import annotations

import random


def encode_graph6(order: int, adj: list[set[int]]) -> str:
    """graph6 code of a graph: header, then the upper triangle column by column."""
    if order <= 62:
        head = chr(63 + order)
    else:
        head = "~" + "".join(chr(63 + (order >> shift & 63)) for shift in (12, 6, 0))
    bits = bytearray(order * (order - 1) // 2)
    for u in range(order):
        for v in adj[u]:
            if u < v:
                bits[v * (v - 1) // 2 + u] = 1
    bits.extend(b"\0" * (-len(bits) % 6))
    body = [
        chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
                  | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
        for i in range(0, len(bits), 6)
    ]
    return head + "".join(body)


def decode_graph6(code: str) -> tuple[int, list[set[int]]]:
    """Inverse of :func:`encode_graph6`; raises ValueError on malformed input."""
    if code.startswith("~"):
        order = 0
        for ch in code[1:4]:
            order = order << 6 | (ord(ch) - 63)
        body = code[4:]
    else:
        order = ord(code[0]) - 63
        body = code[1:]
    pairs = order * (order - 1) // 2
    if len(body) != (pairs + 5) // 6:
        raise ValueError(f"graph6 body of {len(body)} bytes for order {order}")
    adj: list[set[int]] = [set() for _ in range(order)]
    index = 0
    v, u = 1, 0
    for ch in body:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"byte {ord(ch)} outside graph6 range")
        for shift in range(5, -1, -1):
            if index == pairs:
                if value >> shift & 1:
                    raise ValueError("nonzero graph6 padding")
                continue
            if value >> shift & 1:
                adj[u].add(v)
                adj[v].add(u)
            index += 1
            u += 1
            if u == v:
                v, u = v + 1, 0
    return order, adj


# --------------------------------------------------------------------------
# host shapes


def _graph(order: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(order)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _shuffled(rng: random.Random, order: int, edges) -> list[set[int]]:
    perm = list(range(order))
    rng.shuffle(perm)
    return _graph(order, ((perm[u], perm[v]) for u, v in edges))


def _tree(rng: random.Random, size: int, base: int, height: int) -> list[tuple[int, int]]:
    """Random recursive tree on ``base..base+size-1`` of height at most ``height``."""
    depth = [0]
    edges = []
    for v in range(1, size):
        parent = rng.choice([u for u in range(v) if depth[u] < height])
        depth.append(depth[parent] + 1)
        edges.append((base + parent, base + v))
    return edges


def _sparse_blocks(
    rng: random.Random, order: int, lo: int, hi: int, chords: int, base: int = 0
) -> list[tuple[int, int]]:
    """Components of ``lo..hi`` vertices: a random tree plus ``chords`` extra edges.

    No component exceeds ``hi`` vertices, so no path in it does either.
    """
    edges = []
    end = base + order
    while base < end:
        size = min(rng.randint(lo, hi), end - base)
        tree = _tree(rng, size, base, size)
        edges.extend(tree)
        have = set(tree)
        for _ in range(chords if size >= 4 else 0):
            u, v = sorted(rng.sample(range(base, base + size), 2))
            if (u, v) not in have:
                have.add((u, v))
                edges.append((u, v))
        base += size
    return edges


def sparse_host(rng, order, lo, hi, chords):
    """Sparse components of at most ``hi`` vertices, labels shuffled."""
    return _shuffled(rng, order, _sparse_blocks(rng, order, lo, hi, chords))


def wide_tree_host(rng, order, lo, hi, chords, wide, height):
    """A ``wide``-vertex tree of bounded height beside sparse components.

    The tree is larger than the path engine's memo limit while its longest
    path stays at most ``2 * height + 1`` vertices.
    """
    edges = _tree(rng, wide, 0, height)
    edges += _sparse_blocks(rng, order - wide, lo, hi, chords, base=wide)
    return _shuffled(rng, order, edges)


def caterpillar_host(rng, order, spine, legs, lo, hi):
    """One caterpillar (a ``spine``-vertex path with ``legs`` pendant leaves)
    beside trees of ``lo..hi`` vertices.

    Deleting a longest path of the caterpillar leaves isolated leaves, so the
    rest of the host holds only paths of at most ``hi`` vertices.
    """
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leaf in range(spine, spine + legs):
        edges.append((rng.randrange(1, spine - 1), leaf))
    edges += _sparse_blocks(rng, order - spine - legs, lo, hi, 0, base=spine + legs)
    return _shuffled(rng, order, edges)


def clique_beside_sparse(rng, clique, order, lo, hi, chords):
    """K_clique beside sparse components filling the rest of the order."""
    edges = [(u, v) for v in range(clique) for u in range(v)]
    edges += _sparse_blocks(rng, order - clique, lo, hi, chords, base=clique)
    return _shuffled(rng, order, edges)


def complete_bipartite(rng, a, b):
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return _shuffled(rng, a + b, edges)


def monotone_path_host(rng, order, length, lo, hi):
    """A ``length``-vertex path whose labels increase along it, plus small trees.

    The path sits on a random label subset; walking it in label order means
    the path engine starts at an endpoint, so its work depends on the
    length alone and not on the seed.
    """
    on_path = sorted(rng.sample(range(order), length))
    rest = [v for v in range(order) if v not in set(on_path)]
    edges = list(zip(on_path, on_path[1:]))
    i = 0
    while i < len(rest):
        size = min(rng.randint(lo, hi), len(rest) - i)
        block = rest[i : i + size]
        edges += [(block[rng.randrange(j)], block[j]) for j in range(1, size)]
        i += size
    return _graph(order, edges)


def labelled_path(order):
    """The path 0-1-2-...-(order-1), as ``build P<order>`` emits it."""
    return _graph(order, ((v, v + 1) for v in range(order - 1)))
