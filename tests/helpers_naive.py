"""Independent brute-force oracles the real implementations are tested against.

Everything here is deliberately dumb: a second graph6 encoder written
straight from the format description, containment by trying every
injection, longest paths by scanning every vertex permutation.  None of it
shares search logic with the package; class counting by brute force uses
the package's canonical form only to name each labelled graph's class.
"""

from __future__ import annotations

import random
from itertools import permutations

from ramsey_jahangir import (
    EnumerationCapError,
    Graph,
    canonical_graph,
    from_edges,
    to_graph6,
)


def naive_graph6(order: int, edges) -> str:
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    if order <= 62:
        head = chr(order + 63)
    else:
        head = "~" + "".join(chr(63 + (order >> s & 63)) for s in (12, 6, 0))
    bits = []
    for col in range(1, order):
        for row in range(col):
            bits.append(1 if (row, col) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = value * 2 + bit
        body.append(chr(value + 63))
    return head + "".join(body)


def contains_by_injections(host: Graph, pattern_order: int, pattern_edges) -> bool:
    """Try every injective vertex map; no pruning, no cleverness."""
    if pattern_order > host.order:
        return False
    for image in permutations(range(host.order), pattern_order):
        if all(host.has_edge(image[a], image[b]) for a, b in pattern_edges):
            return True
    return False


def longest_path_brute(g: Graph) -> int:
    """Longest path order by checking the adjacent prefix of every permutation."""
    if g.order == 0:
        return 0
    best = 1
    for perm in permutations(range(g.order)):
        length = 1
        for i in range(1, g.order):
            if not g.has_edge(perm[i - 1], perm[i]):
                break
            length += 1
        if length > best:
            best = length
            if best == g.order:
                return best
    return best


def count_classes_naive(n: int) -> int:
    """Canonicalize every labelled graph on ``n`` vertices and count codes.

    Exponential in the number of vertex pairs; an independent cross-check
    of the cycle index and the enumerator at tiny orders.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if n > 6:
        raise EnumerationCapError("naive counting is capped at order 6")
    pairs = [(i, j) for j in range(n) for i in range(j)]
    seen: set[str] = set()
    for code in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if code >> b & 1]
        seen.add(to_graph6(canonical_graph(from_edges(n, edges))))
    return len(seen)


def random_graph(rng: random.Random, order: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return from_edges(order, edges)
