"""Independent brute-force oracles the real implementations are tested against.

Everything here is deliberately dumb: a second graph6 encoder written
straight from the format description, containment by trying every
injection, longest paths by scanning every vertex permutation, canonical
forms by visiting every leaf of the unpruned search.  None of it shares
search logic with the package; class counting by brute force and the
unfiltered enumeration level step use the package's canonical form only
to name each labelled graph's class.  The exceptions are frozen copies of
package code kept as exact references: the longest-path search with its
bound counted in full at every node (with and without the bipartite
side-count bound), the graph6 decoder that reads one bit at a time, the
symmetry check that walks every arc, the induced subgraph with its
index map, the reference for searches restricted to a vertex mask, the
order in which the endpoint rim splits its spare vertices into rim
spares and a hub, and the suite host generator that builds an edge list
(relabelled for ``clique-paths``).
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from ramsey_jahangir import (
    Budget,
    CliqueUnion,
    EnumerationCapError,
    Graph,
    build,
    canonical_graph,
    complement,
    component_masks,
    from_edges,
    relabel,
    to_graph6,
)
from ramsey_jahangir.graphs import Graph6Error, iter_bits
from ramsey_jahangir.suites import SuiteSpec, _block_sizes, case_seed


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


def from_graph6_per_bit(line: str) -> Graph:
    """The graph6 decoder as it was before it read the body by column: every
    check in the same order, then one pass over the body, six bits per byte,
    walking (row, col) through the upper triangle."""
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
        if n <= 62:
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


def induced(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` plus the index map back to ``g``.

    The subgraph relabels the chosen vertices in increasing order; entry i
    of the returned map is the original index of subgraph vertex i.
    """
    sub = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(sub)}
    rows = []
    for v in sub:
        row = 0
        for w in iter_bits(g.adj[v]):
            if w in pos:
                row |= 1 << pos[w]
        rows.append(row)
    return Graph(len(sub), tuple(rows)), tuple(sub)


def validate_every_arc(order: int, rows) -> None:
    """The symmetry check on adjacency rows as first written: every arc
    u -> v, by u and then v, checked for its mirror v -> u."""
    for u in range(order):
        for v in iter_bits(rows[u]):
            if not rows[v] >> u & 1:
                raise ValueError(f"asymmetric edge {u},{v}")


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


def longest_path_reference(g: Graph, stop: int | None = None) -> tuple[int, ...]:
    """``longest_path`` as it was before the bipartite side-count bound.

    The same exploration, memo and tie-breaks, bounded by the unvisited
    reachable set alone, so every answer of the bounded search must match
    this one exactly: the bound may change node counts, never a path.
    """
    return longest_path_full_bound(g, Budget(1 << 62), stop, side_bound=False)


def longest_path_full_bound(
    g: Graph, budget: Budget, stop: int | None = None, *, side_bound: bool = True,
) -> tuple[int, ...]:
    """``longest_path`` with its bound counted in full at every node.

    A frozen copy of the search from before the bound was decided against
    the gap layer by layer, and before twin pruning and the dead-end bound:
    the whole unvisited reachable set is walked and counted, then compared.
    None of those changes a path, so the path must match this one; they
    only prune, so ``longest_path`` spends at most the nodes this spends.
    ``side_bound=False`` drops the bipartite side-count bound, leaving
    reachability alone.
    """
    comps = [list(iter_bits(comp)) for comp in component_masks(g)]
    searched = {}
    if stop is not None:
        for i, comp in enumerate(comps):
            if len(comp) >= stop:
                searched[i] = _component_search_full(g, comp, budget, stop, side_bound)
                if len(searched[i]) == stop:
                    return _lower_end_first(searched[i])
    best: tuple[int, ...] = ()
    for i, comp in enumerate(comps):
        if len(comp) <= len(best):
            continue
        cand = searched[i] if i in searched else _component_search_full(
            g, comp, budget, stop, side_bound)
        if len(cand) > len(best):
            best = cand
    return _lower_end_first(best)


def _lower_end_first(path):
    rev = path[::-1]
    return path if path <= rev else rev


def _bipartite_side_full(adj, comp_mask: int, start: int):
    """One colour class of the component, or None if it has an odd cycle."""
    sides = [0, 0]
    frontier, parity = 1 << start, 0
    while frontier:
        sides[parity] |= frontier
        step = 0
        for v in iter_bits(frontier):
            if adj[v] & frontier:
                return None
            step |= adj[v]
        parity ^= 1
        frontier = step & comp_mask & ~(sides[0] | sides[1])
    return sides[0]


def _component_search_full(g: Graph, comp: list[int], bud: Budget, stop, side_bound: bool):
    comp_mask = 0
    for v in comp:
        comp_mask |= 1 << v
    size = len(comp)
    stop_len = size if stop is None else min(stop, size)
    adj = g.adj
    best: tuple[int, ...] = ()
    dead: set[tuple[int, int]] | None = set() if size <= 24 else None
    side = _bipartite_side_full(adj, comp_mask, comp[0]) if side_bound else None

    def reachable_count(endpoint: int, mask: int) -> int:
        frontier = adj[endpoint] & comp_mask & ~mask
        reach = 0
        while frontier:
            reach |= frontier
            step = 0
            for v in iter_bits(frontier):
                step |= adj[v]
            frontier = step & comp_mask & ~mask & ~reach
        if side is None:
            return reach.bit_count()
        own = side if side >> endpoint & 1 else comp_mask ^ side
        same = (reach & own).bit_count()
        return min(2 * (reach.bit_count() - same), 2 * same + 1)

    for start in comp:
        path = [start]
        masks = [1 << start]
        untried: list[int] = []
        while path:
            v, mask = path[-1], masks[-1]
            bud.spend()
            if len(path) > len(best):
                best = tuple(path)
                if len(path) >= stop_len:
                    return best
            if dead is not None and (v, mask) in dead:
                rest = 0
            elif len(path) + reachable_count(v, mask) > len(best):
                rest = adj[v] & comp_mask & ~mask
            else:
                rest = 0
            while not rest:
                v, mask = path.pop(), masks.pop()
                if dead is not None:
                    dead.add((v, mask))
                if not path:
                    break
                rest = untried.pop()
            if rest:
                low = rest & -rest
                untried.append(rest ^ low)
                path.append(low.bit_length() - 1)
                masks.append(masks[-1] | low)
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


def generate_case_reference(spec: SuiteSpec, seed: int, index: int) -> Graph:
    """The suite host recipes as an edge list through ``from_edges``, the
    ``clique-paths`` blocks then relabelled by the shuffled permutation."""
    rng = random.Random(case_seed(seed, index))
    n = spec.case.n
    if spec.kind == "er-union":
        edges: list[tuple[int, int]] = []
        base = 0
        for size in _block_sizes(rng, spec.order, n):
            for u in range(size):
                for v in range(u + 1, size):
                    if rng.getrandbits(1):
                        edges.append((base + u, base + v))
            base += size
        return from_edges(spec.order, edges)
    if spec.kind == "clique-paths":
        edges = []
        for block in range(spec.case.t):
            base = block * n
            edges.extend(
                (base + u, base + v)
                for u in range(n)
                for v in range(u + 1, n)
            )
        g = from_edges(spec.order, edges)
        perm = list(range(spec.order))
        rng.shuffle(perm)
        return relabel(g, perm)
    raise ValueError(f"unknown suite kind {spec.kind!r}")


def grow_reference(level: list[Graph]) -> list[Graph]:
    """The enumeration level step without the maximum-degree filter: every
    one-vertex extension of every representative is canonicalised, and the
    set of classes is sorted by (edge count, graph6 code)."""
    size = level[0].order
    seen = set()
    for parent in level:
        for bits in range(1 << size):
            rows = tuple(
                row | ((bits >> v & 1) << size) for v, row in enumerate(parent.adj)
            )
            seen.add(canonical_graph(Graph(size + 1, rows + (bits,))))
    return sorted(seen, key=lambda g: (g.edge_count(), to_graph6(g)))


def random_graph(rng: random.Random, order: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return from_edges(order, edges)


def shuffled_complete_bipartite(rng: random.Random, a: int, b: int) -> Graph:
    """K_{a,b} with its vertex labels shuffled."""
    perm = list(range(a + b))
    rng.shuffle(perm)
    return from_edges(a + b, [(perm[u], perm[a + v]) for u in range(a) for v in range(b)])


def near_end_couples(path, q: int) -> list[tuple[int, int]]:
    """Couples 1..q of a path on k vertices: (p[i], p[i+1]) for odd i,
    (p[k-i-1], p[k-i]) for even i."""
    k = len(path)
    return [
        (path[i], path[i + 1]) if i % 2 else (path[k - i - 1], path[k - i])
        for i in range(1, q + 1)
    ]


def first_closing_couple_picks(g: Graph, first, second, hub: int, q: int):
    """Try every couple selection of the odd-spoke two-long-paths rim.

    The rim reads ``first[0]``, one member of each couple of ``second`` and
    ``first`` in the order B1, A1, B2, A2, ..., then ``second[-1]``; only
    members with no host edge to ``hub`` may be picked.  Returns the picks
    of the first selection, in ``itertools.product`` order over ascending
    members, whose consecutive rim vertices share no host edge, or None.
    """
    pools = []
    for b, a in zip(near_end_couples(second, q), near_end_couples(first, q)):
        for couple in (b, a):
            pools.append([v for v in sorted(couple) if not g.has_edge(v, hub)])
    for picks in product(*pools):
        chain = (first[0], *picks, second[-1])
        if not any(g.has_edge(u, v) for u, v in zip(chain, chain[1:])):
            return picks
    return None


def spare_roles_lexicographic(pool: list[int], rim_count: int):
    """Frozen (rim spares, hub) split order of the endpoint rim: every
    ``rim_count``-subset of the pool in ``combinations`` order, and for each
    every pool vertex left out of it as the hub, ascending."""
    for rim_choice in combinations(pool, rim_count):
        for hub in pool:
            if hub not in rim_choice:
                yield list(rim_choice), hub


def first_endpoint_rim(g: Graph, paths, spares, s: int, m: int):
    """Try every arrangement of path endpoints and spare vertices as a rim.

    Splits run in :func:`spare_roles_lexicographic` order, then each nonzero
    residue class mod ``s``, then the class positions the rim spares take,
    in ``combinations`` order; within one, the sorted endpoints fill the
    open positions, ascending, in ``permutations`` order.  A rim is valid
    when no two consecutive vertices share a host edge or are the two ends
    of one path, and no spoke position (0 mod ``s``) holds a host neighbour
    of the hub.  Returns ``(rim, hub, attempt)`` for the first valid rim,
    ``attempt`` counting the (split, residue, positions) arrangements tried
    before its own, or None.
    """
    sm = s * m
    partner = {}
    for p in paths:
        partner[p[0]], partner[p[-1]] = p[-1], p[0]
    endpoints = sorted(partner)
    attempt = 0
    for rim_spares, hub in spare_roles_lexicographic(sorted(spares), len(spares) - 1):
        for residue in range(1, s):
            class_positions = [p for p in range(sm) if p % s == residue]
            for chosen in combinations(class_positions, len(rim_spares)):
                open_positions = [p for p in range(sm) if p not in chosen]
                for order in permutations(endpoints):
                    rim = [-1] * sm
                    for pos, v in zip(chosen, rim_spares):
                        rim[pos] = v
                    for pos, v in zip(open_positions, order):
                        rim[pos] = v
                    pairs = [(rim[i], rim[(i + 1) % sm]) for i in range(sm)]
                    if any(g.has_edge(u, v) or partner.get(u) == v for u, v in pairs):
                        continue
                    if any(g.has_edge(rim[p], hub) for p in range(0, sm, s)):
                        continue
                    return rim, hub, attempt
                attempt += 1
    return None


def build_complete_multipartite(part_sizes) -> Graph:
    """Complete multipartite graph, parts numbered block by block."""
    parts = list(part_sizes)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    n = sum(parts)
    starts = []
    base = 0
    for p in parts:
        starts.append(base)
        base += p
    edge_list = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in range(starts[a], starts[a] + parts[a]):
                for v in range(starts[b], starts[b] + parts[b]):
                    edge_list.append((u, v))
    return from_edges(n, edge_list)


def place_recursive(host: Graph, pattern: Graph, order: list[int], bud: Budget):
    """Vertex-by-vertex placement by plain recursion, one call per pattern
    vertex: host images by pattern vertex, or None.  Candidates are unused
    host vertices adjacent to the placed neighbours' images, of at least the
    pattern vertex's degree, least first; each one tried spends a node."""
    p = pattern.order
    image = [-1] * p

    def place(idx: int, used: set[int]) -> bool:
        if idx == p:
            return True
        pv = order[idx]
        for hv in range(host.order):
            if hv in used or host.degree(hv) < pattern.degree(pv):
                continue
            if any(image[w] >= 0 and not host.has_edge(hv, image[w])
                   for w in pattern.neighbors(pv)):
                continue
            bud.spend()
            image[pv] = hv
            if place(idx + 1, used | {hv}):
                return True
            image[pv] = -1
        return False

    return image if place(0, set()) else None


def fits_by_colourings(pattern: Graph, part_sizes) -> bool:
    """Some proper colouring of ``pattern`` whose classes fit the parts."""
    n, k = pattern.order, len(part_sizes)
    for colour in product(range(k), repeat=n):
        if any(colour[u] == colour[v] for u, v in pattern.edges()):
            continue
        if all(colour.count(c) <= part_sizes[c] for c in range(k)):
            return True
    return False


def _clique_union_sizes_naive(g: Graph):
    sizes = []
    for comp in component_masks(g):
        comp = list(iter_bits(comp))
        k = len(comp)
        if sum(g.degree(v) for v in comp) != k * (k - 1):
            return None
        sizes.append(k)
    sizes.sort(reverse=True)
    return tuple(sizes)


def _refine_naive(g: Graph, cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement, counting against every cell in every round."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sigs = {
                v: tuple((g.adj[v] & mask).bit_count() for mask in masks)
                for v in cell
            }
            distinct = sorted(set(sigs.values()))
            if len(distinct) == 1:
                out.append(cell)
                continue
            changed = True
            for sig in distinct:
                out.append([v for v in cell if sigs[v] == sig])
        if not changed:
            return out
        cells = out


def canonical_graph_naive(g: Graph, budget: int = 500_000) -> Graph:
    """The canonical form by the unpruned search: every leaf is relabeled
    and its graph6 code compared; clique unions and their complements are
    recognized first.  The package recognizes only clique unions, and its
    search gives a complete multipartite graph the same code as the
    shortcut here, which stays because this unpruned search cannot finish
    K_{8,8}."""
    if g.order <= 1:
        return g
    sizes = _clique_union_sizes_naive(g)
    if sizes is not None:
        return build(CliqueUnion(sizes))
    co_sizes = _clique_union_sizes_naive(complement(g))
    if co_sizes is not None:
        return complement(build(CliqueUnion(co_sizes)))
    bud = Budget(budget)
    n = g.order
    best_code = None
    best_graph = None

    def descend(cells):
        nonlocal best_code, best_graph
        bud.spend()
        cells = _refine_naive(g, cells)
        branch = next((c for c in cells if len(c) > 1), None)
        if branch is None:
            perm = [0] * n
            for pos, cell in enumerate(cells):
                perm[cell[0]] = pos
            candidate = relabel(g, perm)
            code = to_graph6(candidate)
            if best_code is None or code < best_code:
                best_code = code
                best_graph = candidate
            return
        at = cells.index(branch)
        for v in branch:
            descend(
                cells[:at]
                + [[v], [u for u in branch if u != v]]
                + cells[at + 1 :]
            )

    descend([list(range(n))])
    return best_graph
