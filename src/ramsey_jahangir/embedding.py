"""Exact containment engines: subgraph search, longest paths, disjoint paths.

Everything here is exact.  Searches carry an expansion budget (a count of
attempted assignments, not wall time); running out is reported explicitly,
never silently converted into an "absent" answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .families import PatternSpec, build
from .graphs import Graph, component_masks, components, iter_bits

DEFAULT_BUDGET = 50_000_000

PathWitness = tuple[int, ...]


class BudgetExhausted(RuntimeError):
    """A search ran out of its expansion budget before settling the question."""


class Budget:
    """Mutable expansion counter shared across the searches of one task."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("budget must be positive")
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExhausted("search expansion budget exhausted")

    @classmethod
    def coerce(cls, budget: "int | Budget | None") -> "Budget":
        if budget is None:
            return cls(DEFAULT_BUDGET)
        if isinstance(budget, Budget):
            return budget
        return cls(budget)


@dataclass(frozen=True)
class Embedding:
    """Injective map of a pattern's canonical labeling into a host.

    ``mapping[i]`` is the host vertex carrying pattern vertex i.
    """

    pattern: PatternSpec
    host_order: int
    mapping: tuple[int, ...]


def check_embedding(host: Graph, emb: Embedding) -> str | None:
    """Reason the embedding is invalid, or None if it checks out."""
    if emb.host_order != host.order:
        return f"host order mismatch: embedding says {emb.host_order}, graph has {host.order}"
    if len(emb.mapping) != emb.pattern.order:
        return f"mapping length {len(emb.mapping)} != pattern order {emb.pattern.order}"
    for v in emb.mapping:
        if not 0 <= v < host.order:
            return f"image {v} out of range"
    if len(set(emb.mapping)) != len(emb.mapping):
        return "mapping is not injective"
    for u, v in emb.pattern.edges():
        if not host.has_edge(emb.mapping[u], emb.mapping[v]):
            return f"missing edge {emb.mapping[u]},{emb.mapping[v]} (pattern {u},{v})"
    return None


def verify_embedding(host: Graph, emb: Embedding) -> bool:
    return check_embedding(host, emb) is None


@dataclass(frozen=True)
class SubgraphSearch:
    """Three-valued search outcome: present / absent / unknown (budget)."""

    status: str
    embedding: Embedding | None = None


def _search_order(spec: PatternSpec) -> list[int]:
    """Pattern vertices in a connectivity-respecting order.

    Hub first for the families with a hub (wheels and Jahangir patterns),
    so the rim search is pinned inside (for the Jahangir, periodically
    inside) the hub's neighborhood.
    """
    order = list(range(spec.order))
    if spec.hub is not None:
        order.remove(spec.hub)
        order.insert(0, spec.hub)
    return order


def find_subgraph(host: Graph, spec: PatternSpec, budget: int | Budget | None = None) -> SubgraphSearch:
    """Exact subgraph-containment search with an explicit third outcome.

    Returns status "present" with a verified embedding, "absent" after an
    exhaustive search, or "unknown" if the expansion budget ran out.
    """
    bud = Budget.coerce(budget)
    pattern = build(spec)
    p = pattern.order
    if p > host.order:
        return SubgraphSearch("absent")
    order = _search_order(spec)
    # neighbors of each pattern vertex that are placed before it
    placed_before: list[list[int]] = []
    seen: set[int] = set()
    for pv in order:
        placed_before.append([w for w in iter_bits(pattern.adj[pv]) if w in seen])
        seen.add(pv)
    pat_deg = [pattern.degree(v) for v in range(p)]
    host_deg = [host.degree(v) for v in range(host.order)]
    full = (1 << host.order) - 1
    image = [-1] * p

    def place(idx: int, used: int) -> bool:
        if idx == p:
            return True
        pv = order[idx]
        cand = full & ~used
        for w in placed_before[idx]:
            cand &= host.adj[image[w]]
        need = pat_deg[pv]
        for hv in iter_bits(cand):
            if host_deg[hv] < need:
                continue
            bud.spend()
            image[pv] = hv
            if place(idx + 1, used | (1 << hv)):
                return True
        image[pv] = -1
        return False

    try:
        found = place(0, 0)
    except BudgetExhausted:
        return SubgraphSearch("unknown")
    if not found:
        return SubgraphSearch("absent")
    emb = Embedding(spec, host.order, tuple(image))
    reason = check_embedding(host, emb)
    if reason is not None:  # pragma: no cover - engine invariant
        raise AssertionError(f"search produced an invalid embedding: {reason}")
    return SubgraphSearch("present", emb)


# ---------------------------------------------------------------------------
# Exact longest path.
#
# Per component: depth-first search over (endpoint, visited-set) states with
# an unvisited-reachability bound.  On components of at most 24 vertices the
# explored states are memoized, which makes the search the subset/endpoint
# dynamic program evaluated lazily; larger components run plain
# branch-and-bound.  A path covering its whole component stops the search
# early (nothing longer can exist), which is what makes dense random
# components cheap.
# ---------------------------------------------------------------------------

_MEMO_LIMIT = 24


class _LongEnough(Exception):
    pass


def _component_search(g: Graph, comp: list[int], bud: Budget, target: int | None) -> PathWitness:
    """Longest path inside one component; stops early at ``target`` if given."""
    comp_mask = 0
    for v in comp:
        comp_mask |= 1 << v
    size = len(comp)
    stop_len = size if target is None else min(target, size)
    if target is not None and target > size:
        return ()
    adj = g.adj
    best: list[tuple[int, ...]] = [()]
    dead: set[tuple[int, int]] | None = set() if size <= _MEMO_LIMIT else None

    def reachable_count(endpoint: int, mask: int) -> int:
        frontier = adj[endpoint] & comp_mask & ~mask
        reach = 0
        while frontier:
            reach |= frontier
            step = 0
            for v in iter_bits(frontier):
                step |= adj[v]
            frontier = step & comp_mask & ~mask & ~reach
        return reach.bit_count()

    def dfs(v: int, mask: int, path: list[int]) -> None:
        bud.spend()
        if len(path) > len(best[0]):
            best[0] = tuple(path)
            if len(path) >= stop_len:
                raise _LongEnough
        key = (v, mask)
        if dead is not None and key in dead:
            return
        if len(path) + reachable_count(v, mask) > len(best[0]):
            for w in iter_bits(adj[v] & comp_mask & ~mask):
                path.append(w)
                dfs(w, mask | (1 << w), path)
                path.pop()
        if dead is not None:
            dead.add(key)

    try:
        for start in comp:
            dfs(start, 1 << start, [start])
    except _LongEnough:
        pass
    return best[0]


def _normalize_direction(path: PathWitness) -> PathWitness:
    rev = path[::-1]
    return path if path <= rev else rev


def longest_path(g: Graph, budget: int | Budget | None = None) -> PathWitness:
    """A maximum-length path of g, deterministic across runs.

    Components are searched in order of their least vertex; the first
    maximum found in the canonical exploration order wins and the result is
    direction-normalized so the lower endpoint comes first.
    """
    bud = Budget.coerce(budget)
    best: PathWitness = ()
    for comp in components(g):
        if len(comp) <= len(best):
            continue
        cand = _component_search(g, comp, bud, None)
        if len(cand) > len(best):
            best = cand
    return _normalize_direction(best)


def find_path_at_least(g: Graph, n: int, budget: int | Budget | None = None) -> PathWitness | None:
    """A path on at least n vertices, or None after an exhaustive search."""
    if n < 1:
        raise ValueError("n >= 1 required")
    bud = Budget.coerce(budget)
    for comp in components(g):
        if len(comp) < n:
            continue
        cand = _component_search(g, comp, bud, n)
        if len(cand) >= n:
            return _normalize_direction(cand)
    return None


def _iter_paths_exact(g: Graph, blocked: int, n: int, bud: Budget) -> Iterator[PathWitness]:
    """All simple paths on exactly n vertices avoiding ``blocked``.

    Each path is yielded once (direction fixed by endpoint order), in the
    canonical depth-first order.
    """
    allowed = ((1 << g.order) - 1) & ~blocked
    adj = g.adj
    path: list[int] = []

    def extend(v: int, mask: int) -> Iterator[PathWitness]:
        bud.spend()
        path.append(v)
        if len(path) == n:
            if n == 1 or path[0] < path[-1]:
                yield tuple(path)
        else:
            for w in iter_bits(adj[v] & allowed & ~mask):
                yield from extend(w, mask | (1 << w))
        path.pop()

    for start in iter_bits(allowed):
        yield from extend(start, 1 << start)


def find_disjoint_paths(
    g: Graph, t: int, n: int, budget: int | Budget | None = None
) -> list[PathWitness] | None:
    """t vertex-disjoint paths on n vertices each, or None if impossible.

    Greedy with full backtracking: pick a path, recurse on the rest of the
    graph, and on failure move to the next candidate path.  A path lies in
    one component, so when the components of the free vertices hold fewer
    than the missing number of disjoint n-vertex blocks, the branch fails
    without a search.  "None" therefore means every choice was exhausted.
    """
    if t < 1 or n < 1:
        raise ValueError("t >= 1 and n >= 1 required")
    bud = Budget.coerce(budget)
    full = (1 << g.order) - 1
    chosen: list[PathWitness] = []

    def recurse(blocked: int) -> bool:
        if len(chosen) == t:
            return True
        free = full & ~blocked
        room = sum(comp.bit_count() // n for comp in component_masks(g, free))
        if room < t - len(chosen):
            return False
        for p in _iter_paths_exact(g, blocked, n, bud):
            pmask = 0
            for v in p:
                pmask |= 1 << v
            chosen.append(p)
            if recurse(blocked | pmask):
                return True
            chosen.pop()
        return False

    return chosen if recurse(0) else None


def fits_complete_multipartite(pattern: Graph, part_sizes: Sequence[int]) -> bool:
    """Does ``pattern`` embed into the complete multipartite graph K(parts)?

    An embedding into a complete multipartite host is exactly a proper
    coloring of the pattern whose color classes fit the part capacities (the
    host has every cross-part edge, and same-part images must be pattern
    non-adjacent).  Capacities above the pattern order are irrelevant, so
    the search below is bounded by the pattern alone, no matter how large
    the actual parts are.
    """
    caps = sorted((min(p, pattern.order) for p in part_sizes), reverse=True)
    if any(c < 0 for c in caps):
        raise ValueError("part sizes must be nonnegative")
    n = pattern.order
    by_degree = sorted(range(n), key=lambda v: (-pattern.degree(v), v))
    color = [-1] * n
    counts = [0] * len(caps)

    def assign(i: int) -> bool:
        if i == n:
            return True
        v = by_degree[i]
        # Empty classes with equal caps are interchangeable; occupied ones
        # are not (their contents constrain v differently), so dedup only
        # the empties.
        tried_empty: set[int] = set()
        for ci in range(len(caps)):
            if counts[ci] >= caps[ci]:
                continue
            if counts[ci] == 0:
                if caps[ci] in tried_empty:
                    continue
                tried_empty.add(caps[ci])
            if any(color[w] == ci for w in iter_bits(pattern.adj[v])):
                continue
            color[v] = ci
            counts[ci] += 1
            if assign(i + 1):
                return True
            color[v] = -1
            counts[ci] -= 1
        return False

    return assign(0)
