"""Exact containment engines: subgraph search and longest paths.

Everything here is exact.  Searches carry an expansion budget (a count of
attempted assignments, not wall time); running out is reported explicitly,
never silently converted into an "absent" answer.

:func:`longest_path` is the one path search: with ``stop=n`` it finds a
``P_n`` or, failing that, a maximum path.  ``t . P_n`` is the pattern
``DisjointPaths(t, n)`` for :func:`find_subgraph`; for t > 1 the extremal
audit's path side is the component-capacity argument alone.
"""

from __future__ import annotations

from collections.abc import Sequence

from .families import PatternSpec, build
from .graphs import Frozen, Graph, component_masks, iter_bits

DEFAULT_BUDGET = 50_000_000

PathWitness = tuple[int, ...]


class BudgetExhausted(RuntimeError):
    """A search ran out of its expansion budget before settling the question."""


_EXHAUSTED = "search expansion budget exhausted"


class Budget:
    """Mutable expansion counter shared across the searches of one task."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("budget must be positive")
        self.remaining = limit

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhausted(_EXHAUSTED)

    @classmethod
    def coerce(cls, budget: "int | Budget | None") -> "Budget":
        if budget is None:
            return cls(DEFAULT_BUDGET)
        if isinstance(budget, Budget):
            return budget
        return cls(budget)


class Embedding(Frozen):
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


class SubgraphSearch(Frozen):
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
    p = spec.order
    if p > host.order:
        return SubgraphSearch("absent")
    pattern = build(spec)
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
# an unvisited-reachability bound.  In a bipartite component a path alternates
# sides, so from an endpoint whose unvisited reachable set holds ``a``
# vertices on the other side and ``b`` on its own, at most min(2a, 2b + 1)
# more vertices fit: the side-count bound, which settles K_{10,30} (no P23)
# in a few hundred nodes where reachability alone cannot.  A node is pruned
# when the bound is at most the gap ``len(best) - len(path)``; both forms
# grow with the reachable set, so the bound is decided, not counted: the
# reachable set is grown layer by layer from the endpoint and the walk
# stops at the first layer that lifts the bound over the gap, or prunes when
# the set is complete without doing so.  A node that has just set a new
# best has a gap of 0 and is decided by its first layer, so the descent of a
# long path costs a few bit operations per node.  On components of at most
# 24 vertices the explored states are memoized, which makes the search the
# subset/endpoint dynamic program evaluated lazily; larger components run
# plain branch-and-bound.  A path covering its whole component stops the
# search early (nothing longer can exist), which is what makes dense random
# components cheap; so does a path on ``stop`` vertices when one is asked
# for.  The bound prunes only branches that cannot beat the best path so
# far, and the best is replaced only by a strictly longer path, so it
# changes node counts and never an answer.
# ---------------------------------------------------------------------------

_MEMO_LIMIT = 24

# Component answers of one graph: (component vertex mask, stop length) to
# the path its search returned.
SearchedComponents = dict[tuple[int, int], PathWitness]


def _bipartite_side(adj: Sequence[int], comp_mask: int, start: int) -> int | None:
    """One side of component ``comp_mask``, or None if it has an odd cycle.

    BFS layers from ``start`` alternate sides, and an edge inside a parity
    class of the layers joins two vertices of one layer, so each layer is
    checked as it is built; a dense component with a triangle exits in its
    first layers.  Layers stay in ``comp_mask``, which host edges can leave.
    """
    sides = [0, 0]
    frontier, parity = 1 << start, 0
    while frontier:
        sides[parity] |= frontier
        step = 0
        layer = frontier
        while layer:
            low = layer & -layer
            row = adj[low.bit_length() - 1]
            if row & frontier:
                return None
            step |= row
            layer ^= low
        parity ^= 1
        frontier = step & comp_mask & ~(sides[0] | sides[1])
    return sides[0]


def _component_search(g: Graph, comp_mask: int, bud: Budget, stop_len: int) -> PathWitness:
    """Longest path inside component ``comp_mask``, or its first on ``stop_len`` vertices.

    The search runs on an explicit stack, free of the recursion limit:
    ``path``, its visited set ``mask``, and the ``untried`` neighbours of
    every path vertex below the top.  Nodes are counted against a local
    copy of ``bud.remaining``, written back on every exit, so the budget
    runs out at the same node and is left as :meth:`Budget.spend` leaves it.
    """
    adj = g.adj
    comp = list(iter_bits(comp_mask))
    best: PathWitness = ()
    # A dead state (endpoint v, visited set mask) is keyed mask << shift | v.
    shift = g.order.bit_length()
    dead: set[int] | None = set() if len(comp) <= _MEMO_LIMIT else None
    side = _bipartite_side(adj, comp_mask, comp[0])

    def can_gain(endpoint: int, frontier: int, free: int, need: int) -> bool:
        """Can a path ending at ``endpoint`` gain more than ``need`` of the
        ``free`` vertices, ``frontier`` being its free neighbours?

        In a bipartite component at most min(2a, 2b + 1) of the reachable
        set fit, ``a`` of it on the other side from the endpoint and ``b``
        on its own; otherwise all of it may.
        """
        if side is not None:
            own = side if side >> endpoint & 1 else comp_mask ^ side
        reach = 0
        while frontier:
            reach |= frontier
            if side is None:
                gain = reach.bit_count()
            else:
                same = (reach & own).bit_count()
                gain = min(2 * (reach.bit_count() - same), 2 * same + 1)
            if gain > need:
                return True
            step = 0
            while frontier:
                low = frontier & -frontier
                step |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = step & free & ~reach
        return False

    remaining = bud.remaining
    try:
        for start in comp:
            path = [start]
            mask = 1 << start
            untried: list[int] = []
            while path:
                # Visit the path's new last vertex.
                v = path[-1]
                remaining -= 1
                if remaining < 0:
                    raise BudgetExhausted(_EXHAUSTED)
                if len(path) > len(best):
                    best = tuple(path)
                    if len(path) >= stop_len:
                        return best
                free = comp_mask & ~mask
                rest = adj[v] & free
                if rest and dead is not None and (mask << shift | v) in dead:
                    rest = 0
                # With no gap to the best path, any free neighbour is a gain.
                elif rest and len(best) > len(path) and not can_gain(
                    v, rest, free, len(best) - len(path)
                ):
                    rest = 0
                # Retreat past the vertices with nothing left to try, then
                # step to the least untried neighbour of the deepest one
                # that has one.
                while not rest:
                    v = path.pop()
                    if dead is not None:
                        dead.add(mask << shift | v)
                    mask ^= 1 << v
                    if not path:
                        break
                    rest = untried.pop()
                if rest:
                    low = rest & -rest
                    untried.append(rest ^ low)
                    path.append(low.bit_length() - 1)
                    mask |= low
        return best
    finally:
        bud.remaining = remaining


def _normalize_direction(path: PathWitness) -> PathWitness:
    rev = path[::-1]
    return path if path <= rev else rev


def longest_path(
    g: Graph, budget: int | Budget | None = None, *, stop: int | None = None,
    within: int | None = None, searched: SearchedComponents | None = None,
) -> PathWitness:
    """A maximum-length path of g, deterministic across runs.

    Components are searched in order of their least vertex; the first
    maximum found in the canonical exploration order wins and the result is
    direction-normalized so the lower endpoint comes first.  With ``stop``,
    the search ends at the first path on ``stop`` vertices, so the answer
    has ``stop`` vertices exactly when g holds a path that long, and is a
    maximum path otherwise.  The components with at least ``stop`` vertices
    are searched first, since no other can hold that path; each component's
    search is independent of the others, so this changes the work, never
    the answer.  A branch is bounded by the vertices its
    endpoint can still reach and, in a bipartite component, by how many of
    those lie on each side, since a path alternates sides.  The bound is
    decided against the gap to the best path, layer by layer of the
    reachable set, and never counted in full: a branch continues as soon
    as one layer lifts it over the gap.

    With ``within``, a vertex bitmask, the search runs in the subgraph
    induced on it and answers in g's labels.  Exploration follows vertex
    order either way, so the path and the budget spent match a search of
    that subgraph, relabelled in vertex order, mapped back.

    ``searched`` carries component answers from earlier calls on the same
    g, keyed by the component's vertex mask and its stop length
    ``min(stop, size)``; answers found here are added to it.  A
    component's search reads nothing but g's edges inside that mask and
    the stop length, so a repeat would explore the same nodes and return
    the same path: a known answer is reused as is and spends no budget.
    A search that ends short of its stop length has explored every branch,
    as a search without a stop does, so its path is also stored under the
    stop-free key ``(mask, size)``.  Without ``searched``, each call
    starts from an empty dict, which still keeps a component from being
    searched twice within the call.
    """
    if stop is not None and stop < 1:
        raise ValueError("stop >= 1 required")
    bud = Budget.coerce(budget)
    if searched is None:
        searched = {}
    comps = component_masks(g, within)

    def search(comp: int) -> PathWitness:
        size = comp.bit_count()
        key = (comp, size if stop is None else min(stop, size))
        if key not in searched:
            path = searched[key] = _component_search(g, comp, bud, key[1])
            if len(path) < key[1]:  # every branch explored: the stop-free answer
                searched[comp, size] = path
        return searched[key]

    if stop is not None:
        for comp in comps:
            if comp.bit_count() >= stop:
                path = search(comp)
                if len(path) == stop:
                    return _normalize_direction(path)
    best: PathWitness = ()
    for comp in comps:
        if comp.bit_count() <= len(best):
            continue
        cand = search(comp)
        if len(cand) > len(best):
            best = cand
    return _normalize_direction(best)


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
