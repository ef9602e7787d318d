"""Exact containment engines: subgraph search and longest paths.

Everything here is exact.  Searches carry an expansion budget (a count of
attempted assignments, not wall time); running out is reported explicitly,
never silently converted into an "absent" answer.

:func:`longest_path` is the one path search: with ``stop=n`` it finds a
``P_n`` or, failing that, a maximum path.  ``t . P_n`` is the pattern
``DisjointPaths(t, n)``, and ``Path(n)`` is ``DisjointPaths(1, n)``;
:func:`find_subgraph` asks the path search for every one-path pattern and
places the others vertex by vertex.  For t > 1 the extremal audit's path
side is the component-capacity argument alone.
"""

from __future__ import annotations

from collections.abc import Sequence

from .families import BudgetExhausted, DisjointPaths, PatternSpec, build
from .graphs import Frozen, Graph, _lower_twins, components, iter_bits

DEFAULT_BUDGET = 50_000_000

PathWitness = tuple[int, ...]


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
            raise BudgetExhausted("search expansion budget exhausted")

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
    return _embedding_fault(host, emb, True)


def _embedding_fault(host: Graph, emb: Embedding, in_host: bool) -> str | None:
    """Reason ``emb`` is no embedding into ``host`` (``in_host``) or into its
    complement (not ``in_host``), or None.  Both read the host's rows: each
    pattern edge must land on a host edge, or on a host non-edge."""
    if emb.host_order != host.order:
        return f"host order mismatch: embedding says {emb.host_order}, graph has {host.order}"
    if len(emb.mapping) != emb.pattern.order:
        return f"mapping length {len(emb.mapping)} != pattern order {emb.pattern.order}"
    for v in emb.mapping:
        if not 0 <= v < host.order:
            return f"image {v} out of range"
    if len(set(emb.mapping)) != len(emb.mapping):
        return "mapping is not injective"
    adj, image = host.adj, emb.mapping
    for u, v in emb.pattern.edges():
        if adj[image[u]] >> image[v] & 1 != in_host:
            side = "" if in_host else "complement "
            return f"missing {side}edge {image[u]},{image[v]} (pattern {u},{v})"
    return None


class SubgraphSearch(Frozen):
    """Three-valued search outcome: present / absent / unknown (budget)."""

    status: str
    embedding: Embedding | None = None

    def decided(self, spec: PatternSpec, where: str) -> bool:
        """True when present, False when absent; an unknown outcome raises
        :class:`BudgetExhausted` naming ``spec`` and ``where`` it was sought."""
        if self.status == "unknown":
            raise BudgetExhausted(f"undecided: {spec.text()} in {where}")
        return self.status == "present"


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
    exhaustive search, or "unknown" if the expansion budget ran out.  A
    pattern with more vertices than the host is absent without a search.
    A one-path pattern, ``Path(n)`` or ``DisjointPaths(1, n)``, goes to the
    path engine, ``longest_path(host, budget, stop=n)``, whose pruning
    settles it in far fewer nodes; the path it returns is the embedding.
    Every other pattern is placed vertex by vertex in the order of
    :func:`_search_order`.
    """
    bud = Budget.coerce(budget)
    p = spec.order
    if p > host.order:
        return SubgraphSearch("absent")
    try:
        if isinstance(spec, DisjointPaths) and spec.t == 1:
            # the path it finds, shorter when there is none
            image = longest_path(host, bud, stop=p)
        else:
            image = _place(host, spec, bud)
    except BudgetExhausted:
        return SubgraphSearch("unknown")
    if image is None or len(image) < p:
        return SubgraphSearch("absent")
    emb = Embedding(spec, host.order, tuple(image))
    reason = check_embedding(host, emb)
    if reason is not None:  # pragma: no cover - engine invariant
        raise AssertionError(f"search produced an invalid embedding: {reason}")
    return SubgraphSearch("present", emb)


def _place(host: Graph, spec: PatternSpec, bud: Budget) -> list[int] | None:
    """Host image of each vertex of ``spec``'s pattern, or None when none fits.

    Depth-first over the pattern vertices in :func:`_search_order`, on an
    explicit stack: ``untried[i]`` is the mask of host vertices still to be
    tried for the ``i``-th of them, least first.  A candidate is an unused
    host vertex adjacent to the images of the pattern vertex's neighbours
    placed before it, of at least its degree; each one tried spends a node.
    """
    p = spec.order
    pattern = build(spec)
    order = _search_order(spec)
    adj = host.adj
    # neighbors of each pattern vertex that are placed before it
    placed_before: list[list[int]] = []
    seen: set[int] = set()
    for pv in order:
        placed_before.append([w for w in iter_bits(pattern.adj[pv]) if w in seen])
        seen.add(pv)
    host_deg = [host.degree(v) for v in range(host.order)]
    # host vertices of at least each pattern degree
    of_degree: dict[int, int] = {}
    for need in {pattern.degree(v) for v in range(p)}:
        of_degree[need] = sum(1 << v for v, d in enumerate(host_deg) if d >= need)
    eligible = [of_degree[pattern.degree(pv)] for pv in order]
    image = [-1] * p
    untried = [0] * p
    untried[0] = eligible[0]
    idx = used = 0
    while True:
        cand = untried[idx]
        if cand:
            low = cand & -cand
            untried[idx] = cand ^ low
            bud.spend()
            image[order[idx]] = low.bit_length() - 1
            if idx + 1 == p:
                return image
            used |= low
            idx += 1
            cand = eligible[idx] & ~used
            for w in placed_before[idx]:
                cand &= adj[image[w]]
            untried[idx] = cand
        elif idx:
            idx -= 1
            used ^= 1 << image[order[idx]]
        else:
            return None


# ---------------------------------------------------------------------------
# Exact longest path.
#
# Per component: depth-first search over (endpoint, visited-set) states with
# an unvisited-reachability bound.  In a bipartite component a path alternates
# sides, so from an endpoint whose unvisited reachable set holds ``a``
# vertices on the other side and ``b`` on its own, at most min(2a, 2b + 1)
# more vertices fit: the side-count bound, which settles K_{10,30} (no P23)
# in a few dozen nodes where reachability alone cannot.  The sides come from
# the BFS that finds the components (``graphs.components``).  A dead end, a
# free vertex with at most one neighbour among the free vertices and the
# endpoint, can only be the last vertex of an extension, so at most the
# reachable set less all but one of its dead ends fits; the bound is the
# least of the two forms.  A node is pruned when the bound is at most the
# gap ``len(best) - len(path)``; every form grows with the reachable set
# (a new layer adds no more dead ends than vertices), so the bound is
# decided, not counted: the reachable set is grown layer by layer from the
# endpoint and the walk stops as soon as the bound exceeds the gap, or
# prunes when the set is complete without doing so.  A node that has just
# set a new best is not bounded at all, and the best path is kept as a
# length until the descent that set it stops: only then, or at the stop
# length, is it copied, once.  So the descent of a long path costs a few
# bit operations per node.
#
# The starts are the untried set of the empty path: the walk steps to the
# least of them and pops the rest like any other set of alternatives.
# Twins, two vertices with the same open or the same closed neighbourhood
# in the component, are swapped by an automorphism that fixes every other
# vertex.  So while both are free, the subtree under the higher mirrors the
# subtree under the lower, and the higher is skipped wherever a popped set
# holds it, starts included.  The lower is tried first (vertex order), and
# the best path is replaced only by a strictly longer one, so the mirror
# could not have replaced it.  The twin table is built in one place, at the
# first nonempty set popped.  The first descent is never pruned: it covers
# its component, which ends the search, or it branches, and the branch is
# popped before the starts are.  A first descent that reaches the stop
# length (the dense random blocks of the suites) never builds it.
#
# The components are visited in one order: those that can hold a path on
# ``stop`` vertices first, by least vertex, then the rest largest first;
# one that can neither beat the best path nor tie it from a lower least
# vertex is never searched (see :func:`longest_path`).
#
# Every component remembers its dead states, (endpoint, visited set) pairs
# explored to exhaustion, and never expands one again: the search is the
# subset/endpoint dynamic program (Held-Karp) evaluated lazily.  Its memory
# grows with the nodes spent until the memo holds _DEAD_STATES states; then
# it is emptied and fills again.  A forgotten state is only expanded once
# more, and finds nothing longer than the best path, which only grows.  The
# memo skips only dead states, the bounds only branches that cannot beat
# the best path so far and the twins only mirrors of searched branches, so
# together they change node counts and never an answer, a tie-break or an
# early stop.
# ---------------------------------------------------------------------------

# The most dead states one component search keeps: a search peaks at about
# 120 MB of RSS with them, and every memo the tests and the benchmark build
# stays below it.
_DEAD_STATES = 1 << 20

# Component answers of one graph: (component vertex mask, stop length) to
# the path its search returned.
SearchedComponents = dict[tuple[int, int], PathWitness]


def _component_search(
    g: Graph, comp_mask: int, side: int | None, bud: Budget, stop_len: int
) -> PathWitness:
    """Longest path inside component ``comp_mask``, or its first on ``stop_len`` vertices.

    ``side`` is one side of the component if it is bipartite, else None.
    The search runs on an explicit stack, free of the recursion limit:
    ``path``, its visited set ``mask``, and the ``untried`` alternatives to
    every path vertex, the first being the starts not yet tried.
    """
    adj = g.adj
    # The best path's length, and the path, copied when its descent stops.
    best_len = 0
    best: PathWitness = ()
    # A dead state (endpoint v, visited set mask) is keyed mask << shift | v.
    shift = g.order.bit_length()
    dead: set[int] = set()
    # The twin table, built at the first nonempty untried set popped: until
    # then ``twinned`` is -1, which selects any such set.
    lower: dict[int, int] = {}
    twinned = -1

    def can_gain(endpoint: int, frontier: int, free: int, need: int) -> bool:
        """Can a path ending at ``endpoint`` gain more than ``need`` of the
        ``free`` vertices, ``frontier`` being its free neighbours?

        At most the reachable set fits, less all but one of its dead ends
        (vertices with at most one neighbour among ``free`` and the
        endpoint, which can only come last): its non-dead vertices plus one
        if it has a dead end, counted vertex by vertex.  In a bipartite
        component at most min(2a, 2b + 1) fit as well, ``a`` of the
        reachable set on the other side from the endpoint and ``b`` on its
        own, checked once per layer.
        """
        if side is not None:
            own = side if side >> endpoint & 1 else comp_mask ^ side
        avail = free | 1 << endpoint
        reach = 0
        # The dead-end bound so far: the non-dead vertices of ``reach``,
        # plus 1 once it holds a dead end (``ends``).
        gain = ends = 0
        fits = True
        while frontier:
            reach |= frontier
            if side is not None:
                same = (reach & own).bit_count()
                fits = min(2 * (reach.bit_count() - same), 2 * same + 1) > need
                if fits and gain > need:
                    return True
            step = 0
            while frontier:
                low = frontier & -frontier
                row = adj[low.bit_length() - 1]
                step |= row
                frontier ^= low
                row &= avail
                if not row & (row - 1):
                    if ends:
                        continue
                    ends = 1
                gain += 1
                if gain > need and fits:
                    return True
            frontier = step & free & ~reach
        return False

    path: list[int] = []
    mask = 0
    untried: list[int] = []
    rest = comp_mask  # the empty path's untried set: every start
    while True:
        # Step to the least vertex of ``rest`` and visit it.
        low = rest & -rest
        untried.append(rest ^ low)
        v = low.bit_length() - 1
        path.append(v)
        mask |= low
        bud.spend()
        if len(path) > best_len:
            best_len = len(path)
            if best_len >= stop_len:
                return tuple(path)
        free = comp_mask & ~mask
        rest = adj[v] & free
        # A dead state has nothing left to find; with no gap to the best
        # path, any free neighbour is a gain.
        if rest and ((mask << shift | v) in dead or best_len > len(path) and not can_gain(
            v, rest, free, best_len - len(path)
        )):
            rest = 0
        # The descent stops here.  If it lengthened the best path, it is
        # still ``path``, not yet popped: copy it now, once.
        if not rest and best_len > len(best):
            best = tuple(path)
        # Retreat past the vertices with nothing left to try, down to the
        # deepest one with an untried alternative, or to the untried starts.
        # A vertex with a free lower twin is skipped: that twin belongs to
        # the same set of alternatives, is tried before it, and swapping
        # the two maps one subtree onto the other.  So a set's least vertex
        # is never skipped, and only the popped sets are filtered.
        while not rest:
            if not path:
                return best
            v = path.pop()
            if len(dead) == _DEAD_STATES:
                dead.clear()
            dead.add(mask << shift | v)
            mask ^= 1 << v
            rest = untried.pop()
            if rest & twinned:
                if twinned < 0:
                    lower, twinned = _lower_twins(adj, comp_mask)
                skip = rest & twinned
                while skip:
                    low = skip & -skip
                    if lower[low.bit_length() - 1] & ~mask:
                        rest ^= low
                    skip ^= low


def longest_path(
    g: Graph, budget: int | Budget | None = None, *, stop: int | None = None,
    within: int | None = None, searched: SearchedComponents | None = None,
) -> PathWitness:
    """A maximum-length path of g, deterministic across runs.

    The answer is the first maximum path, in the canonical exploration
    order, of the least-vertex component holding one, direction-normalized
    so the lower endpoint comes first.  The components are visited in one
    order: those with at least ``stop`` vertices first, by least vertex,
    then the rest largest first, ties by least vertex (without ``stop``,
    all of them largest first).  One is skipped when it has fewer vertices
    than the best path so far, or as many and a higher least vertex; a path
    replaces the best when it is longer, or as long and in a component with
    a lower least vertex.  Each component's search depends only on its own
    edges and stop length, so that component still wins with the same
    path.  A walk by least vertex skips a component no larger than the best
    path of a lower one, which is visited first here, so the components
    searched are a subset of that walk's: only the work falls.

    With ``stop``, the search ends at the first path on ``stop`` vertices,
    so the answer has ``stop`` vertices exactly when g holds a path that
    long, and is a maximum path otherwise.  Only the components visited
    first can hold that path, and none of them is skipped, since the best
    path before it is shorter than ``stop``: the first, by least vertex,
    that holds one gives the answer.

    A branch is bounded by the vertices its endpoint can still reach, less
    all but one of the dead ends among them (a vertex with at most one
    neighbour among the free vertices and the endpoint can only come
    last), and, in a bipartite component, by how many of those lie on each
    side, since a path alternates sides.  The bound is decided against
    the gap to the best path as the reachable set grows, and never counted
    in full: a branch continues as soon as the bound exceeds the gap.  Of
    two twins (same open or closed neighbourhood) that are both free, only
    the lower is tried, as a start or as a next step alike: swapping them
    maps the higher's branch onto the lower's, which was searched first.
    The bounds cut only branches that cannot beat the best path, the twins
    skip only mirrors of searched branches, and a component's best path is
    replaced only by a longer one, so they change the nodes spent, never a
    path or a tie-break.

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
    cap = g.order if stop is None else stop
    best: PathWitness = ()
    best_low = 0  # the least vertex of best's component, as a bit
    # By stop length, longest first: the sort is stable, so the components
    # that can hold a P_stop keep least-vertex order, and so do ties.
    for comp, side in sorted(components(g, within), key=lambda c: -min(c[0].bit_count(), cap)):
        size, low = comp.bit_count(), comp & -comp
        if size < len(best) or size == len(best) and low > best_low:
            continue
        key = (comp, min(size, cap))
        cand = searched.get(key)
        if cand is None:
            cand = searched[key] = _component_search(g, comp, side, bud, key[1])
            if len(cand) < key[1]:  # every branch explored: the stop-free answer
                searched[comp, size] = cand
        if len(cand) > len(best) or len(cand) == len(best) and low < best_low:
            best, best_low = cand, low
            if len(best) == stop:
                break
    return min(best, best[::-1])


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
    # Depth-first over by_degree on an explicit stack: the class of each
    # coloured vertex, the members of each class as a mask, and at each
    # depth the next class to try.
    color = [-1] * n
    members = [0] * len(caps)
    next_class = [0] * (n + 1)
    i = 0
    while i < n:
        v = by_degree[i]
        ci = next_class[i]
        while ci < len(caps):
            cls = members[ci]
            if cls.bit_count() < caps[ci]:
                # Empty classes with equal caps are interchangeable; occupied
                # ones are not (their contents constrain v differently).  Only
                # the first empty class of a run of equal caps is opened, so a
                # run fills from its front: open one whose predecessor differs.
                if not cls:
                    if not ci or caps[ci - 1] != caps[ci] or members[ci - 1]:
                        break
                elif not cls & pattern.adj[v]:
                    break
            ci += 1
        if ci < len(caps):
            next_class[i] = ci + 1
            color[v] = ci
            members[ci] |= 1 << v
            i += 1
            next_class[i] = 0
        elif i:
            i -= 1
            v = by_degree[i]
            members[color[v]] ^= 1 << v
        else:
            return False
    return True
