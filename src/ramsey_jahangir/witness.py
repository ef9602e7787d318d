"""Constructive dichotomy extractors for paths versus generalized Jahangir graphs.

``extract(f, case)`` inspects a host graph ``f`` and produces one of two
verified outcomes for the theorem regime ``case`` (one of the case classes
in ``families``): the promised path structure inside the host, or a
Jahangir embedding inside the host's complement.  The regimes
(:class:`Thm1`, :class:`Thm2EvenM`, :class:`Thm2OddM`) share one front: a
path on ``n`` vertices when the host has one, otherwise a maximum path,
whose length picks the regime's Jahangir-side case.  ``extract`` runs
that front once per path; only :class:`Thm1` asks for more than one
(``Thm3(t, n, s, m)`` is ``Thm1(n, s, m, t)``).

The constructions lean on maximality: a maximum-length path's endpoint
cannot be adjacent to anything that could extend it, and those forced
non-adjacencies become complement edges.  Every such step is still
checked against the actual host rather than trusted, and ``extract``
re-verifies every witness edge by edge before it leaves this module.  A
selection the construction is entitled to make but cannot raises
:class:`MaximalityViolation` instead of silently guessing.
"""

from __future__ import annotations

from itertools import combinations, islice

from .embedding import (
    Budget,
    Embedding,
    PathWitness,
    SearchedComponents,
    _embedding_fault,
    find_subgraph,
    fits_complete_multipartite,
    longest_path,
)
from .families import (
    BudgetExhausted,
    DisjointPaths,
    Jahangir,
    MaximalityViolation,
    Path,
    PreconditionError,
    TheoremCase,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Wheel,
    build,
    extremal_graph,
    require_thresholds,
)
from .graphs import (
    Frozen,
    Graph,
    _indented_json,
    clique_union_sizes,
    complement,
    component_masks,
    iter_bits,
    vertex_mask,
)

# --------------------------------------------------------------------------
# data carried by every extraction


class PathSystem(Frozen):
    """Vertex-disjoint maximum paths peeled greedily off a vertex set of a host.

    ``paths[0]`` is a maximum path of the subgraph induced on that set
    (the whole host by default); ``paths[i]`` is a maximum path of the
    subgraph induced on whatever the earlier paths left of it.  Every
    vertex is a host label.  When a residual had no edges at all, a
    two-vertex path on its two least vertices was fabricated and the
    invented edge recorded in ``augmented_edges`` (the host itself is never
    mutated; the invented edges touch only vertices inside their own path,
    so later residuals are unaffected by them).  ``remainder`` lists, in
    ascending order, the vertices of the set no path uses.
    """

    paths: tuple[PathWitness, ...]
    augmented_edges: tuple[tuple[int, int], ...]
    remainder: tuple[int, ...]


class ExtractionTrace(Frozen):
    """Replayable record of how a witness was put together.

    ``k`` is the maximum path length found in the host, which picks the
    case; ``selections`` maps the construction's named roles ("x", "hub",
    "c3", ...) to host vertices in the order they were decided.
    ``quadruples`` (even rim step, long-path case) and ``couples_a`` /
    ``couples_b`` (odd rim step, two-long-paths case) record the candidate
    pools the rim selections were drawn from.
    """

    theorem: str
    case: str
    k: int
    paths: tuple[PathWitness, ...]
    augmented_edges: tuple[tuple[int, int], ...]
    selections: dict[str, int] = {}  # a fresh dict per trace (see Frozen)
    quadruples: tuple[tuple[int, ...], ...] = ()
    couples_a: tuple[tuple[int, int], ...] = ()
    couples_b: tuple[tuple[int, int], ...] = ()


class DichotomyWitness(Frozen):
    """One verified side of the dichotomy: ``embedding`` maps a Jahangir
    graph into the host's complement, or a path structure into the host."""

    embedding: Embedding
    trace: ExtractionTrace

    @property
    def kind(self) -> str:
        """``"jahangir"`` or ``"paths"``, read off the embedded pattern."""
        return "jahangir" if isinstance(self.embedding.pattern, Jahangir) else "paths"


def verify_witness(host: Graph, witness: DichotomyWitness) -> bool:
    """Re-check a witness from scratch against the host it came from: the
    map's order, length, range and injectivity, then each pattern edge on
    the host's rows, as a host edge for a path witness and as a host
    non-edge for a Jahangir witness (an edge of the complement)."""
    return _embedding_fault(host, witness.embedding, witness.kind == "paths") is None


def _ensure(host: Graph, witness: DichotomyWitness) -> DichotomyWitness:
    if not verify_witness(host, witness):  # pragma: no cover - engine invariant
        raise AssertionError(
            "extracted witness failed verification; this is a bug in the extractor"
        )
    return witness


# --------------------------------------------------------------------------
# shared building blocks
#
# The witness builders below return unverified witnesses: ``extract``
# verifies each one on the host it returns it for.


def build_path_system(
    f: Graph,
    count: int,
    budget: int | Budget | None = None,
    *,
    within: int | None = None,
    searched: SearchedComponents | None = None,
) -> PathSystem:
    """Peel ``count`` disjoint maximum paths off ``f``, fabricating on edgeless residuals.

    ``within``, a vertex bitmask, restricts the peeling to the subgraph of
    ``f`` induced on it; the paths keep ``f``'s labels.

    Each residual is the previous one minus a path, so every component no
    path has touched yet is a component of the next residual too.  One
    dict of component answers (``longest_path``'s ``searched``) serves all
    the residual searches, so such a component is searched once; pass the
    dict of earlier searches of ``f`` to reuse theirs.  The reuse is exact:
    a component's search depends only on its vertex set and stop length,
    so a repeat would return the same path.

    A residual of fewer than two vertices before the ``count``-th path
    raises :class:`PreconditionError`; its ``system`` attribute holds the
    paths peeled until then.
    """
    if count < 1:
        raise ValueError("count >= 1 required")
    bud = Budget.coerce(budget)
    if searched is None:
        searched = {}
    remaining = vertex_mask(f, within)
    paths: list[PathWitness] = []
    fabricated: list[tuple[int, int]] = []
    for _ in range(count):
        if remaining.bit_count() < 2:
            error = PreconditionError(f"host exhausted after {len(paths)} of {count} paths")
            error.system = PathSystem(
                tuple(paths), tuple(fabricated), tuple(iter_bits(remaining))
            )
            raise error
        path = longest_path(f, bud, within=remaining, searched=searched)
        if len(path) < 2:
            # Edgeless residual: promise a two-vertex path on the two least
            # residual vertices and remember the edge we invented for it.
            path = tuple(islice(iter_bits(remaining), 2))
            fabricated.append(path)
        paths.append(path)
        remaining &= ~sum(1 << v for v in path)
    return PathSystem(tuple(paths), tuple(fabricated), tuple(iter_bits(remaining)))


def _fill_rim(
    f: Graph,
    rim: list[int],
    slots: list[tuple[int, list[int]]],
    partner: dict[int, int],
    hub: int,
    s: int,
) -> bool:
    """Backtrack candidates into the open rim positions, slot by slot.

    Each slot is an open rim position (``-1`` in ``rim``) with its
    candidates, tried in order.  A vertex may take a position only if no
    earlier slot holds it, it shares no host edge with either already-placed
    rim neighbour, it is not the ``partner`` of a rim neighbour (the other
    endpoint of its path: same-path endpoints can be host-adjacent, so they
    must never sit side by side), and -- on spoke positions, the residue
    class 0 mod ``s`` -- it shares no host edge with the hub.  Every rim
    edge is checked exactly once, when the later of its two occupants
    arrives.  On success ``rim`` holds the first arrangement found.  The
    backtracking runs on an explicit stack, free of the recursion limit:
    ``tried[i]`` counts the candidates of slot ``i`` tried so far.
    """
    sm = len(rim)
    used: set[int] = set()
    tried = [0] * len(slots)
    i = 0
    while i < len(slots):
        pos, candidates = slots[i]
        before = rim[(pos - 1) % sm]
        after = rim[(pos + 1) % sm]
        while tried[i] < len(candidates):
            v = candidates[tried[i]]
            tried[i] += 1
            if v in used:
                continue
            if before >= 0 and (f.has_edge(v, before) or partner.get(v) == before):
                continue
            if after >= 0 and (f.has_edge(v, after) or partner.get(v) == after):
                continue
            if pos % s == 0 and f.has_edge(v, hub):
                continue
            rim[pos] = v
            used.add(v)
            i += 1
            break
        else:
            # Every candidate failed: take back the previous slot's vertex.
            tried[i] = 0
            i -= 1
            if i < 0:
                return False
            pos = slots[i][0]
            used.discard(rim[pos])
            rim[pos] = -1
    return True


def _assemble_endpoint_rim(
    f: Graph,
    path_list: tuple[PathWitness, ...],
    spares: list[int],
    s: int,
    m: int,
    trace: ExtractionTrace | None = None,
) -> tuple[list[int], int]:
    """Lay path endpoints plus spare vertices out as a Jahangir rim.

    Each spare in turn, greatest first, is the hub; the others go on the
    rim, all in one nonzero residue class mod ``s``, so they are pairwise
    non-consecutive (class positions sit ``s`` >= 2 apart, wraparound
    included) and never occupy a spoke position.  Endpoints fill the rest
    by ascending-order backtracking.  Returns ``(rim, hub)`` or, after
    exhausting every arrangement, raises :class:`MaximalityViolation`
    carrying ``trace``.
    """
    sm = s * m
    partner: dict[int, int] = {}
    endpoints: list[int] = []
    for p in path_list:
        a, b = p[0], p[-1]
        partner[a] = b
        partner[b] = a
        endpoints.extend((a, b))
    if len(endpoints) + len(spares) - 1 != sm:
        raise ValueError("endpoints plus rim spares must fill the rim exactly")
    endpoints.sort()

    pool = sorted(spares)
    for hub in reversed(pool):
        rim_spares = [v for v in pool if v != hub]
        for residue in range(1, s):
            class_positions = [p for p in range(sm) if p % s == residue]
            for chosen in combinations(class_positions, len(rim_spares)):
                rim = [-1] * sm
                for pos, v in zip(chosen, rim_spares):
                    rim[pos] = v
                slots = [(p, endpoints) for p in range(sm) if rim[p] < 0]
                if _fill_rim(f, rim, slots, partner, hub, s):
                    return rim, hub
    raise MaximalityViolation(
        "no arrangement of path endpoints and spare vertices forms the rim", trace
    )


def _endpoint_witness(
    g: Graph, theorem: str, case: str, s: int, m: int, k: int,
    bud: Budget, alive: int, searched: SearchedComponents,
) -> DichotomyWitness:
    """Short maximum paths of ``g`` on the vertices ``alive``: peel
    (sm - 1) // 2 of them there and rim their endpoints.

    The endpoints leave one rim slot (odd sm) or two (even sm) to the least
    vertices outside the path system, and one more of those is the hub.
    These spares go to one nonzero residue class so no spoke ever lands on
    one, and endpoint placement never puts two endpoints of the same path
    side by side.
    """
    sm = s * m
    count = (sm - 1) // 2
    try:
        system = build_path_system(g, count, bud, within=alive, searched=searched)
    except PreconditionError as exc:
        peeled = exc.system
        trace = ExtractionTrace(theorem, case, k, peeled.paths, peeled.augmented_edges)
        raise MaximalityViolation(str(exc), trace) from None
    base = ExtractionTrace(theorem, case, k, system.paths, system.augmented_edges)
    spares = sm - 2 * count + 1
    if len(system.remainder) < spares:
        raise MaximalityViolation(
            f"fewer than {spares} vertices remain outside the path system", base
        )
    chosen = list(system.remainder[:spares])
    rim, hub = _assemble_endpoint_rim(g, system.paths, chosen, s, m, base)
    selections = dict(zip(("x", "y", "z"), chosen))
    selections["hub"] = hub
    emb = Embedding(Jahangir(s, m), g.order, tuple(rim) + (hub,))
    return DichotomyWitness(emb, base.replace(selections=selections))


def _edgeless_witness(
    f: Graph, theorem: str, s: int, m: int, alive: int
) -> DichotomyWitness:
    """No edges among ``alive``: the complement is complete there, so the
    least ``sm + 1`` of them, in order, place the Jahangir."""
    sm = s * m
    placed = tuple(islice(iter_bits(alive), sm + 1))
    base = ExtractionTrace(theorem, "edgeless-host", 1, (), ())
    if len(placed) < sm + 1:
        raise MaximalityViolation(
            f"edgeless host of order {len(placed)} cannot hold a rim of {sm} plus a hub",
            base,
        )
    emb = Embedding(Jahangir(s, m), f.order, placed)
    return DichotomyWitness(emb, base.replace(selections={"hub": placed[-1]}))


# --------------------------------------------------------------------------
# even rim step


def _theorem1(
    f: Graph, first: PathWitness, s: int, m: int, bud: Budget, alive: int,
    searched: SearchedComponents,
) -> DichotomyWitness:
    """Even rim step, no ``P_n`` among ``alive``: rim the endpoints of short
    maximum paths (Case 1) or build on a long one (Case 2)."""
    k = len(first)
    if k <= 2 * s * m - 1:
        return _endpoint_witness(
            f, "Thm1", "Thm1-Case1", s, m, k, bud, alive, searched
        )
    return _theorem1_case2(f, first, s, m, alive)


def _theorem1_case2(
    f: Graph, first: PathWitness, s: int, m: int, alive: int
) -> DichotomyWitness:
    """Long maximum path: alternate low vertices with quadruple picks.

    Consecutive interior quadruples of the maximum path supply every other
    rim slot; the slots between them take the least vertices outside the
    path, which the endpoints' maximality keeps complement-adjacent to the
    whole path.  Each quadruple contributes its least member avoiding host
    edges to both flanking outside vertices.
    """
    sm = s * m
    k = len(first)
    half = sm // 2
    on_path = set(first)
    outside = [v for v in iter_bits(alive) if v not in on_path]
    base = ExtractionTrace("Thm1", "Thm1-Case2", k, (first,), ())
    if len(outside) < half:
        raise MaximalityViolation(
            f"need {half} vertices outside the maximum path, found {len(outside)}",
            base,
        )
    ys = outside[:half]
    quadruples = tuple(
        tuple(first[4 * i - 3 : 4 * i + 1]) for i in range(1, half)
    )
    base = base.replace(quadruples=quadruples)
    selections: dict[str, int] = {}  # a fresh dict per trace (see Frozen)
    for j, y in enumerate(ys, start=1):
        selections[f"y{j}"] = y
    cs: list[int] = []
    for i, quad in enumerate(quadruples, start=1):
        left, right = ys[i - 1], ys[i]
        pick = None
        for v in sorted(quad):
            if not f.has_edge(v, left) and not f.has_edge(v, right):
                pick = v
                break
        if pick is None:
            raise MaximalityViolation(
                f"every vertex of quadruple {i} touches one of its flanking"
                " outside vertices",
                base.replace(selections=selections),
            )
        cs.append(pick)
        selections[f"c{i}"] = pick
    rim: list[int] = []
    for i in range(half - 1):
        rim.append(ys[i])
        rim.append(cs[i])
    rim.append(ys[half - 1])
    rim.append(first[-1])
    hub = first[0]
    selections["hub"] = hub
    # Spoke positions are even (s is even), and even rim slots hold only the
    # outside vertices -- all complement-adjacent to the path's first vertex.
    emb = Embedding(Jahangir(s, m), f.order, tuple(rim) + (hub,))
    return DichotomyWitness(emb, base.replace(selections=selections))


# --------------------------------------------------------------------------
# odd rim step


def _theorem2_oddm(
    f: Graph, first: PathWitness, s: int, m: int, bud: Budget, alive: int,
    searched: SearchedComponents,
) -> DichotomyWitness:
    """Odd spoke count, no ``P_n``: rim the endpoints of short maximum paths
    (Case 1), interleave couple picks along two long paths (Case 2), or
    rim the endpoints of the short paths off one long path (Case 3)."""
    sm = s * m
    k = len(first)
    if k < sm - 1:
        return _endpoint_witness(
            f, "Thm2", "Thm2-OddM-Case1", s, m, k, bud, alive, searched
        )
    rest = alive & ~sum(1 << v for v in first)
    second = longest_path(f, bud, within=rest, searched=searched)
    if len(second) >= sm - 1:
        return _theorem2_oddm_case2(f, first, second, s, m)
    # One long path: everything off it holds only short paths, so the
    # endpoint-rim construction runs there.
    return _endpoint_witness(
        f, "Thm2", "Thm2-OddM-Case3", s, m, k, bud, rest, searched
    )


def _theorem2_even(
    f: Graph, first: PathWitness, s: int, m: int, bud: Budget, alive: int,
    searched: SearchedComponents,
) -> DichotomyWitness:
    """Even spoke count: find the full wheel in the complement, drop spokes."""
    sm = s * m
    base = ExtractionTrace("Thm2", "Thm2-EvenM", len(first), (first,), ())
    result = find_subgraph(complement(f), Wheel(sm), bud)
    if result.status == "unknown":
        raise BudgetExhausted(
            f"budget ran out searching the complement for a wheel with rim {sm}"
        )
    if result.status == "absent":
        raise MaximalityViolation(
            f"complement holds no wheel with rim {sm}; the hypotheses cannot hold",
            base,
        )
    # Both layouts put the rim on the first ``sm`` vertices and the hub
    # last, and the Jahangir keeps a subset of the wheel's edges, so the
    # wheel's vertex images place it unchanged.
    emb = Embedding(Jahangir(s, m), f.order, result.embedding.mapping)
    return DichotomyWitness(emb, base.replace(selections={"hub": emb.mapping[-1]}))


def _couples(path: PathWitness, q: int) -> tuple[tuple[int, int], ...]:
    """Alternating near-end vertex pairs along a path, disjoint by construction."""
    k = len(path)
    out = []
    for i in range(1, q + 1):
        if i % 2 == 1:
            out.append((path[i], path[i + 1]))
        else:
            out.append((path[k - i - 1], path[k - i]))
    return tuple(out)


def _theorem2_oddm_case2(
    f: Graph, first: PathWitness, second: PathWitness, s: int, m: int
) -> DichotomyWitness:
    """Odd spoke count, two long paths: interleave couple picks on the rim.

    Couples are pairs of near-end interior vertices taken alternately from
    both ends of each path; both paths are long enough that all couples and
    the path ends are pairwise disjoint.  From each couple, the members not
    host-adjacent to the hub candidate are eligible; :func:`_fill_rim`
    backtracks over those (at most two per couple), couple B1 then A1, B2,
    A2, ..., because a handful of borderline pairs are not forced by
    maximality alone.
    """
    sm = s * m
    k = len(first)
    q = (sm - 3) // 2
    couples_a = _couples(first, q)
    couples_b = _couples(second, q)
    on_paths = set(first) | set(second)
    outside = [v for v in range(f.order) if v not in on_paths]
    base = ExtractionTrace(
        "Thm2", "Thm2-OddM-Case2", k, (first, second), (),
        couples_a=couples_a, couples_b=couples_b,
    )
    if len(outside) < 2:
        raise MaximalityViolation(
            "fewer than two vertices lie outside the two paths", base
        )
    x, y = outside[0], outside[1]
    if f.has_edge(x, first[0]):
        raise MaximalityViolation(
            "hub candidate is host-adjacent to the first path's start", base
        )
    if f.has_edge(second[-1], y) or f.has_edge(y, first[0]):
        raise MaximalityViolation(
            "rim closer is host-adjacent to a fixed rim neighbour", base
        )

    def eligible(couple: tuple[int, int], label: str) -> list[int]:
        picks = [v for v in sorted(couple) if not f.has_edge(v, x)]
        if not picks:
            raise MaximalityViolation(
                f"both vertices of couple {label} touch the hub candidate", base
            )
        return picks

    rim = [first[0]] + [-1] * (2 * q) + [second[-1], y]
    slots: list[tuple[int, list[int]]] = []
    for i in range(1, q + 1):
        slots.append((2 * i - 1, eligible(couples_b[i - 1], f"B{i}")))
        slots.append((2 * i, eligible(couples_a[i - 1], f"A{i}")))
    if not _fill_rim(f, rim, slots, {}, x, s):
        raise MaximalityViolation(
            "no couple selection closes the rim cycle", base
        )
    selections: dict[str, int] = {"x": x, "y": y}
    for i in range(1, q + 1):
        selections[f"b{i}"] = rim[2 * i - 1]
        selections[f"a{i}"] = rim[2 * i]
    emb = Embedding(Jahangir(s, m), f.order, tuple(rim) + (x,))
    return DichotomyWitness(emb, base.replace(selections=selections))


# --------------------------------------------------------------------------
# the extractor

# Each regime's Jahangir-side construction, run on a maximum
# path when the vertices ``alive`` hold no P_n, and the theorem name its
# traces carry.  Thm1 runs one round per path; the other regimes have
# t = 1, so they run one round on the whole host.  Every path search of
# one extraction shares one ``searched`` dict of component answers (see
# ``longest_path``): what is left of the host after a path keeps every
# component the path missed, so each is searched once.
_REGIMES = {
    Thm1: ("Thm1", _theorem1),
    Thm2EvenM: ("Thm2", _theorem2_even),
    Thm2OddM: ("Thm2", _theorem2_oddm),
}


def extract(
    f: Graph,
    case: TheoremCase,
    *,
    budget: int | Budget | None = None,
    force: bool = False,
) -> DichotomyWitness:
    """The dichotomy of ``case`` on ``f``: ``t . P_n`` in ``f`` (a single
    ``P_n`` when ``case.t == 1``) or ``J_{s,m}`` in the complement of ``f``.

    Runs ``t`` rounds of the single-path dichotomy, each clearing its
    ``P_n`` from the host before the next.  A round with no ``P_n`` ends
    with the edgeless witness or the regime's Jahangir-side construction
    on a maximum path, which lies in the host's complement because
    deleting host vertices only shrinks the complement.  With ``t > 1``
    the trace is named ``Thm3``, case ``Thm3-step{k}`` for the round
    ``k`` it ended in; one round keeps the regime's own names, as
    ``Thm3(1, n, s, m)`` is the value ``Thm1(n, s, m)``.

    The regime's shape was checked when ``case`` was built; ``force=True``
    skips the n-threshold and host-order checks (:func:`require_thresholds`)
    and runs the construction anyway, which outside its guarantees may then
    raise :class:`MaximalityViolation`.  The witness is verified against
    ``f`` before it is returned.
    """
    if not force:
        require_thresholds(case, f)
    bud = Budget.coerce(budget)
    theorem, jahangir_side = _REGIMES[type(case)]
    alive = vertex_mask(f)
    searched: SearchedComponents = {}
    paths: list[PathWitness] = []
    for step in range(1, case.t + 1):
        path = longest_path(f, bud, stop=case.n, within=alive, searched=searched)
        if len(path) < case.n:
            if len(path) <= 1:
                found = _edgeless_witness(f, theorem, case.s, case.m, alive)
            else:
                found = jahangir_side(f, path, case.s, case.m, bud, alive, searched)
            break
        paths.append(path)
        alive &= ~sum(1 << v for v in path)
    else:
        emb = Embedding(
            DisjointPaths(case.t, case.n), f.order, tuple(v for p in paths for v in p)
        )
        found = DichotomyWitness(
            emb, ExtractionTrace(theorem, "path-found", case.n, tuple(paths), ())
        )
    if case.t > 1:
        found = found.replace(
            trace=found.trace.replace(theorem="Thm3", case=f"Thm3-step{step}")
        )
    return _ensure(f, found)


# --------------------------------------------------------------------------
# extremal constructions


class ExtremalReport(Frozen):
    """Outcome of auditing a lower-bound construction, check by check."""

    ok: bool
    reason: str | None
    checks: tuple[tuple[str, bool], ...]

    def __bool__(self) -> bool:
        return self.ok


_SEARCH_ORDER_CAP = 30


def verify_extremal(
    case: TheoremCase,
    budget: int | Budget | None = None,
    graph: Graph | None = None,
) -> ExtremalReport:
    """Audit a lower-bound construction from first principles.

    Confirms the graph (the canonical construction for ``case``, or
    ``graph`` when supplied) holds no target path structure and its
    complement holds no target Jahangir.  The path side argues through
    component sizes (a path lies in one component), which for ``t > 1`` is
    the whole argument; for ``t == 1`` a path search cross-checks it.  A
    clique union's complement is complete multipartite, and containment
    there is exactly a capped colouring of the Jahangir; search
    cross-checks it.  The case is read only through ``n``, ``t``, ``s``,
    ``m`` and its extremal graph.  Searches run whenever the order
    allows them.  One that runs out of budget fails no check: it raises
    :class:`BudgetExhausted` naming the undecided pattern.
    """
    bud = Budget.coerce(budget)
    g = extremal_graph(case) if graph is None else graph
    n, t, jahangir = case.n, case.t, Jahangir(case.s, case.m)
    checks: list[tuple[str, bool]] = []

    capacity = sum(c.bit_count() // n for c in component_masks(g))
    checks.append(("path-capacity-by-components", capacity < t))
    if t == 1 and g.order <= _SEARCH_ORDER_CAP:
        found = find_subgraph(g, Path(n), bud).decided(Path(n), "the audited graph")
        checks.append(("path-absence-by-search", not found))

    parts = clique_union_sizes(g)
    if parts is not None:
        fits = fits_complete_multipartite(build(jahangir), parts)
        checks.append(("jahangir-vs-multipartite-complement", not fits))
    if g.order <= _SEARCH_ORDER_CAP:
        co = complement(g)
        found = find_subgraph(co, jahangir, bud).decided(jahangir, "the audited graph's complement")
        checks.append(("jahangir-absence-by-search", not found))
    elif parts is None:
        # Too large to search and not a clique union: nothing left to argue.
        checks.append(("complement-side-undecided", False))

    ok = all(flag for _, flag in checks)
    reason = (
        None
        if ok
        else "failed: " + ", ".join(name for name, flag in checks if not flag)
    )
    return ExtremalReport(ok, reason, tuple(checks))


# --------------------------------------------------------------------------
# trace serialization


def trace_document(host: Graph, witness: DichotomyWitness) -> dict:
    """Plain-dict form of a witness with its trace, stable key order.

    ``"verified"`` is :func:`verify_witness` run here on the pair given.
    ``extract`` has already verified every witness it returns against its
    own host, but this function may be handed any host and witness, so the
    document checks its own claim rather than repeating one made elsewhere.
    """
    tr = witness.trace
    return {
        "theorem": tr.theorem,
        "case": tr.case,
        "k": tr.k,
        "paths": [list(p) for p in tr.paths],
        "augmented_edges": [list(e) for e in tr.augmented_edges],
        "selections": dict(tr.selections),
        "witness": {
            "pattern": witness.embedding.pattern.text(),
            "map": list(witness.embedding.mapping),
        },
        "verified": verify_witness(host, witness),
    }


def trace_json(host: Graph, witness: DichotomyWitness) -> str:
    """Deterministic JSON for a witness: same extraction, same bytes."""
    return _indented_json(trace_document(host, witness))
