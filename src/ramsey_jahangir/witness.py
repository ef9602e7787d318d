"""Constructive dichotomy extractors for paths versus generalized Jahangir graphs.

Each extractor inspects a host graph and produces one of two verified
outcomes: the promised path structure inside the host, or a Jahangir
embedding inside the host's complement.  The three public entry points
cover the three regimes supported by the library: even rim step
(``extract_theorem1``), odd rim step with even or odd spoke count
(``extract_theorem2``), and several disjoint paths at once
(``extract_t_paths``); ``extract`` picks one of them by theorem number.

The constructions lean on maximality: a maximum-length path's endpoint
cannot be adjacent to anything that could extend it, and those forced
non-adjacencies become complement edges.  Every such step is still
checked against the actual host rather than trusted, and every returned
witness is re-verified edge by edge before it leaves this module.  A
selection the construction is entitled to make but cannot raises
:class:`MaximalityViolation` instead of silently guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .embedding import (
    Budget,
    Embedding,
    PathWitness,
    find_disjoint_paths,
    find_path_at_least,
    find_subgraph,
    fits_complete_multipartite,
    longest_path,
    verify_embedding,
)
from .families import (
    Cycle,
    DisjointPaths,
    Jahangir,
    Path,
    PreconditionError,
    TheoremCase,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Thm3,
    Wheel,
    build,
    extremal_graph,
    require_thresholds,
)
from .graphs import Graph, clique_union_sizes, complement, components, induced

__all__ = [
    "PreconditionError",
    "WheelNotFound",
    "MaximalityViolation",
    "PathSystem",
    "ExtractionTrace",
    "DichotomyWitness",
    "ExtremalReport",
    "build_path_system",
    "extract_theorem1",
    "extract_theorem2",
    "extract_t_paths",
    "extract",
    "wheel_to_jahangir",
    "verify_witness",
    "verify_extremal",
    "trace_document",
    "trace_json",
]


class WheelNotFound(RuntimeError):
    """The complement wheel search exhausted its budget before deciding."""


class MaximalityViolation(RuntimeError):
    """A selection the construction is entitled to make was impossible.

    With the exact path engine underneath, this surfaces only when an
    extractor runs outside its guarantees (``force=True``, or hypotheses
    that fail to hold) -- or when there is a genuine defect.  ``trace``
    carries the partial extraction state when one was available.
    """

    def __init__(self, message: str, trace: ExtractionTrace | None = None):
        super().__init__(message)
        self.trace = trace


# --------------------------------------------------------------------------
# data carried by every extraction


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint maximum paths peeled greedily off a host.

    ``paths[0]`` is a maximum path of the host; ``paths[i]`` is a maximum
    path of the graph induced on whatever the earlier paths left behind.
    When a residual had no edges at all, a two-vertex path on its two least
    vertices was fabricated and the invented edge recorded in
    ``augmented_edges`` (the host itself is never mutated; the invented
    edges touch only vertices inside their own path, so later residuals are
    unaffected by them).  ``remainder`` lists, in ascending order, the
    vertices no path uses.
    """

    host: Graph
    paths: tuple[PathWitness, ...]
    augmented_edges: tuple[tuple[int, int], ...]
    remainder: tuple[int, ...]


@dataclass(frozen=True)
class ExtractionTrace:
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
    selections: dict[str, int] = field(default_factory=dict)
    quadruples: tuple[tuple[int, ...], ...] = ()
    couples_a: tuple[tuple[int, int], ...] = ()
    couples_b: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class DichotomyWitness:
    """One verified side of the dichotomy.

    ``kind`` is ``"paths"`` when ``embedding`` maps a path structure into
    the host and ``"jahangir"`` when it maps a Jahangir graph into the
    host's complement.
    """

    kind: str
    embedding: Embedding
    trace: ExtractionTrace

    @property
    def paths(self) -> tuple[PathWitness, ...]:
        """The embedded paths, split per block (empty for jahangir kind)."""
        spec = self.embedding.pattern
        if isinstance(spec, Path):
            return (self.embedding.mapping,)
        if isinstance(spec, DisjointPaths):
            n = spec.n
            flat = self.embedding.mapping
            return tuple(flat[i * n : (i + 1) * n] for i in range(spec.t))
        return ()


def verify_witness(host: Graph, witness: DichotomyWitness) -> bool:
    """Re-check a witness from scratch against the host it came from."""
    if witness.kind == "paths":
        return verify_embedding(host, witness.embedding)
    if witness.kind == "jahangir":
        return verify_embedding(complement(host), witness.embedding)
    return False


def _ensure(host: Graph, witness: DichotomyWitness) -> DichotomyWitness:
    if not verify_witness(host, witness):  # pragma: no cover - engine invariant
        raise AssertionError(
            "extracted witness failed verification; this is a bug in the extractor"
        )
    return witness


# --------------------------------------------------------------------------
# shared building blocks


def build_path_system(f: Graph, count: int, budget: int | Budget | None = None) -> PathSystem:
    """Peel ``count`` disjoint maximum paths off ``f``, fabricating on edgeless residuals."""
    if count < 1:
        raise ValueError("count >= 1 required")
    bud = Budget.coerce(budget)
    remaining = list(range(f.order))
    paths: list[PathWitness] = []
    fabricated: list[tuple[int, int]] = []
    for _ in range(count):
        if len(remaining) < 2:
            raise PreconditionError(
                f"host exhausted after {len(paths)} of {count} paths"
            )
        sub, idx = induced(f, remaining)
        found = longest_path(sub, bud)
        if len(found) >= 2:
            path = tuple(idx[v] for v in found)
        else:
            # Edgeless residual: promise a two-vertex path on the two least
            # residual vertices and remember the edge we invented for it.
            path = (remaining[0], remaining[1])
            fabricated.append(path)
        paths.append(path)
        used = set(path)
        remaining = [v for v in remaining if v not in used]
    return PathSystem(f, tuple(paths), tuple(fabricated), tuple(remaining))


def _spare_roles(pool: list[int], rim_count: int):
    """Yield (rim spares, hub) splits of the spare pool, lexicographically."""
    for rim_choice in combinations(pool, rim_count):
        taken = set(rim_choice)
        for hub in pool:
            if hub not in taken:
                yield list(rim_choice), hub


def _fill_rim(
    f: Graph,
    rim: list[int],
    positions: list[int],
    endpoints: list[int],
    partner: dict[int, int],
    hub: int,
    s: int,
) -> bool:
    """Backtrack path endpoints into the open rim positions.

    A vertex may take a position only if it shares no host edge with either
    already-placed rim neighbour, is not the other endpoint of the same path
    as a rim neighbour (same-path endpoints can be host-adjacent, so they
    must never sit side by side), and -- on spoke positions, the residue
    class 0 mod ``s`` -- shares no host edge with the hub.  Every rim edge is
    checked exactly once, when the later of its two occupants arrives.
    """
    sm = len(rim)
    used: set[int] = set()

    def attempt(i: int) -> bool:
        if i == len(positions):
            return True
        pos = positions[i]
        before = rim[(pos - 1) % sm]
        after = rim[(pos + 1) % sm]
        for v in endpoints:
            if v in used:
                continue
            if before >= 0 and (f.has_edge(v, before) or partner[v] == before):
                continue
            if after >= 0 and (f.has_edge(v, after) or partner[v] == after):
                continue
            if pos % s == 0 and f.has_edge(v, hub):
                continue
            rim[pos] = v
            used.add(v)
            if attempt(i + 1):
                return True
            rim[pos] = -1
            used.discard(v)
        return False

    return attempt(0)


def _assemble_endpoint_rim(
    f: Graph,
    path_list: tuple[PathWitness, ...],
    spares: list[int],
    rim_spare_count: int,
    s: int,
    m: int,
) -> tuple[list[int], int]:
    """Lay path endpoints plus spare vertices out as a Jahangir rim.

    The spare vertices that go on the rim all land in one nonzero residue
    class mod ``s``, so they are pairwise non-consecutive (class positions
    sit ``s`` >= 2 apart, wraparound included) and never occupy a spoke
    position; the leftover spare becomes the hub.  Endpoints fill the rest
    by ascending-order backtracking.  Returns ``(rim, hub)`` or raises
    :class:`MaximalityViolation` after exhausting every arrangement.
    """
    sm = s * m
    partner: dict[int, int] = {}
    endpoints: list[int] = []
    for p in path_list:
        a, b = p[0], p[-1]
        partner[a] = b
        partner[b] = a
        endpoints.extend((a, b))
    if len(endpoints) + rim_spare_count != sm:
        raise ValueError("endpoints plus rim spares must fill the rim exactly")
    endpoints.sort()

    pool = sorted(spares)
    for rim_spares, hub in _spare_roles(pool, rim_spare_count):
        for residue in range(1, s):
            class_positions = [p for p in range(sm) if p % s == residue]
            for chosen in combinations(class_positions, rim_spare_count):
                rim = [-1] * sm
                for pos, v in zip(chosen, rim_spares):
                    rim[pos] = v
                open_pos = [p for p in range(sm) if rim[p] < 0]
                if _fill_rim(f, rim, open_pos, endpoints, partner, hub, s):
                    return rim, hub
    raise MaximalityViolation(
        "no arrangement of path endpoints and spare vertices forms the rim"
    )


def _endpoint_witness(
    g: Graph, theorem: str, case: str, s: int, m: int, k: int, bud: Budget
) -> DichotomyWitness:
    """Short maximum path: peel (sm - 1) // 2 paths, rim their endpoints.

    The endpoints leave one rim slot (odd sm) or two (even sm) to the least
    vertices outside the path system, and one more of those is the hub.
    These spares go to one nonzero residue class so no spoke ever lands on
    one, and endpoint placement never puts two endpoints of the same path
    side by side.  The witness is not verified here; the caller verifies it
    on the host it hands out.
    """
    sm = s * m
    count = (sm - 1) // 2
    system = build_path_system(g, count, bud)
    spares = sm - 2 * count + 1
    if len(system.remainder) < spares:
        raise MaximalityViolation(
            f"fewer than {spares} vertices remain outside the path system",
            ExtractionTrace(theorem, case, k, system.paths, system.augmented_edges),
        )
    chosen = list(system.remainder[:spares])
    rim, hub = _assemble_endpoint_rim(g, system.paths, chosen, spares - 1, s, m)
    selections = dict(zip(("x", "y", "z"), chosen))
    selections["hub"] = hub
    trace = ExtractionTrace(
        theorem, case, k, system.paths, system.augmented_edges, selections
    )
    emb = Embedding(Jahangir(s, m), g.order, tuple(rim) + (hub,))
    return DichotomyWitness("jahangir", emb, trace)


def _path_witness(f: Graph, theorem: str, n: int, found: PathWitness) -> DichotomyWitness:
    emb = Embedding(Path(n), f.order, tuple(found[:n]))
    trace = ExtractionTrace(theorem, "path-found", len(found), (tuple(found),), ())
    return _ensure(f, DichotomyWitness("paths", emb, trace))


def _lift(
    inner: DichotomyWitness, f: Graph, idx: tuple[int, ...], theorem: str, case: str
) -> DichotomyWitness:
    """Carry a witness found in an induced subgraph of ``f`` back to ``f``.

    ``idx`` maps the subgraph's vertices to host vertices.  Deleting host
    vertices only shrinks the complement, so a Jahangir in the subgraph's
    complement is one in the host's complement.
    """
    tr = inner.trace

    def pairs(edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        return tuple((idx[a], idx[b]) for a, b in edges)

    trace = ExtractionTrace(
        theorem,
        case,
        tr.k,
        tuple(tuple(idx[v] for v in p) for p in tr.paths),
        pairs(tr.augmented_edges),
        {role: idx[v] for role, v in tr.selections.items()},
        tuple(tuple(idx[v] for v in quad) for quad in tr.quadruples),
        pairs(tr.couples_a),
        pairs(tr.couples_b),
    )
    emb = Embedding(
        inner.embedding.pattern, f.order, tuple(idx[v] for v in inner.embedding.mapping)
    )
    return _ensure(f, DichotomyWitness(inner.kind, emb, trace))


def _edgeless_witness(f: Graph, theorem: str, s: int, m: int) -> DichotomyWitness:
    """Host has no edges: its complement is complete, so identity placement works."""
    sm = s * m
    if f.order < sm + 1:
        raise MaximalityViolation(
            f"edgeless host of order {f.order} cannot hold a rim of {sm} plus a hub",
            ExtractionTrace(theorem, "edgeless-host", 1, (), ()),
        )
    emb = Embedding(Jahangir(s, m), f.order, tuple(range(sm + 1)))
    trace = ExtractionTrace(theorem, "edgeless-host", 1, (), (), {"hub": sm})
    return _ensure(f, DichotomyWitness("jahangir", emb, trace))


# --------------------------------------------------------------------------
# even rim step


def extract_theorem1(
    f: Graph,
    n: int,
    s: int,
    m: int,
    budget: int | Budget | None = None,
    force: bool = False,
) -> DichotomyWitness:
    """Even rim step dichotomy: a path on ``n`` vertices in ``f``, or
    ``J_{s,m}`` in the complement of ``f``.

    The regime's shape is always checked (:class:`Thm1`); ``force=True``
    skips the n-threshold and host-order checks and runs the construction
    anyway, which outside its guarantees may then raise
    :class:`MaximalityViolation`.
    """
    f.validate()
    case = Thm1(n, s, m)
    if not force:
        require_thresholds(case, f)
    bud = Budget.coerce(budget)
    found = find_path_at_least(f, n, bud)
    if found is not None:
        return _path_witness(f, "Thm1", n, found)
    first = longest_path(f, bud)
    k = len(first)
    if k <= 1:
        return _edgeless_witness(f, "Thm1", s, m)
    if k <= 2 * s * m - 1:
        return _ensure(f, _endpoint_witness(f, "Thm1", "Thm1-Case1", s, m, k, bud))
    return _theorem1_case2(f, first, s, m)


def _theorem1_case2(f: Graph, first: PathWitness, s: int, m: int) -> DichotomyWitness:
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
    outside = [v for v in range(f.order) if v not in on_path]
    if len(outside) < half:
        raise MaximalityViolation(
            f"need {half} vertices outside the maximum path, found {len(outside)}",
            ExtractionTrace("Thm1", "Thm1-Case2", k, (first,), ()),
        )
    ys = outside[:half]
    quadruples = tuple(
        tuple(first[4 * i - 3 : 4 * i + 1]) for i in range(1, half)
    )
    selections: dict[str, int] = {}
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
                ExtractionTrace(
                    "Thm1", "Thm1-Case2", k, (first,), (), dict(selections), quadruples
                ),
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
    trace = ExtractionTrace("Thm1", "Thm1-Case2", k, (first,), (), selections, quadruples)
    emb = Embedding(Jahangir(s, m), f.order, tuple(rim) + (hub,))
    return _ensure(f, DichotomyWitness("jahangir", emb, trace))


# --------------------------------------------------------------------------
# odd rim step


def extract_theorem2(
    f: Graph,
    n: int,
    s: int,
    m: int,
    budget: int | Budget | None = None,
    force: bool = False,
) -> DichotomyWitness:
    """Odd rim step dichotomy: ``P_n`` in ``f`` or ``J_{s,m}`` in its complement.

    The even and odd spoke counts run different constructions: even ``m``
    finds a full wheel in the complement and drops surplus spokes; odd ``m``
    assembles the rim from path endpoints (short paths) or from couple
    selections along two long paths.
    """
    f.validate()
    case = (Thm2OddM if m % 2 else Thm2EvenM)(n, s, m)
    if not force:
        require_thresholds(case, f)
    sm = s * m
    bud = Budget.coerce(budget)
    found = find_path_at_least(f, n, bud)
    if found is not None:
        return _path_witness(f, "Thm2", n, found)
    first = longest_path(f, bud)
    k = len(first)
    if k <= 1:
        return _edgeless_witness(f, "Thm2", s, m)
    if m % 2 == 0:
        return _theorem2_even(f, first, s, m, bud)
    if k < sm - 1:
        return _ensure(f, _endpoint_witness(f, "Thm2", "Thm2-OddM-Case1", s, m, k, bud))
    on_first = set(first)
    rest = [v for v in range(f.order) if v not in on_first]
    sub, idx = induced(f, rest)
    second_local = longest_path(sub, bud)
    if len(second_local) >= sm - 1:
        second = tuple(idx[v] for v in second_local)
        return _theorem2_oddm_case2(f, first, second, s, m)
    # One long path: everything off it holds only short paths, so the
    # endpoint-rim construction runs in that block and lifts back.
    case = "Thm2-OddM-Case3"
    return _lift(_endpoint_witness(sub, "Thm2", case, s, m, k, bud), f, idx, "Thm2", case)


def _theorem2_even(
    f: Graph, first: PathWitness, s: int, m: int, bud: Budget
) -> DichotomyWitness:
    """Even spoke count: find the full wheel in the complement, drop spokes."""
    sm = s * m
    result = find_subgraph(complement(f), Wheel(sm), bud)
    if result.status == "unknown":
        raise WheelNotFound(
            f"budget ran out searching the complement for a wheel with rim {sm}"
        )
    if result.status == "absent":
        raise MaximalityViolation(
            f"complement holds no wheel with rim {sm}; the hypotheses cannot hold",
            ExtractionTrace("Thm2", "Thm2-EvenM", len(first), (first,), ()),
        )
    emb = wheel_to_jahangir(result.embedding, s, m)
    trace = ExtractionTrace(
        "Thm2",
        "Thm2-EvenM",
        len(first),
        (first,),
        (),
        {"hub": emb.mapping[-1]},
    )
    return _ensure(f, DichotomyWitness("jahangir", emb, trace))


def wheel_to_jahangir(wheel_embedding: Embedding, s: int, m: int) -> Embedding:
    """Reuse a wheel embedding as a Jahangir embedding by forgetting spokes.

    Both canonical layouts put the rim cycle on the first ``s * m`` vertices
    and the hub last, and the Jahangir keeps a subset of the wheel's edges,
    so the vertex images transfer unchanged.
    """
    spec = wheel_embedding.pattern
    if not isinstance(spec, Wheel) or spec.k != s * m:
        raise ValueError(f"need a wheel embedding with rim length {s * m}")
    return Embedding(Jahangir(s, m), wheel_embedding.host_order, wheel_embedding.mapping)


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
    host-adjacent to the hub candidate are eligible; the rim backtracks over
    those (at most two per couple) because a handful of borderline pairs are
    not forced by maximality alone.
    """
    sm = s * m
    k, t = len(first), len(second)
    q = (sm - 3) // 2
    couples_a = _couples(first, q)
    couples_b = _couples(second, q)
    on_paths = set(first) | set(second)
    outside = [v for v in range(f.order) if v not in on_paths]
    base = ExtractionTrace(
        "Thm2", "Thm2-OddM-Case2", k, (first, second), (), {}, (), couples_a, couples_b
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

    slots: list[list[int]] = []
    for i in range(1, q + 1):
        slots.append(eligible(couples_b[i - 1], f"B{i}"))
        slots.append(eligible(couples_a[i - 1], f"A{i}"))

    chain: list[int] = []

    def attempt(i: int, prev: int) -> bool:
        if i == len(slots):
            return not f.has_edge(prev, second[-1])
        for v in slots[i]:
            if not f.has_edge(prev, v):
                chain.append(v)
                if attempt(i + 1, v):
                    return True
                chain.pop()
        return False

    if not attempt(0, first[0]):
        raise MaximalityViolation(
            "no couple selection closes the rim cycle", base
        )
    selections: dict[str, int] = {"x": x, "y": y}
    for i in range(q):
        selections[f"b{i + 1}"] = chain[2 * i]
        selections[f"a{i + 1}"] = chain[2 * i + 1]
    rim = [first[0], *chain, second[-1], y]
    hub = x
    trace = ExtractionTrace(
        "Thm2",
        "Thm2-OddM-Case2",
        k,
        (first, second),
        (),
        selections,
        (),
        couples_a,
        couples_b,
    )
    emb = Embedding(Jahangir(s, m), f.order, tuple(rim) + (hub,))
    return _ensure(f, DichotomyWitness("jahangir", emb, trace))


# --------------------------------------------------------------------------
# several disjoint paths


def extract_t_paths(
    f: Graph,
    t: int,
    n: int,
    s: int,
    m: int,
    budget: int | Budget | None = None,
    force: bool = False,
) -> DichotomyWitness:
    """Even rim step, ``t`` disjoint copies: ``t . P_n`` in ``f`` or
    ``J_{s,m}`` in the complement.

    Runs the single-path extraction ``t`` times, deleting each found copy
    before the next round; a Jahangir found in any round lifts back to the
    full host because deleting host vertices only shrinks the complement.
    With ``t == 1`` this is exactly :func:`extract_theorem1`.
    """
    f.validate()
    case = Thm3(t, n, s, m)
    if not force:
        require_thresholds(case, f)
    if t == 1:
        return extract_theorem1(f, n, s, m, budget=budget, force=force)
    bud = Budget.coerce(budget)
    remaining = list(range(f.order))
    collected: list[PathWitness] = []
    last_k = 0
    for step in range(1, t + 1):
        sub, idx = induced(f, remaining)
        inner = extract_theorem1(sub, n, s, m, budget=bud, force=force)
        if inner.kind == "jahangir":
            return _lift(inner, f, idx, "Thm3", f"Thm3-step{step}")
        path = tuple(idx[v] for v in inner.paths[0])
        collected.append(path)
        last_k = inner.trace.k
        used = set(path)
        remaining = [v for v in remaining if v not in used]
    emb = Embedding(
        DisjointPaths(t, n), f.order, tuple(v for p in collected for v in p)
    )
    trace = ExtractionTrace("Thm3", f"Thm3-step{t}", last_k, tuple(collected), ())
    return _ensure(f, DichotomyWitness("paths", emb, trace))


def extract(
    f: Graph,
    theorem: int,
    n: int,
    s: int,
    m: int,
    t: int = 1,
    budget: int | Budget | None = None,
    force: bool = False,
) -> DichotomyWitness:
    """Run the extractor for ``theorem``: 1 (:func:`extract_theorem1`), 2
    (:func:`extract_theorem2`) or 3 (:func:`extract_t_paths`, the only one
    that reads ``t``)."""
    if theorem == 1:
        return extract_theorem1(f, n, s, m, budget=budget, force=force)
    if theorem == 2:
        return extract_theorem2(f, n, s, m, budget=budget, force=force)
    if theorem == 3:
        return extract_t_paths(f, t, n, s, m, budget=budget, force=force)
    raise ValueError(f"no extractor for theorem {theorem!r}")


# --------------------------------------------------------------------------
# extremal constructions


@dataclass(frozen=True)
class ExtremalReport:
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
    component sizes; the complement side reduces containment to a capped
    colouring of the Jahangir when the graph is a clique union.  Both sides
    are cross-checked by explicit search whenever the order allows it, and
    every check lands in the report either way.
    """
    bud = Budget.coerce(budget)
    g = extremal_graph(case) if graph is None else graph
    n = case.n
    t = case.t
    s, m = case.s, case.m
    sm = s * m
    checks: list[tuple[str, bool]] = []

    comps = components(g)
    capacity = sum(len(c) // n for c in comps)
    checks.append(("path-capacity-by-components", capacity < t))
    if g.order <= _SEARCH_ORDER_CAP:
        if t == 1:
            found_path = find_path_at_least(g, n, bud)
        else:
            found_path = find_disjoint_paths(g, t, n, bud)
        checks.append(("path-absence-by-search", found_path is None))

    parts = clique_union_sizes(g)
    if parts is not None:
        target = build(Jahangir(s, m))
        checks.append(
            (
                "jahangir-vs-multipartite-complement",
                not fits_complete_multipartite(target, parts),
            )
        )
        if len(parts) == 2 and isinstance(case, (Thm1, Thm3)):
            checks.append(
                (
                    "rim-cycle-vs-bipartite-complement",
                    not fits_complete_multipartite(build(Cycle(sm)), parts),
                )
            )
        if isinstance(case, Thm2EvenM):
            # The rim alone fits the complement's bipartition, so the real
            # obstruction is the hub: odd s makes consecutive spoke feet
            # land in both classes, and no third class exists.
            straddles = {(j * s) % 2 for j in range(m)} == {0, 1}
            checks.append(("spoke-feet-straddle-bipartition", straddles))
    if g.order <= _SEARCH_ORDER_CAP:
        result = find_subgraph(complement(g), Jahangir(s, m), bud)
        checks.append(("jahangir-absence-by-search", result.status == "absent"))
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
    """Plain-dict form of a witness with its trace, stable key order."""
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
    return json.dumps(trace_document(host, witness), indent=2)
