"""Exhaustive small-order oracle: canonical forms, enumeration, Ramsey scans.

Everything here is exact and deterministic.  Canonical forms come from an
equitable-refinement search over vertex individualizations; enumeration
grows one order at a time and deduplicates canonically; ``arrows`` sweeps
every isomorphism class of a given order; ``ramsey`` grows each order
once and turns its sweeps into a machine-checkable certificate.
Cycle-index arithmetic counts the classes independently, to cross-check
the enumerator and certificates.
"""

from __future__ import annotations

import json
from collections import Counter
from math import factorial, gcd

from .embedding import Budget, BudgetExhausted, find_subgraph
from .families import CliqueUnion, PatternSpec, build, parse_spec
from .graphs import (
    Frozen,
    Graph,
    clique_union_sizes,
    complement,
    disjoint_cover_sizes,
    empty,
    from_graph6,
    relabel,
    to_graph6,
)

CANONICAL_CAP = 16
ENUMERATION_CAP = 9

# Node allowance for one canonical-form search.  Refinement finishes almost
# every graph this size in a handful of nodes; the allowance exists for the
# highly symmetric stragglers, which fail loudly instead of spinning.
_CANONICAL_NODES = 500_000


class CanonicalCapError(ValueError):
    """Canonical-form request beyond the supported order."""


class EnumerationCapError(ValueError):
    """Exhaustive request beyond the enumeration order cap."""


class CertificateError(ValueError):
    """A loaded certificate failed re-verification."""


def _refine(g: Graph, cells: list[int], new: list[int] | None = None) -> list[int]:
    """Equitable refinement of an ordered partition, cells as vertex masks.

    Each round splits every cell by its vertices' neighbour counts against
    the cells in ``new`` (all cells when None), taken in partition order;
    the subcells replace the cell in ascending order of those counts.  The
    next round counts only against the subcells this round created, less
    the last subcell of each split: the counts against an older cell, or
    against a split cell as a whole, are already the same throughout each
    cell, so they can neither split a cell nor reorder its subcells.  The
    result is what counting against every cell in every round would give,
    and depends only on the input partition.  A caller that splits one
    cell of an equitable partition into {v} and the rest passes
    ``new=[1 << v]``; such a round costs one mask operation per cell.
    """
    adj = g.adj
    shift = g.order.bit_length()  # counts stay below 1 << shift
    if new is None:
        new = cells
    while new:
        out: list[int] = []
        fresh: list[int] = []
        if len(new) == 1 and not new[0] & (new[0] - 1):
            row = adj[new[0].bit_length() - 1]
            for cell in cells:
                hit = cell & row
                if hit and hit != cell:
                    out += (cell ^ hit, hit)
                    fresh.append(cell ^ hit)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                parts: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    row = adj[low.bit_length() - 1]
                    key = 0
                    for mask in new:
                        key = key << shift | (row & mask).bit_count()
                    parts[key] = parts.get(key, 0) | low
                    rest ^= low
                if len(parts) == 1:
                    out.append(cell)
                    continue
                split = [parts[key] for key in sorted(parts)]
                out += split
                fresh += split[:-1]
        cells, new = out, fresh
    return cells


def canonical_graph(g: Graph, budget: int | Budget | None = None) -> Graph:
    """A canonical representative of g's isomorphism class.

    Two graphs are isomorphic exactly when their canonical representatives
    are equal.  Clique unions and their complements are recognized directly
    (these cover the library's extremal constructions); everything else
    goes through a search over vertex individualizations, each node
    refined to an equitable partition, taking the relabeling whose graph6
    code is least over the search's leaves.  Leaves are compared as
    integers holding the graph6 body bits, and only the winner is
    relabeled.  A leaf whose code equals the best one yields an
    automorphism (McKay 1981; McKay and Piperno 2014): the search then
    leaves the subtree it has just matched, and each node skips a branch
    vertex in the orbit of an explored sibling under the automorphisms
    found so far that fix the node's individualized vertices.  Neither
    changes the least code.  Each node spends one unit of ``budget``
    (default 500,000 per call).
    """
    if g.order > CANONICAL_CAP:
        raise CanonicalCapError(
            f"canonical forms are supported up to order {CANONICAL_CAP}"
        )
    if g.order <= 1:
        return g
    sizes = clique_union_sizes(g)
    if sizes is not None:
        return build(CliqueUnion(sizes))
    # In the complement, the closed neighbourhood of v is full ^ adj[v].
    full = (1 << g.order) - 1
    co_sizes = disjoint_cover_sizes({full ^ row for row in g.adj}, g.order)
    if co_sizes is not None:
        return complement(build(CliqueUnion(co_sizes)))
    bud = Budget.coerce(budget if budget is not None else _CANONICAL_NODES)
    n = g.order
    adj = g.adj
    best_code: int | None = None
    best_leaf: list[int] = []  # best_leaf[pos] is the vertex put at pos
    best_path: list[int] = []
    path: list[int] = []  # the individualized vertices, root first
    autos: list[list[int]] = []
    width = n * (n - 1) // 2

    def descend(cells: list[int], new: list[int] | None) -> int:
        """Search below one node; returns the depth to resume at."""
        nonlocal best_code, best_leaf, best_path
        bud.spend()
        cells = _refine(g, cells, new)
        depth = len(path)
        for at, branch in enumerate(cells):
            if branch & (branch - 1):
                break
        else:
            leaf = [cell.bit_length() - 1 for cell in cells]
            # Build the code column by column, leaving as soon as it is
            # known to be worse than the best code.
            code = 0
            left = width
            bound = best_code  # None once this code is known to be less
            for col in range(1, n):
                row = adj[leaf[col]]
                for w in leaf[:col]:
                    code = code << 1 | (row >> w & 1)
                left -= col
                if bound is not None and code != bound >> left:
                    if code > bound >> left:
                        return depth
                    bound = None
            if best_code is None or code < best_code:
                best_code, best_leaf, best_path = code, leaf, path[:]
                return depth
            # Same graph as the best leaf: best_leaf[i] -> leaf[i] is an
            # automorphism, and it maps the best leaf's subtree below the
            # two paths' last shared node onto this leaf's.
            auto = list(range(n))
            for u, w in zip(best_leaf, leaf):
                auto[u] = w
            autos.append(auto)
            shared = 0
            while path[shared] == best_path[shared]:
                shared += 1
            return shared
        head, tail = cells[:at], cells[at + 1 :]
        orbit = list(range(n))  # union-find over the usable automorphisms
        used = 0
        explored: list[int] = []
        rest = branch
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if used < len(autos):
                for auto in autos[used:]:
                    if all(auto[p] == p for p in path):
                        for x, y in enumerate(auto):
                            if x != y:
                                orbit[_root(orbit, x)] = _root(orbit, y)
                used = len(autos)
            if used and any(_root(orbit, u) == _root(orbit, v) for u in explored):
                continue
            explored.append(v)
            path.append(v)
            back = descend(head + [low, branch ^ low] + tail, [low])
            path.pop()
            if back < depth:
                return back
        return depth

    descend([(1 << n) - 1], None)
    perm = [0] * n
    for pos, v in enumerate(best_leaf):
        perm[v] = pos
    return relabel(g, perm)


def _root(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


# --------------------------------------------------------------------------
# enumeration and counting


def _extend(parent: Graph, bits: int) -> Graph:
    """Append one vertex whose neighbourhood among 0..order-1 is ``bits``."""
    k = parent.order
    rows = tuple(
        row | ((bits >> v & 1) << k) for v, row in enumerate(parent.adj)
    )
    return Graph(k + 1, rows + (bits,))


def _grow(level: list[Graph]) -> list[Graph]:
    """One representative per class of the order above ``level``'s.

    ``level`` holds one representative per class of its order j.  Each
    representative is extended by a new vertex with every possible
    neighbourhood, keeping only the extensions in which the new vertex has
    maximum degree (McKay 1998), and the survivors are deduplicated
    canonically.  No class of order j+1 is lost: deleting a vertex u of
    maximum degree leaves a graph isomorphic to some representative, and
    that representative extended by u's neighbourhood is a copy of the
    class whose new vertex has maximum degree.  The test reads only the
    parent's degrees, so a rejected extension is never built or labelled.
    Canonical representatives of one class are equal graphs, so a set
    deduplicates them.  Output is sorted by (edge count, graph6 code).
    """
    size = level[0].order
    seen: set[Graph] = set()
    for parent in level:
        degrees = [row.bit_count() for row in parent.adj]
        top = max(degrees, default=0)
        top_mask = sum(1 << v for v, deg in enumerate(degrees) if deg == top)
        for bits in range(1 << size):
            # The new vertex has degree d; a parent vertex in ``bits`` gains one.
            d = bits.bit_count()
            if d < top or (d == top and bits & top_mask):
                continue
            seen.add(canonical_graph(_extend(parent, bits)))
    return sorted(seen, key=lambda g: (g.edge_count(), to_graph6(g)))


def enumerate_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of order ``n``.

    Grows order by order from the empty graph, each level through the
    extensions of the one below whose new vertex has maximum degree (see
    :func:`_grow`; every class has such a vertex, so none is lost); output
    is sorted by (edge count, graph6 code).  Orders above ENUMERATION_CAP
    are refused: counts grow super-exponentially.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"enumeration is capped at order {ENUMERATION_CAP}")
    level = [empty(0)]
    for _ in range(n):
        level = _grow(level)
    return level


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for head in range(min(n, largest), 0, -1):
        for rest in _partitions(n - head, head):
            yield (head,) + rest


def count_classes_cycle_index(n: int) -> int:
    """Count isomorphism classes of order ``n`` without enumerating them.

    Averages fixed labelled graphs over the symmetric group, one cycle type
    at a time.  A permutation with cycles of lengths l_1..l_r fixes
    2**q labelled graphs where q = sum(l_i // 2) + sum(gcd(l_i, l_j)) over
    pairs, and its type contains n! / (prod l_i * prod multiplicity!)
    permutations.  All integer arithmetic; the final division is asserted
    exact.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    total = 0
    for part in _partitions(n):
        q = sum(length // 2 for length in part)
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                q += gcd(part[i], part[j])
        ways = factorial(n)
        for length in part:
            ways //= length
        for mult in Counter(part).values():
            ways //= factorial(mult)
        total += ways << q
    assert total % factorial(n) == 0
    return total // factorial(n)


# --------------------------------------------------------------------------
# arrows and Ramsey certificates


class ArrowsReport(Frozen):
    """Result of one exhaustive order sweep.

    ``holds`` means every graph F on ``order`` vertices contains the first
    pattern or its complement contains the second.  ``checked`` counts the
    classes actually inspected (short of ``total`` only when a
    counterexample stopped the sweep); ``checksum`` is a SHA-256 over the
    newline-joined graph6 codes of exactly those classes, in sweep order.
    """

    order: int
    holds: bool
    checked: int
    total: int
    counterexample: str | None
    checksum: str


def arrows(
    order: int,
    g_spec: PatternSpec,
    h_spec: PatternSpec,
    budget: int | Budget | None = None,
) -> ArrowsReport:
    """Exhaustively decide the arrowing property at one order.

    Sweeps every isomorphism class F of the given order and checks
    ``g_spec`` against F or ``h_spec`` against F's complement.  A sweep
    that cannot decide some class (search budget ran dry) raises rather
    than guessing.
    """
    bud = Budget.coerce(budget)
    return _sweep(enumerate_graphs(order), g_spec, h_spec, bud)


def _sweep(
    classes: list[Graph], g_spec: PatternSpec, h_spec: PatternSpec, bud: Budget
) -> ArrowsReport:
    """The arrows sweep over ``classes``, every class of one order."""
    from hashlib import sha256  # here, so that only a sweep loads hashlib

    order = classes[0].order
    digest = sha256()
    checked = 0
    for f in classes:
        code = to_graph6(f)
        digest.update(code.encode("ascii"))
        digest.update(b"\n")
        checked += 1
        in_f = find_subgraph(f, g_spec, bud)
        if in_f.status == "present":
            continue
        if in_f.status == "unknown":
            raise BudgetExhausted(
                f"undecided: {g_spec.text()} in class {checked} of order {order}"
            )
        in_co = find_subgraph(complement(f), h_spec, bud)
        if in_co.status == "present":
            continue
        if in_co.status == "unknown":
            raise BudgetExhausted(
                f"undecided: {h_spec.text()} in complement of class {checked}"
                f" of order {order}"
            )
        return ArrowsReport(
            order,
            False,
            checked,
            len(classes),
            code,
            "sha256:" + digest.hexdigest(),
        )
    return ArrowsReport(
        order, True, checked, len(classes), None, "sha256:" + digest.hexdigest()
    )


class RamseyIndeterminate(RuntimeError):
    """The scan hit its cap with the arrowing property still failing."""

    def __init__(self, g_spec: PatternSpec, h_spec: PatternSpec, cap: int, last: ArrowsReport):
        super().__init__(
            f"R({g_spec.text()}, {h_spec.text()}) >= {cap}: no order"
            f" below the cap arrows"
        )
        self.g_spec = g_spec
        self.h_spec = h_spec
        self.cap = cap
        self.last = last


class RamseyCertificate(Frozen):
    """Self-contained evidence for one small Ramsey value.

    ``lower_witness`` is the graph6 code of a graph on ``value - 1``
    vertices containing neither pattern on its side; ``upper`` is the
    exhaustive sweep at ``value`` itself.
    """

    g_spec: PatternSpec
    h_spec: PatternSpec
    value: int
    lower_witness: str
    upper: ArrowsReport


def ramsey(
    g_spec: PatternSpec,
    h_spec: PatternSpec,
    cap: int,
    budget: int | Budget | None = None,
) -> RamseyCertificate:
    """Exact small Ramsey value by scanning orders 1, 2, ... below ``cap``.

    Each order's classes are grown once from the order below and swept as
    :func:`arrows` sweeps them.  The first order whose sweep holds is the
    value: holding is monotone upward, because deleting any vertex of a
    counterexample at one order leaves a counterexample at the order below.
    Raises :class:`RamseyIndeterminate` when every order below the cap has
    a counterexample, and :class:`EnumerationCapError` when the cap would
    require sweeping orders past the enumeration cap.
    """
    if cap < 2:
        raise ValueError("cap >= 2 required")
    if cap > ENUMERATION_CAP + 1:
        raise EnumerationCapError(
            f"cap {cap} would sweep orders past {ENUMERATION_CAP}"
        )
    bud = Budget.coerce(budget)
    last: ArrowsReport | None = None
    previous_counterexample = to_graph6(empty(0))
    level = [empty(0)]
    for order in range(1, cap):
        level = _grow(level)
        report = _sweep(level, g_spec, h_spec, bud)
        if report.holds:
            return RamseyCertificate(
                g_spec, h_spec, order, previous_counterexample, report
            )
        assert report.counterexample is not None
        previous_counterexample = report.counterexample
        last = report
    assert last is not None
    raise RamseyIndeterminate(g_spec, h_spec, cap, last)


def certificate_to_json(cert: RamseyCertificate) -> str:
    up = cert.upper
    doc = {
        "g": cert.g_spec.text(),
        "h": cert.h_spec.text(),
        "value": cert.value,
        "lower_witness": cert.lower_witness,
        "upper": {
            "order": up.order,
            "holds": up.holds,
            "checked": up.checked,
            "total": up.total,
            "counterexample": up.counterexample,
            "checksum": up.checksum,
        },
    }
    return json.dumps(doc, indent=2)


def _field(doc: object, name: str, kinds: tuple[type, ...]):
    """Field ``name`` (dotted, the last part its key in ``doc``) when its
    exact type is one of ``kinds``, so a bool is no int; otherwise
    :class:`CertificateError` naming the field."""
    key = name.rpartition(".")[2]
    if not isinstance(doc, dict) or key not in doc:
        raise CertificateError(f"malformed certificate: no field {name!r}")
    value = doc[key]
    if type(value) not in kinds:
        raise CertificateError(f"bad {name}: {value!r}")
    return value


def certificate_from_json(
    text: str, budget: int | Budget | None = None
) -> RamseyCertificate:
    """Parse a certificate and re-verify everything cheap about it.

    Every field must have its JSON type, and the value must be at most
    :data:`ENUMERATION_CAP`, where :func:`ramsey` can produce it and
    :func:`arrows` can re-run it.  The lower witness is re-checked edge by
    edge (neither pattern on its side, right order).  The upper sweep is
    re-checked for internal consistency -- it must claim to hold, cover
    every class, and carry a class count agreeing with independent
    cycle-index arithmetic -- but is not re-run; rerun :func:`arrows` for
    full, slow confidence.  A lower witness search that runs out of budget
    raises :class:`BudgetExhausted` naming the undecided side; it never
    counts as a rejection.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not JSON: {exc}") from None
    g_text = _field(doc, "g", (str,))
    h_text = _field(doc, "h", (str,))
    value = _field(doc, "value", (int,))
    lower_code = _field(doc, "lower_witness", (str,))
    up = _field(doc, "upper", (dict,))
    upper = ArrowsReport(
        _field(up, "upper.order", (int,)),
        _field(up, "upper.holds", (bool,)),
        _field(up, "upper.checked", (int,)),
        _field(up, "upper.total", (int,)),
        _field(up, "upper.counterexample", (str, type(None))),
        _field(up, "upper.checksum", (str,)),
    )
    try:
        g_spec = parse_spec(g_text)
        h_spec = parse_spec(h_text)
    except ValueError as exc:
        raise CertificateError(f"malformed certificate: {exc}") from None
    if not 1 <= value <= ENUMERATION_CAP:
        raise CertificateError(f"bad value {value!r}: outside 1..{ENUMERATION_CAP}")
    bud = Budget.coerce(budget)
    try:
        witness = from_graph6(lower_code)
    except ValueError as exc:
        raise CertificateError(f"bad lower witness encoding: {exc}") from None
    if witness.order != value - 1:
        raise CertificateError(
            f"lower witness has order {witness.order}, expected {value - 1}"
        )
    sides = (
        (witness, g_spec, "lower witness", "first"),
        (complement(witness), h_spec, "lower witness complement", "second"),
    )
    for host, spec, where, which in sides:
        status = find_subgraph(host, spec, bud).status
        if status == "unknown":
            raise BudgetExhausted(f"undecided: {spec.text()} in the {where}")
        if status == "present":
            raise CertificateError(f"{where} contains the {which} pattern")
    if not upper.holds:
        raise CertificateError("upper sweep does not claim to hold")
    if upper.order != value:
        raise CertificateError(
            f"upper sweep at order {upper.order}, expected {value}"
        )
    if upper.counterexample is not None:
        raise CertificateError("holding sweep cannot carry a counterexample")
    expected = count_classes_cycle_index(upper.order)
    if upper.checked != expected or upper.total != expected:
        raise CertificateError(
            f"upper sweep covered {upper.checked}/{upper.total} classes,"
            f" expected {expected}"
        )
    if not upper.checksum.startswith("sha256:"):
        raise CertificateError("checksum must be sha256-prefixed")
    return RamseyCertificate(g_spec, h_spec, value, lower_code, upper)
