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

from collections import Counter
from math import factorial, gcd

from .embedding import Budget, find_subgraph
from .families import CliqueUnion, PatternSpec, build, parse_spec
from .graphs import (
    Frozen,
    Graph,
    _graph,
    _indented_json,
    _lower_twins,
    clique_union_sizes,
    complement,
    empty,
    from_graph6,
    iter_bits,
    relabel,
    to_graph6,
)

# The interpreter's built-in SHA-256, as random.py takes sha512: hashlib
# would load all of OpenSSL (3.6 MB of peak RSS) for one function.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

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
    ``new=[1 << v]``.
    """
    adj = g.adj
    shift = g.order.bit_length()  # counts stay below 1 << shift
    if new is None:
        new = cells
    while new:
        out: list[int] = []
        fresh: list[int] = []
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
    are equal.  The rule is the least graph6 code among the leaves of
    :func:`_search`, with one exception: a disjoint union of cliques is
    recognized directly and represented by ``build(CliqueUnion(sizes))``,
    the library's extremal construction.  The search would give 883 of the
    clique unions of order 2 to 16 another code, and every pinned
    certificate and enumeration digest would move.  Each search node
    spends one unit of ``budget`` (default 500,000 per call).
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
    leaf, _ = _search(g, Budget.coerce(budget if budget is not None else _CANONICAL_NODES))
    perm = [0] * g.order
    for pos, v in enumerate(leaf):
        perm[v] = pos
    return relabel(g, perm)


def _search(g: Graph, bud: Budget) -> tuple[list[int], list[list[int]]]:
    """The best leaf of g's canonical search and the automorphisms it found.

    The search runs over vertex individualizations, each node refined to an
    equitable partition, and takes the leaf whose graph6 code is least.
    Leaves are compared as integers holding the graph6 body bits.  A leaf
    whose code equals the best one yields an automorphism (McKay 1981;
    McKay and Piperno 2014): the search then leaves the subtree it has just
    matched, and each node skips a branch vertex in the orbit of an
    explored sibling under the automorphisms found so far that fix the
    node's individualized vertices.  Twins (:func:`graphs._lower_twins`)
    are known before the search starts: swapping two of them is an
    automorphism, so every node starts its orbits with the twin classes
    merged, and a branch vertex that is a twin of an explored sibling is
    skipped.  Both lie in the branch cell, which holds no individualized
    vertex, so the swap fixes the node's path and maps the skipped subtree
    onto the explored one.  None of this changes the least code or the
    first leaf to reach it.  Each node spends one unit of ``bud``.

    The leaf lists the vertex put at each position; each automorphism maps
    v to ``auto[v]``, in g's own labels.  The automorphisms are one
    transposition per twin with a lower twin, swapping it with the least of
    its class, then those the leaves found.  They generate a subgroup of
    Aut(g), possibly trivial.  g has at least two vertices.
    """
    n = g.order
    adj = g.adj
    best_code: int | None = None
    best_leaf: list[int] = []  # best_leaf[pos] is the vertex put at pos
    best_path: list[int] = []
    path: list[int] = []  # the individualized vertices, root first
    autos: list[list[int]] = []
    # merged[v] is the least twin of v: the union-find every node's orbits
    # start from, with one transposition per twin class member above it.
    merged = list(range(n))
    lower, twinned = _lower_twins(adj, (1 << n) - 1)
    for w in iter_bits(twinned):
        least = (lower[w] & -lower[w]).bit_length() - 1
        merged[w] = least
        swap = list(range(n))
        swap[least], swap[w] = w, least
        autos.append(swap)
    swaps = len(autos)

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
            code = 0
            for col in range(1, n):
                row = adj[leaf[col]]
                for w in leaf[:col]:
                    code = code << 1 | (row >> w & 1)
            if best_code is None or code < best_code:
                best_code, best_leaf, best_path = code, leaf, path[:]
                return depth
            if code > best_code:
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
        orbit = merged[:]  # union-find over the usable automorphisms
        used = swaps
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
    return best_leaf, autos


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
    return _graph(k + 1, rows + (bits,))


def _grow(level: list[Graph]) -> list[Graph]:
    """One representative per class of the order above ``level``'s.

    ``level`` holds one representative per class of its order j.  Each
    representative P is extended by a new vertex x with neighbourhood
    ``bits`` for the ``bits`` that pass two tests, and the survivors are
    canonicalised and deduplicated.

    Key.  An extension is kept only when x maximises the key (degree, sum
    of neighbour degrees) over its vertices (McKay 1998).  No class of
    order j+1 is lost: deleting a vertex u with the largest key leaves a
    graph isomorphic to some representative, and that representative
    extended by the image of u's neighbourhood is a copy of the class in
    which x, standing for u, has the largest key, since the key does not
    depend on labels.  The test reads only P's degrees and ``bits``, so a
    rejected extension is never built.  With d = |bits|, a parent vertex
    gains one to its degree when it is in ``bits``; its sum gains one per
    neighbour in ``bits``, and d when it is in ``bits`` itself.  x's sum is
    d plus the parent degrees of ``bits``.  Only the vertices tied with x
    at degree d are compared by sum.

    Orbits.  P is searched once with :func:`_search`, clique unions
    included, and ``bits`` is kept only when it is least in its orbit under
    the automorphisms found, which are in P's own labels.  An automorphism
    a of P, fixing x, maps the extension by ``bits`` onto the one by
    a(bits), x to x, so the two are isomorphic and the key test answers
    the same for both.  Dropping all but the least of an orbit therefore
    loses no class, whatever subgroup of Aut(P) the search found.  The
    automorphisms of one parent are dropped before the next is searched.

    Canonical representatives of one class are equal graphs, so a set
    deduplicates them.  Output is sorted by (edge count, graph6 code).
    """
    size = level[0].order
    seen: set[Graph] = set()
    for parent in level:
        adj = parent.adj
        degrees = [row.bit_count() for row in adj]
        top = max(degrees, default=0)
        # of_degree[k] is the mask of parent vertices of degree k; the two
        # entries past the largest degree stay 0, so index -1 reads 0.
        of_degree = [0] * (size + 2)
        for v, deg in enumerate(degrees):
            of_degree[deg] |= 1 << v
        sums = [sum(degrees[u] for u in iter_bits(row)) for row in adj]
        autos = _search(parent, Budget(_CANONICAL_NODES))[1] if size > 1 else []
        # moves[i][v] is the bit of automorphism i's image of v.
        moves = [[1 << w for w in auto] for auto in autos]
        met = bytearray(1 << size)  # bits in an orbit met already
        for bits in range(1 << size):
            d = bits.bit_count()
            if d < top or (d == top and bits & of_degree[top]):
                continue  # a parent vertex would outrank x by degree
            if met[bits]:
                continue  # a lesser member of its orbit came first
            met[bits] = 1
            orbit = [bits]
            for member in orbit:
                for move in moves:
                    image = 0
                    rest = member
                    while rest:
                        low = rest & -rest
                        image |= move[low.bit_length() - 1]
                        rest ^= low
                    if not met[image]:
                        met[image] = 1
                        orbit.append(image)
            tied = of_degree[d] & ~bits | of_degree[d - 1] & bits
            if tied:
                mine = d + sum(degrees[u] for u in iter_bits(bits))
                if any(
                    sums[v] + (adj[v] & bits).bit_count() + (d if bits >> v & 1 else 0) > mine
                    for v in iter_bits(tied)
                ):
                    continue
            seen.add(canonical_graph(_extend(parent, bits)))
    return sorted(seen, key=lambda g: (g.edge_count(), to_graph6(g)))


def enumerate_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of order ``n``.

    Grows order by order from the empty graph, each level through the
    extensions of the one below whose new vertex has the largest (degree,
    neighbour-degree sum), one per orbit of the parent's automorphisms (see
    :func:`_grow`; neither test loses a class); output is sorted by (edge
    count, graph6 code).  Orders above ENUMERATION_CAP are refused: counts
    grow super-exponentially.
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
    order = classes[0].order
    digest = sha256()
    checked = 0
    counterexample = None
    for f in classes:
        code = to_graph6(f)
        digest.update(code.encode("ascii"))
        digest.update(b"\n")
        checked += 1
        where = f"class {checked} of order {order}"
        if find_subgraph(f, g_spec, bud).decided(g_spec, where):
            continue
        if find_subgraph(complement(f), h_spec, bud).decided(h_spec, f"complement of {where}"):
            continue
        counterexample = code
        break
    return ArrowsReport(
        order, counterexample is None, checked, len(classes), counterexample,
        "sha256:" + digest.hexdigest(),
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
    raise RamseyIndeterminate(g_spec, h_spec, cap, report)


# The JSON types each field of a certificate's upper report may take, in
# ArrowsReport's field order; the field names come from ArrowsReport.
_UPPER_KINDS = ((int,), (bool,), (int,), (int,), (str, type(None)), (str,))


def certificate_to_json(cert: RamseyCertificate) -> str:
    doc = {
        "g": cert.g_spec.text(),
        "h": cert.h_spec.text(),
        "value": cert.value,
        "lower_witness": cert.lower_witness,
        "upper": {name: getattr(cert.upper, name) for name in ArrowsReport._fields},
    }
    return _indented_json(doc)


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
    import json  # only here: a scan writes its certificate without it

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not JSON: {exc}") from None
    g_text = _field(doc, "g", (str,))
    h_text = _field(doc, "h", (str,))
    value = _field(doc, "value", (int,))
    lower_code = _field(doc, "lower_witness", (str,))
    up = _field(doc, "upper", (dict,))
    upper = ArrowsReport(*[
        _field(up, "upper." + name, kinds)
        for name, kinds in zip(ArrowsReport._fields, _UPPER_KINDS)
    ])
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
        if find_subgraph(host, spec, bud).decided(spec, "the " + where):
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
