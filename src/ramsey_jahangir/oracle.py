"""Exhaustive small-order oracle: canonical forms, enumeration, Ramsey scans.

Everything here is exact and deterministic.  Canonical forms come from an
equitable-refinement search over vertex individualizations; enumeration
grows one order at a time and deduplicates canonically; ``arrows`` sweeps
every isomorphism class of a given order; ``ramsey`` turns such sweeps
into a machine-checkable certificate.  Cycle-index arithmetic counts the
classes independently, to cross-check the enumerator and certificates.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd

from .embedding import Budget, BudgetExhausted, find_subgraph
from .families import CliqueUnion, PatternSpec, build, format_spec, parse_spec
from .graphs import (
    Graph,
    clique_union_sizes,
    complement,
    empty,
    from_graph6,
    relabel,
    to_graph6,
)

__all__ = [
    "CANONICAL_CAP",
    "ENUMERATION_CAP",
    "CanonicalCapError",
    "EnumerationCapError",
    "CertificateError",
    "RamseyIndeterminate",
    "CanonicalForm",
    "canonical_graph",
    "canonical_form",
    "are_isomorphic",
    "enumerate_graphs",
    "count_classes_cycle_index",
    "ArrowsReport",
    "arrows",
    "RamseyCertificate",
    "ramsey",
    "certificate_to_json",
    "certificate_from_json",
]

CANONICAL_CAP = 16
ENUMERATION_CAP = 9

# Node allowance for one canonical-form search.  Refinement finishes almost
# every graph this size in a handful of nodes; the allowance exists for the
# highly symmetric stragglers, which fail loudly instead of spinning.
_CANONICAL_NODES = 500_000


class CanonicalCapError(ValueError):
    """Canonical-form request beyond the supported order."""


class EnumerationCapError(ValueError):
    """Exhaustive request beyond the default order cap (override with force)."""


class CertificateError(ValueError):
    """A loaded certificate failed re-verification."""


@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-class label: the graph6 code of the canonical relabeling."""

    order: int
    encoding: str


def _refine(g: Graph, cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement: split cells by neighbour counts into all cells.

    Signatures are compared as tuples and subcells come out in ascending
    signature order, so the result depends only on the input partition.
    """
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


def canonical_graph(g: Graph, budget: int | Budget | None = None) -> Graph:
    """A canonical representative of g's isomorphism class.

    Two graphs are isomorphic exactly when their canonical representatives
    are equal.  Clique unions and their complements are recognized directly
    (these cover the library's extremal constructions, which are the worst
    cases for the generic search); everything else goes through equitable
    refinement plus individualization, taking the lexicographically least
    graph6 code over the search's leaves.  No automorphism pruning is done,
    so highly symmetric graphs near the order cap can exhaust the node
    allowance; pass a larger ``budget`` to push further.
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
    co_sizes = clique_union_sizes(complement(g))
    if co_sizes is not None:
        return complement(build(CliqueUnion(co_sizes)))
    bud = Budget.coerce(budget if budget is not None else _CANONICAL_NODES)
    n = g.order
    best_code: str | None = None
    best_graph: Graph | None = None

    def descend(cells: list[list[int]]) -> None:
        nonlocal best_code, best_graph
        bud.spend()
        cells = _refine(g, cells)
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
    assert best_graph is not None
    return best_graph


def canonical_form(g: Graph, budget: int | Budget | None = None) -> CanonicalForm:
    return CanonicalForm(g.order, to_graph6(canonical_graph(g, budget)))


def are_isomorphic(g: Graph, h: Graph, budget: int | Budget | None = None) -> bool:
    if g.order != h.order or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g, budget) == canonical_form(h, budget)


# --------------------------------------------------------------------------
# enumeration and counting


def _extend(parent: Graph, bits: int) -> Graph:
    """Append one vertex whose neighbourhood among 0..order-1 is ``bits``."""
    k = parent.order
    rows = tuple(
        row | ((bits >> v & 1) << k) for v, row in enumerate(parent.adj)
    )
    return Graph(k + 1, rows + (bits,))


def enumerate_graphs(n: int, *, force: bool = False) -> list[Graph]:
    """One canonical representative per isomorphism class of order ``n``.

    Grows order by order: every class of order j+1 has a vertex whose
    removal leaves some order-j class, so extending each order-j
    representative by a new vertex with every possible neighbourhood and
    deduplicating canonically reaches everything.  Output is sorted by
    (edge count, graph6 code).  Orders above ENUMERATION_CAP need
    ``force=True``; counts grow super-exponentially, so expect order 10 and
    beyond to be slow and large.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if n > ENUMERATION_CAP and not force:
        raise EnumerationCapError(
            f"enumeration above order {ENUMERATION_CAP} needs force=True"
        )
    level: list[Graph] = [empty(0)]
    for size in range(1, n + 1):
        seen: dict[str, Graph] = {}
        for parent in level:
            for bits in range(1 << (size - 1)):
                rep = canonical_graph(_extend(parent, bits))
                seen.setdefault(to_graph6(rep), rep)
        level = sorted(
            seen.values(), key=lambda g: (g.edge_count(), to_graph6(g))
        )
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


@dataclass(frozen=True)
class ArrowsReport:
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
    force: bool = False,
) -> ArrowsReport:
    """Exhaustively decide the arrowing property at one order.

    Sweeps every isomorphism class F of the given order and checks
    ``g_spec`` against F or ``h_spec`` against F's complement.  A sweep
    that cannot decide some class (search budget ran dry) raises rather
    than guessing.
    """
    bud = Budget.coerce(budget)
    classes = enumerate_graphs(order, force=force)
    digest = hashlib.sha256()
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
                f"undecided: {format_spec(g_spec)} in class {checked} of order {order}"
            )
        in_co = find_subgraph(complement(f), h_spec, bud)
        if in_co.status == "present":
            continue
        if in_co.status == "unknown":
            raise BudgetExhausted(
                f"undecided: {format_spec(h_spec)} in complement of class {checked}"
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
            f"R({format_spec(g_spec)}, {format_spec(h_spec)}) >= {cap}: no order"
            f" below the cap arrows"
        )
        self.g_spec = g_spec
        self.h_spec = h_spec
        self.cap = cap
        self.last = last


@dataclass(frozen=True)
class RamseyCertificate:
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

    The first order whose sweep holds is the value: holding is monotone
    upward, because deleting any vertex of a counterexample at one order
    leaves a counterexample at the order below.  Raises
    :class:`RamseyIndeterminate` when every order below the cap has a
    counterexample, and :class:`EnumerationCapError` when the cap would
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
    for order in range(1, cap):
        report = arrows(order, g_spec, h_spec, bud)
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
    doc = {
        "g": format_spec(cert.g_spec),
        "h": format_spec(cert.h_spec),
        "value": cert.value,
        "lower_witness": cert.lower_witness,
        "upper": {
            "order": cert.upper.order,
            "holds": cert.upper.holds,
            "checked": cert.upper.checked,
            "total": cert.upper.total,
            "counterexample": cert.upper.counterexample,
            "checksum": cert.upper.checksum,
        },
    }
    return json.dumps(doc, indent=2)


def certificate_from_json(
    text: str, budget: int | Budget | None = None
) -> RamseyCertificate:
    """Parse a certificate and re-verify everything cheap about it.

    The lower witness is re-checked edge by edge (neither pattern on its
    side, right order).  The upper sweep is re-checked for internal
    consistency -- it must claim to hold, cover every class, and carry a
    class count agreeing with independent cycle-index arithmetic -- but is
    not re-run; rerun :func:`arrows` for full, slow confidence.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not JSON: {exc}") from None
    try:
        g_spec = parse_spec(doc["g"])
        h_spec = parse_spec(doc["h"])
        value = doc["value"]
        lower_code = doc["lower_witness"]
        up = doc["upper"]
        upper = ArrowsReport(
            up["order"],
            up["holds"],
            up["checked"],
            up["total"],
            up["counterexample"],
            up["checksum"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from None
    if not isinstance(value, int) or value < 1:
        raise CertificateError(f"bad value {value!r}")
    bud = Budget.coerce(budget)
    try:
        witness = from_graph6(lower_code)
    except ValueError as exc:
        raise CertificateError(f"bad lower witness encoding: {exc}") from None
    if witness.order != value - 1:
        raise CertificateError(
            f"lower witness has order {witness.order}, expected {value - 1}"
        )
    if find_subgraph(witness, g_spec, bud).status != "absent":
        raise CertificateError("lower witness contains the first pattern")
    if find_subgraph(complement(witness), h_spec, bud).status != "absent":
        raise CertificateError(
            "lower witness complement contains the second pattern"
        )
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
