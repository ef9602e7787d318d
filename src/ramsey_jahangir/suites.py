"""Seeded stress suites: reproducible random hosts fed through the extractor.

A suite fixes a theorem regime (one of the case classes in ``families``)
and a host shape; one 64-bit master seed then determines every case
exactly.  Case ``i`` draws its own seed from a splitmix64 stream over the
master seed, so cases are independent of each other and of ``count`` --
rerunning with the same seed and a larger count extends the run without
changing earlier cases.

Host recipes (frozen: changing any detail would silently break replay):

* ``er-union`` -- partition the order into blocks of size 3 to
  ``min(SUITE_COMPONENT_CAP, n - 1)`` (sizes drawn uniformly, the tail
  adjusted so no block drops below 3), then within each block include each
  pair u < v, iterated in increasing (u, v) order, with one
  ``getrandbits(1)`` call each.  Components stay below the target path
  order, so these hosts always fall on the Jahangir side.
* ``clique-paths`` -- two complete blocks of order ``n`` plus isolated
  padding, pushed through a Fisher-Yates shuffle of the labels.  These
  always fall on the path side.
"""

from __future__ import annotations

import random

from .embedding import Budget
from .families import TheoremCase, Thm1, Thm2EvenM, Thm2OddM, Thm3
from .graphs import Frozen, Graph, from_edges, relabel, to_graph6

SUITE_COMPONENT_CAP = 20

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step; the usual constants, 64-bit wrapping."""
    z = (x + _GOLDEN) & _M64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def case_seed(seed: int, index: int) -> int:
    """Seed for case ``index``: element ``index`` of the splitmix64 stream."""
    return splitmix64((seed + index * _GOLDEN) & _M64)


class SuiteSpec(Frozen):
    name: str
    kind: str  # "er-union" or "clique-paths"
    case: TheoremCase
    order: int


SUITES: dict[str, SuiteSpec] = {
    spec.name: spec
    for spec in (
        SuiteSpec("thm1-s2m3", "er-union", Thm1(23, 2, 3), 25),
        SuiteSpec("thm2-s3m2", "er-union", Thm2EvenM(12, 3, 2), 23),
        SuiteSpec("thm2-s3m3", "er-union", Thm2OddM(32, 3, 3), 64),
        SuiteSpec("thm3-t2s2m3", "er-union", Thm3(2, 23, 2, 3), 48),
        SuiteSpec("thm3-t2s2m3-paths", "clique-paths", Thm3(2, 23, 2, 3), 48),
    )
}


def _block_sizes(rng: random.Random, order: int, n: int) -> list[int]:
    hi = min(SUITE_COMPONENT_CAP, n - 1)
    assert hi >= 5, "suite shapes keep the block ceiling comfortably above 3"
    sizes: list[int] = []
    remaining = order
    while remaining > 0:
        if remaining <= hi:
            sizes.append(remaining)
            break
        size = rng.randint(3, hi)
        if remaining - size < 3:
            size = remaining - 3
        sizes.append(size)
        remaining -= size
    return sizes


def generate_case(spec: SuiteSpec, seed: int, index: int) -> Graph:
    """Deterministic host number ``index`` of the suite run seeded ``seed``."""
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


def run_suite(
    name: str, seed: int, count: int, budget: int | Budget | None = None
) -> dict:
    """Run ``count`` cases of a named suite; deterministic given the seed.

    The seed is a 64-bit master seed, 0 to 2^64 - 1; one outside that range
    raises ValueError rather than being wrapped onto another seed's cases.

    Each case record carries the host's graph6 code and the full trace
    document of its extraction.  ``ok`` is the conjunction of every case's
    ``verified`` flag.  Construction failures (MaximalityViolation, budget
    exhaustion) propagate immediately rather than being recorded.
    """
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        )
    if not 0 <= seed <= _M64:
        raise ValueError(f"seed {seed} outside 0 .. 2^64 - 1")
    if count < 1:
        raise ValueError("count >= 1 required")
    # Here, not at the top, so that reading the suite table (the CLI's help
    # does) leaves the extractor unloaded.
    from .witness import extract, trace_document

    spec = SUITES[name]
    cases = []
    for index in range(count):
        g = generate_case(spec, seed, index)
        witness = extract(g, spec.case, budget=budget)
        record = {"index": index, "graph6": to_graph6(g)}
        record.update(trace_document(g, witness))
        cases.append(record)
    return {
        "suite": name,
        "seed": seed,
        "count": count,
        "ok": all(case["verified"] for case in cases),
        "cases": cases,
    }
