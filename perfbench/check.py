"""Independent output checker.

Nothing here imports ``ramsey_jahangir``: hosts are rebuilt from their
graph6 codes with the benchmark's own decoder and every witness edge is
checked against pattern edges generated here.  A check returns the number
of items that passed and a list of reasons for the ones that did not.
"""

from __future__ import annotations

import json
from itertools import permutations

from hosts import decode_graph6

# R(P_n, J_{2,2}) anchors of acceptance criterion 1.
RAMSEY_ANCHORS = {("P4", "J2,2"): 6, ("P5", "J2,2"): 6, ("P6", "J2,2"): 7}

# Isomorphism classes of graphs on 1..7 vertices (OEIS A000088).
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

# (t, n, s, m, host order) of each named suite.
SUITE_REGIMES = {
    "thm1-s2m3": (1, 23, 2, 3, 25),
    "thm2-s3m2": (1, 12, 3, 2, 23),
    "thm2-s3m3": (1, 32, 3, 3, 64),
    "thm3-t2s2m3": (2, 23, 2, 3, 48),
    "thm3-t2s2m3-paths": (2, 23, 2, 3, 48),
}


def path_edges(n: int, base: int = 0) -> list[tuple[int, int]]:
    return [(base + i, base + i + 1) for i in range(n - 1)]


def jahangir_edges(s: int, m: int) -> list[tuple[int, int]]:
    """Rim 0..sm-1 as a cycle, hub sm joined to rim positions 0, s, 2s, ..."""
    sm = s * m
    return [(i, (i + 1) % sm) for i in range(sm)] + [(j * s, sm) for j in range(m)]


def _pattern(text: str, t: int, n: int, s: int, m: int):
    """(side, order, edges) of a witness pattern the regime allows, else None."""
    if text == (f"P{n}" if t == 1 else f"{t}P{n}"):
        edges = [e for b in range(t) for e in path_edges(n, b * n)]
        return "host", t * n, edges
    if text == f"J{s},{m}":
        return "complement", s * m + 1, jahangir_edges(s, m)
    return None


def check_witness(doc: dict, adj: list[set[int]], regime: tuple) -> str | None:
    """Reason ``doc`` is not a valid dichotomy witness on the host, or None."""
    t, n, s, m = regime
    if doc.get("verified") is not True:
        return "document not marked verified"
    wit = doc.get("witness", {})
    shape = _pattern(str(wit.get("pattern")), t, n, s, m)
    if shape is None:
        return f"pattern {wit.get('pattern')!r} is neither side of the regime"
    side, order, edges = shape
    image = wit.get("map")
    if not isinstance(image, list) or len(image) != order:
        return f"map of {order} vertices expected"
    if any(not isinstance(v, int) or not 0 <= v < len(adj) for v in image):
        return "map leaves the host"
    if len(set(image)) != order:
        return "map is not injective"
    for a, b in edges:
        u, v = image[a], image[b]
        if (v in adj[u]) != (side == "host"):
            return f"pattern edge {a}-{b} maps to {u}-{v}, not an edge of the {side}"
    return None


def _check_docs(
    docs: list[dict], codes: list[str], regime, cases: dict, order: int | None = None
) -> tuple[int, list[str]]:
    passed, bad = 0, []
    for i, (doc, code) in enumerate(zip(docs, codes)):
        host_order, adj = decode_graph6(code)
        if order is not None and host_order != order:
            reason = f"host is not of order {order}"
        else:
            reason = check_witness(doc, adj, regime)
        if reason is None:
            passed += 1
            kind = "jahangir" if doc["witness"]["pattern"].startswith("J") else "paths"
            case = f"{doc.get('case')}:{kind}"
            cases[case] = cases.get(case, 0) + 1
        else:
            bad.append(f"host {i}: {reason}")
    return passed, bad


def _contains(order: int, adj: list[set[int]], pat_order: int, edges, want_edge: bool) -> bool:
    """Brute force: does some injective map send every pattern edge to
    an edge (``want_edge``) or a non-edge of the graph?"""
    for image in permutations(range(order), pat_order):
        if all((image[b] in adj[image[a]]) == want_edge for a, b in edges):
            return True
    return False


def check_ramsey(text: str, params: dict) -> tuple[int, list[str]]:
    try:
        doc = json.loads(text)
        g, h = doc["g"], doc["h"]
        value = doc["value"]
        up = doc["upper"]
    except (ValueError, KeyError, TypeError) as exc:
        return 0, [f"unreadable certificate: {exc}"]
    expected = RAMSEY_ANCHORS.get((params["g"], params["h"]))
    if (g, h) != (params["g"], params["h"]) or value != expected:
        return 0, [f"R({g}, {h}) = {value}, anchor is {expected}"]
    if not (up.get("order") == value and up.get("holds") is True
            and up.get("counterexample") is None
            and up.get("checked") == up.get("total") == CLASS_COUNTS[value]):
        return 0, [f"upper sweep {up} does not cover the {CLASS_COUNTS[value]} classes"]
    order, adj = decode_graph6(doc["lower_witness"])
    if order != value - 1:
        return 0, [f"lower witness has order {order}, expected {value - 1}"]
    n = int(g[1:])
    if _contains(order, adj, n, path_edges(n), True):
        return 0, [f"lower witness contains {g}"]
    s, m = (int(x) for x in h[1:].split(","))
    if _contains(order, adj, s * m + 1, jahangir_edges(s, m), False):
        return 0, [f"lower witness complement contains {h}"]
    return 1, []


def check_suite(text: str, params: dict, cases: dict) -> tuple[int, list[str]]:
    try:
        doc = json.loads(text)
        records = doc["cases"]
    except (ValueError, KeyError, TypeError) as exc:
        return 0, [f"unreadable suite document: {exc}"]
    name, count = params["name"], params["count"]
    if (doc.get("suite"), doc.get("seed"), doc.get("count"), doc.get("ok")) != (
        name, params["seed"], count, True
    ) or [r.get("index") for r in records] != list(range(count)):
        return 0, ["suite header or case indices do not match the request"]
    t, n, s, m, order = SUITE_REGIMES[name]
    codes = [r["graph6"] for r in records]
    return _check_docs(records, codes, (t, n, s, m), cases, order)


def check_witness_output(text: str, params: dict, codes, cases: dict) -> tuple[int, list[str]]:
    try:
        if len(codes) == 1:
            docs = [json.loads(text)]
        else:
            docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        return 0, [f"unreadable witness output: {exc}"]
    if len(docs) != len(codes):
        return 0, [f"{len(docs)} documents for {len(codes)} hosts"]
    regime = (params.get("t", 1), params["n"], params["s"], params["m"])
    return _check_docs(docs, list(codes), regime, cases)


def check_output(inv, text: str, cases: dict) -> tuple[int, list[str]]:
    """Items of ``inv`` whose output in ``text`` checks out, and the failures.

    ``cases`` collects ``case:kind`` counts of the witnesses that passed.
    """
    if inv.command == "ramsey":
        return check_ramsey(text, inv.params)
    if inv.command == "suite":
        return check_suite(text, inv.params, cases)
    return check_witness_output(text, inv.params, inv.hosts, cases)

