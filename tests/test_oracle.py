import hashlib
import json
import random

import pytest

from ramsey_jahangir import (
    Budget,
    BudgetExhausted,
    CanonicalCapError,
    CertificateError,
    CliqueUnion,
    Complete,
    Cycle,
    EnumerationCapError,
    Jahangir,
    Path,
    RamseyIndeterminate,
    arrows,
    build,
    canonical_graph,
    certificate_from_json,
    certificate_to_json,
    complement,
    complete,
    count_classes_cycle_index,
    disjoint_union,
    empty,
    enumerate_graphs,
    from_edges,
    from_graph6,
    oracle,
    ramsey,
    relabel,
    to_graph6,
)

from helpers_naive import (
    _refine_naive,
    build_complete_multipartite,
    canonical_graph_naive,
    count_classes_naive,
    grow_reference,
    random_graph,
)

# number of isomorphism classes on n vertices, n = 0..
CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]


def test_counts_three_ways_small():
    for n in range(0, 6):
        assert count_classes_cycle_index(n) == CLASS_COUNTS[n]
        assert count_classes_naive(n) == CLASS_COUNTS[n]
        assert len(enumerate_graphs(n)) == CLASS_COUNTS[n]


def test_cycle_index_reaches_further():
    assert count_classes_cycle_index(7) == 1044
    assert count_classes_cycle_index(8) == 12346
    assert count_classes_cycle_index(9) == 274668


def test_naive_count_is_capped():
    with pytest.raises(EnumerationCapError):
        count_classes_naive(7)


def test_counts_refuse_a_negative_order():
    with pytest.raises(ValueError, match="^n >= 0 required$"):
        enumerate_graphs(-1)
    with pytest.raises(ValueError, match="^n >= 0 required$"):
        count_classes_cycle_index(-1)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_graphs(10)


def test_enumeration_is_canonical_and_sorted():
    level = enumerate_graphs(5)
    codes = [to_graph6(g) for g in level]
    assert len(set(codes)) == len(codes)
    keyed = [(g.edge_count(), to_graph6(g)) for g in level]
    assert keyed == sorted(keyed)
    for g in level:
        assert to_graph6(canonical_graph(g)) == to_graph6(g)


def test_canonical_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(40):
        order = rng.randrange(2, 9)
        g = random_graph(rng, order, rng.choice((0.3, 0.5, 0.8)))
        perm = list(range(order))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_graph(g) == canonical_graph(h)


def test_canonical_separates_non_isomorphic():
    # same order and size, different structure
    p4 = build(Path(4))
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert p4.edge_count() == star.edge_count() == 3
    assert canonical_graph(p4) != canonical_graph(star)
    c6 = build(Cycle(6))
    two_triangles = disjoint_union(build(Cycle(3)), build(Cycle(3)))
    assert canonical_graph(c6) != canonical_graph(two_triangles)


def test_canonical_handles_symmetric_unions():
    g = disjoint_union(complete(8), complete(8))
    h = relabel(g, [(v * 7 + 3) % 16 for v in range(16)])
    assert canonical_graph(g) == canonical_graph(h)
    assert canonical_graph(complement(g)) == canonical_graph(complement(h))


def test_complete_multipartite_classes_search_to_the_co_clique_code():
    # Only clique unions are recognized directly, so every complete
    # multipartite graph of order 2 to 16 but K_n and its complement goes
    # through the search, within 200 nodes, and its least leaf is the
    # complement of the clique union on its parts.
    rng = random.Random(31)
    for n in range(2, 17):
        for parts in oracle._partitions(n):
            g = complement(build(CliqueUnion(parts)))
            assert canonical_graph(_shuffled(g, rng), Budget(200)) == g, parts


def _shuffled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_canonical_matches_unpruned_search_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        order = rng.randrange(2, 11)
        g = random_graph(rng, order, rng.choice((0.2, 0.5, 0.8)))
        assert to_graph6(canonical_graph(g)) == to_graph6(canonical_graph_naive(g))


def test_canonical_matches_unpruned_search_on_every_order6_class():
    rng = random.Random(6)
    for rep in enumerate_graphs(6):
        g = _shuffled(rep, rng)
        assert to_graph6(canonical_graph(g)) == to_graph6(canonical_graph_naive(g))


def _twin_rich_graphs(rng):
    """Shuffled graphs of order 2 to 10 with large twin classes: every clique
    union and every complete multipartite graph with one pair toggled, the
    stars, and threshold graphs (each vertex joins every earlier one or
    none)."""
    for n in range(2, 11):
        for parts in oracle._partitions(n):
            union = build(CliqueUnion(parts))
            for g in (union, complement(union)):
                u, v = sorted(rng.sample(range(n), 2))
                yield _shuffled(from_edges(n, set(g.edges()) ^ {(u, v)}), rng)
        yield _shuffled(from_edges(n, [(0, v) for v in range(1, n)]), rng)
        for _ in range(4):
            edges = [(u, v) for v in range(1, n) if rng.random() < 0.5 for u in range(v)]
            yield _shuffled(from_edges(n, edges), rng)


def test_twin_skipping_keeps_the_least_code_and_finds_true_automorphisms():
    # Swapping two twins is an automorphism known before the search starts;
    # skipping a twin of an explored branch vertex moves no code, and each
    # transposition the search returns maps edges to edges.
    for g in _twin_rich_graphs(random.Random(29)):
        assert to_graph6(canonical_graph(g)) == to_graph6(canonical_graph_naive(g)), g
        _assert_automorphisms(g)


def _cell_lists(cells):
    return [[v for v in range(cell.bit_length()) if cell >> v & 1] for cell in cells]


def test_refine_matches_counting_against_every_cell():
    # The root refinement, and every split of its first non-singleton cell
    # into {v} and the rest, give the cells, in the same order, that
    # counting against every cell in every round gives.
    rng = random.Random(23)
    splits = 0
    for _ in range(400):
        order = rng.randrange(2, 17)
        g = random_graph(rng, order, rng.choice((0.2, 0.5, 0.8)))
        root = oracle._refine(g, [(1 << order) - 1])
        assert _cell_lists(root) == _refine_naive(g, [list(range(order))]), g
        branch = next((cell for cell in root if cell & (cell - 1)), None)
        if branch is None:
            continue
        at = root.index(branch)
        for v in _cell_lists([branch])[0]:
            cells = root[:at] + [1 << v, branch ^ 1 << v] + root[at + 1 :]
            got = oracle._refine(g, cells, [1 << v])
            assert _cell_lists(got) == _refine_naive(g, _cell_lists(cells)), (g, v)
            splits += 1
    assert splits == 629


def test_enumeration_order7_codes_are_pinned():
    # sha256 of the newline-joined codes, recorded before automorphism pruning
    codes = "\n".join(to_graph6(g) for g in enumerate_graphs(7))
    assert hashlib.sha256(codes.encode()).hexdigest() == (
        "00b31589b4b24a2d9dab1796f849de49a15b467dc14aaaa6c02043ce854665b3"
    )


def test_enumeration_order8_codes_are_pinned():
    # sha256 of the newline-joined codes, recorded before the maximum-degree
    # filter on extensions
    level = enumerate_graphs(8)
    assert len(level) == count_classes_cycle_index(8) == 12346
    codes = "\n".join(to_graph6(g) for g in level)
    assert hashlib.sha256(codes.encode()).hexdigest() == (
        "e96dc4bb7e51980e1f11717c7d0804ebf7750091574e11cf4e23e0615042b3d7"
    )


def test_filtered_levels_equal_the_unfiltered_reference():
    level = reference = [empty(0)]
    for _ in range(7):
        level, reference = oracle._grow(level), grow_reference(reference)
        assert [to_graph6(g) for g in level] == [to_graph6(g) for g in reference]


def test_enumeration_canonicalises_only_maximum_degree_extensions(monkeypatch):
    # Every one-vertex extension would cost 11,291 canonical forms up to
    # order 7, and those whose new vertex has maximum degree 3,132.  The
    # (degree, neighbour-degree sum) key and one extension per orbit of
    # the parent's automorphisms leave 1,307, for one automorphism search
    # on each parent of order 2 to 6 (207).
    extensions = parents = 0
    inside = False
    real_form, real_search = oracle.canonical_graph, oracle._search

    def form(g, budget=None):
        nonlocal extensions, inside
        extensions += 1
        inside = True
        try:
            return real_form(g, budget)
        finally:
            inside = False

    def search(g, bud):
        nonlocal parents
        parents += not inside
        return real_search(g, bud)

    monkeypatch.setattr(oracle, "canonical_graph", form)
    monkeypatch.setattr(oracle, "_search", search)
    assert len(enumerate_graphs(7)) == 1044
    assert (extensions, parents) == (1307, 207)


def test_twins_cut_the_canonical_nodes_of_growing_order_7(monkeypatch):
    # Growing order 7 runs 1,237 canonical searches.  Without the twin
    # transpositions they spent 6,888 nodes.
    searches = nodes = 0
    real_search = oracle._search

    def search(g, bud):
        nonlocal searches, nodes
        before = bud.remaining
        searches += 1
        found = real_search(g, bud)
        nodes += before - bud.remaining
        return found

    level = enumerate_graphs(6)
    monkeypatch.setattr(oracle, "_search", search)
    assert len(oracle._grow(level)) == 1044
    assert (searches, nodes) == (1237, 4061)


def _assert_automorphisms(g):
    """Every automorphism the search reports permutes g's vertices and maps
    each edge of g to an edge, in g's own labels; returns how many."""
    _, autos = oracle._search(g, Budget(500_000))
    edges = set(g.edges())
    for auto in autos:
        assert sorted(auto) == list(range(g.order)), g
        for u, v in edges:
            assert g.has_edge(auto[u], auto[v]), (g, auto)
    return len(autos)


def test_parent_search_automorphisms_are_in_the_parents_labels():
    # _grow prunes extensions of a parent with these automorphisms, so one
    # read in other labels (say, those of a clique union's generic
    # canonical form) would drop classes.
    for order in range(2, 8):
        for g in enumerate_graphs(order):
            _assert_automorphisms(g)
    rng = random.Random(17)
    for order in range(2, 9):
        for sizes in oracle._partitions(order):
            union = build(CliqueUnion(sizes))
            for g in (union, _shuffled(union, rng)):
                # every clique union of order 2 or more has a nontrivial
                # automorphism, and the search finds one
                assert _assert_automorphisms(g) > 0, (sizes, g)
                assert _assert_automorphisms(complement(g)) > 0, (sizes, g)


def _cayley_z4_z4(steps):
    """The Cayley graph on Z4 x Z4, (a, b) as vertex 4a + b, joining each
    vertex to its sums with ``steps`` and their negatives."""
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in steps:
                for sign in (1, -1):
                    u, v = 4 * a + b, 4 * ((a + sign * da) % 4) + (b + sign * db) % 4
                    edges.add((min(u, v), max(u, v)))
    return from_edges(16, sorted(edges))


# Strongly regular graphs of order 16.  The rook's graph and the Shrikhande
# graph are both srg(16, 6, 2, 2): refinement leaves every vertex in one
# cell, so only the leaf comparison tells them apart.
ROOK_4X4 = _cayley_z4_z4([(1, 0), (2, 0), (0, 1), (0, 2)])
SHRIKHANDE = _cayley_z4_z4([(1, 0), (0, 1), (1, 1)])
CLEBSCH = from_edges(
    16, [(u, v) for u in range(16) for v in range(u + 1, 16) if (u ^ v).bit_count() in (1, 4)]
)


def test_symmetric_stragglers_finish_in_few_nodes():
    # 2K_{4,4} and P_3 + 9K_1 used up a 500,000-node allowance without
    # automorphism pruning; 4C4 needed 192,209 nodes.
    k44 = build_complete_multipartite((4, 4))
    c4 = build(Cycle(4))
    two_c4 = disjoint_union(c4, c4)
    stragglers = [
        disjoint_union(k44, k44),
        disjoint_union(two_c4, two_c4),
        from_graph6("K????o??????"),  # P_3 + 9K_1
        from_graph6("K~V~~~~~~~~~"),
    ] + [g for srg in (ROOK_4X4, SHRIKHANDE, CLEBSCH) for g in (srg, complement(srg))]
    rng = random.Random(16)
    for g in stragglers:
        rep = canonical_graph(g, Budget(2_000))
        assert rep.order == g.order and rep.edge_count() == g.edge_count()
        assert canonical_graph(_shuffled(g, rng), Budget(2_000)) == rep
        assert canonical_graph(rep, Budget(2_000)) == rep
    assert canonical_graph(ROOK_4X4) != canonical_graph(SHRIKHANDE)
    assert canonical_graph(complement(ROOK_4X4)) != canonical_graph(complement(SHRIKHANDE))


def test_canonical_cap():
    with pytest.raises(CanonicalCapError):
        canonical_graph(empty(17))


def test_arrows_r_p3_p3():
    # R(P3, P3) = 3
    p3 = Path(3)
    below = arrows(2, p3, p3)
    assert not below.holds and below.counterexample is not None
    at = arrows(3, p3, p3)
    assert at.holds
    assert at.checked == at.total == 4
    assert at.checksum.startswith("sha256:")


def test_arrows_checksum_is_the_sha256_of_the_swept_codes():
    # The sweep hashes with the interpreter's built-in SHA-256; hashlib's is
    # the reference.  Orders below R(P4, J2,2) = 6 stop at a counterexample.
    stopped = 0
    for order in range(1, 8):
        report = arrows(order, Path(4), Jahangir(2, 2))
        codes = [to_graph6(g) for g in enumerate_graphs(order)][: report.checked]
        assert report.holds == (order >= 6)
        assert report.checksum == "sha256:" + hashlib.sha256(
            b"".join(code.encode("ascii") + b"\n" for code in codes)
        ).hexdigest()
        stopped += report.checked < report.total
    assert stopped


def test_arrows_monotone_in_order():
    p4, j = Path(4), Jahangir(2, 2)
    held = False
    for order in range(1, 8):
        now = arrows(order, p4, j).holds
        assert not (held and not now), "holding must persist once reached"
        held = held or now
    assert held


def test_ramsey_certificates():
    cert = ramsey(Path(3), Path(3), cap=6)
    assert cert.value == 3
    wit = cert.lower_witness
    assert wit is not None
    assert from_graph6(wit).order == 2


def test_ramsey_indeterminate_carries_context():
    with pytest.raises(RamseyIndeterminate) as info:
        ramsey(Path(6), Jahangir(2, 3), cap=4)
    exc = info.value
    assert exc.cap == 4
    assert exc.last.order == 3
    assert not exc.last.holds


def test_ramsey_sweep_out_of_budget_names_the_undecided_class():
    # The budget is shared over the scan: 5 nodes run dry on the complement
    # side at order 5, 489 on the path side at order 6 (487 to 491 do).
    for budget, message in [
        (5, "undecided: J2,2 in complement of class 2 of order 5"),
        (489, "undecided: P6 in class 24 of order 6"),
    ]:
        with pytest.raises(BudgetExhausted) as info:
            ramsey(Path(6), Jahangir(2, 2), 9, budget=budget)
        assert str(info.value) == message


def test_ramsey_cap_validation():
    with pytest.raises(ValueError):
        ramsey(Path(3), Path(3), cap=1)
    with pytest.raises(EnumerationCapError):
        ramsey(Path(3), Path(3), cap=11)


# Closed forms from the literature, each reproduced by a full scan below
# the cap.  Pairs whose value is 9, such as R(P5, K3), need an order-9
# sweep (274,668 classes) and are left out of tier-1.
LITERATURE_VALUES = (
    # Gerencser and Gyarfas (1967): R(P_n, P_m) = n + floor(m/2) - 1, n >= m
    [
        (Path(n), Path(m), n + m // 2 - 1)
        for n, m in [(3, 3), (4, 4), (5, 4), (6, 4), (5, 5), (6, 3), (6, 5), (7, 4), (6, 6)]
    ]
    # Chvatal (1977): R(P_n, K_m) = (n - 1)(m - 1) + 1
    + [(Path(n), Complete(m), (n - 1) * (m - 1) + 1) for n, m in [(3, 3), (3, 4), (4, 3)]]
    # Chvatal and Harary (1972)
    + [(Cycle(3), Cycle(3), 6), (Cycle(4), Cycle(4), 6)]
    # Faudree, Lawrence, Parsons and Schelp (1974)
    + [(Path(4), Cycle(4), 5)]
)


@pytest.mark.parametrize(
    "g, h, value", LITERATURE_VALUES,
    ids=[f"R({g.text()},{h.text()})" for g, h, _ in LITERATURE_VALUES],
)
def test_ramsey_matches_the_literature(g, h, value):
    cert = ramsey(g, h, cap=10)
    assert cert.value == value
    assert certificate_from_json(certificate_to_json(cert)) == cert


def test_certificate_json_round_trip():
    cert = ramsey(Path(4), Complete(3), cap=8)
    assert cert.value == 7  # classical: R(P4, K3) = 7
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert back == cert
    # a one-clique union prints as K3 and must parse back to the same spec
    cert = ramsey(Path(3), CliqueUnion((3,)), cap=8)
    assert certificate_from_json(certificate_to_json(cert)) == cert


def test_certificate_check_out_of_budget_is_undecided_not_rejected():
    cert = ramsey(Path(4), Jahangir(2, 2), cap=8)
    text = certificate_to_json(cert)
    with pytest.raises(BudgetExhausted, match="P4 in the lower witness"):
        certificate_from_json(text, budget=1)
    with pytest.raises(BudgetExhausted, match="J2,2 in the lower witness complement"):
        certificate_from_json(text, budget=7)
    assert certificate_from_json(text) == cert


def test_certificate_rejects_tampering():
    cert = ramsey(Path(4), Complete(3), cap=8)
    doc = json.loads(certificate_to_json(cert))

    wrong_value = dict(doc, value=6)
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(wrong_value))

    # right order, but contains the first pattern
    bad_witness = dict(doc, lower_witness=to_graph6(complete(6)))
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(bad_witness))

    # right order, but the complement contains the second pattern
    bad_complement = dict(doc, lower_witness=to_graph6(empty(6)))
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(bad_complement))

    wrong_order = dict(doc, lower_witness=to_graph6(empty(3)))
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(wrong_order))

    inflated = dict(doc, upper=dict(doc["upper"], total=doc["upper"]["total"] + 1))
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(inflated))

    garbage_code = dict(doc, lower_witness="\x07nope")
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(garbage_code))

    with pytest.raises(CertificateError):
        certificate_from_json("not json at all")

    # each upper-sweep claim and the header are checked, not just typed
    up = doc["upper"]
    rejected = [
        ("no field 'h'", {key: v for key, v in doc.items() if key != "h"}),
        ("malformed certificate", dict(doc, g="Q7")),
        ("does not claim to hold", dict(doc, upper=dict(up, holds=False))),
        ("upper sweep at order 6, expected 7", dict(doc, upper=dict(up, order=6))),
        ("cannot carry a counterexample", dict(doc, upper=dict(up, counterexample="E???"))),
        ("sha256-prefixed", dict(doc, upper=dict(up, checksum=up["checksum"][7:]))),
    ] + [
        (f"no field 'upper.{name}'", dict(doc, upper={k: v for k, v in up.items() if k != name}))
        for name in ["order", "holds", "checked", "total", "counterexample", "checksum"]
    ]
    for message, tampered in rejected:
        with pytest.raises(CertificateError, match=message):
            certificate_from_json(json.dumps(tampered))

    # every field has its JSON type, and the error names it; a bool is no
    # integer
    retyped = [
        ("value", dict(doc, value=True)),
        ("g", dict(doc, g=4)),
        ("lower_witness", dict(doc, lower_witness=None)),
        ("upper", dict(doc, upper=[])),
    ] + [
        (f"upper.{key}", dict(doc, upper=dict(doc["upper"], **{key: bad})))
        for key, bad in [
            ("order", 6.0), ("holds", 1), ("checked", "1044"), ("total", None),
            ("counterexample", 5), ("checksum", 5),
        ]
    ]
    for field, tampered in retyped:
        with pytest.raises(CertificateError, match=field):
            certificate_from_json(json.dumps(tampered))

    # a value past the enumeration cap, which no scan can produce or re-run,
    # even with a lower witness that checks out
    classes = count_classes_cycle_index(11)
    beyond = {
        "g": "K11", "h": "P2", "value": 11, "lower_witness": to_graph6(complete(10)),
        "upper": {"order": 11, "holds": True, "checked": classes, "total": classes,
                  "counterexample": None, "checksum": "sha256:" + "0" * 64},
    }
    with pytest.raises(CertificateError, match="value"):
        certificate_from_json(json.dumps(beyond))
