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
    # Every one-vertex extension would cost 11,291 calls up to order 7.
    calls = 0
    real = oracle.canonical_graph

    def counted(g, budget=None):
        nonlocal calls
        calls += 1
        return real(g, budget)

    monkeypatch.setattr(oracle, "canonical_graph", counted)
    assert len(enumerate_graphs(7)) == 1044
    assert calls == 3132


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
    ]
    rng = random.Random(16)
    for g in stragglers:
        rep = canonical_graph(g, Budget(2_000))
        assert rep.order == g.order and rep.edge_count() == g.edge_count()
        assert canonical_graph(_shuffled(g, rng), Budget(2_000)) == rep
        assert canonical_graph(rep, Budget(2_000)) == rep


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


def test_ramsey_cap_validation():
    with pytest.raises(ValueError):
        ramsey(Path(3), Path(3), cap=1)
    with pytest.raises(EnumerationCapError):
        ramsey(Path(3), Path(3), cap=11)


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
