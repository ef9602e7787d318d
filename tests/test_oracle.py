import json
import random

import pytest

from ramsey_jahangir import (
    CanonicalCapError,
    CertificateError,
    CliqueUnion,
    Complete,
    Cycle,
    EnumerationCapError,
    Jahangir,
    Path,
    RamseyIndeterminate,
    are_isomorphic,
    arrows,
    build,
    canonical_form,
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
    ramsey,
    relabel,
    to_graph6,
)

from helpers_naive import count_classes_naive, random_graph

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
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)


def test_canonical_separates_non_isomorphic():
    # same order and size, different structure
    p4 = build(Path(4))
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert p4.edge_count() == star.edge_count() == 3
    assert not are_isomorphic(p4, star)
    c6 = build(Cycle(6))
    two_triangles = disjoint_union(build(Cycle(3)), build(Cycle(3)))
    assert not are_isomorphic(c6, two_triangles)


def test_canonical_handles_symmetric_unions():
    g = disjoint_union(complete(8), complete(8))
    h = relabel(g, [(v * 7 + 3) % 16 for v in range(16)])
    assert are_isomorphic(g, h)
    assert are_isomorphic(complement(g), complement(h))


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
