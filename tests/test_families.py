import pytest

from ramsey_jahangir import (
    CliqueUnion,
    Complete,
    Cycle,
    DisjointPaths,
    Jahangir,
    Path,
    PreconditionError,
    Thm1,
    Thm2EvenM,
    Thm2OddM,
    Thm3,
    Wheel,
    build,
    empty,
    extract,
    extremal_graph,
    fits_complete_multipartite,
    parse_spec,
    require_thresholds,
)
from ramsey_jahangir.graphs import clique_union_sizes

from helpers_naive import build_complete_multipartite


def test_pattern_orders():
    assert Path(7).order == 7
    assert Cycle(5).order == 5
    assert Wheel(6).order == 7
    assert Jahangir(2, 3).order == 7
    assert DisjointPaths(3, 4).order == 12
    assert Complete(5).order == 5
    assert CliqueUnion((4, 1)).order == 5


def test_pattern_validation():
    with pytest.raises(ValueError):
        Path(0)
    with pytest.raises(ValueError):
        Cycle(2)
    with pytest.raises(ValueError):
        Wheel(2)
    with pytest.raises(ValueError):
        Jahangir(1, 3)
    with pytest.raises(ValueError):
        Jahangir(2, 1)
    with pytest.raises(ValueError):
        DisjointPaths(0, 3)
    with pytest.raises(ValueError):
        CliqueUnion(())
    with pytest.raises(ValueError):
        CliqueUnion((3, 0))


def test_edge_counts():
    # P_n has n-1 edges, C_n has n, W_k has 2k, J_{s,m} has sm + m
    assert len(Path(9).edges()) == 8
    assert len(Cycle(6).edges()) == 6
    assert len(Wheel(6).edges()) == 12
    assert len(Jahangir(2, 3).edges()) == 9
    assert len(Jahangir(3, 4).edges()) == 16
    assert len(DisjointPaths(2, 5).edges()) == 8
    assert len(Complete(6).edges()) == 15
    assert len(CliqueUnion((3, 2)).edges()) == 4


def test_jahangir_layout():
    """Rim 0..sm-1 in a cycle, hub last, spokes every s-th rim vertex."""
    g = build(Jahangir(3, 2))
    hub = 6
    assert Jahangir(3, 2).hub == hub
    assert g.degree(hub) == 2
    assert g.has_edge(0, hub) and g.has_edge(3, hub)
    assert not g.has_edge(1, hub)
    for i in range(6):
        assert g.has_edge(i, (i + 1) % 6)
    # J_{2,m}: every other rim vertex is a spoke foot
    h = build(Jahangir(2, 3))
    feet = [v for v in range(6) if h.has_edge(v, 6)]
    assert feet == [0, 2, 4]


def test_wheel_is_jahangir_plus_spokes():
    w = build(Wheel(6))
    j = build(Jahangir(2, 3))
    assert set(j.edges()) <= set(w.edges())
    assert w.degree(6) == 6
    assert Wheel(6).hub == 6


def test_only_wheels_and_jahangirs_have_a_hub():
    for spec in (Path(4), Cycle(5), DisjointPaths(2, 3), CliqueUnion((3, 1))):
        assert spec.hub is None


def test_disjoint_paths_blocks():
    g = build(DisjointPaths(2, 3))
    assert list(g.edges()) == [(0, 1), (1, 2), (3, 4), (4, 5)]


def test_format_round_trip():
    specs = [
        Path(23),
        Cycle(6),
        Wheel(6),
        Jahangir(2, 3),
        DisjointPaths(2, 23),
        Complete(5),
        CliqueUnion((3,)),
        CliqueUnion((3, 1)),
    ]
    for spec in specs:
        assert parse_spec(spec.text()) == spec
    # one path is one value with one text, however it is spelt
    assert Path(5) == DisjointPaths(1, 5) and DisjointPaths(1, 5).text() == "P5"


def test_parse_spec_text():
    assert parse_spec("P23") == Path(23)
    assert parse_spec("p23") == Path(23)  # case-insensitive
    assert parse_spec("J2,3") == Jahangir(2, 3)
    assert parse_spec("2P23") == DisjointPaths(2, 23)
    assert parse_spec("1P5") == parse_spec("P5") == Path(5) == DisjointPaths(1, 5)
    assert parse_spec("1p5").text() == "P5"
    assert parse_spec("K5") == Complete(5) == CliqueUnion((5,))
    assert parse_spec("K3+K1") == CliqueUnion((3, 1))
    assert parse_spec("k3+k1") == CliqueUnion((3, 1))
    for bad in ("", "P", "X5", "J2", "J2,", "2,3", "P 5", " P5", "K3+", "P-1"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_theorem_case_shape_validation():
    Thm1(23, 2, 3)  # fine
    with pytest.raises(ValueError):
        Thm1(23, 3, 3)  # s must be even here
    with pytest.raises(ValueError):
        Thm1(23, 2, 2)  # m >= 3
    with pytest.raises(ValueError):
        Thm2EvenM(12, 2, 2)  # s must be odd here
    with pytest.raises(ValueError):
        Thm2EvenM(12, 3, 3)  # m must be even here
    with pytest.raises(ValueError):
        Thm2OddM(32, 3, 2)  # m must be odd here
    with pytest.raises(ValueError):
        Thm3(0, 23, 2, 3)
    # Shape only: small n is allowed so the constructions stay inspectable.
    Thm1(5, 2, 3)
    Thm2OddM(3, 3, 3)


def test_extremal_shapes():
    g = extremal_graph(Thm1(23, 2, 3))
    assert g.order == 24
    assert clique_union_sizes(g) == (22, 2)

    g = extremal_graph(Thm2EvenM(12, 3, 2))
    assert g.order == 22
    assert clique_union_sizes(g) == (11, 11)

    g = extremal_graph(Thm2OddM(32, 3, 3))
    assert g.order == 63
    assert clique_union_sizes(g) == (31, 31, 1)

    g = extremal_graph(Thm3(2, 23, 2, 3))
    assert g.order == 47
    assert clique_union_sizes(g) == (45, 2)


def test_ramsey_values_match_the_closed_forms():
    # R is the order of the extremal clique union plus one.
    def r(case):
        return extremal_graph(case).order + 1

    for n in range(2, 9):
        for s in (2, 4, 6):
            for m in (3, 4, 5):
                assert r(Thm1(n, s, m)) == n + s * m // 2 - 1
                for t in (1, 2, 3):
                    assert r(Thm3(t, n, s, m)) == t * n + s * m // 2 - 1
        for s in (3, 5, 7):
            for m in (2, 4, 6):
                assert r(Thm2EvenM(n, s, m)) == 2 * n - 1
            for m in (3, 5, 7):
                assert r(Thm2OddM(n, s, m)) == 2 * n


# The theorem number (the CLI's --theorem) only labels each case's test id.
@pytest.mark.parametrize(
    "theorem, case",
    [
        (1, Thm1(23, 2, 3)),
        (2, Thm2EvenM(12, 3, 2)),
        (2, Thm2OddM(32, 3, 3)),
        (3, Thm3(2, 23, 2, 3)),
    ],
)
def test_hosts_need_order_r(theorem, case):
    r = extremal_graph(case).order + 1
    with pytest.raises(PreconditionError):
        require_thresholds(case, empty(r - 1))
    with pytest.raises(PreconditionError):
        extract(empty(r - 1), case)
    require_thresholds(case, empty(r))
    assert extract(empty(r), case).kind == "jahangir"
    below = case.replace(n=case.min_n - 1)
    with pytest.raises(PreconditionError):
        require_thresholds(below, empty(10 * r))


def test_build_complete_multipartite():
    g = build_complete_multipartite((2, 3))
    assert g.order == 5
    assert g.edge_count() == 6
    assert not g.has_edge(0, 1)
    assert not g.has_edge(2, 3)
    assert g.has_edge(0, 2)


def _multipartite_has_cycle(parts, length):
    return fits_complete_multipartite(build(Cycle(length)), parts)


def test_multipartite_even_cycle_two_parts():
    # C_L fits K_{a,b} iff L is even and min(a, b) >= L/2
    assert _multipartite_has_cycle((3, 3), 6)
    assert not _multipartite_has_cycle((2, 22), 6)
    assert not _multipartite_has_cycle((3, 3), 5)
    assert not _multipartite_has_cycle((40, 40), 7)
    for a in range(1, 9):
        for b in range(a, 9):
            for length in range(3, 13):
                rule = length % 2 == 0 and a >= length // 2
                assert _multipartite_has_cycle((a, b), length) == rule


def test_multipartite_even_cycle_three_parts_small():
    assert _multipartite_has_cycle((2, 2, 2), 6)
    # C_4 = a-c-b-d-a lives in K_{1,1,2} even though no two parts suffice
    assert _multipartite_has_cycle((1, 1, 2), 4)
    assert not _multipartite_has_cycle((1, 1, 1), 4)
