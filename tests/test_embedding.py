import random

import pytest

from ramsey_jahangir import (
    Budget,
    BudgetExhausted,
    CliqueUnion,
    Cycle,
    DisjointPaths,
    Embedding,
    Jahangir,
    Path,
    Wheel,
    build,
    check_embedding,
    complement,
    complete,
    disjoint_union,
    empty,
    find_disjoint_paths,
    find_path_at_least,
    find_subgraph,
    fits_complete_multipartite,
    from_edges,
    longest_path,
    verify_embedding,
)
from ramsey_jahangir.embedding import _search_order

from helpers_naive import (
    build_complete_multipartite,
    contains_by_injections,
    longest_path_brute,
    random_graph,
)


def test_budget_basics():
    with pytest.raises(ValueError):
        Budget(0)
    b = Budget(2)
    b.spend()
    b.spend()
    with pytest.raises(BudgetExhausted):
        b.spend()
    assert Budget.coerce(b) is b
    assert isinstance(Budget.coerce(5), Budget)


def test_verify_embedding_positive_and_negative():
    host = build(Wheel(6))
    emb = Embedding(Jahangir(2, 3), host.order, tuple(range(7)))
    assert verify_embedding(host, emb)
    # break injectivity
    bad = Embedding(Jahangir(2, 3), host.order, (0, 1, 2, 3, 4, 5, 5))
    assert check_embedding(host, bad) is not None
    # wrong host order
    assert check_embedding(empty(3), emb) is not None
    # missing pattern edge
    sparse = empty(7)
    assert check_embedding(sparse, emb) is not None


def test_find_subgraph_frozen_cases():
    c5 = build(Cycle(5))
    assert find_subgraph(c5, Path(5)).status == "present"
    assert find_subgraph(c5, Cycle(5)).status == "present"
    assert find_subgraph(c5, Cycle(4)).status == "absent"
    assert find_subgraph(c5, Cycle(3)).status == "absent"
    k6 = complete(6)
    assert find_subgraph(k6, Wheel(5)).status == "present"
    assert find_subgraph(k6, Jahangir(2, 3)).status == "absent"  # needs 7 vertices
    assert find_subgraph(complete(7), Jahangir(2, 3)).status == "present"


def test_find_subgraph_returns_verified_embedding():
    host = complement(disjoint_union(complete(4), complete(4)))
    res = find_subgraph(host, Cycle(8))
    assert res.status == "present"
    assert verify_embedding(host, res.embedding)


def test_find_subgraph_budget_exhaustion_reports_unknown():
    host = random_graph(random.Random(1), 12, 0.5)
    res = find_subgraph(host, Jahangir(2, 3), budget=1)
    assert res.status == "unknown"
    assert res.embedding is None


def test_find_subgraph_agrees_with_injections():
    """The backtracker against brute-force injections over every 6-vertex host."""
    rng = random.Random(42)
    patterns = [Path(4), Cycle(4), Cycle(5), Wheel(4), Jahangir(2, 2)]
    for _ in range(40):
        host = random_graph(rng, 6, rng.choice((0.3, 0.5, 0.7)))
        for spec in patterns:
            want = contains_by_injections(host, spec.order, spec.edges())
            got = find_subgraph(host, spec).status
            assert got == ("present" if want else "absent"), (host, spec)


def test_longest_path_known_values():
    assert longest_path(empty(4)) == (0,)
    assert longest_path(empty(0)) == ()
    assert len(longest_path(complete(5))) == 5
    assert len(longest_path(build(Cycle(7)))) == 7
    star = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert len(longest_path(star)) == 3


def test_longest_path_prefers_least_component_tie():
    # two disjoint triangles: the path in the first one wins the tie
    g = disjoint_union(build(Cycle(3)), build(Cycle(3)))
    assert set(longest_path(g)) == {0, 1, 2}


def test_longest_path_agrees_with_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        order = rng.randrange(1, 8)
        g = random_graph(rng, order, rng.choice((0.2, 0.4, 0.6)))
        path = longest_path(g)
        assert len(path) == longest_path_brute(g)
        # and the returned sequence really is a path
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


def test_find_path_at_least():
    g = build(Path(9))
    found = find_path_at_least(g, 5)
    assert found is not None and len(found) == 5
    assert find_path_at_least(g, 10) is None
    assert find_path_at_least(empty(3), 2) is None
    with pytest.raises(ValueError):
        find_path_at_least(g, 0)


def test_find_disjoint_paths():
    g = disjoint_union(build(Path(4)), build(Path(4)))
    got = find_disjoint_paths(g, 2, 4)
    assert got is not None
    used = [v for p in got for v in p]
    assert len(set(used)) == 8
    assert find_disjoint_paths(g, 3, 4) is None
    assert find_disjoint_paths(g, 2, 5) is None


def test_find_disjoint_paths_agrees_with_subgraph_search():
    rng = random.Random(2024)
    for _ in range(400):
        g = random_graph(rng, rng.randint(4, 9), rng.choice((0.2, 0.35, 0.5)))
        t, k = rng.randint(1, 3), rng.randint(1, 3)
        want = find_subgraph(g, DisjointPaths(t, k)).status == "present"
        assert (find_disjoint_paths(g, t, k) is not None) == want, (g.adj, t, k)


def test_find_disjoint_paths_needs_backtracking():
    # P_7: a greedy middle pick can block the second P_3; 2 x P_3 still fits
    g = build(Path(7))
    got = find_disjoint_paths(g, 2, 3)
    assert got is not None
    for p in got:
        assert len(p) == 3
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
    assert len({v for p in got for v in p}) == 6


def test_search_order_puts_the_hub_first():
    assert _search_order(Wheel(5)) == [5, 0, 1, 2, 3, 4]
    assert _search_order(Jahangir(2, 3)) == [6, 0, 1, 2, 3, 4, 5]
    assert _search_order(Path(4)) == [0, 1, 2, 3]
    assert _search_order(CliqueUnion((2, 1))) == [0, 1, 2]


def test_fits_complete_multipartite():
    # a pattern fits iff it properly colours within the class caps
    assert fits_complete_multipartite(build(Cycle(6)), (3, 3))
    assert not fits_complete_multipartite(build(Cycle(6)), (2, 40))
    assert not fits_complete_multipartite(build(Cycle(5)), (10, 10))
    assert fits_complete_multipartite(build(Cycle(5)), (10, 10, 1))
    assert not fits_complete_multipartite(build(Jahangir(3, 2)), (30, 30))
    assert fits_complete_multipartite(build(Jahangir(3, 2)), (30, 30, 1))
    assert not fits_complete_multipartite(build(Jahangir(3, 3)), (31, 31, 1))
    assert fits_complete_multipartite(empty(4), (4,))
    assert not fits_complete_multipartite(complete(3), (1, 1))
    with pytest.raises(ValueError):
        fits_complete_multipartite(empty(2), (2, -1))


def test_fits_multipartite_agrees_with_search():
    """Colouring test vs actual embedding search into the multipartite host."""
    rng = random.Random(13)
    specs = [Cycle(4), Cycle(5), Path(5), Wheel(4), Jahangir(2, 2)]
    parts_pool = [(2, 3), (3, 3), (1, 2, 2), (2, 2, 2), (5,), (1, 5)]
    for spec in specs:
        for parts in parts_pool:
            host = build_complete_multipartite(parts)
            want = find_subgraph(host, spec).status == "present"
            assert fits_complete_multipartite(build(spec), parts) == want, (spec, parts)
    # and a couple of random patterns for good measure
    for _ in range(10):
        g = random_graph(rng, 5, 0.5)
        for parts in parts_pool:
            host = build_complete_multipartite(parts)
            got = fits_complete_multipartite(g, parts)
            want = (
                contains_by_injections(host, g.order, list(g.edges()))
                if host.order >= g.order
                else False
            )
            assert got == want, (g, parts)
