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
    component_masks,
    disjoint_union,
    empty,
    find_subgraph,
    fits_complete_multipartite,
    from_edges,
    longest_path,
)
import ramsey_jahangir.embedding as embedding_module
from ramsey_jahangir.embedding import _search_order
from ramsey_jahangir.graphs import iter_bits
from ramsey_jahangir.suites import SUITES, generate_case

from helpers_naive import (
    build_complete_multipartite,
    contains_by_injections,
    induced,
    longest_path_brute,
    longest_path_full_bound,
    longest_path_reference,
    random_graph,
    shuffled_complete_bipartite,
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
    assert check_embedding(host, emb) is None
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
    assert check_embedding(host, res.embedding) is None


def test_find_subgraph_budget_exhaustion_reports_unknown():
    host = random_graph(random.Random(1), 12, 0.5)
    res = find_subgraph(host, Jahangir(2, 3), budget=1)
    assert res.status == "unknown"
    assert res.embedding is None


def test_find_subgraph_rejects_a_larger_pattern_before_building_it(monkeypatch):
    # A pattern with more vertices than the host is absent by its order
    # alone, and building a long one takes seconds (P12000).
    def refuse(spec):
        raise AssertionError(f"built {spec.text()}")

    monkeypatch.setattr(embedding_module, "build", refuse)
    assert find_subgraph(empty(3), Path(50)).status == "absent"


def test_find_subgraph_agrees_with_injections():
    """The backtracker against brute-force injections over every 6-vertex host."""
    rng = random.Random(42)
    patterns = [Path(4), Cycle(4), Cycle(5), Wheel(4), Jahangir(2, 2),
                DisjointPaths(2, 2), DisjointPaths(2, 3)]
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


def _relabelled(rng, order, edges):
    perm = list(range(order))
    rng.shuffle(perm)
    return from_edges(order, [(perm[u], perm[v]) for u, v in edges])


def _bipartite_hosts(rng):
    """Seeded bipartite hosts of order up to 30, labels shuffled: forests,
    trees with chords across the tree's colour classes (even cycles only),
    K_{a,b}, even cycles and grids."""
    for _ in range(12):
        order = rng.randrange(2, 31)
        parent = [rng.randrange(v) for v in range(order)[1:]]
        tree = [(p, v) for v, p in enumerate(parent, start=1)]
        forest = [e for e in tree if rng.random() < 0.85]
        yield _relabelled(rng, order, forest)
        depth = [0] * order
        for p, v in tree:
            depth[v] = depth[p] + 1
        chords = set()
        for _ in range(rng.randrange(1, 5)):
            u, v = rng.sample(range(order), 2)
            if depth[u] % 2 != depth[v] % 2:
                chords.add((u, v))
        yield _relabelled(rng, order, tree + sorted(chords))
    for a in range(1, 7):
        for b in range(1, 7):
            yield shuffled_complete_bipartite(rng, a, b)
    for k in (4, 6, 10, 16, 24, 26, 30):
        yield _relabelled(rng, k, list(build(Cycle(k)).edges()))
    for rows, cols in ((2, 5), (3, 3), (3, 4), (4, 4), (4, 6), (5, 5), (5, 6)):
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        yield _relabelled(rng, rows * cols, edges)


def _odd_cycle_hosts(rng):
    """Seeded hosts with an odd cycle: trees plus one chord inside a colour
    class of the tree, and sparse random graphs."""
    for _ in range(12):
        order = rng.randrange(3, 31)
        tree = [(rng.randrange(v), v) for v in range(1, order)]
        depth = [0] * order
        for p, v in tree:
            depth[v] = depth[p] + 1
        pairs = [(u, v) for v in range(order) for u in range(v)
                 if depth[u] % 2 == depth[v] % 2 and (u, v) not in tree]
        if pairs:
            yield _relabelled(rng, order, tree + [rng.choice(pairs)])
    for _ in range(12):
        yield random_graph(rng, rng.randrange(3, 17), rng.choice((0.1, 0.2, 0.3)))


def test_bipartite_bound_changes_no_answer():
    """The side-count bound prunes, but every path, tie-break and early stop
    stays that of the search bounded by reachability alone; hosts with an
    odd cycle keep that search exactly."""
    rng = random.Random(11)
    seen_orders = set()
    for g in [*_bipartite_hosts(rng), *_odd_cycle_hosts(rng)]:
        seen_orders.add(g.order)
        full = longest_path(g)
        assert full == longest_path_reference(g), g
        for stop in {2, max(1, len(full) // 2), len(full), len(full) + 1}:
            assert longest_path(g, stop=stop) == longest_path_reference(g, stop=stop), (g, stop)
        if g.order <= 8:
            assert len(full) == longest_path_brute(g), g
    # both the memoised search and plain branch-and-bound ran
    assert min(seen_orders) <= 24 < max(seen_orders)


def _long_path_hosts(rng):
    """Seeded long paths up to order 300 with a few chords, labels shuffled."""
    for order, chords in ((60, 3), (150, 2), (220, 1), (300, 0)):
        edges = [(v, v + 1) for v in range(order - 1)]
        edges += [tuple(rng.sample(range(order), 2)) for _ in range(chords)]
        yield _relabelled(rng, order, edges)


def _er_union_hosts(per_suite):
    """The first cases of every suite built from random block unions."""
    for spec in SUITES.values():
        if spec.kind == "er-union":
            for index in range(per_suite):
                yield generate_case(spec, 5, index)


def test_deciding_the_bound_keeps_paths_and_node_counts():
    """Deciding the bound against the gap prunes exactly where counting it
    in full did: the same path and the same nodes spent, so the budget runs
    out at the same node."""
    rng = random.Random(13)
    hosts = [*_bipartite_hosts(rng), *_odd_cycle_hosts(rng),
             *_er_union_hosts(4), *_long_path_hosts(rng)]
    for g in hosts:
        full = len(longest_path(g))
        for stop in {None, 2, max(1, full // 2), full, full + 1}:
            ours = Budget(1 << 40)
            path = longest_path(g, ours, stop=stop)
            spent = (1 << 40) - ours.remaining
            # Both searches finish on exactly ``spent`` nodes, one fewer
            # exhausts both.
            exact = Budget(spent)
            assert longest_path_full_bound(g, exact, stop) == path, (g, stop)
            assert exact.remaining == 0, (g, stop)
            assert longest_path(g, Budget(spent), stop=stop) == path
            if spent > 1:
                with pytest.raises(BudgetExhausted):
                    longest_path(g, Budget(spent - 1), stop=stop)
                with pytest.raises(BudgetExhausted):
                    longest_path_full_bound(g, Budget(spent - 1), stop)
    assert max(g.order for g in hosts) == 300


def test_complete_bipartite_stall_is_settled():
    # K_{10,30} holds no P23; its longest path alternates sides, 11 + 10.
    host = shuffled_complete_bipartite(random.Random(3), 10, 30)
    assert len(longest_path(host, Budget(10_000))) == 21
    assert len(longest_path(host, Budget(10_000), stop=23)) == 21


def test_find_path_at_least():
    # "Is there a path on at least n vertices?" is longest_path with stop=n.
    g = build(Path(9))
    assert len(longest_path(g, stop=5)) == 5
    assert len(longest_path(g, stop=10)) == 9  # no P10: a maximum path
    assert len(longest_path(empty(3), stop=2)) == 1
    with pytest.raises(ValueError):
        longest_path(g, stop=0)


def test_stop_searches_the_components_that_can_hold_the_path_first():
    # The star K_{1,5} comes first by least vertex but cannot hold a P25.
    star = from_edges(6, [(0, v) for v in range(1, 6)])
    host = disjoint_union(star, build(Path(30)))
    spent, alone = Budget(1_000), Budget(1_000)
    assert longest_path(host, spent, stop=25) == tuple(range(6, 31))
    assert longest_path(build(Path(30)), alone, stop=25) == tuple(range(25))
    assert 1_000 - spent.remaining == 1_000 - alone.remaining == 25


def test_longest_path_is_not_bounded_by_the_recursion_limit():
    path = longest_path(build(Path(1200)), stop=1100)
    assert len(path) == 1100
    assert all(b - a == 1 for a, b in zip(path, path[1:]))


def test_a_long_path_costs_one_node_per_vertex():
    # The descent never backtracks: each node sets a new best, and the
    # bound is decided by the first layer of the reachable set.
    host = build(Path(1200))
    assert len(longest_path(host, Budget(1100), stop=1100)) == 1100
    with pytest.raises(BudgetExhausted):
        longest_path(host, Budget(1099), stop=1100)


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


def _masked_hosts(rng, count):
    """Seeded hosts of order 2 to 30: trees with a few chords across their
    colour classes and one to three inside one (a mask that drops those
    leaves bipartite components whose host edges still reach outside the
    mask), and sparse random graphs of average degree 1 to 2."""
    for _ in range(count):
        order = rng.randrange(2, 31)
        tree = [(rng.randrange(v), v) for v in range(1, order)]
        depth = [0] * order
        for p, v in tree:
            depth[v] = depth[p] + 1
        pairs = [(u, v) for v in range(order) for u in range(v) if (u, v) not in tree]
        even = [(u, v) for u, v in pairs if depth[u] % 2 != depth[v] % 2]
        odd = [(u, v) for u, v in pairs if depth[u] % 2 == depth[v] % 2]
        chords = rng.sample(even, min(len(even), rng.randrange(0, 6)))
        chords += rng.sample(odd, min(len(odd), rng.randrange(1, 4)))
        yield from_edges(order, tree + chords)
        order = rng.randrange(2, 31)
        yield random_graph(rng, order, rng.choice((1.0, 1.5, 2.0)) / order)


def test_within_matches_the_induced_subgraph():
    """A search restricted to a vertex mask is the search of the induced
    subgraph mapped back: same path, same tie-breaks, same budget spent."""
    rng = random.Random(23)
    checked = 0
    for g in _masked_hosts(rng, 1000):
        keep = rng.choice((0.5, 0.7, 0.9, 1.0))
        within = sum(1 << v for v in range(g.order) if rng.random() < keep)
        stop = rng.choice((None, rng.randrange(1, g.order + 2)))
        sub, idx = induced(g, iter_bits(within))
        masked, reference = Budget(10_000_000), Budget(10_000_000)
        path = longest_path(g, masked, stop=stop, within=within)
        assert path == tuple(idx[v] for v in longest_path(sub, reference, stop=stop))
        assert masked.remaining == reference.remaining
        assert component_masks(g, within) == [
            sum(1 << idx[v] for v in iter_bits(c)) for c in component_masks(sub)
        ]
        checked += 1
    assert checked >= 2000


def test_within_must_be_a_vertex_set_of_the_graph():
    g = build(Path(4))
    for bad in (-1, -16, 1 << 4, 0b10001):
        with pytest.raises(ValueError):
            longest_path(g, within=bad)
        with pytest.raises(ValueError):
            component_masks(g, bad)
    assert longest_path(g, within=0) == ()
    assert component_masks(g, 0) == []
