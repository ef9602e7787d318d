import hashlib
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
    Thm1,
    Wheel,
    build,
    check_embedding,
    complement,
    complete,
    component_masks,
    disjoint_union,
    empty,
    enumerate_graphs,
    extract,
    find_subgraph,
    fits_complete_multipartite,
    from_edges,
    longest_path,
    trace_json,
)
import ramsey_jahangir.embedding as embedding_module
from ramsey_jahangir.embedding import _search_order
from ramsey_jahangir.graphs import iter_bits
from ramsey_jahangir.suites import SUITES, generate_case

from helpers_naive import (
    build_complete_multipartite,
    contains_by_injections,
    fits_by_colourings,
    induced,
    longest_path_brute,
    longest_path_full_bound,
    longest_path_reference,
    place_recursive,
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


def test_check_embedding_names_a_bad_mapping():
    host = build(Wheel(6))
    short = Embedding(Jahangir(2, 3), host.order, tuple(range(6)))
    assert check_embedding(host, short) == "mapping length 6 != pattern order 7"
    outside = Embedding(Jahangir(2, 3), host.order, (0, 1, 2, 3, 4, 5, 7))
    assert check_embedding(host, outside) == "image 7 out of range"


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


def test_decided_answers_present_and_absent_and_raises_on_unknown():
    c5 = build(Cycle(5))
    assert find_subgraph(c5, Path(5)).decided(Path(5), "C5") is True
    assert find_subgraph(c5, Cycle(4)).decided(Cycle(4), "C5") is False
    host = random_graph(random.Random(1), 12, 0.5)
    unknown = find_subgraph(host, Jahangir(2, 3), budget=1)
    with pytest.raises(BudgetExhausted) as info:
        unknown.decided(Jahangir(2, 3), "a random host")
    assert str(info.value) == "undecided: J2,3 in a random host"


def test_find_subgraph_rejects_a_larger_pattern_before_building_it(monkeypatch):
    # A pattern with more vertices than the host is absent by its order
    # alone, and building a long one takes seconds (P12000).
    def refuse(spec):
        raise AssertionError(f"built {spec.text()}")

    monkeypatch.setattr(embedding_module, "build", refuse)
    assert find_subgraph(empty(3), Path(50)).status == "absent"
    # Nor does a path longer than the host reach the path engine.
    monkeypatch.setattr(embedding_module, "longest_path", refuse)
    for order in range(4):
        for n in (order + 1, order + 5):
            bud = Budget(1)
            assert find_subgraph(complete(order), Path(n), bud).status == "absent"
            assert bud.remaining == 1


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


def test_path_patterns_go_to_the_path_engine_and_agree_with_injections(monkeypatch):
    """A one-path pattern, spelt ``Path(n)`` or ``DisjointPaths(1, n)``, is
    answered by ``longest_path(host, budget, stop=n)``: on every class of
    order at most 6 and its complement, the answer is brute force's, a
    present path checks out, the nodes spent are the path engine's, one
    node fewer gives "unknown", never "absent", and the generic placement
    search never runs."""
    def refuse(*args):
        raise AssertionError("a path pattern reached the placement search")

    monkeypatch.setattr(embedding_module, "_place", refuse)
    monkeypatch.setattr(embedding_module, "build", refuse)
    for order in range(7):
        for g in enumerate_graphs(order):
            for host in (g, complement(g)):
                for n in range(1, 8):
                    for spec in (Path(n), DisjointPaths(1, n)):
                        _assert_path_route(host, spec)


def _assert_path_route(host, spec):
    n = spec.n
    want = contains_by_injections(host, n, spec.edges())
    bud = Budget(1 << 30)
    res = find_subgraph(host, spec, bud)
    assert res.status == ("present" if want else "absent"), (host, spec)
    if want:
        assert check_embedding(host, res.embedding) is None
    spent = (1 << 30) - bud.remaining
    if n > host.order:
        assert spent == 0
        return
    engine = Budget(1 << 30)
    longest_path(host, engine, stop=n)
    assert spent == (1 << 30) - engine.remaining, (host, spec)
    if spent > 1:
        starved = find_subgraph(host, spec, Budget(spent - 1))
        assert starved.status == "unknown", (host, spec)
        assert starved.embedding is None


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


# A 6-vertex tree whose longest path has 5 vertices: P5 with a leaf on its
# middle vertex.
_FORK = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def test_a_lower_component_wins_a_tie_with_a_larger_one():
    # The tree on 5..10 is searched first, being larger, but its longest
    # path has 5 vertices, as many as the Hamiltonian P5 on 0..4.
    g = disjoint_union(build(Path(5)), _FORK)
    assert longest_path(g) == longest_path_reference(g) == (0, 1, 2, 3, 4)


def test_components_that_cannot_win_are_not_searched(monkeypatch):
    # K3, P4 and K12 in that vertex order: K12 is searched first, and its
    # Hamiltonian path leaves neither smaller component a tie.
    searched = []
    search = embedding_module._component_search

    def counted(g, comp_mask, side, bud, stop_len):
        searched.append(comp_mask)
        return search(g, comp_mask, side, bud, stop_len)

    monkeypatch.setattr(embedding_module, "_component_search", counted)
    g = disjoint_union(disjoint_union(complete(3), build(Path(4))), complete(12))
    assert longest_path(g) == tuple(range(7, 19))
    assert searched == [((1 << 12) - 1) << 7]


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
    # the reference memoises only up to 24 vertices, so above that the
    # memo of every component is checked against plain branch-and-bound
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


def _multi_component_hosts(rng):
    """Unions of random blocks of growing size, so the largest component
    comes last by least vertex, and of equal-size blocks; a tree whose
    longest path ties the Hamiltonian P5 before it; two P3s either side of
    a star whose longest path ties theirs."""
    for sizes in ((3, 5, 8, 12), (2, 4, 6, 6, 9), (5, 5, 5), (6, 6, 7, 7)):
        g = empty(0)
        for size in sizes:
            g = disjoint_union(g, random_graph(rng, size, rng.choice((0.2, 0.35, 0.5))))
        yield g
    yield disjoint_union(build(Path(5)), _FORK)
    star = from_edges(10, [(0, v) for v in range(1, 10)])
    yield disjoint_union(disjoint_union(build(Path(3)), star), build(Path(3)))


def test_deciding_the_bound_keeps_paths_and_node_counts():
    """Deciding the bound against the gap, twin pruning, the dead-end bound
    and visiting components largest first keep every path of the search
    that counts its bound in full and visits them by least vertex, and
    spend at most its nodes.  The budget boundary is exact: ``spent`` nodes
    finish the search, one fewer exhausts it."""
    rng = random.Random(13)
    hosts = [*_bipartite_hosts(rng), *_odd_cycle_hosts(rng),
             *_er_union_hosts(4), *_long_path_hosts(rng),
             *_multi_component_hosts(rng)]
    for g in hosts:
        full = len(longest_path(g))
        for stop in {None, 2, max(1, full // 2), full, full + 1}:
            _assert_agrees_with(g, stop, side_bound=True)
    assert max(g.order for g in hosts) == 300


def _assert_agrees_with(g, stop, *, side_bound):
    """``longest_path`` returns the path of the frozen full-bound search and
    spends at most its nodes; exactly its own spend suffices."""
    ours = Budget(1 << 40)
    path = longest_path(g, ours, stop=stop)
    spent = (1 << 40) - ours.remaining
    reference = Budget(1 << 40)
    assert longest_path_full_bound(g, reference, stop, side_bound=side_bound) == path, (g, stop)
    assert spent <= (1 << 40) - reference.remaining, (g, stop)
    assert longest_path(g, Budget(spent), stop=stop) == path
    if spent > 1:
        with pytest.raises(BudgetExhausted):
            longest_path(g, Budget(spent - 1), stop=stop)


def _complete_bipartite_plus(rng, a, b, extra):
    """K_{a,b} with the ``extra`` edges among the b-side vertices a, a+1, ...,
    labels shuffled."""
    cross = [(u, a + v) for u in range(a) for v in range(b)]
    return _relabelled(rng, a + b, cross + extra)


def _pruning_hosts(rng):
    """Seeded hosts full of twins and dead ends, labels shuffled: trees with
    many leaves on a few hubs, trees of bounded height with chords (as the
    benchmark's sparse blocks), a clique block beside sparse random edges,
    K_{a,b} with one edge or a triangle inside a side, and dense random
    block unions."""
    for _ in range(10):
        order = rng.randrange(4, 31)
        hubs = rng.randrange(1, order // 3 + 1)
        edges = [(rng.randrange(v), v) for v in range(1, hubs)]
        edges += [(rng.randrange(hubs), v) for v in range(hubs, order)]
        yield _relabelled(rng, order, edges)
    for _ in range(10):
        order = rng.randrange(6, 31)
        height = rng.randrange(2, 5)
        depth = [0]
        edges = []
        for v in range(1, order):
            parent = rng.choice([u for u in range(v) if depth[u] < height])
            depth.append(depth[parent] + 1)
            edges.append((parent, v))
        for _ in range(rng.randrange(1, 6)):
            chord = tuple(sorted(rng.sample(range(order), 2)))
            if chord not in edges:
                edges.append(chord)
        yield _relabelled(rng, order, edges)
    for _ in range(10):
        order = rng.randrange(10, 31)
        k = rng.randrange(3, order - 3)
        p = rng.choice((0.02, 0.03, 0.05))
        edges = {(u, v) for v in range(k) for u in range(v)}
        edges |= {(u, v) for v in range(order) for u in range(v) if rng.random() < p}
        yield _relabelled(rng, order, sorted(edges))
    for a, b in ((2, 5), (3, 5), (3, 7), (4, 6), (4, 8)):
        yield _complete_bipartite_plus(rng, a, b, [(a, a + 1)])
        yield _complete_bipartite_plus(rng, a, b, [(a, a + 1), (a + 1, a + 2), (a, a + 2)])
    yield from _er_union_hosts(2)


def test_twins_and_dead_ends_change_no_answer():
    """Against the search bounded by reachability alone: the same path for
    every stop length, at most its nodes, and an exact budget boundary."""
    rng = random.Random(17)
    hosts = list(_pruning_hosts(rng))
    for g in hosts:
        full = len(longest_path_reference(g))
        for stop in {None, 2, max(1, full // 2), full, full + 1}:
            _assert_agrees_with(g, stop, side_bound=False)
    # the reference memoises only up to 24 vertices, so above that the
    # memo of every component is checked against plain branch-and-bound
    assert min(g.order for g in hosts) <= 24 < max(g.order for g in hosts)


@pytest.mark.parametrize(
    "a, b, extra, stop, length",
    [
        (10, 30, [(10, 11)], 23, 22),
        (10, 30, [(10, 11), (11, 12), (10, 12)], 23, 23),
        (8, 24, [(8, 9)], 19, 18),
    ],
    ids=["K10,30+edge", "K10,30+triangle", "K8,24+edge"],
)
def test_complete_bipartite_with_an_odd_cycle_settles(a, b, extra, stop, length):
    # One odd cycle removes the side-count bound; twins on each side and
    # the dead-end bound still settle these hosts in a few thousand nodes.
    host = _complete_bipartite_plus(random.Random(3), a, b, extra)
    assert len(longest_path(host, Budget(10_000), stop=stop)) == length


def test_the_dead_state_memo_settles_a_bipartite_host_with_a_matching():
    # K_{5,14} with a perfect matching inside the 14-side: the longest path
    # puts two matched vertices between consecutive 5-side vertices, 5 + 12.
    # The memo of dead states settles it in about 29k nodes; without it the
    # search takes about 870k.
    matching = [(v, v + 1) for v in range(5, 19, 2)]
    host = _complete_bipartite_plus(random.Random(0), 5, 14, matching)
    assert len(longest_path(host, Budget(100_000))) == 17


def _blocks_on_a_cut_vertex(seed):
    """Three random blocks of 8 new vertices each on the shared vertex 0,
    edge probability 0.8: 25 vertices in one component."""
    r = random.Random(seed)
    edges = []
    for b in range(3):
        block = [0] + list(range(1 + 8 * b, 9 + 8 * b))
        edges += [
            (u, v) for i, u in enumerate(block) for v in block[i + 1:] if r.random() < 0.8
        ]
    return from_edges(25, edges)


@pytest.mark.parametrize(
    "seed, spent, digest",
    [
        (0, 12_621, "9ad82748a3939d8db29d467f87f52457a1ba28ebde0c4af38b9e898a0a6a5bc3"),
        (1, 8_987, "e099f540548c336f0ddccab49846a8dc1c0f261a7b3a5fa473d43b70749305a4"),
        (2, 14_391, "20201eac5a0165e65eba262fe1070d6107ff4ee540c4699c3677e57ea4c5c7c9"),
    ],
)
def test_the_memo_settles_blocks_on_a_cut_vertex_above_24_vertices(seed, spent, digest):
    # A longest path crosses the cut vertex once, so it covers two blocks
    # (17 vertices).  Dead states are remembered in every component, so
    # the search settles in about 10k nodes where plain branch-and-bound
    # takes 229k-445k.  The digests are those plain branch-and-bound
    # gave: the memo changes no byte of the trace.
    host = _blocks_on_a_cut_vertex(seed)
    bud = Budget(20_000)
    assert len(longest_path(host, bud)) == 17
    assert 20_000 - bud.remaining == spent
    trace = trace_json(host, extract(host, Thm1(23, 2, 3)))
    assert hashlib.sha256(trace.encode()).hexdigest() == digest


def test_a_bounded_memo_returns_the_same_paths(monkeypatch):
    # The memo is emptied once it holds _DEAD_STATES states.  A forgotten
    # state is only expanded again, so at a bound of 4,096 the memo hosts
    # above spend more nodes and return the same paths.
    hosts = [_blocks_on_a_cut_vertex(seed) for seed in range(3)]
    matching = [(v, v + 1) for v in range(5, 19, 2)]
    hosts.append(_complete_bipartite_plus(random.Random(0), 5, 14, matching))

    def searched():
        out = []
        for host in hosts:
            bud = Budget(1_000_000)
            out.append((longest_path(host, bud), 1_000_000 - bud.remaining))
        return out

    unbounded = searched()
    assert [spent for _, spent in unbounded] == [12_621, 8_987, 14_391, 28_392]
    monkeypatch.setattr(embedding_module, "_DEAD_STATES", 4_096)
    for (path, spent), (kept, more) in zip(unbounded, searched()):
        assert kept == path
        assert more > spent


def test_the_memo_settles_a_larger_bipartite_host_with_a_matching():
    # K_{6,19} with a matching inside the 19-side (sides 0-5 and 6-24): as
    # in the K_{5,14} host above, a matched pair fills each of the 7 places
    # around the 6 side vertices, 6 + 14.  The memo settles it in about
    # 468k nodes; plain branch-and-bound exhausts 3M.
    matching = [(v, v + 1) for v in range(6, 24, 2)]
    cross = [(u, v) for u in range(6) for v in range(6, 25)]
    host = from_edges(25, cross + matching)
    assert len(longest_path(host, Budget(500_000))) == 20


@pytest.mark.parametrize("a, b, length", [(10, 30, 21), (8, 24, 17)], ids=["K10,30", "K8,24"])
def test_the_side_count_bound_settles_a_complete_bipartite_host_less_a_matching(a, b, length):
    # K_{a,b} less the matching (i, a+i), i < a: a path alternates sides, so
    # 2a + 1 vertices.  The side-count bound settles it in a few hundred
    # nodes; reachability alone, twins and dead ends exhaust millions, so
    # the path is checked against the frozen full-count search with the
    # bound, not against the reachability-only reference.
    cross = [(u, a + v) for u in range(a) for v in range(b) if u != v]
    host = _relabelled(random.Random(0), a + b, cross)
    path = longest_path(host, Budget(10_000))
    assert len(path) == length
    assert path == longest_path_full_bound(host, Budget(1 << 30))


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


def test_a_later_path_as_long_never_replaces_the_best():
    # A 4-cycle 1-4-2-5 with a pendant vertex on each of 4 and 5.  The
    # search from 0 first stops at the dead end 0,4,1,5,2, then backtracks
    # to 5 and stops at 0,4,1,5,3, as long: the first path is the answer.
    host = from_edges(6, [(0, 4), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)])
    assert longest_path(host) == longest_path_reference(host) == (0, 4, 1, 5, 2)


def test_long_shuffled_paths_and_caterpillars_match_the_reference():
    """Paths and caterpillars (a spine with a leaf on every spine vertex) of
    order 3,000, labels shuffled, searched up to P_200: the search copies
    the path where each descent stops, the reference at every new best."""
    rng = random.Random(13)
    order, stop = 3000, 200
    spine = order // 2
    caterpillar = [(v, v + 1) for v in range(spine - 1)] + [(v, spine + v) for v in range(spine)]
    backtracked = 0
    for _ in range(2):
        for edges in ([(v, v + 1) for v in range(order - 1)], caterpillar):
            host = _relabelled(rng, order, edges)
            bud = Budget(1 << 30)
            path = longest_path(host, bud, stop=stop)
            assert len(path) == stop
            assert path == longest_path_reference(host, stop)
            backtracked += (1 << 30) - bud.remaining > stop
    assert backtracked  # some search stopped short of P_200 before it found one


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


def test_placement_spends_and_answers_as_the_recursive_search():
    """The placement search on its explicit stack against plain recursion:
    the same image and the same nodes spent on random hosts, and "unknown"
    one node short of a found embedding."""
    rng = random.Random(7)
    specs = [Cycle(4), Cycle(6), Wheel(4), Wheel(5), Jahangir(2, 2), Jahangir(2, 3),
             DisjointPaths(2, 3), CliqueUnion((3, 2))]
    for _ in range(30):
        host = random_graph(rng, rng.randint(6, 9), rng.choice((0.3, 0.5, 0.7)))
        for spec in specs:
            if spec.order > host.order:
                continue
            ref_bud, bud = Budget(1 << 30), Budget(1 << 30)
            want = place_recursive(host, build(spec), _search_order(spec), ref_bud)
            res = find_subgraph(host, spec, bud)
            assert bud.remaining == ref_bud.remaining, (host, spec)
            if want is None:
                assert res.status == "absent", (host, spec)
                continue
            assert res.status == "present" and list(res.embedding.mapping) == want
            spent = (1 << 30) - bud.remaining
            assert find_subgraph(host, spec, spent - 1).status == "unknown"


def test_placement_walks_a_pattern_deeper_than_the_recursion_limit():
    # One stack level per pattern vertex: 1,050 of them raised RecursionError
    # when each level was a call.
    host = complete(1100)
    res = find_subgraph(host, Cycle(1050))
    assert res.status == "present"
    assert check_embedding(host, res.embedding) is None


def test_multipartite_fit_walks_a_pattern_deeper_than_the_recursion_limit():
    assert fits_complete_multipartite(build(Path(1050)), (525, 525))
    assert not fits_complete_multipartite(build(Path(1050)), (524, 526))


def test_fits_multipartite_agrees_with_every_colouring():
    rng = random.Random(11)
    for _ in range(60):
        pattern = random_graph(rng, rng.randint(1, 6), rng.choice((0.2, 0.4, 0.6)))
        parts = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))
        assert fits_complete_multipartite(pattern, parts) == fits_by_colourings(
            pattern, parts
        ), (pattern, parts)
    # Long runs of equal caps, zeros among them: the search opens only the
    # first empty class of a run.
    for parts in ((3, 3, 3, 0, 0), (2,) * 6, (3, 3, 1, 1, 0), (4, 2, 2, 0, 0)):
        for _ in range(6):
            pattern = random_graph(rng, rng.randint(5, 7), rng.choice((0.3, 0.5, 0.7)))
            assert fits_complete_multipartite(pattern, parts) == fits_by_colourings(
                pattern, parts
            ), (pattern, parts)


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
